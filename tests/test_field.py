"""Shell measures, inner products, bases, expansions, and monomial projections."""

import math

import numpy as np
import pytest

from padicradial.field import (
    BasisKind,
    FieldParams,
    GramConditionError,
    KRadialFunction,
    ball_power_integral,
    expand,
    inner_product,
    make_basis,
    max_shell_difference,
    norm,
    o_integral,
    poly_projection_residual,
    shell_measure,
)

P2 = FieldParams(2, 1.0)


def grid_inner_product(u, v, depth=300):
    """Oracle: direct shell summation of the pairing over the unit ball."""
    q = float(u.params.q)
    js = np.arange(-depth, 1)
    mu = (1 - 1 / q) * np.power(q, js.astype(float))
    return np.sum(u.values_on(-depth, 0) * np.conj(v.values_on(-depth, 0)) * mu)


def test_field_params_constants():
    p = FieldParams(3, 0.5)
    assert p.theta_alpha < 0
    assert p.c_volterra < 0
    assert FieldParams(2).c_volterra == pytest.approx(-1.0 / (2.0 * math.log(2.0)))
    with pytest.raises(ValueError):
        FieldParams(1)
    with pytest.raises(ValueError):
        FieldParams(2, -1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            FieldParams(2, bad)


def test_shell_measure_examples():
    assert shell_measure(P2, 0) == 0.5
    assert shell_measure(FieldParams(3), -1) == pytest.approx(2.0 / 9.0)
    total = sum(shell_measure(P2, n) for n in range(-60, 1))
    assert total == pytest.approx(1.0, abs=1e-12)  # the unit ball has measure 1


def test_ball_power_integral_examples():
    assert ball_power_integral(P2, 0, 1.0) == pytest.approx(1.0)
    assert ball_power_integral(P2, 0, 2.0) == pytest.approx(2.0 / 3.0)
    assert ball_power_integral(FieldParams(5), 1, 1.0) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        ball_power_integral(P2, 0, 0.0)


def test_value_window_semantics():
    u = KRadialFunction(P2, -2, 0, [1.0, 2.0, 3.0], inner_tail=7.0)
    assert u.value_at(0) == 3.0
    assert u.value_at(-2) == 1.0
    assert u.value_at(-3) == 7.0  # below the window: tail
    assert u.value_at(1) == 0.0  # above the window: zero
    assert u.o_supported
    wide = u.with_window(-5, 2)
    assert wide.value_at(-4) == 7.0 and wide.value_at(2) == 0.0
    with pytest.raises(ValueError):
        KRadialFunction(P2, 0, -1, [])


def test_norm_of_step_functions():
    # ||v_N||^2 = q^(-N+1)/(q-1): the ball q^-N plus the shell at q^(-N+1)
    for q in (2, 3, 5):
        p = FieldParams(q)
        for N in range(1, 21):
            v = make_basis(p, "v", N)
            expected = float(q) ** (-N + 1) / (q - 1.0)
            assert inner_product(v, v).real == pytest.approx(expected, rel=1e-12)


def test_inner_product_against_grid_oracle():
    for u, v in [
        (make_basis(P2, "e", 3), make_basis(P2, "e", 5)),
        (make_basis(P2, "v", 2), make_basis(P2, "f", 1)),
        (make_basis(P2, "e", 1), make_basis(P2, "monomial", 2)),
    ]:
        assert inner_product(u, v) == pytest.approx(grid_inner_product(u, v), abs=1e-13)


@pytest.mark.parametrize("family", ["e", "f"])
def test_orthonormality_up_to_index_40(family):
    p = FieldParams(3)
    members = [make_basis(p, family, k) for k in range(41)]
    worst = max(
        abs(inner_product(members[M], members[N]) - (1.0 if M == N else 0.0))
        for M in range(41)
        for N in range(M, 41)
    )
    assert worst < 1e-12


def test_e_normalization_matches_gram_schmidt_oracle():
    # orthonormalizing {1, v_1, v_2, ...} on a deep grid must reproduce e_N
    q, depth = 2.0, 300
    js = np.arange(-depth, 1)
    mu = (1 - 1 / q) * np.power(q, js.astype(float))
    ortho = []
    for N in range(6):
        w = make_basis(P2, "v", N).values_on(-depth, 0).real
        for b in ortho:
            w = w - np.sum(w * b * mu) * b
        ortho.append(w / math.sqrt(np.sum(w * w * mu)))
    for N in range(1, 6):
        lib = make_basis(P2, "e", N).values_on(-depth, 0).real
        sign = np.sign(np.sum(lib * ortho[N] * mu))
        assert np.max(np.abs(lib - sign * ortho[N])) < 1e-12


def test_make_basis_structure():
    e1 = make_basis(P2, "e", 1)
    assert e1.value_at(0) == pytest.approx(-math.sqrt(0.5) * math.sqrt(2.0))  # -1
    assert e1.value_at(-1) == pytest.approx(1.0)
    assert e1.inner_tail == pytest.approx(1.0)

    f0 = make_basis(P2, "f", 0)
    assert f0.value_at(0) == pytest.approx(math.sqrt(2.0))
    assert f0.value_at(-1) == 0.0 and f0.inner_tail == 0.0

    u0 = make_basis(P2, "u0")
    assert u0.value_at(0) == 1.0 and u0.value_at(-1) == 0.0

    v0 = make_basis(P2, "v", 0)
    assert v0.value_at(0) == 1.0 and v0.inner_tail == 1.0

    with pytest.raises(ValueError):
        make_basis(P2, "monomial", 0)
    with pytest.raises(ValueError):
        BasisKind("x", 1)
    with pytest.raises(ValueError):
        make_basis(P2, "e", 3, window=(-1, 0))  # does not cover the structure


def test_integral_of_e_N_vanishes():
    for N in range(1, 21):
        assert abs(o_integral(make_basis(P2, "e", N))) < 1e-14


def test_ball_pairings_against_grid_oracle():
    # the integrals against 1 and log|x| back the rank-2 skew matrices
    from padicradial.field import o_log_integral

    depth = 300
    js = np.arange(-depth, 1)
    mu = 0.5 * np.power(2.0, js.astype(float))
    for u in [make_basis(P2, "e", 4), make_basis(P2, "f", 2), make_basis(P2, "v", 3)]:
        vals = u.values_on(-depth, 0)
        assert o_integral(u) == pytest.approx(np.sum(vals * mu), abs=1e-13)
        assert o_log_integral(u) == pytest.approx(
            np.sum(vals * js * math.log(2.0) * mu), abs=1e-13
        )


def test_monomial_truncation_norm_bound():
    # cutting the monomial tail at n_lo loses norm below q^(n_lo (l + 1/2))
    for q in (2, 3):
        p = FieldParams(q)
        for l in (1, 2, 5):
            for lo in (-20, -40):
                err2 = sum(
                    float(q) ** (2 * l * j) * shell_measure(p, j) for j in range(lo - 300, lo)
                )
                assert math.sqrt(err2) <= float(q) ** (lo * (l + 0.5))


def test_monomial_pairing_closed_form():
    # <X_l, f_n> = (1 - 1/q)^(1/2) q^(-n/2 - n l)
    x1 = make_basis(P2, "monomial", 1)
    got = inner_product(x1, make_basis(P2, "f", 2))
    assert got == pytest.approx(math.sqrt(0.5) * 2.0 ** (-3), abs=1e-12)
    assert got == pytest.approx(0.0883883476, abs=1e-9)


def test_expand_unit_coordinates():
    coords = expand(make_basis(P2, "e", 3), "e", 10)
    want = np.zeros(10)
    want[3] = 1.0
    assert np.abs(coords - want).max() < 1e-12

    coords = expand(make_basis(P2, "f", 2), "f", 10)
    want = np.zeros(10)
    want[2] = 1.0
    assert np.abs(coords - want).max() < 1e-12


def test_parseval_for_f1_across_e_family():
    coords = expand(make_basis(P2, "f", 1), "e", 60)
    # oracle: the same coefficients by direct shell sums
    oracle = np.array(
        [grid_inner_product(make_basis(P2, "f", 1), make_basis(P2, "e", k)) for k in range(60)]
    )
    assert np.abs(coords - oracle).max() < 1e-12
    assert np.sum(np.abs(coords) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_parseval_for_random_supported_function():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u = KRadialFunction(P2, -4, 0, vals)
    coords = expand(u, "e", 60)
    assert np.sum(np.abs(coords) ** 2) == pytest.approx(norm(u) ** 2, abs=1e-9)


def brute_force_projection(target, L, depth=200):
    """Oracle: normal equations with Gram entries from raw shell sums."""
    q = float(target.params.q)
    js = np.arange(-depth, 1)
    mu = (1 - 1 / q) * np.power(q, js.astype(float))
    mono = np.array([np.power(q, l * js.astype(float)) for l in range(1, L + 1)])
    G = np.array([[np.sum(mono[a] * mono[b] * mu) for b in range(L)] for a in range(L)])
    tv = target.values_on(-depth, 0)
    b = np.array([np.sum(tv * mono[a] * mu) for a in range(L)])
    c = np.linalg.solve(G, b)
    r2 = np.sum(np.abs(tv) ** 2 * mu) - np.real(np.conj(c) @ b)
    return math.sqrt(max(r2.real, 0.0))


def test_projection_residual_examples():
    x2 = make_basis(P2, "monomial", 2)
    assert poly_projection_residual(x2, 2) == pytest.approx(0.0, abs=1e-10)

    f0 = make_basis(P2, "f", 0)
    r1 = poly_projection_residual(f0, 1)
    assert r1 == pytest.approx(brute_force_projection(f0, 1), abs=1e-10)
    assert r1 == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-12)
    assert poly_projection_residual(f0, 2) < r1


def test_projection_residuals_strictly_decrease():
    f0 = make_basis(P2, "f", 0)
    residuals = [poly_projection_residual(f0, L) for L in range(1, 11)]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_projection_condition_guard():
    with pytest.raises(GramConditionError):
        poly_projection_residual(make_basis(FieldParams(5), "f", 0), 60)


def test_max_shell_difference_sees_tails():
    u = make_basis(P2, "v", 2)
    v = make_basis(P2, "v", 2) * 1.0
    assert max_shell_difference(u, v) == 0.0
    w = KRadialFunction(P2, u.n_lo, u.n_hi, u.values, 0.5)
    assert max_shell_difference(u, w) == pytest.approx(0.5)
