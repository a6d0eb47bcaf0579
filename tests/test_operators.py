"""The fractional derivative, its right inverse, the Volterra part, the resolvent."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicradial.field import (
    FieldParams,
    KRadialFunction,
    inner_product,
    make_basis,
    max_shell_difference,
)
from padicradial.operators import (
    apply_D_alpha,
    apply_D_alpha_O,
    apply_I01,
    apply_I_alpha,
    apply_resolvent_D1O,
    d_constant,
    moment_a,
    moment_b,
    moment_m0,
    operator_matrix,
)

P2 = FieldParams(2, 1.0)


def oracle_D_alpha(u, n, terms=500):
    """Direct summation of the three-term derivative formula at one shell."""
    p = u.params
    q, a = float(p.q), p.alpha
    down = sum(q ** float(k) * u.value_at(k) for k in range(n - terms, n))
    diag = q ** (-a * n - 1) * (q**a + q - 2.0) / (1.0 - q ** (-a - 1.0)) * u.value_at(n)
    up = sum(q ** (-a * l) * u.value_at(l) for l in range(n + 1, n + terms))
    return (
        p.theta_alpha * (1 - 1 / q) * q ** (-(a + 1.0) * n) * down
        + diag
        + p.theta_alpha * (1 - 1 / q) * up
    )


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_derivative_eigenfunctions(q, alpha):
    p = FieldParams(q, alpha)
    for N in range(1, 9):
        v = make_basis(p, "v", N, window=(-N - 3, -N + 4))
        image = apply_D_alpha(v)
        lam = float(q) ** (alpha * N)
        scale = max(1.0, lam)
        assert max_shell_difference(image, lam * v) / scale < 1e-12


def test_derivative_annihilates_constants_on_interior():
    one = KRadialFunction(P2, 0, 60, np.ones(61), 1.0)
    image = apply_D_alpha(one, (-5, 20))
    assert np.abs(image.values).max() < 1e-12
    assert abs(image.inner_tail) < 1e-12


def test_derivative_matches_direct_summation_oracle():
    f0 = make_basis(P2, "f", 0)
    got = apply_D_alpha(f0, (-3, 3))
    for n in range(-3, 4):
        assert got.value_at(n) == pytest.approx(oracle_D_alpha(f0, n), abs=1e-12)
    # frozen from the oracle: the value at |x| = 1 is 4 sqrt(2) / 3
    assert got.value_at(0) == pytest.approx(4.0 * math.sqrt(2.0) / 3.0, abs=1e-12)


@pytest.mark.parametrize("q, alpha", [(2, 1.0), (2, 0.5), (3, 2.0), (7, 1.0)])
def test_derivative_below_the_input_window_is_its_tail(q, alpha):
    # however far below the input the output window starts, and however far
    # the input window is padded with tail shells (q^(-alpha n) overflows there)
    v1 = make_basis(FieldParams(q, alpha), "v", 1)
    tail = apply_D_alpha(v1).inner_tail
    deep = apply_D_alpha(v1, (-2000, 0))
    padded = apply_D_alpha(v1.with_window(-2000, 0))
    assert deep.inner_tail == padded.inner_tail == tail != 0
    assert np.all(deep.values_on(-2000, -1) == tail)
    assert np.array_equal(padded.values, deep.values)


def test_derivative_raises_where_a_shell_sum_underflows():
    # 1100 tail shells between a tiny deep value and the top shell: the
    # bracket of the shells in between underflows while q^(-n) times it does not
    vals = np.zeros(1101, dtype=complex)
    vals[0], vals[-1] = 2.0**-1000, 1.0
    u = KRadialFunction(P2, -1100, 0, vals)
    with pytest.raises(OverflowError, match="underflow"):
        apply_D_alpha(u)


def test_derivative_rejects_window_above_input():
    with pytest.raises(ValueError):
        apply_D_alpha(make_basis(P2, "f", 3), (-1, 0))


def test_ball_derivative_eigenvalues():
    # constant on the ball: eigenvalue (q-1) q^alpha / (q^(alpha+1) - 1)
    v0 = make_basis(P2, "v", 0)
    image = apply_D_alpha_O(v0)
    assert max_shell_difference(image, (2.0 / 3.0) * v0, -10, 0) < 1e-13

    e3 = make_basis(P2, "e", 3)
    assert max_shell_difference(apply_D_alpha_O(e3), 8.0 * e3, -10, 0) < 1e-11

    zero = KRadialFunction(P2, -2, 0, np.zeros(3))
    out = apply_D_alpha_O(zero)
    assert np.abs(out.values).max() == 0.0


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_ball_derivative_eigenvalue_general_alpha(alpha):
    q = 3
    p = FieldParams(q, alpha)
    v0 = make_basis(p, "v", 0)
    mu0 = (q - 1.0) * q**alpha / (q ** (alpha + 1.0) - 1.0)
    assert max_shell_difference(apply_D_alpha_O(v0), mu0 * v0, -10, 0) < 1e-12


def test_integral_annihilates_the_constant():
    for alpha in (0.5, 1.0, 2.0):
        p = FieldParams(2, alpha)
        e0 = make_basis(p, "e", 0)
        image = apply_I_alpha(e0)
        assert np.abs(image.values).max() < 1e-13
        assert image.inner_tail == 0


def test_integral_on_e1_closed_form():
    # I^1 e_N = q^-N e_N - (1 - 1/q)^(1/2) q^(-N/2) e_0
    e1, e0 = make_basis(P2, "e", 1), make_basis(P2, "e", 0)
    want = 0.5 * e1 - math.sqrt(0.5) * 2.0 ** (-0.5) * e0
    assert max_shell_difference(apply_I_alpha(e1), want, -8, 0) < 1e-14


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("delta", [-1e-13, 1e-13])
def test_integral_pole_guard_at_alpha_one(q, delta):
    # the kernel is continuous through alpha = 1: orders next to 1 agree with 1
    rng = np.random.default_rng(q)
    vals = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    exact = apply_I_alpha(KRadialFunction(FieldParams(q, 1.0), -12, 0, vals, 0.5 - 1j))
    near = apply_I_alpha(KRadialFunction(FieldParams(q, 1.0 + delta), -12, 0, vals, 0.5 - 1j))
    scale = np.abs(exact.values).max()
    assert max_shell_difference(exact, near) / scale <= 1e-9


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_right_inverse_composition(q, alpha):
    p = FieldParams(q, alpha)
    hi = max(60, int(36.0 / (alpha * math.log(q))) + 8)
    for u in [make_basis(p, "f", 3), make_basis(p, "e", 2)]:
        w = apply_I_alpha(u, out_hi=hi)
        back = apply_D_alpha(w, (u.n_lo, 0))
        assert max_shell_difference(back, u, u.n_lo - 2, 0) < 1e-10


def oracle_I01(u, n, depth=400):
    """Direct shell summation of the logarithmic kernel."""
    p = u.params
    q = float(p.q)
    return p.c_volterra * sum(
        (n - j) * p.ln_q * u.value_at(j) * (1 - 1 / q) * q ** float(j)
        for j in range(n - depth, n)
    )


def test_volterra_part_of_the_constant():
    one = KRadialFunction(P2, 0, 0, [1.0], 1.0)
    image = apply_I01(one, out_lo=-8)
    for n in range(-8, 1):
        assert image.value_at(n) == pytest.approx(-0.5 * 2.0**n, abs=1e-15)
        assert image.value_at(n) == pytest.approx(oracle_I01(one, n), abs=1e-13)


def test_volterra_annihilates_top_shell():
    image = apply_I01(make_basis(P2, "u0"), out_lo=-10)
    assert np.abs(image.values).max() == 0.0


def test_volterra_value_formula_on_f_basis():
    # (I01 f_n)(q^-j) = (1 - 1/q)^(3/2) q^(-n/2) (j - n) for n > j
    f1 = make_basis(P2, "f", 1)
    image = apply_I01(f1)
    assert image.value_at(0) == pytest.approx(-0.25, abs=1e-15)
    assert image.value_at(0) == pytest.approx(oracle_I01(f1, 0), abs=1e-14)
    # the matching expansion coefficient carries the extra (1-1/q)^(1/2) q^(-j/2)
    got = inner_product(image, make_basis(P2, "f", 0))
    assert got == pytest.approx(-0.25 * math.sqrt(0.5), abs=1e-15)


def test_volterra_scaling_law_on_monomials():
    # I01 |x|^m = c d_m |x|^(m+1)
    for q in (2, 3):
        p = FieldParams(q)
        for m in range(0, 11):
            xm = make_basis(p, "monomial", m) if m >= 1 else KRadialFunction(p, -60, 0, np.ones(61))
            image = apply_I01(xm)
            want = p.c_volterra * d_constant(p, m)
            for n in range(-10, 1):
                assert image.value_at(n) == pytest.approx(
                    want * float(q) ** ((m + 1) * n), rel=1e-10, abs=1e-12
                )


def test_resolvent_eigen_action():
    e2 = make_basis(P2, "e", 2)
    assert max_shell_difference(apply_resolvent_D1O(e2), 0.25 * e2, -8, 0) < 1e-11
    v0 = make_basis(P2, "v", 0)
    assert max_shell_difference(apply_resolvent_D1O(v0), 1.5 * v0, -8, 0) < 1e-13


def test_resolvent_requires_order_one():
    with pytest.raises(ValueError):
        apply_resolvent_D1O(make_basis(FieldParams(2, 0.5), "f", 1))


@pytest.mark.parametrize("q", [2, 3])
def test_local_representation_identity(q):
    # the integral equals the resolvent minus its value at the origin
    p = FieldParams(q, 1.0)
    for family in ("e", "f"):
        for k in range(11):
            u = make_basis(p, family, k)
            res = apply_resolvent_D1O(u)
            origin = KRadialFunction(p, 0, 0, [res.inner_tail], res.inner_tail)
            assert max_shell_difference(apply_I_alpha(u), res - origin, -14, 0) < 1e-10


def test_resolvent_kernel_weights_cross_check():
    # the sub-shell weights are validated by resolvent . derivative = identity
    dim = 40
    prod = (
        operator_matrix(P2, "resolvent", "e", dim).entries
        @ operator_matrix(P2, "D1O", "e", dim).entries
    )
    assert np.abs(prod[:35, :35] - np.eye(35)).max() < 1e-8


def test_i1_matrix_pattern():
    mat = operator_matrix(P2, "I1", "e", 4).entries
    q = 2.0
    for N in range(1, 4):
        assert mat[0, N] == pytest.approx(-math.sqrt(1 - 1 / q) * q ** (-N / 2.0), abs=1e-14)
        assert mat[N, N] == pytest.approx(q ** (-N), abs=1e-14)
    mask = np.ones((4, 4), bool)
    mask[0, :] = False
    np.fill_diagonal(mask, False)
    assert np.abs(mat[mask]).max() < 1e-13


def test_i1_matrix_sparsity_at_dim_30():
    mat = operator_matrix(P2, "I1", "e", 30).entries
    mask = np.ones((30, 30), bool)
    mask[0, :] = False
    np.fill_diagonal(mask, False)
    assert np.abs(mat[mask]).max() <= 1e-13


def test_i01_matrix_triangular_entries():
    q = 2.0
    mat = operator_matrix(P2, "I01", "f", 6).entries
    for j in range(6):
        for n in range(6):
            if n > j:
                want = (1 - 1 / q) ** 2 * (j - n) * q ** (-(n + j) / 2.0)
                assert mat[j, n] == pytest.approx(want, abs=1e-14)
            else:
                assert mat[j, n] == 0.0


def test_j_matrix_small_display():
    # first row/column only, trace zero, scaled by (1 - 1/q)^(1/2) / 2i
    q = 2.0
    mat = operator_matrix(P2, "J", "e", 3).entries
    assert abs(np.trace(mat)) < 1e-15
    for N in range(1, 3):
        want = math.sqrt(1 - 1 / q) * q ** (-N / 2.0) / 2.0
        assert mat[0, N] == pytest.approx(-want / 1j, abs=1e-14)
        assert mat[N, 0] == pytest.approx(want / 1j, abs=1e-14)
    assert abs(mat[1, 2]) < 1e-15 and abs(mat[2, 1]) < 1e-15


def test_operator_matrix_validation():
    with pytest.raises(ValueError):
        operator_matrix(P2, "nope", "e", 4)
    with pytest.raises(ValueError):
        operator_matrix(P2, "I1", "g", 4)
    with pytest.raises(ValueError):
        operator_matrix(P2, "I1", "e", 1)


def oracle_moment(p, kind, n, terms=200):
    q = float(p.q)
    acc = 0.0
    for k in range(1, terms + 1):
        w = (1 - 1 / q) * q ** float(-k)
        if kind == "d":
            acc += k * p.ln_q * q ** float(-k * n) * w
        elif kind == "a":
            acc += -k * p.ln_q * q ** float(-k * n) * w
        elif kind == "b":
            acc += (k * p.ln_q) ** 2 * q ** float(-k * n) * w
    return acc


@pytest.mark.parametrize("q", [2, 3, 5])
def test_moment_closed_forms_vs_series(q):
    p = FieldParams(q)
    for n in range(0, 21):
        assert d_constant(p, n) == pytest.approx(oracle_moment(p, "d", n), abs=1e-13)
        assert moment_a(p, n) == pytest.approx(oracle_moment(p, "a", n), abs=1e-13)
        assert moment_b(p, n) == pytest.approx(oracle_moment(p, "b", n), abs=1e-13)
        assert moment_a(p, n) < 0 and moment_b(p, n) > 0


def test_moment_values():
    assert d_constant(P2, 0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert d_constant(P2, 1) == pytest.approx(2.0 * math.log(2.0) / 9.0, abs=1e-15)
    assert moment_m0(P2, 0) == pytest.approx(1.0, abs=1e-15)  # measure of the ball
    assert moment_m0(FieldParams(7), 0) == pytest.approx(1.0, abs=1e-15)


def test_moment_decay_ratio():
    d = np.array([d_constant(P2, m) for m in range(30)])
    ratios = d[2:] / d[1:-1]
    assert np.all(ratios <= 0.5 * (1.0 + 1e-6))


def test_constant_annihilation_under_integral_any_alpha():
    for alpha in (0.5, 1.0, 2.0):
        p = FieldParams(3, alpha)
        one = KRadialFunction(p, 0, 0, [1.0], 1.0)
        image = apply_I_alpha(one, out_hi=0)
        assert np.abs(image.values).max() < 1e-13


def _mp_exact(u, terms):
    """``q``, ``alpha`` and the shell values of ``u`` on its window widened by ``terms``, in mpmath."""
    vals = {k: mpmath.mpc(u.value_at(k)) for k in range(u.n_lo - terms, u.n_hi + terms + 1)}
    return mpmath.mpf(u.params.q), mpmath.mpf(u.params.alpha), vals


def mp_I_alpha(u, n, terms=200):
    """Direct mpmath sum of the power kernel at one shell, and its term mass."""
    with mpmath.workdps(40):
        q, a, val = _mp_exact(u, terms)
        pre = (1 - q**-a) / (1 - q ** (a - 1))
        local = q**-a * q ** (a * n) * val[n]
        kernel = [pre * (q ** ((a - 1) * n) - q ** ((a - 1) * k)) * val[k] * (1 - 1 / q) * q**k
                  for k in range(u.n_lo - terms, n)]
        return local + mpmath.fsum(kernel), abs(local) + mpmath.fsum(abs(x) for x in kernel)


def mp_D_alpha(u, n, terms=300):
    """Direct mpmath sum of the derivative's defining formula at one shell, and its term mass."""
    with mpmath.workdps(40):
        q, a, val = _mp_exact(u, terms)
        theta = (1 - q**a) / (1 - q ** (-a - 1))
        down = [(val[k] - val[n]) * q ** (k - (a + 1) * n) for k in range(u.n_lo - terms, n)]
        up = [(val[k] - val[n]) * q ** (-a * k) for k in range(n + 1, u.n_hi + terms + 1)]
        unit = theta * (1 - 1 / q)
        return unit * mpmath.fsum(down + up), abs(unit) * mpmath.fsum(abs(x) for x in down + up)


def _random_ball_function(params, width, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    return KRadialFunction(params, 1 - width, 0, vals, complex(*rng.standard_normal(2)))


@pytest.mark.parametrize(
    "op, oracle, q, alpha, width",
    [(apply_I_alpha, mp_I_alpha, 7, 0.5, 400), (apply_D_alpha, mp_D_alpha, 2, 0.5, 1600)],
)
def test_deep_window_against_direct_sums(op, oracle, q, alpha, width):
    # the shell measures of the deepest shells and the powers q^(-(alpha+1)n)
    # leave the double range; the values themselves do not
    u = _random_ball_function(FieldParams(q, alpha), width, 5)
    out = op(u)
    for n in (u.n_lo, u.n_lo + 1, u.n_lo + 10, u.n_lo + 30, u.n_lo + 60, -width // 2, 0):
        exact, mass = oracle(u, n)
        assert float(abs(mpmath.mpc(out.value_at(n)) - exact) / mass) < 1e-12


# orders clustered around the old pole, plus the whole working range
ORDERS = st.one_of(
    st.sampled_from([1.0, 1.0 - 1e-13, 1.0 + 1e-13, 1.0 - 1e-8, 1.0 + 1e-8]),
    st.floats(0.9, 1.1),
    st.floats(0.3, 2.5),
)


def _overlap_gap(a, b, log_scale, tol=1e-12):
    """Largest overlap gap of two outputs in units of ``tol`` times the shell
    scale ``exp(log_scale(n))``; gaps below the smallest normal double pass."""
    worst = 0.0
    for n in range(max(a.n_lo, b.n_lo), min(a.n_hi, b.n_hi) + 1):
        gap = abs(a.value_at(n) - b.value_at(n))
        if gap > 2.0**-1022:
            worst = max(worst, math.exp(math.log(gap / tol) - log_scale(n)))
    return worst


# a few shells of padding, or enough to take q^(+-alpha n) out of the double range
SHIFTS = st.one_of(st.integers(1, 5), st.integers(1100, 2500))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(q=st.integers(2, 7), alpha=ORDERS, width=st.integers(1, 400), shift=SHIFTS,
       seed=st.integers(0, 2**32 - 1))
def test_window_invariance(q, alpha, width, shift, seed):
    # widening the input window by constant-tail shells leaves every output alone
    u = _random_ball_function(FieldParams(q, alpha), width, seed)
    u1 = KRadialFunction(FieldParams(q, 1.0), u.n_lo, 0, u.values, u.inner_tail)
    ln_m = math.log(max(np.abs(u.values).max(), abs(u.inner_tail)))
    lnq = math.log(q)
    cases = [
        (apply_I_alpha, u, lambda n: alpha * n * lnq + ln_m),
        (apply_I01, u1, lambda n: n * lnq + ln_m),
        (apply_resolvent_D1O, u1, lambda n: ln_m),
    ]
    if alpha * width * math.log10(q) < 290:  # beyond, the derivative overflows
        cases.append((apply_D_alpha, u, lambda n: -alpha * n * lnq + ln_m))
    for op, v, log_scale in cases:
        out = op(v)
        wide = op(v.with_window(v.n_lo - shift, 0))
        assert _overlap_gap(out, wide, log_scale) <= 1.0, op.__name__
