"""Forward transform, difference identity, inversion, symbol identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicradial.field import FieldParams, KRadialFunction, make_basis
from padicradial.laplace import (
    TransformSequence,
    difference_identity_residual,
    laplace_invert,
    laplace_transform,
    symbol_identity_residual,
)

P2 = FieldParams(2, 1.0)


def oracle_transform(phi, n, terms=300):
    """Truncated direct sum of the defining shell formula."""
    q = float(phi.params.q)
    s = sum(phi.value_at(j) * q ** float(j) for j in range(-n - terms, -n + 1))
    return (1 - 1 / q) * s - phi.value_at(-n + 1) * q ** float(-n)


def direct_transform(phi, n_range):
    """Reference: the defining shell sum at each n, the tail in closed form."""
    lo, hi = n_range
    q = float(phi.params.q)
    out = np.empty(hi - lo + 1, dtype=complex)
    for i, n in enumerate(range(lo, hi + 1)):
        s = 0j
        k_hi = min(-n, phi.n_hi)
        if k_hi >= phi.n_lo:
            ks = np.arange(phi.n_lo, k_hi + 1)
            s += np.sum(phi.values[ks - phi.n_lo] * np.power(q, ks.astype(float)))
        J = min(-n, phi.n_lo - 1)
        s += phi.inner_tail * q ** float(J) / (1.0 - 1.0 / q)
        out[i] = (1.0 - 1.0 / q) * s - phi.value_at(-n + 1) * q ** float(-n)
    return out


def term_mass(phi, n):
    """``(1-1/q) sum_{j <= -n} |phi_j| q^j + |phi(q^(1-n))| q^(-n)``."""
    q = float(phi.params.q)
    ks = range(phi.n_lo, min(-n, phi.n_hi) + 1)
    s = sum(abs(phi.value_at(k)) * q ** float(k) for k in ks)
    s += abs(phi.inner_tail) * q ** float(min(-n, phi.n_lo - 1)) / (1.0 - 1.0 / q)
    return (1.0 - 1.0 / q) * s + abs(phi.value_at(1 - n)) * q ** float(-n)


def loop_invert(tilde, phi_at_1, m_max):
    """Reference: the two recursions accumulated one index at a time."""
    q = float(tilde.params.q)
    up, down = np.empty(m_max, dtype=complex), np.empty(m_max, dtype=complex)
    acc = complex(phi_at_1)
    for m in range(1, m_max + 1):
        acc += q ** float(1 - m) * (tilde.value_at(2 - m) - tilde.value_at(1 - m))
        up[m - 1] = acc
    acc = complex(phi_at_1)
    for m in range(1, m_max + 1):
        acc += q ** float(m) * (tilde.value_at(m) - tilde.value_at(m + 1))
        down[m - 1] = acc
    return down, up


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7]), n_lo=st.integers(-40, 10), width=st.integers(1, 60),
       tail=st.booleans(), lo=st.integers(-80, 60), length=st.integers(1, 80),
       seed=st.integers(0, 2**32 - 1))
def test_transform_matches_the_shell_sum(q, n_lo, width, tail, lo, length, seed):
    # windows inside the ball and reaching out of it, ranges from above the
    # support (where the value is constant) to below the window
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    t = complex(*rng.standard_normal(2)) if tail else 0j
    phi = KRadialFunction(FieldParams(q), n_lo, n_lo + width - 1, vals, t)
    hi = lo + length - 1
    got = laplace_transform(phi, (lo, hi)).values
    want = direct_transform(phi, (lo, hi))
    for i, n in enumerate(range(lo, hi + 1)):
        assert abs(got[i] - want[i]) <= 1e-14 * term_mass(phi, n), n
    above = got[: max(0, -phi.n_hi - lo + 1)]
    assert np.all(above == got[0])


def test_transform_domain_ends_where_q_to_minus_n_overflows():
    # 7^364 is a double and 7^365 is not, so at q = 7 the range may start at
    # n = -364 and no lower
    W = 400
    m = W - 1
    rng = np.random.default_rng(17)
    phi = KRadialFunction(FieldParams(7), 1 - W, 0, rng.standard_normal(W), 0.5)
    with pytest.raises(OverflowError, match="n=-398"):
        laplace_transform(phi, (1 - m, m + 1))
    with pytest.raises(OverflowError, match=r"n=-365: q\^\(-n\) = 7\^365 is beyond the double range"):
        laplace_transform(phi, (-365, m + 1))
    tilde = laplace_transform(phi, (-364, m + 1))
    assert np.isfinite(tilde.values).all()
    want = direct_transform(phi, (-364, -360))
    for n in range(-364, -359):
        assert abs(tilde.value_at(n) - want[n + 364]) <= 1e-14 * term_mass(phi, n)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_inversion_matches_the_loop_bit_for_bit(q):
    rng = np.random.default_rng(q)
    for m_max in (1, 2, 37, 250):
        lo, hi = 1 - m_max - 2, m_max + 3
        vals = rng.standard_normal(hi - lo + 1) + 1j * rng.standard_normal(hi - lo + 1)
        vals[rng.random(vals.size) < 0.2] = complex(-0.0, -0.0)  # signed zeros too
        tilde = TransformSequence(FieldParams(q), lo, hi, vals)
        phi1 = complex(*rng.standard_normal(2))
        for got, want in zip(laplace_invert(tilde, phi1, m_max), loop_invert(tilde, phi1, m_max)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_lo, n_hi", [(-3, 5), (-5, 9), (-2, 5), (-3, 4), (-1, 2), (0, 0), (-20, -10),
                                        (10, 20), (-9, -4), (6, 9), (-4, 5), (-3, 6)])
def test_inversion_range_error_names_the_first_and_last_missing_index(n_lo, n_hi):
    # m_max = 4 needs the indices -3 .. 5; the message spans the missing ones
    m_max = 4
    tilde = TransformSequence(P2, n_lo, n_hi, np.ones(n_hi - n_lo + 1))
    missing = [n for n in range(1 - m_max, m_max + 2) if not n_lo <= n <= n_hi]
    if not missing:
        assert all(np.isfinite(part).all() for part in laplace_invert(tilde, 1.0, m_max))
        return
    with pytest.raises(ValueError) as exc:
        laplace_invert(tilde, 1.0, m_max)
    assert str(exc.value) == (f"transform range [{n_lo}, {n_hi}] is missing indices "
                              f"{missing[0]}..{missing[-1]} needed for m_max=4")


def test_inversion_beyond_the_double_range_names_the_sum():
    # the differences of +-1e308 overflow; the loop returned inf and nan
    big = [1e308, -1e308, 1e308, -1e308, 1e308]
    with pytest.raises(ValueError, match="'phi_down' is beyond the double range"):
        laplace_invert(TransformSequence(P2, -1, 3, big), 0j, 2)
    with pytest.raises(ValueError, match="'phi_up'"):
        laplace_invert(TransformSequence(P2, -1, 3, [1e308, -1e308, 1.0, 1.0, 1.0]), 0j, 2)


def test_inversion_weight_beyond_the_double_range_names_q_and_m_max():
    # on (1-m, m+1) at q = 2 the transform needs 2^(m-1) and the inversion
    # 2^m: m = 1024 transforms but cannot be inverted, m = 1023 still can
    W = 1025
    m = W - 1
    rng = np.random.default_rng(19)
    phi = KRadialFunction(P2, 1 - W, 0, rng.standard_normal(W), 0.5)
    tilde = laplace_transform(phi, (1 - m, m + 1))
    with pytest.raises(ValueError, match=r"'phi_down' is beyond the double range \(q=2, m_max=1024\)"):
        laplace_invert(tilde, phi.value_at(0), m)
    phi1 = phi.value_at(0)
    for got, want in zip(laplace_invert(tilde, phi1, m - 1), loop_invert(tilde, phi1, m - 1)):
        assert got.tobytes() == want.tobytes()


def test_constant_transforms_to_zero():
    one = KRadialFunction(P2, 0, 20, np.ones(21), 1.0)
    tilde = laplace_transform(one, (-15, 15))
    assert np.abs(tilde.values).max() < 1e-14


def test_indicator_of_the_ball():
    ind = KRadialFunction(P2, 0, 0, [1.0], 1.0)
    tilde = laplace_transform(ind, (-10, 10))
    for n in range(-10, 11):
        want = 1.0 if n <= 0 else 0.0
        assert tilde.value_at(n) == pytest.approx(want, abs=1e-14)
        assert tilde.value_at(n) == pytest.approx(oracle_transform(ind, n), abs=1e-13)


def test_single_shell_function_transform():
    f0 = make_basis(P2, "f", 0)
    tilde = laplace_transform(f0, (-6, 8))
    root2 = math.sqrt(2.0)
    for n in range(-6, 9):
        assert tilde.value_at(n) == pytest.approx(oracle_transform(f0, n), abs=1e-13)
    # frozen from the oracle: sqrt(2)/2 on n <= 0, then -sqrt(2)/2 at n = 1, then 0
    assert tilde.value_at(0) == pytest.approx(root2 / 2.0, abs=1e-15)
    assert tilde.value_at(-3) == pytest.approx(root2 / 2.0, abs=1e-15)
    assert tilde.value_at(1) == pytest.approx(-root2 / 2.0, abs=1e-15)
    for n in range(2, 9):
        assert abs(tilde.value_at(n)) < 1e-15


def test_transform_linearity_and_constant_kernel():
    rng = np.random.default_rng(3)
    phi = KRadialFunction(P2, -8, 0, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    psi = KRadialFunction(P2, -8, 0, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    lift = KRadialFunction(P2, -8, 10, np.concatenate([phi.values + 3.7, 3.7 * np.ones(10)]), 3.7)

    ta = laplace_transform(phi, (-9, 9)).values
    tb = laplace_transform(psi, (-9, 9)).values
    tab = laplace_transform(
        KRadialFunction(P2, -8, 0, 2.0 * phi.values - 1j * psi.values), (-9, 9)
    ).values
    assert np.abs(tab - (2.0 * ta - 1j * tb)).max() < 1e-13

    # adding a constant does not change the transform (where the shift is constant)
    shifted = laplace_transform(lift, (-9, 9)).values
    assert np.abs(shifted - ta).max() < 1e-12


@pytest.mark.parametrize("q", [2, 3, 5])
def test_difference_identity_random_functions(q):
    p = FieldParams(q)
    rng = np.random.default_rng(11)
    for _ in range(30):
        vals = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        phi = KRadialFunction(p, -12, 0, vals)
        assert difference_identity_residual(phi, (-12, 12)) < 1e-12


def test_difference_identity_constant():
    one = KRadialFunction(P2, 0, 20, np.ones(21), 1.0)
    assert difference_identity_residual(one, (-10, 10)) < 1e-14


def test_difference_identity_with_tail():
    for q in (2, 3):
        v2 = make_basis(FieldParams(q), "v", 2)  # carries the constant tail 1
        assert difference_identity_residual(v2, (-8, 8)) < 1e-12


def test_monotone_transfer():
    # strictly increasing phi in |x| gives strictly monotone transform
    mono = make_basis(FieldParams(3), "monomial", 1, window=(-12, 0))
    tilde = laplace_transform(mono, (-8, 10))
    dphi = np.array([mono.value_at(-n) - mono.value_at(-n + 1) for n in range(-8, 10)])
    dtil = np.array([tilde.value_at(n) - tilde.value_at(n + 1) for n in range(-8, 10)])
    assert np.array_equal(np.sign(dphi.real), np.sign(dtil.real))


def test_inversion_round_trip():
    rng = np.random.default_rng(5)
    for q in (2, 3):
        p = FieldParams(q)
        vals = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        phi = KRadialFunction(p, -20, 0, vals)
        m_max = 22
        tilde = laplace_transform(phi, (1 - m_max, m_max + 1))
        down, up = laplace_invert(tilde, phi.value_at(0), m_max)
        for m in range(1, m_max + 1):
            assert down[m - 1] == pytest.approx(phi.value_at(-m), abs=1e-12)
            assert up[m - 1] == pytest.approx(phi.value_at(m), abs=1e-12)


def test_inversion_of_zero_transform_is_constant():
    tilde = laplace_transform(KRadialFunction(P2, 0, 22, np.ones(23), 1.0), (-11, 13))
    assert np.abs(tilde.values).max() < 1e-14
    down, up = laplace_invert(tilde, 4.25, 10)
    assert np.abs(down - 4.25).max() < 1e-13
    assert np.abs(up - 4.25).max() < 1e-13


def test_inversion_of_ball_indicator():
    ind = KRadialFunction(P2, 0, 0, [1.0], 1.0)
    tilde = laplace_transform(ind, (-11, 13))
    down, up = laplace_invert(tilde, 1.0, 10)
    assert np.abs(down - 1.0).max() < 1e-14  # inside the ball
    assert np.abs(up).max() < 1e-14  # outside


def test_inversion_range_error_names_missing_indices():
    tilde = laplace_transform(KRadialFunction(P2, 0, 0, [1.0], 1.0), (0, 5))
    with pytest.raises(ValueError, match="missing indices"):
        laplace_invert(tilde, 1.0, 8)


def test_transform_decay_for_compact_zero_tail():
    rng = np.random.default_rng(9)
    phi = KRadialFunction(P2, -10, 0, rng.standard_normal(11))
    tilde = laplace_transform(phi, (40, 41))
    assert abs(tilde.value_at(40)) < 1e-10


def test_symbol_identity_step_function():
    # both sides equal twice the transform for the first step eigenfunction
    phi = make_basis(P2, "v", 1, window=(-12, 3))
    phi = KRadialFunction(P2, -12, 3, phi.values_on(-12, 3), 0j)
    assert symbol_identity_residual(phi, 1.0, (-6, 10)) < 1e-10


def test_symbol_identity_constant_is_trivial():
    zero = KRadialFunction(P2, -5, 0, np.zeros(6))
    assert symbol_identity_residual(zero, 1.0, (-4, 4)) == 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_symbol_identity_random(alpha):
    p = FieldParams(3, alpha)
    rng = np.random.default_rng(13)
    phi = KRadialFunction(p, -5, 0, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    assert symbol_identity_residual(phi, alpha, (-6, 10)) < 1e-10


def test_symbol_identity_requires_zero_tail():
    with pytest.raises(ValueError):
        symbol_identity_residual(make_basis(P2, "v", 1), 1.0, (-2, 2))
