"""The fractional derivative, its right inverse, the Volterra part, the resolvent."""

import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicradial.field
import padicradial.operators
from padicradial.field import (
    FieldParams,
    KRadialFunction,
    expand,
    inner_product,
    make_basis,
    max_shell_difference,
    o_integral,
    o_log_integral,
)
from padicradial.operators import (
    OPERATOR_NAMES,
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
EPS = np.finfo(float).eps


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


def derivative_reference(u, out_window=None):
    """``apply_D_alpha`` with its set-up as it was: the first moved shell from
    ``np.flatnonzero``, the deviation as ``values_on(..) - t`` and the shells
    of ``_scaled`` as an ``np.arange``.  The set-up must keep its bits."""
    p = u.params
    if out_window is None:
        out_window = (u.n_lo, u.n_hi)
    lo, hi = out_window
    if lo > hi:
        raise ValueError(f"empty output window {out_window}")
    if lo > u.n_lo:
        raise ValueError(f"output window must start at or below the input window ({lo} > {u.n_lo})")
    t, q, a = u.inner_tail, float(p.q), p.alpha
    moved = np.flatnonzero(u.values != t)
    first = u.n_lo + (int(moved[0]) if moved.size else len(u.values) - 1)
    m, top = first - 1, max(hi, first)
    dev = u.values_on(m, max(top, u.n_hi)) - t
    qa = q**a
    down_up = padicradial.field._scan(dev, q) + padicradial.field._scan(dev[::-1], qa, -t / (qa - 1.0))[::-1]
    diag = (qa + q - 2.0) / (1.0 - q ** (-a - 1.0)) / q
    bracket = p.theta_alpha * (1.0 - 1.0 / q) * down_up + diag * dev
    out = padicradial.operators._scaled(bracket[: top - m + 1], q, -a, np.arange(m, top + 1.0))
    image = KRadialFunction(p, first, top, out[1:], out[0])
    return image if (lo, hi) == (first, top) else KRadialFunction(p, lo, hi, image.values_on(lo, hi), out[0])


def outcome(fn, *args):
    """A function's window, value and tail bytes, or the type and message of its
    refusal (non-finite input may warn on the way)."""
    try:
        with np.errstate(all="ignore"):
            f = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return f.n_lo, f.n_hi, f.values.tobytes(), np.complex128(f.inner_tail).tobytes()


DERIVATIVE_TAILS = [0j, complex(-0.0, 0.0), complex(0.7, -1.3), complex(math.inf, 0.0),
                    complex(math.nan, 1.0), complex(-math.inf, math.inf)]


@pytest.mark.parametrize("q, alpha", [(2, 1.0), (3, 0.9), (7, 2.0)])
@pytest.mark.parametrize("tail", DERIVATIVE_TAILS)
def test_derivative_set_up_is_the_reference_bit_for_bit(q, alpha, tail):
    # the lowest k shells equal to the tail, k in {0, 1, W-1, W} (one of them
    # a zero of the other sign), on output windows that start below the input
    # window, end above it, or both, and on refused ones; deep windows (W = 700)
    # where q^(-alpha n) leaves the double range at q = 7 are refused alike
    rng = np.random.default_rng(q)
    for W in (12, 700):
        for k in (0, 1, W - 1, W):
            vals = rng.standard_normal(W) + 1j * rng.standard_normal(W)
            vals[:k] = tail
            if k and tail == 0:
                vals[k - 1] = complex(-tail.real, -0.0)
            u = KRadialFunction(FieldParams(q, alpha), -W, -1, vals, tail)
            for window in (None, (-W - 3, -1), (-W, 2), (-W - 2, 3), (-W - 4, -W + 3),
                           (-W - 6, -W - 2), (-W + 1, 0), (3, 1)):
                assert outcome(apply_D_alpha, u, window) == outcome(derivative_reference, u, window)


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([2, 3, 7]), orders=st.sampled_from([(0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (0.7, 1.3), (2.0, 0.5)]),
       tail=st.sampled_from([0j, 0.75 - 0.5j]), seed=st.integers(0, 2**32 - 1))
def test_integrals_compose_as_a_semigroup_on_the_ball(q, orders, tail, seed):
    # I^alpha I^beta = I^(alpha+beta) on the ball, both sides through apply_I_alpha on a
    # random window of 30 shells: within 1e-14 of the largest output value (6.1e-16 measured)
    (alpha, beta), rng = orders, np.random.default_rng(seed)
    vals = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    inner = apply_I_alpha(KRadialFunction(FieldParams(q, beta), -29, 0, vals, tail))
    twice = apply_I_alpha(KRadialFunction(FieldParams(q, alpha), -29, 0, inner.values, inner.inner_tail))
    once = apply_I_alpha(KRadialFunction(FieldParams(q, alpha + beta), -29, 0, vals, tail))
    assert max_shell_difference(twice, once) <= 1e-14 * np.abs(once.values).max()


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
    image = apply_I01(one.with_window(-8, 0))
    for n in range(-8, 1):
        assert image.value_at(n) == pytest.approx(-0.5 * 2.0**n, abs=1e-15)
        assert image.value_at(n) == pytest.approx(oracle_I01(one, n), abs=1e-13)


def test_volterra_annihilates_top_shell():
    image = apply_I01(make_basis(P2, "u0").with_window(-10, 0))
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


def oracle_resolvent_order_one(u):
    """The order-one resolvent as a radial convolution, on the shells ``n_lo - 1 .. 0``.

    The logarithmic kernel ``k(q^m) = c m log q - 1/q = -(1-1/q) m - 1/q``
    plus the projection term with the inverse first eigenvalue ``(q+1)/q``.
    Off the equal-radius shell ``|x - xi| = max(|x|, |xi|)``: the kernel at
    ``|xi|`` weights the mass above ``|x|``, the kernel at ``|x|`` the mass
    below, both running sums.  On the shell the difference sweeps the
    sub-shells with measure ``(1-1/q) q^m`` below, whose kernel integral
    over the ball ``|x| <= q^J`` is ``-(1-1/q) J q^J``, and ``(1-2/q) q^n``
    on the shell itself.  The value at ``n_lo - 1`` is the output tail.
    """
    p = u.params
    q = float(p.q)
    unit = 1.0 - 1.0 / q
    lo = u.n_lo - 1
    ns = np.arange(lo, 1.0)
    qn = np.power(q, ns)
    vals = u.values_on(lo, 0)
    kern = -(unit * ns + 1.0 / q)
    mass = vals * unit * qn
    below = np.cumsum(np.concatenate(([u.inner_tail * q ** (lo - 1.0)], mass)))[:-1]
    above = np.cumsum(np.concatenate(([0j], (kern * mass)[::-1])))[-2::-1]
    total = below[-1] + mass[-1]
    onshell = -unit * (ns - 1.0) * qn / q + kern * (1.0 - 2.0 / q) * qn
    out = above + kern * below + onshell * vals + (q + 1.0) / q * total
    return KRadialFunction(p, u.n_lo, 0, out[1:], out[0])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_resolvent_matches_the_order_one_convolution(q):
    p = FieldParams(q, 1.0)
    rng = np.random.default_rng(q)
    inputs = [make_basis(p, family, k) for family in ("e", "f") for k in range(11)]
    for width in (1, 2, 13, 60):
        vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        inputs.append(KRadialFunction(p, 1 - width, 0, vals, complex(*rng.standard_normal(2))))
    for u in inputs:
        want = oracle_resolvent_order_one(u)
        # e_k maps to q^-k e_k: the output can be far smaller than the input
        scale = max(np.abs(u.values_on(u.n_lo - 1, 0)).max(), np.abs(want.values).max())
        assert max_shell_difference(apply_resolvent_D1O(u), want) <= 1e-15 * scale


def test_resolvent_eigen_action():
    e2 = make_basis(P2, "e", 2)
    assert max_shell_difference(apply_resolvent_D1O(e2), 0.25 * e2, -8, 0) < 1e-11
    v0 = make_basis(P2, "v", 0)
    assert max_shell_difference(apply_resolvent_D1O(v0), 1.5 * v0, -8, 0) < 1e-13


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_resolvent_eigen_action_any_order(q, alpha):
    # R v_0 = v_0 / lambda_1 and R e_N = q^(-alpha N) e_N
    p = FieldParams(q, alpha)
    lam1 = (1.0 - 1.0 / q) / (1.0 - q ** (-alpha - 1.0))
    v0 = make_basis(p, "v", 0)
    assert max_shell_difference(apply_resolvent_D1O(v0), v0 * (1.0 / lam1), -8, 0) < 1e-13
    for N in range(1, 6):
        eN = make_basis(p, "e", N)
        assert max_shell_difference(apply_resolvent_D1O(eN), eN * float(q) ** (-alpha * N)) < 1e-11


@pytest.mark.parametrize("q", [2, 3, 5, 11])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_derivative_of_the_integral_is_identity_minus_a_constant(q, alpha):
    # D^alpha_O (I^alpha u) = u - lambda_1 c(u), with c(u) = (R u)(0)
    p = FieldParams(q, alpha)
    lam1 = (1.0 - 1.0 / q) / (1.0 - q ** (-alpha - 1.0))
    for family in ("e", "f"):
        for k in range(11):
            u = make_basis(p, family, k)
            c = lam1 * apply_resolvent_D1O(u).inner_tail
            back = apply_D_alpha_O(apply_I_alpha(u))
            assert max_shell_difference(back, u - KRadialFunction(p, 0, 0, [c], c)) < 1e-10


@pytest.mark.parametrize("q", [2, 3])
def test_local_representation_identity(q):
    # the integral equals the convolution resolvent minus its value at the origin
    p = FieldParams(q, 1.0)
    for family in ("e", "f"):
        for k in range(11):
            u = make_basis(p, family, k)
            res = oracle_resolvent_order_one(u)
            origin = KRadialFunction(p, 0, 0, [res.inner_tail], res.inner_tail)
            assert max_shell_difference(apply_I_alpha(u), res - origin, -14, 0) < 1e-10


def test_resolvent_kernel_weights_cross_check():
    # resolvent . derivative = identity on the leading block of the e-matrices
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


def pairing_matrix(params, name, basis, dim):
    """Reference: every entry as one pairing of an image with a basis element."""
    members = [make_basis(params, basis, k) for k in range(dim)]
    if name == "J":
        # J u = kappa (<u, 1> log|x| - <u, log|x|>), log|x| on a window deep
        # enough that its frozen tail is invisible to the pairings
        q = float(params.q)
        kap = (1.0 - q) / (2j * q * params.ln_q)
        log = -1.0 * make_basis(params, "h2", window=(-600, 0))
        one = make_basis(params, "v", 0)
        images = [kap * (o_integral(b) * log - o_log_integral(b) * one) for b in members]
    else:
        op = {"D1O": apply_D_alpha_O, "I1": apply_I_alpha, "I01": apply_I01,
              "resolvent": apply_resolvent_D1O}[name]
        images = [op(b) for b in members]
    return np.array([[inner_product(img, b) for img in images] for b in members])


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("basis", ["e", "f"])
@pytest.mark.parametrize("name", OPERATOR_NAMES)
def test_operator_matrix_matches_pairings(q, basis, name):
    got = operator_matrix(FieldParams(q), name, basis, 40).entries
    want = pairing_matrix(FieldParams(q), name, basis, 40)
    if name in ("resolvent", "J") and basis == "e":
        # past their first columns the pairings are the cancellation noise of the
        # diagonal entries q^-n, so they are held to the terms they sum (3.3e-7 of a
        # column at q = 3); J's are the noise of int_O e_N, exactly 0 (1.03 eps of the
        # term mass measured, 1.04e-14 of a column at q = 3)
        assert np.all(np.abs(got - want) <= 8 * EPS * loop_term_mass(FieldParams(q), name, basis, 40))
    else:  # column by column: the entries of the D1O e-matrix span twelve decades
        assert np.all(np.abs(got - want).max(axis=0) <= 1e-14 * np.abs(want).max(axis=0))


def test_i01_f_matrix_is_exactly_strictly_triangular():
    mat = operator_matrix(P2, "I01", "f", 60).entries
    assert np.all(np.tril(mat) == 0.0)
    assert np.all(np.diag(mat, 1) != 0.0)


def oracle_operator_matrix(params, name, basis, dim):
    """The column loop: one basis element, one operator application and one
    expansion per column; ``J`` from the pairings of each element with 1 and log."""
    p1 = replace(params, alpha=1.0)
    members = [make_basis(p1, basis, n) for n in range(dim)]
    if name == "J":
        q = float(p1.q)
        kap = (1.0 - q) / (2j * q * p1.ln_q)
        ones = np.array([o_integral(b).real for b in members])
        logs = np.array([o_log_integral(b).real for b in members])
        return kap * (np.outer(logs, ones) - np.outer(ones, logs))
    op = {"D1O": apply_D_alpha_O, "I1": apply_I_alpha, "I01": apply_I01,
          "resolvent": apply_resolvent_D1O}[name]
    return np.column_stack([expand(op(b), basis, dim) for b in members])


def loop_term_mass(params, name, basis, dim):
    """The term mass of each entry of the ``I1``, ``I01``, resolvent or ``J`` matrix: per
    shell the magnitudes its image value sums (``I01`` of ``|b_n|`` sums terms of one sign,
    ``I1`` adds the diagonal term, the resolvent its constant's), paired with ``|b_j|``;
    for ``J``, ``|kappa| (L_j M_n + M_j L_n)`` with ``M`` and ``L`` the integrals of ``|b|``
    and ``|b log|x|||`` that its entry ``kappa (logs_j ones_n - ones_j logs_n)`` pairs."""
    p = replace(params, alpha=1.0)
    q, lo = float(p.q), 1 - dim
    members = [make_basis(p, basis, n) for n in range(dim)]
    absolute = [KRadialFunction(p, b.n_lo, 0, np.abs(b.values_on(b.n_lo, 0)), abs(b.inner_tail)) for b in members]
    if name == "J":
        ones = np.array([o_integral(a).real for a in absolute])
        logs = -np.array([o_log_integral(a).real for a in absolute])
        return (q - 1.0) / (2.0 * q * p.ln_q) * (np.outer(logs, ones) + np.outer(ones, logs))
    s = np.abs([b.values[0] for b in members])  # e_j is s_j on the shells <= -j, f_j on -j
    mu = (1.0 - 1.0 / q) * q ** -np.arange(float(dim))  # the shells 0, -1, .., lo
    out = np.empty((dim, dim))
    for n, a in enumerate(absolute):
        mass = -apply_I01(a).values.real + (name != "I01") * q ** np.arange(a.n_lo - 1.0, 0.0) * a.values.real
        c = o_integral(a).real / q - apply_I_alpha(a, out_hi=1).value_at(1).real if name == "resolvent" else 0.0
        w = KRadialFunction(p, a.n_lo, 0, mass + c, c).values_on(lo, 0).real[::-1] * mu
        if basis == "f":
            out[:, n] = s * w
        else:  # the ball below the shell -j, and e_j's second shell -j + 1
            below = c * q ** (lo - 1.0) + np.cumsum(w[::-1])[::-1]
            out[:, n] = s * below + s / (q - 1.0) * np.append(0.0, w[:-1])
    return out


def assert_is_the_column_loop(got, want, name, basis, params):
    """The ``I1`` e-matrix at q = 2 is the column loop's bits: there the closed-form images
    are the loop's images bit for bit.  Elsewhere a matrix read off its eigenvalues,
    written in closed form or from its exact kernel is rounded differently: ``D1O`` and
    the f-family ``I1``, ``I01`` and ``J`` within 8 eps of their column's largest entry (at
    most 4.8 eps measured), the rest, whose columns cancel in the loop, within a few eps
    of each entry's term mass (at most 3.3 eps measured in the e-family, for the
    closed-form ``I01``, where the loop's own ``J`` row 0 is up to 294 eps of its column
    off; 6.0 for the f resolvent)."""
    if basis == "e" and name == "I1" and params.q == 2:
        assert np.array_equal(got, want)
    elif name == "D1O" or basis == "f" and name != "resolvent":
        assert np.all(np.abs(got - want) <= 8 * EPS * np.abs(want).max(axis=0))
    else:
        mass = loop_term_mass(params, name, basis, len(got))
        assert np.all(np.abs(got - want) <= (4 if basis == "e" else 8) * EPS * mass)


@pytest.mark.parametrize("dim", [2, 3, 40, 160])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("basis", ["e", "f"])
@pytest.mark.parametrize("name", OPERATOR_NAMES)
def test_operator_matrix_is_the_column_loop(name, basis, q, dim):
    got = operator_matrix(FieldParams(q, 0.5), name, basis, dim).entries
    want = oracle_operator_matrix(FieldParams(q), name, basis, dim)
    assert_is_the_column_loop(got, want, name, basis, FieldParams(q))


@pytest.mark.parametrize("name, basis", [("I1", "e"), ("I01", "e"), ("I1", "f"), ("I01", "f"),
                                         ("D1O", "f"), ("resolvent", "f"), ("J", "f")])
def test_operator_matrix_is_the_column_loop_at_dim_640(name, basis):
    got = operator_matrix(P2, name, basis, 640).entries
    assert_is_the_column_loop(got, oracle_operator_matrix(P2, name, basis, 640), name, basis, P2)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9, 101])
@pytest.mark.parametrize("basis", ["e", "f"])
def test_element_integrals_are_those_of_make_basis(q, basis):
    # the closed-form integrals the J matrices pair are o_integral and o_log_integral
    # of the basis elements, to 4 eps of the terms those sum (3.0 measured): with u = 1-1/q,
    # int f_n = r_n = sqrt(u q^-n) and int f_n log|x| = -n log q r_n; int e_0 = 1,
    # int e_0 log|x| = -log q/(q-1), and for N >= 1 int e_N = 0 (where o_integral
    # leaves its cancellation noise) and int e_N log|x| = -log q sqrt(u) q^(-N/2) q/(q-1)
    p, dim, q_ = FieldParams(q), 60, float(q)
    n, u = np.arange(float(dim)), 1.0 - 1.0 / q_
    if basis == "f":
        ones = np.sqrt(u * q_**-n)
        logs = -n * p.ln_q * ones
    else:
        ones = np.eye(1, dim)[0]
        logs = -p.ln_q * np.sqrt(u) * q_ ** (-n / 2.0) * q_ / (q_ - 1.0)
        logs[0] = -p.ln_q / (q_ - 1.0)
    members = [make_basis(p, basis, k) for k in range(dim)]
    absolute = [KRadialFunction(p, b.n_lo, 0, np.abs(b.values_on(b.n_lo, 0)), abs(b.inner_tail)) for b in members]
    for got, want, terms in (([o_integral(b) for b in members], ones, [o_integral(a).real for a in absolute]),
                             ([o_log_integral(b) for b in members], logs,
                              [-o_log_integral(a).real for a in absolute])):
        assert np.all(np.abs(np.array(got) - want) <= 4 * EPS * np.array(terms))


@pytest.mark.parametrize("basis", ["e", "f"])
def test_operator_matrix_does_not_depend_on_the_memo(monkeypatch, basis):
    # without the root-measure memo, on a cold one, repeated, and after
    # matrices at other (q, dim) have evicted its entries
    cases = [(FieldParams(q), name, basis, 40) for q in (2, 3) for name in OPERATOR_NAMES]

    def matrices():
        return [operator_matrix(*case).entries for case in cases]

    memo = padicradial.field._shell_roots
    with monkeypatch.context() as m:
        m.setattr(padicradial.field, "_shell_roots", memo.__wrapped__)
        want = matrices()
    memo.cache_clear()
    runs = [matrices(), matrices()]
    for q in (2, 3, 5, 7):
        for dim in range(2, 30, 3):
            operator_matrix(FieldParams(q), "I1", basis, dim)
    runs.append(matrices())
    for got in runs:
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_outputs_do_not_depend_on_the_scale_memo(monkeypatch):
    # every operator, the transform and the f-family matrices without the
    # shell-scale memo, on a cold one, repeated, and after 70 other (q, a)
    # have evicted its entries.  The transform scales from -5 a clipped run,
    # and 2100 shells reach beyond the memo's shells; deep derivatives
    # overflow, and their messages count too
    from padicradial.laplace import laplace_transform

    rng = np.random.default_rng(9)
    inputs = [KRadialFunction(FieldParams(q, alpha), 1 - W, 0,
                              rng.standard_normal(W) + 1j * rng.standard_normal(W), 0.25 - 0.5j)
              for q, alpha in ((2, 0.9), (3, 2.0), (7, 1.0)) for W in (40, 700, 2100)]
    ops = (apply_D_alpha, apply_D_alpha_O, apply_I_alpha, apply_I01, apply_resolvent_D1O)

    def outputs():
        out = []
        for u in inputs:
            for op in ops:
                try:
                    image = op(u)
                    out += [image.values, image.inner_tail]
                except OverflowError as exc:
                    out.append(str(exc))
            out.append(laplace_transform(u, (-5, len(u.values) + 5)).values)
        for q in (2, 3):
            out += [operator_matrix(FieldParams(q), name, "f", 60).entries for name in ("D1O", "I1", "I01")]
        return out

    memo = padicradial.field._shell_scales
    with monkeypatch.context() as m:
        m.setattr(padicradial.field, "_shell_scales", memo.__wrapped__)
        want = outputs()
    memo.cache_clear()
    runs = [outputs(), outputs()]
    for k in range(70):
        memo(5.0, 0.3 + k / 16)
    runs.append(outputs())
    for got in runs:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert type(a) is type(b) and np.array_equal(a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([2, 3, 7]), a=st.sampled_from([0.9, -0.9, 2.0, -2.0, 1.0, 1.0 + 1e-13]),
       first=st.integers(-2300, 2300), length=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_scaled_run_is_each_shell_on_its_own(q, a, first, length, seed):
    # a run's scale, read from the memo by slices (or formed for a run beyond
    # its shells), is each shell's own bit for bit, on either side of the
    # normal range
    rng = np.random.default_rng(seed)
    ns = np.arange(float(first), first + length)
    bracket = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    scaled = padicradial.operators._scaled
    try:
        got = scaled(bracket, float(q), a, ns)
    except OverflowError:
        with pytest.raises(OverflowError):
            for k in range(length):
                scaled(bracket[k : k + 1], float(q), a, ns[k : k + 1])
        return
    for k in range(length):
        assert np.array_equal(got[k], scaled(bracket[k : k + 1], float(q), a, ns[k : k + 1])[0])


def test_operators_at_the_largest_order_of_q_2():
    # q^-alpha = 2^-1022 is the smallest normal double: the scans at base
    # q^alpha stride one shell at a time, and every operator runs
    p = FieldParams(2, 1022.0)
    u = KRadialFunction(p, 0, 0, [1.0], 0.5)
    for op in (apply_I_alpha, apply_D_alpha, apply_D_alpha_O, apply_resolvent_D1O):
        image = op(u)
        assert np.isfinite(image.values).all() and math.isfinite(abs(image.inner_tail))
    assert apply_I_alpha(u).values[0] == 2.0**-1022  # q^-alpha |x|^alpha u at |x| = 1


def test_operator_matrix_beyond_the_double_range_raises():
    # the D1O e-matrix's diagonal q^N fits a double up to N = 1023 at q = 2
    assert np.all(np.isfinite(operator_matrix(P2, "D1O", "e", 683).entries))
    with pytest.raises(ValueError, match=r"D1O matrix in the e-family at q=2, dim=1280"):
        operator_matrix(P2, "D1O", "e", 1280)


def test_matrices_that_can_only_underflow_run_past_the_unit_factor_limit():
    # at q = 7 the unit factor 7^(N/2) of e_N and f_N overflows from N = 730; the
    # e-family resolvent, I01 and J and the f-family I1, I01, resolvent and J form
    # none, and their entries only underflow
    p = FieldParams(7)
    for name, basis in (("resolvent", "e"), ("I01", "e"), ("J", "e"), ("I1", "f"), ("I01", "f"),
                        ("resolvent", "f"), ("J", "f")):
        assert np.all(np.isfinite(operator_matrix(p, name, basis, 800).entries))
    match = (r"the I1 matrix in the e-family at q=7, dim=800 leaves the double range: "
             r"the unit factor q\^\(N/2\) = 7\^\(799/2\) of e_799 at q=7 overflows")
    with pytest.raises(ValueError, match=match):
        operator_matrix(p, "I1", "e", 800)


@pytest.mark.parametrize("q", [2, 3, 7])
def test_f_matrices_are_toeplitz_after_a_row_scaling(q):
    # the exact kernels: row j times q^j (I1, I01) or q^-j (D1O) is constant
    # along every diagonal, and the resolvent is the I1 matrix plus c_n times
    # the f-coefficients r_(-j) of 1_O in column n (to a few eps of the
    # terms it sums, which cancel to 1/18 .. 1/33 at dim 40)
    p, dim = FieldParams(q), 40
    mats = {name: operator_matrix(p, name, "f", dim).entries for name in ("I1", "I01", "D1O", "resolvent")}
    powers = float(q) ** np.arange(dim)
    for name, scale in (("I1", powers), ("I01", powers), ("D1O", 1.0 / powers)):
        scaled = mats[name] * scale[:, None]
        for k in range(1 - dim, dim):
            diagonal = np.diagonal(scaled, k)
            assert np.abs(diagonal - diagonal[0]).max() <= 4 * EPS * np.abs(diagonal).max(), (name, k)
    ones = expand(make_basis(p, "v", 0), "f", dim)
    rank1 = mats["resolvent"] - mats["I1"]
    terms = np.abs(mats["resolvent"]).max(axis=0) + np.abs(mats["I1"]).max(axis=0)
    assert np.all(np.abs(rank1 - np.outer(ones, rank1[0] / ones[0])) <= 4 * EPS * terms)


@pytest.mark.parametrize("q, basis, last", [(2, "e", 1024), (2, "f", 1024), (3, "e", 647), (3, "f", 646)])
def test_d1o_matrix_refusal_boundary(q, basis, last):
    # both matrices run to their entries' own range limit: the e-matrix to
    # its eigenvalue q^N, N = last - 1, the f-matrix to a diagonal
    # entry of order q^N (at q = 2 the entry (1024, 1024) is 2.4e308)
    assert np.all(np.isfinite(operator_matrix(FieldParams(q), "D1O", basis, last).entries))
    match = rf"the D1O matrix in the {basis}-family at q={q}, dim={last + 1} leaves the double range"
    with pytest.raises(ValueError, match=match):
        operator_matrix(FieldParams(q), "D1O", basis, last + 1)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_d1o_and_resolvent_e_matrices_are_their_eigenvalues(q):
    # D1O v_N = q^N v_N (N >= 1) and D1O 1_O = q/(q+1) 1_O, and the resolvent
    # inverts both: every entry off the diagonal is an exact zero, and every
    # one on it is within one ulp of its 40-digit eigenvalue
    dim = 160
    for name, sign in (("D1O", 1), ("resolvent", -1)):
        mat = operator_matrix(FieldParams(q, 0.5), name, "e", dim).entries
        assert np.all(mat[~np.eye(dim, dtype=bool)] == 0.0) and np.all(mat.imag == 0.0)
        with mpmath.workdps(40):
            exact = [(mpmath.mpf(q) / (q + 1)) ** sign] + [mpmath.mpf(q) ** (sign * n) for n in range(1, dim)]
            for n, got in enumerate(np.diagonal(mat).real):
                assert abs(mpmath.mpf(got) - exact[n]) <= np.spacing(got), (name, n)


def test_range_limits_name_the_element_and_its_power():
    # a unit factor q^(N/2), a D1O eigenvalue q^N or the factor q^N of a D1O
    # f-diagonal beyond the double range is named, where Python's pow would
    # report only an errno tuple
    cases = [(lambda: make_basis(FieldParams(7), "e", 1280), r"q\^\(N/2\) = 7\^\(1280/2\) of e_1280 at q=7"),
             (lambda: make_basis(FieldParams(2), "f", 2100), r"q\^\(N/2\) = 2\^\(2100/2\) of f_2100 at q=2"),
             (lambda: make_basis(FieldParams(7), "f", 1279), r"q\^\(N/2\) = 7\^\(1279/2\) of f_1279 at q=7"),
             (lambda: operator_matrix(P2, "D1O", "e", 1025),
              r"D1O matrix in the e-family at q=2, dim=1025 leaves the double range: "
              r"the eigenvalue q\^N = 2\^1024 of e_1024 overflows"),
             (lambda: operator_matrix(P2, "D1O", "f", 1025),
              r"D1O matrix in the f-family at q=2, dim=1025 leaves the double range: "
              r"the diagonal factor q\^N = 2\^1024 of f_1024 overflows")]
    cases.append((lambda: operator_matrix(FieldParams(7), "I1", "e", 1280),
                  r"I1 matrix in the e-family at q=7, dim=1280 leaves the double range: "
                  r"the unit factor q\^\(N/2\) = 7\^\(1279/2\) of e_1279 at q=7 overflows"))
    for make, match in cases:
        with pytest.raises(ValueError, match=match) as info:
            make()
        assert "(34," not in str(info.value)


def test_refusals_of_powers_read_from_the_memo_keep_their_messages():
    # the D1O f-diagonal q^N, the I1 e unit factor q^(N/2) and the inversion weight q^m_max
    # come from ``field._half_powers``; their refusals read as they did from Python's pow
    from padicradial.laplace import TransformSequence, laplace_invert

    cases = [(lambda: operator_matrix(P2, "D1O", "f", 1025),
              "the D1O matrix in the f-family at q=2, dim=1025 leaves the double range: "
              "the diagonal factor q^N = 2^1024 of f_1024 overflows"),
             (lambda: operator_matrix(FieldParams(7), "I1", "e", 731),
              "the I1 matrix in the e-family at q=7, dim=731 leaves the double range: "
              "the unit factor q^(N/2) = 7^(730/2) of e_730 at q=7 overflows"),
             (lambda: laplace_invert(TransformSequence(P2, -1023, 1025, np.zeros(2049)), 0j, 1024),
              "weight q^m_max = 2^1024 of 'phi_down' is beyond the double range (q=2, m_max=1024)")]
    for make, message in cases:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
    assert operator_matrix(FieldParams(7), "I1", "e", 730).dim == 730
    last = laplace_invert(TransformSequence(P2, -1022, 1024, np.zeros(2047)), 0j, 1023)
    assert all(np.isfinite(part).all() for part in last)


@pytest.mark.parametrize("q", [2, 3, 7])
def test_matrices_at_another_order_are_the_order_one_matrices(q):
    # every matrix is formed at alpha = 1; given alpha = 1 the params are used as they are
    p1 = FieldParams(q)
    for name in OPERATOR_NAMES:
        for basis in ("e", "f"):
            want = operator_matrix(p1, name, basis, 40)
            got = operator_matrix(FieldParams(q, 0.5), name, basis, 40)
            assert got.params == p1 and got.params.alpha == 1.0 and want.params is p1
            assert got.entries.tobytes() == want.entries.tobytes(), (name, basis)


@pytest.mark.parametrize("q, dim", [(3, 647), (5, 442)])
def test_d1o_f_matrix_refusal_names_the_entry(q, dim):
    # the first entry beyond the double range is the last diagonal one, of order q^N
    with pytest.raises(ValueError) as info:
        operator_matrix(FieldParams(q), "D1O", "f", dim)
    assert str(info.value) == (f"the D1O matrix in the f-family at q={q}, dim={dim} leaves the double range: "
                               f"the entry ({dim - 1}, {dim - 1}) is not finite")
    assert "(34," not in str(info.value)


@pytest.mark.parametrize("q, dim", [(2, 1024), (3, 646)])
def test_d1o_f_matrix_at_its_range_limit_against_direct_sums(q, dim):
    # the column loop cannot form these columns (f_N's D1O image reaches
    # q^(3N/2)): each spot entry is the mpmath sum of the derivative at the
    # row's shell times the row's root measure, to 4 eps (2.8 measured)
    p = FieldParams(q)
    mat = operator_matrix(p, "D1O", "f", dim).entries
    last, mid = dim - 1, dim // 2
    for j, n in [(last, last), (last - 1, last), (last, last - 1), (0, last), (last, 0),
                 (mid, mid + 3), (mid + 3, mid), (5, 7), (3, 0)]:
        value, _ = mp_D_alpha(make_basis(p, "f", n), -j, terms=abs(j - n) + 60)
        with mpmath.workdps(40):
            exact = complex(value * mpmath.sqrt(1 - mpmath.mpf(1) / q) * mpmath.mpf(q) ** (mpmath.mpf(-j) / 2))
        assert abs(mat[j, n] - exact) <= 4 * EPS * abs(exact), (j, n)


@pytest.mark.parametrize("q", [3, 7])
def test_mp_ball_image_is_the_truncated_direct_sums(q):
    # the closed-form tails of the matrix oracle below against mp_I_alpha's and
    # mp_D_alpha's sums over 60 shells past the window, on every output shell
    p = FieldParams(q)
    for basis, n in [("e", 0), ("e", 1), ("e", 6), ("f", 0), ("f", 5)]:
        u = make_basis(p, basis, n)
        with mpmath.workdps(40):
            lo, vals, t = mp_basis(q, basis, n)
            for name, oracle in [("I1", mp_I_alpha), ("I01", lambda u, k, terms: mp_I_alpha(u, k, terms, False)),
                                 ("D1O", mp_D_alpha)]:
                image, _ = mp_ball_image(q, name, lo, vals, t)
                for k, (value, mass) in image.items():
                    want, want_mass = oracle(u, k, terms=60)
                    assert abs(value - want) <= 1e-14 * want_mass and abs(mass - want_mass) <= 1e-14 * want_mass


@pytest.mark.parametrize("dim", [40, 160])
@pytest.mark.parametrize("q", [3, 7])
@pytest.mark.parametrize("name, basis", [("D1O", "e"), ("I1", "e"), ("I01", "e"), ("resolvent", "e"),
                                         ("resolvent", "f")])
def test_matrices_from_one_image_against_direct_sums(name, basis, q, dim):
    # every row (row 0 too) of the first, middle and deepest columns against 40-digit
    # sums, in units of each entry's term mass: within 4 eps (2.5 measured), the
    # derivative's within dim / 2 eps (42.5 at q = 3, dim 160, where the column loop's
    # is 59.9); the f resolvent also within 4 eps of its column's largest entry (1.04)
    mat = operator_matrix(FieldParams(q), name, basis, dim).entries
    for n in sorted({0, 1, dim // 2, dim - 2, dim - 1}):
        exact, mass = map(np.array, zip(*mp_matrix_column(q, name, basis, n, dim)))
        gap = np.abs(mat[:, n] - exact)
        assert np.all(gap <= (dim / 2 if name == "D1O" else 4) * EPS * mass), n
        if basis == "f":
            assert gap.max() <= 4 * EPS * np.abs(exact).max(), n


def assert_is_the_100_digit_matrix(q, name, basis, dim):
    """Every entry within 8 ulp of itself, with the oracle's exact zeros."""
    mat = operator_matrix(FieldParams(q), name, basis, dim).entries
    exact = np.column_stack([[v for v, _ in mp_matrix_column(q, name, basis, n, dim, dps=100)] for n in range(dim)])
    assert np.array_equal(mat == 0.0, exact == 0.0) and np.all(mat.imag == 0.0)
    assert np.all(np.abs(mat - exact) <= 8 * np.spacing(np.abs(exact)))


@pytest.mark.parametrize("dim", [2, 3, 24, 40])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_i01_e_matrix_against_100_digit_sums(q, dim):
    # the closed form holds every entry to 8 ulp of itself (3 measured) and has the
    # oracle's exact zeros; at 40 digits the oracle itself cannot resolve the deep entries
    # (at q = 11, dim 40 it reads M[1, 39] = 3.314e-61 as 8.92e-61)
    assert_is_the_100_digit_matrix(q, "I01", "e", dim)


@pytest.mark.parametrize("dim", [2, 3, 24, 40])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("name", ["D1O", "I1", "I01"])
def test_f_matrices_against_100_digit_sums(name, q, dim):
    # the exact kernels hold every entry to the same 8 ulp (4 measured)
    assert_is_the_100_digit_matrix(q, name, "f", dim)


def mp_j_matrix(q, basis, dim, dps=100):
    """The imaginary parts of the ``J`` matrix in ``dps`` digits, as floats.  The entry
    ``(j, n)`` is ``kappa log q (B_j A_n - A_j B_n)`` times the unit factors of ``b_j`` and
    ``b_n``, ``kappa log q = i (q-1)/(2q)``, where ``A`` and ``B`` are the integrals of the
    element over its unit factor without and with ``log|x| / log q``: sums over its shells
    and the ball below them in rationals, so ``int_O v_N`` is exactly 0 (mpmath's rounded
    ``1/q`` would leave about 1e-60 of it)."""
    unit = 1 - Fraction(1, q)

    def integrals(n):
        if basis == "f":
            shells, t = {-n: 1}, 0
        else:
            shells, t = ({0: 1} if n == 0 else {-n: 1, 1 - n: Fraction(-1, q - 1)}), 1
        lo = min(shells)
        ball = t * Fraction(q) ** (lo - 1)  # below lo; with log, sum_{k < lo} k mu_k = q^(lo-1) (lo - 1 - 1/(q-1))
        ones = sum(v * unit * Fraction(q) ** k for k, v in shells.items()) + ball
        logs = sum(k * v * unit * Fraction(q) ** k for k, v in shells.items()) + ball * (lo - 1 - Fraction(1, q - 1))
        return ones, logs

    A, B = zip(*map(integrals, range(dim)))
    with mpmath.workdps(dps):
        qm, s = mpmath.mpf(q), mpmath.sqrt(1 - 1 / mpmath.mpf(q))
        scale = [qm ** (mpmath.mpf(n) / 2) * (1 / s if basis == "f" else s if n else 1) for n in range(dim)]
        rational = lambda x: mpmath.mpf(x.numerator) / x.denominator  # noqa: E731
        return np.array([[float(rational(Fraction(q - 1, 2 * q) * (B[j] * A[n] - A[j] * B[n])) * scale[j] * scale[n])
                          for n in range(dim)] for j in range(dim)])


@pytest.mark.parametrize("dim", [2, 3, 24, 40])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("basis", ["e", "f"])
def test_j_matrices_against_100_digit_sums(basis, q, dim):
    # both closed forms hold every entry to 8 ulp of itself (1 measured in the
    # e-family, 4 in the f-family), are purely imaginary, and have the exact zeros
    # of int_O e_N = 0 and of the f-family's diagonal
    mat = operator_matrix(FieldParams(q), "J", basis, dim).entries
    exact = mp_j_matrix(q, basis, dim)
    assert np.all(mat.real == 0.0) and np.array_equal(mat.imag == 0.0, exact == 0.0)
    assert np.all(np.abs(mat.imag - exact) <= 8 * np.spacing(np.abs(exact)))


@pytest.mark.xfail(strict=True, reason="the I1 e-matrix is expanded per column, "
                                       "so its rows below row 0 carry rounding off the diagonal")
def test_i1_e_matrix_below_row_0_is_its_eigenvalue_diagonal():
    # I1 e_N = q^-N e_N + (its e_0 coefficient) e_0 for N >= 1: below row 0 every entry
    # off the diagonal is 0 and the diagonal is q^-N to one ulp
    dim, stray = 40, {}
    for q in (2, 3, 5, 7, 11):
        mat = operator_matrix(FieldParams(q), "I1", "e", dim).entries[1:]
        diagonal, off = np.diagonal(mat, 1).real, ~np.eye(dim - 1, dim, 1, dtype=bool)
        far = np.abs(diagonal - float(q) ** -np.arange(1.0, dim)) > np.spacing(diagonal)
        stray[q] = int(np.count_nonzero(mat[off]) + np.count_nonzero(far))
    assert stray == dict.fromkeys(stray, 0)


def test_operator_matrix_makes_no_pairings(monkeypatch):
    # the basis is written in closed form and each I1 e column is one closed-form expansion;
    # the I01 e-matrix is a closed form and expands nothing
    calls = {"inner_product": 0, "make_basis": 0, "expand": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(padicradial.field, "inner_product",
                        counted("inner_product", padicradial.field.inner_product))
    basis = counted("make_basis", padicradial.field.make_basis)
    monkeypatch.setattr(padicradial.field, "make_basis", basis)
    # operators binds no make_basis of its own; should it ever, count its calls too
    monkeypatch.setattr(padicradial.operators, "make_basis", basis, raising=False)
    monkeypatch.setattr(padicradial.operators, "expand", counted("expand", padicradial.operators.expand))
    dim = 160
    operator_matrix(P2, "I01", "e", dim)
    assert calls["expand"] == 0
    operator_matrix(P2, "I1", "e", dim)
    assert calls["inner_product"] == 0
    assert calls["make_basis"] == 0
    assert calls["expand"] == dim


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 11, 101])
def test_array_moments_equal_the_scalar_moments(q):
    # up to the first order where y = q^-(n+1) is exactly 0 (n = 1074 at q = 2), so the array
    # orders' reads of the power memo are held to pow through the subnormals and below the memo
    last = next(n for n in range(5000) if float(q) ** -(n + 1.0) == 0.0)
    p, n = FieldParams(q), np.arange(last + 1)
    assert float(q) ** -float(last) > 0.0
    for moment in (d_constant, moment_a, moment_b, moment_m0):
        assert np.array_equal(moment(p, n), [moment(p, k) for k in range(last + 1)]), moment.__name__
        assert np.array_equal(moment(p, n.astype(np.uint16)), moment(p, n)), moment.__name__
        assert np.array_equal(moment(p, np.arange(256, dtype=np.uint8)), moment(p, np.arange(256))), moment.__name__
        deep = np.array([last, 2**62, 2**63 - 1], np.int64)  # -2(n+1) would wrap around in int64
        assert np.array_equal(moment(p, deep), [moment(p, int(k)) for k in deep]), moment.__name__
        assert np.array_equal(moment(p, np.array([2**64 - 1], np.uint64)), [moment(p, 2**64 - 1)])
        with pytest.raises(ValueError, match="must be >= 0"):
            moment(p, np.array([3, -1]))
        with pytest.raises(ValueError, match="integer array of orders, got a float64 array"):
            moment(p, np.arange(3.0))


def test_the_square_of_one_minus_y_as_a_product_has_the_bits_of_pow():
    # d_constant squares 1 - y, y = q^-(n+1), by one product
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 101, 1024):
        for n in range(2000):
            x = 1.0 - float(q) ** -(n + 1.0)
            assert x * x == x**2, (q, n)


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


def mp_I_alpha(u, n, terms=200, diagonal=True):
    """Direct mpmath sum of the power kernel at one shell, and its term mass;
    without the ``diagonal`` term at order one it is ``I01``."""
    with mpmath.workdps(40):
        q, a, val = _mp_exact(u, terms)
        local = q**-a * q ** (a * n) * val[n] if diagonal else 0
        if a == 1:  # the limit of the kernel below: the logarithmic kernel
            weight = [-(1 - 1 / q) * (n - k) for k in range(u.n_lo - terms, n)]
        else:
            pre = (1 - q**-a) / (1 - q ** (a - 1))
            weight = [pre * (q ** ((a - 1) * n) - q ** ((a - 1) * k)) for k in range(u.n_lo - terms, n)]
        kernel = [w * val[k] * (1 - 1 / q) * q**k for w, k in zip(weight, range(u.n_lo - terms, n))]
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


def mp_basis(q, basis, n):
    """``b_n`` of the e- or f-family in mpmath: its window start, shell values and tail."""
    q = mpmath.mpf(q)
    if basis == "f":
        return -n, [q ** (mpmath.mpf(n) / 2) / mpmath.sqrt(1 - 1 / q)], 0
    if n == 0:
        return 0, [mpmath.mpf(1)], 1
    s = mpmath.sqrt(1 - 1 / q) * q ** (mpmath.mpf(n) / 2)
    return -n, [s, -s / (q - 1)], s


def mp_ball_image(q, name, lo, vals, t):
    """The order-one ``name`` of the ball function with the shell values ``vals`` from
    ``lo`` and the tail ``t``: ``mp_I_alpha``'s and ``mp_D_alpha``'s sums with the shells
    below ``lo`` (and above the ball) summed in closed form.  Returns ``{n: (value, term
    mass)}`` on ``lo .. 0`` and the ``(value, mass)`` stored below it as the tail."""
    q = mpmath.mpf(q)
    unit, hi = 1 - 1 / q, lo + len(vals) - 1
    val = lambda k: t if k < lo else vals[k - lo] if k <= hi else 0  # noqa: E731

    def integral(n, diagonal=True):  # at a shell n >= lo
        local = q ** (n - 1) * val(n) if diagonal else 0
        terms = [-(unit**2) * (n - k) * val(k) * q**k for k in range(lo, min(n, hi + 1)) if val(k) != 0]
        # sum_{k<lo} (n-k) q^k = q^lo ((n-lo)/(q-1) + q/(q-1)^2)
        terms.append(-(unit**2) * t * q**lo * ((n - lo) / (q - 1) + q / (q - 1) ** 2))
        return local + mpmath.fsum(terms), abs(local) + mpmath.fsum(map(abs, terms))

    def derivative(n):  # at a shell n >= lo - 1
        un = val(n)
        terms = [(val(k) - un) * q ** (k - 2 * n) for k in range(lo, n) if val(k) != un]
        terms.append((t - un) * q ** (min(n, lo) - 2 * n) / (q - 1))  # the shells below both
        terms += [(val(k) - un) / q**k for k in range(n + 1, 1) if val(k) != un]
        terms.append(-un / (q - 1))  # the shells above the ball
        c = (1 - q) / (1 - q**-2) * unit
        return c * mpmath.fsum(terms), abs(c) * mpmath.fsum(map(abs, terms))

    if name == "D1O":
        return {n: derivative(n) for n in range(lo, 1)}, derivative(lo - 1)
    image = {n: integral(n, name != "I01") for n in range(lo, 1)}
    if name != "resolvent":
        return image, (0, 0)
    # c = int_O u / q - (I1 u)(q), added on every shell
    ball = [v * unit * q**k for k, v in zip(range(lo, hi + 1), vals)] + [t * q ** (lo - 1)]
    at_q = integral(1)
    c = (mpmath.fsum(ball) / q - at_q[0], mpmath.fsum(map(abs, ball)) / q + at_q[1])
    return {n: (v + c[0], m + c[1]) for n, (v, m) in image.items()}, c


def mp_matrix_column(q, name, basis, n, dim, dps=40):
    """Column ``n`` of the order-one ``name`` matrix in ``dps`` digits: each entry
    ``<image, b_j>`` with its term mass, as complex and float pairs."""
    with mpmath.workdps(dps):
        lo, vals, t = mp_basis(q, basis, n)
        image, (c, cm) = mp_ball_image(q, name, lo, vals, t)
        qm = mpmath.mpf(q)
        mu = lambda k: (1 - 1 / qm) * qm**k  # noqa: E731
        at = lambda k: image.get(k, (c, cm))  # noqa: E731
        # below[k]: the value and mass of the image over the shells under k
        below = {lo: (c * qm ** (lo - 1), cm * qm ** (lo - 1))}
        for k in range(lo, 1):
            below[k + 1] = (below[k][0] + image[k][0] * mu(k), below[k][1] + image[k][1] * mu(k))
        out = []
        for j in range(dim):
            jl, jv, jt = mp_basis(q, basis, j)
            under = below.get(jl, (c * qm ** (jl - 1), cm * qm ** (jl - 1)))
            terms = [(under[0] * jt, under[1] * abs(jt))]
            terms += [(at(jl + i)[0] * v * mu(jl + i), at(jl + i)[1] * abs(v) * mu(jl + i)) for i, v in enumerate(jv)]
            out.append((complex(mpmath.fsum(x for x, _ in terms)), float(mpmath.fsum(m for _, m in terms))))
        return out


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


@pytest.mark.parametrize("N", [655, 660, 665])
def test_right_inverse_where_the_shell_scale_is_subnormal(N):
    # at q = 3 the scale q^n of I^1 is subnormal from n = -645 on, while the
    # values of e_N stay normal: a product with a subnormal scale keeps only
    # its bits (1e-7 of the term mass at N = 665)
    e = make_basis(FieldParams(3), "e", N)
    out = apply_I_alpha(e)
    for n in range(-N, -N + 8):
        exact, mass = mp_I_alpha(e, n)
        assert float(abs(mpmath.mpc(out.value_at(n)) - exact) / mass) < 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([2, 3, 5, 7]), alpha=st.sampled_from([0.5, 0.9, 1.0, 2.0]),
       sign=st.sampled_from([1, -1]), edge=st.sampled_from([-2044, -1022, 1022, 2044]),
       data=st.data())
def test_scaled_against_exact_products(q, alpha, sign, edge, data):
    # q^(a n) on the shells around 2^edge, the edges of the double range and
    # of its square, with brackets that keep every value a normal double:
    # each component within 2 ulps (2^-51 relative) of the exact product
    a = sign * alpha
    lg = a * math.log2(q)
    n0 = round(edge / lg)
    # the bracket m 2^s, 1 <= |m| < 2, and the value are normal doubles
    spans = {n: (max(-1022, math.ceil(-1021 - lg * n)), min(1022, math.floor(1022 - lg * n)))
             for n in range(n0 - 3, n0 + 4)}
    ns = [n for n, (lo, hi) in spans.items() if lo <= hi]
    mantissa = st.floats(1.0, 2.0, exclude_max=True)
    brackets = []
    for n in ns:
        s = data.draw(st.integers(*spans[n]))
        re, im = data.draw(mantissa), data.draw(mantissa)
        brackets.append(complex(math.ldexp(re, s) * data.draw(st.sampled_from([1, -1])), math.ldexp(im, s)))
    out = padicradial.operators._scaled(np.array(brackets), float(q), a, np.array(ns, dtype=float))
    with mpmath.workdps(40):
        for n, b, v in zip(ns, brackets, out):
            scale = mpmath.mpf(q) ** (mpmath.mpf(a) * n)
            for got, part in ((v.real, b.real), (v.imag, b.imag)):
                exact = mpmath.mpf(part) * scale
                assert abs(mpmath.mpf(got) - exact) <= 2.0**-51 * abs(exact), (n, part)


def scaled_reference(bracket, q, a, ns):
    """``_scaled`` with both checks on every run and the scales formed for the
    run alone: the products, then the overflow and the underflow refusal."""
    first, second, (p0, p1) = padicradial.field._scales_on(q, a, int(ns[0]), int(ns[-1]))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = bracket * first
        for end in (slice(0, p0), slice(p1, len(ns))):
            if end.start < end.stop:
                out[end] *= second[end]
        if not np.isfinite(out).all() and (~np.isfinite(out) & np.isfinite(bracket)).any():
            raise OverflowError("overflow")
        small = np.abs(bracket) < padicradial.field._TINY
        if small.any() and (np.abs(out[small]) >= padicradial.field._TINY).any():
            raise OverflowError("underflow")
    return out


def strided_run(values, descending, rows):
    """``values`` as a 1-D view: stored in reverse and read through a negative
    stride if ``descending``, and as column 0 of a ``(len, rows)`` array if
    ``rows``; the shells it is scaled on stay one ascending run."""
    storage = np.zeros((len(values), max(rows, 1)), complex)
    view = storage[::-1, 0] if descending else storage[:, 0]
    view[:] = values
    return view


@pytest.mark.parametrize("q, a", [(2, 1.0), (3, 0.9), (7, -2.0), (3, -1.0 - 1e-13)])
@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("rows", [0, 2])
def test_scaled_returns_unchecked_where_no_factor_exceeds_1(q, a, descending, rows):
    # a n <= 0 on every shell, shell 0 included: brackets of inf, nan, 0 and
    # subnormal parts, next to normal ones, from the normal run into the
    # half-powers and past the memo's shells, keep the checked path's bits and
    # raise nothing, whatever the bracket's memory layout
    specials = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -2.0**-1030, 2.0**-1022, 1.5, -1e300]
    rng = np.random.default_rng(rows)
    for start, length in ((0, 60), (1800, 300), (0, 2301)):  # |n| from start up
        ns = np.sort(np.arange(float(start), start + length) * -math.copysign(1.0, a))
        assert np.all(a * ns <= 0.0)
        values = np.empty(length, complex)
        values.real, values.imag = rng.choice(specials, size=(2, length))
        bracket = strided_run(values, descending, rows)
        got = padicradial.operators._scaled(bracket, float(q), a, ns)
        assert got.tobytes() == scaled_reference(values, float(q), a, ns).tobytes()


@pytest.mark.parametrize("descending", [False, True])
def test_scaled_refusals_fire_where_a_factor_exceeds_1(descending):
    # a run reaching from a n <= 0 up to 2^59: a finite bracket that overflows
    # there, and a subnormal one that would be scaled up to a normal value, are
    # refused as before, whatever the bracket's memory layout
    ns = np.arange(-40.0, 60.0)
    for value, match in ((1e308, "beyond the double range"), (2.0**-1070, "underflow")):
        values = np.zeros(len(ns), complex)
        values[-1] = value
        with pytest.raises(OverflowError, match=match):
            padicradial.operators._scaled(strided_run(values, descending, 0), 2.0, 1.0, ns)


def test_scaled_rounds_a_subnormal_value_once():
    # the factor 3^-15 is a normal double and the value b 3^-15 a subnormal
    # one: it is the exact product rounded once (two half-powers round twice)
    b = math.ldexp(1.025, -1000)
    out = padicradial.operators._scaled(np.array([complex(b, -b)]), 3.0, 1.0, np.array([-15.0]))
    exact = float(Fraction(b) * Fraction(3) ** -15)
    assert 0.0 < exact < 2.0**-1022
    assert out[0] == complex(exact, -exact)


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
@given(q=st.sampled_from([2, 3, 4, 5, 7]), alpha=ORDERS, width=st.integers(1, 400), shift=SHIFTS,
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
        (apply_resolvent_D1O, u, lambda n: ln_m),
    ]
    if alpha * width * math.log10(q) < 290:  # beyond, the derivative overflows
        cases.append((apply_D_alpha, u, lambda n: -alpha * n * lnq + ln_m))
    for op, v, log_scale in cases:
        out = op(v)
        wide = op(v.with_window(v.n_lo - shift, 0))
        assert _overlap_gap(out, wide, log_scale) <= 1.0, op.__name__


def _deeper(u):
    """``u(x / pi)``: the values of ``u`` one shell deeper, tail unchanged."""
    return KRadialFunction(u.params, u.n_lo - 1, u.n_hi - 1, u.values, u.inner_tail)


@pytest.mark.parametrize("q", [2, 3, 7])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_dilation_moves_every_output_one_shell_down(q, alpha):
    # D^alpha is homogeneous of degree alpha, I^alpha of degree -alpha and
    # I01 of degree -1: an input one shell deeper gives the output one shell
    # deeper times q^alpha, q^-alpha and 1/q, to a few eps of each shell's
    # term mass (I01 on a zero tail, where its stored tail is exact); the
    # worst measured is 1.05 eps, and 40 shells past the window fix the mass
    u = _random_ball_function(FieldParams(q, alpha), 12, q)
    u1 = KRadialFunction(FieldParams(q), u.n_lo, 0, u.values)
    qa = float(q) ** alpha
    cases = [
        (apply_D_alpha(_deeper(u)), qa * apply_D_alpha(u), range(u.n_lo - 2, 0),
         lambda n: mp_D_alpha(_deeper(u), n, terms=40)),
        (apply_I_alpha(_deeper(u)), apply_I_alpha(u, out_hi=1) * (1.0 / qa), range(u.n_lo - 2, 1),
         lambda n: mp_I_alpha(_deeper(u), n, terms=40)),
        (apply_I01(_deeper(u1)), apply_I01(u1) * (1.0 / q), range(u.n_lo - 2, 0),
         lambda n: mp_I_alpha(_deeper(u1), n, terms=40, diagonal=False)),
    ]
    for deep, want, shells, oracle in cases:
        for n in shells:
            mass = float(oracle(n)[1])
            assert abs(deep.value_at(n) - want.value_at(n + 1)) <= 4 * EPS * mass, n
