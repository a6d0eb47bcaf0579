"""Shell measures, inner products, bases, expansions, and monomial projections."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicradial.field
from padicradial.field import (
    FieldParams,
    KRadialFunction,
    _ball_root,
    _decay,
    _scan,
    _shell_roots,
    expand,
    inner_product,
    make_basis,
    max_shell_difference,
    norm,
    o_integral,
    poly_projection_residual,
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
    # prime powers, then other integers, among them a Carmichael number and
    # a strong pseudoprime to the prime bases up to 23
    for q in (2, 4, 8, 9, 25, 27, 64, 101, 3**13, 2**61 - 1, (2**61 - 1) ** 3):
        assert FieldParams(q).q == q
    for q in (6, 10, 12, 18, 100, 2 * 101, 3**13 * 2, 252601, 3825123056546413051):
        with pytest.raises(ValueError, match=f"prime power, got {q}"):
            FieldParams(q)


def test_prime_power_test_runs_once_per_q(monkeypatch):
    calls = []
    is_prime = padicradial.field._is_prime
    monkeypatch.setattr(padicradial.field, "_is_prime", lambda n: calls.append(n) or is_prime(n))
    padicradial.field._is_prime_power.cache_clear()
    p = FieldParams(101, 0.5)
    first = len(calls)
    for alpha in (1.0, 2.0, 0.5, 1.0):
        assert replace(p, alpha=alpha).q == 101
    assert first > 0 and len(calls) == first
    for q in (6, 252601, 3825123056546413051, 6):
        with pytest.raises(ValueError, match=f"prime power, got {q}"):
            FieldParams(q)


@pytest.mark.parametrize("k, alpha", [(1024, 1.0), (1100, 1.0), (600, 2.0), (1023, 1.0), (1, 1e-17),
                                      (1, 1100.0)])
def test_field_params_outside_the_double_range_are_refused(k, alpha):
    # at q = 2^k: float(q) overflows from 2^1024, theta_alpha overflows at
    # (2^600, 2), and c_volterra rounds to -0.0 at 2^1023; q^alpha rounds to
    # 1 at alpha = 1e-17, where theta_alpha is 0, and overflows at alpha = 1100
    with pytest.raises(ValueError, match=f"q={2**k} and alpha={alpha!r}"):
        FieldParams(2**k, alpha)


def test_field_params_refuse_a_subnormal_q_to_the_minus_alpha():
    # the operators scan in base q^alpha with a lag whose power base^-lag is
    # a normal double: at q = 2 the last order with one is 1022
    with pytest.raises(ValueError, match=r"q=2 and alpha=1022.5 .* q\^-alpha must be a normal double"):
        FieldParams(2, 1022.5)
    with pytest.raises(ValueError, match=r"q\^-alpha must be a normal double"):
        FieldParams(3, 1022 / math.log2(3) + 1e-9)
    assert FieldParams(2, 1022.0).alpha == 1022.0
    assert FieldParams(3, 644.0).alpha == 644.0  # 3^-644 = 2^-1020.7


def test_field_params_at_the_edge_of_the_double_range_keep_their_constants():
    for q, alpha in ((2**1000, 1.0), (2**600, 1.0), (2, 1000.0), (3, 1e-12)):
        p = FieldParams(q, alpha)
        consts = (float(q) ** alpha, p.theta_alpha, p.c_volterra)
        assert all(math.isfinite(c) and c != 0.0 for c in consts)


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


def test_values_on_the_stored_window_is_the_stored_read_only_array():
    u = KRadialFunction(P2, -2, 0, [1.0, 2.0, 3.0], inner_tail=7.0)
    whole = u.values_on(u.n_lo, u.n_hi)
    assert np.array_equal(whole, u.values)
    with pytest.raises(ValueError):
        whole[0] = 0.0
    wider = u.values_on(-3, 0)  # any other range is a new array of its own
    wider[:] = 0.0
    assert np.array_equal(u.values, [1.0, 2.0, 3.0]) and u.value_at(-3) == 7.0


@pytest.mark.parametrize("q", [2, 3, 7])
def test_root_measures_are_read_only_and_bounded(q):
    for lo in (0, -1, -40, -1599):
        r, h = _shell_roots(float(q), lo), _ball_root(float(q), lo)
        assert np.array_equal(r, math.sqrt(1.0 - 1.0 / q) * np.power(float(q), np.arange(lo, 1.0) / 2.0))
        assert h == float(q) ** ((lo - 1.0) / 2.0)
        with pytest.raises(ValueError):
            r[0] = 0.0
        assert _shell_roots(float(q), lo) is r  # computed once per (q, lo)
    for lo in range(-100, 0):
        _shell_roots(float(q), lo)
    assert padicradial.field._shell_roots.cache_info().currsize <= 16


def test_shell_scale_memo_is_read_only_bounded_and_each_runs_own():
    # one entry per (q, |a|), shared read-only; 32 entries of at most two
    # arrays over the shells -2048 .. 2048 bound it at 2.1 MB; ``_scaled``
    # reads it on any run of its shells, for either sign of a, and forms the
    # scales of a run beyond them; every run is scaled as by the scales
    # ``_scales_on`` forms for that run alone, bit for bit
    field = padicradial.field
    memo, scaled, reach = field._shell_scales, field._scaled, field._REACH
    memo.cache_clear()
    first, second, _ = memo(3.0, 0.9)
    assert memo(3.0, 0.9)[0] is first
    scaled(np.ones(6, complex), 3.0, -0.9, range(0, 6))
    assert memo.cache_info().currsize == 1 and memo.cache_info().hits == 2  # both signs share one entry
    scaled(np.ones(2, complex), 3.0, -0.9, range(reach, reach + 2))  # beyond its shells: formed, not read
    assert memo.cache_info().currsize == 1 and memo.cache_info().hits == 2
    for x in (first, second):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 1.0
    for k in range(100):
        scaled(np.ones(1, complex), 2.0, 0.5 + k / 64, range(0, 1))
    assert memo.cache_info().maxsize == memo.cache_info().currsize == 32
    assert first.shape == second.shape == (2 * reach + 1,)
    assert 32 * (first.nbytes + second.nbytes) <= 2.1e6
    assert memo(2.0, 1.0)[1] is memo(2.0, 1.0)[0]  # one array where a is its own head
    rng = np.random.default_rng(3)
    for q, a in ((3.0, 0.9), (3.0, -0.9), (2.0, -1.0), (7.0, 2.0), (5.0, -1.0 - 1e-13)):
        whole, want = memo(q, abs(a)), field._scales_on(q, abs(a), -reach, reach)
        assert np.array_equal(whole[0], want[0]) and np.array_equal(whole[1], want[1]) and whole[2] == want[2]
        los = rng.integers(-reach, reach, 20).tolist()
        runs = [(lo, min(lo + int(rng.integers(0, 1500)), reach)) for lo in los]
        # and around either end of the normal shells, where a scale is 2^-1022 or 2^1023
        i0, i1 = field._scales_on(q, a, -reach, reach)[2]
        ends = (i0 - reach, i1 - 1 - reach)
        runs += [(n + d, n + d + k) for n in ends for d in (-3, -1, 0, 1) for k in (0, 1, 3)]
        for lo, hi in runs:
            for size in (1.0, 2.0**-60):  # 2^-60 keeps the scales up to 2^1083 finite
                # the output is the run's scales times ``size``, each normal
                # factor alone and each pair of half-powers as its product
                bracket, (f, s, (p0, p1)) = np.full(hi - lo + 1, size), field._scales_on(q, a, lo, hi)
                with np.errstate(over="ignore"):
                    formed = bracket * f
                    formed[:p0] *= s[:p0]
                    formed[p1:] *= s[p1:]
                if a * lo <= 0.0 and a * hi <= 0.0 or np.isfinite(formed).all():
                    assert scaled(bracket, q, a, range(lo, hi + 1)).tobytes() == formed.tobytes()
                else:  # a scale beyond the double range
                    with pytest.raises(OverflowError, match="beyond the double range"):
                        scaled(bracket, q, a, range(lo, hi + 1))


def test_pairings_do_not_depend_on_the_memo(monkeypatch):
    # the same bits without the memo, on a cold one, on a repeated call and
    # after calls at other (q, lo) have evicted the entries; q = 2 and 3
    # share every window, so a memo that mixed up fields would show
    rng = np.random.default_rng(5)
    cases = []
    for q in (2, 3):
        p = FieldParams(q)
        vals = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        cases.append((KRadialFunction(p, -39, 0, vals, 0.5 - 0.25j), make_basis(p, "e", 7)))

    def results():
        return [[expand(u, "e", 40), expand(u, "f", 40), expand(v, "e", 60), expand(v, "f", 3),
                 inner_product(u, v), inner_product(v, v), o_integral(u), o_integral(v)]
                for u, v in cases]

    memo = padicradial.field._shell_roots
    with monkeypatch.context() as m:
        m.setattr(padicradial.field, "_shell_roots", memo.__wrapped__)
        want = results()
    memo.cache_clear()
    runs = [results(), results()]
    for other in (2, 3, 5, 7):
        for lo in range(-60, 1, 3):
            expand(KRadialFunction(FieldParams(other), lo, 0, np.ones(1 - lo), 1.0), "e", 5)
    runs.append(results())
    for got in runs:
        for case, want_case in zip(got, want):
            for a, b in zip(case, want_case):
                assert np.array_equal(a, b)


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


@pytest.mark.parametrize("values, tail", [([1e200] * 5, 1e200), ([1e200] * 5, 0.0), ([1.0] * 5, 1e200)],
                         ids=["values and tail", "values", "tail"])
def test_inner_product_beyond_the_double_range_names_the_limit(values, tail):
    # the root-weighted products near 1e400 overflowed, and norm returned inf;
    # numpy still warns of the overflow before the refusal
    u = KRadialFunction(P2, -4, 0, values, tail)
    with pytest.raises(ValueError, match=r"beyond the double range: .* exceeds 1.798e\+308"):
        with pytest.warns(RuntimeWarning, match="overflow"):
            norm(u)
    nan = KRadialFunction(P2, -4, 0, [math.nan] * 5)  # not finite to begin with: no limit to name
    assert math.isnan(norm(nan))


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
        make_basis(P2, "x", 1)
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
        for l in (1, 2, 5):
            for lo in (-20, -40):
                err2 = sum(
                    float(q) ** (2 * l * j) * (1 - 1 / q) * float(q) ** j for j in range(lo - 300, lo)
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


def pairing_expand(u, family, count):
    """Reference: one pairing with a freshly built basis element per coefficient."""
    return np.array([inner_product(u, make_basis(u.params, family, k)) for k in range(count)])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7]), family=st.sampled_from(["e", "f"]), width=st.integers(1, 120),
       count=st.integers(1, 80), tail=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_expand_matches_the_pairing_definition(q, family, width, count, tail, seed):
    # the closed forms against one inner product per coefficient, for windows
    # shallower and deeper than the expansion and with or without a tail
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    t = complex(*rng.standard_normal(2)) if tail else 0j
    u = KRadialFunction(FieldParams(q), 1 - width, 0, vals, t)
    want = pairing_expand(u, family, count)
    assert np.abs(expand(u, family, count) - want).max() <= 1e-14 * np.abs(want).max()


BASES = [2.0, 3.0**0.7, 5.0**2.3, math.sqrt(3.0), 1.0, 49.0, 101.0**3]


def oriented(kernel, w, base, seed=0j, upward=False):
    """``kernel``'s sums from below, or ``upward`` from above on the reversed
    row, as ``apply_D_alpha`` forms its upward sum."""
    return kernel(w[::-1], base, seed)[::-1] if upward else kernel(w, base, seed)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(BASES), upward=st.booleans(), shells=st.integers(1, 40), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_scan_sums_do_not_depend_on_the_window_past_them(base, upward, shells, data, seed):
    # a shell's sum is bit for bit the same whether the window ends above it or
    # reaches further (starts below it or further, upward); 49 is a derivative
    # base q^alpha = 7^2, and at 101^3 the lag power caps the lag at 32 shells,
    # so the strides run too
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(shells) + 1j * rng.standard_normal(shells)
    s0 = complex(*rng.standard_normal(2))
    k = data.draw(st.integers(1, shells))
    whole = oriented(_scan, w, base, s0, upward)
    if upward:
        assert np.array_equal(oriented(_scan, w[shells - k :], base, s0, True), whole[shells - k :])
    else:
        assert np.array_equal(_scan(w[:k], base, s0), whole[:k])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(BASES), upward=st.booleans(), shells=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_decay_and_scan_are_the_geometric_shell_sums(base, upward, shells, seed):
    # the loop of ``expand`` and the transform, and the operators' scan, both
    # against the sums in 40-digit arithmetic, per shell in units of its term mass
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(shells) + 1j * rng.standard_normal(shells)
    s0 = complex(*rng.standard_normal(2))
    ws = (w[::-1] if upward else w).tolist()
    with mpmath.workdps(40):
        b, s, m = mpmath.mpf(base), mpmath.mpc(s0), abs(mpmath.mpc(s0))
        want, mass = [], []
        for x in ws:
            want.append(complex(s))
            mass.append(float(m))
            s, m = (s + x) / b, (m + abs(x)) / b
    want, mass = np.array(want), np.array(mass)
    for kernel in (_decay, _scan):
        got = oriented(kernel, w, base, s0, upward)
        got = got[::-1] if upward else got
        assert np.all(np.abs(got - want) <= 1e-14 * mass), kernel.__name__


@pytest.mark.parametrize("upward", [False, True])
@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("lag", [512, 256, 128])
def test_scan_at_the_lag_thresholds(lag, side, upward):
    # the lag halves where base^-lag leaves the normal range, at 2^(1022/lag);
    # just below and just above each threshold every shell is within 1e-14 of
    # its term mass of the loop, and a window cut 7 or 600 shells short of this
    # one has its sums bit for bit
    base = 2.0 ** (1022 / lag) * (1.0 + side * 1e-12)
    assert (base**-lag >= sys.float_info.min) == (side < 0)
    shells = 1200
    rng = np.random.default_rng(lag)
    w = rng.standard_normal(shells) + 1j * rng.standard_normal(shells)
    s0 = complex(*rng.standard_normal(2))
    whole = oriented(_scan, w, base, s0, upward)
    mass = np.abs(oriented(_decay, np.abs(w), base, abs(s0), upward))
    assert np.all(np.abs(whole - oriented(_decay, w, base, s0, upward)) <= 1e-14 * mass)
    for k in (7, 600):
        part = slice(k, shells) if upward else slice(0, shells - k)
        assert np.array_equal(oriented(_scan, w[part], base, s0, upward), whole[part])


@pytest.mark.parametrize("upward", [False, True])
@pytest.mark.parametrize("base", [49.0, 1e6])
def test_scan_lag_powers_stay_normal_under_a_deep_value(base, upward):
    # one value of 1e300 and zeros: the sums fall by ``base`` per shell over
    # hundreds of shells, where a lag power ``base^-d`` below the normal range
    # would keep a few bits or none and leave the sums wrong by up to 100 %
    w = np.zeros(400, dtype=complex)
    w[0] = 1e300
    w = w[::-1].copy() if upward else w
    got, seq = oriented(_scan, w, base, upward=upward), oriented(_decay, w, base, upward=upward)
    got, seq = (got[::-1], seq[::-1]) if upward else (got, seq)
    exact = [Fraction(1e300) / Fraction(base) ** i for i in range(1, 400)]
    normal = [i + 1 for i, x in enumerate(exact) if x >= Fraction(sys.float_info.min)]
    assert len(normal) > 100
    eps = sys.float_info.epsilon
    assert np.all(np.abs(got[normal] - seq[normal]) <= 8 * eps * np.abs(seq[normal]))
    assert all(abs(Fraction(got[i].real) - exact[i - 1]) <= 4 * eps * exact[i - 1] for i in normal)


def scan_reference(w, base, seed=0j):
    """``_scan`` as it was before its plan was memoized: the lag searched and the
    buffer appended on every call.  The kernel must keep its bits."""
    lag = 512
    while base**-lag < 2.0**-1022:
        lag //= 2
    e = np.append(complex(seed), w[:-1])
    g = e.view(float).reshape(-1, 2)
    g[1:] /= base
    d, n = 1, len(g)
    while d < lag and d < n:
        g[d:] += base**-d * g[:-d]
        d *= 2
    for i in range(lag, n, lag):
        g[i : i + lag] += base**-lag * g[i - lag : min(i, n - lag)]
    return e


THRESHOLD_BASES = [2.0 ** (1022 / lag) * (1.0 + side * 1e-12) for lag in (512, 256, 128) for side in (-1, 1)]


@pytest.mark.parametrize("upward", [False, True])
@pytest.mark.parametrize("base", BASES + THRESHOLD_BASES)
def test_scan_is_the_reference_kernel_bit_for_bit(base, upward):
    # the memoized plan and the buffer filled in place change no bit, at the
    # widths around the lag (strides or none) and on a one-shell window
    lag = 512
    while base**-lag < sys.float_info.min:
        lag //= 2
    rng = np.random.default_rng(lag)
    for width in (1, 2, 3, lag - 1, lag, lag + 1, 1200):
        w = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        s0 = complex(*rng.standard_normal(2))
        assert np.array_equal(oriented(_scan, w, base, s0, upward), oriented(scan_reference, w, base, s0, upward))


def test_expand_recurs_over_the_window_only(monkeypatch):
    # the I1 e-matrix expands column N on e_N's window -N .. 0, N + 1 steps:
    # dim (dim + 1) / 2 in all, where a recurrence over every column's shells
    # 1 - dim .. 0 runs dim^2; a one-shell function at -7 runs the shells -7 .. 0
    from padicradial.operators import operator_matrix

    lengths, decay = [], padicradial.field._decay

    def recorded(w, *args, **kwargs):
        lengths.append(len(w))
        return decay(w, *args, **kwargs)

    monkeypatch.setattr(padicradial.field, "_decay", recorded)
    operator_matrix(P2, "I1", "e", 40)
    assert len(lengths) == 40 and sum(lengths) == 820
    lengths.clear()
    expand(make_basis(P2, "f", 7), "e", 61)
    assert lengths == [8]


def expand_reference(u, count):
    """The e-coefficients by the recurrence over every shell from ``1 - count``
    up, tail shells included, and their term mass: the same sums over ``|w|``."""
    q = float(u.params.q)
    lo = min(u.n_lo, 1 - count)
    r, h = _shell_roots(q, lo), _ball_root(q, lo)
    w = u.values_on(lo, 0) * r

    def sums(w, t):  # the ball sums B(-N) and the shells w_(-N)
        return (w + _decay(w, math.sqrt(q), t * h / math.sqrt(q - 1.0)))[::-1][:count], w[::-1][:count]

    (ball, down), (ball_mass, down_mass) = sums(w, u.inner_tail), sums(np.abs(w), abs(u.inner_tail))
    want, mass = (1.0 - 1.0 / q) * ball, (1.0 - 1.0 / q) * ball_mass.real
    want[1:] -= down[:-1] / math.sqrt(q)
    mass[1:] += down_mass[:-1] / math.sqrt(q)
    want[:1], mass[:1] = math.sqrt(1.0 - 1.0 / q) * ball[:1], math.sqrt(1.0 - 1.0 / q) * ball_mass[:1].real
    return want, mass


@pytest.mark.parametrize("q", [2, 3, 7])
@pytest.mark.parametrize("width, count", [(1, 40), (5, 6), (17, 300), (60, 61)])
def test_expand_below_the_window_is_the_tail_closed_form(q, width, count):
    # a nonzero tail and more coefficients than the window has shells: below the
    # window the ball sums are the tail's closed form, not the recurrence, and
    # every coefficient is within 4 eps of its term mass of the recurrence's
    rng = np.random.default_rng(width)
    vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    u = KRadialFunction(FieldParams(q), 1 - width, 0, vals, complex(*rng.standard_normal(2)))
    want, mass = expand_reference(u, count)
    got = expand(u, "e", count)
    assert np.all(np.abs(got - want) <= 4 * sys.float_info.epsilon * mass)
    # both shells of v_N below the window: u is its tail there, and <t, v_N> = 0
    assert np.all(got[width + 1 :] == 0)


def test_expand_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count"):
        expand(make_basis(P2, "e", 1), "e", -1)


@pytest.mark.parametrize("q, N", [(2, 1100), (3, 700), (5, 480), (7, 400)])
def test_deep_basis_element_has_unit_norm(q, N):
    # the values of e_N grow like q^(N/2): squared before the measure scales
    # them back, they overflow and the norm came out nan
    e = make_basis(FieldParams(q), "e", N)
    assert abs(norm(e) - 1.0) <= 1e-14
    assert abs(expand(e, "e", N + 2)[N] - 1.0) <= 1e-14


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


def oracle_projection_residual(target, L):
    """Oracle: the normal equations solved in mpmath at ``L(L+2) log10 q + 40`` digits.

    The squared residual ``|u|^2 - proj^2`` decays like ``q^(-L(L+2))``, so
    the subtraction cancels about ``L(L+2) log10 q`` leading digits.
    """
    q = target.params.q
    with mpmath.workdps(math.ceil(L * (L + 2) * math.log10(q)) + 40):
        qm = mpmath.mpf(q)
        unit = 1 - 1 / qm
        G = mpmath.matrix(
            [[unit / (1 - qm ** -(l + m + 1)) for m in range(1, L + 1)] for l in range(1, L + 1)]
        )
        js = range(target.n_lo, 1)
        vals = [mpmath.mpc(v) for v in target.values_on(target.n_lo, 0)]
        tail = mpmath.mpc(target.inner_tail)
        b = mpmath.matrix([
            unit * mpmath.fsum(v * qm ** (j * (l + 1)) for j, v in zip(js, vals))
            + tail * unit * qm ** ((target.n_lo - 1) * (l + 1)) / (1 - qm ** -(l + 1))
            for l in range(1, L + 1)
        ])
        norm2 = unit * mpmath.fsum(abs(v) ** 2 * qm**j for j, v in zip(js, vals))
        norm2 += abs(tail) ** 2 * qm ** (target.n_lo - 1)
        coeff = mpmath.lu_solve(G, b)
        proj2 = mpmath.fsum((mpmath.conj(coeff[i]) * b[i]).real for i in range(L))
        return float(mpmath.sqrt(norm2 - proj2))


@pytest.mark.parametrize("q, L", [(2, 10), (3, 34), (5, 28), (7, 23), (7, 24), (11, 19)])
def test_projection_residual_closed_form(q, L):
    # dist(f_0, span{|x| .. |x|^L}) = q^(-L(L+2)/2), down to the double range
    got = poly_projection_residual(make_basis(FieldParams(q), "f", 0), L)
    want = float(q) ** (-L * (L + 2) / 2)
    assert abs(got - want) <= 4.4e-16 * want


def test_projection_residual_of_the_cut_monomial():
    # |x|^2 cut below 2^-60 is at distance ||tail|| from the span of |x|, |x|^2
    # (at q = 2 the shell values 4^j are exact; at odd q their rounding is
    # part of the input, and the exact residual sees it)
    q = 2
    x2 = make_basis(P2, "monomial", 2)
    want = math.sqrt((1 - 1 / q) * float(q) ** -305 / (1 - float(q) ** -5))
    assert abs(poly_projection_residual(x2, 2) - want) <= 4.4e-16 * want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_projection_residual_refuses_non_finite_input(bad):
    u = KRadialFunction(P2, -3, 0, [1.0, bad, 0.5, 0.25])
    with pytest.raises(ValueError, match="finite"):
        poly_projection_residual(u, 2)
    with pytest.raises(ValueError, match="finite"):
        poly_projection_residual(KRadialFunction(P2, -3, 0, np.ones(4), complex(0, bad)), 2)


def test_projection_residual_beyond_the_double_range_raises():
    # finite values whose residual, about 2.2e308, has no double
    v = complex(1.7e308, 1.7e308)
    with pytest.raises(ValueError, match="double range"):
        poly_projection_residual(KRadialFunction(P2, 0, 0, [v], -v), 1)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_projection_residual_matches_the_mpmath_oracle(q):
    rng = np.random.default_rng(q)
    p = FieldParams(q)
    for _ in range(6):
        W = int(rng.integers(1, 41))
        vals = rng.standard_normal(W) + 1j * rng.standard_normal(W)
        tail = complex(rng.standard_normal(), rng.standard_normal())
        u = KRadialFunction(p, 1 - W, 0, vals, tail)
        for L in (1, 4, int(rng.integers(1, 13))):
            want = oracle_projection_residual(u, L)
            assert abs(poly_projection_residual(u, L) - want) <= 1e-14 * want


def test_max_shell_difference_sees_tails():
    u = make_basis(P2, "v", 2)
    v = make_basis(P2, "v", 2) * 1.0
    assert max_shell_difference(u, v) == 0.0
    w = KRadialFunction(P2, u.n_lo, u.n_hi, u.values, 0.5)
    assert max_shell_difference(u, w) == pytest.approx(0.5)


MEMO_QS = [2, 3, 4, 5, 7, 8, 9, 11, 27, 101, 128, 4096, 65536]


def pow_run(q: float, k0: int, step: int, count: int) -> np.ndarray:
    """Reference: Python's pow ``q^((k0 + step i) / 2)`` one exponent at a time."""
    return np.array([q ** ((k0 + step * i) / 2) for i in range(count)], dtype=float)


@pytest.mark.parametrize("q", MEMO_QS)
def test_half_power_memo_is_pow_from_edge_to_edge(q):
    # every entry has pow's bytes; below the first entry pow gives 0, past the last it overflows
    q = float(q)
    table, first = padicradial.field._half_power_table(q)
    last = first + len(table) - 1
    assert table.tobytes() == pow_run(q, first, 1, len(table)).tobytes()
    assert q ** ((first - 1) / 2) == 0.0 < table[0] and table[-1] < math.inf
    with pytest.raises(OverflowError):
        q ** ((last + 1) / 2)
    run = padicradial.field._half_powers
    assert run(q, first - 1, 1, 1).tobytes() == np.zeros(1).tobytes()  # the first exact zero
    assert run(q, last, 1, 1)[0] == table[-1]
    with pytest.raises(OverflowError, match=rf"\^\({last + 1}/2\) is beyond the double range"):
        run(q, last + 1, 1, 1)  # one step past the last entry
    with pytest.raises(OverflowError, match=rf"\^\({last + 1}/2\) is beyond the double range"):
        run(q, last + 1, -1, 3)  # read backwards: the same run, named by its largest exponent


@pytest.mark.parametrize("q", MEMO_QS)
@pytest.mark.parametrize("step", [-3, -2, -1, 1, 2])
def test_half_power_runs_match_pow_across_both_edges(q, step):
    # runs inside the table are read-only views of it; runs past underflow are exactly 0 there
    # (a read-only copy); a run that reaches past the last entry raises, as pow does
    q = float(q)
    table, first = padicradial.field._half_power_table(q)
    last = first + len(table) - 1
    starts = {first - 7, first - 1, first, first + 2, 0, -1, 1, last - 4, last - 1, last, last + 1, last + 5}
    for k0 in sorted(starts):
        for count in (0, 1, 2, 5, 9, len(table) // 3, len(table) + 4):
            ks = [k0 + step * i for i in range(count)]
            if ks and max(ks) > last:
                with pytest.raises(OverflowError):
                    padicradial.field._half_powers(q, k0, step, count)
                continue
            got = padicradial.field._half_powers(q, k0, step, count)
            assert got.tobytes() == pow_run(q, k0, step, count).tobytes(), (k0, count)
            assert not got.flags.writeable
            if count and min(ks) >= first:
                assert np.shares_memory(got, table), (k0, count)  # a slice, not a copy
            with pytest.raises(ValueError, match="read-only"):
                got[:1] = 1.0
