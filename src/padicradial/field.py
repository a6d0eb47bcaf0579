"""Shell-indexed radial functions over a local field and their orthonormal bases.

A radial function on a local field with residue cardinality ``q`` is a
function of the absolute value alone, so it is determined by its values on
the shells ``|x| = q^j``, ``j`` an integer.  We store a finite window of
shell values together with a constant inner tail (the common value on every
shell below the window); values above the window are zero.  With this
representation every integral that appears in the calculus reduces to a
finite sum plus a geometric series evaluated in closed form, so norms,
inner products and basis expansions carry no truncation error.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldParams",
    "KRadialFunction",
    "inner_product",
    "norm",
    "o_integral",
    "o_log_integral",
    "make_basis",
    "expand",
    "poly_projection_residual",
    "max_shell_difference",
]


@dataclass(frozen=True)
class FieldParams:
    """Residue cardinality ``q`` and differentiation order ``alpha``.

    The residue field of a local field is finite, so ``q`` is a prime power.
    The two derived constants show up throughout the operator formulas:
    ``theta_alpha`` multiplies the hypersingular kernel of the fractional
    derivative and ``c_volterra`` is the prefactor of the logarithmic
    integration kernel.  Both are negative for every valid ``(q, alpha)``:
    parameters whose ``q^alpha``, ``theta_alpha`` or ``c_volterra`` is not
    a finite nonzero double, or whose ``q^-alpha`` is not a normal double,
    are refused.
    """

    q: int
    alpha: float = 1.0

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q!r}")
        if not _is_prime_power(self.q):
            raise ValueError(f"q must be a prime power, got {self.q!r}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        try:
            consts = (float(self.q) ** self.alpha, self.theta_alpha, self.c_volterra)
        except OverflowError:  # float(q) from 2^1024 on, or q^alpha
            consts = (math.inf,)
        if not all(math.isfinite(c) and c != 0.0 for c in consts):
            raise ValueError(
                f"q={self.q} and alpha={self.alpha!r} leave the double range: q^alpha, "
                "theta_alpha and c_volterra must be finite and nonzero"
            )
        if consts[0] ** -1.0 < _TINY:  # ``_scan`` at base q^alpha strides by at least one shell
            raise ValueError(
                f"q={self.q} and alpha={self.alpha!r} leave the double range: q^-alpha must be "
                "a normal double"
            )

    @property
    def ln_q(self) -> float:
        return math.log(self.q)

    @property
    def theta_alpha(self) -> float:
        q, a = float(self.q), self.alpha
        return (1.0 - q**a) / (1.0 - q ** (-a - 1.0))

    @property
    def c_volterra(self) -> float:
        q = float(self.q)
        return (1.0 - q) / (q * self.ln_q)


@functools.lru_cache(maxsize=16)
def _is_prime_power(q: int) -> bool:
    """Whether ``q`` is ``r^k`` for a prime ``r``; the last 16 verdicts are kept."""
    roots = (_int_root(q, k) for k in range(1, q.bit_length()))
    return any(r**k == q and _is_prime(r) for k, r in enumerate(roots, 1))


def _int_root(q: int, k: int) -> int:
    """The integer part of ``q^(1/k)``, set one bit at a time from the top."""
    bits = reversed(range(q.bit_length() // k + 1))
    return functools.reduce(lambda r, b: r | 1 << b if (r | 1 << b) ** k <= q else r, bits, 0)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 37, exact for ``2 <= n < 3.18e23``."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = [pow(b, (n - 1) >> s, n)]  # b^d, b^(2d), .., b^(2^(s-1) d)
        while len(x) < s:
            x.append(x[-1] * x[-1] % n)
        if n != b and x[0] != 1 and n - 1 not in x:
            return False
    return True


@functools.lru_cache(maxsize=16)
def _shell_roots(q: float, lo: int) -> np.ndarray:
    """Square roots of the measures ``(1 - 1/q) q^j`` of the shells ``lo..0``.

    Every pairing over the unit ball weights each factor by one root (the
    ball ``|x| <= q^(lo-1)`` below by ``_ball_root``), so a deep basis
    element (whose values grow like ``q^(N/2)``) is scaled back before it
    is squared, and nothing overflows.  The roots are computed once per
    ``(q, lo)`` (the last 16 pairs are kept) and shared read-only.
    """
    r = math.sqrt(1.0 - 1.0 / q) * np.power(q, np.arange(lo, 1.0) / 2.0)
    r.flags.writeable = False
    return r


_REACH = 2048  # a memoized shell scale covers the shells -_REACH .. _REACH
_TINY = np.finfo(float).tiny  # the smallest normal double


@functools.lru_cache(maxsize=32)
def _shell_scales(q: float, a: float):
    """``_scales_on`` the shells ``-_REACH .. _REACH``, computed once per
    ``(q, a)``, ``a > 0``, and shared read-only.  The last 32 pairs are
    kept, each at most two arrays of ``2 _REACH + 1`` doubles: 2.1 MB."""
    return _scales_on(q, a, -_REACH, _REACH)


def _scales_on(q: float, a: float, lo: int, hi: int):
    """The scale ``q^(a n)`` on the shells ``lo .. hi`` in two factors.

    The exponent ``a n`` is formed exactly: ``a`` splits into a 24-bit
    head, whose products with shell indices are exact, and a small
    remainder (a single rounded ``a n`` would cost ``n eps log q``
    relative).  Where ``q^(a n)`` is a normal double, as told by its
    exponent ``a n log2 q`` before any power is formed, the first factor
    is ``q^(a n)`` and the second unused.  Elsewhere (the factor would
    underflow, be subnormal or overflow) they are two half-powers, each
    ``q^(head n / 2)``, the second times the remainder's power; a
    half-power that is certainly 0 or inf is that value without being
    formed.  The normal shells are one run, ``[i0, i1)`` in the arrays'
    indices (empty where ``i0 == i1``).  Returns the read-only ``first``
    and ``second`` (one array where ``a`` is its own head) and ``(i0, i1)``.
    """
    head = float(np.float32(a))
    ns = np.arange(float(lo), hi + 1.0)
    e2 = a * math.log2(q) * ns  # the factor is 2^e2
    with np.errstate(over="ignore", under="ignore"):
        # q^(head n / 2): below 2^-1077 it is 0, from 2^1025 on inf
        first = np.where(e2 < 0.0, 0.0, np.inf)
        live = np.abs(e2 + 52.0) < 2102.0
        first[live] = np.power(q, head * ns[live] / 2.0)
        near = np.flatnonzero(np.abs(e2 - 1.0) < 1024.0)  # 2^e2 in (2^-1023, 2^1025): may be normal
        factor = np.power(q, head * ns[near])
        second = first  # read on the half-power shells only
        if a != head:  # the remainder enters once: with the second half, and with the factor
            second = first.copy()
            second[live] *= np.power(q, (a - head) * ns[live])
            factor *= np.power(q, (a - head) * ns[near])
    ok = (factor >= _TINY) & (factor < np.inf)
    normal = near[ok]
    first[normal] = factor[ok]
    first.flags.writeable = second.flags.writeable = False
    return first, second, (int(normal[0]), int(normal[-1]) + 1) if normal.size else (0, 0)


def _scaled(bracket: np.ndarray, q: float, a: float, ns: range | np.ndarray) -> np.ndarray:
    """``bracket * q^(a n)`` on the shells ``ns``, a nonempty ascending run of
    consecutive shells (a ``range``; only its ends and length are read).

    The scale is ``_scales_on``'s, one factor where ``q^(a n)`` is a normal
    double and two half-powers elsewhere (a subnormal factor would keep only
    some of its bits).  A run within the shells ``-_REACH .. _REACH`` reads
    it by slices from the memo ``_shell_scales`` of ``(q, |a|)``, backwards
    for ``a < 0`` (``-a`` and its head negate exactly, so shell ``n`` forms
    every exponent of shell ``-n``); a run beyond forms its own, with the
    same bits.  The half-powers scale the two ends of the run's normal
    shells, and a normal factor enters in one product, rounded once, also
    where the value is subnormal.  ``OverflowError`` is raised when a value
    itself overflows, and when a subnormal bracket would be scaled up to a
    normal value (its lost bits would show as a wrong result; looked for
    only where the least ``|bracket|`` is not normal).  Neither can happen
    on a run where no factor exceeds 1 (``a n <= 0`` on every shell), which
    is returned unchecked.
    """
    lo, hi, n = int(ns[0]), int(ns[-1]), len(ns)
    if -_REACH <= lo <= hi <= _REACH:
        first, second, (i0, i1) = _shell_scales(q, abs(a))
        if a < 0:
            first, second, (i0, i1) = first[::-1], second[::-1], (len(first) - i1, len(first) - i0)
        i = lo + _REACH
        first, second, p0 = first[i : i + n], second[i : i + n], min(max(i0 - i, 0), n)
        p1 = min(max(i1 - i, p0), n)
    else:
        first, second, (p0, p1) = _scales_on(q, a, lo, hi)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = bracket * first
        for end in (slice(0, p0), slice(p1, n)):  # the shells off the normal run
            if end.start < end.stop:
                out[end] *= second[end]
        if a * ns[0] <= 0.0 and a * ns[-1] <= 0.0:
            return out
        if not np.isfinite(out).all() and (~np.isfinite(out) & np.isfinite(bracket)).any():
            raise OverflowError(f"operator value beyond the double range (scale q^({a!r} n), q={q:g})")
        # a subnormal bracket has lost its low bits; scaled up to a normal
        # value it would pass them off as an accurate result
        size = np.abs(bracket)
        if not size.min() >= _TINY and (np.abs(out[size < _TINY]) >= _TINY).any():
            raise OverflowError(f"operator value lost to underflow (scale q^({a!r} n), q={q:g})")
    return out


def _ball_root(q: float, n_lo: int) -> float:
    """``q^((n_lo-1)/2)``, the square root of the measure of the ball ``|x| <= q^(n_lo-1)``."""
    return _pow(q, (n_lo - 1.0) / 2.0)


def _pow(x, k):
    """``x ** k`` by Python's pow, element by element where the base ``x`` is an array, so each
    element has the bits of its own scalar call: ``np.power`` is an ulp off Python's pow on some
    exponents.  Runs of ``q^(k/2)`` read its memo, ``_half_powers``."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(pow, x.ravel().tolist(), itertools.repeat(k)), float, x.size).reshape(x.shape)
    return x**k


def _abs(z: np.ndarray) -> np.ndarray:
    """``|z|`` of a complex array with the bits of Python's ``abs`` (hypot): numpy's complex
    ``abs`` differs from it by up to 2 ulp on about a third of inputs (numpy 2.4, x86-64)."""
    return np.hypot(z.real, z.imag)


def _half_powers(q: float, k0: int, step: int, count: int) -> np.ndarray:
    """``q^((k0 + step i) / 2)``, i < count, step != 0, as Python's pow: a read-only slice of
    ``_half_power_table``, or past underflow a read-only copy that is exactly 0 there.
    ``OverflowError`` where a power overflows, as pow raises."""
    if step < 0:  # the same run read backwards
        return _half_powers(q, k0 + step * (count - 1), -step, count)[::-1]
    table, first = _half_power_table(q)
    zeros = min(max(-((k0 - first) // step), 0), count)  # the powers below the table
    run = table[k0 - first + step * zeros : k0 - first + step * count : step]
    if zeros + len(run) < count:
        raise OverflowError(f"{q:g}^({k0 + step * (count - 1)}/2) is beyond the double range")
    if zeros:  # a copy, made read-only as the slices of the table are
        run = np.concatenate((np.zeros(zeros), run))
        run.flags.writeable = False
    return run


@functools.lru_cache(maxsize=32)
def _half_power_table(q: float) -> tuple[np.ndarray, int]:
    """Python's pow ``q^(k/2)`` at each integer ``k`` from the first nonzero value to the last finite
    one, and that first ``k``; once per ``q`` (the last 32 kept), read-only, at most 33 KB (q = 2)."""
    below = math.floor(-2150.0 / math.log2(q))  # q^(below/2) <= 2^-1075: pow gives 0
    first = next(k for k in itertools.count(below) if q ** (k / 2) > 0.0)
    table = np.fromiter(_half_powers_from(q, first), float)
    table.flags.writeable = False
    return table, first


def _half_powers_from(q: float, k: int):
    """``q^(k/2)``, ``q^((k+1)/2)``, .. by Python's pow, up to the last finite one."""
    with contextlib.suppress(OverflowError):
        while True:
            yield q ** (k / 2)
            k += 1


def _decay(w: np.ndarray, base: float, seed=0j) -> np.ndarray:
    """Geometric shell sums of ``w`` for every shell of its window.

    ``s[i] = sum_{j<i} w[j] base^(j-i)``, where ``seed`` is the sum over the
    shells below the window (so ``s[0] = seed``); a caller wanting the sums
    from above reverses its row.  It runs the first-order recurrence
    ``s <- (s + w) / base``, so only relative powers of ``q`` are ever
    formed and nothing overflows however deep the window.  Dividing by
    ``base`` rather than multiplying by its rounded reciprocal keeps the
    error of each step at one rounding.  ``expand`` runs it; the operators
    and the transform use ``_scan``.
    """
    out = []
    s = complex(seed)
    for x in w.tolist():
        out.append(s)
        s = (s + x) / base
    return np.array(out, dtype=complex)


_LAG = 512  # ``_scan``'s longest lag


@functools.lru_cache(maxsize=32)
def _scan_plan(base: float):
    """``_scan``'s lag ``S``, ``base^-S`` and the pass powers ``(d, base^-d)``,
    d = 1, 2, 4, .. < S, formed once per base; the last 32 bases are kept."""
    lag = _LAG
    while base**-lag < 2.0**-1022:  # the smallest normal double
        lag //= 2
    return lag, base**-lag, tuple((2**k, base ** -(2**k)) for k in range(lag.bit_length() - 1))


def _scan(w: np.ndarray, base: float, seed=0j) -> np.ndarray:
    """``_decay``'s sums of one row ``w`` by a log-depth scan.

    On ``e = [seed, w[:-1] / base]``, passes ``e[d:] += base^-d e[:-d]``,
    d = 1, 2, 4, .. < S, sum runs of S shells and strides ``e[i] += base^-S
    e[i-S]`` chain them.  The lag ``S`` is the longest power of two up to
    512 whose ``base^-S`` is a normal double (a subnormal lag power would
    spoil deep sums; ``FieldParams`` keeps ``S >= 1``): 512 for every base
    up to ``2^(1022/512)``, 256 up to ``2^(1022/256)``, and so on.  It
    depends on the base alone (``_scan_plan``), and each shell gets the same
    operations on the same relative neighbours: a shell's sum does not depend
    on how far the window reaches above it.
    """
    lag, stride, passes = _scan_plan(base)
    e, n = np.empty(len(w), complex), len(w)
    e[0], e[1:] = seed, w[:-1]
    g = e.view(float).reshape(-1, 2)  # real and imaginary parts, divided alike
    g[1:] /= base
    for d, power in passes[: (n - 1).bit_length()]:  # d < n
        g[d:] += power * g[:-d]
    for i in range(lag, n, lag):
        g[i : i + lag] += stride * g[i - lag : min(i, n - lag)]
    return e


@dataclass(frozen=True, eq=False)
class KRadialFunction:
    """Radial function stored as shell values on ``[n_lo, n_hi]`` plus a tail.

    ``values[k]`` is the value on the shell ``|x| = q^(n_lo + k)``.  Every
    shell below the window carries the constant ``inner_tail``; every shell
    above the window carries zero.  Functions with ``n_hi <= 0`` live on the
    ring of integers (the unit ball) and are flagged ``o_supported``.
    """

    params: FieldParams
    n_lo: int
    n_hi: int
    values: np.ndarray
    inner_tail: complex = 0j

    def __post_init__(self):
        if self.n_lo > self.n_hi:
            raise ValueError(f"empty window [{self.n_lo}, {self.n_hi}]")
        vals = np.array(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size != self.n_hi - self.n_lo + 1:
            raise ValueError(
                f"values must have length {self.n_hi - self.n_lo + 1}, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "inner_tail", complex(self.inner_tail))

    @property
    def o_supported(self) -> bool:
        return self.n_hi <= 0

    def value_at(self, j: int) -> complex:
        if j > self.n_hi:
            return 0j
        if j < self.n_lo:
            return self.inner_tail
        return complex(self.values[j - self.n_lo])

    def values_on(self, lo: int, hi: int) -> np.ndarray:
        """Shell values for every exponent in ``[lo, hi]``: a new array, or on
        exactly the stored window the stored read-only ``values``, not a copy."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if lo == self.n_lo and hi == self.n_hi:
            return self.values
        n = hi - lo + 1
        a = min(max(self.n_lo - lo, 0), n)  # the first index in or above the window
        b = min(max(self.n_hi + 1 - lo, 0), n)  # the first index above it
        out = np.empty(n, dtype=complex)
        out[:a] = self.inner_tail
        out[a:b] = self.values[lo + a - self.n_lo : lo + b - self.n_lo]
        out[b:] = 0j
        return out

    def with_window(self, lo: int, hi: int) -> "KRadialFunction":
        """Re-represent on a window containing the current one."""
        if lo > self.n_lo or hi < self.n_hi:
            raise ValueError("new window must contain the current window")
        return KRadialFunction(self.params, lo, hi, self.values_on(lo, hi), self.inner_tail)

    def _binary(self, other: "KRadialFunction", sign: float) -> "KRadialFunction":
        if self.params.q != other.params.q:
            raise ValueError("cannot combine functions over different fields")
        lo = min(self.n_lo, other.n_lo)
        hi = max(self.n_hi, other.n_hi)
        return KRadialFunction(
            self.params,
            lo,
            hi,
            self.values_on(lo, hi) + sign * other.values_on(lo, hi),
            self.inner_tail + sign * other.inner_tail,
        )

    def __add__(self, other: "KRadialFunction") -> "KRadialFunction":
        return self._binary(other, 1.0)

    def __sub__(self, other: "KRadialFunction") -> "KRadialFunction":
        return self._binary(other, -1.0)

    def __mul__(self, c) -> "KRadialFunction":
        return KRadialFunction(
            self.params, self.n_lo, self.n_hi, self.values * c, self.inner_tail * c
        )

    __rmul__ = __mul__


def _require_o(u: KRadialFunction, what: str) -> None:
    if not u.o_supported:
        raise ValueError(f"{what} requires a function supported on the unit ball (n_hi <= 0)")


def inner_product(u: KRadialFunction, v: KRadialFunction) -> complex:
    """L2 pairing over the unit ball, tails summed in closed form.

    A pairing of finite values beyond the double range raises ``ValueError``
    (numpy warns of the overflow first)."""
    if u.params.q != v.params.q:
        raise ValueError("mismatched field parameters")
    _require_o(u, "inner_product")
    _require_o(v, "inner_product")
    lo = min(u.n_lo, v.n_lo)
    q = float(u.params.q)
    r, h = _shell_roots(q, lo), _ball_root(q, lo)
    window = np.sum(u.values_on(lo, 0) * r * np.conj(v.values_on(lo, 0) * r))
    out = complex(window + u.inner_tail * h * np.conj(v.inner_tail * h))
    if not cmath.isfinite(out) and np.isfinite([*u.values, *v.values, u.inner_tail, v.inner_tail]).all():
        limit = sys.float_info.max
        raise ValueError(f"inner_product is beyond the double range: a part exceeds {limit:.4g} (q={q:g})")
    return out


def norm(u: KRadialFunction) -> float:
    return math.sqrt(max(inner_product(u, u).real, 0.0))


def _ball_integral(vals: np.ndarray, t, q: float, n_lo: int, log: bool = False):
    """Integral of ``u`` over the unit ball (``log``: of ``u log|x| / log q``).

    ``vals`` holds the shells ``n_lo .. 0`` and ``t`` is the tail; below the
    window, ``sum_{j <= J} j (1 - 1/q) q^j = q^J (J - 1/(q-1))`` with
    ``J = n_lo - 1``.
    """
    r, h = _shell_roots(q, n_lo), _ball_root(q, n_lo)
    terms = vals * r * r
    tail = t * h * h
    if log:
        terms = terms * np.arange(n_lo, 1)
        tail = tail * (n_lo - 1.0 - 1.0 / (q - 1.0))
    return terms.sum() + tail


def o_integral(u: KRadialFunction) -> complex:
    """Integral of ``u`` over the unit ball."""
    _require_o(u, "o_integral")
    return complex(_ball_integral(u.values_on(u.n_lo, 0), u.inner_tail, float(u.params.q), u.n_lo))


def o_log_integral(u: KRadialFunction) -> complex:
    """Integral of ``u(|x|) log|x|`` over the unit ball, tail in closed form."""
    _require_o(u, "o_log_integral")
    q = float(u.params.q)
    total = _ball_integral(u.values_on(u.n_lo, 0), u.inner_tail, q, u.n_lo, log=True)
    return complex(total * u.params.ln_q)


_BASIS_TAGS = ("v", "e", "f", "monomial", "u0", "h1", "h2")


def make_basis(
    params: FieldParams,
    tag: str,
    index: int = 0,
    window: tuple[int, int] | None = None,
) -> KRadialFunction:
    """Construct a named basis element as an exact shell function.

    The step eigenfunctions ``v_N`` (N >= 1) occupy the shells
    ``q^-N, q^(-N+1)`` with constant tail 1; ``v_0`` is the constant 1 on the
    unit ball.  ``e_N = (1 - 1/q)^(1/2) q^(N/2) v_N`` is the unit-normalized
    ``v_N`` (the squared norm of ``v_N`` is ``q^(-N+1)/(q-1)``, the ball term
    plus the shell term), ``f_n`` the single-shell indicator basis, ``u0``
    the top-shell indicator.  Monomials ``|x|^l`` and
    the logarithm ``h2 = -log|x|`` are windowed samples: the monomial tail is
    cut to zero (norm error below ``q^(n_lo (l + 1/2))``), and the ``h2`` tail
    is frozen at its boundary value, so both should be built with a deep
    window.  Unless ``q`` is a power of two, the monomial's values
    ``q^(l j)``, ``j < 0``, are rounded doubles, and an exact computation on
    them sees that rounding: ``poly_projection_residual`` of the monomial
    ``l = 2`` at q = 3 is 5.6e-19, where the cut costs 1.4e-73.
    ``h1`` is the imaginary constant ``(q-1)/(i q log q)``.  ``index`` is
    N >= 0 for ``v``/``e``, n >= 0 for ``f``, the exponent l >= 1 for
    ``monomial``, and is ignored for ``u0``, ``h1`` and ``h2``.
    """
    if tag not in _BASIS_TAGS:
        raise ValueError(f"unknown basis tag {tag!r}")
    if tag in ("v", "e", "f") and index < 0:
        raise ValueError(f"{tag}-index must be >= 0, got {index}")
    if tag == "monomial" and index < 1:
        raise ValueError(f"monomial exponent must be >= 1, got {index}")
    q = float(params.q)
    N = index

    if tag in ("v", "e"):
        if N == 0:
            out = KRadialFunction(params, 0, 0, [1.0], 1.0)
        else:
            scale = 1.0 if tag == "v" else _unit_scale(q, "e", N)
            vals = [scale, -scale / (q - 1.0)]
            out = KRadialFunction(params, -N, -N + 1, vals, scale)
    elif tag == "f":
        out = KRadialFunction(params, -N, -N, [_unit_scale(q, "f", N)])
    elif tag == "u0":
        out = KRadialFunction(params, 0, 0, [1.0])
    elif tag == "h1":
        kap = (q - 1.0) / (1j * q * params.ln_q)
        out = KRadialFunction(params, 0, 0, [kap], kap)
    elif tag == "monomial":
        lo, hi = window if window is not None else (-60, 0)
        js = np.arange(lo, hi + 1)
        return KRadialFunction(params, lo, hi, np.power(q, N * js.astype(float)))
    elif tag == "h2":
        lo, hi = window if window is not None else (-60, 0)
        js = np.arange(lo, hi + 1)
        vals = -js * params.ln_q
        return KRadialFunction(params, lo, hi, vals, -lo * params.ln_q)
    else:  # pragma: no cover
        raise AssertionError(tag)

    if window is not None:
        lo, hi = window
        if lo > out.n_lo or hi < out.n_hi:
            raise ValueError(f"window {window} does not cover the structure of {tag}_{N}")
        out = out.with_window(lo, hi)
    return out


def _unit_scale(q: float, family: str, N):
    """The factor that makes ``v_N`` (N >= 1) the unit ``e_N``, or the shell
    indicator of ``q^-N`` the unit ``f_N``; one per ``N`` of a ``range``."""
    unit = math.sqrt(1.0 - 1.0 / q) if family == "e" else (1.0 - 1.0 / q) ** -0.5
    try:
        return unit * (_half_powers(q, N.start, N.step, len(N)) if isinstance(N, range) else _pow(q, N / 2.0))
    except OverflowError:
        n = int(np.max(N))
        raise ValueError(f"the unit factor q^(N/2) = {q:g}^({n}/2) of {family}_{n} at q={q:g} overflows") from None


def expand(u: KRadialFunction, family: str, count: int) -> np.ndarray:
    """First ``count`` coefficients of ``u`` against the e- or f-family.

    In root-measure coordinates ``w_j = u_j sqrt(mu_j)`` (shells below the
    window carry the tail) the coefficient on ``f_n`` is ``w_(-n)``.  The
    coefficient on ``e_N`` pairs ``u`` with ``v_N``: the ball mass below
    ``q^-N`` minus the shell ``q^(-N+1)``.  With
    ``B(n) = sum_{j <= n} w_j q^((j-n)/2)``, one downward recurrence in base
    ``sqrt(q)`` seeded by the closed-form tail sum, it is
    ``(1-1/q) B(-N) - w_(-N+1) / sqrt(q)``, and ``sqrt(1-1/q) B(0)`` for
    ``e_0``.  Only relative powers of ``q`` are formed, so deep indices stay
    finite.  The recurrence runs over the window ``n_lo .. 0`` alone: below
    it ``B`` is the tail's closed form ``t q^(n/2) / sqrt(1-1/q)``, and where
    both shells of ``v_N`` lie below it (N > 1 - n_lo) the coefficient is
    ``t`` times the integral of ``v_N``, exactly 0.  So the cost is O(W)
    Python steps and O(count) array work.
    """
    if family not in ("e", "f"):
        raise ValueError(f"family must be 'e' or 'f', got {family!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    _require_o(u, "expand")
    q = float(u.params.q)
    lo = min(u.n_lo, 1 - count)
    r = _shell_roots(q, lo)
    if family == "f" or count == 0:
        return (u.values_on(lo, 0) * r)[::-1][:count]  # w_(-n) for n = 0 .. count-1
    root_q, n = math.sqrt(q), 1 - u.n_lo  # the window's n shells
    w = u.values_on(u.n_lo, 0) * r[u.n_lo - lo :]
    # sum_{j < n_lo} w_j q^((j-n_lo)/2) with w_j = t sqrt(1-1/q) q^(j/2): B(n_lo - 1) / sqrt(q)
    seed = u.inner_tail * _ball_root(q, u.n_lo) / math.sqrt(q - 1.0)
    ball = (w + _decay(w, root_q, seed))[::-1][:count]  # B(-N), N < n
    out = np.zeros(count, complex)
    np.multiply(ball, 1.0 - 1.0 / q, out=out[:n])
    out[n : n + 1] = (1.0 - 1.0 / q) * root_q * seed  # with B(n_lo - 1), the tail's
    out[1 : n + 1] -= w[::-1][: count - 1] / root_q
    out[0] = math.sqrt(1.0 - 1.0 / q) * ball[0]
    return out


def poly_projection_residual(target: KRadialFunction, L: int) -> float:
    """Distance from ``target`` to the span of the monomials ``|x|^1 .. |x|^L``.

    The Gram matrix's condition grows like ``q^(3L)`` while the residual
    decays like ``q^(-L(L+2)/2)``, far below double precision, so the normal
    equations are solved exactly.  Every input is rational: the Gram
    entries are ``m0(l+m) = (q-1) q^(l+m) / (q^(l+m+1) - 1)``, the shell
    values are binary floats (scaled to integers by one power of two) and
    the tails are geometric sums.  Each pairing ``sum_j u_j q^(j(l+1))`` is
    one Horner sum over integers.  ``G`` is symmetric positive definite, so
    ``[G | b_re | b_im]`` is eliminated without pivoting, and
    ``resid^2 = |u|^2 - sum_k (y_re,k^2 + y_im,k^2) / d_k`` over the pivots
    ``d_k`` needs no back substitution.  Nothing is rounded before the
    final square root.

    The residual is exact for the shell values as stored.  A sampled
    ``make_basis(.., "monomial", l)`` at q other than a power of two stores
    rounded ``q^(l j)``, so its residual measures that rounding (5.6e-19 at
    q = 3, 2.2e-20 at q = 5 for ``l = L = 2``), not the distance of the cut
    monomial (1.4e-73 and 2.3e-107).
    """
    from fractions import Fraction  # imported here: it adds to the CLI's start-up

    _require_o(target, "poly_projection_residual")
    if L < 1:
        raise ValueError("L must be >= 1")
    q, K = target.params.q, -target.n_lo
    u = target.values_on(target.n_lo, 0)[::-1]  # shells 0, -1, .., n_lo
    t = target.inner_tail
    parts = [*u.real.tolist(), *u.imag.tolist(), t.real, t.imag]
    if not all(map(math.isfinite, parts)):
        raise ValueError("poly_projection_residual requires finite shell values and tail")
    ratios = [x.as_integer_ratio() for x in parts]
    scale = max(d for _, d in ratios)  # a power of two: every part times scale is an integer
    ints = [n * (scale // d) for n, d in ratios]
    re, im, (t_re, t_im) = ints[: K + 1], ints[K + 1 : -2], ints[-2:]

    def horner(coeffs, x):  # sum_k c_k x^(K-k)
        acc = 0
        for c in coeffs:
            acc = acc * x + c
        return acc

    rows = []
    for l in range(1, L + 1):
        x = q ** (l + 1)
        den = q * x**K * (x - 1)  # tail: sum_{j < -K} x^j = x^(-K) / (x - 1)
        gram = [Fraction((q - 1) * q ** (l + m), q ** (l + m + 1) - 1) for m in range(1, L + 1)]
        pair = [Fraction((q - 1) * (horner(c, x) * (x - 1) + tc), den) for c, tc in ((re, t_re), (im, t_im))]
        rows.append(gram + pair)
    squares = [a * a + b * b for a, b in zip(re, im)]
    resid2 = Fraction((q - 1) * horner(squares, q) + t_re * t_re + t_im * t_im, q ** (K + 1))
    for k, pivot in enumerate(rows):
        resid2 -= (pivot[L] ** 2 + pivot[L + 1] ** 2) / pivot[k]
        for row in rows[k + 1 :]:
            f = row[k] / pivot[k]
            for i in range(k + 1, L + 2):
                row[i] -= f * pivot[i]
    if resid2 == 0:
        return 0.0
    # the residual is sqrt(resid2 4^s) 2^-s / scale, with 4^s bringing the square near 1
    s = (resid2.denominator.bit_length() - resid2.numerator.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(resid2 * Fraction(4) ** s), -s - scale.bit_length() + 1)
    except OverflowError:
        raise ValueError(f"the residual at L={L} is beyond the double range") from None


def max_shell_difference(
    u: KRadialFunction,
    v: KRadialFunction,
    lo: int | None = None,
    hi: int | None = None,
) -> float:
    """Largest pointwise gap over a shell range, tails included via ``lo-1``."""
    if lo is None:
        lo = min(u.n_lo, v.n_lo) - 1
    if hi is None:
        hi = max(u.n_hi, v.n_hi)
    return float(np.max(np.abs(u.values_on(lo, hi) - v.values_on(lo, hi))))
