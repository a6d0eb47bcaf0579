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

import math
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

    The two derived constants show up throughout the operator formulas:
    ``theta_alpha`` multiplies the hypersingular kernel of the fractional
    derivative and ``c_volterra`` is the prefactor of the logarithmic
    integration kernel.  Both are negative for every valid ``(q, alpha)``.
    """

    q: int
    alpha: float = 1.0

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q!r}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")

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


def _root_measure(q: float, lo: int) -> tuple[np.ndarray, float]:
    """Square roots of the measures of the shells ``lo..0`` and of the ball below.

    The shell ``q^j`` has measure ``(1 - 1/q) q^j`` and the ball
    ``|x| <= q^(lo-1)`` has measure ``q^(lo-1)``.  Every pairing over the
    unit ball weights each factor by one root, so a deep basis element
    (whose values grow like ``q^(N/2)``) is scaled back before it is
    squared, and nothing overflows.
    """
    js = np.arange(lo, 1.0)
    return math.sqrt(1.0 - 1.0 / q) * np.power(q, js / 2.0), q ** ((lo - 1.0) / 2.0)


def _decay(w: np.ndarray, base: float, seed: complex = 0j, upward: bool = False) -> np.ndarray:
    """Geometric shell sums of ``w`` for every shell of its window.

    Downward: ``s[i] = sum_{j<i} w[j] base^(j-i)``, where ``seed`` is the
    sum over the shells below the window (so ``s[0] = seed``).  Upward, the
    mirror: ``s[i] = sum_{j>i} w[j] base^(i-j)`` with ``seed`` the sum over
    the shells above it.  Both run the first-order recurrence
    ``s <- (s + w) / base``, so only relative powers of ``q`` are ever
    formed and nothing overflows however deep the window.  Dividing by
    ``base`` rather than multiplying by its rounded reciprocal keeps the
    error of each step at one rounding.
    """
    ws = w.tolist()
    if upward:
        ws.reverse()
    out = []
    s = complex(seed)
    for x in ws:
        out.append(s)
        s = (s + x) / base
    if upward:
        out.reverse()
    return np.array(out, dtype=complex)


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
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size != self.n_hi - self.n_lo + 1:
            raise ValueError(
                f"values must have length {self.n_hi - self.n_lo + 1}, got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
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
        """Shell values for every exponent in ``[lo, hi]``."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        js = np.arange(lo, hi + 1)
        out = np.full(js.shape, self.inner_tail, dtype=complex)
        out[js > self.n_hi] = 0j
        inside = (js >= self.n_lo) & (js <= self.n_hi)
        out[inside] = self.values[js[inside] - self.n_lo]
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
    """L2 pairing over the unit ball, tails summed in closed form."""
    if u.params.q != v.params.q:
        raise ValueError("mismatched field parameters")
    _require_o(u, "inner_product")
    _require_o(v, "inner_product")
    lo = min(u.n_lo, v.n_lo)
    r, h = _root_measure(float(u.params.q), lo)
    window = np.sum(u.values_on(lo, 0) * r * np.conj(v.values_on(lo, 0) * r))
    return complex(window + u.inner_tail * h * np.conj(v.inner_tail * h))


def norm(u: KRadialFunction) -> float:
    return math.sqrt(max(inner_product(u, u).real, 0.0))


def o_integral(u: KRadialFunction) -> complex:
    """Integral of ``u`` over the unit ball."""
    _require_o(u, "o_integral")
    r, h = _root_measure(float(u.params.q), u.n_lo)
    return complex(np.sum(u.values_on(u.n_lo, 0) * r * r) + u.inner_tail * h * h)


def o_log_integral(u: KRadialFunction) -> complex:
    """Integral of ``u(|x|) log|x|`` over the unit ball.

    Below the window, ``sum_{j <= J} j (1 - 1/q) q^j = q^J (J - 1/(q-1))``
    with ``J = n_lo - 1``.
    """
    _require_o(u, "o_log_integral")
    q = float(u.params.q)
    r, h = _root_measure(q, u.n_lo)
    js = np.arange(u.n_lo, 1)
    window = np.sum(u.values_on(u.n_lo, 0) * r * r * js)
    tail = u.inner_tail * h * h * (u.n_lo - 1.0 - 1.0 / (q - 1.0))
    return complex((window + tail) * u.params.ln_q)


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
    window.
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
            scale = 1.0 if tag == "v" else math.sqrt(1.0 - 1.0 / q) * q ** (N / 2.0)
            vals = [scale, -scale / (q - 1.0)]
            out = KRadialFunction(params, -N, -N + 1, vals, scale)
    elif tag == "f":
        out = KRadialFunction(params, -N, -N, [(1.0 - 1.0 / q) ** -0.5 * q ** (N / 2.0)])
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
    finite, and the cost is one pass over the window and the ``count``
    shells.
    """
    if family not in ("e", "f"):
        raise ValueError(f"family must be 'e' or 'f', got {family!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    _require_o(u, "expand")
    q = float(u.params.q)
    lo = min(u.n_lo, 1 - count)
    r, h = _root_measure(q, lo)
    w = u.values_on(lo, 0) * r
    down = w[::-1][:count]  # w_(-n) for n = 0 .. count-1
    if family == "f":
        return down
    root_q = math.sqrt(q)
    # sum_{j < lo} w_j q^((j-lo)/2) with w_j = t sqrt(1-1/q) q^(j/2)
    seed = u.inner_tail * h / math.sqrt(q - 1.0)
    ball = (w + _decay(w, root_q, seed))[::-1][:count]  # B(-N)
    out = np.empty(count, dtype=complex)
    out[:1] = math.sqrt(1.0 - 1.0 / q) * ball[:1]
    out[1:] = (1.0 - 1.0 / q) * ball[1:] - down[:-1] / root_q
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
