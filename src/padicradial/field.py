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
import mpmath
import numpy as np

__all__ = [
    "FieldParams",
    "KRadialFunction",
    "BasisKind",
    "GramConditionError",
    "shell_measure",
    "ball_power_integral",
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


def _sum_exp_upto(J: int, q: float) -> float:
    """Closed form of ``sum_{j <= J} q^j``."""
    return q ** float(J) / (1.0 - q**-1.0)


def _sum_j_exp_upto(J: int, q: float) -> float:
    """Closed form of ``sum_{j <= J} j * q^j``."""
    y = q**-1.0
    return q ** float(J) * (J / (1.0 - y) - y / (1.0 - y) ** 2)


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


class GramConditionError(RuntimeError):
    """Raised when a monomial Gram system is too ill-conditioned to solve."""


def shell_measure(params: FieldParams, n: int) -> float:
    """Haar measure of the shell ``|x| = q^n``, i.e. ``(1 - 1/q) q^n``."""
    q = float(params.q)
    return (1.0 - 1.0 / q) * q ** float(n)


def ball_power_integral(params: FieldParams, n: int, a: float) -> float:
    """Integral of ``|x|^(a-1)`` over the ball ``|x| <= q^n``."""
    if not a > 0:
        raise ValueError(f"exponent parameter must be positive, got {a!r}")
    q = float(params.q)
    return (1.0 - 1.0 / q) / (1.0 - q ** (-a)) * q ** (a * n)


def _require_o(u: KRadialFunction, what: str) -> None:
    if not u.o_supported:
        raise ValueError(f"{what} requires a function supported on the unit ball (n_hi <= 0)")


def inner_product(u: KRadialFunction, v: KRadialFunction) -> complex:
    """L2 pairing over the unit ball, tails summed in closed form."""
    if u.params.q != v.params.q:
        raise ValueError("mismatched field parameters")
    _require_o(u, "inner_product")
    _require_o(v, "inner_product")
    q = float(u.params.q)
    lo = min(u.n_lo, v.n_lo)
    js = np.arange(lo, 1)
    mu = (1.0 - 1.0 / q) * np.power(q, js.astype(float))
    window = np.sum(u.values_on(lo, 0) * np.conj(v.values_on(lo, 0)) * mu)
    # ball of radius q^(lo-1) has measure q^(lo-1)
    tail = u.inner_tail * np.conj(v.inner_tail) * q ** (lo - 1.0)
    return complex(window + tail)


def norm(u: KRadialFunction) -> float:
    return math.sqrt(max(inner_product(u, u).real, 0.0))


def o_integral(u: KRadialFunction) -> complex:
    """Integral of ``u`` over the unit ball."""
    _require_o(u, "o_integral")
    q = float(u.params.q)
    js = np.arange(u.n_lo, 1)
    mu = (1.0 - 1.0 / q) * np.power(q, js.astype(float))
    return complex(np.sum(u.values_on(u.n_lo, 0) * mu) + u.inner_tail * q ** (u.n_lo - 1.0))


def o_log_integral(u: KRadialFunction) -> complex:
    """Integral of ``u(|x|) log|x|`` over the unit ball."""
    _require_o(u, "o_log_integral")
    q = float(u.params.q)
    lnq = u.params.ln_q
    js = np.arange(u.n_lo, 1)
    mu = (1.0 - 1.0 / q) * np.power(q, js.astype(float))
    window = np.sum(u.values_on(u.n_lo, 0) * js * lnq * mu)
    tail = u.inner_tail * lnq * (1.0 - 1.0 / q) * _sum_j_exp_upto(u.n_lo - 1, q)
    return complex(window + tail)


_BASIS_TAGS = ("v", "e", "f", "monomial", "u0", "h1", "h2")


@dataclass(frozen=True)
class BasisKind:
    """Named element of one of the classical families.

    ``v``/``e`` take an index N >= 0, ``f`` an index n >= 0, ``monomial`` an
    exponent l >= 1; the index is ignored for ``u0``, ``h1`` and ``h2``.
    """

    tag: str
    index: int = 0

    def __post_init__(self):
        if self.tag not in _BASIS_TAGS:
            raise ValueError(f"unknown basis tag {self.tag!r}")
        if self.tag in ("v", "e", "f") and self.index < 0:
            raise ValueError(f"{self.tag}-index must be >= 0, got {self.index}")
        if self.tag == "monomial" and self.index < 1:
            raise ValueError(f"monomial exponent must be >= 1, got {self.index}")


def make_basis(
    params: FieldParams,
    kind: BasisKind | str,
    index: int | None = None,
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
    ``h1`` is the imaginary constant ``(q-1)/(i q log q)``.
    """
    if isinstance(kind, str):
        kind = BasisKind(kind, 0 if index is None else index)
    elif index is not None:
        raise ValueError("pass the index inside BasisKind or with a string tag, not both")
    q = float(params.q)
    tag, N = kind.tag, kind.index

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
    """First ``count`` coefficients of ``u`` against the e- or f-family."""
    if family not in ("e", "f"):
        raise ValueError(f"family must be 'e' or 'f', got {family!r}")
    _require_o(u, "expand")
    return np.array(
        [inner_product(u, make_basis(u.params, family, k)) for k in range(count)],
        dtype=complex,
    )


def _gram_matrix_float(params: FieldParams, L: int) -> np.ndarray:
    return np.array(
        [[ball_power_integral(params, 0, l + m + 1) for m in range(1, L + 1)] for l in range(1, L + 1)]
    )


def poly_projection_residual(
    target: KRadialFunction,
    L: int,
    *,
    cond_limit: float = 1e60,
    dps: int = 60,
) -> float:
    """Distance from ``target`` to the span of the monomials ``|x|^1 .. |x|^L``.

    The Gram matrix has closed-form entries but its condition number grows
    like ``q^(3L)`` (the float SVD estimate saturates near 1e19, so the
    geometric model is folded into the estimate), and the exact residuals
    decay roughly like ``q^(-L(L+1)/2)``, far below double precision beyond
    L ~ 7.  The normal equations are therefore assembled and solved with
    ``mpmath``, at a precision scaled to ``L`` (the inputs, being binary
    floats, convert exactly).  Beyond ``cond_limit`` the solve is refused.
    """
    _require_o(target, "poly_projection_residual")
    if L < 1:
        raise ValueError("L must be >= 1")
    q = target.params.q
    cond = float(np.linalg.cond(_gram_matrix_float(params=target.params, L=L)))
    if not math.isfinite(cond):
        cond = math.inf
    cond = max(cond, float(q) ** (3 * L))
    if cond > cond_limit:
        raise GramConditionError(
            f"monomial Gram matrix at L={L} has condition estimate {cond:.3e} beyond {cond_limit:.1e}"
        )

    dps = max(dps, int(L * (L + 1) * math.log10(q)) + 30)
    with mpmath.workdps(dps):
        one = mpmath.mpf(1)
        qm = mpmath.mpf(q)
        unit = one - one / qm

        def m0(k):  # integral of |x|^k over the unit ball
            return unit / (one - qm ** (-(k + 1)))

        G = mpmath.matrix(L, L)
        for l in range(1, L + 1):
            for m in range(1, L + 1):
                G[l - 1, m - 1] = m0(l + m)

        js = list(range(target.n_lo, 1))
        vals = [mpmath.mpc(v) for v in target.values_on(target.n_lo, 0)]
        tail = mpmath.mpc(target.inner_tail)

        def pair_with_monomial(l):
            s = mpmath.mpc(0)
            for j, v in zip(js, vals):
                s += v * qm ** (j * l) * unit * qm**j
            # tail: sum_{j <= n_lo - 1} q^(j (l+1)) in closed form
            s += tail * unit * qm ** ((target.n_lo - 1) * (l + 1)) / (one - qm ** (-(l + 1)))
            return s

        b = mpmath.matrix([pair_with_monomial(l) for l in range(1, L + 1)])
        norm2 = mpmath.mpf(0)
        for j, v in zip(js, vals):
            norm2 += (v * mpmath.conj(v)).real * unit * qm**j
        norm2 += (tail * mpmath.conj(tail)).real * qm ** (target.n_lo - 1)

        coeff = mpmath.lu_solve(G, b)
        proj2 = sum((mpmath.conj(coeff[i]) * b[i]).real for i in range(L))
        resid2 = norm2 - proj2
        return float(mpmath.sqrt(resid2)) if resid2 > 0 else 0.0


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
