"""Ultrametric Laplace-type transform: forward map, identities, inversion.

The transform pairs a radial function against the radial step eigenfunction
of the derivative, so it is again a function of the absolute value alone
and is indexed by the exponent ``n`` of ``|xi| = q^n``.  On the shell level
it reads

    transform(q^n) = (1 - 1/q) sum_{j <= -n} phi(q^j) q^j - phi(q^(-n+1)) q^(-n),

which yields a two-term difference identity linking consecutive transform
values to consecutive function values, and through it exact inversion once
the value at radius one is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .field import FieldParams, KRadialFunction, _abs, _half_powers, _pow, _scaled, _scan
from .operators import apply_D_alpha

__all__ = [
    "TransformSequence",
    "laplace_transform",
    "difference_identity_residual",
    "laplace_invert",
    "symbol_identity_residual",
]


@dataclass(frozen=True, eq=False)
class TransformSequence:
    """Transform values on the exponent range ``[n_lo, n_hi]``."""

    params: FieldParams
    n_lo: int
    n_hi: int
    values: np.ndarray

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

    def value_at(self, n: int) -> complex:
        if not self.n_lo <= n <= self.n_hi:
            raise ValueError(f"transform value at n={n} not computed (range [{self.n_lo}, {self.n_hi}])")
        return complex(self.values[n - self.n_lo])


def laplace_transform(phi: KRadialFunction, n_range: tuple[int, int]) -> TransformSequence:
    """Transform of ``phi`` on an inclusive exponent range.

    With ``k = -n`` the value at ``q^n`` is
    ``q^k [(1 - 1/q) B(k) - phi(q^(k+1))]``, where
    ``B(k) = sum_{j <= k} phi(q^j) q^(j-k)`` is one downward ``_scan`` in
    base ``q``, seeded by the closed-form sum ``t / (q - 1)`` of the
    constant inner tail, and ``_scaled`` applies ``q^k``.  Values above the
    window are zero by representation, so every ``n <= -n_hi`` shares the
    value at ``k = n_hi``: only the run of ``k`` up to ``n_hi`` is scaled,
    and its value at ``n_hi`` is repeated above it, which keeps the
    transform exactly constant above the support.  Only relative powers of
    ``q`` enter the sums, and every computed value is exact for the
    represented function.

    Raises ``OverflowError`` when ``q^(-n)`` at the start ``n`` of the range
    is beyond the double range.
    """
    lo, hi = n_range
    if lo > hi:
        raise ValueError(f"empty transform range {n_range}")
    q = float(phi.params.q)
    try:
        q ** float(-lo)
    except OverflowError:
        raise OverflowError(
            f"transform range starts at n={lo}: q^(-n) = {q:g}^{-lo} is beyond the double range"
        ) from None
    top = min(-lo, phi.n_hi)  # k = -n above the support reads as k = n_hi
    bottom, start = min(-hi, top), min(-hi, phi.n_lo)
    w = phi.values_on(start, top + 1)
    ball = w + _scan(w, q, phi.inner_tail / (q - 1.0))  # B(k) from ``start`` up
    run = slice(bottom - start, top - start + 1)  # k = bottom .. top
    bracket = (1.0 - 1.0 / q) * ball[run] - w[1:][run]
    clipped = (hi - lo + 1) - (top - bottom + 1)  # the n whose k is above top
    out = np.empty(hi - lo + 1, dtype=complex)
    out[clipped:] = _scaled(bracket, q, 1.0, range(bottom, top + 1))[::-1]
    out[:clipped] = out[clipped]
    return TransformSequence(phi.params, lo, hi, out)


def difference_identity_residual(phi: KRadialFunction, n_range: tuple[int, int]) -> float:
    """Largest violation of the two-term difference identity on the range.

    The gaps ``T(n) - T(n+1) - q^-n (phi(q^-n) - phi(q^(-n+1)))`` form one
    array over ``n``, with ``q^-n`` from the memo ``field._half_powers``; its
    maximum is NaN where any gap is.
    """
    lo, hi = n_range
    T = laplace_transform(phi, (lo, hi + 1)).values
    w = phi.values_on(-hi, 1 - lo)[::-1]  # phi(q^(1-n)) for n = lo .. hi + 1
    gaps = T[:-1] - T[1:] - _half_powers(float(phi.params.q), -2 * lo, -2, hi - lo + 1) * (w[1:] - w[:-1])
    return float(np.max(_abs(gaps), initial=0.0))


def laplace_invert(
    tilde: TransformSequence, phi_at_1: complex, m_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Recover shell values of ``phi`` from its transform.

    Returns ``(down, up)`` with ``down[m-1] = phi(q^-m)`` and
    ``up[m-1] = phi(q^m)`` for ``m = 1 .. m_max``.  The cumulative sums
    anchor at the supplied ``phi_at_1`` (the transform alone determines
    ``phi`` only up to an additive constant).  The outward recursion needs
    transform values on ``[1 - m_max, 1]`` and the inward one on ``[1, m_max + 1]``,
    weighted by slices of the memo ``field._half_powers``.  A weight ``q^m_max`` or a
    sum that leaves the double range raises ``ValueError`` naming ``'phi_down'`` or ``'phi_up'``.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    need_lo, need_hi = 1 - m_max, m_max + 1
    if need_lo < tilde.n_lo or need_hi > tilde.n_hi:
        # the needed indices outside the range: below it, above it, or both
        first = need_lo if need_lo < tilde.n_lo else max(need_lo, tilde.n_hi + 1)
        last = need_hi if need_hi > tilde.n_hi else min(need_hi, tilde.n_lo - 1)
        raise ValueError(
            f"transform range [{tilde.n_lo}, {tilde.n_hi}] is missing indices {first}..{last} "
            f"needed for m_max={m_max}"
        )
    q = float(tilde.params.q)
    T, i0 = tilde.values, -tilde.n_lo  # T[i0 + n] is the value at q^n
    try:  # q^(1-m_max) .. q^m_max: q^m weighs T(m) - T(m+1), q^(1-m) T(2-m) - T(1-m)
        weights = _half_powers(q, 2 - 2 * m_max, 2, 2 * m_max)
    except OverflowError:
        raise ValueError(
            f"weight q^m_max = {q:g}^{m_max} of 'phi_down' is beyond the double range "
            f"(q={q:g}, m_max={m_max})"
        ) from None
    anchor = [complex(phi_at_1)]
    with np.errstate(over="ignore", invalid="ignore"):
        down = weights[m_max:] * (T[i0 + 1 : i0 + m_max + 1] - T[i0 + 2 : i0 + m_max + 2])
        up = weights[m_max - 1 :: -1] * (T[i0 + 2 - m_max : i0 + 2] - T[i0 + 1 - m_max : i0 + 1])[::-1]
        sums = {
            "phi_down": np.cumsum(np.concatenate((anchor, down))),
            "phi_up": np.cumsum(np.concatenate((anchor, up))),
        }
    for name, acc in sums.items():
        if not np.isfinite(acc).all():
            raise ValueError(
                f"{name!r} is beyond the double range: a cumulative sum of q^m-weighted "
                f"transform differences is not finite (q={q:g}, m_max={m_max})"
            )
    return sums["phi_down"][1:], sums["phi_up"][1:]


def symbol_identity_residual(phi: KRadialFunction, alpha: float, n_range: tuple[int, int]) -> float:
    """Largest relative violation of: transform of the derivative = symbol * transform.

    ``phi`` must be finitely supported (zero tail) so the derivative can be
    evaluated on a widened window; the transform of the derivative at
    ``q^n`` only reads shells ``j <= -n + 1``, which that window covers
    exactly.  Each gap is divided by the larger side once that exceeds 1:
    the symbol reaches ``q^(alpha n)``, so on wide ranges the absolute gap
    carries that factor on top of rounding.  A symbol beyond the double
    range raises ``ValueError`` naming ``q``, ``alpha`` and its first ``n``.
    """
    if phi.inner_tail != 0:
        raise ValueError("symbol identity check requires a zero-tail function")
    lo, hi = n_range
    q, ns = float(phi.params.q), np.arange(lo, hi + 1)
    symbol = _pow(q, float(alpha) * ns)  # pow's bits, inf beyond the double range
    if np.isinf(symbol).any():
        n = int(ns[np.isinf(symbol).argmax()])
        raise ValueError(f"symbol q^(alpha n) at q={q:g}, alpha={float(alpha):g}, n={n} is beyond the double range")
    p_alpha = replace(phi.params, alpha=float(alpha))
    phi_a = KRadialFunction(p_alpha, phi.n_lo, phi.n_hi, phi.values, 0j)
    out_hi = max(phi.n_hi, 1 - lo)
    dphi = apply_D_alpha(phi_a, (phi.n_lo, out_hi))
    lhs = laplace_transform(dphi, n_range)
    rhs = laplace_transform(phi_a, n_range)
    left, right = lhs.values, symbol * rhs.values
    gaps = _abs(left - right) / np.maximum(1.0, np.maximum(_abs(left), _abs(right)))
    return float(np.max(gaps))
