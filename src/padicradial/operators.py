"""Integral and pseudo-differential operators acting on shell functions.

All operators reduce to shell sums with geometric tails handled in closed
form, so every output value is exact up to rounding.  The fractional
derivative acts on functions over the whole field; the integration
operators act on functions supported on the unit ball and, where the
output fails to be representable with a constant tail, the limit value at
the origin is attached as the tail instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .field import (
    FieldParams,
    KRadialFunction,
    _require_o,
    expand,
    make_basis,
    o_integral,
    o_log_integral,
)

__all__ = [
    "apply_D_alpha",
    "apply_D_alpha_O",
    "apply_I_alpha",
    "apply_I01",
    "apply_resolvent_D1O",
    "OperatorMatrix",
    "operator_matrix",
    "d_constant",
    "moment_a",
    "moment_b",
    "moment_m0",
    "OPERATOR_NAMES",
]

OPERATOR_NAMES = ("D1O", "I1", "I01", "J", "resolvent")

# smallest normal double: a scaled value below it may have lost precision
_TINY = np.finfo(float).tiny


def _decay(w: np.ndarray, base: float, seed: complex = 0j, upward: bool = False) -> np.ndarray:
    """Geometric shell sums of ``w`` for every shell of its window.

    Downward: ``s[i] = sum_{j<i} w[j] base^(j-i)``, where ``seed`` is the
    sum over the shells below the window (so ``s[0] = seed``).  Upward, the
    mirror: ``s[i] = sum_{j>i} w[j] base^(i-j)`` with ``seed`` the sum over
    the shells above it.  Both run the first-order recurrence
    ``s <- (s + w) / base``, so only relative powers of ``q`` are ever
    formed and nothing overflows however deep the window.  Dividing by
    ``base`` rather than multiplying by its rounded reciprocal keeps the
    error of each step at one rounding.  ``base = 1`` gives running sums.
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


def _scaled(bracket: np.ndarray, q: float, a: float, ns: np.ndarray) -> np.ndarray:
    """``bracket * q^(a n)`` on the shells ``ns``.

    The exponent ``a n`` is formed exactly: ``a`` splits into a 24-bit head,
    whose products with shell indices are exact, and a small remainder (a
    single rounded ``a n`` would cost ``n eps log q`` relative).  Where the
    product is not a normal double, the factor alone may have left the
    range, so it is applied again as two half-powers.  ``OverflowError`` is
    raised when a value itself overflows, and when a subnormal bracket would
    be scaled up to a normal value (its lost bits would show as a wrong
    result).
    """
    head = float(np.float32(a))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = bracket * (np.power(q, head * ns) * np.power(q, (a - head) * ns))
        redo = ~(np.abs(out) >= _TINY) | np.isinf(out)
        if redo.any():
            ns = ns[redo]
            half = np.power(q, head * ns / 2.0) * np.power(q, (a - head) * ns / 2.0)
            out[redo] = bracket[redo] * half * half
    if np.any(~np.isfinite(out) & np.isfinite(bracket)):
        raise OverflowError(f"operator value beyond the double range (scale q^({a!r} n), q={q:g})")
    # a subnormal bracket has lost its low bits; scaled up to a normal value
    # it would pass them off as an accurate result
    if np.any((np.abs(bracket) < _TINY) & (np.abs(out) >= _TINY)):
        raise OverflowError(f"operator value lost to underflow (scale q^({a!r} n), q={q:g})")
    return out


def apply_D_alpha(
    u: KRadialFunction, out_window: tuple[int, int] | None = None
) -> KRadialFunction:
    """Fractional derivative of order ``alpha`` on a radial function.

    The value on the shell ``q^n`` combines a downward sum weighted by
    ``q^k``, a diagonal term, and an upward sum weighted by ``q^(-alpha l)``.
    Constants are annihilated, so the formula is evaluated on the deviation
    ``u - t`` from the inner tail: the deviation vanishes below the window
    and equals ``-t`` above it (a closed-form geometric tail past the top
    shell), which keeps every term at the scale of the result.  (Evaluating the three terms on
    ``u`` directly is exact too, but their ``q^(-alpha n)`` growth toward the
    origin cancels catastrophically on shells below the structure.)  With the
    growth factored out, the value is ``q^(-alpha n)`` times
    ``theta (1-1/q) (down + up) + diag dev``, where ``down`` and ``up`` are
    the relative shell sums of ``_decay``.  The output is constant below the
    lowest shell where the input differs from its tail, and that constant
    becomes the output tail, so the result is exact.

    ``out_window`` defaults to the input window and must not start above it
    (otherwise the constant-tail representation of the output would be
    wrong).
    """
    p = u.params
    q = float(p.q)
    a = p.alpha
    if out_window is None:
        out_window = (u.n_lo, u.n_hi)
    lo, hi = out_window
    if lo > hi:
        raise ValueError(f"empty output window {out_window}")
    if lo > u.n_lo:
        raise ValueError(
            f"output window must start at or below the input window ({lo} > {u.n_lo})"
        )

    qa = q**a
    t = u.inner_tail
    # the recurrence starts at the lowest shell whose value differs from the
    # tail: below it the input is constant, so the output is the constant
    # ``out[0]`` there, however far the input or output window reaches
    moved = np.flatnonzero(u.values != t)
    first = u.n_lo + (int(moved[0]) if moved.size else len(u.values) - 1)
    m, top = first - 1, max(hi, first)
    dev = u.values_on(m, max(top, u.n_hi)) - t  # zero below ``first``, -t above the window
    down_up = _decay(dev, q) + _decay(dev, qa, -t / (qa - 1.0), upward=True)
    diag = (qa + q - 2.0) / (1.0 - q ** (-a - 1.0)) / q
    bracket = p.theta_alpha * (1.0 - 1.0 / q) * down_up + diag * dev
    out = _scaled(bracket[: top - m + 1], q, -a, np.arange(m, top + 1.0))
    image = KRadialFunction(p, first, top, out[1:], out[0])
    return KRadialFunction(p, lo, hi, image.values_on(lo, hi), out[0])


def apply_D_alpha_O(u: KRadialFunction) -> KRadialFunction:
    """Derivative of the zero extension, restricted back to the unit ball.

    Values above the top shell are zero by representation, which is exactly
    the zero extension, so this is the derivative evaluated on shells
    ``j <= 0``.
    """
    _require_o(u, "apply_D_alpha_O")
    return apply_D_alpha(u, (u.n_lo, 0))


def _volterra_sums(vals: np.ndarray, t: complex, q: float, qa: float) -> np.ndarray:
    """``G(n) = sum_{k<n} K(n-k) q^(k-n) u_k`` on every shell of ``vals``
    with the divided difference ``K(m) = (r^m - 1) / (r - 1)``,
    ``r = q / qa = q^(1-alpha)``, which tends to ``K(m) = m`` at ``alpha = 1``.

    ``G`` runs as two recurrences, ``S(n) = sum_{k<n} q^(k-n) u_k`` and
    ``G(n) = S(n) + G(n-1) / q^alpha``, each seeded with the closed-form sum
    over the constant ``t`` on every shell below ``vals``.
    """
    tail_s = t / (q - 1.0)
    s = _decay(vals, q, tail_s)
    return s + _decay(s, qa, tail_s / (qa - 1.0))


def apply_I_alpha(u: KRadialFunction, out_hi: int = 0) -> KRadialFunction:
    """Right inverse of the fractional derivative, on ball-supported input.

    The diagonal term ``q^-alpha |x|^alpha u(|x|)`` plus the kernel integral
    over ``|y| < |x|``.  The kernel ``pre (q^((alpha-1)n) - q^((alpha-1)k))``,
    ``pre = (1-q^-alpha)/(1-q^(alpha-1))``, is summed as the divided
    difference of ``_volterra_sums``, which is continuous through
    ``alpha = 1`` (where it is the logarithmic kernel) and has no pole
    there.  Below the input window the input is constant in every shell the
    integral sees, and constants are annihilated, so the output tail is
    exactly zero.  With ``out_hi > 0`` the same formulas produce the values
    on shells outside the ball (needed to compose with the derivative over
    the whole field).
    """
    _require_o(u, "apply_I_alpha")
    if out_hi < 0:
        raise ValueError("out_hi must be >= 0")
    p = u.params
    q = float(p.q)
    a = p.alpha
    qa = q**a
    vals = u.values_on(u.n_lo, out_hi)
    # (1-1/q) (1-q^-alpha) q^(1-alpha)
    coef = (1.0 - 1.0 / q) * (qa - 1.0) * q / (qa * qa)
    bracket = vals / qa - coef * _volterra_sums(vals, u.inner_tail, q, qa)
    out = _scaled(bracket, q, a, np.arange(u.n_lo, out_hi + 1.0))
    return KRadialFunction(p, u.n_lo, out_hi, out)


def apply_I01(u: KRadialFunction, out_lo: int | None = None) -> KRadialFunction:
    """Volterra part of the order-one integral: logarithmic kernel only.

    The kernel weight on the shell pair ``(n, j)``, ``j < n``, is
    ``c (n - j) log q`` times the shell measure, so the value is
    ``-(1-1/q)^2 q^n G(n)`` with ``G`` from ``_volterra_sums`` at
    ``alpha = 1``: the order-one integral without its diagonal term.  Acting
    on the constant 1 the output is ``-|x|/q``, so for input with tail ``t``
    the true values below ``out_lo`` decay like ``-t q^(n-1)``; the stored
    tail is their limit 0, exact whenever ``t = 0``.
    """
    _require_o(u, "apply_I01")
    p = u.params
    q = float(p.q)
    lo = u.n_lo if out_lo is None else out_lo
    if lo > 0:
        raise ValueError("out_lo must be <= 0")
    start = min(lo, u.n_lo)
    g = _volterra_sums(u.values_on(start, 0), u.inner_tail, q, q)
    out = _scaled(-((1.0 - 1.0 / q) ** 2) * g, q, 1.0, np.arange(start, 1.0))
    return KRadialFunction(p, lo, 0, out[lo - start :])


def apply_resolvent_D1O(u: KRadialFunction) -> KRadialFunction:
    """Inverse of the order-one derivative on the unit ball.

    Radial convolution with the logarithmic kernel
    ``k(q^m) = c m log q - 1/q = -(1-1/q) m - 1/q`` plus the projection term
    with the inverse first eigenvalue ``(q+1)/q``.  Off the equal-radius
    shell the ultrametric gives ``|x - xi| = max(|x|, |xi|)``: the kernel at
    ``|xi|`` weights the mass above ``|x|``, the kernel at ``|x|`` the mass
    below, both running sums of ``_decay`` with base 1.  On the shell the
    difference sweeps the sub-shells with measure ``(1-1/q) q^m`` below,
    whose kernel integral over the ball ``|x| <= q^J`` is
    ``-(1-1/q) J q^J``, and ``(1-2/q) q^n`` on the shell itself (zero when
    q = 2, a valid degenerate case).  Below the input window the output is
    constant; it is evaluated at ``n_lo - 1`` and stored as the tail, which
    realizes the value at the origin.
    """
    _require_o(u, "apply_resolvent_D1O")
    p = u.params
    if p.alpha != 1.0:
        raise ValueError("the resolvent is defined for alpha = 1 only")
    q = float(p.q)
    unit = 1.0 - 1.0 / q
    lo = u.n_lo - 1
    ns = np.arange(lo, 1.0)
    qn = np.power(q, ns)
    vals = u.values_on(lo, 0)
    kern = -(unit * ns + 1.0 / q)
    mass = vals * unit * qn
    below = _decay(mass, 1.0, u.inner_tail * q ** (lo - 1.0))
    above = _decay(kern * mass, 1.0, upward=True)
    total = below[-1] + mass[-1]
    onshell = -unit * (ns - 1.0) * qn / q + kern * (1.0 - 2.0 / q) * qn
    out = above + kern * below + onshell * vals + (q + 1.0) / q * total
    return KRadialFunction(p, u.n_lo, 0, out[1:], out[0])


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense matrix of an operator in the e- or f-family at a truncation.

    ``entries[j, n]`` is the coefficient of basis element ``j`` in the image
    of basis element ``n``.
    """

    params: FieldParams
    name: str
    basis: str
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=complex)
        if ent.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}, got {ent.shape}")
        ent = ent.copy()
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)


def _j_entries(params: FieldParams, basis: str, dim: int) -> np.ndarray:
    """Imaginary part as a rank-2 matrix from the pairings with 1 and log."""
    q = float(params.q)
    kap = (1.0 - q) / (2j * q * params.ln_q)
    ones = np.empty(dim)
    logs = np.empty(dim)
    for k in range(dim):
        b = make_basis(params, basis, k)
        ones[k] = o_integral(b).real
        logs[k] = o_log_integral(b).real
    return kap * (np.outer(logs, ones) - np.outer(ones, logs))


def operator_matrix(params: FieldParams, name: str, basis: str, dim: int) -> OperatorMatrix:
    """Matrix of one of the order-one operators in the e- or f-family.

    Columns are built by applying the operator to exact basis vectors and
    expanding the image, which keeps entries at closed-form accuracy.  All
    five named operators are order-one objects, so the matrix is formed at
    ``alpha = 1`` regardless of the ``alpha`` stored in ``params``.
    """
    if name not in OPERATOR_NAMES:
        raise ValueError(f"unknown operator {name!r}, expected one of {OPERATOR_NAMES}")
    if basis not in ("e", "f"):
        raise ValueError(f"basis must be 'e' or 'f', got {basis!r}")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    p1 = replace(params, alpha=1.0)
    if name == "J":
        return OperatorMatrix(p1, name, basis, dim, _j_entries(p1, basis, dim))

    ops = {
        "D1O": apply_D_alpha_O,
        "I1": apply_I_alpha,
        "I01": apply_I01,
        "resolvent": apply_resolvent_D1O,
    }
    op = ops[name]
    cols = np.empty((dim, dim), dtype=complex)
    for n in range(dim):
        image = op(make_basis(p1, basis, n))
        cols[:, n] = expand(image, basis, dim)
    return OperatorMatrix(p1, name, basis, dim, cols)


def d_constant(params: FieldParams, m: int) -> float:
    """Coefficient in the shift identity: integrating the logarithmic kernel
    against ``|y|^m`` over ``|y| < |x|`` gives ``d_m |x|^(m+1)``."""
    if m < 0:
        raise ValueError("m must be >= 0")
    q = float(params.q)
    y = q ** (-(m + 1.0))
    return (1.0 - 1.0 / q) * params.ln_q * y / (1.0 - y) ** 2


def moment_a(params: FieldParams, n: int) -> float:
    """Integral of ``|t|^n log|t|`` over ``|t| < 1`` (negative)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return -d_constant(params, n)


def moment_b(params: FieldParams, n: int) -> float:
    """Integral of ``|t|^n log^2|t|`` over ``|t| < 1`` (positive)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q = float(params.q)
    y = q ** (-(n + 1.0))
    return (1.0 - 1.0 / q) * params.ln_q**2 * y * (1.0 + y) / (1.0 - y) ** 3


def moment_m0(params: FieldParams, n: int) -> float:
    """Integral of ``|t|^n`` over the unit ball."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q = float(params.q)
    return (1.0 - 1.0 / q) / (1.0 - q ** (-(n + 1.0)))
