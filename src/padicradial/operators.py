"""Integral and pseudo-differential operators acting on shell functions.

All operators reduce to shell sums with geometric tails handled in closed
form, so every output value is exact up to rounding.  The fractional
derivative acts on functions over the whole field; the integration
operators act on functions supported on the unit ball and, where the
output fails to be representable with a constant tail, the limit value at
the origin is attached as the tail instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .field import (
    FieldParams,
    KRadialFunction,
    _along,
    _div,
    _element_integrals,
    _family_grid,
    _family_shells,
    _pow,
    _require_o,
    _scan,
    _shell_roots,
    expand,
    o_integral,
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


def _power(q: float, head: float, a: float, ns: np.ndarray) -> np.ndarray:
    """``q^(a n)`` on the shells ``ns`` as ``q^(head n) q^((a - head) n)``;
    the second factor is exactly 1 when ``a`` is its own head."""
    power = np.power(q, head * ns)
    return power if a == head else power * np.power(q, (a - head) * ns)


def _scaled(bracket: np.ndarray, q: float, a: float, ns: np.ndarray) -> np.ndarray:
    """``bracket * q^(a n)`` on the shells ``ns``, a nonempty monotone run
    (the first axis; rows, if any, on a second axis share the scale of
    their shell).

    The exponent ``a n`` is formed exactly: ``a`` splits into a 24-bit head,
    whose products with shell indices are exact, and a small remainder (a
    single rounded ``a n`` would cost ``n eps log q`` relative).  A shell's
    factor ``q^(a n)`` is formed only where it can be a normal double, as
    told by its exponent ``a n log2 q`` before any power is formed; the two
    end shells tell whether every factor is, which is the common case.  A
    shell whose factor is not a normal double (it would underflow, be
    subnormal or overflow) is scaled by two half-powers instead, each
    ``q^(head n / 2)``, the second times the remainder's power; a
    half-power that is certainly 0 or inf enters as that value without
    being formed.  (A subnormal factor would keep only some of its bits.)
    A normal factor enters in one product, rounded once, also where the
    value is subnormal.  ``OverflowError`` is raised when a value itself
    overflows, and when a subnormal bracket would be scaled up to a normal
    value (its lost bits would show as a wrong result).
    """
    head = float(np.float32(a))
    lg = a * math.log2(q)  # a shell's factor is 2^(lg n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if max(abs(ns[0]), abs(ns[-1])) * abs(lg) < 1021.0:  # every factor is normal
            out = bracket * _along(_power(q, head, a, ns), bracket)
        else:
            e2 = lg * ns
            near = np.abs(e2 - 1.0) < 1024.0  # 2^e2 in (2^-1023, 2^1025): may be normal
            factor = _power(q, head, a, ns[near])
            normal = (factor >= _TINY) & (factor < np.inf)
            single = near.copy()
            single[near] = normal
            halves = ~single
            nh, e2h = ns[halves], e2[halves]
            # q^(head n / 2): below 2^-1077 it is 0, from 2^1025 on inf
            half = np.where(e2h < 0.0, 0.0, np.inf)
            live = np.abs(e2h + 52.0) < 2102.0
            half[live] = np.power(q, head * nh[live] / 2.0)
            scale = np.empty(len(ns))
            scale[single] = factor[normal]
            scale[halves] = half
            out = bracket * _along(scale, bracket)
            if a != head:  # the remainder enters once, with the second half
                half[live] *= np.power(q, (a - head) * nh[live])
            out[halves] *= _along(half, out)
        if (~np.isfinite(out) & np.isfinite(bracket)).any():
            raise OverflowError(f"operator value beyond the double range (scale q^({a!r} n), q={q:g})")
        # a subnormal bracket has lost its low bits; scaled up to a normal
        # value it would pass them off as an accurate result
        small = np.abs(bracket) < _TINY
        if small.any() and (np.abs(out[small]) >= _TINY).any():
            raise OverflowError(f"operator value lost to underflow (scale q^({a!r} n), q={q:g})")
    return out


def _below(grid: np.ndarray, start) -> np.ndarray:
    """Mask of each row's shells below its ``start`` index."""
    return np.arange(len(grid))[:, None] < start


# The operator cores below act on the shell values ``vals`` (or the
# deviation ``dev``) of one function on the shells ``ns``, or on many at
# once: a second axis of ``vals`` holds one row per function, with its tail
# ``t`` and its window start ``start`` (an index into ``ns``) on a common
# grid.  Every row equals the one-row result on its own window bit for bit;
# below its window it is 0, or, for the derivative, its value at ``m``.


def _derivative(dev: np.ndarray, t, p: FieldParams, ns: np.ndarray, m=None) -> np.ndarray:
    """``D^alpha`` on the shells ``ns`` from the deviation ``dev = u - t``,
    which may reach above them.  ``dev`` vanishes up to ``ns[m]``, the shell
    below the first one where ``u`` differs from ``t`` (``ns[0]`` for one
    row), so the downward sums start there at exactly 0."""
    q, a = float(p.q), p.alpha
    qa = q**a
    down_up = _scan(dev, q, start=m) + _scan(dev, qa, _div(-t, qa - 1.0), upward=True)
    diag = (qa + q - 2.0) / (1.0 - q ** (-a - 1.0)) / q
    bracket = p.theta_alpha * (1.0 - 1.0 / q) * down_up + diag * dev
    if m is not None:  # no row reads its upward sums below its m; they must not overflow
        bracket[_below(bracket, m)] = 0
    out = _scaled(bracket[: len(ns)], q, -a, ns)
    if m is not None:  # the input is constant below ns[m], so the output is too
        np.copyto(out, out[m, np.arange(out.shape[1])], where=_below(out, m))
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
    the relative shell sums of ``_scan``.  The output is constant below the
    lowest shell where the input differs from its tail, and that constant
    becomes the output tail, so the result is exact.

    ``out_window`` defaults to the input window and must not start above it
    (otherwise the constant-tail representation of the output would be
    wrong).
    """
    p = u.params
    if out_window is None:
        out_window = (u.n_lo, u.n_hi)
    lo, hi = out_window
    if lo > hi:
        raise ValueError(f"empty output window {out_window}")
    if lo > u.n_lo:
        raise ValueError(
            f"output window must start at or below the input window ({lo} > {u.n_lo})"
        )

    t = u.inner_tail
    # the recurrence starts at the lowest shell whose value differs from the
    # tail: below it the input is constant, so the output is the constant
    # ``out[0]`` there, however far the input or output window reaches
    moved = np.flatnonzero(u.values != t)
    first = u.n_lo + (int(moved[0]) if moved.size else len(u.values) - 1)
    m, top = first - 1, max(hi, first)
    dev = u.values_on(m, max(top, u.n_hi)) - t  # zero below ``first``, -t above the window
    out = _derivative(dev, t, p, np.arange(m, top + 1.0))
    image = KRadialFunction(p, first, top, out[1:], out[0])
    return image if (lo, hi) == (first, top) else KRadialFunction(p, lo, hi, image.values_on(lo, hi), out[0])


def apply_D_alpha_O(u: KRadialFunction) -> KRadialFunction:
    """Derivative of the zero extension, restricted back to the unit ball.

    Values above the top shell are zero by representation, which is exactly
    the zero extension, so this is the derivative evaluated on shells
    ``j <= 0``.
    """
    _require_o(u, "apply_D_alpha_O")
    return apply_D_alpha(u, (u.n_lo, 0))


def _volterra_sums(vals: np.ndarray, t, q: float, qa: float, start=None) -> np.ndarray:
    """``G(n) = sum_{k<n} K(n-k) q^(k-n) u_k`` on every shell of ``vals``
    with the divided difference ``K(m) = (r^m - 1) / (r - 1)``,
    ``r = q / qa = q^(1-alpha)``, which tends to ``K(m) = m`` at ``alpha = 1``.

    ``G`` runs as two recurrences, ``S(n) = sum_{k<n} q^(k-n) u_k`` and
    ``G(n) = S(n) + G(n-1) / q^alpha``, each seeded with the closed-form sum
    over the constant ``t`` on every shell below ``vals`` (below ``start``
    for rows, which read 0 there).
    """
    tail_s = _div(t, q - 1.0)
    s = _scan(vals, q, tail_s, start=start)
    return s + _scan(s, qa, _div(tail_s, qa - 1.0), start=start)


def _integral(vals: np.ndarray, t, p: FieldParams, ns: np.ndarray, start=None) -> np.ndarray:
    """``I^alpha`` of the values ``vals`` with tail ``t`` on the shells ``ns``."""
    q, a = float(p.q), p.alpha
    qa = q**a
    # (1-1/q) (1-q^-alpha) q^(1-alpha)
    coef = (1.0 - 1.0 / q) * (qa - 1.0) * q / (qa * qa)
    bracket = vals / qa - coef * _volterra_sums(vals, t, q, qa, start)
    return _scaled(bracket, q, a, ns)


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
    vals = u.values_on(u.n_lo, out_hi)
    out = _integral(vals, u.inner_tail, u.params, np.arange(u.n_lo, out_hi + 1.0))
    return KRadialFunction(u.params, u.n_lo, out_hi, out)


def _volterra(vals: np.ndarray, t, p: FieldParams, ns: np.ndarray, start=None) -> np.ndarray:
    """``I01`` of the values ``vals`` with tail ``t`` on the shells ``ns``."""
    q = float(p.q)
    g = _volterra_sums(vals, t, q, q, start)
    return _scaled(-((1.0 - 1.0 / q) ** 2) * g, q, 1.0, ns)


def apply_I01(u: KRadialFunction) -> KRadialFunction:
    """Volterra part of the order-one integral: logarithmic kernel only.

    The kernel weight on the shell pair ``(n, j)``, ``j < n``, is
    ``c (n - j) log q`` times the shell measure, so the value is
    ``-(1-1/q)^2 q^n G(n)`` with ``G`` from ``_volterra_sums`` at
    ``alpha = 1``: the order-one integral without its diagonal term.  Acting
    on the constant 1 the output is ``-|x|/q``, so for input with tail ``t``
    the true values below the window decay like ``-t q^(n-1)``; the stored
    tail is their limit 0, exact whenever ``t = 0``.  Widen the input window
    (``u.with_window``) to see more of them.
    """
    _require_o(u, "apply_I01")
    out = _volterra(u.values_on(u.n_lo, 0), u.inner_tail, u.params, np.arange(u.n_lo, 1.0))
    return KRadialFunction(u.params, u.n_lo, 0, out)


def _resolvent(vals: np.ndarray, t, integral, p: FieldParams, ns: np.ndarray, start=None):
    """The resolvent's values on ``ns[:-1]`` and its tail ``c``, from the
    values on ``ns`` (one shell above the ball) and ``int_O u``."""
    q = float(p.q)
    image = _integral(vals, t, p, ns, start)
    c = _div((1.0 - q**-p.alpha) * integral, q - 1.0) - image[-1]
    return image[:-1] + c, c


def apply_resolvent_D1O(u: KRadialFunction) -> KRadialFunction:
    """Inverse of ``D^alpha_O`` on the unit ball, for every order.

    ``I^alpha`` inverts the derivative over the whole field; the zero
    extension drops the part of ``I^alpha u`` outside the ball, which adds a
    constant on it: ``D^alpha_O (I^alpha u) = u - lambda_1 c(u)``, where
    ``D^alpha_O 1_O = lambda_1 1_O``, ``lambda_1 = (1-1/q)/(1-q^(-alpha-1))``.
    Hence ``R u = I^alpha u + c(u)`` on the ball, with
    ``c(u) = (1-q^-alpha) int_O u / (q-1) - (I^alpha u)(|x| = q)``, which
    has no pole at ``alpha = 1``.  ``I^alpha`` annihilates constants below
    the window, so ``c`` is also the exact output tail, the value at the
    origin.
    """
    _require_o(u, "apply_resolvent_D1O")
    vals, c = _resolvent(u.values_on(u.n_lo, 1), u.inner_tail, o_integral(u), u.params,
                         np.arange(u.n_lo, 2.0))
    return KRadialFunction(u.params, u.n_lo, 0, vals, c)


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


def _entries(p: FieldParams, name: str, basis: str, dim: int) -> np.ndarray:
    """The matrix of ``name`` from one pass over the basis."""
    q = float(p.q)
    lo = 1 - dim  # the window start of element dim - 1: every image lives on lo..0
    shells, t, n_lo = _family_shells(q, basis, dim)
    if name == "J":  # kappa (<u, 1> log|x| - <u, log|x|>): rank 2
        kap = (1.0 - q) / (2j * q * p.ln_q)
        ones, logs = _element_integrals(q, shells, t, n_lo)
        ones, logs = ones.real, (logs * p.ln_q).real
        return kap * (np.outer(logs, ones) - np.outer(ones, logs))
    grid = _family_grid(shells)  # shells lo-1 .. 1
    start = n_lo - lo  # each row's window start on the shells lo..
    if name == "D1O":
        # the first shell where an element differs from its tail is e_N's top
        # shell, f_n's only one, and shell 0 for the constant e_0; m indexes
        # the shell below it on the grid from lo - 1
        m = (np.minimum(n_lo + 1, 0) if basis == "e" else n_lo) - lo
        dev = np.where(_below(grid[:-1], m + 1), 0j, grid[:-1] - t)
        out = _derivative(dev, t, p, np.arange(lo - 1, 1.0), m)
        image, tails = out[1:], out[m, np.arange(dim)]
    elif name == "resolvent":
        integral = _element_integrals(q, shells, t, n_lo)[0]
        image, tails = _resolvent(grid[1:], t, integral, p, np.arange(lo, 2.0), start)
    else:
        core = _integral if name == "I1" else _volterra
        image, tails = core(grid[1:-1], t, p, np.arange(lo, 1.0), start), np.zeros(dim)
    if basis == "f":  # expand(image_n, "f", dim) for every n: f_j's coefficient is w_(-j)
        return (image * _shell_roots(q, lo)[:, None])[::-1]
    return np.column_stack([
        expand(KRadialFunction(p, lo, 0, image[:, n], tails[n]), basis, dim) for n in range(dim)
    ])


def operator_matrix(params: FieldParams, name: str, basis: str, dim: int) -> OperatorMatrix:
    """Matrix of one of the order-one operators in the e- or f-family.

    Column ``n`` is the expansion of the operator's image of basis element
    ``n``, at closed-form accuracy.  The images come from one batched pass:
    the elements ``0 .. dim-1`` (at most two shells each) are written in
    closed form as the rows of one grid of shell values, and the operator's
    shell scans run once over all rows, each row started at its own window
    (``field._scan``).  In the f-family the expansion of every image is one
    array product with the memoized root measures of ``(q, 1 - dim)``,
    reversed so that row ``j`` is the shell ``-j``: the product ``expand``
    forms per column.  In the e-family each image costs one closed-form
    ``expand`` on its stored window, one O(dim) recurrence per column.
    That split is not a difference between the families: the e-family
    keeps one ``expand`` call per column because
    ``perfbench/test_perfbench.py`` pins one ``field.expand`` span per
    column of the ``I1`` e-matrix.  ``J``, and the
    resolvent's ``int_O u``, take each element's pairings with 1 and
    ``log|x|`` from its two shells and its tail (``field._element_integrals``).
    Every column is bit for bit that of the operator applied to
    ``make_basis(params, basis, n)`` and expanded, and ``J`` is the rank-2
    outer product of those pairings.
    All five named operators are order-one objects, so the matrix is formed
    at ``alpha = 1`` regardless of the ``alpha`` stored in ``params``.
    ``ValueError`` names the operator, family, ``q`` and ``dim`` where an
    image or an entry leaves the double range: the ``D1O`` image of ``e_N``
    or ``f_N`` has shell values of order ``q^(3N/2)``, so at q = 2 the
    ``D1O`` matrices stop at dim 683.
    """
    if name not in OPERATOR_NAMES:
        raise ValueError(f"unknown operator {name!r}, expected one of {OPERATOR_NAMES}")
    if basis not in ("e", "f"):
        raise ValueError(f"basis must be 'e' or 'f', got {basis!r}")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    p1 = replace(params, alpha=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            entries = _entries(p1, name, basis, dim)
            beyond = None if np.all(np.isfinite(entries)) else "an entry is not finite"
        except OverflowError as exc:
            beyond = str(exc)
    if beyond:
        raise ValueError(
            f"the {name} matrix in the {basis}-family at q={p1.q}, dim={dim} "
            f"leaves the double range: {beyond}"
        )
    return OperatorMatrix(p1, name, basis, dim, entries)


def _y(params: FieldParams, n, name: str) -> tuple[float, float | np.ndarray]:
    """``q`` and ``y = q^-(n+1)`` for an order ``n >= 0`` or an integer array of orders."""
    if np.min(n, initial=0) < 0:
        raise ValueError(f"{name} must be >= 0")
    q = float(params.q)
    return q, _pow(q, -(n + 1.0))


def d_constant(params: FieldParams, m: int | np.ndarray) -> float | np.ndarray:
    """Coefficient in the shift identity: integrating the logarithmic kernel
    against ``|y|^m`` over ``|y| < |x|`` gives ``d_m |x|^(m+1)``.  This and
    the moments below take an order or an integer array of orders."""
    q, y = _y(params, m, "m")
    return (1.0 - 1.0 / q) * params.ln_q * y / _pow(1.0 - y, 2)


def moment_a(params: FieldParams, n: int | np.ndarray) -> float | np.ndarray:
    """Integral of ``|t|^n log|t|`` over ``|t| < 1`` (negative)."""
    if np.min(n, initial=0) < 0:
        raise ValueError("n must be >= 0")
    return -d_constant(params, n)


def moment_b(params: FieldParams, n: int | np.ndarray) -> float | np.ndarray:
    """Integral of ``|t|^n log^2|t|`` over ``|t| < 1`` (positive)."""
    q, y = _y(params, n, "n")
    return (1.0 - 1.0 / q) * params.ln_q**2 * y * (1.0 + y) / _pow(1.0 - y, 3)


def moment_m0(params: FieldParams, n: int | np.ndarray) -> float | np.ndarray:
    """Integral of ``|t|^n`` over the unit ball."""
    q, y = _y(params, n, "n")
    return (1.0 - 1.0 / q) / (1.0 - y)
