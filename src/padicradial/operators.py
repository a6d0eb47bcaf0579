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
    _pow,
    _TINY,
    _require_o,
    _run_scales,
    _scan,
    _unit_scale,
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


def _scaled(bracket: np.ndarray, q: float, a: float, ns: np.ndarray) -> np.ndarray:
    """``bracket * q^(a n)`` on the shells ``ns``, a nonempty ascending run of
    consecutive shells.

    The scale is ``field._scales_on``'s: per shell one factor where
    ``q^(a n)`` is a normal double, two half-powers elsewhere.  It is read
    from the memo ``field._shell_scales`` (keyed by ``(q, |a|)``, at most
    32 pairs, 2.1 MB) on runs within its shells, and formed for the run
    otherwise (``field._run_scales``); the bits are the same.  The normal
    shells of a run are one run, so the half-powers scale its two ends.  (A subnormal factor would
    keep only some of its bits.)  A normal factor enters in one product,
    rounded once, also where the value is subnormal.  ``OverflowError`` is
    raised when a value itself overflows, and when a subnormal bracket
    would be scaled up to a normal value (its lost bits would show as a
    wrong result).  Neither can happen on a run where no factor exceeds 1
    (``a n <= 0`` on every shell), which is returned unchecked.
    """
    first, second, (p0, p1) = _run_scales(q, a, int(ns[0]), int(ns[-1]))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = bracket * first
        for end in (slice(0, p0), slice(p1, len(ns))):  # the shells off the normal run
            if end.start < end.stop:
                out[end] *= second[end]
        if a * ns[0] <= 0.0 and a * ns[-1] <= 0.0:
            return out
        if not np.isfinite(out).all() and (~np.isfinite(out) & np.isfinite(bracket)).any():
            raise OverflowError(f"operator value beyond the double range (scale q^({a!r} n), q={q:g})")
        # a subnormal bracket has lost its low bits; scaled up to a normal
        # value it would pass them off as an accurate result
        small = np.abs(bracket) < _TINY
        if small.any() and (np.abs(out[small]) >= _TINY).any():
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

    t, q, a = u.inner_tail, float(p.q), p.alpha
    # the recurrence starts at the lowest shell whose value differs from the
    # tail: below it the input is constant, so the output is the constant
    # ``out[0]`` there, however far the input or output window reaches
    moved = np.flatnonzero(u.values != t)
    first = u.n_lo + (int(moved[0]) if moved.size else len(u.values) - 1)
    m, top = first - 1, max(hi, first)
    # the deviation is 0 on the shell ``m``, where the downward sums start at
    # exactly 0, and -t above the window
    dev = u.values_on(m, max(top, u.n_hi)) - t
    qa = q**a
    down_up = _scan(dev, q) + _scan(dev, qa, -t / (qa - 1.0), upward=True)
    diag = (qa + q - 2.0) / (1.0 - q ** (-a - 1.0)) / q
    bracket = p.theta_alpha * (1.0 - 1.0 / q) * down_up + diag * dev
    out = _scaled(bracket[: top - m + 1], q, -a, np.arange(m, top + 1.0))
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


def _volterra_sums(vals: np.ndarray, t, q: float, qa: float) -> np.ndarray:
    """``G(n) = sum_{k<n} K(n-k) q^(k-n) u_k`` on every shell of ``vals``
    with the divided difference ``K(m) = (r^m - 1) / (r - 1)``,
    ``r = q / qa = q^(1-alpha)``, which tends to ``K(m) = m`` at ``alpha = 1``.

    ``G`` runs as two recurrences, ``S(n) = sum_{k<n} q^(k-n) u_k`` and
    ``G(n) = S(n) + G(n-1) / q^alpha``, each seeded with the closed-form sum
    over the constant ``t`` on every shell below ``vals``.
    """
    tail_s = t / (q - 1.0)
    s = _scan(vals, q, tail_s)
    return s + _scan(s, qa, tail_s / (qa - 1.0))


def _integral(vals: np.ndarray, t, p: FieldParams, ns: np.ndarray) -> np.ndarray:
    """``I^alpha`` of the values ``vals`` with tail ``t`` on the shells ``ns``."""
    q, a = float(p.q), p.alpha
    qa = q**a
    # (1-1/q) (1-q^-alpha) q^(1-alpha)
    coef = (1.0 - 1.0 / q) * (qa - 1.0) * q / (qa * qa)
    return _scaled(vals / qa - coef * _volterra_sums(vals, t, q, qa), q, a, ns)


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
    q = float(u.params.q)
    sums = _volterra_sums(u.values_on(u.n_lo, 0), u.inner_tail, q, q)
    out = _scaled(-((1.0 - 1.0 / q) ** 2) * sums, q, 1.0, np.arange(u.n_lo, 1.0))
    return KRadialFunction(u.params, u.n_lo, 0, out)


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
    p, q = u.params, float(u.params.q)
    image = _integral(u.values_on(u.n_lo, 1), u.inner_tail, p, np.arange(u.n_lo, 2.0))
    c = (1.0 - q**-p.alpha) * o_integral(u) / (q - 1.0) - image[-1]
    return KRadialFunction(p, u.n_lo, 0, image[:-1] + c, c)


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
        ent = np.array(self.entries, dtype=complex)
        if ent.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}, got {ent.shape}")
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)


def _toeplitz(d: np.ndarray, below: np.ndarray | None = None) -> np.ndarray:
    """A view: ``d[n - j]`` at (j, n >= j), and ``below[j - n - 1]`` (or 0) below the diagonal."""
    lower = np.zeros(len(d) - 1) if below is None else below[::-1]
    return np.ndarray((len(d), len(d)), float, np.append(lower, d), (len(d) - 1) * 8, (-8, 8))


def _powers(q: float, sign: float, dim: int, what: str = "", basis: str = "") -> np.ndarray:
    """``q^(sign N)`` for N = 0 .. dim-1.  An overflowing ``q^N`` is named as the ``what`` of the
    deepest element of the family ``basis``, where Python's pow reports an errno tuple."""
    try:
        return _pow(q, sign * np.arange(dim, dtype=float))
    except OverflowError:
        raise OverflowError(f"the {what} q^N = {q:g}^{dim - 1} of {basis}_{dim - 1} overflows") from None


def _e_volterra(q: float, dim: int) -> np.ndarray:
    """The ``I01`` e-matrix in closed form, which does not cancel.  The log kernel's weight
    ``n - k`` counts the balls ``|x| <= q^m``, ``k <= m < n``, so ``(I01 u)(q^n)`` is ``-(1-1/q)``
    times the sum over ``m < n`` of ``u``'s integral over the ball ``|x| <= q^m``: ``q^m`` up to
    ``m = -N`` and 0 above for ``v_N`` (N >= 1).  On ``v_N``'s window (below it the image is its
    stored tail 0) ``I01 v_N`` is ``-q^(-N-1)`` on the shell ``-N`` and ``-q^-N`` above, with no
    term linear in the shell; ``I01 v_0`` is ``-1/q`` on the shell 0.  A pairing with ``v_j``
    (j >= 1) integrates over ``|x| <= q^-j`` less ``q^-j`` times the shell ``1-j``.  So with
    ``e_N = s q^(N/2) v_N``, ``u = 1-1/q = s^2``, ``kappa = 1-u/q``, row 0 is ``-u/q``, then
    ``s (kappa q^(-3N/2) - q^(-N/2))``; (1, 0) is ``s q^(-3/2)``; (j, n), 1 <= j <= n, is ``u kappa
    q^-j q^(-3(n-j)/2)``; (n+1, n), n >= 1, is ``u q^(-n-3/2)``; all else is 0 (none overflows)."""
    u, n = (q - 1.0) / q, np.arange(float(dim))
    kappa, s, deep = 1.0 - u / q, math.sqrt(u), _pow(q, -1.5 * n)
    out = _toeplitz(deep) * (u * kappa * _pow(q, -n))[:, None]
    out[0], out[:2, 0] = s * (kappa * deep - _pow(q, -0.5 * n)), (-u / q, s * deep[1])
    np.fill_diagonal(out[2:, 1:], u * _pow(q, -1.5 - n[1:-1]))
    return out


def _e_imaginary(q: float, dim: int) -> np.ndarray:
    """The ``J`` e-matrix.  ``J u = kappa (int_O u log|x| - log|x| int_O u)``, ``kappa = (q-1) /
    (2i q log q)``, pairs only the integrals of the elements: ``int_O e_0 = 1``, ``int_O e_0 log|x|
    = -log q / (q-1)``, and for N >= 1 ``int_O e_N = 0`` exactly (``v_N``'s ball below ``q^-N``
    cancels its shell ``1-N``) and ``int_O e_N log|x| = -log q s q^(-N/2) q/(q-1)``, ``s =
    sqrt(1-1/q)``.  So ``J[0, N] = (i/2) s q^(-N/2) = -J[N, 0]`` (N >= 1), and every other entry is
    0; none overflows."""
    out = np.zeros((dim, dim), complex)
    out.imag[0, 1:] = 0.5 * math.sqrt(1.0 - 1.0 / q) * _pow(q, -0.5 * np.arange(1.0, dim))
    out.imag[1:, 0] = -out.imag[0, 1:]
    return out


def _e_eigenvalues(q: float, name: str, dim: int) -> np.ndarray:
    """The ``D1O`` or resolvent e-matrix: ``D1O e_N = q^N e_N`` (N >= 1) and
    ``D1O e_0 = lambda_1 e_0``, ``lambda_1 = q/(q+1)``; the resolvent inverts both."""
    eigenvalues = _powers(q, 1.0 if name == "D1O" else -1.0, dim, "eigenvalue", "e")
    eigenvalues[0] = q / (q + 1.0) if name == "D1O" else (q + 1.0) / q
    return np.diag(eigenvalues)


def _e_i1(p: FieldParams, dim: int) -> np.ndarray:
    """The ``I1`` e-matrix, one ``expand`` per column.  ``I1 e_0 = 0``, and with
    ``e_N = t_N v_N`` (N >= 1), ``I1 v_N`` is ``I01 v_N`` (see ``_e_volterra``) plus the
    diagonal term ``q^(n-1) v_N``: ``-q^-N (0, q/(q-1), 1, .., 1)`` on the shells
    ``-N .. 0``, and 0 below, where ``v_N`` is constant.  ``t_N q^-N`` is formed in two
    halves ``q^(-N/2)``: ``q^-N`` alone turns subnormal while ``t_N`` is still a double."""
    q, n = float(p.q), np.arange(dim)
    half = _pow(q, -n / 2.0)
    scale = _unit_scale(q, "e", n) * half * half
    shape = np.append([0.0, -q / (q - 1.0)], -np.ones(dim - 2))
    out = np.empty((dim, dim), complex)
    for N in range(dim):  # e_0's column: 0 on the shell 0
        out[:, N] = expand(KRadialFunction(p, -N, 0, scale[N] * shape[: N + 1]), "e", dim)
    return out


def _f_kernel(q: float, name: str, dim: int) -> np.ndarray:
    """The f-family matrix of ``name`` from its exact kernel, which does not cancel.

    With ``u = 1-1/q``, ``f_n = 1_(-n) / r_n``, ``r_n = sqrt(u q^-n)``, the entry ``(j, n)``
    is ``r_j`` times the image of ``f_n`` on the shell ``-j``.  The log kernel's weight
    ``n - j`` counts the balls between the shells, each of mass ``u q^-n`` for ``1_(-n)``,
    so ``I01`` is ``-u^2 (n-j) q^(-(j+n)/2)`` above the diagonal and 0 on and below it,
    and ``I1`` adds its diagonal term ``q^(-j-1)``: a Toeplitz matrix times ``q^-j``.
    ``D1O f_n`` on a shell ``-j`` above ``-n`` is ``theta u q^(2j-n) / r_n`` (the downward
    sum), below it ``theta u q^n / r_n`` (the upward sum), and on it the diagonal
    coefficient ``(2q-2)/(1-q^-2)/q`` times ``q^n / r_n``: with ``theta u q^j q^(-(n-j)/2)``
    above the diagonal, a symmetric Toeplitz matrix times ``q^min(j, n)``.

    For the resolvent, with ``mu_m = u q^-m``, ``I^1 1_(-m)`` is ``mu_m / (q-1)`` on the
    shell ``-m``, ``-u (n+m) mu_m`` on a shell ``n > -m`` and 0 below, and
    ``c(1_(-m)) = int_O 1_(-m) / q - (I^1 1_(-m))(q) = (1 + u m) mu_m``.  So ``R 1_(-m)``
    is ``(1 + u min(j, m) + [j = m]/(q-1)) mu_m`` on the shell ``-j``, and the entry is
    ``r_j r_n (1 + u min(j, n) + [j = n]/(q-1))``: no term cancels, where ``I1`` plus
    ``c(f_n) r_j`` cancels to 1/136 of its terms at dim 160.

    ``J`` (see ``_e_imaginary``) pairs ``int_O f_n = r_n`` and ``int_O f_n log|x| = -n log q r_n``
    into ``(i u/2) (n-j) r_j r_n``, on the same roots.
    """
    u, k = 1.0 - 1.0 / q, np.arange(float(dim))
    if name in ("resolvent", "J"):
        roots = u * _pow(q, -np.arange(2.0 * dim - 1.0) / 2.0)  # r_j r_n at j + n
        if name == "J":  # (i u/2) (n - j) r_j r_n, written into the imaginary part
            roots *= 0.5 * u
        at_sum = np.ndarray((dim, dim), float, roots, 0, (8, 8))  # roots[j + n], as a view
        if name == "resolvent":
            return at_sum * (1.0 + u * np.minimum.outer(k, k) + np.eye(dim) / (q - 1.0))
        out = np.zeros((dim, dim), complex)
        np.multiply(k - k[:, None], at_sum, out=out.imag)
        return out
    half = _pow(q, -k / 2.0)
    if name == "D1O":
        d = (1.0 - q) / (1.0 - q**-2.0) * u * half  # theta_1 u q^(-k/2)
        d[0] = (2.0 * q - 2.0) / (1.0 - q**-2.0) / q
        power = _powers(q, 1.0, dim, "diagonal factor", "f")
        return _toeplitz(d, d[1:]) * np.minimum.outer(power, power)  # q^min(j, n) = min(q^j, q^n)
    d = -u * u * k * half
    d[0] = 0.0 if name == "I01" else 1.0 / q
    return _toeplitz(d) * _powers(q, -1.0, dim)[:, None]


def _entries(p: FieldParams, name: str, basis: str, dim: int) -> np.ndarray:
    """The matrix of ``name``, from its structure."""
    q = float(p.q)
    if basis == "f":
        return _f_kernel(q, name, dim)
    if name == "I1":
        return _e_i1(p, dim)
    if name == "J":
        return _e_imaginary(q, dim)
    return _e_volterra(q, dim) if name == "I01" else _e_eigenvalues(q, name, dim)


def operator_matrix(params: FieldParams, name: str, basis: str, dim: int) -> OperatorMatrix:
    """Matrix of one of the order-one operators in the e- or f-family.

    Column ``n`` is the expansion of the operator's image of basis element
    ``n``, written from the operator's structure: the ``D1O`` and resolvent
    e-matrices from their eigenvalues (the ``v_N`` are eigenfunctions of
    ``D1O``), the ``I01`` and ``J`` e-matrices in closed form, every f-matrix
    from its exact kernel, and the ``I1`` e-matrix by one ``expand`` of each
    column's closed-form image (as ``perfbench/test_perfbench.py`` pins).
    Each entry is rounded otherwise than by the column loop (one operator
    application and one ``expand`` per column), to the same order of its
    term mass; at q = 2 the ``I1`` e-matrix is its bits.  The matrix is
    formed at ``alpha = 1`` whatever the ``alpha`` of ``params``.
    ``ValueError`` names the operator, family, ``q`` and ``dim`` where an
    entry (named by its row and column), the power ``q^N`` of a ``D1O``
    diagonal or a unit factor ``q^(N/2)`` leaves the double range: the
    ``D1O`` matrices from dim 1025 at q = 2 (648 in the e-, 647 in the
    f-family at q = 3), and at q = 7 the ``I1`` e-matrix from dim 731.  Every
    other matrix forms no unit factor and only underflows.
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
            finite = np.isfinite(entries)
            beyond = None if finite.all() else "the entry ({}, {}) is not finite".format(*np.argwhere(~finite)[0])
        except (OverflowError, ValueError) as exc:  # an entry, a power q^N or a unit factor
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
