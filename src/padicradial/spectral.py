"""Spectral analysis of the integration operators.

Covers the eigenpairs of the order-one integral on the ball, nilpotency
diagnostics of its Volterra part, the rank-2 imaginary part, and the
2x2 characteristic matrix-function of inverse argument together with a
growth certificate for its entries.

The characteristic function is that of the colligation of ``A = I01``.  With
``<u, v> = int_O u conj(v)``, ``h1 = kap1``, ``h2 = -log|x|`` and
``Phi u = (<u, h1>, <u, h2>) / sqrt 2``, the imaginary part is
``J = -(<., h1> h2 + <., h2> h1) / 2 = Phi* Sigma Phi``, ``Sigma = -S`` (``S`` the
swap), so ``A - A* = 2i Phi* Sigma Phi``.  For ``R = (I - zA)^-1`` that gives
``|z|^2 R* Phi* Sigma Phi R = (z R - conj(z) R*) / 2i - Im z R* R``, so
``Theta = I + 2i z Sigma Phi R Phi*`` has ``Theta* S Theta - S = 4 Im z Phi R* R Phi*``:
0 on the real axis (J-unitary), positive definite above it, negative definite below.
As ``(Phi R Phi*)_ab = <R h_b, h_a> / 2 = G_ba / 2``, ``Theta = E - i z S G^T``, and
``W = S Theta^T S = E - i z S G`` shares all three (``Theta S Theta* - S`` has the sign
of ``Theta* S Theta - S``); ``det W = det Theta`` is 1 on the axis to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .field import FieldParams, KRadialFunction, _TINY, _half_powers, o_integral, o_log_integral
from .operators import (
    d_constant,
    moment_b,
    moment_m0,
    operator_matrix,
)

__all__ = [
    "I1Spectrum",
    "i1_eigenpairs",
    "volterra_check",
    "imaginary_part",
    "j_diagnostics",
    "MatrixPowerSeries",
    "characteristic_function",
    "order_certificate",
    "ShortSeriesError",
]

_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class I1Spectrum:
    """Eigen-decomposition of the truncated integral operator.

    ``eigenvalues`` are sorted by modulus, descending; ``eigenvectors[:, k]``
    is the matching unit coordinate vector in the e-family.
    """

    params: FieldParams
    dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def i1_eigenpairs(params: FieldParams, dim: int) -> I1Spectrum:
    """Eigenpairs of the order-one integral in the e-family, from its structure.

    The e-matrix ``M`` of ``I1`` (``operator_matrix``, held to this pattern by
    ``verify``'s ``i1_matrix`` check) is ``diag(0, q^-1, .., q^-(dim-1))`` plus the
    first row ``M[0, N] = -sqrt(1 - 1/q) q^(-N/2)``, ``N >= 1``.  So ``M - q^-N`` is
    0 in row and column ``N`` but for ``M[0, N]``, and ``v = e_0 + d_N e_N`` solves
    ``(M - q^-N) v = 0`` when row 0 does, ``-q^-N + M[0, N] d_N = 0``:
    ``d_N = -(1 - 1/q)^(-1/2) q^(-N/2)``; column 0 is 0, so ``e_0`` spans the kernel.
    The eigenvalues ``q^-N`` are Python's pow (slices of the memo ``field._half_powers``),
    then 0; the vectors are ``(e_0 + d_N e_N) / sqrt(1 + d_N^2)`` and ``e_0``.  Below
    ``2^-1022`` (from N = 1023 at q = 2) an eigenvalue is subnormal or 0, as the matrix's own diagonal is.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    p1 = params if params.alpha == 1.0 else replace(params, alpha=1.0)
    q = float(p1.q)
    d = -_half_powers(q, -1, -1, dim - 1) / math.sqrt(1.0 - 1.0 / q)
    h = np.hypot(1.0, d)
    vec = np.eye(dim, k=dim - 1, dtype=complex)  # e_0 in the last column
    vec[0, :-1] = 1.0 / h
    np.fill_diagonal(vec[1:], d / h)  # e_N in column N - 1
    return I1Spectrum(p1, dim, np.append(_half_powers(q, -2, -2, dim - 1), 0.0).astype(complex), vec)


def volterra_check(params: FieldParams, dim: int) -> dict:
    """Nilpotency diagnostics of the Volterra part in the f-family.

    The matrix must be strictly upper triangular, so every eigenvalue of
    the truncation vanishes.  Where its strict lower part is exactly 0 the
    eigenvalues are its diagonal, and ``max_abs_eigenvalue`` is the largest
    ``|diagonal|``; otherwise it is ``inf``.  Column 0 vanishes, so the
    kernel holds ``e_0`` (the top-shell indicator), the representative
    returned: back-substitution from the last row pins each coordinate
    ``j + 1`` through the pivot ``A[j, j + 1]`` against later coordinates
    that are all 0, so it pins 0.  ``kernel_dim`` counts ``e_0`` and each
    coordinate whose pivot is exactly 0 in a row that holds a normal
    double; a row whose entries are all below ``2^-1022`` (from row 1021 at
    q = 2) has lost its pivot to underflow, and its coordinate is not free.
    (A singular-value cutoff cannot do this job: the trailing singular
    values of the truncation decay geometrically and sink below any fixed
    threshold as ``dim`` grows, while the exact kernel stays
    one-dimensional.)
    """
    A = operator_matrix(params, "I01", "f", dim).entries
    lower = np.tril(A)
    max_lower = float(np.abs(lower).max())
    triangular = not np.tril(lower, -1).any()
    rows = np.flatnonzero(A.diagonal(1) == 0)
    free = np.count_nonzero((np.abs(A[rows]) >= _TINY).any(axis=1))
    return {
        "max_abs_eigenvalue": float(np.abs(A.diagonal()).max()) if triangular else math.inf,
        "strict_triangularity": max_lower <= 1e-14,
        "max_lower_entry": max_lower,
        "kernel_dim": 1 + int(free),
        "kernel_vector": np.eye(1, dim, dtype=complex)[0],
    }


def imaginary_part(u: KRadialFunction) -> tuple[complex, complex]:
    """Skew part of the Volterra operator applied to ``u``.

    A rank-2 operator: the image is ``sigma log|x| + eta``, returned as the
    exact pair ``(sigma, eta)`` (the logarithm has no constant-tail shell
    representation).
    """
    p = u.params
    q = float(p.q)
    kap = (1.0 - q) / (2j * q * p.ln_q)
    return kap * o_integral(u), -kap * o_log_integral(u)


def j_diagnostics(params: FieldParams, dim: int) -> dict:
    """Trace and singular values of the imaginary part's e-family matrix (rank 2, zero trace): as
    ``kappa (a b^T - b a^T)`` is skew, both nonzero ones are its Frobenius norm over ``sqrt 2``."""
    mat = operator_matrix(params, "J", "e", dim).entries
    sigma = np.linalg.norm(mat) / math.sqrt(2.0)
    return {"trace": complex(np.trace(mat)), "singular_values": np.pad([sigma, sigma], (0, dim - 2))}


@dataclass(frozen=True, eq=False)
class MatrixPowerSeries:
    """Power-series data of the characteristic matrix-function.

    ``g[a, b, n]`` is the pairing of the n-th Volterra iterate of channel
    ``a`` against channel ``b``; the function itself is ``W = E - i z (S @ G(z))``
    with the swap matrix ``S``, signed by the colligation (module docstring), so
    ``W`` is the identity exactly at ``z = 0``.
    """

    params: FieldParams
    order: int
    g: np.ndarray
    underflowed: bool = False

    def __post_init__(self):
        arr = np.asarray(self.g, dtype=complex)
        if arr.shape != (2, 2, self.order + 1):
            raise ValueError(f"g must have shape (2, 2, {self.order + 1}), got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "g", arr)

    def evaluate(self, z: complex) -> np.ndarray:
        powers = np.power(complex(z), np.arange(self.order + 1))
        G = np.tensordot(self.g, powers, axes=([2], [0]))
        return np.eye(2, dtype=complex) - 1j * z * (_SWAP @ G)

    def w_coefficients(self) -> np.ndarray:
        """Taylor coefficients of the four entries, shape (2, 2, order + 2)."""
        out = np.zeros((2, 2, self.order + 2), dtype=complex)
        out[:, :, 0] = np.eye(2)
        out[:, :, 1:] = -1j * np.einsum("ag,gbn->abn", _SWAP, self.g)
        return out


def characteristic_function(params: FieldParams, T: int) -> MatrixPowerSeries:
    """Neumann coefficients of the characteristic function up to order ``T``.

    The two channels are the imaginary constant ``kap1 = (q-1)/(i q log q)``
    and ``-log|x|``.  The Volterra operator maps ``|x|^n`` to
    ``c d_n |x|^(n+1)`` and ``|x|^n log|x|`` to
    ``c d_n |x|^(n+1) log|x| - c b_n |x|^(n+1)``, so the n-th iterates are
    ``kap1 P_n |x|^n`` and ``-P_n |x|^n log|x| + P_n E_n |x|^n`` with
    ``P_n = prod_(k<n) c d_k`` and ``E_n = sum_(k<n) b_k / d_k``, and every
    pairing is a closed-form moment.  The increment ``b_k / d_k`` is formed
    as ``log q (1 + y) / (1 - y)``, ``y = q^-(k+1)``, because ``d_k`` itself
    underflows for deep ``k``.  A coefficient below the smallest normal
    double, subnormal or exactly 0 (at q = 2 and T = 200, 626 of the 804 are 0,
    from n = 44 on), has lost precision and sets the ``underflowed`` flag;
    ``order_certificate`` skips both kinds.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    q = float(params.q)
    kap1 = (q - 1.0) / (1j * q * params.ln_q)
    n = np.arange(T + 1)
    d, b, m0 = d_constant(params, n), moment_b(params, n), moment_m0(params, n)
    P = np.cumprod(np.concatenate(([1.0], params.c_volterra * d[:-1])))
    y = _half_powers(q, -2, -2, T)
    E = np.cumsum(np.concatenate(([0.0], params.ln_q * (1.0 + y) / (1.0 - y))))
    g = np.array([
        [abs(kap1) ** 2 * P * m0, kap1 * P * d],
        [np.conj(kap1) * P * (d + E * m0), P * (b + E * d)],
    ])
    underflowed = bool(np.any(np.abs(g) < _TINY))
    return MatrixPowerSeries(params, T, g, underflowed)


class ShortSeriesError(ValueError):
    """``order_certificate`` refused a series with too few normal coefficients to fit."""


def order_certificate(params: FieldParams, series) -> dict:
    """Growth certificate for an entire-function coefficient sequence.

    ``fitted_C`` is the smallest constant with
    ``|coef_n| <= C^n q^(-n^2/2)`` over the coefficients of normal
    magnitude (subnormal and zero ones have lost their precision).  The order
    estimate uses ``n log n / log(1/|coef_n|)``: when the least-squares slope
    of the per-index decay rate ``log|coef_n| / n`` against ``n`` (in closed
    form) is below -0.01, the trend is clearly negative, the decay is
    super-exponential and the implied order is reported as 0; otherwise the
    largest ratio over ``n >= 5`` is reported, which flags geometric
    sequences (radius-limited, order at least 1 behavior).  A coefficient
    that is ``nan`` or infinite is refused, naming its index.
    """
    coefs = np.asarray(series, dtype=complex).ravel()
    mags = np.abs(coefs)
    bad = np.flatnonzero(~np.isfinite(mags))
    if bad.size:
        raise ValueError(f"coefficient {bad[0]} is not finite: {coefs[bad[0]]}")
    if np.all(mags == 0):
        raise ValueError("all-zero coefficient sequence")
    ns = np.flatnonzero(mags[1:] >= _TINY) + 1
    if len(ns) < 10:
        raise ShortSeriesError("need at least 10 normal (not underflowed) coefficients")

    m = mags[ns]
    logs = np.fromiter(map(math.log, m.tolist()), float, len(ns))
    n = ns.astype(float)
    fitted_C = math.exp(np.max((logs + 0.5 * n * n * params.ln_q) / n))

    rates = logs / n
    spread = n - n.mean()
    if spread @ rates / (spread @ spread) < -0.01:  # the least-squares slope of the rates against n
        rho = 0.0
    else:
        at = (n >= 5) & (m < 1.0)
        pts = n[at] * np.fromiter(map(math.log, ns[at].tolist()), float, np.count_nonzero(at)) / -logs[at]
        rho = float(pts.max()) if pts.size else math.inf
    return {"fitted_C": fitted_C, "max_order_estimate": rho}
