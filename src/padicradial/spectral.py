"""Spectral analysis of the integration operators.

Covers the eigenpairs of the order-one integral on the ball, nilpotency
diagnostics of its Volterra part, the rank-2 imaginary part, and the
2x2 characteristic matrix-function of inverse argument together with a
growth certificate for its entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import FieldParams, KRadialFunction, o_integral, o_log_integral
from .operators import (
    OperatorMatrix,
    d_constant,
    moment_a,
    moment_b,
    moment_m0,
    operator_matrix,
)

__all__ = [
    "I1Spectrum",
    "i1_eigenpairs",
    "volterra_check",
    "imaginary_part",
    "j_matrix",
    "j_diagnostics",
    "LogPolynomial",
    "volterra_step",
    "MatrixPowerSeries",
    "characteristic_function",
    "order_certificate",
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
    """Dense eigenpairs of the order-one integral in the e-family."""
    mat = operator_matrix(params, "I1", "e", dim)
    try:
        ev, vec = np.linalg.eig(mat.entries)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigen-decomposition failed at dim={dim}") from exc
    order = np.argsort(-np.abs(ev))
    return I1Spectrum(mat.params, dim, ev[order], vec[:, order])


def volterra_check(params: FieldParams, dim: int) -> dict:
    """Nilpotency diagnostics of the Volterra part in the f-family.

    The matrix must be strictly upper triangular, so every eigenvalue of
    the truncation vanishes.  The kernel is solved from that structure by
    back-substitution: row ``j`` pins coordinate ``j + 1`` through the pivot
    just above the diagonal, zeros propagate exactly, and only coordinates
    whose pivot vanishes stay free.  (A singular-value cutoff cannot do
    this job: the trailing singular values of the truncation decay
    geometrically and sink below any fixed threshold as ``dim`` grows,
    while the exact kernel stays one-dimensional.)  Singular values are
    still reported for inspection.
    """
    mat = operator_matrix(params, "I01", "f", dim)
    A = mat.entries
    lower = np.abs(A[np.tril_indices(dim)])
    max_lower = float(lower.max())
    ev = np.linalg.eigvals(A)
    s = np.linalg.svd(A, compute_uv=False)

    kernel_vector = np.zeros(dim, dtype=complex)
    kernel_vector[0] = 1.0
    free = 1  # coordinate 0 is never constrained (column 0 vanishes)
    for j in range(dim - 2, -1, -1):
        pivot = A[j, j + 1]
        rest = A[j, j + 2 :] @ kernel_vector[j + 2 :]
        if pivot == 0:
            free += 1 if rest == 0 else 0
        else:
            kernel_vector[j + 1] = -rest / pivot
    kernel_vector /= np.linalg.norm(kernel_vector)
    return {
        "max_abs_eigenvalue": float(np.abs(ev).max()),
        "strict_triangularity": max_lower <= 1e-14,
        "max_lower_entry": max_lower,
        "kernel_dim": free,
        "kernel_vector": kernel_vector,
        "singular_values": s,
    }


@dataclass(frozen=True)
class LogPolynomial:
    """Finite sum of ``sigma_n |x|^n log|x| + eta_n |x|^n`` on the unit ball.

    This family is closed under the Volterra operator, so it carries its
    iterates exactly.  ``terms`` is a tuple of ``(n, sigma_n, eta_n)`` with
    distinct exponents ``n >= 0``.
    """

    params: FieldParams
    terms: tuple

    def __post_init__(self):
        cleaned = tuple((int(n), complex(s), complex(e)) for n, s, e in self.terms)
        exps = [n for n, _, _ in cleaned]
        if len(set(exps)) != len(exps):
            raise ValueError("term exponents must be distinct")
        if any(n < 0 for n in exps):
            raise ValueError("term exponents must be >= 0")
        object.__setattr__(self, "terms", cleaned)

    def value_at(self, j: int) -> complex:
        q = float(self.params.q)
        lnq = self.params.ln_q
        return sum(
            (s * j * lnq + e) * q ** (n * float(j)) for n, s, e in self.terms
        ) or 0j

    def to_radial(self, n_lo: int, n_hi: int = 0) -> KRadialFunction:
        """Sample onto a shell window; the tail is frozen at the limit 0."""
        vals = [self.value_at(j) for j in range(n_lo, n_hi + 1)]
        return KRadialFunction(self.params, n_lo, n_hi, vals)

    def pair_with_constant(self) -> complex:
        """Integral against 1 over the unit ball."""
        return sum(
            s * moment_a(self.params, n) + e * moment_m0(self.params, n)
            for n, s, e in self.terms
        ) or 0j

    def pair_with_log(self) -> complex:
        """Integral against ``log|x|`` over the unit ball."""
        return sum(
            s * moment_b(self.params, n) + e * moment_a(self.params, n)
            for n, s, e in self.terms
        ) or 0j


def volterra_step(p: LogPolynomial) -> LogPolynomial:
    """One application of the Volterra operator: exponents shift by one.

    ``|x|^n`` maps to ``c d_n |x|^(n+1)`` and ``|x|^n log|x|`` maps to
    ``-c a_n |x|^(n+1) log|x| - c b_n |x|^(n+1)``.
    """
    c = p.params.c_volterra
    out = []
    for n, s, e in p.terms:
        s2 = -c * moment_a(p.params, n) * s
        e2 = -c * moment_b(p.params, n) * s + c * d_constant(p.params, n) * e
        if s2 != 0 or e2 != 0:
            out.append((n + 1, s2, e2))
    return LogPolynomial(p.params, tuple(out))


def imaginary_part(u: KRadialFunction) -> LogPolynomial:
    """Skew part of the Volterra operator applied to ``u``.

    A rank-2 operator: the image is a combination of ``log|x|`` and the
    constant, returned as an exact log-polynomial (the logarithm has no
    constant-tail shell representation).
    """
    p = u.params
    q = float(p.q)
    kap = (1.0 - q) / (2j * q * p.ln_q)
    return LogPolynomial(
        p, ((0, kap * o_integral(u), -kap * o_log_integral(u)),)
    )


def j_matrix(params: FieldParams, dim: int, basis: str = "e") -> OperatorMatrix:
    """Matrix of the imaginary part; rank 2 with zero trace."""
    return operator_matrix(params, "J", basis, dim)


def j_diagnostics(params: FieldParams, dim: int, basis: str = "e") -> dict:
    mat = j_matrix(params, dim, basis)
    return {
        "trace": complex(np.trace(mat.entries)),
        "singular_values": np.linalg.svd(mat.entries, compute_uv=False),
    }


@dataclass(frozen=True, eq=False)
class MatrixPowerSeries:
    """Power-series data of the characteristic matrix-function.

    ``g[a, b, n]`` is the pairing of the n-th Volterra iterate of channel
    ``a`` against channel ``b``; the function itself is
    ``W = E + i z (j @ G(z))`` with the swap matrix ``j``, so ``W`` is the
    identity exactly at ``z = 0``.
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
        return np.eye(2, dtype=complex) + 1j * z * (_SWAP @ G)

    def w_coefficients(self) -> np.ndarray:
        """Taylor coefficients of the four entries, shape (2, 2, order + 2)."""
        out = np.zeros((2, 2, self.order + 2), dtype=complex)
        out[:, :, 0] = np.eye(2)
        out[:, :, 1:] = 1j * np.einsum("ag,gbn->abn", _SWAP, self.g)
        return out


def characteristic_function(params: FieldParams, T: int) -> MatrixPowerSeries:
    """Neumann coefficients of the characteristic function up to order ``T``.

    The two channels are the imaginary constant ``(q-1)/(i q log q)`` and
    ``-log|x|``; their Volterra iterates stay inside the log-polynomial
    family, and all pairings reduce to the closed-form moments.  The shell
    ``|x| = 1`` contributes nothing to the log moments.  Trailing
    coefficients that underflow to zero set the ``underflowed`` flag.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    q = float(params.q)
    kap1 = (q - 1.0) / (1j * q * params.ln_q)
    chans = [
        LogPolynomial(params, ((0, 0.0, kap1),)),
        LogPolynomial(params, ((0, -1.0, 0.0),)),
    ]
    g = np.zeros((2, 2, T + 1), dtype=complex)
    for a, p in enumerate(chans):
        for n in range(T + 1):
            g[a, 0, n] = np.conj(kap1) * p.pair_with_constant()
            g[a, 1, n] = -p.pair_with_log()
            if n < T:
                p = volterra_step(p)
    underflowed = bool(np.any(np.all(g[:, :, : T // 2] != 0, axis=2) & (g[:, :, T] == 0)))
    return MatrixPowerSeries(params, T, g, underflowed)


def order_certificate(params: FieldParams, series) -> dict:
    """Growth certificate for an entire-function coefficient sequence.

    ``fitted_C`` is the smallest constant with
    ``|coef_n| <= C^n q^(-n^2/2)`` over the computed range.  The order
    estimate uses ``n log n / log(1/|coef_n|)``: when the per-index decay
    rate ``log|coef_n| / n`` has a clearly negative trend the decay is
    super-exponential and the implied order is reported as 0; otherwise the
    largest ratio over ``n >= 5`` is reported, which flags geometric
    sequences (radius-limited, order at least 1 behavior).
    """
    coefs = np.asarray(series, dtype=complex).ravel()
    mags = np.abs(coefs)
    nz = [(n, m) for n, m in enumerate(mags) if n >= 1 and m > 0]
    if np.all(mags == 0):
        raise ValueError("all-zero coefficient sequence")
    if len(nz) < 10:
        raise ValueError("need at least 10 nonzero coefficients")

    lnq = params.ln_q
    fitted_C = math.exp(max((math.log(m) + 0.5 * n * n * lnq) / n for n, m in nz))

    ns = np.array([n for n, _ in nz], dtype=float)
    rates = np.array([math.log(m) / n for n, m in nz])
    slope = np.polyfit(ns, rates, 1)[0]
    if slope < -0.01:
        rho = 0.0
    else:
        pts = [n * math.log(n) / -math.log(m) for n, m in nz if n >= 5 and m < 1.0]
        rho = max(pts) if pts else math.inf
    return {"fitted_C": fitted_C, "max_order_estimate": rho}
