"""Acceptance checks: every advertised identity at its pinned tolerance.

Each check takes the field parameters ``(q, alpha)`` of the run and returns
its clauses, one per identity: ``(label, residual, tolerance)``, with the
tolerance read from ``DEFAULT_TOLERANCES`` at call time.  A yes/no clause
(a rank, an exact value, a sign pattern, a time budget) has residual 0 or
inf against tolerance 0.  A :class:`CheckResult` derives everything else
from the clauses: the check passes iff every clause does, and its printed
line shows the tightest clause, the one using the largest share of its own
tolerance, with every clause listed in brackets.  Checks that pin a dual
route (closed form against a brute-force oracle) keep the oracle here,
written as direct shell summation independent of the library code paths
it validates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .field import (
    FieldParams,
    KRadialFunction,
    _abs,
    _half_powers,
    _pow,
    expand,
    inner_product,
    make_basis,
    max_shell_difference,
    norm,
    poly_projection_residual,
)
from .laplace import (
    difference_identity_residual,
    laplace_invert,
    laplace_transform,
    symbol_identity_residual,
)
from .operators import (
    apply_D_alpha,
    apply_D_alpha_O,
    apply_I_alpha,
    apply_resolvent_D1O,
    d_constant,
    moment_a,
    moment_b,
    moment_m0,
    operator_matrix,
)
from .spectral import (
    characteristic_function,
    imaginary_part,
    order_certificate,
    volterra_check,
)

__all__ = ["CheckResult", "DEFAULT_TOLERANCES", "build_checks", "run_verification"]

DEFAULT_TOLERANCES = {
    "eigenfunction_identity": 1e-11,
    "first_eigenvalue_ball": 1e-12,
    "right_inverse": 1e-10,
    "i1_matrix_pattern": 1e-12,
    "i1_matrix_eigenvalues": 1e-10,
    "volterra_triangularity": 1e-14,
    "volterra_eigenvalues": 1e-10,
    "imaginary_part_trace": 1e-14,
    "imaginary_part_rank_cut": 1e-12,
    "imaginary_part_identity": 1e-12,
    "imaginary_part_u0": 1e-12,
    "moment_oracles": 1e-12,
    "moment_d0": 1e-14,
    "local_representation": 1e-10,
    "resolvent_inverse_block": 1e-8,
    "charfn_oracle": 1e-10,
    "charfn_order": 0.1,
    "charfn_j_unitary": 1e-12,
    "laplace_constant": 1e-14,
    "laplace_difference": 1e-12,
    "laplace_roundtrip": 1e-12,
    "laplace_symbol": 1e-10,
    "parseval": 1e-9,
    "runtime_seconds": 30.0,
}


def _flag(label: str, ok: bool) -> tuple:
    return label, 0.0 if ok else math.inf, 0.0


def _load(clause: tuple) -> float:
    """The share of its tolerance a clause uses: above 1 iff it fails."""
    _, res, tol = clause
    if res <= tol:
        return res / tol if tol > 0 else 0.0
    return res / tol if tol > 0 and res < math.inf else math.inf


def _describe(clause: tuple) -> str:
    label, res, tol = clause
    if tol == 0 and res in (0.0, math.inf):
        return f"{label}: {res <= tol}"
    return f"{label}: {res:.2e} {'<=' if res <= tol else '>'} {tol:g}"


@dataclass(frozen=True)
class CheckResult:
    """A check's clauses ``(label, residual, tolerance)`` and the verdict they give."""

    name: str
    clauses: tuple
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(res <= tol for _, res, tol in self.clauses)

    @property
    def measured(self) -> float:
        return max(self.clauses, key=_load)[1]

    @property
    def tolerance(self) -> float:
        return max(self.clauses, key=_load)[2]

    @property
    def detail(self) -> str:
        return ", ".join(map(_describe, self.clauses))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: measured {self.measured:.3e} "
            f"(tolerance {self.tolerance:.1e}, {self.seconds:.2f}s)  [{self.detail}]"
        )


def _relative_gap(u: KRadialFunction, v: KRadialFunction, lo=None, hi=None) -> float:
    scale = float(np.max(_abs(v.values_on(v.n_lo - 1, v.n_hi)), initial=1e-300))
    return max_shell_difference(u, v, lo, hi) / scale


def _wide_right_inverse_window(alpha: float, q: int) -> int:
    # the image of the integral can approach a constant at infinity; the
    # derivative's upward sum then truncates like q^(-alpha * hi)
    return max(60, int(36.0 / (alpha * math.log(q))) + 8)


# ---------------------------------------------------------------------------
# brute-force oracles (direct summation, independent of the library paths)

def _oracle_moment_series(params: FieldParams, kind: str, n: int, terms: int = 200) -> float:
    q = float(params.q)
    lnq = params.ln_q
    ks = np.arange(1, terms + 1, dtype=float)
    w = (1.0 - 1.0 / q) * _pow(q, -ks)  # shell measures at |t| = q^-k
    p = _pow(q, -ks * n)
    if kind == "d":
        return float(np.sum(ks * lnq * p * w))
    if kind == "a":
        return float(np.sum(-ks * lnq * p * w))
    if kind == "b":
        return float(np.sum((ks * lnq) ** 2 * p * w))
    if kind == "m0":
        return float(np.sum(p * w)) + (1.0 - 1.0 / q)  # top shell has |t|^n = 1
    raise AssertionError(kind)


def _grid_neumann_coeffs(params: FieldParams, count: int) -> np.ndarray:
    """Pairings of iterated grid applications of the Volterra operator.

    Direct summation on the shells ``q^-80 .. 1``; no closed forms.
    """
    q = float(params.q)
    lnq = params.ln_q
    c = params.c_volterra
    js = np.arange(-80, 1)
    mu = (1.0 - 1.0 / q) * _pow(q, js.astype(float))
    kap1 = (q - 1.0) / (1j * q * lnq)
    h1 = np.full(js.shape, kap1, dtype=complex)
    h2 = -(js * lnq).astype(complex)

    diff = js[:, None] - js[None, :]
    weight = np.where(diff > 0, c * diff * lnq, 0.0) * mu[None, :]

    def pair(u, v):
        return np.sum(u * np.conj(v) * mu)

    out = np.zeros((2, 2, count), dtype=complex)
    u, v = h1.copy(), h2.copy()
    for n in range(count):
        out[0, 0, n] = pair(u, h1)
        out[0, 1, n] = pair(u, h2)
        out[1, 0, n] = pair(v, h1)
        out[1, 1, n] = pair(v, h2)
        u = weight @ u
        v = weight @ v
    return out


def _random_supported(params: FieldParams, rng, lo: int = -12) -> KRadialFunction:
    vals = rng.standard_normal(1 - lo) + 1j * rng.standard_normal(1 - lo)
    return KRadialFunction(params, lo, 0, vals)


# ---------------------------------------------------------------------------
# the acceptance checks

def check_eigenfunction_identity(p: FieldParams) -> CheckResult:
    start = time.perf_counter()
    gaps = []
    for q in (2, 3, 5):
        for alpha in (0.5, 1.0, 2.0):
            pa = FieldParams(q, alpha)
            for N in range(1, 9):
                v = make_basis(pa, "v", N, window=(-N - 2, -N + 3))
                gaps.append(_relative_gap(apply_D_alpha(v), float(q) ** (alpha * N) * v))
    elapsed = time.perf_counter() - start
    return CheckResult(
        "eigenfunction identity (step functions, q in {2,3,5}, alpha in {1/2,1,2}, N <= 8)",
        (
            ("relative gap", float(np.max(gaps)), DEFAULT_TOLERANCES["eigenfunction_identity"]),
            _flag(f"{elapsed:.3f}s within the 1s budget", elapsed < 1.0),
        ),
    )


def check_first_eigenvalue_ball(p: FieldParams) -> CheckResult:
    def gap(q: int, alpha: float) -> float:
        v0 = make_basis(FieldParams(q, alpha), "v", 0)
        mu0 = (q - 1.0) * float(q) ** alpha / (float(q) ** (alpha + 1.0) - 1.0)
        return max_shell_difference(apply_D_alpha_O(v0), mu0 * v0, -8, 0)

    worst = float(np.max([gap(2, 1.0), gap(p.q, p.alpha)]))  # the eigenvalue is 2/3 at q = 2, alpha = 1
    return CheckResult(
        "first eigenvalue of the derivative on the ball",
        (("shells at q=2, alpha=1 and the run's", worst, DEFAULT_TOLERANCES["first_eigenvalue_ball"]),),
    )


def check_right_inverse(p: FieldParams) -> CheckResult:
    gaps = []
    for alpha in (0.5, 1.0, 2.0):
        pa = FieldParams(p.q, alpha)
        hi = _wide_right_inverse_window(alpha, p.q)
        targets = [make_basis(pa, "e", N) for N in range(1, 11)]
        targets += [make_basis(pa, "f", n) for n in range(11)]
        for u in targets:
            w = apply_I_alpha(u, out_hi=hi)
            gaps.append(max_shell_difference(apply_D_alpha(w, (u.n_lo, 0)), u, u.n_lo - 2, 0))
    return CheckResult(
        "right inverse: derivative of the integral image recovers e_1..e_10, f_0..f_10",
        (("shells, alpha in {1/2, 1, 2}", float(np.max(gaps)), DEFAULT_TOLERANCES["right_inverse"]),),
    )


def check_i1_matrix(p: FieldParams) -> CheckResult:
    q = float(p.q)
    dim = 30
    mat = operator_matrix(p, "I1", "e", dim).entries
    diag = _half_powers(q, -2, -2, dim - 1)  # q^-N, N = 1 .. dim - 1
    expected = np.diag(np.concatenate(([0.0], diag)))
    expected[0, 1:] = -math.sqrt(1.0 - 1.0 / q) * _half_powers(q, -1, -1, dim - 1)
    ev = np.linalg.eigvals(mat)
    eig_gap = float(np.max(np.min(_abs(ev[:, None] - diag[:25]), axis=0)))  # nearest eigenvalue, worst q^-m
    return CheckResult(
        "matrix of the order-one integral: first-row/diagonal pattern and eigenvalues q^-m",
        (
            ("pattern", float(_abs(mat - expected).max()), DEFAULT_TOLERANCES["i1_matrix_pattern"]),
            ("eigenvalues", eig_gap, DEFAULT_TOLERANCES["i1_matrix_eigenvalues"]),
        ),
    )


def check_volterra_structure(p: FieldParams) -> CheckResult:
    report = volterra_check(p, 40)
    kvec = report["kernel_vector"]
    # kernel must align with the top-shell indicator: coordinates (1, 0, ...)
    align = abs(kvec[0]) / np.linalg.norm(kvec)
    return CheckResult(
        "Volterra part: strictly triangular f-matrix, nilpotent truncation, kernel = top shell",
        (
            ("lower entries", report["max_lower_entry"], DEFAULT_TOLERANCES["volterra_triangularity"]),
            ("eigenvalues", report["max_abs_eigenvalue"], DEFAULT_TOLERANCES["volterra_eigenvalues"]),
            _flag(f"kernel dimension {report['kernel_dim']} = 1", report["kernel_dim"] == 1),
            ("kernel alignment 1-|k_0|/|k|", 1.0 - align, 1e-12),
        ),
    )


def check_imaginary_part(p: FieldParams) -> CheckResult:
    q = float(p.q)
    dim = 40
    jm = operator_matrix(p, "J", "f", dim).entries
    trace = abs(complex(np.trace(jm)))
    svals = np.linalg.svd(jm, compute_uv=False)
    rank = int(np.sum(svals > DEFAULT_TOLERANCES["imaginary_part_rank_cut"]))

    vol = operator_matrix(p, "I01", "f", dim).entries
    ident_gap = float(_abs((vol - vol.conj().T) / 1j - 2.0 * jm).max())

    sig, eta = imaginary_part(make_basis(p, "u0"))
    sigma_expected = -((q - 1.0) ** 2) / (2j * q * q * p.ln_q)
    u0_gap = float(np.max([abs(sig - sigma_expected), abs(eta)]))

    trace_e = abs(complex(np.trace(operator_matrix(p, "J", "e", dim).entries)))
    return CheckResult(
        "imaginary part: zero trace, rank 2, skew identity, image of the top shell",
        (
            ("trace (f and e)", float(np.max([trace, trace_e])), DEFAULT_TOLERANCES["imaginary_part_trace"]),
            _flag(f"rank {rank} = 2", rank == 2),
            ("skew identity", ident_gap, DEFAULT_TOLERANCES["imaginary_part_identity"]),
            ("top-shell image", u0_gap, DEFAULT_TOLERANCES["imaginary_part_u0"]),
        ),
    )


def check_moments(p: FieldParams) -> CheckResult:
    closed = {"d": d_constant, "a": moment_a, "b": moment_b, "m0": moment_m0}
    oracle = {kind: [_oracle_moment_series(p, kind, n) for n in range(21)] for kind in closed}
    gaps = [fn(p, np.arange(21)) - oracle[kind] for kind, fn in closed.items()]
    d0_gap = abs(d_constant(FieldParams(2), 0) - math.log(2.0))
    return CheckResult(
        "moment closed forms against 200-term shell sums; d_0 at q=2 equals log 2",
        (
            ("shell sums", float(np.max(np.fabs(gaps))), DEFAULT_TOLERANCES["moment_oracles"]),
            ("d_0 gap", d0_gap, DEFAULT_TOLERANCES["moment_d0"]),
        ),
    )


def check_local_representation(p: FieldParams) -> CheckResult:
    q = float(p.q)
    gaps = []
    # D^alpha_O (I^alpha u) = u - lambda_1 c(u), c(u) the resolvent's value at
    # the origin; D^alpha_O (R u) = u itself is not checked shell by shell: at
    # alpha = 2 the derivative amplifies the rounding of R f_k by q^(alpha k)
    for alpha in (0.5, 1.0, 2.0):
        pa = FieldParams(p.q, alpha)
        lam1 = (1.0 - 1.0 / q) / (1.0 - q ** (-alpha - 1.0))
        for family in ("e", "f"):
            for k in range(11):
                u = make_basis(pa, family, k)
                c = apply_resolvent_D1O(u).inner_tail
                want = u - KRadialFunction(pa, 0, 0, [lam1 * c], lam1 * c)
                gaps.append(max_shell_difference(apply_D_alpha_O(apply_I_alpha(u)), want))
    # R (D1O e_n) = e_n through the apply path, as the e-matrices of both are
    # exact diagonals; the rounding grows like eps * q^(n/2), and the block
    # that keeps it below tolerance scales with 1/log q (35 at q = 2)
    block = max(10, min(35, int(35.0 * math.log(2.0) / math.log(p.q))))
    p1 = replace(p, alpha=1.0)
    images = [apply_resolvent_D1O(apply_D_alpha_O(make_basis(p1, "e", n))) for n in range(block)]
    block_gap = float(_abs(np.column_stack([expand(v, "e", block) for v in images]) - np.eye(block)).max())
    return CheckResult(
        "local representation: derivative of the integral = u minus lambda_1 (resolvent at 0)",
        (
            ("shells, alpha in {1/2, 1, 2}", float(np.max(gaps)), DEFAULT_TOLERANCES["local_representation"]),
            ("identity block gap", block_gap, DEFAULT_TOLERANCES["resolvent_inverse_block"]),
        ),
    )


def check_characteristic_function(p: FieldParams) -> CheckResult:
    series = characteristic_function(p, 25)
    oracle = _grid_neumann_coeffs(p, 9)
    oracle_gap = float(_abs(series.g[:, :, :9] - oracle).max())

    w0_exact = bool(np.array_equal(series.evaluate(0.0), np.eye(2, dtype=complex)))
    # the colligation's sign: W* S W = S and det W = 1 on the real axis, and W* S W - S
    # definite with the sign of Im z off it (W = E + i z S G misses both)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    real, off = (-2.0, -0.5, 1.0, 3.0), (0.5 + 0.5j, -2.0 + 1.0j, 0.3 - 0.7j, -1.0 - 1.0j)
    w = {z: series.evaluate(z) for z in real + off}
    form = {z: w[z].conj().T @ swap @ w[z] - swap for z in w}
    signed = all(np.all(np.sign(np.linalg.eigvalsh(form[z])) == np.sign(z.imag)) for z in off)
    unitary_gap = float(np.max([[_abs(form[z]).max(), abs(np.linalg.det(w[z]) - 1.0)] for z in real]))
    series2 = characteristic_function(FieldParams(2), 25)
    coeffs = series2.w_coefficients()
    certs = [order_certificate(FieldParams(2), coeffs[a, b]) for a in range(2) for b in range(2)]
    max_c = float(np.max([c["fitted_C"] for c in certs]))
    max_rho = float(np.max([c["max_order_estimate"] for c in certs]))
    return CheckResult(
        "characteristic function: closed form = grid oracle, Gaussian envelope, zero order, J-unitary",
        (
            ("grid oracle", oracle_gap, DEFAULT_TOLERANCES["charfn_oracle"]),
            _flag("W(0)=E exact", w0_exact),
            _flag(f"fitted C {max_c:.3f} finite", math.isfinite(max_c)),
            ("order estimate", max_rho, DEFAULT_TOLERANCES["charfn_order"]),
            ("J-unitary gap", unitary_gap, DEFAULT_TOLERANCES["charfn_j_unitary"]),
            _flag("W* S W - S signed as Im z", signed),
        ),
    )


def check_laplace(p: FieldParams) -> CheckResult:
    q = float(p.q)

    # residual relative to the shell mass entering the cancellation at
    # each n (the sums reach |c| q^(1-n); for q = 2 they cancel exactly)
    const = KRadialFunction(p, 0, 14, np.full(15, 2.5), 2.5)
    mass = 2.5 * _half_powers(q, 2, 2, 11)[np.maximum(-np.arange(-10, 13), 0)]  # 2.5 q^max(1 - n, 1)
    const_gap = float(np.max(_abs(laplace_transform(const, (-10, 12)).values) / mass))

    rng = np.random.default_rng(20260809)
    diff_gaps = [difference_identity_residual(_random_supported(p, rng), (-12, 12)) for _ in range(100)]

    round_gaps = []
    m_max = 12
    for _ in range(5):
        phi = _random_supported(p, rng, lo=-10)
        tilde = laplace_transform(phi, (1 - m_max, m_max + 1))
        down, up = laplace_invert(tilde, phi.value_at(0), m_max)
        round_gaps += [_abs(down - phi.values_on(-m_max, -1)[::-1]), _abs(up - phi.values_on(1, m_max))]

    # cutting a step function's tail to zero puts a jump at the window
    # floor; the derivative answers with a q^(alpha * depth) constant below
    # it, so the deep cut is only used at alpha = 1 and the alpha sweep
    # runs on shallow random supports
    phi = make_basis(FieldParams(p.q), "v", 2, window=(-12, 3))
    phi = KRadialFunction(phi.params, -12, 3, phi.values_on(-12, 3), 0j)
    sym_gaps = [symbol_identity_residual(phi, 1.0, (-6, 10))]
    for alpha in (0.5, 1.0, 2.0):
        psi = _random_supported(FieldParams(p.q, alpha), rng, lo=-5)
        sym_gaps.append(symbol_identity_residual(psi, alpha, (-6, 10)))

    mono = make_basis(p, "monomial", 1, window=(-12, 0))  # strictly increasing in |x|
    T = laplace_transform(mono, (-8, 10)).values
    w = mono.values_on(-9, 9)[::-1]  # mono(q^(1-n)) for n = -8 .. 10
    dphi, dtil = w[1:] - w[:-1], T[:-1] - T[1:]
    return CheckResult(
        "transform suite: constants to zero, difference identity, inversion, symbol, monotonicity",
        (
            ("constants", const_gap, DEFAULT_TOLERANCES["laplace_constant"]),
            ("difference identity", float(np.max(diff_gaps)), DEFAULT_TOLERANCES["laplace_difference"]),
            ("inversion", float(np.max(round_gaps)), DEFAULT_TOLERANCES["laplace_roundtrip"]),
            ("symbol", float(np.max(sym_gaps)), DEFAULT_TOLERANCES["laplace_symbol"]),
            _flag("sign patterns equal", bool(np.array_equal(np.sign(dphi.real), np.sign(dtil.real)))),
        ),
    )


def check_basis_completeness(p: FieldParams) -> CheckResult:
    f7 = make_basis(p, "f", 7)
    coeffs = [inner_product(f7, make_basis(p, "e", N)) for N in range(61)]
    parseval_gap = abs(sum(abs(c) ** 2 for c in coeffs) - norm(f7) ** 2)

    residuals = [poly_projection_residual(make_basis(p, "f", 0), L) for L in range(1, 11)]
    return CheckResult(
        "basis completeness: Parseval for f_7 in 61 e-coefficients; projection residuals decrease",
        (
            ("Parseval", parseval_gap, DEFAULT_TOLERANCES["parseval"]),
            _flag(
                f"residuals L=1..10 strictly decreasing (first {residuals[0]:.3e}, last {residuals[-1]:.3e})",
                all(b < a for a, b in zip(residuals, residuals[1:])),
            ),
        ),
    )


CHECKS = (
    check_eigenfunction_identity,
    check_first_eigenvalue_ball,
    check_right_inverse,
    check_i1_matrix,
    check_volterra_structure,
    check_imaginary_part,
    check_moments,
    check_local_representation,
    check_characteristic_function,
    check_laplace,
    check_basis_completeness,
)


def build_checks(p: FieldParams) -> list:
    """Run every check at ``p``, timing each; the runtime budget is appended last.

    A check whose operator values leave the double range raises
    ``ValueError`` naming the check and ``(q, alpha)``.
    """
    results = []
    start = time.perf_counter()
    for fn in CHECKS:
        t0 = time.perf_counter()
        try:
            res = fn(p)
        except (OverflowError, ValueError) as exc:
            name = fn.__name__.removeprefix("check_")
            raise ValueError(f"check {name!r} at q={p.q}, alpha={p.alpha!r}: {exc}") from exc
        results.append(replace(res, seconds=time.perf_counter() - t0))
    total = time.perf_counter() - start
    budget = DEFAULT_TOLERANCES["runtime_seconds"]
    return results + [CheckResult("whole suite runtime", (("seconds", total, budget),), total)]


def run_verification(p: FieldParams) -> tuple[bool, list]:
    results = build_checks(p)
    return all(r.passed for r in results), results
