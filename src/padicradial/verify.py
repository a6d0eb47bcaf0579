"""Acceptance checks: every advertised identity at its pinned tolerance.

Each check takes the field parameters ``(q, alpha)`` of the run, holds its
residual to the entries of ``DEFAULT_TOLERANCES`` (read at call time), and
returns a :class:`CheckResult` with the measured residual so the command line
can print one line per criterion.  Checks that pin a dual route (closed form
against a brute-force oracle) keep the oracle here, written as direct shell
summation independent of the library code paths it validates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .field import (
    FieldParams,
    KRadialFunction,
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
    "laplace_constant": 1e-14,
    "laplace_difference": 1e-12,
    "laplace_roundtrip": 1e-12,
    "laplace_symbol": 1e-10,
    "parseval": 1e-9,
    "runtime_seconds": 30.0,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (
            f"{status}  {self.name}: measured {self.measured:.3e} "
            f"(tolerance {self.tolerance:.1e}, {self.seconds:.2f}s){extra}"
        )


def _relative_gap(u: KRadialFunction, v: KRadialFunction, lo=None, hi=None) -> float:
    scale = max(
        1e-300,
        float(np.max(np.abs(v.values_on(v.n_lo - 1, v.n_hi)))),
    )
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
    w = (1.0 - 1.0 / q) * np.power(q, -ks)  # shell measures at |t| = q^-k
    p = np.power(q, -ks * n)
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
    mu = (1.0 - 1.0 / q) * np.power(q, js.astype(float))
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
    tol = DEFAULT_TOLERANCES["eigenfunction_identity"]
    start = time.perf_counter()
    worst = 0.0
    for q in (2, 3, 5):
        for alpha in (0.5, 1.0, 2.0):
            pa = FieldParams(q, alpha)
            for N in range(1, 9):
                v = make_basis(pa, "v", N, window=(-N - 2, -N + 3))
                image = apply_D_alpha(v)
                lam = float(q) ** (alpha * N)
                worst = max(worst, _relative_gap(image, lam * v))
    elapsed = time.perf_counter() - start
    return CheckResult(
        "eigenfunction identity (step functions, q in {2,3,5}, alpha in {1/2,1,2}, N <= 8)",
        worst <= tol and elapsed < 1.0,
        worst,
        tol,
        f"{elapsed:.3f}s of the 1s budget",
    )


def check_first_eigenvalue_ball(p: FieldParams) -> CheckResult:
    tol = DEFAULT_TOLERANCES["first_eigenvalue_ball"]

    def gap(q: int, alpha: float) -> float:
        v0 = make_basis(FieldParams(q, alpha), "v", 0)
        mu0 = (q - 1.0) * float(q) ** alpha / (float(q) ** (alpha + 1.0) - 1.0)
        return max_shell_difference(apply_D_alpha_O(v0), mu0 * v0, -8, 0)

    worst = max(gap(2, 1.0), gap(p.q, p.alpha))
    mu_pinned = (2 - 1) * 2.0 / (2.0**2 - 1.0)
    detail = f"q=2, alpha=1 eigenvalue {mu_pinned:.15f} = 2/3"
    return CheckResult(
        "first eigenvalue of the derivative on the ball",
        worst <= tol,
        worst,
        tol,
        detail,
    )


def check_right_inverse(p: FieldParams) -> CheckResult:
    tol = DEFAULT_TOLERANCES["right_inverse"]
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        pa = FieldParams(p.q, alpha)
        hi = _wide_right_inverse_window(alpha, p.q)
        targets = [make_basis(pa, "e", N) for N in range(1, 11)]
        targets += [make_basis(pa, "f", n) for n in range(11)]
        for u in targets:
            w = apply_I_alpha(u, out_hi=hi)
            back = apply_D_alpha(w, (u.n_lo, 0))
            worst = max(worst, max_shell_difference(back, u, u.n_lo - 2, 0))
    return CheckResult(
        "right inverse: derivative of the integral image recovers e_1..e_10, f_0..f_10",
        worst <= tol,
        worst,
        tol,
        f"alpha in {{1/2, 1, 2}}, q={p.q}",
    )


def check_i1_matrix(p: FieldParams) -> CheckResult:
    tol_pat = DEFAULT_TOLERANCES["i1_matrix_pattern"]
    tol_eig = DEFAULT_TOLERANCES["i1_matrix_eigenvalues"]
    q = float(p.q)
    dim = 30
    mat = operator_matrix(p, "I1", "e", dim).entries
    expected = np.zeros((dim, dim), dtype=complex)
    for N in range(1, dim):
        expected[0, N] = -math.sqrt(1.0 - 1.0 / q) * q ** (-N / 2.0)
        expected[N, N] = q ** (-N)
    pattern_gap = float(np.abs(mat - expected).max())
    ev = np.linalg.eigvals(mat)
    eig_gap = max(
        min(abs(z - q ** float(-m)) for z in ev) for m in range(1, 26)
    )
    passed = pattern_gap <= tol_pat and eig_gap <= tol_eig
    return CheckResult(
        "matrix of the order-one integral: first-row/diagonal pattern and eigenvalues q^-m",
        passed,
        max(pattern_gap, eig_gap),
        max(tol_pat, tol_eig),
        f"pattern {pattern_gap:.2e} <= {tol_pat:.0e}, eigenvalues {eig_gap:.2e} <= {tol_eig:.0e}",
    )


def check_volterra_structure(p: FieldParams) -> CheckResult:
    tol_tri = DEFAULT_TOLERANCES["volterra_triangularity"]
    tol_eig = DEFAULT_TOLERANCES["volterra_eigenvalues"]
    report = volterra_check(p, 40)
    kvec = report["kernel_vector"]
    # kernel must align with the top-shell indicator: coordinates (1, 0, ...)
    align = abs(kvec[0]) / np.linalg.norm(kvec)
    passed = (
        report["max_lower_entry"] <= tol_tri
        and report["max_abs_eigenvalue"] <= tol_eig
        and report["kernel_dim"] == 1
        and align >= 1.0 - 1e-12
    )
    measured = max(report["max_lower_entry"], report["max_abs_eigenvalue"], 1.0 - align)
    return CheckResult(
        "Volterra part: strictly triangular f-matrix, nilpotent truncation, kernel = top shell",
        passed,
        measured,
        max(tol_tri, tol_eig),
        f"kernel_dim={report['kernel_dim']}, alignment 1-{1.0 - align:.2e}",
    )


def check_imaginary_part(p: FieldParams) -> CheckResult:
    q = float(p.q)
    dim = 40
    tol_tr = DEFAULT_TOLERANCES["imaginary_part_trace"]
    tol_cut = DEFAULT_TOLERANCES["imaginary_part_rank_cut"]
    tol_id = DEFAULT_TOLERANCES["imaginary_part_identity"]
    tol_u0 = DEFAULT_TOLERANCES["imaginary_part_u0"]

    jm = operator_matrix(p, "J", "f", dim).entries
    trace = abs(complex(np.trace(jm)))
    svals = np.linalg.svd(jm, compute_uv=False)
    rank2 = int(np.sum(svals > tol_cut)) == 2

    vol = operator_matrix(p, "I01", "f", dim).entries
    ident_gap = float(np.abs((vol - vol.conj().T) / 1j - 2.0 * jm).max())

    sig, eta = imaginary_part(make_basis(p, "u0"))
    sigma_expected = -((q - 1.0) ** 2) / (2j * q * q * p.ln_q)
    u0_gap = max(abs(sig - sigma_expected), abs(eta))

    trace_e = abs(complex(np.trace(operator_matrix(p, "J", "e", dim).entries)))

    passed = (
        max(trace, trace_e) <= tol_tr and rank2 and ident_gap <= tol_id and u0_gap <= tol_u0
    )
    return CheckResult(
        "imaginary part: zero trace, rank 2, skew identity, image of the top shell",
        passed,
        max(trace, trace_e, ident_gap, u0_gap),
        max(tol_tr, tol_id, tol_u0),
        f"singular values above cut: {int(np.sum(svals > tol_cut))}",
    )


def check_moments(p: FieldParams) -> CheckResult:
    tol = DEFAULT_TOLERANCES["moment_oracles"]
    tol_d0 = DEFAULT_TOLERANCES["moment_d0"]
    worst = 0.0
    for n in range(21):
        worst = max(
            worst,
            abs(d_constant(p, n) - _oracle_moment_series(p, "d", n)),
            abs(moment_a(p, n) - _oracle_moment_series(p, "a", n)),
            abs(moment_b(p, n) - _oracle_moment_series(p, "b", n)),
            abs(moment_m0(p, n) - _oracle_moment_series(p, "m0", n)),
        )
    d0_gap = abs(d_constant(FieldParams(2), 0) - math.log(2.0))
    passed = worst <= tol and d0_gap <= tol_d0
    return CheckResult(
        "moment closed forms against 200-term shell sums; d_0 at q=2 equals log 2",
        passed,
        max(worst, d0_gap),
        tol,
        f"d_0 gap {d0_gap:.1e} <= {tol_d0:.0e}",
    )


def check_local_representation(p: FieldParams) -> CheckResult:
    tol = DEFAULT_TOLERANCES["local_representation"]
    tol_block = DEFAULT_TOLERANCES["resolvent_inverse_block"]
    q = float(p.q)
    worst = 0.0
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
                worst = max(worst, max_shell_difference(apply_D_alpha_O(apply_I_alpha(u)), want))
    # R (D1O e_n) = e_n through the apply path, as the e-matrices of both are
    # exact diagonals; the rounding grows like eps * q^(n/2), and the block
    # that keeps it below tolerance scales with 1/log q (35 at q = 2)
    block = max(10, min(35, int(35.0 * math.log(2.0) / math.log(p.q))))
    p1 = replace(p, alpha=1.0)
    images = [apply_resolvent_D1O(apply_D_alpha_O(make_basis(p1, "e", n))) for n in range(block)]
    block_gap = float(np.abs(np.column_stack([expand(v, "e", block) for v in images]) - np.eye(block)).max())
    passed = worst <= tol and block_gap <= tol_block
    return CheckResult(
        "local representation: derivative of the integral = u minus lambda_1 (resolvent at 0)",
        passed,
        max(worst, block_gap),
        max(tol, tol_block),
        f"shells {worst:.2e} <= {tol:.0e} (alpha in {{1/2, 1, 2}}), "
        f"identity block gap {block_gap:.2e} <= {tol_block:.0e}",
    )


def check_characteristic_function(p: FieldParams) -> CheckResult:
    tol = DEFAULT_TOLERANCES["charfn_oracle"]
    tol_rho = DEFAULT_TOLERANCES["charfn_order"]
    series = characteristic_function(p, 25)
    oracle = _grid_neumann_coeffs(p, 9)
    oracle_gap = float(np.abs(series.g[:, :, :9] - oracle).max())

    w0_exact = bool(np.array_equal(series.evaluate(0.0), np.eye(2, dtype=complex)))
    series2 = characteristic_function(FieldParams(2), 25)
    coeffs = series2.w_coefficients()
    certs = [order_certificate(FieldParams(2), coeffs[a, b]) for a in range(2) for b in range(2)]
    max_c = max(c["fitted_C"] for c in certs)
    max_rho = max(c["max_order_estimate"] for c in certs)
    passed = (
        oracle_gap <= tol
        and w0_exact
        and math.isfinite(max_c)
        and max_rho <= tol_rho
    )
    return CheckResult(
        "characteristic function: closed form = grid oracle, Gaussian envelope, zero order",
        passed,
        max(oracle_gap, max_rho),
        max(tol, tol_rho),
        f"W(0)=E exact: {w0_exact}, fitted C <= {max_c:.3f}, order estimate {max_rho:.3f}",
    )


def check_laplace(p: FieldParams) -> CheckResult:
    q = float(p.q)
    tol_const = DEFAULT_TOLERANCES["laplace_constant"]
    tol_diff = DEFAULT_TOLERANCES["laplace_difference"]
    tol_round = DEFAULT_TOLERANCES["laplace_roundtrip"]
    tol_sym = DEFAULT_TOLERANCES["laplace_symbol"]

    # residual relative to the shell mass entering the cancellation at
    # each n (the sums reach |c| q^(1-n); for q = 2 they cancel exactly)
    const = KRadialFunction(p, 0, 14, np.full(15, 2.5), 2.5)
    tilde_c = laplace_transform(const, (-10, 12))
    const_gap = max(
        abs(tilde_c.value_at(n)) / (2.5 * q ** max(1 - n, 1)) for n in range(-10, 13)
    )

    rng = np.random.default_rng(20260809)
    diff_gap = 0.0
    for _ in range(100):
        phi = _random_supported(p, rng)
        diff_gap = max(diff_gap, difference_identity_residual(phi, (-12, 12)))

    round_gap = 0.0
    m_max = 12
    for _ in range(5):
        phi = _random_supported(p, rng, lo=-10)
        tilde = laplace_transform(phi, (1 - m_max, m_max + 1))
        down, up = laplace_invert(tilde, phi.value_at(0), m_max)
        for m in range(1, m_max + 1):
            round_gap = max(round_gap, abs(down[m - 1] - phi.value_at(-m)))
            round_gap = max(round_gap, abs(up[m - 1] - phi.value_at(m)))

    # cutting a step function's tail to zero puts a jump at the window
    # floor; the derivative answers with a q^(alpha * depth) constant below
    # it, so the deep cut is only used at alpha = 1 and the alpha sweep
    # runs on shallow random supports
    sym_gap = 0.0
    phi = make_basis(FieldParams(p.q), "v", 2, window=(-12, 3))
    phi = KRadialFunction(phi.params, -12, 3, phi.values_on(-12, 3), 0j)
    sym_gap = max(sym_gap, symbol_identity_residual(phi, 1.0, (-6, 10)))
    for alpha in (0.5, 1.0, 2.0):
        psi = _random_supported(FieldParams(p.q, alpha), rng, lo=-5)
        sym_gap = max(sym_gap, symbol_identity_residual(psi, alpha, (-6, 10)))

    mono = make_basis(p, "monomial", 1, window=(-12, 0))  # strictly increasing in |x|
    tilde = laplace_transform(mono, (-8, 10))
    dphi = np.array([mono.value_at(-n) - mono.value_at(-n + 1) for n in range(-8, 10)])
    dtil = np.array([tilde.value_at(n) - tilde.value_at(n + 1) for n in range(-8, 10)])
    signs_ok = bool(np.array_equal(np.sign(dphi.real), np.sign(dtil.real)))

    passed = (
        const_gap <= tol_const
        and diff_gap <= tol_diff
        and round_gap <= tol_round
        and sym_gap <= tol_sym
        and signs_ok
    )
    return CheckResult(
        "transform suite: constants to zero, difference identity, inversion, symbol, monotonicity",
        passed,
        max(const_gap, diff_gap, round_gap, sym_gap),
        max(tol_const, tol_diff, tol_round, tol_sym),
        f"sign patterns equal: {signs_ok}",
    )


def check_basis_completeness(p: FieldParams) -> CheckResult:
    tol = DEFAULT_TOLERANCES["parseval"]
    f7 = make_basis(p, "f", 7)
    coeffs = [inner_product(f7, make_basis(p, "e", N)) for N in range(61)]
    parseval_gap = abs(sum(abs(c) ** 2 for c in coeffs) - norm(f7) ** 2)

    residuals = [poly_projection_residual(make_basis(p, "f", 0), L) for L in range(1, 11)]
    strictly_decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    passed = parseval_gap <= tol and strictly_decreasing
    return CheckResult(
        "basis completeness: Parseval for f_7 in 61 e-coefficients; projection residuals decrease",
        passed,
        parseval_gap,
        tol,
        f"residuals L=1..10 strictly decreasing: {strictly_decreasing} "
        f"(first {residuals[0]:.3e}, last {residuals[-1]:.3e})",
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
    results.append(
        CheckResult(
            "whole suite runtime",
            total <= budget,
            total,
            budget,
            seconds=total,
        )
    )
    return results


def run_verification(p: FieldParams) -> tuple[bool, list]:
    results = build_checks(p)
    return all(r.passed for r in results), results
