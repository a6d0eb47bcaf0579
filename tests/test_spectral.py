"""Eigenpairs, Volterra diagnostics, the imaginary part, the characteristic function."""

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

import padicradial.operators
from padicradial import spectral
from padicradial.field import FieldParams, inner_product, make_basis, norm
from padicradial.operators import d_constant, moment_a, moment_b, moment_m0, operator_matrix
from padicradial.spectral import (
    characteristic_function,
    i1_eigenpairs,
    imaginary_part,
    j_diagnostics,
    order_certificate,
    volterra_check,
)

P2 = FieldParams(2, 1.0)
EPS = float(np.finfo(float).eps)


def test_i1_eigenvalues_contain_geometric_sequence():
    spec = i1_eigenpairs(P2, 20)
    for m in range(1, 20):
        assert min(abs(z - 2.0 ** (-m)) for z in spec.eigenvalues) < 1e-10
    assert min(abs(z) for z in spec.eigenvalues) < 1e-12  # the kernel eigenvalue


def test_i1_leading_eigenvector_direction():
    spec = i1_eigenpairs(P2, 20)
    # eigenvalue 1/2: coordinates proportional to (1, -(1-1/q)^(-1/2) q^(-1/2), 0, ...)
    k = int(np.argmin(np.abs(spec.eigenvalues - 0.5)))
    vec = spec.eigenvectors[:, k]
    want = np.zeros(20, dtype=complex)
    want[0], want[1] = 1.0, -math.sqrt(2.0) * 2.0 ** (-0.5)
    want /= np.linalg.norm(want)
    overlap = abs(np.vdot(want, vec))
    assert overlap == pytest.approx(1.0, abs=1e-11)


def i1_analytic_eigenvector(q, dim, m):
    """Closed-form eigenvector of I1 for ``q^-m``: ``e_0 - (1 - 1/q)^(-1/2) q^(-m/2) e_m``, normalized."""
    coords = np.zeros(dim, dtype=complex)
    coords[0] = 1.0
    coords[m] = -((1.0 - 1.0 / q) ** -0.5) * float(q) ** (-m / 2.0)
    return coords / np.linalg.norm(coords)


@pytest.mark.parametrize("q", [2, 3])
def test_i1_eigenvectors_match_closed_form(q):
    spec = i1_eigenpairs(FieldParams(q), 20)
    for m in range(1, 20):
        k = int(np.argmin(np.abs(spec.eigenvalues - float(q) ** -m)))
        coords = i1_analytic_eigenvector(q, 20, m)
        assert abs(np.vdot(coords, spec.eigenvectors[:, k])) == pytest.approx(1.0, abs=1e-11)


I1_DIMS = (2, 3, 40, 160)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("dim", I1_DIMS)
def test_i1_eigenpairs_hold_against_the_matrix(q, dim):
    # the closed-form pairs against the column-loop e-matrix, an independent oracle
    spec = i1_eigenpairs(FieldParams(q), dim)
    M, V, ev = operator_matrix(FieldParams(q), "I1", "e", dim).entries, spec.eigenvectors, spec.eigenvalues
    assert np.abs(M @ V - V * ev).max() <= 4 * EPS * np.abs(M).max()
    assert np.abs(np.linalg.norm(V, axis=0) - 1.0).max() <= 2 * EPS
    with mpmath.workdps(40):
        exact = [mpmath.power(q, -N) for N in range(1, dim)]
    assert all(abs(mpmath.mpf(z.real) - x) <= math.ulp(float(x)) for z, x in zip(ev, exact))
    assert ev[-1] == 0 and not ev.imag.any()


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("dim", I1_DIMS)
def test_i1_eigenvectors_match_the_dense_solver(q, dim):
    # the dense eig of the matrix, kept here as an oracle, for the pairs q^-N, N <= 20
    spec = i1_eigenpairs(FieldParams(q), dim)
    dense, vecs = np.linalg.eig(operator_matrix(FieldParams(q), "I1", "e", dim).entries)
    for N in range(1, min(dim, 21)):
        k = int(np.argmin(np.abs(dense - float(q) ** -N)))
        assert abs(np.vdot(vecs[:, k], spec.eigenvectors[:, N - 1])) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("q", [2, 3, 7])
def test_i1_eigenpairs_at_another_order_are_the_order_one_pairs(q):
    p1 = FieldParams(q)
    for dim in (2, 40, 1500):
        want, got = i1_eigenpairs(p1, dim), i1_eigenpairs(FieldParams(q, 0.5), dim)
        assert got.params == p1 and got.params.alpha == 1.0 and want.params is p1
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()


def test_i1_eigenpairs_form_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("operator_matrix called")

    monkeypatch.setattr(spectral, "operator_matrix", refuse)
    spec = i1_eigenpairs(FieldParams(3, 0.5), 5)
    assert spec.params.alpha == 1.0 and spec.dim == 5
    with pytest.raises(ValueError, match="dim must be >= 2"):
        i1_eigenpairs(P2, 1)


def test_i1_two_by_two_truncation():
    mat = operator_matrix(P2, "I1", "e", 2).entries
    want = np.array([[0.0, -0.5], [0.0, 0.5]])
    assert np.abs(mat - want).max() < 1e-14
    # characteristic polynomial of [[a, b], [0, d]]: roots {a, d} = {0, 1/2}
    ev = sorted(np.linalg.eigvals(mat).real)
    assert ev[0] == pytest.approx(0.0, abs=1e-15)
    assert ev[1] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("q", [2, 3])
def test_volterra_report(q):
    rep = volterra_check(FieldParams(q), 40)
    assert rep["strict_triangularity"]
    assert rep["max_lower_entry"] <= 1e-14
    assert rep["max_abs_eigenvalue"] <= 1e-10
    assert rep["kernel_dim"] == 1
    kv = rep["kernel_vector"]
    assert abs(kv[0]) == pytest.approx(1.0, abs=1e-12)
    # the kernel is the top-shell indicator: u0 = (1 - 1/q)^(1/2) f_0
    u0 = make_basis(FieldParams(q), "u0")
    f0 = make_basis(FieldParams(q), "f", 0)
    assert norm(u0 - math.sqrt(1.0 - 1.0 / q) * f0) < 1e-14


def test_volterra_truncations_stay_nilpotent_up_to_60():
    for dim in (20, 40, 60):
        rep = volterra_check(P2, dim)
        assert rep["max_abs_eigenvalue"] <= 1e-10


@pytest.mark.parametrize("q, dim", [(2, 20), (2, 160), (3, 40), (3, 160)])
def test_volterra_eigenvalues_match_the_dense_solver(q, dim):
    # the diagonal read off the triangular matrix against a dense eigvals
    rep = volterra_check(FieldParams(q), dim)
    dense = np.linalg.eigvals(operator_matrix(FieldParams(q), "I01", "f", dim).entries)
    assert rep["max_abs_eigenvalue"] == pytest.approx(float(np.abs(dense).max()), abs=1e-12)
    assert "singular_values" not in rep


def test_volterra_kernel_past_the_underflowed_rows():
    # from row 1021 at q = 2 every entry of the f-matrix is below 2^-1022;
    # dividing by those pivots gave a nan kernel and counted them as free
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = volterra_check(P2, 1280)
    assert rep["kernel_dim"] == 1
    kv = rep["kernel_vector"]
    assert np.all(np.isfinite(kv))
    assert abs(kv[0]) == 1.0
    assert rep["max_abs_eigenvalue"] == 0.0


def oracle_volterra_check(A):
    """The triangular back-substitution ``volterra_check`` ran on the matrix ``A``
    before it read the kernel off the superdiagonal."""
    dim = len(A)
    max_lower = float(np.abs(A[np.tril_indices(dim)]).max())
    triangular = not A[np.tril_indices(dim, -1)].any()
    kernel_vector = np.zeros(dim, dtype=complex)
    kernel_vector[0] = 1.0
    free = 1
    pinned = False
    for j in range(dim - 2, -1, -1):
        pivot = A[j, j + 1]
        rest = A[j, j + 2 :] @ kernel_vector[j + 2 :] if pinned else 0
        if rest == 0:
            free += pivot == 0 and bool((np.abs(A[j]) >= np.finfo(float).tiny).any())
        elif pivot != 0:
            kernel_vector[j + 1] = -rest / pivot
            pinned = True
    kernel_vector /= np.linalg.norm(kernel_vector)
    return {
        "max_abs_eigenvalue": float(np.abs(A.diagonal()).max()) if triangular else math.inf,
        "strict_triangularity": max_lower <= 1e-14,
        "max_lower_entry": max_lower,
        "kernel_dim": free,
        "kernel_vector": kernel_vector,
    }


def assert_same_report(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value), key


@pytest.mark.parametrize("q, dim", [(q, dim) for q in (2, 3, 5) for dim in (2, 3, 40, 160)]
                         + [(2, 1100), (2, 1280)])
def test_volterra_check_equals_the_back_substitution(q, dim):
    p = FieldParams(q)
    want = oracle_volterra_check(operator_matrix(p, "I01", "f", dim).entries)
    assert_same_report(volterra_check(p, dim), want)


def test_volterra_kernel_counts_vanishing_pivots_of_normal_rows(monkeypatch):
    # pivots A[2, 3] (a normal row) and A[5, 6] (a subnormal row) vanish,
    # and row 6 is all 0; one lower entry breaks triangularity
    A = np.triu(np.random.default_rng(3).standard_normal((8, 8)), 1).astype(complex)
    A[2, 3] = 0.0
    A[5] = 0.0
    A[5, 7] = 1e-310
    A[6, 7] = 0.0
    A[4, 1] = 1e-16
    monkeypatch.setattr("padicradial.spectral.operator_matrix", lambda *args: SimpleNamespace(entries=A))
    rep = volterra_check(P2, 8)
    assert_same_report(rep, oracle_volterra_check(A))
    assert rep["kernel_dim"] == 2
    assert rep["max_abs_eigenvalue"] == math.inf
    assert rep["max_lower_entry"] == 1e-16


def test_volterra_two_by_two_nilpotent():
    mat = operator_matrix(P2, "I01", "f", 2).entries
    assert mat[1, 0] == 0 and mat[0, 0] == 0 and mat[1, 1] == 0
    assert np.abs(mat @ mat).max() == 0.0


def test_imaginary_part_of_top_shell():
    # J u0 = -(q-1)^2 / (2 i q^2 log q) * log|x|
    for q in (2, 3):
        p = FieldParams(q)
        sig, eta = imaginary_part(make_basis(p, "u0"))
        want = -((q - 1.0) ** 2) / (2j * q * q * math.log(q))
        assert sig == pytest.approx(want, abs=1e-14)
        assert abs(eta) < 1e-16
        assert abs(sig) > 0  # simplicity witness: J does not kill the kernel vector


def test_j_matrix_trace_and_rank():
    diag = j_diagnostics(P2, 30)
    assert abs(diag["trace"]) < 1e-14
    assert int(np.sum(diag["singular_values"] > 1e-12)) == 2


@pytest.mark.parametrize("q", [2, 3, 5, 11, 101])
@pytest.mark.parametrize("dim", [2, 3, 40, 160])
def test_j_singular_values_are_those_of_the_svd(q, dim):
    # the dense svd as oracle: two equal singular values, the rest rounding
    got = j_diagnostics(FieldParams(q), dim)["singular_values"]
    want = np.linalg.svd(operator_matrix(FieldParams(q), "J", "e", dim).entries, compute_uv=False)
    assert got.shape == (dim,) and np.all(got[2:] == 0.0)
    assert np.abs(got[:2] - want[:2]).max() <= 4 * np.finfo(float).eps * want[0]
    assert np.all(want[2:] <= 1e-15 * want[0])


def test_skew_identity_in_f_basis():
    dim = 30
    A = operator_matrix(P2, "I01", "f", dim).entries
    J = operator_matrix(P2, "J", "f", dim).entries
    assert np.abs((A - A.conj().T) / 1j - 2.0 * J).max() < 1e-12


@dataclass(frozen=True)
class OracleLogPolynomial:
    """Finite sum of ``sigma_n |x|^n log|x| + eta_n |x|^n`` on the unit ball.

    The family is closed under the Volterra operator, so it carries the
    iterates of the characteristic function's channels term by term; it is
    the recursion the closed form in ``characteristic_function`` replaces.
    ``terms`` is a tuple of ``(n, sigma_n, eta_n)`` with distinct ``n >= 0``.
    """

    params: FieldParams
    terms: tuple

    def value_at(self, j: int) -> complex:
        q = float(self.params.q)
        lnq = self.params.ln_q
        return sum((s * j * lnq + e) * q ** (n * float(j)) for n, s, e in self.terms) or 0j

    def pair_with_constant(self) -> complex:
        """Integral against 1 over the unit ball."""
        return sum(
            s * moment_a(self.params, n) + e * moment_m0(self.params, n) for n, s, e in self.terms
        ) or 0j

    def pair_with_log(self) -> complex:
        """Integral against ``log|x|`` over the unit ball."""
        return sum(
            s * moment_b(self.params, n) + e * moment_a(self.params, n) for n, s, e in self.terms
        ) or 0j


def oracle_volterra_step(p):
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
    return OracleLogPolynomial(p.params, tuple(out))


def oracle_characteristic_coefficients(params, T):
    """Neumann coefficients by iterating the step on both channels."""
    q = float(params.q)
    kap1 = (q - 1.0) / (1j * q * params.ln_q)
    chans = [
        OracleLogPolynomial(params, ((0, 0.0, kap1),)),
        OracleLogPolynomial(params, ((0, -1.0, 0.0),)),
    ]
    g = np.zeros((2, 2, T + 1), dtype=complex)
    for a, p in enumerate(chans):
        for n in range(T + 1):
            g[a, 0, n] = np.conj(kap1) * p.pair_with_constant()
            g[a, 1, n] = -p.pair_with_log()
            p = oracle_volterra_step(p)
    return g


def test_log_polynomial_evaluation_matches_sampling():
    p = OracleLogPolynomial(P2, ((0, 1.0 + 2.0j, -0.5), (2, 0.25, 1.0j)))
    for j in range(-12, 1):
        q, lnq = 2.0, math.log(2.0)
        want = (1.0 + 2.0j) * j * lnq - 0.5 + (0.25 * j * lnq + 1.0j) * q ** (2.0 * j)
        assert p.value_at(j) == pytest.approx(want, abs=1e-12)


def grid_I01(params, u, js, mu):
    diff = js[:, None] - js[None, :]
    w = np.where(diff > 0, params.c_volterra * diff * params.ln_q, 0.0) * mu[None, :]
    return w @ u


def test_volterra_step_rules():
    # constant -> c d_0 |x| = -|x|/q ; log -> -c a_0 |x| log|x| - c b_0 |x|
    one = OracleLogPolynomial(P2, ((0, 0.0, 1.0),))
    ((n, sig, eta),) = oracle_volterra_step(one).terms
    assert (n, sig) == (1, 0.0)
    assert eta == pytest.approx(-0.5, abs=1e-15)

    logp = OracleLogPolynomial(P2, ((0, 1.0, 0.0),))
    ((n, sig, eta),) = oracle_volterra_step(logp).terms
    c = P2.c_volterra
    b0_series = sum((k * math.log(2.0)) ** 2 * 0.5 * 2.0**-k for k in range(1, 200))
    assert n == 1
    assert sig == pytest.approx(-c * (-math.log(2.0)), abs=1e-14)  # -c a_0, a_0 = -d_0
    assert eta == pytest.approx(-c * b0_series, abs=1e-12)  # -c b_0

    assert oracle_volterra_step(OracleLogPolynomial(P2, ())).terms == ()


def test_volterra_step_against_grid():
    # one exact step vs direct kernel application on a deep grid
    depth = 200
    js = np.arange(-depth, 1)
    mu = 0.5 * np.power(2.0, js.astype(float))
    p = OracleLogPolynomial(P2, ((0, 1.5, -0.5j), (1, 0.0, 2.0)))
    stepped = oracle_volterra_step(p)
    ugrid = np.array([p.value_at(j) for j in js])
    ggrid = grid_I01(P2, ugrid, js, mu)
    for i, j in enumerate(js):
        if j >= -40:
            assert ggrid[i] == pytest.approx(stepped.value_at(j), abs=1e-12)


def test_log_polynomial_coefficient_decay():
    # iterates of log decay like C^n q^(-n(n-1)/2)
    p = OracleLogPolynomial(P2, ((0, -1.0, 0.0),))
    lnq = math.log(2.0)
    worst_c = 0.0
    for n in range(1, 26):
        p = oracle_volterra_step(p)
        ((e, sig, eta),) = p.terms
        mag = max(abs(sig), abs(eta))
        worst_c = max(worst_c, (mag * 2.0 ** (n * (n - 1) / 2.0)) ** (1.0 / n))
    assert math.isfinite(worst_c) and worst_c < 4.0


def test_characteristic_function_at_zero_is_identity():
    series = characteristic_function(P2, 25)
    assert np.array_equal(series.evaluate(0.0), np.eye(2, dtype=complex))
    w = series.w_coefficients()
    assert np.array_equal(w[:, :, 0], np.eye(2))


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9, 11, 13, 27, 101])
def test_characteristic_function_is_j_unitary_on_the_real_axis(q):
    # the colligation of I01 makes W(x)* S W(x) = S and det W(x) = 1 on the real
    # axis (at most 4.2e-15 and 1.1e-14 measured), and W* S W - S positive definite
    # above it and negative definite below; with the opposite sign, W = E + i z S G,
    # the J-unitarity gap is 27.5 at q = 2.  The Taylor coefficients sum to W.
    series = characteristic_function(FieldParams(q), 60)
    coeffs = series.w_coefficients()
    for x in (-4.0, -1.0, -0.25, 0.5, 2.5, 6.0):
        w = series.evaluate(x)
        assert np.abs(w.conj().T @ SWAP @ w - SWAP).max() <= 1e-13
        assert abs(np.linalg.det(w) - 1.0) <= 1e-13
    for z in (0.5 + 0.5j, -2.0 + 1.0j, 3.0 + 0.1j, 0.3 - 0.7j, -1.0 - 1.0j, 2.0 - 0.2j):
        w = series.evaluate(z)
        assert np.all(np.sign(np.linalg.eigvalsh(w.conj().T @ SWAP @ w - SWAP)) == np.sign(z.imag))
        assert np.abs(np.tensordot(coeffs, z ** np.arange(62), axes=([2], [0])) - w).max() <= 1e-13


@pytest.mark.parametrize("q", [2, 3, 7])
def test_h1_basis_element_has_the_squared_norm_of_g11_at_order_0(q):
    # ``make_basis(.., "h1")`` is the constant kap1 = (q-1)/(i q log q) on the ball,
    # tail included, so <h1, h1> = |kap1|^2, the zeroth coefficient of g11
    p = FieldParams(q)
    h1 = make_basis(p, "h1")
    g11 = characteristic_function(p, 5).g[0, 0, 0]
    assert abs(inner_product(h1, h1) - g11) <= 4 * EPS * abs(g11)
    assert h1.values[0] == h1.inner_tail == (q - 1.0) / (1j * q * math.log(q))


def test_characteristic_function_matches_grid_neumann():
    depth = 80
    js = np.arange(-depth, 1)
    q = 2.0
    mu = (1 - 1 / q) * np.power(q, js.astype(float))
    kap1 = (q - 1.0) / (1j * q * math.log(q))
    h1 = np.full(js.shape, kap1, dtype=complex)
    h2 = -(js * math.log(q)).astype(complex)

    def pair(u, v):
        return np.sum(u * np.conj(v) * mu)

    series = characteristic_function(P2, 10)
    u, v = h1.copy(), h2.copy()
    for n in range(9):
        assert series.g[0, 0, n] == pytest.approx(pair(u, h1), abs=1e-10)
        assert series.g[0, 1, n] == pytest.approx(pair(u, h2), abs=1e-10)
        assert series.g[1, 0, n] == pytest.approx(pair(v, h1), abs=1e-10)
        assert series.g[1, 1, n] == pytest.approx(pair(v, h2), abs=1e-10)
        u = grid_I01(P2, u, js, mu)
        v = grid_I01(P2, v, js, mu)


def test_characteristic_function_entry_envelope():
    series = characteristic_function(P2, 25)
    coeffs = series.w_coefficients()
    for a in range(2):
        for b in range(2):
            cert = order_certificate(P2, coeffs[a, b])
            assert math.isfinite(cert["fitted_C"])
            assert cert["max_order_estimate"] <= 0.1


def test_order_certificate_flags_geometric_decay():
    coefs = 2.0 ** -np.arange(30)
    cert = order_certificate(P2, coefs)
    assert cert["max_order_estimate"] >= 1.0
    assert cert["fitted_C"] > 10.0  # far outside the Gaussian envelope


def test_order_certificate_on_exact_envelope():
    ns = np.arange(30)
    coefs = 2.0 ** (-(ns**2) / 2.0)
    cert = order_certificate(P2, coefs)
    assert cert["fitted_C"] == pytest.approx(1.0, abs=1e-9)
    assert cert["max_order_estimate"] == 0.0


def test_order_certificate_input_validation():
    with pytest.raises(ValueError):
        order_certificate(P2, np.zeros(20))
    with pytest.raises(ValueError):
        order_certificate(P2, np.array([1.0, 0.5, 0.25]))


def test_order_certificate_refuses_non_finite_coefficients():
    # a nan was skipped (fitted_C 1.0, order 0), an inf gave fitted_C = inf,
    # and an all-nan sequence was refused as short of normal coefficients
    envelope = 2.0 ** (-(np.arange(30) ** 2) / 2.0)
    for index, bad in ((5, np.nan), (7, np.inf), (12, complex(0.0, -np.inf)), (1, complex(np.nan, 1.0))):
        coefs = envelope.astype(complex)
        coefs[index] = bad
        coefs[index + 3] = np.nan
        with pytest.raises(ValueError, match=f"coefficient {index} is not finite"):
            order_certificate(P2, coefs)
    with pytest.raises(ValueError, match="coefficient 0 is not finite"):
        order_certificate(P2, np.full(20, np.nan))


def test_order_certificate_ignores_subnormal_coefficients():
    # 5e-324 = 2^-1074 at n = 47 lies 2^30.5 above the envelope 2^(-n^2/2);
    # a subnormal has lost its precision, so it must not set C = 2^(30.5/47)
    ns = np.arange(47)
    coefs = np.append(2.0 ** (-(ns**2) / 2.0), 5e-324)
    assert order_certificate(P2, coefs)["fitted_C"] == pytest.approx(1.0, abs=1e-9)
    # at q = 7 the g21 coefficient at n = 28 is subnormal: its exact magnitude is 2.06e-324
    p7 = FieldParams(7)
    g21 = characteristic_function(p7, 60).w_coefficients()[1, 0]
    assert order_certificate(p7, g21)["fitted_C"] == pytest.approx(1.86419497, abs=1e-8)
    with pytest.raises(ValueError, match="at least 10"):  # 9 normal, 20 subnormal
        order_certificate(P2, np.append(2.0 ** -np.arange(10), np.full(20, 5e-324)))


def reference_order_certificate(params, series):
    """``order_certificate`` as list comprehensions and ``np.polyfit``, the oracle of its array form."""
    coefs = np.asarray(series, dtype=complex).ravel()
    mags = np.abs(coefs)
    bad = np.flatnonzero(~np.isfinite(mags))
    if bad.size:
        raise ValueError(f"coefficient {bad[0]} is not finite: {coefs[bad[0]]}")
    nz = [(n, m) for n, m in enumerate(mags.tolist()) if n >= 1 and m >= np.finfo(float).tiny]
    if np.all(mags == 0):
        raise ValueError("all-zero coefficient sequence")
    if len(nz) < 10:
        raise spectral.ShortSeriesError("need at least 10 normal (not underflowed) coefficients")
    lnq = params.ln_q
    fitted_C = math.exp(max((math.log(m) + 0.5 * n * n * lnq) / n for n, m in nz))
    ns = np.array([n for n, _ in nz], dtype=float)
    rates = np.array([math.log(m) / n for n, m in nz])
    if np.polyfit(ns, rates, 1)[0] < -0.01:
        rho = 0.0
    else:
        pts = [n * math.log(n) / -math.log(m) for n, m in nz if n >= 5 and m < 1.0]
        rho = max(pts) if pts else math.inf
    return {"fitted_C": fitted_C, "max_order_estimate": rho}


def certificate_outcome(certify, params, series):
    """The certificate, or the type and message of the error it raised."""
    try:
        return certify(params, series)
    except ValueError as err:
        return type(err), str(err)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 101])
@pytest.mark.parametrize("T", [25, 60, 200, 800])
def test_order_certificate_equals_the_reference_on_the_characteristic_function(q, T):
    params = FieldParams(q)
    series = characteristic_function(params, T)
    for coeffs in (series.w_coefficients(), series.g):
        for a in range(2):
            for b in range(2):
                got = certificate_outcome(order_certificate, params, coeffs[a, b])
                assert got == certificate_outcome(reference_order_certificate, params, coeffs[a, b]), (a, b)


def test_order_certificate_equals_the_reference_near_its_slope_cut():
    # the closed-form slope of the rates decides the order as polyfit's does where it lies near -0.01
    rng = np.random.default_rng(28)
    branches = set()
    for trial in range(400):
        n = np.arange(int(rng.integers(12, 150)))
        slope = rng.uniform(-0.012, -0.008)
        noise = np.exp(rng.normal(0.0, 1e-3, n.size))
        if trial % 2:  # Gaussian: the rates log|c_n| / n are slope * n
            coefs = np.exp(slope * n * n) * noise
        else:  # geometric r^n times A: the rates log A / n + log r, whose slope is log A times that of 1/n
            k = n[1:].astype(float)
            spread = k - k.mean()
            coefs = np.exp(slope / (spread @ (1.0 / k) / (spread @ spread)) + rng.uniform(-0.5, 0.0) * n) * noise
        coefs = coefs * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n.size))
        got = certificate_outcome(order_certificate, P2, coefs)
        assert got == certificate_outcome(reference_order_certificate, P2, coefs), trial
        branches.add(got["max_order_estimate"] == 0.0)
    assert branches == {True, False}
    refused = (np.zeros(20), np.array([1.0, 0.5, 0.25]), np.append(2.0 ** -np.arange(10), np.full(20, 5e-324)),
               np.array([1.0, np.nan, np.inf]), np.array([]))
    for coefs in refused:
        got = certificate_outcome(order_certificate, P2, coefs)
        assert isinstance(got, tuple) and got == certificate_outcome(reference_order_certificate, P2, coefs)


def test_characteristic_function_underflow_is_flagged():
    assert not characteristic_function(P2, 25).underflowed
    # coefficients sink below the double floor near n = 47
    assert characteristic_function(P2, 80).underflowed
    # zeros from n = 45, 36 and 28, over more than half of each series
    for q, T in ((2, 200), (3, 200), (7, 60)):
        series = characteristic_function(FieldParams(q), T)
        assert np.any(series.g == 0)
        assert series.underflowed


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("T", [60, 200])
def test_characteristic_function_matches_the_recursion(q, T):
    params = FieldParams(q)
    want = oracle_characteristic_coefficients(params, T)
    got = characteristic_function(params, T).g
    full = np.abs(want) >= 2.0**-969  # full precision, well above the subnormals
    assert np.all(np.abs(got - want)[full] <= 1e-14 * np.abs(want)[full])


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 101, 65536])
def test_characteristic_function_equals_the_scalar_moment_construction(q):
    # the closed form built from one scalar moment call per order
    params, qf = FieldParams(q), float(q)
    kap1 = (qf - 1.0) / (1j * qf * params.ln_q)
    for T in (1, 2, 200, 900):
        d = np.array([d_constant(params, n) for n in range(T + 1)])
        b = np.array([moment_b(params, n) for n in range(T + 1)])
        m0 = np.array([moment_m0(params, n) for n in range(T + 1)])
        P = np.cumprod(np.r_[1.0, params.c_volterra * d[:-1]])
        y = qf ** -np.arange(1.0, T + 1.0)
        E = np.cumsum(np.r_[0.0, params.ln_q * (1.0 + y) / (1.0 - y)])
        want = np.array([
            [abs(kap1) ** 2 * P * m0, kap1 * P * d],
            [np.conj(kap1) * P * (d + E * m0), P * (b + E * d)],
        ])
        assert np.array_equal(characteristic_function(params, T).g, want), T


def test_characteristic_function_reads_one_power_slice(monkeypatch):
    # the three moments and E share one run of q^-(n+1) from the memo: no per-moment gather
    calls = {"_y": 0, "_half_powers": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(padicradial.operators, "_y", counted("_y", padicradial.operators._y))
    monkeypatch.setattr(spectral, "_half_powers", counted("_half_powers", spectral._half_powers))
    for q, T in ((2, 200), (3, 1), (101, 900)):
        calls.update(_y=0, _half_powers=0)
        characteristic_function(FieldParams(q), T)
        assert calls == {"_y": 0, "_half_powers": 1}, (q, T)
