"""Eigenpairs, Volterra diagnostics, the imaginary part, the characteristic function."""

import math

import numpy as np
import pytest

from padicradial.field import FieldParams, make_basis, norm
from padicradial.operators import operator_matrix
from padicradial.spectral import (
    LogPolynomial,
    characteristic_function,
    i1_eigenpairs,
    imaginary_part,
    j_diagnostics,
    j_matrix,
    order_certificate,
    volterra_check,
    volterra_step,
)

P2 = FieldParams(2, 1.0)


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


def test_volterra_two_by_two_nilpotent():
    mat = operator_matrix(P2, "I01", "f", 2).entries
    assert mat[1, 0] == 0 and mat[0, 0] == 0 and mat[1, 1] == 0
    assert np.abs(mat @ mat).max() == 0.0


def test_imaginary_part_of_top_shell():
    # J u0 = -(q-1)^2 / (2 i q^2 log q) * log|x|
    for q in (2, 3):
        p = FieldParams(q)
        ju0 = imaginary_part(make_basis(p, "u0"))
        ((n, sig, eta),) = ju0.terms
        want = -((q - 1.0) ** 2) / (2j * q * q * math.log(q))
        assert n == 0
        assert sig == pytest.approx(want, abs=1e-14)
        assert abs(eta) < 1e-16
        assert abs(sig) > 0  # simplicity witness: J does not kill the kernel vector


def test_j_matrix_trace_and_rank():
    diag = j_diagnostics(P2, 30)
    assert abs(diag["trace"]) < 1e-14
    assert int(np.sum(diag["singular_values"] > 1e-12)) == 2


def test_skew_identity_in_f_basis():
    dim = 30
    A = operator_matrix(P2, "I01", "f", dim).entries
    J = j_matrix(P2, dim, "f").entries
    assert np.abs((A - A.conj().T) / 1j - 2.0 * J).max() < 1e-12


def test_log_polynomial_evaluation_matches_sampling():
    p = LogPolynomial(P2, ((0, 1.0 + 2.0j, -0.5), (2, 0.25, 1.0j)))
    sampled = p.to_radial(-12)
    for j in range(-12, 1):
        q, lnq = 2.0, math.log(2.0)
        want = (1.0 + 2.0j) * j * lnq - 0.5 + (0.25 * j * lnq + 1.0j) * q ** (2.0 * j)
        assert sampled.value_at(j) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        LogPolynomial(P2, ((0, 1.0, 0.0), (0, 2.0, 0.0)))


def grid_I01(params, u, js, mu):
    diff = js[:, None] - js[None, :]
    w = np.where(diff > 0, params.c_volterra * diff * params.ln_q, 0.0) * mu[None, :]
    return w @ u


def test_volterra_step_rules():
    # constant -> c d_0 |x| = -|x|/q ; log -> -c a_0 |x| log|x| - c b_0 |x|
    one = LogPolynomial(P2, ((0, 0.0, 1.0),))
    ((n, sig, eta),) = volterra_step(one).terms
    assert (n, sig) == (1, 0.0)
    assert eta == pytest.approx(-0.5, abs=1e-15)

    logp = LogPolynomial(P2, ((0, 1.0, 0.0),))
    ((n, sig, eta),) = volterra_step(logp).terms
    c = P2.c_volterra
    b0_series = sum((k * math.log(2.0)) ** 2 * 0.5 * 2.0**-k for k in range(1, 200))
    assert n == 1
    assert sig == pytest.approx(-c * (-math.log(2.0)), abs=1e-14)  # -c a_0, a_0 = -d_0
    assert eta == pytest.approx(-c * b0_series, abs=1e-12)  # -c b_0

    assert volterra_step(LogPolynomial(P2, ())).terms == ()


def test_volterra_step_against_grid():
    # one exact step vs direct kernel application on a deep grid
    depth = 200
    js = np.arange(-depth, 1)
    mu = 0.5 * np.power(2.0, js.astype(float))
    p = LogPolynomial(P2, ((0, 1.5, -0.5j), (1, 0.0, 2.0)))
    stepped = volterra_step(p)
    ugrid = np.array([p.value_at(j) for j in js])
    ggrid = grid_I01(P2, ugrid, js, mu)
    for i, j in enumerate(js):
        if j >= -40:
            assert ggrid[i] == pytest.approx(stepped.value_at(j), abs=1e-12)


def test_log_polynomial_coefficient_decay():
    # iterates of log decay like C^n q^(-n(n-1)/2)
    p = LogPolynomial(P2, ((0, -1.0, 0.0),))
    lnq = math.log(2.0)
    worst_c = 0.0
    for n in range(1, 26):
        p = volterra_step(p)
        ((e, sig, eta),) = p.terms
        mag = max(abs(sig), abs(eta))
        worst_c = max(worst_c, (mag * 2.0 ** (n * (n - 1) / 2.0)) ** (1.0 / n))
    assert math.isfinite(worst_c) and worst_c < 4.0


def test_characteristic_function_at_zero_is_identity():
    series = characteristic_function(P2, 25)
    assert np.array_equal(series.evaluate(0.0), np.eye(2, dtype=complex))
    w = series.w_coefficients()
    assert np.array_equal(w[:, :, 0], np.eye(2))


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


def test_characteristic_function_underflow_is_flagged():
    assert not characteristic_function(P2, 25).underflowed
    # coefficients sink below the double floor near n = 47
    assert characteristic_function(P2, 80).underflowed
