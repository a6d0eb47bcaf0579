"""Acceptance gate: every advertised criterion at its pinned tolerance.

Runs the same checks as ``padicradial verify`` and prints one line per
criterion (visible with ``pytest -s`` or on failure).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from padicradial import verify
from padicradial.field import FieldParams, KRadialFunction
from padicradial.laplace import TransformSequence
from padicradial.operators import OperatorMatrix
from padicradial.spectral import MatrixPowerSeries
from padicradial.verify import (
    CHECKS,
    DEFAULT_TOLERANCES,
    build_checks,
    check_characteristic_function,
    run_verification,
)


@pytest.fixture(scope="module")
def default_results():
    return build_checks(FieldParams(2))


@pytest.mark.parametrize("index", range(len(CHECKS) + 1))
def test_criterion(default_results, index):
    res = default_results[index]
    print(res.line())
    assert res.passed, res.line()


def test_generic_parameters_q3():
    ok, results = run_verification(FieldParams(3, 0.5))
    for res in results:
        print(res.line())
    assert ok, [r.name for r in results if not r.passed]


def test_generic_parameters_q5():
    ok, results = run_verification(FieldParams(5, 2.0))
    assert ok, [r.name for r in results if not r.passed]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("alpha", [0.25, 1.0, 3.0])
def test_verification_passes_at_every_prime_power_up_to_8(q, alpha):
    ok, results = run_verification(FieldParams(q, alpha))
    assert ok, [r.line() for r in results if not r.passed]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the alpha = 2 symbol gap is 2.72e-10 at q = 9 and 6.00e-10 at q = 11, "
                          "over its 1e-10 tolerance")
@pytest.mark.parametrize("q", [9, 11])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_generic_parameters_q11_fail_only_the_transform_suite(q, alpha):
    """Known defect: ``padicradial verify`` exits 1 at q = 9 and 11, at every order.

    The transform suite's symbol identity at alpha = 2 measures 2.72e-10
    (q = 9) and 6.00e-10 (q = 11) against ``laplace_symbol`` = 1e-10, on
    every shell ``n <= 0`` of its range.  The random 6-shell ``psi`` has
    ``D^2 psi`` with tail 2.9e11 (q = 9) and 3.3e12 (q = 11), and the gap is
    the absolute rounding of that derivative's transform, divided by
    ``max(1, |left|, |right|)``, where both sides are below 1 for ``n <= 0``.
    Every other check passes.  When the residual or its scale is mended,
    this test passes and its mark goes.
    """
    ok, results = run_verification(FieldParams(q, alpha))
    others = [r.name for r in results if not r.passed and not r.name.startswith("transform suite")]
    if others:
        pytest.fail(f"checks other than the transform suite fail: {others}")
    assert ok, [r.line() for r in results if not r.passed]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_characteristic_function_check_fails_the_old_sign(monkeypatch, q):
    # W = E + i z S G, the sign before the colligation's, is neither J-unitary on
    # the real axis nor signed off it, though W(0) = E and the pairings hold
    def old_sign(self, z):
        G = np.tensordot(self.g, np.power(complex(z), np.arange(self.order + 1)), axes=([2], [0]))
        return np.eye(2, dtype=complex) + 1j * z * (np.array([[0.0, 1.0], [1.0, 0.0]]) @ G)

    res = check_characteristic_function(FieldParams(q))
    assert res.passed and "J-unitary gap" in res.detail and res.measured <= 1e-14, res.line()
    monkeypatch.setattr(MatrixPowerSeries, "evaluate", old_sign)
    res = check_characteristic_function(FieldParams(q))
    assert not res.passed and res.detail.endswith("signed as Im z: False"), res.line()
    assert res.measured > 1.0, res.line()


def test_each_tolerance_fails_only_the_check_whose_clause_reads_it(monkeypatch):
    # give every key a distinct tolerance, so each clause's tolerance names
    # the key it reads; the rank cut is a threshold, not a clause's tolerance
    tagged = {key: tol * (1.0 + k * 2.0**-30) for k, (key, tol) in enumerate(DEFAULT_TOLERANCES.items(), 1)}
    owner = {tol: key for key, tol in tagged.items()}
    for key, tol in tagged.items():
        monkeypatch.setitem(DEFAULT_TOLERANCES, key, tol)
    base = {p: build_checks(p) for p in (FieldParams(2), FieldParams(3, 0.5))}
    wired, read = {}, set()
    for p, results in base.items():
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
        for index, res in enumerate(results):
            for _, residual, tol in res.clauses:
                read.add(owner.get(tol))
                if tol in owner and residual > 0:
                    wired.setdefault(owner[tol], (p, index, residual))
    assert read - {None} == set(DEFAULT_TOLERANCES) - {"imaginary_part_rank_cut"}
    assert len(wired) >= len(DEFAULT_TOLERANCES) // 2, sorted(wired)

    for key, (p, index, residual) in wired.items():
        # a time is not repeatable, so its bound leaves room for a faster rerun
        bound = residual / (4.0 if key == "runtime_seconds" else 2.0)
        monkeypatch.setitem(DEFAULT_TOLERANCES, key, bound)
        results = build_checks(p)
        monkeypatch.setitem(DEFAULT_TOLERANCES, key, tagged[key])
        assert [r.passed for r in results] == [i != index for i in range(len(results))], key
        line = results[index].line()
        assert results[index].tolerance == bound and f"(tolerance {bound:.1e}," in line, (key, line)
        if key != "runtime_seconds":
            assert results[index].measured == residual and f"measured {residual:.3e} " in line, (key, line)


def nan_like(result):
    """``result`` with NaN in place of its last number, or of every value of a radial function."""
    if isinstance(result, KRadialFunction):
        return result * math.nan
    if isinstance(result, (TransformSequence, OperatorMatrix)):  # the last transform value or entry
        field = "values" if isinstance(result, TransformSequence) else "entries"
        return replace(result, **{field: nan_like(getattr(result, field))})
    if isinstance(result, tuple):
        return tuple(map(nan_like, result))
    if isinstance(result, dict):
        return {key: nan_like(value) for key, value in result.items()}
    if isinstance(result, np.ndarray):
        out = result.copy()
        out.flat[-1] = math.nan
        return out
    return math.nan


POISONED = {  # check, the call whose n-th result turns NaN, and the clause that must fail
    "eigenfunction_identity": ("eigenfunction_identity", verify, "apply_D_alpha", 2, "relative gap"),
    "first_eigenvalue_ball": ("first_eigenvalue_ball", verify, "apply_D_alpha_O", 2,
                              "shells at q=2, alpha=1 and the run's"),
    "right_inverse": ("right_inverse", verify, "apply_D_alpha", 2, "shells, alpha in {1/2, 1, 2}"),
    "i1_matrix": ("i1_matrix", np.linalg, "eigvals", 1, "eigenvalues"),
    "imaginary_part trace": ("imaginary_part", verify, "operator_matrix", 3, "trace (f and e)"),
    "imaginary_part u0": ("imaginary_part", verify, "imaginary_part", 1, "top-shell image"),
    "moments": ("moments", verify, "moment_b", 1, "shell sums"),
    "local_representation": ("local_representation", verify, "apply_I_alpha", 2, "shells, alpha in {1/2, 1, 2}"),
    "characteristic_function": ("characteristic_function", verify, "order_certificate", 2, "order estimate"),
    "laplace constants": ("laplace", verify, "laplace_transform", 1, "constants"),
    "laplace difference": ("laplace", verify, "difference_identity_residual", 2, "difference identity"),
    "laplace inversion": ("laplace", verify, "laplace_invert", 2, "inversion"),
    "laplace symbol": ("laplace", verify, "symbol_identity_residual", 2, "symbol"),
}


@pytest.mark.parametrize("case", sorted(POISONED))
def test_a_nan_residual_fails_its_clause(monkeypatch, case):
    # each check reduces its residuals once, NaN propagating; a running
    # ``max(worst, gap)`` kept ``worst`` past a NaN gap after the first, and
    # the clause passed
    name, owner, call, nth, label = POISONED[case]
    real, calls = getattr(owner, call), []

    def poisoned(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return nan_like(out) if len(calls) == nth else out

    monkeypatch.setattr(owner, call, poisoned)
    res = getattr(verify, f"check_{name}")(FieldParams(3))
    assert len(calls) >= nth, (case, len(calls))
    _, residual, tol = next(c for c in res.clauses if c[0] == label)
    assert math.isnan(residual) and not res.passed, res.line()


def test_config_validation():
    # a run's only parameters are the field's, and q is a residue-field order
    with pytest.raises(ValueError, match="integer >= 2"):
        FieldParams(1)
    with pytest.raises(ValueError, match="prime power, got 6"):
        FieldParams(6)
