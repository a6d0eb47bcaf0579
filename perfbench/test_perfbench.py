"""Tests of the benchmark's own parts: generators, oracle, classifier, tracer, metrics."""

import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

from padicradial import field, laplace, operators  # noqa: E402
from padicradial.verify import DEFAULT_TOLERANCES  # noqa: E402


def _fingerprint(batch):
    out = []
    for call in batch:
        args = [
            (a.params.q, a.params.alpha, a.n_lo, a.n_hi, a.values.tobytes(), a.inner_tail)
            if isinstance(a, field.KRadialFunction) else repr(a)
            for a in call.args
        ]
        out.append((call.fn, sorted(call.params.items()), args))
    return out


@pytest.mark.parametrize("name", ["shell-sweep", "matrix-spectra"])
def test_library_generators_are_deterministic_per_seed(name):
    a = _fingerprint(workloads.library_batch(name, 5))
    assert a == _fingerprint(workloads.library_batch(name, 5))
    b = _fingerprint(workloads.library_batch(name, 6))
    assert a != b
    # the seed draws values and order only: the multiset of call shapes is fixed
    shapes = lambda fp: sorted((fn, params) for fn, params, _ in fp)  # noqa: E731
    assert shapes(a) == shapes(b)


def test_cli_documents_are_deterministic_per_seed(tmp_path):
    texts = []
    for run, seed in enumerate((5, 5, 6)):
        d = tmp_path / str(run)
        d.mkdir()
        batch = workloads.cli_documents(seed, str(d))
        texts.append([(d / f"{n}.json").read_text() for n in workloads.CLI_DOCS])
        assert {inv.sub for inv in batch} == set(layers.CLI_SUBS)
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def _random(q, alpha, lo, hi, tail, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(hi - lo + 1) + 1j * rng.standard_normal(hi - lo + 1)
    return field.KRadialFunction(field.FieldParams(q, alpha), lo, hi, vals, tail)


SHELL_CASES = [
    ("apply_D_alpha", operators.apply_D_alpha),
    ("apply_D_alpha_O", operators.apply_D_alpha_O),
    ("apply_I_alpha", operators.apply_I_alpha),
    ("apply_I01", operators.apply_I01),
]


@pytest.mark.parametrize("q", [2, 3, 7])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("tail", [0j, 0.7 - 0.2j])
def test_oracle_agrees_with_library_on_small_windows(q, alpha, tail):
    u = _random(q, alpha, -7, 0, tail, seed=q)
    for name, fn in SHELL_CASES:
        out = fn(u)
        tol = DEFAULT_TOLERANCES[oracle.SHELL_OPS[name].tol]
        assert oracle.shell_residual(name, oracle.Radial.of(u), out.n_lo, out.values) <= tol
    if alpha == 1.0:
        out = operators.apply_resolvent_D1O(u)
        res = oracle.shell_residual("apply_resolvent_D1O", oracle.Radial.of(u), out.n_lo, out.values)
        assert res <= DEFAULT_TOLERANCES["local_representation"]
    tilde = laplace.laplace_transform(u, (-6, 8))
    res = oracle.shell_residual("laplace_transform", oracle.Radial.of(u), tilde.n_lo, tilde.values)
    assert res <= DEFAULT_TOLERANCES["laplace_difference"]
    v = _random(q, 1.0, -5, 0, tail, seed=q + 1)
    assert oracle.inner_residual(oracle.Radial.of(u), oracle.Radial.of(v), field.inner_product(u, v)) <= 1e-13


def test_oracle_detects_a_wrong_output():
    u = _random(3, 0.5, -6, 0, 0.3, seed=1)
    out = operators.apply_D_alpha(u)
    bad = out.values.copy()
    bad[np.argmax(np.abs(bad))] *= 1 + 1e-8
    assert oracle.shell_residual("apply_D_alpha", oracle.Radial.of(u), out.n_lo, bad) > 1e-9


@pytest.mark.parametrize("name,fn,alpha", [("apply_I_alpha", operators.apply_I_alpha, 2.0),
                                           ("apply_D_alpha", operators.apply_D_alpha, 2.0)])
def test_oracle_holds_a_small_shell_to_its_own_scale(name, fn, alpha):
    # outputs span many decades (q^(alpha n) for I_alpha, q^(-alpha n) for
    # D_alpha); a relative error at the smallest shell must still show
    u = _random(3, alpha, -30, 0, 0j, seed=2)
    out = fn(u)
    small = int(np.argmin(np.abs(out.values)))
    assert np.abs(out.values).max() / abs(out.values[small]) > 1e12
    bad = out.values.copy()
    bad[small] *= 1 + 1e-6
    tol = DEFAULT_TOLERANCES[oracle.SHELL_OPS[name].tol]
    exact = oracle.exact_output(name, oracle.Radial.of(u), out.n_lo, out.n_hi)
    assert oracle.output_residual(exact, out.values) <= tol
    assert oracle.output_residual(exact, bad) > tol
    assert oracle.overlap_residual(exact, out.n_lo, out.values, out.n_lo, bad) > tol


@pytest.mark.parametrize("name,basis", [("D1O", "f"), ("I1", "e"), ("I01", "f"), ("resolvent", "e")])
def test_matrix_entry_oracle_agrees_with_operator_matrix(name, basis):
    mat = operators.operator_matrix(field.FieldParams(2), name, basis, 6).entries
    for j, n in ((0, 0), (1, 4), (4, 1), (5, 5)):
        exact = complex(oracle.matrix_entry(2, name, basis, j, n))
        assert abs(mat[j, n] - exact) <= 1e-12 * max(1.0, float(np.abs(mat[:, n]).max()))


def test_classifier_sorts_overflow_nan_and_cli_traceback():
    deep = {"q": 5, "alpha": 2.0, "W": 400}
    f = ledger.classify("operators.apply_D_alpha", deep, exc=OverflowError("(34, 'Numerical result out of range')"))
    assert (f.kind, f.cause, f.known) == ("raised", "OverflowError", "deep-window")
    # the same deep call returning a wrong but finite result is not excused
    f = ledger.classify("operators.apply_D_alpha", deep, residual=1e-3, tol=1e-11)
    assert (f.kind, f.known) == ("oracle", None)
    shallow = {"q": 2, "alpha": 1.0, "W": 100}
    f = ledger.classify("operators.apply_D_alpha", shallow, exc=OverflowError())
    assert f.known is None  # a shallow overflow is not the known defect

    f = ledger.classify("field.norm", {"q": 2, "N": 1100}, nonfinite=True)
    assert (f.kind, f.known) == ("nonfinite", "deep-basis")
    f = ledger.classify("field.norm", {"q": 2, "N": 40}, nonfinite=True)
    assert f.known is None

    near = {"q": 2, "alpha": workloads.NEAR_POLE, "W": 100}
    f = ledger.classify("operators.apply_I_alpha", near, residual=1e-4, tol=1e-10)
    assert (f.kind, f.known) == ("oracle", "near-pole")
    assert ledger.classify("operators.apply_I_alpha", shallow, residual=1e-12, tol=1e-10) is None

    stderr = (
        "Traceback (most recent call last):\n"
        '  File "cli.py", line 70, in cmd_apply\n'
        "OverflowError: (34, 'Numerical result out of range')\n"
    )
    params = {"op": "Dalpha", "q": 2, "alpha": 1.0, "W": 1600}
    f = ledger.classify_exit("cli.apply", params, 1, stderr)
    assert (f.kind, f.cause, f.traceback, f.known) == ("exit", "code 1 OverflowError", True, "deep-window")
    f = ledger.classify_exit("cli.verify", {"q": 2, "alpha": 1.0}, 1, "VERIFICATION FAILED\n")
    assert (f.traceback, f.known) == (False, None)
    assert ledger.classify_exit("cli.apply", params, 0, "") is None


def test_known_failures_name_calls_of_the_batches(tmp_path):
    keys = set()
    for name in ("shell-sweep", "matrix-spectra"):
        keys |= {ledger.Failure(c.fn, c.params, "", "").key for c in workloads.library_batch(name, 0)}
    keys |= {ledger.Failure(f"cli.{i.sub}", i.params, "", "").key
             for i in workloads.cli_documents(0, str(tmp_path))}
    assert set(ledger.KNOWN_FAILURES) <= keys
    assert {defect for _, defect in ledger.KNOWN_FAILURES.values()} <= set(ledger.KNOWN_DEFECTS)


def test_tracer_patches_every_binding_and_restores_it():
    original = field.expand
    tracer = Tracer()
    tracer.install()
    try:
        assert operators.expand is not original and field.expand is not original
        operators.operator_matrix(field.FieldParams(2), "I1", "e", 3)
    finally:
        tracer.uninstall()
    assert field.expand is original and operators.expand is original
    names = [s[2] for s in tracer.spans]
    assert names[0] == "operators.operator_matrix"
    assert names.count("field.expand") == 3
    # every span but the first has a parent; self time is never negative
    assert all(s[1] >= 0 for s in tracer.spans[1:])
    assert min(self_times(tracer.spans)) >= 0
    agg = layers.Aggregate([tracer.spans], passes=1)
    assert agg.value("field.expand.calls") == 3
    assert agg.value("operators.operator_matrix.exp_dim") == 0.0  # one size only


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == layers.per_layer_spec()
    assert len(listed) <= 128
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"], setup["bound"]) == ("s", "lower", 0.25)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [os.path.basename(HERE)]


def test_tail_is_the_fifth_slowest_call_mean():
    passes = [run.Pass(0.0, [float(k) + d for k in range(16)], [True] * 16, []) for d in (0.0, 0.5, 1.0)]
    means = run.mean_latencies(passes)
    assert means == [k + 0.5 for k in range(16)]
    assert run.tail_latency(means) == (11.5, 75.0)  # four calls, twelve samples beyond


def test_calibrator_scales_to_the_reference_speed():
    cal = calibrate.Calibrator()
    cal.samples = [2 * calibrate.REF_REP_S] * 3
    assert cal.factor() == pytest.approx(0.5)
    cal.samples = []
    cal._last -= 3 * calibrate.EVERY_S
    cal.tick()  # reps for the time no rep was taken
    assert len(cal.samples) >= 3
