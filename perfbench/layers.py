"""Per-layer metrics from traced spans.

Self time is a span's duration minus its direct children's.  Sums are per
pass: totals over the traced passes divided by their number.  A layer a
workload never reaches is measured by one traced pass of the probe
(``workloads.probe``), so no time reads a constant 0; on such a workload
the figure is the probe's fixed work, not the workload's.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from oracle import SHELL_OPS
from tracer import self_times

SHELL_FNS = tuple(f"{op.module}.{name}" for name, op in SHELL_OPS.items())
FIELD_FNS = ("field.inner_product", "field.expand", "field.make_basis")
SPECTRAL_FNS = (
    "spectral.i1_eigenpairs",
    "spectral.volterra_check",
    "spectral.j_diagnostics",
    "spectral.characteristic_function",
    "spectral.order_certificate",
)
SERIALIZE_FNS = ("serialize.load_radial", "serialize.dump_radial")
CLI_SUBS = ("apply", "verify", "laplace", "laplace-invert", "matrix", "spectrum", "charfn")
VERIFY_CHECKS = (
    "eigenfunction_identity",
    "first_eigenvalue_ball",
    "right_inverse",
    "i1_matrix",
    "volterra_structure",
    "imaginary_part",
    "moments",
    "local_representation",
    "characteristic_function",
    "laplace",
    "basis_completeness",
)


def per_layer_spec() -> list:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    spec = []
    for fn in SHELL_FNS:
        spec += [(f"{fn}.self_s", "s", "lower"), (f"{fn}.shell_pairs", "count", "higher"),
                 (f"{fn}.exp_W", "1", "lower"), (f"{fn}.failed", "count", "lower")]
    for fn in FIELD_FNS:
        spec += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    spec += [("operators.operator_matrix.self_s", "s", "lower"),
             ("operators.operator_matrix.exp_dim", "1", "lower")]
    spec += [(f"{fn}.self_s", "s", "lower") for fn in SPECTRAL_FNS]
    spec += [("field.poly_projection_residual.self_s", "s", "lower")]
    for fn in SERIALIZE_FNS:
        spec += [(f"{fn}.self_s", "s", "lower"), (f"{fn}.bytes", "B", "lower")]
    spec += [("cli.import_s", "s", "lower"), ("cli.interpreter_s", "s", "lower")]
    spec += [(f"cli.{sub}.wall_s", "s", "lower") for sub in CLI_SUBS]
    for check in VERIFY_CHECKS:
        spec += [(f"verify.{check}.seconds", "s", "lower"), (f"verify.{check}.margin_dec", "dec", "higher")]
    spec += [("trace.overhead_s", "s", "lower")]
    return spec


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size); 0 without two sizes."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s >= 2 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Aggregate:
    """Per-function totals over span lists (one list per traced process)."""

    def __init__(self, span_lists, passes: int):
        self.passes = max(passes, 1)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.pairs = defaultdict(int)
        self.bytes = defaultdict(int)
        self.sizes = defaultdict(list)
        self.checks = defaultdict(lambda: ([], []))
        for spans in span_lists:
            for span, own in zip(spans, self_times(spans)):
                self._add(span, own)

    def _add(self, span, own: float) -> None:
        _, _, name, t0, t1, err, attrs = span
        attrs = attrs or {}
        self.calls[name] += 1
        self.self_s[name] += own
        ok = err is None and attrs.get("finite", True)
        if name in SHELL_FNS:
            if not ok:
                self.failed[name] += 1
            elif attrs.get("out"):
                self.pairs[name] += attrs["in"] * attrs["out"]
                self.sizes[name].append((max(attrs["in"], attrs["out"]), t1 - t0))
        if name == "operators.operator_matrix" and ok:
            self.sizes[name].append((attrs["dim"], t1 - t0))
        if "bytes" in attrs:
            self.bytes[name] += attrs["bytes"]
        for check, seconds, measured, tol in attrs.get("checks", ()):
            secs, margins = self.checks[check]
            secs.append(seconds)
            if measured > 0:
                margins.append(math.log10(tol / measured) if measured <= tol else -math.inf)

    def reached(self, name: str) -> bool:
        return self.calls.get(name, 0) > 0

    def value(self, metric: str) -> float:
        name, _, field = metric.rpartition(".")
        per = 1.0 / self.passes
        if field == "self_s":
            return self.self_s[name] * per
        if field == "calls":
            return self.calls[name] * per
        if field == "failed":
            return self.failed[name] * per
        if field == "shell_pairs":
            return self.pairs[name] * per
        if field == "bytes":
            return self.bytes[name] * per
        if field in ("exp_W", "exp_dim"):
            return loglog_slope(self.sizes[name])
        check = name.removeprefix("verify.")
        secs, margins = self.checks[check]
        if field == "seconds":
            return statistics.median(secs) if secs else 0.0
        if field == "margin_dec":
            return min(margins) if margins else 0.0
        raise KeyError(metric)


def _layer_of(metric: str) -> str:
    """The span name whose presence decides whether a metric was reached."""
    name = metric.rpartition(".")[0]
    if name.startswith("verify."):
        return "verify.run_verification"
    return name


def per_layer(passes: Aggregate, probe: Aggregate, cli_runs: list, probe_runs: list,
              overhead_s: float) -> tuple[dict, list]:
    """Every per-layer metric; also the names that came from the probe.

    ``cli_runs`` holds ``(sub, wall_s, import_s, main_s)`` per traced CLI
    process of the workload; ``probe_runs`` the same for the probe.
    """
    values, probed = {}, []
    for metric, _, _ in per_layer_spec():
        if metric == "trace.overhead_s":
            values[metric] = overhead_s
            continue
        if metric.startswith("cli."):
            runs = cli_runs or probe_runs
            if not cli_runs:
                probed.append(metric)
            values[metric] = _cli_metric(metric, runs)
            continue
        source = passes
        if not passes.reached(_layer_of(metric)):
            source = probe
            probed.append(metric)
        values[metric] = source.value(metric)
    return values, probed


def _cli_metric(metric: str, runs: list) -> float:
    if metric == "cli.import_s":
        vals = [imp for _, _, imp, _ in runs]
    elif metric == "cli.interpreter_s":
        vals = [wall - imp - main for _, wall, imp, main in runs]
    else:
        sub = metric.split(".")[1]
        vals = [wall for s, wall, _, _ in runs if s == sub]
    return statistics.median(vals) if vals else 0.0
