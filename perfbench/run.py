"""Benchmark of padicradial: seeded closed-loop workloads with oracle checks.

Usage, from the repository root::

    python3 perfbench/run.py --workload shell-sweep --seed 1 --seconds 32 --trace 0

Workloads: ``shell-sweep``, ``matrix-spectra``, ``cli-documents`` (see
``perfbench/README.md``).  One client issues one call at a time and waits
for it; BLAS is pinned to one thread, and the run to one vCPU.  Times are
scaled to a reference machine speed by a kernel timed between the calls of
the same run (``calibrate.py``).  The library is imported from
``src/`` of the checkout; without it the benchmark exits 2 and prints no
result.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, and the spans are written to ``.perfbench_out/``.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
# one BLAS thread, set before numpy loads and inherited by every child
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 7
MIN_PASSES = 3
TAIL_SAMPLES = 10  # latency samples beyond the rank of call_tail_ms
CLI_TIMEOUT_S = 120


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def digest(obj, h=None) -> str:
    """Content hash of a call's output, to confirm every pass computed the same."""
    import numpy as np

    top = h is None
    h = h or hashlib.blake2b(digest_size=16)
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(str(key).encode())
            digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            digest(item, h)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


# ---------------------------------------------------------------------------
# passes


@dataclasses.dataclass
class Pass:
    wall: float
    latency: list  # seconds per call
    ok: list  # call returned (library) or exited 0 (CLI)
    digests: list
    rss_mb: float = 0.0  # peak resident memory so far, read when the pass ends


def library_pass(batch, keep: list | None = None, cal=None) -> Pass:
    from workloads import resolve

    targets = [resolve(c.fn) for c in batch]
    latency, ok, outs = [], [], []
    prev = None
    start = time.perf_counter()
    for call, fn in zip(batch, targets):
        args = call.chain(prev) + call.args if call.chain else call.args
        t0 = time.perf_counter()
        try:
            out, err = fn(*args), None
        except Exception as exc:  # a failing call is recorded and the pass goes on
            out, err = None, exc
        latency.append(time.perf_counter() - t0)
        ok.append(err is None)
        outs.append((out, err))
        prev = out
        if cal:
            cal.tick()
    wall = time.perf_counter() - start
    if keep is not None and not keep:
        keep.extend(outs)
    digests = [digest(out) if err is None else type(err).__name__ for out, err in outs]
    return Pass(wall, latency, ok, digests)


def _verify_status(stdout: str) -> str:
    return "\n".join(line.split(":")[0] for line in stdout.splitlines() if line[:4] in ("PASS", "FAIL"))


def cli_pass(batch, workdir: str, traced: bool, keep: list | None = None, runs: list | None = None,
             span_lists: list | None = None, cal=None) -> Pass:
    env = child_env()
    latency, ok, digests, procs = [], [], [], []
    for k, inv in enumerate(batch):
        spans_file = os.path.join(workdir, f"spans-{k}.json")
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), spans_file, str(SRC), "--", *inv.argv]
        else:
            cmd = [sys.executable, "-m", "padicradial.cli", *inv.argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, stdout, stderr = -9, "", f"timeout after {exc.timeout}s"
        wall = time.perf_counter() - t0
        latency.append(wall)
        ok.append(code == 0)
        content = ""
        if inv.sub == "verify":
            content = _verify_status(stdout)
        elif inv.out and code == 0 and os.path.exists(inv.out):
            with open(inv.out) as fh:
                content = fh.read()
        digests.append(hashlib.blake2b(f"{code}\n{content}".encode(), digest_size=16).hexdigest())
        procs.append((code, stdout, stderr))
        if traced and os.path.exists(spans_file):
            with open(spans_file) as fh:
                rec = json.load(fh)
            os.remove(spans_file)
            runs.append((inv.sub, wall, rec["import_s"], rec["main_s"]))
            span_lists.append(rec["spans"])
        if cal:
            cal.tick()
    if keep is not None and not keep:
        keep.extend(procs)
    return Pass(sum(latency), latency, ok, digests)


def run_probe(seed: int, workdir: str) -> tuple[list, list]:
    """One traced pass of ``workloads.probe``: span lists and CLI runs."""
    import workloads
    from tracer import Tracer

    calls, invocations = workloads.probe(seed, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        library_pass(calls)
    finally:
        tracer.uninstall()
    span_lists, runs = [tracer.spans], []
    cli_pass(invocations, workdir, True, None, runs, span_lists)
    return span_lists, runs


def measure(run_one, seconds: float, rusage_who: int) -> list:
    """Whole passes until the next one would end past ``seconds``.

    At least ``MIN_PASSES``, so every call has that many samples.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_one())
        passes[-1].rss_mb = resource.getrusage(rusage_who).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > seconds:
            return passes


# ---------------------------------------------------------------------------
# set-up


def setup_only(args) -> int:
    """Fresh-process set-up: import, input generation and a warm-up pass."""
    import workloads

    if args.workload == "cli-documents":
        WORK.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            batch = workloads.cli_documents(args.seed, workdir)
            cli_pass(workloads.cli_warm(batch), workdir, traced=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    import padicradial  # noqa: F401

    batch = workloads.library_batch(args.workload, args.seed)
    library_pass(workloads.warm_subset(batch))
    return 0


def measure_setup(args) -> float:
    """Median set-up time of ``SETUP_REPS`` fresh processes, scaled to the reference speed."""
    from calibrate import Calibrator

    cal = Calibrator()
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1"]
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        cal.tick()
    return cal.factor() * statistics.median(times)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(batch, passes: list, first: list, judge, rng):
    """Ledger, passing-instance count and accuracy margins of a run.

    ``judge(item, record, rng)`` returns ``(failure, verdict)`` for one
    call from its first-pass record; later passes must match it.
    """
    from ledger import Failure, Ledger

    ledger, margins, ok_instances = Ledger(), [], 0
    for i, item in enumerate(batch):
        fail, verdict = judge(item, first[i], rng)
        if fail is None and any(p.digests[i] != passes[0].digests[i] for p in passes[1:]):
            fn = getattr(item, "fn", None) or f"cli.{item.sub}"
            fail = Failure(fn, item.params, "nondeterministic", "output differs between passes")
        if fail is None:
            ok_instances += len(passes)
            margins += verdict.margins()
        else:
            ledger.add(fail, len(passes))
    return ledger, ok_instances, margins


def judge_call(call, record, rng):
    import checks
    from ledger import classify

    out, err = record
    if err is not None:
        return classify(call.fn, call.params, exc=err), None
    verdict = checks.check_call(call, out, rng)
    residual, tol = verdict.worst() or (None, None)
    return classify(call.fn, call.params, nonfinite=verdict.nonfinite, residual=residual, tol=tol), verdict


def judge_invocation(inv, record, rng):
    import checks
    from ledger import Failure, classify_exit

    code, stdout, stderr = record
    fn = f"cli.{inv.sub}"
    if code != 0:
        return classify_exit(fn, inv.params, code, stderr), None
    verdict = checks.check_invocation(inv, stdout, rng)
    if verdict.nonfinite:
        kind, cause = "nonfinite", "nan/inf or unreadable document"
    elif verdict.worst():
        kind, cause = "oracle", "residual {:.3e} > tol {:.0e}".format(*verdict.worst())
    else:
        return None, verdict
    return Failure(fn, inv.params, kind, cause), verdict


def mean_latencies(passes: list) -> list:
    """Each call's mean latency over the passes of a run."""
    return [statistics.fmean(times) for times in zip(*(p.latency for p in passes))]


def tail_latency(means: list) -> tuple[float, float]:
    """Mean latency of the slowest call that has ``TAIL_SAMPLES`` samples beyond it.

    ``means`` holds one mean latency per returned call; each stands for at
    least ``MIN_PASSES`` samples, so the calls beyond the rank carry
    ``TAIL_SAMPLES`` or more.  The rank is fixed by the batch, so it lands
    on the same call of the batch in every run.  Returns the latency and
    its nearest-rank percentile.
    """
    xs = sorted(means)
    k = max(len(xs) - 1 - math.ceil(TAIL_SAMPLES / MIN_PASSES), 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def run_record() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=10).stdout.strip() or rev
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)
    args = parse_args(argv)
    if not (SRC / "padicradial" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'padicradial'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    if args.setup_only:
        return setup_only(args)

    import numpy as np

    import layers
    import workloads
    from calibrate import Calibrator
    from ledger import KNOWN_DEFECTS
    from tracer import Tracer

    import padicradial  # noqa: F401  (also loads verify's tolerances)

    rng = np.random.default_rng([args.seed, 9])
    cli = args.workload == "cli-documents"
    # the calibration kernel and the calls it scales share one vCPU
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cal = Calibrator()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        first, runs, span_lists = [], [], []
        # library workloads run in this process, CLI calls in its children
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        if cli:
            batch = workloads.cli_documents(args.seed, workdir)
            cli_pass(workloads.cli_warm(batch), workdir, traced=False)
            untraced = measure(lambda: cli_pass(batch, workdir, False, first, cal=cal), args.seconds / (1 + args.trace),
                               who)
            if args.trace:
                traced = measure(lambda: cli_pass(batch, workdir, True, None, runs, span_lists), args.seconds / 2, who)
        else:
            batch = workloads.library_batch(args.workload, args.seed)
            library_pass(workloads.warm_subset(batch))
            untraced = measure(lambda: library_pass(batch, first, cal), args.seconds / (1 + args.trace), who)
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced = measure(lambda: library_pass(batch), args.seconds / 2, who)
                finally:
                    tracer.uninstall()
                span_lists.append(tracer.spans)
        if args.trace:
            probe_lists, probe_runs = run_probe(args.seed, tempfile.mkdtemp(dir=workdir))
        setup_s = measure_setup(args) if not args.trace else None

        if cli:
            ledger, ok_n, margins = evaluate(batch, untraced, first, judge_invocation, rng)
        else:
            ledger, ok_n, margins = evaluate(batch, untraced, first, judge_call, rng)

        attempted = len(batch) * len(untraced)
        means = mean_latencies(untraced)
        returned = [t for i, t in enumerate(means) if all(p.ok[i] for p in untraced)]
        tail, pct = tail_latency(returned)
        speed = cal.factor()
        record = run_record()

        print(f"padicradial benchmark: workload={args.workload} seed={args.seed} "
              f"passes={len(untraced)} calls/pass={len(batch)} trace={args.trace}")
        print("run record: " + json.dumps(record))
        print(f"times are scaled to the reference speed by {speed:.4f}, from {len(cal.samples)} calibration reps; "
              f"unscaled: pass {sum(means):.6g} s, tail {1e3 * tail:.6g} ms, "
              f"p50 {1e3 * statistics.median(returned):.6g} ms")
        print(f"wall_s sums each call's mean over {len(untraced)} passes; call_tail_ms is p{pct:.1f} of the "
              f"mean latencies of {len(returned)} returned calls ({len(untraced)} samples each), "
              "call_p50_ms their median")
        print(f"failures: {ledger.total} of {attempted} call instances "
              f"(failed_frac {ledger.total / attempted:.4f}), {ledger.unexpected} unexpected")
        for line in ledger.lines():
            print(line)
        for name in sorted({f.known for f in ledger.failures if f.known}):
            print(f"  known defect {name}: {KNOWN_DEFECTS[name]}")

        if args.trace:
            overhead = sum(mean_latencies(traced)) - sum(means)
            passes_agg = layers.Aggregate(span_lists, len(traced))
            probe_agg = layers.Aggregate(probe_lists, 1)
            values, probed = layers.per_layer(passes_agg, probe_agg, runs, probe_runs, overhead)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            with open(spans_path, "w") as fh:
                json.dump({"record": record, "workload": args.workload, "seed": args.seed,
                           "traced_passes": len(traced), "span_lists": span_lists, "cli_runs": runs,
                           "probe_span_lists": probe_lists, "probe_cli_runs": probe_runs}, fh)
            print(f"spans written to {spans_path.relative_to(ROOT)}; from the probe: {', '.join(probed) or 'none'}")
            units = {name: unit for name, unit, _ in layers.per_layer_spec()}
            metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": speed * sum(means),
                "call_p50_ms": speed * 1e3 * statistics.median(returned),
                "call_tail_ms": speed * 1e3 * tail,
                "ok_frac": ok_n / attempted,
                "accuracy_margin_dec": min(margins) if margins else 0.0,
                "peak_rss_mb": untraced[0].rss_mb,
            }
            units = {"setup_s": "s", "wall_s": "s", "call_p50_ms": "ms", "call_tail_ms": "ms",
                     "ok_frac": "1", "accuracy_margin_dec": "dec", "peak_rss_mb": "MB"}
            for name, value in metrics.items():
                print(f"  {name:<22} {value:.6g} {units[name]}")
            metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}

        result = {
            "correct": ledger.unexpected == 0,
            "attempted": attempted,
            "failed": ledger.unexpected,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
