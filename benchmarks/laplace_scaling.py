"""Per-call cost of ``laplace_transform`` and ``laplace_invert`` against the width W.

For q = 2 and W in {100, 200, 400, 800} it transforms a seeded random
function on the shells ``1 - W .. 0`` (tail 0) over the range
``(1 - m, m + 1)``, ``m = W - 1``, and inverts that transform with
``m_max = m``, the calls of the ``shell-sweep`` benchmark.  Each call is
repeated for at least ``--seconds`` per width; the record keeps the median
and the minimum per call, and for each the exponent ``b`` of the
least-squares fit ``time ~ W^b``.  Run it against the library on ``PYTHONPATH``:

    PYTHONPATH=src python benchmarks/laplace_scaling.py --label after --into BENCH_5.json

``--into`` adds the record under ``--label`` to the JSON file (created if
missing), so the same file can hold a ``before`` and an ``after`` record.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from padicradial import laplace
from padicradial.field import FieldParams, KRadialFunction

WIDTHS = (100, 200, 400, 800)
Q = 2


def _per_call(fn, seconds: float) -> list[float]:
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < 5 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _exponent(widths, times) -> float:
    return float(np.polyfit(np.log(widths), np.log(times), 1)[0])


def _revision() -> str:
    here = Path(laplace.__file__).parent
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=here,
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "."], cwd=here,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("+local changes" if dirty else "")


def measure(seconds: float) -> dict:
    rng = np.random.default_rng(1)
    rows = []
    for W in WIDTHS:
        m = W - 1
        phi = KRadialFunction(FieldParams(Q), 1 - W, 0, rng.standard_normal(W) + 1j * rng.standard_normal(W))
        tilde = laplace.laplace_transform(phi, (1 - m, m + 1))
        fwd = _per_call(lambda: laplace.laplace_transform(phi, (1 - m, m + 1)), seconds)
        inv = _per_call(lambda: laplace.laplace_invert(tilde, phi.value_at(0), m), seconds)
        rows.append({
            "W": W,
            "transform_ms": {"median": 1e3 * statistics.median(fwd), "min": 1e3 * min(fwd), "calls": len(fwd)},
            "invert_ms": {"median": 1e3 * statistics.median(inv), "min": 1e3 * min(inv), "calls": len(inv)},
        })
    return {
        "q": Q,
        "range": "(1 - m, m + 1), m = W - 1; inversion with m_max = m",
        "per_call": rows,
        "scaling_exponent": {
            key: {stat: round(_exponent(WIDTHS, [r[key][stat] for r in rows]), 3) for stat in ("median", "min")}
            for key in ("transform_ms", "invert_ms")
        },
        "revision": _revision(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.processor() or platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="run")
    ap.add_argument("--into", type=Path, help="JSON file to add the record to")
    ap.add_argument("--seconds", type=float, default=1.0, help="time per call and width")
    args = ap.parse_args(argv)
    record = measure(args.seconds)
    print(json.dumps(record, indent=2))
    if args.into:
        doc = json.loads(args.into.read_text()) if args.into.exists() else {}
        doc[args.label] = record
        args.into.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
