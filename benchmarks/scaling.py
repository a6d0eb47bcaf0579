"""Per-call cost of one library layer against its size, with the fitted scaling exponent.

Layers (``--layer``):

- ``laplace``: for q = 2 and W in {100, 200, 400, 800}, ``laplace_transform``
  of a seeded random function on the shells ``1 - W .. 0`` (tail 0) over the
  range ``(1 - m, m + 1)``, ``m = W - 1``, and ``laplace_invert`` of that
  transform with ``m_max = m``: the calls of the ``shell-sweep`` benchmark.
- ``operator_matrix``: for q = 2 and dim in {40, 160, 640, 1280},
  ``operator_matrix`` of D1O, I1, I01 and the resolvent in the e-family and
  of J in the f-family, the I01 f-matrix, and the dense spectral work built
  on two of them: ``i1_eigenpairs`` (the I1 e-matrix and ``eig``) and
  ``volterra_check`` (the I01 f-matrix, ``eigvals`` and ``svd``).  Their
  ``dense_share`` is the part of their time not spent forming the matrix.
- ``expand``: for q = 2, ``expand`` in the e- and f-family of a seeded
  random function shaped like an ``operator_matrix`` image (the shells
  ``1 - dim .. 0``, a nonzero tail, ``count = dim``) at dim in
  {40, 160, 640}, and ``inner_product`` of two seeded random functions on
  the shells ``1 - W .. 0`` (nonzero tails) at W in {100, 400, 1600}.

Each call is repeated for at least ``--seconds`` per size (and at least
three times); the record keeps the median and the minimum per call, and for
each the exponent ``b`` of the least-squares fit ``time ~ size^b``.  A size
the library refuses (an entry beyond the double range) is recorded with its
error and left out of the fit.  BLAS runs on one
thread.  Run it against the library on ``PYTHONPATH``:

    PYTHONPATH=src python benchmarks/scaling.py --layer operator_matrix --label after --into BENCH_9.json

``--into`` adds the record under ``--label`` to the JSON file (created if
missing), so the same file can hold a ``before`` and an ``after`` record.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads its BLAS

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from padicradial import laplace, spectral
from padicradial.field import FieldParams, KRadialFunction, expand, inner_product
from padicradial.operators import operator_matrix

Q = 2


def _per_call(fn, seconds: float) -> list[float]:
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _timed(fn, seconds: float) -> dict:
    try:
        fn()
    except (ValueError, OverflowError) as exc:
        return {"refused": f"{type(exc).__name__}: {exc}"}
    times = _per_call(fn, seconds)
    return {"median": 1e3 * statistics.median(times), "min": 1e3 * min(times), "calls": len(times)}


def _exponents(sizes, rows, series) -> dict:
    out = {}
    for name in series:
        pts = [(n, r[name]) for n, r in zip(sizes, rows) if "refused" not in r[name]]
        if len(pts) >= 2:
            x = np.log([n for n, _ in pts])
            out[name] = {stat: round(float(np.polyfit(x, np.log([t[stat] for _, t in pts]), 1)[0]), 3)
                         for stat in ("median", "min")}
    return out


def laplace_layer(seconds: float) -> dict:
    widths = (100, 200, 400, 800)
    rng = np.random.default_rng(1)
    rows = []
    for W in widths:
        m = W - 1
        phi = KRadialFunction(FieldParams(Q), 1 - W, 0, rng.standard_normal(W) + 1j * rng.standard_normal(W))
        tilde = laplace.laplace_transform(phi, (1 - m, m + 1))
        rows.append({
            "W": W,
            "transform_ms": _timed(lambda: laplace.laplace_transform(phi, (1 - m, m + 1)), seconds),
            "invert_ms": _timed(lambda: laplace.laplace_invert(tilde, phi.value_at(0), m), seconds),
        })
    return {
        "q": Q,
        "range": "(1 - m, m + 1), m = W - 1; inversion with m_max = m",
        "per_call": rows,
        "scaling_exponent": _exponents(widths, rows, ("transform_ms", "invert_ms")),
    }


MATRICES = (("D1O", "e"), ("I1", "e"), ("I01", "e"), ("resolvent", "e"), ("J", "f"), ("I01", "f"))
# the dense spectral work and the matrix it is built on
SPECTRAL = {"i1_eigenpairs": ("I1", "e"), "volterra_check": ("I01", "f")}


def operator_matrix_layer(seconds: float) -> dict:
    dims = (40, 160, 640, 1280)
    p = FieldParams(Q)
    series = [f"{name} {basis}" for name, basis in MATRICES] + list(SPECTRAL)
    rows = []
    for dim in dims:
        row = {"dim": dim}
        for name, basis in MATRICES:
            row[f"{name} {basis}"] = _timed(lambda: operator_matrix(p, name, basis, dim), seconds)
        for fn, (name, basis) in SPECTRAL.items():
            row[fn] = _timed(lambda: getattr(spectral, fn)(p, dim), seconds)
            matrix = row[f"{name} {basis}"]
            if "median" in row[fn] and "median" in matrix:
                row[fn]["dense_share"] = round(1.0 - matrix["median"] / row[fn]["median"], 3)
        rows.append(row)
    return {
        "q": Q,
        "families": "D1O, I1, I01, resolvent in e; J and I01 in f",
        "per_call": rows,
        "scaling_exponent": _exponents(dims, rows, series),
    }


def _random(rng, width: int) -> KRadialFunction:
    vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    return KRadialFunction(FieldParams(Q), 1 - width, 0, vals, complex(*rng.standard_normal(2)))


def expand_layer(seconds: float) -> dict:
    dims, widths = (40, 160, 640), (100, 400, 1600)
    rng = np.random.default_rng(1)
    rows = []
    for dim in dims:
        image = _random(rng, dim)
        rows.append({"dim": dim, **{f"expand {family}": _timed(lambda: expand(image, family, dim), seconds)
                                    for family in ("e", "f")}})
    pairs = []
    for W in widths:
        u, v = _random(rng, W), _random(rng, W)
        pairs.append({"W": W, "inner_product": _timed(lambda: inner_product(u, v), seconds)})
    return {
        "q": Q,
        "shapes": "expand: shells 1 - dim .. 0, nonzero tail, count = dim; "
                  "inner_product: shells 1 - W .. 0, nonzero tails",
        "per_call": rows + pairs,
        "scaling_exponent": {**_exponents(dims, rows, ("expand e", "expand f")),
                             **_exponents(widths, pairs, ("inner_product",))},
    }


LAYERS = {"laplace": laplace_layer, "operator_matrix": operator_matrix_layer, "expand": expand_layer}


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layer", choices=sorted(LAYERS), required=True)
    ap.add_argument("--label", default="run")
    ap.add_argument("--into", type=Path, help="JSON file to add the record to")
    ap.add_argument("--seconds", type=float, default=1.0, help="time per call and size")
    args = ap.parse_args(argv)
    record = {
        "layer": args.layer,
        **LAYERS[args.layer](args.seconds),
        "revision": _revision(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.processor() or platform.machine(),
    }
    print(json.dumps(record, indent=2))
    if args.into:
        doc = json.loads(args.into.read_text()) if args.into.exists() else {}
        doc[args.label] = record
        args.into.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
