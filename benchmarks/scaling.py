"""Per-call cost of one library layer against its size, with the fitted scaling exponent.

Layers (``--layer``):

- ``laplace``: for q = 2 and W in {100, 200, 400, 800}, ``laplace_transform``
  of a seeded random function on the shells ``1 - W .. 0`` (tail 0) over the
  range ``(1 - m, m + 1)``, ``m = W - 1``, and ``laplace_invert`` of that
  transform with ``m_max = m``: the calls of the ``shell-sweep`` benchmark.
- ``operator_matrix``: for q = 2 and dim in {40, 160, 640, 1280},
  ``operator_matrix`` of all five operators in the e- and the f-family,
  ``volterra_check`` (the I01 f-matrix, its lower triangle, diagonal and
  superdiagonal; no ``eigvals`` or ``svd``), whose ``dense_share`` is the
  part of its time not spent forming that matrix, ``i1_eigenpairs`` (the
  closed-form eigenpairs of the I1 e-matrix; it forms no matrix) and
  ``j_diagnostics`` (the J e-matrix's trace and Frobenius norm).
- ``expand``: for q = 2, ``expand`` in the e- and f-family of a seeded
  random function shaped like an ``operator_matrix`` image (the shells
  ``1 - dim .. 0``, a nonzero tail, ``count = dim``) at dim in
  {40, 160, 640}; ``expand`` of ``e_9`` (its recurrence runs over the ten
  shells ``-9 .. 0``) into the e-family at count in {40, 160, 640}, the
  short windows below which the tail's closed form does the work; and
  ``inner_product`` of two seeded random functions on the shells
  ``1 - W .. 0`` (nonzero tails) at W in {100, 400, 1600}.
- ``apply``: for q in {3, 7} and W in {100, 400, 1600}, a seeded random
  function on the shells ``1 - W .. 0`` with a nonzero tail, as in the
  ``shell-sweep`` benchmark: ``apply_I_alpha`` and ``apply_D_alpha_O`` at
  the order ``ORDERS[q]``, ``apply_I01``, ``laplace_transform`` over
  ``(lo, m + 1)``, ``m = W - 1``, where ``lo = 1 - m`` as in ``shell-sweep``
  is raised to the first start whose ``q^(-lo)`` is a double, and the
  shell scale of ``apply_I_alpha`` on its own: ``_scaled`` of the shell
  values by ``q^(alpha n)``, cold (its memo of shell scales emptied
  before each call, so the scales are formed) and warm.  Deep windows
  take that scale out of the double range.
- ``scan``: the shell-sum kernels at q = 3, on a seeded random function's
  values on W in {10, 40, 100, 400, 1600} shells with a nonzero seed:
  ``_decay``, the sequential loop of ``expand``, and ``_scan``, the
  log-depth scan of the operators and the transform.  W = 10 and 40 are the
  windows of ``verify``'s basis elements, where a call's set-up counts most.
- ``charfn``: for q in {2, 3} and T in {50, 200, 800},
  ``characteristic_function`` up to order T and ``order_certificate`` of
  its entry g12 (``w_coefficients()[0, 1]``): the spectral calls of the
  ``matrix-spectra`` benchmark, which runs them at T = 200.

Each call is repeated for at least ``--seconds`` per size (and at least
three times); the record keeps the median and the minimum per call, and for
each the exponent ``b`` of the least-squares fit ``time ~ size^b``.  A size
the library refuses (an entry beyond the double range) is recorded with its
error and left out of the fit.  BLAS runs on one thread, and the process on
one CPU.  The machine-speed kernel of ``perfbench/calibrate.py`` is timed
between the calls, and every time in the record is the measured time times
its ``factor()``, the run's ``speed_factor``: the time at the kernel's
reference speed, so records taken at different speed states compare.  Run it
against the library on ``PYTHONPATH``:

    PYTHONPATH=src python benchmarks/scaling.py --layer apply --label after --into BENCH_11.json

``--into`` adds the record under ``--label`` to the JSON file (created if
missing), so the same file can hold a ``before`` and an ``after`` record.

``--ab OTHER_SRC`` times a second source tree in the same process: its
package (``OTHER_SRC/padicradial``) is imported under another name, the
layer runs against both trees in lockstep, and each call and size
alternates between the two, so a change of machine speed falls on both
alike.  Every timing then carries ``"other"``, the second tree's timing of
the same call, and the record carries ``"other"`` with that tree's source,
revision and scaling exponents:

    PYTHONPATH=src python benchmarks/scaling.py --layer operator_matrix --ab ../parent/src
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads its BLAS

import argparse
import importlib.util
import json
import math
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from padicradial import field, laplace, operators, spectral
from padicradial.field import FieldParams, KRadialFunction, expand, inner_product
from padicradial.operators import operator_matrix

Q = 2
CALIBRATE = Path(__file__).resolve().parents[1] / "perfbench" / "calibrate.py"


def _load_calibrate():
    spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed(fns, seconds: float, cal) -> list[dict]:
    """Raw per-call times in ms of each version of one call, or the reason
    the library refused it.  The versions run alternately, each at least
    three times and for at least ``seconds``."""
    out, live = [], []
    for fn in fns:
        try:
            fn()
        except (ValueError, OverflowError) as exc:
            out.append({"refused": f"{type(exc).__name__}: {exc}"})
            continue
        out.append([])
        live.append((fn, out[-1]))
    deadline = time.perf_counter() + len(fns) * seconds
    while live and (min(len(times) for _, times in live) < 3 or time.perf_counter() < deadline):
        for fn, times in live:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
            cal.tick()
    return [t if isinstance(t, dict) else
            {"median": 1e3 * statistics.median(t), "min": 1e3 * min(t), "calls": len(t)} for t in out]


def _lockstep(layers, seconds: float, cal) -> dict:
    """Run one layer of two copies of this module, one thread each, pairing
    their calls: each pair is timed by ``_timed`` while both threads wait.
    The first copy's record is returned, each timing with the second's as
    ``"other"``, and the second's exponents under ``"other"``."""
    calls, answers = queue.Queue(), (queue.Queue(), queue.Queue())

    def run(side, layer):
        def timed(fn):
            calls.put((side, fn))
            return answers[side].get()
        try:
            calls.put((side, layer(timed)))
        except BaseException as exc:  # handed to the main thread, which re-raises it
            calls.put((side, exc))

    for side, layer in enumerate(layers):
        threading.Thread(target=run, args=(side, layer), daemon=True).start()
    pending, records = {}, {}
    while len(records) < 2:
        side, item = calls.get()
        if isinstance(item, BaseException):
            raise item
        (pending if callable(item) else records)[side] = item
        if len(pending) == 2:
            this, other = _timed((pending[0], pending[1]), seconds, cal)
            answers[0].put({**this, "other": other})
            answers[1].put(other)
            pending = {}
    record = records[0]
    record["other"] = {"scaling_exponent": records[1]["scaling_exponent"]}
    return record


def _other_tree(src: Path):
    """This module again, its library names bound to the package in ``src``
    (imported as ``padicradial_other``)."""
    spec = importlib.util.spec_from_file_location(
        "padicradial_other", src / "padicradial" / "__init__.py",
        submodule_search_locations=[str(src / "padicradial")])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = pkg
    spec.loader.exec_module(pkg)
    spec = importlib.util.spec_from_file_location("scaling_other", __file__)
    twin = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(twin)
    for name in ("field", "laplace", "operators", "spectral"):
        setattr(twin, name, getattr(pkg, name))
    for name in ("FieldParams", "KRadialFunction", "expand", "inner_product"):
        setattr(twin, name, getattr(pkg.field, name))
    twin.operator_matrix = pkg.operators.operator_matrix
    return twin


def _at_reference_speed(rows: list, factor: float) -> None:
    """Scale every timing in ``rows`` (and its ``"other"``) by the run's calibration ``factor``."""
    for row in rows:
        for entry in row.values():
            for timing in (entry, entry.get("other", {})) if isinstance(entry, dict) else ():
                if "median" in timing:
                    timing["median"] *= factor
                    timing["min"] *= factor


def _exponents(sizes, rows, series) -> dict:
    out = {}
    for name in series:
        pts = [(n, r[name]) for n, r in zip(sizes, rows) if "refused" not in r[name]]
        if len(pts) >= 2:
            x = np.log([n for n, _ in pts])
            out[name] = {stat: round(float(np.polyfit(x, np.log([t[stat] for _, t in pts]), 1)[0]), 3)
                         for stat in ("median", "min")}
    return out


def laplace_layer(timed) -> dict:
    widths = (100, 200, 400, 800)
    rng = np.random.default_rng(1)
    rows = []
    for W in widths:
        m = W - 1
        phi = KRadialFunction(FieldParams(Q), 1 - W, 0, rng.standard_normal(W) + 1j * rng.standard_normal(W))
        tilde = laplace.laplace_transform(phi, (1 - m, m + 1))
        rows.append({
            "W": W,
            "transform_ms": timed(lambda: laplace.laplace_transform(phi, (1 - m, m + 1))),
            "invert_ms": timed(lambda: laplace.laplace_invert(tilde, phi.value_at(0), m)),
        })
    return {
        "q": Q,
        "range": "(1 - m, m + 1), m = W - 1; inversion with m_max = m",
        "per_call": rows,
        "scaling_exponent": _exponents(widths, rows, ("transform_ms", "invert_ms")),
    }


MATRICES = (("D1O", "e"), ("I1", "e"), ("I01", "e"), ("resolvent", "e"), ("J", "e"),
            ("D1O", "f"), ("I1", "f"), ("I01", "f"), ("resolvent", "f"), ("J", "f"))
SPECTRAL = ("volterra_check", "i1_eigenpairs", "j_diagnostics")


def operator_matrix_layer(timed) -> dict:
    dims = (40, 160, 640, 1280)
    p = FieldParams(Q)
    series = [f"{name} {basis}" for name, basis in MATRICES] + list(SPECTRAL)
    rows = []
    for dim in dims:
        row = {"dim": dim}
        for name, basis in MATRICES:
            row[f"{name} {basis}"] = timed(lambda: operator_matrix(p, name, basis, dim))
        for fn in SPECTRAL:
            row[fn] = timed(lambda: getattr(spectral, fn)(p, dim))
        check, matrix = row["volterra_check"], row["I01 f"]  # the matrix it is built on
        if "median" in check and "median" in matrix:
            check["dense_share"] = round(1.0 - matrix["median"] / check["median"], 3)
        rows.append(row)
    return {
        "q": Q,
        "families": "D1O, I1, I01, resolvent, J in e and f",
        "per_call": rows,
        "scaling_exponent": _exponents(dims, rows, series),
    }


def _random(rng, width: int) -> KRadialFunction:
    vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    return KRadialFunction(FieldParams(Q), 1 - width, 0, vals, complex(*rng.standard_normal(2)))


def expand_layer(timed) -> dict:
    dims, widths = (40, 160, 640), (100, 400, 1600)
    rng = np.random.default_rng(1)
    rows = []
    for dim in dims:
        image = _random(rng, dim)
        rows.append({"dim": dim, **{f"expand {family}": timed(lambda: expand(image, family, dim))
                                    for family in ("e", "f")}})
    short = field.make_basis(FieldParams(Q), "e", 9)
    counts = [{"count": count, "expand e_9": timed(lambda: expand(short, "e", count))} for count in dims]
    pairs = []
    for W in widths:
        u, v = _random(rng, W), _random(rng, W)
        pairs.append({"W": W, "inner_product": timed(lambda: inner_product(u, v))})
    return {
        "q": Q,
        "shapes": "expand: shells 1 - dim .. 0, nonzero tail, count = dim; "
                  "expand e_9: e_9 into count e-coefficients; "
                  "inner_product: shells 1 - W .. 0, nonzero tails",
        "per_call": rows + counts + pairs,
        "scaling_exponent": {**_exponents(dims, rows, ("expand e", "expand f")),
                             **_exponents(dims, counts, ("expand e_9",)),
                             **_exponents(widths, pairs, ("inner_product",))},
    }


# the order of apply_I_alpha and apply_D_alpha_O at each q: a head that is
# not a float32 (0.9), and an exact one
ORDERS = {3: 0.9, 7: 2.0}
APPLY = ("_scaled cold", "_scaled warm", "apply_I_alpha", "apply_I01", "apply_D_alpha_O", "laplace_transform")


def _forget_scales(tree_field) -> None:
    """Empty the shell-scale memo of ``_scaled``, where the tree has one."""
    memo = getattr(tree_field, "_shell_scales", None)
    if memo is not None:
        memo.cache_clear()


def apply_layer(timed) -> dict:
    widths = (100, 400, 1600)
    rng = np.random.default_rng(1)
    rows, exponents = [], {}
    for q, alpha in ORDERS.items():
        cells = []
        for W in widths:
            vals = rng.standard_normal(W) + 1j * rng.standard_normal(W)
            tail = complex(*rng.standard_normal(2))
            u = KRadialFunction(FieldParams(q, alpha), 1 - W, 0, vals, tail)
            u1 = KRadialFunction(FieldParams(q), 1 - W, 0, vals, tail)
            m = W - 1
            lo = max(1 - m, -int(1023 / math.log2(q)))  # q^(-lo) must be a double
            ns = np.arange(1.0 - W, 1.0)
            cells.append({
                "q": q, "W": W,
                "_scaled cold": timed(lambda: (_forget_scales(field),
                                               operators._scaled(vals, float(q), alpha, ns))),
                "_scaled warm": timed(lambda: operators._scaled(vals, float(q), alpha, ns)),
                "apply_I_alpha": timed(lambda: operators.apply_I_alpha(u)),
                "apply_I01": timed(lambda: operators.apply_I01(u1)),
                "apply_D_alpha_O": timed(lambda: operators.apply_D_alpha_O(u)),
                "laplace_transform": timed(lambda: laplace.laplace_transform(u1, (lo, m + 1))),
            })
        rows += cells
        exponents.update({f"{name} q={q}": fit for name, fit in _exponents(widths, cells, APPLY).items()})
    return {
        "orders": {str(q): alpha for q, alpha in ORDERS.items()},
        "shapes": "shells 1 - W .. 0, nonzero tail; _scaled of the values by q^(alpha n), "
                  "cold (its shell-scale memo emptied before each call) and warm, "
                  "apply_I_alpha and apply_D_alpha_O at the order of q, apply_I01, and "
                  "laplace_transform over (lo, m + 1), m = W - 1, lo = max(1 - m, -floor(1023 / log2 q)), "
                  "at order 1",
        "per_call": rows,
        "scaling_exponent": exponents,
    }


def scan_layer(timed) -> dict:
    widths, q = (10, 40, 100, 400, 1600), 3.0
    rng = np.random.default_rng(1)
    rows = []
    for W in widths:
        w, seed = rng.standard_normal(W) + 1j * rng.standard_normal(W), complex(*rng.standard_normal(2))
        rows.append({"W": W, "_decay": timed(lambda: field._decay(w, q, seed)),
                     "_scan": timed(lambda: field._scan(w, q, seed))})
    return {
        "q": q,
        "shapes": "one row: W shells, nonzero seed",
        "per_call": rows,
        "scaling_exponent": _exponents(widths, rows, ("_decay", "_scan")),
    }


CHARFN = ("characteristic_function", "order_certificate")


def charfn_layer(timed) -> dict:
    orders = (50, 200, 800)
    rows, exponents = [], {}
    for q in (2, 3):
        p = FieldParams(q)
        cells = []
        for T in orders:
            g12 = spectral.characteristic_function(p, T).w_coefficients()[0, 1]
            cells.append({
                "q": q, "T": T,
                "characteristic_function": timed(lambda: spectral.characteristic_function(p, T)),
                "order_certificate": timed(lambda: spectral.order_certificate(p, g12)),
            })
        rows += cells
        exponents.update({f"{name} q={q}": fit for name, fit in _exponents(orders, cells, CHARFN).items()})
    return {
        "shapes": "characteristic_function up to order T; order_certificate of its entry g12",
        "per_call": rows,
        "scaling_exponent": exponents,
    }


LAYERS = {"laplace": laplace_layer, "operator_matrix": operator_matrix_layer, "expand": expand_layer,
          "apply": apply_layer, "scan": scan_layer, "charfn": charfn_layer}


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
    ap.add_argument("--ab", type=Path, metavar="OTHER_SRC",
                    help="also time the package in this source tree, alternating per call and size")
    args = ap.parse_args(argv)
    cal = _load_calibrate().Calibrator()
    if args.ab:
        twin = _other_tree(args.ab.resolve())
        layer = _lockstep((LAYERS[args.layer], twin.LAYERS[args.layer]), args.seconds, cal)
        layer["other"] |= {"src": str(args.ab), "revision": twin._revision()}
    else:
        layer = LAYERS[args.layer](lambda fn: _timed([fn], args.seconds, cal)[0])
    factor = cal.factor()
    _at_reference_speed(layer["per_call"], factor)
    record = {
        "layer": args.layer,
        **layer,
        "speed_factor": round(factor, 4),
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
    # the calibration kernel and the calls it scales share one CPU
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
