"""Correctness checks of each call's output, run outside the timed region.

A check yields ``(label, residual, tolerance, margin)`` rows: the call
passes when every residual is within its tolerance.  Tolerances are the
library's own pinned values (``verify.DEFAULT_TOLERANCES``).  Rows with
``margin=True`` feed ``accuracy_margin_dec`` (an exact zero residual has
no finite margin and is left out); structural yes/no checks
(ranks, kernel dimensions, flags) pass with residual 0 or fail with ``inf``
and carry no margin.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

import oracle
from oracle import MATRIX_OPS, SHELL_OPS, Radial
from workloads import resolve

# window invariance is checked up to this width: the widened call is
# repeated outside the timed region, and deep windows are already covered
# by the oracle
INVARIANCE_MAX_W = 400
INVARIANCE_SHIFT = 3
SPOT_ENTRIES = 2
SPOT_MAX_INDEX = 24


def tolerances() -> dict:
    return dict(sys.modules["padicradial.verify"].DEFAULT_TOLERANCES)


def cli_ops() -> dict:
    """CLI operator name -> library function name, from the CLI's own table."""
    return {op: fn.__name__ for op, fn in importlib.import_module("padicradial.cli").APPLY_OPS.items()}


@dataclass
class Verdict:
    nonfinite: bool = False
    rows: list = field(default_factory=list)

    def add(self, label: str, residual: float, tol: float, margin: bool = True) -> None:
        self.rows.append((label, float(residual), float(tol), margin))

    def flag(self, label: str, ok: bool) -> None:
        self.rows.append((label, 0.0 if ok else math.inf, 0.0, False))

    def worst(self):
        """The first failing row as ``(residual, tol)``, else ``None``."""
        for _, res, tol, _ in self.rows:
            if not res <= tol:
                return res, tol
        return None

    def margins(self) -> list:
        return [math.log10(tol / res) for _, res, tol, margin in self.rows if margin and 0 < res <= tol]


def _finite_array(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a))))


# ---------------------------------------------------------------------------
# library calls


def check_call(call, out, rng) -> Verdict:
    v = Verdict()
    tol = tolerances()
    kind = call.fn.split(".")[1]
    if kind in SHELL_OPS:
        u = call.args[0]
        if not (_finite_array(out.values) and _finite_array(getattr(out, "inner_tail", 0.0))):
            v.nonfinite = True
            return v
        t = tol[SHELL_OPS[kind].tol]
        exact = oracle.exact_output(kind, Radial.of(u), out.n_lo, out.n_lo + len(out.values) - 1)
        v.add("oracle", oracle.output_residual(exact, out.values), t)
        if u.values.size <= INVARIANCE_MAX_W:
            wide = u.with_window(u.n_lo - INVARIANCE_SHIFT, u.n_hi)
            try:
                again = resolve(call.fn)(wide, *call.args[1:])
                res = oracle.overlap_residual(exact, out.n_lo, out.values, again.n_lo, again.values)
            except (ArithmeticError, ValueError):
                res = math.inf
            v.add("window invariance", res, t)
    elif kind == "laplace_invert":
        down, up = out
        if not (_finite_array(down) and _finite_array(up)):
            v.nonfinite = True
            return v
        v.add("round trip", oracle.roundtrip_residual(Radial.of(call.ref), down, up), tol["laplace_roundtrip"])
    elif kind == "norm":
        if not math.isfinite(out):
            v.nonfinite = True
            return v
        v.add("oracle", oracle.norm_residual(Radial.of(call.args[0]), out), tol["parseval"])
    elif kind == "inner_product":
        if not math.isfinite(abs(out)):
            v.nonfinite = True
            return v
        a, b = (Radial.of(x) for x in call.args)
        v.add("oracle", oracle.inner_residual(a, b, out), tol["parseval"])
    elif kind == "operator_matrix":
        if not _finite_array(out.entries):
            v.nonfinite = True
            return v
        check_matrix(v, call.params["q"], out.name, out.basis, out.entries, rng, tol)
    elif kind == "i1_eigenpairs":
        if not _finite_array(out.eigenvalues):
            v.nonfinite = True
            return v
        v.add("eigenvalues q^-m", eigen_gap(call.params["q"], out.eigenvalues), tol["i1_matrix_eigenvalues"])
    elif kind == "volterra_check":
        v.add("triangularity", out["max_lower_entry"], tol["volterra_triangularity"])
        v.add("nilpotency", out["max_abs_eigenvalue"], tol["volterra_eigenvalues"])
        v.flag("strictly triangular", out["strict_triangularity"])
        v.flag("kernel dimension 1", out["kernel_dim"] == 1)
    elif kind == "j_diagnostics":
        v.add("trace", abs(out["trace"]), tol["imaginary_part_trace"])
        v.flag("rank 2", int(np.sum(out["singular_values"] > tol["imaginary_part_rank_cut"])) == 2)
    elif kind == "characteristic_function":
        if not _finite_array(out.g):
            v.nonfinite = True
            return v
        v.flag("W(0) = E", bool(np.array_equal(out.evaluate(0.0), np.eye(2, dtype=complex))))
        v.add("order-0 pairings", charfn_gap(call.params["q"], out.g[:, :, 0]), tol["charfn_oracle"])
    elif kind == "order_certificate":
        v.flag("fitted C finite", math.isfinite(out["fitted_C"]))
        v.flag("order estimate", out["max_order_estimate"] <= tol["charfn_order"])
    else:  # pragma: no cover - every batch function has a check
        raise KeyError(call.fn)
    return v


def eigen_gap(q: int, eigenvalues) -> float:
    """Largest distance from an analytic eigenvalue ``q^-m`` to the computed set."""
    ev = np.asarray(eigenvalues)
    return max(float(np.min(np.abs(ev - float(q) ** -m))) for m in range(1, ev.size))


def check_matrix(v: Verdict, q: int, name: str, basis: str, entries, rng, tol) -> None:
    dim = entries.shape[0]
    if name == "J":
        v.add("trace", abs(np.trace(entries)), tol["imaginary_part_trace"])
        s = np.linalg.svd(entries, compute_uv=False)
        v.flag("rank 2", int(np.sum(s > tol["imaginary_part_rank_cut"])) == 2)
        return
    if name == "I1" and basis == "e":
        expected = np.zeros((dim, dim), dtype=complex)
        for N in range(1, dim):
            expected[0, N] = -math.sqrt(1.0 - 1.0 / q) * float(q) ** (-N / 2.0)
            expected[N, N] = float(q) ** (-N)
        v.add("closed-form pattern", float(np.abs(entries - expected).max()), tol["i1_matrix_pattern"])
        v.add("eigenvalues q^-m", eigen_gap(q, np.linalg.eigvals(entries)), tol["i1_matrix_eigenvalues"])
    if name == "I01" and basis == "f":
        v.add("strict triangularity", float(np.abs(entries[np.tril_indices(dim)]).max()),
              tol["volterra_triangularity"])
    top = min(dim, SPOT_MAX_INDEX)
    for _ in range(SPOT_ENTRIES):
        j, n = (int(x) for x in rng.integers(0, top, size=2))
        exact = oracle.matrix_entry(q, name, basis, j, n)
        scale = max(float(np.abs(entries[:, n]).max()), float(abs(exact)), 1e-300)
        v.add(f"entry ({j},{n})", float(abs(complex(entries[j, n]) - complex(exact))) / scale,
              tol[SHELL_OPS[MATRIX_OPS[name]].tol])


def charfn_gap(q: int, g0) -> float:
    """Order-0 coefficients against direct-sum log moments of the unit ball."""
    kap1 = (q - 1.0) / (1j * q * math.log(q))
    a0 = complex(oracle.ball_log_moment(q, 1))
    b0 = complex(oracle.ball_log_moment(q, 2))
    exact = np.array([[abs(kap1) ** 2, -kap1 * a0], [-np.conj(kap1) * a0, b0]])
    return float(np.abs(g0 - exact).max() / max(1.0, float(np.abs(exact).max())))


# ---------------------------------------------------------------------------
# CLI documents


def load_doc(path: str) -> Radial:
    with open(path) as fh:
        doc = json.load(fh)
    vals = tuple(complex(re_, im) for re_, im in doc["values"])
    tail = complex(*doc.get("inner_tail", (0.0, 0.0)))
    return Radial(int(doc["q"]), float(doc["alpha"]), int(doc["n_lo"]), int(doc["n_hi"]), vals, tail)


_VERIFY_LINE = re.compile(r"^(PASS|FAIL)\s+(.*?): measured (\S+) \(tolerance (\S+),")


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_invocation(inv, stdout: str, rng) -> Verdict:
    """Check one CLI output; a document that does not parse counts as non-finite."""
    v = Verdict()
    tol = tolerances()
    try:
        if inv.sub == "apply":
            name = cli_ops()[inv.params["op"]]
            out = load_doc(inv.out)
            if not oracle.all_finite(out.values + (out.tail,)):
                v.nonfinite = True
                return v
            inp = load_doc(inv.doc)
            inp = Radial(inp.q, inv.params["alpha"], inp.n_lo, inp.n_hi, inp.values, inp.tail)
            v.add("oracle", oracle.shell_residual(name, inp, out.n_lo, out.values), tol[SHELL_OPS[name].tol])
        elif inv.sub == "laplace":
            out = load_doc(inv.out)
            if not oracle.all_finite(out.values):
                v.nonfinite = True
                return v
            v.add("oracle", oracle.shell_residual("laplace_transform", load_doc(inv.doc), out.n_lo,
                                                  out.values), tol[SHELL_OPS["laplace_transform"].tol])
        elif inv.sub == "laplace-invert":
            doc = _read_json(inv.out)
            down = [complex(*z) for z in doc["phi_down"]]
            up = [complex(*z) for z in doc["phi_up"]]
            v.add("round trip", oracle.roundtrip_residual(load_doc(inv.doc), down, up), tol["laplace_roundtrip"])
        elif inv.sub == "matrix":
            with open(inv.out) as fh:
                rows = list(csv.reader(io.StringIO(fh.read())))
            entries = np.array([[complex(c.replace("i", "j")) for c in r[1:]] for r in rows[1:]])
            check_matrix(v, inv.params["q"], "I1", "e", entries, rng, tol)
        elif inv.sub == "spectrum":
            doc = _read_json(inv.out)
            ev = np.array([complex(*z) for z in doc["eigenvalues"]])
            v.add("eigenvalues q^-m", eigen_gap(inv.params["q"], ev), tol["i1_matrix_eigenvalues"])
        elif inv.sub == "charfn":
            doc = _read_json(inv.out)
            g0 = np.array([[complex(*doc[k][0]) for k in row] for row in (("g11", "g12"), ("g21", "g22"))])
            v.add("order-0 pairings", charfn_gap(inv.params["q"], g0), tol["charfn_oracle"])
            v.flag("order estimate", all(c["max_order_estimate"] <= tol["charfn_order"]
                                         for c in doc["order_certificate"].values()))
        elif inv.sub == "verify":
            v.flag("all checks passed", "ALL CHECKS PASSED" in stdout)
            for line in stdout.splitlines():
                m = _VERIFY_LINE.match(line)
                if m and m.group(2) != "whole suite runtime":
                    v.add(m.group(2), float(m.group(3)), float(m.group(4)))
        else:  # pragma: no cover
            raise KeyError(inv.sub)
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        v.nonfinite = True
    return v
