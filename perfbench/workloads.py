"""Seeded inputs of the three workloads.

Each workload is a fixed batch of closed-loop calls issued one after
another by a single client.  The structure of a batch (which function, at
which ``q``, ``alpha``, window width or dimension) is the same for every
seed, so the work per pass does not depend on the seed; the seed draws the
shell values, tail values and call order, and the matrix entries the
oracle samples.

* ``shell-sweep``: deep and shallow operator applications.  The O(W^2)
  per-shell loops of ``operators`` and ``laplace`` do almost all the work.
* ``matrix-spectra``: operator matrices and spectra.  Thousands of
  tiny-window ``apply_*`` and ``inner_product`` calls inside
  ``operator_matrix``; ``field.expand`` dominates.
* ``cli-documents``: one ``python -m padicradial.cli`` process per call,
  so interpreter start, import, document parse/dump and ``verify`` dominate.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("shell-sweep", "matrix-spectra", "cli-documents")

WIDTHS = (100, 400, 1600)
QS = (2, 3, 5, 7)
NEAR_POLE = 1.0 + 1e-13
# deep e_N per q: q^N just past the double range (e_1100 at q=2 is the
# ROADMAP case); the shallow e_40 is the passing control
DEEP_BASIS = {2: 1100, 3: 700, 5: 480, 7: 400}


@dataclass
class Call:
    """One public library call: ``module.function(*args)``.

    ``chain`` builds leading arguments from the previous call's output, for
    calls that consume it (``laplace_invert`` after ``laplace_transform``).
    """

    fn: str
    args: tuple
    params: dict
    chain: Callable | None = None
    ref: object = None  # what a check compares against, when not in ``args``


@dataclass
class Invocation:
    """One CLI process: ``padicradial <argv>``; ``out`` is the written document."""

    sub: str
    argv: list
    params: dict
    out: str | None = None
    doc: str | None = None  # input document this invocation reads


def resolve(fn: str):
    """The library function a ``Call`` names, looked up at call time so a
    tracer's wrapper is picked up."""
    mod, name = fn.split(".")
    return getattr(sys.modules[f"padicradial.{mod}"], name)


def _values(rng, width: int) -> np.ndarray:
    return rng.standard_normal(width) + 1j * rng.standard_normal(width)


def _shuffled(rng, groups: list) -> list:
    order = rng.permutation(len(groups))
    return [call for i in order for call in groups[i]]


def shell_sweep(seed: int) -> list:
    from padicradial.field import FieldParams, KRadialFunction, make_basis

    rng = np.random.default_rng([seed, 1])
    groups = []
    for W in WIDTHS:
        # alpha clusters near 1; the extra orders stop at W = 400, which also
        # puts the median latency inside the W = 100 derivative cluster
        # rather than on its edge
        alphas = (0.5, 0.9, 1.0, 1.1, 2.0) if W < 1600 else (0.5, 1.0, 2.0)
        for q in QS:
            vals = _values(rng, W)
            tail = complex(*rng.standard_normal(2)) if q in (3, 7) else 0j
            other = _values(rng, W)

            def radial(a: float, v=vals, t=tail, q=q, W=W):
                return KRadialFunction(FieldParams(q, a), 1 - W, 0, v, t)

            for a in alphas:
                u = radial(a)
                p = {"q": q, "alpha": a, "W": W}
                groups.append([Call("operators.apply_D_alpha", (u,), p)])
                groups.append([Call("operators.apply_D_alpha_O", (u,), p)])
                groups.append([Call("operators.apply_I_alpha", (u,), p)])
            if W == 100:
                u = radial(NEAR_POLE)
                groups.append([Call("operators.apply_I_alpha", (u,), {"q": q, "alpha": NEAR_POLE, "W": W})])
            u1 = radial(1.0)
            p1 = {"q": q, "alpha": 1.0, "W": W}
            groups.append([Call("operators.apply_I01", (u1,), p1)])
            if W < 1600 or q == 3:
                groups.append([Call("operators.apply_resolvent_D1O", (u1,), p1)])
            if W < 1600 or q in (3, 7):
                m = W - 1
                groups.append([
                    Call("laplace.laplace_transform", (u1, (1 - m, m + 1)), p1),
                    Call("laplace.laplace_invert", (u1.value_at(0), m), p1, chain=lambda prev: (prev,), ref=u1),
                ])
            v = KRadialFunction(FieldParams(q, 1.0), 1 - W, 0, other, tail)
            groups.append([Call("field.norm", (u1,), p1)])
            groups.append([Call("field.inner_product", (u1, v), p1)])
    for q in QS:
        for N in (40, DEEP_BASIS[q]):
            e = make_basis(FieldParams(q, 1.0), "e", N)
            groups.append([Call("field.norm", (e,), {"q": q, "N": N})])
    return _shuffled(rng, groups)


def matrix_spectra(seed: int) -> list:
    from padicradial.field import FieldParams

    rng = np.random.default_rng([seed, 2])
    ops = ("D1O", "I1", "I01", "J", "resolvent")
    groups = []

    def mat(name, basis, q, dim):
        return [Call("operators.operator_matrix", (FieldParams(q), name, basis, dim),
                     {"op": name, "basis": basis, "q": q, "dim": dim})]

    for name in ops:
        groups.append(mat(name, "e", 2, 40))
        groups.append(mat(name, "f", 3, 40))
    # dim 80 and 160 keep to operators of like cost, so the slowest calls
    # form one cluster per pass and the tail percentile sits inside it
    for name in ("D1O", "I1", "I01", "J"):
        groups.append(mat(name, "f", 2, 80))
    groups.append(mat("I1", "e", 2, 160))
    groups.append(mat("J", "f", 3, 160))
    for q in (2, 3):
        p = FieldParams(q)
        pq = {"q": q, "dim": 40}
        groups.append([Call("spectral.i1_eigenpairs", (p, 40), pq)])
        groups.append([Call("spectral.volterra_check", (p, 40), pq)])
        groups.append([Call("spectral.j_diagnostics", (p, 40), pq)])
        groups.append([
            Call("spectral.characteristic_function", (p, 200), {"q": q, "T": 200}),
            Call("spectral.order_certificate", (), {"q": q, "T": 200, "entry": "g12"},
                 chain=lambda prev, p=p: (p, prev.w_coefficients()[0, 1])),
        ])
    return _shuffled(rng, groups)


def library_batch(workload: str, seed: int) -> list:
    return {"shell-sweep": shell_sweep, "matrix-spectra": matrix_spectra}[workload](seed)


def _size(call: Call) -> int:
    return call.params.get("W") or call.params.get("dim") or call.params.get("N") or 0


def warm_subset(batch: list) -> list:
    """The smallest call of each function (with its chained successor)."""
    best = {}
    for i, call in enumerate(batch):
        if call.chain is None and (call.fn not in best or _size(call) < _size(batch[best[call.fn]])):
            best[call.fn] = i
    out = []
    for i in sorted(best.values()):
        out.append(batch[i])
        if i + 1 < len(batch) and batch[i + 1].chain is not None:
            out.append(batch[i + 1])
    return out


# ---------------------------------------------------------------------------
# cli-documents


def _doc(q: int, alpha: float, width: int, values: np.ndarray, tail: complex) -> str:
    return json.dumps({
        "q": q,
        "alpha": alpha,
        "n_lo": 1 - width,
        "n_hi": 0,
        "values": [[float(z.real), float(z.imag)] for z in values],
        "inner_tail": [tail.real, tail.imag],
    }) + "\n"


CLI_DOCS = {  # name: (q, alpha, W)
    "w100": (3, 0.5, 100),
    "w1600": (2, 1.0, 1600),
}

def cli_documents(seed: int, workdir: str) -> list:
    """Write the seeded input documents into ``workdir``; return the batch."""
    from padicradial.cli import APPLY_OPS

    rng = np.random.default_rng([seed, 3])
    paths, top = {}, {}
    for name, (q, a, W) in CLI_DOCS.items():
        vals = _values(rng, W)
        top[name] = complex(vals[-1])
        tail = complex(*rng.standard_normal(2))
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(_doc(q, a, W, vals, tail))

    def out(name):
        return os.path.join(workdir, name)

    groups = []
    for q, a in ((2, 1.0), (3, 0.5), (5, 2.0)):
        groups.append([Invocation("verify", ["verify", "--q", str(q), "--alpha", str(a)], {"q": q, "alpha": a})])
    for name, (q, a, W) in CLI_DOCS.items():
        for op in APPLY_OPS:
            argv = ["apply", op, paths[name], "--out", out(f"{name}-{op}.out.json")]
            alpha = a
            if op == "resolvent" and a != 1.0:
                argv += ["--alpha", "1"]
                alpha = 1.0
            groups.append([Invocation("apply", argv, {"op": op, "q": q, "alpha": alpha, "W": W},
                                      out=argv[4], doc=paths[name])])
    name = min(CLI_DOCS, key=lambda k: CLI_DOCS[k][2])
    q, a, W = CLI_DOCS[name]
    m = W - 1
    tilde = out(f"{name}-tilde.json")
    groups.append([
        Invocation("laplace", ["laplace", paths[name], "--range", str(1 - m), str(m + 1), "--out", tilde],
                   {"q": q, "alpha": a, "W": W}, out=tilde, doc=paths[name]),
        Invocation("laplace-invert", ["laplace-invert", tilde, "--phi1", repr(top[name].real), repr(top[name].imag),
                                      "--m-max", str(m), "--out", out(f"{name}-inv.json")],
                   {"q": q, "alpha": a, "W": W}, out=out(f"{name}-inv.json"), doc=paths[name]),
    ])
    groups.append([Invocation("matrix", ["matrix", "I1", "e", "--q", "2", "--dim", "40", "--format", "csv",
                                         "--out", out("i1.csv")], {"q": 2, "dim": 40}, out=out("i1.csv"))])
    groups.append([Invocation("spectrum", ["spectrum", "--q", "2", "--dim", "20", "--out", out("spec.json")],
                              {"q": 2, "dim": 20}, out=out("spec.json"))])
    groups.append([Invocation("charfn", ["charfn", "--q", "2", "--terms", "60", "--out", out("charfn.json")],
                              {"q": 2, "terms": 60}, out=out("charfn.json"))])
    return _shuffled(rng, groups)


def cli_warm(batch: list) -> list:
    """The warm-up pass of ``cli-documents``: one ``apply I01`` on the smallest document."""
    applies = [inv for inv in batch if inv.sub == "apply" and inv.params["op"] == "I01"]
    return [min(applies, key=lambda inv: inv.params["W"])]


def probe(seed: int, workdir: str) -> tuple[list, list]:
    """A small batch that reaches every traced layer: the warm-up calls of
    both library workloads and, per CLI subcommand, its first invocation on
    the smallest document.  Measures the layers a workload never reaches."""
    calls = warm_subset(shell_sweep(seed)) + warm_subset(matrix_spectra(seed))
    batch = cli_documents(seed, workdir)
    first = {}
    for inv in sorted(batch, key=lambda inv: inv.params.get("W", 0)):
        first.setdefault(inv.sub, inv)
    return calls, [inv for inv in batch if first[inv.sub] is inv]
