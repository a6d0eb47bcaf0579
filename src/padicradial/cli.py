"""Command-line front end.

Subcommands: ``apply``, ``matrix``, ``spectrum``, ``charfn``, ``laplace``,
``laplace-invert``, ``verify``.  Exit codes: 0 success, 1 verification
failure, 2 document/parse error, 3 operator precondition violation.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .field import FieldParams, KRadialFunction
from .laplace import laplace_invert, laplace_transform
from .operators import (
    OPERATOR_NAMES,
    apply_D_alpha,
    apply_D_alpha_O,
    apply_I01,
    apply_I_alpha,
    apply_resolvent_D1O,
    operator_matrix,
)
from .serialize import (
    SchemaError,
    dump,
    dump_radial,
    dump_transform,
    load_radial,
    load_transform,
    matrix_csv,
    matrix_json,
)
from .spectral import ShortSeriesError, characteristic_function, i1_eigenpairs, order_certificate
from .verify import run_verification

APPLY_OPS = {
    "Dalpha": apply_D_alpha,
    "DalphaO": apply_D_alpha_O,
    "Ialpha": apply_I_alpha,
    "I01": apply_I01,
    "resolvent": apply_resolvent_D1O,
}

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def cmd_apply(args) -> int:
    u = load_radial(_read(args.input))
    alpha = u.params.alpha if args.alpha is None else args.alpha
    u = KRadialFunction(FieldParams(u.params.q, alpha), u.n_lo, u.n_hi, u.values, u.inner_tail)
    image = APPLY_OPS[args.op](u)
    _write(dump_radial(image), args.out)
    return EXIT_OK


def cmd_matrix(args) -> int:
    mat = operator_matrix(FieldParams(args.q), args.op, args.basis, args.dim)
    text = matrix_csv(mat) if args.format == "csv" else matrix_json(mat)
    _write(text, args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    ev = i1_eigenpairs(FieldParams(args.q), args.dim).eigenvalues
    analytic = np.array([float(args.q) ** -m for m in range(1, args.dim)])
    worst = float(np.abs(ev[:, None] - analytic).min(axis=0).max())  # nearest eigenvalue, worst m
    doc = {"q": args.q, "dim": args.dim, "eigenvalues": ev, "max_gap_to_analytic": worst}
    _write(dump(doc), args.out)
    return EXIT_OK


def _certificate(params: FieldParams, coeffs):
    """The growth certificate of one entry, or ``None`` for too few normal coefficients."""
    with contextlib.suppress(ShortSeriesError):
        return order_certificate(params, coeffs)


def cmd_charfn(args) -> int:
    params = FieldParams(args.q)
    series = characteristic_function(params, args.terms)
    coeffs = series.w_coefficients()
    entries = {"g11": (0, 0), "g12": (0, 1), "g21": (1, 0), "g22": (1, 1)}
    doc = {"q": args.q, "terms": args.terms}
    doc |= {key: series.g[ab] for key, ab in entries.items()}
    doc["order_certificate"] = {key: _certificate(params, coeffs[ab]) for key, ab in entries.items()}
    doc["underflowed"] = series.underflowed
    _write(dump(doc), args.out)
    return EXIT_OK


def cmd_laplace(args) -> int:
    phi = load_radial(_read(args.input))
    lo, hi = args.range
    tilde = laplace_transform(phi, (lo, hi))
    _write(dump_transform(tilde), args.out)
    return EXIT_OK


def cmd_laplace_invert(args) -> int:
    tilde = load_transform(_read(args.input))
    phi1 = complex(args.phi1[0], args.phi1[1])
    down, up = laplace_invert(tilde, phi1, args.m_max)
    doc = {"q": tilde.params.q, "phi_at_1": phi1, "m_max": args.m_max, "phi_down": down, "phi_up": up}
    _write(dump(doc), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    ok, results = run_verification(FieldParams(args.q, args.alpha))
    for res in results:
        print(res.line())
    print(f"{'ALL CHECKS PASSED' if ok else 'VERIFICATION FAILED'} (q={args.q}, alpha={args.alpha})")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicradial",
        description="Radial calculus on a non-Archimedean local field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply an operator to a radial-function document")
    p.add_argument("op", choices=sorted(APPLY_OPS))
    p.add_argument("input", help="radial-function JSON document")
    p.add_argument("--alpha", type=float, default=None, help="override the document's alpha")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("matrix", help="operator matrix in the e- or f-family")
    p.add_argument("op", choices=OPERATOR_NAMES)
    p.add_argument("basis", choices=["e", "f"])
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("spectrum", help="eigenvalues of the order-one integral")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("charfn", help="characteristic-function coefficients and certificate")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--terms", type=int, default=25)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_charfn)

    p = sub.add_parser("laplace", help="forward transform of a radial-function document")
    p.add_argument("input")
    p.add_argument("--range", type=int, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_laplace)

    p = sub.add_parser("laplace-invert", help="invert a transform document")
    p.add_argument("input")
    p.add_argument("--phi1", type=float, nargs=2, required=True, metavar=("RE", "IM"))
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_laplace_invert)

    p = sub.add_parser("verify", help="run the full verification suite at its pinned tolerances")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
