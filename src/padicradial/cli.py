"""Command-line front end.

Subcommands: ``apply``, ``matrix``, ``spectrum``, ``charfn``, ``laplace``,
``laplace-invert``, ``verify``.  Exit codes: 0 success, 1 verification
failure, 2 document/parse error, 3 operator precondition violation.
"""

from __future__ import annotations

import argparse
import sys

from .field import FieldParams, KRadialFunction
from .laplace import laplace_invert, laplace_transform
from .operators import (
    apply_D_alpha,
    apply_D_alpha_O,
    apply_I01,
    apply_I_alpha,
    apply_resolvent_D1O,
    operator_matrix,
)
from .serialize import (
    SchemaError,
    _fmt,
    _pair,
    dump_radial,
    dump_transform,
    load_radial,
    load_transform,
    matrix_csv,
    matrix_json,
)
from .spectral import characteristic_function, i1_eigenpairs, order_certificate
from .verify import DEFAULT_TOLERANCES, RunConfig, run_verification

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
    if args.q is not None or args.alpha is not None:
        params = FieldParams(args.q or u.params.q, args.alpha or u.params.alpha)
        u = KRadialFunction(params, u.n_lo, u.n_hi, u.values, u.inner_tail)
    image = APPLY_OPS[args.op](u)
    _write(dump_radial(image), args.out)
    return EXIT_OK


def cmd_matrix(args) -> int:
    mat = operator_matrix(FieldParams(args.q, args.alpha), args.op, args.basis, args.dim)
    text = matrix_csv(mat) if args.format == "csv" else matrix_json(mat)
    _write(text, args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    eig = i1_eigenpairs(FieldParams(args.q), args.dim)
    q = float(args.q)
    lines = [f'{{"q": {args.q}, "dim": {args.dim}, "eigenvalues": [']
    rows = []
    for lam in eig.eigenvalues:
        rows.append("  " + _pair(complex(lam)))
    lines.append(",\n".join(rows))
    worst = max(
        min(abs(z - q ** float(-m)) for z in eig.eigenvalues) for m in range(1, args.dim)
    )
    lines.append(f'], "max_gap_to_analytic": {_fmt(worst)}}}')
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_charfn(args) -> int:
    params = FieldParams(args.q)
    series = characteristic_function(params, args.terms)
    coeffs = series.w_coefficients()
    names = {(0, 0): "g11", (0, 1): "g12", (1, 0): "g21", (1, 1): "g22"}
    parts = [f'"q": {args.q}, "terms": {args.terms}']
    for (a, b), key in names.items():
        seq = ", ".join(_pair(complex(z)) for z in series.g[a, b])
        parts.append(f'"{key}": [{seq}]')
    certs = {
        names[(a, b)]: order_certificate(params, coeffs[a, b]) for a in range(2) for b in range(2)
    }
    cert_parts = ", ".join(
        f'"{k}": {{"fitted_C": {_fmt(v["fitted_C"])}, '
        f'"max_order_estimate": {_fmt(v["max_order_estimate"])}}}'
        for k, v in certs.items()
    )
    parts.append(f'"order_certificate": {{{cert_parts}}}')
    parts.append(f'"underflowed": {str(series.underflowed).lower()}')
    _write("{" + ", ".join(parts) + "}\n", args.out)
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
    down_txt = ", ".join(_pair(complex(z)) for z in down)
    up_txt = ", ".join(_pair(complex(z)) for z in up)
    _write(
        "{"
        f'"q": {tilde.params.q}, '
        f'"phi_at_1": {_pair(phi1)}, '
        f'"m_max": {args.m_max}, '
        f'"phi_down": [{down_txt}], '
        f'"phi_up": [{up_txt}]'
        "}\n",
        args.out,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    tolerances = dict(DEFAULT_TOLERANCES)
    for item in args.tolerance or []:
        name, _, value = item.partition("=")
        if name not in tolerances or not value:
            raise SchemaError(
                f"unknown tolerance {name!r}; expected one of {sorted(tolerances)}"
            )
        try:
            tolerances[name] = float(value)
        except ValueError as exc:
            raise SchemaError(f"tolerance {name!r} has a non-numeric value {value!r}") from exc
    config = RunConfig(
        q=args.q,
        alpha=args.alpha,
        depth=args.depth,
        dim=args.dim,
        terms=args.terms,
        tolerances=tolerances,
    )
    ok, results = run_verification(config)
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
    p.add_argument("--q", type=int, default=None, help="override the document's q")
    p.add_argument("--alpha", type=float, default=None, help="override the document's alpha")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("matrix", help="operator matrix in the e- or f-family")
    p.add_argument("op", choices=["D1O", "I1", "I01", "J", "resolvent"])
    p.add_argument("basis", choices=["e", "f"])
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1.0)
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

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--depth", type=int, default=60)
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--terms", type=int, default=25)
    p.add_argument(
        "--tolerance",
        action="append",
        metavar="NAME=VALUE",
        help="override one named tolerance (repeatable)",
    )
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
