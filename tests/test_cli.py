"""Document schemas and the command-line surface, including exit codes."""

import json
import math

import numpy as np
import pytest

from padicradial import cli, verify
from padicradial.cli import main
from padicradial.field import FieldParams, KRadialFunction, make_basis
from padicradial.serialize import (
    SchemaError,
    dump,
    dump_radial,
    dump_transform,
    load_radial,
    load_transform,
    matrix_csv,
)
from padicradial.laplace import TransformSequence
from padicradial.operators import operator_matrix
from padicradial.spectral import characteristic_function, i1_eigenpairs, order_certificate

P2 = FieldParams(2, 1.0)


def test_radial_document_round_trip_is_byte_identical():
    u = KRadialFunction(P2, -3, 0, [1.5, -2.25, 0.125 + 0.5j, 1e-17], inner_tail=0.75)
    text = dump_radial(u)
    again = dump_radial(load_radial(text))
    assert text == again
    doc = json.loads(text)
    assert list(doc) == ["q", "alpha", "n_lo", "n_hi", "values", "inner_tail"]


def test_transform_document_round_trip():
    t = TransformSequence(P2, -2, 3, np.arange(6) * (1 - 0.5j))
    text = dump_transform(t)
    assert text == dump_transform(load_transform(text))


def test_schema_errors_name_the_field():
    with pytest.raises(SchemaError, match="n_lo"):
        load_radial('{"q": 2, "alpha": 1, "n_hi": 0, "values": [[1, 0]], "inner_tail": [0, 0]}')
    with pytest.raises(SchemaError, match="values"):
        load_radial('{"q": 2, "alpha": 1, "n_lo": -1, "n_hi": 0, "values": [[1, 0]], "inner_tail": [0, 0]}')
    with pytest.raises(SchemaError, match="JSON"):
        load_radial("{not json")
    with pytest.raises(SchemaError):
        load_radial('{"q": 1, "alpha": 1, "n_lo": 0, "n_hi": 0, "values": [[1, 0]], "inner_tail": [0, 0]}')


def test_matrix_csv_layout():
    text = matrix_csv(operator_matrix(P2, "I1", "e", 3))
    lines = text.strip().split("\n")
    assert lines[0] == "j\\n,0,1,2"
    assert lines[1].startswith("0,")
    cell = lines[1].split(",")[2]  # entry (0, 1) in the unit-normalized family
    assert complex(cell.replace("i", "j")) == pytest.approx(-0.5, abs=1e-14)


# Exact bytes of every document kind on tiny inputs.  The input below has a
# -0.0 imaginary part (printed as 0) and a purely imaginary shell.
GOLDEN_INPUT = (
    '{"q": 2, "alpha": 1, "n_lo": -2, "n_hi": 0, '
    '"values": [[1.5, 0], [-0.25, 0], [0, 0.125]], "inner_tail": [0.75, 0]}\n'
)
GOLDEN_TRANSFORM = (
    '{"q": 2, "alpha": 1, "n_lo": -3, "n_hi": 4, "values": [[0.21875, 0.0625], '
    "[0.21875, 0.0625], [0.21875, 0.0625], [0.21875, 0.0625], [0.21875, -0.0625], "
    "[0.34375, 0], [-0.09375, 0], [0, 0]]}\n"
)
GOLDEN_DOCS = {
    "radial": (
        ["apply", "I01", "{u}"],
        '{"q": 2, "alpha": 1, "n_lo": -2, "n_hi": 0, '
        '"values": [[-0.09375, 0], [-0.234375, 0], [-0.34375, 0]], "inner_tail": [0, 0]}\n',
    ),
    "transform": (["laplace", "{u}", "--range", "-3", "4"], GOLDEN_TRANSFORM),
    "laplace-invert": (
        ["laplace-invert", "{t}", "--phi1", "0", "0.125", "--m-max", "2"],
        '{"q": 2, "phi_at_1": [0, 0.125], "m_max": 2, '
        '"phi_down": [[-0.25, 0], [1.5, 0]], "phi_up": [[0, 0], [0, 0]]}\n',
    ),
    "matrix-json": (
        ["matrix", "J", "e", "--dim", "2"],
        '{"q": 2, "name": "J", "basis": "e", "dim": 2, "entries": '
        "[[[0, 0], [0, 0.25000000000000006]], [[0, -0.25000000000000006], [0, 0]]]}\n",
    ),
    "matrix-csv": (
        ["matrix", "J", "e", "--dim", "2", "--format", "csv"],
        "j\\n,0,1\n0,0+0i,0+0.25000000000000006i\n1,0-0.25000000000000006i,0+0i\n",
    ),
    "spectrum": (
        ["spectrum", "--dim", "3"],
        '{"q": 2, "dim": 3, "eigenvalues": [[0.5, 0], [0.25, 0], [0, 0]], "max_gap_to_analytic": 0}\n',
    ),
}


def test_golden_input_document_bytes():
    u = KRadialFunction(P2, -2, 0, [1.5, complex(-0.25, -0.0), 0.125j], inner_tail=0.75)
    assert dump_radial(u) == GOLDEN_INPUT
    t = load_transform(GOLDEN_TRANSFORM)
    assert dump_transform(t) == GOLDEN_TRANSFORM


@pytest.mark.parametrize("kind", sorted(GOLDEN_DOCS))
def test_cli_document_golden_bytes(tmp_path, kind):
    argv, expected = GOLDEN_DOCS[kind]
    files = {"u": tmp_path / "u.json", "t": tmp_path / "t.json"}
    files["u"].write_text(GOLDEN_INPUT)
    files["t"].write_text(GOLDEN_TRANSFORM)
    dst = tmp_path / "out"
    argv = [a.format(**{k: str(v) for k, v in files.items()}) for a in argv]
    assert main(argv + ["--out", str(dst)]) == 0
    assert dst.read_bytes() == expected.encode()


def test_cli_charfn_golden_layout(tmp_path):
    # the coefficients are transcendental, so the expected bytes are rebuilt
    # from the parsed numbers; key order, separators and the 17-digit
    # rendering are pinned
    dst = tmp_path / "w.json"
    assert main(["charfn", "--terms", "11", "--out", str(dst)]) == 0
    text = dst.read_text()
    doc = json.loads(text)

    def num(x):
        return format(float(x) + 0.0, ".17g")

    def seq(pairs):
        return "[" + ", ".join(f"[{num(re)}, {num(im)}]" for re, im in pairs) + "]"

    keys = ("g11", "g12", "g21", "g22")
    certs = ", ".join(
        f'"{k}": {{"fitted_C": {num(c["fitted_C"])}, "max_order_estimate": {num(c["max_order_estimate"])}}}'
        for k, c in doc["order_certificate"].items()
    )
    expected = (
        '{"q": 2, "terms": 11, '
        + ", ".join(f'"{k}": {seq(doc[k])}' for k in keys)
        + f', "order_certificate": {{{certs}}}, "underflowed": false}}\n'
    )
    assert list(doc["order_certificate"]) == list(keys)
    assert text == expected


def test_cli_apply_derivative_doubles_first_step_function(tmp_path):
    v1 = make_basis(P2, "v", 1)
    src = tmp_path / "v1.json"
    dst = tmp_path / "out.json"
    src.write_text(dump_radial(v1))
    assert main(["apply", "Dalpha", str(src), "--out", str(dst)]) == 0
    out = load_radial(dst.read_text())
    assert out.value_at(-1) == pytest.approx(2.0, abs=1e-13)
    assert out.value_at(0) == pytest.approx(-2.0, abs=1e-13)
    assert out.inner_tail == pytest.approx(2.0, abs=1e-13)


def test_cli_apply_volterra_to_constant(tmp_path):
    one = KRadialFunction(P2, -8, 0, np.ones(9), 1.0)
    src = tmp_path / "one.json"
    src.write_text(dump_radial(one))
    dst = tmp_path / "img.json"
    assert main(["apply", "I01", str(src), "--out", str(dst)]) == 0
    img = load_radial(dst.read_text())
    for n in range(-8, 1):
        assert img.value_at(n) == pytest.approx(-0.5 * 2.0**n, abs=1e-15)


def test_cli_apply_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["apply", "Dalpha", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_apply_precondition_violation_exits_3(tmp_path, capsys):
    # ball-supported operator on a function sticking out of the ball
    doc = KRadialFunction(P2, 0, 2, [1.0, 1.0, 1.0])
    src = tmp_path / "wide.json"
    src.write_text(dump_radial(doc))
    assert main(["apply", "Ialpha", str(src)]) == 3
    assert "unit ball" in capsys.readouterr().err


def test_cli_apply_infinite_alpha_exits_2(tmp_path, capsys):
    # json.loads accepts the literal Infinity; the field parameters must not
    src = tmp_path / "inf.json"
    src.write_text(dump_radial(make_basis(P2, "f", 1)).replace('"alpha": 1', '"alpha": Infinity'))
    assert main(["apply", "Dalpha", str(src)]) == 2
    assert "finite" in capsys.readouterr().err


def test_cli_missing_input_exits_2(tmp_path):
    assert main(["apply", "Dalpha", str(tmp_path / "absent.json")]) == 2


def test_cli_matrix_csv_matches_library(tmp_path):
    dst = tmp_path / "mat.csv"
    assert main(["matrix", "I1", "e", "--q", "2", "--dim", "4", "--format", "csv", "--out", str(dst)]) == 0
    assert dst.read_text() == matrix_csv(operator_matrix(P2, "I1", "e", 4))


def test_cli_matrix_beyond_the_double_range_exits_3(tmp_path, capsys):
    dst = tmp_path / "m.json"
    argv = ["matrix", "D1O", "e", "--q", "2", "--dim", "1280", "--out", str(dst)]
    assert main(argv) == 3
    assert not dst.exists()
    err = capsys.readouterr().err
    assert "D1O matrix in the e-family at q=2, dim=1280" in err and "Traceback" not in err


def test_cli_matrix_json_parses(tmp_path):
    dst = tmp_path / "mat.json"
    assert main(["matrix", "I01", "f", "--dim", "5", "--out", str(dst)]) == 0
    doc = json.loads(dst.read_text())
    assert doc["dim"] == 5 and doc["basis"] == "f"
    assert doc["entries"][2][1] == [0.0, 0.0]  # strictly triangular


def test_cli_spectrum_reports_geometric_eigenvalues(tmp_path):
    dst = tmp_path / "spec.json"
    assert main(["spectrum", "--q", "2", "--dim", "20", "--out", str(dst)]) == 0
    doc = json.loads(dst.read_text())
    eigs = [complex(re, im) for re, im in doc["eigenvalues"]]
    for m in range(1, 20):
        assert min(abs(z - 2.0**-m) for z in eigs) < 1e-10
    assert doc["max_gap_to_analytic"] < 1e-10


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("dim", [2, 20, 160])
def test_cli_spectrum_gap_is_the_pairwise_loop(tmp_path, q, dim):
    # for each analytic eigenvalue q^-m the nearest computed one, and the
    # worst of those: the same float as the pairwise Python loop
    dst = tmp_path / "spec.json"
    assert main(["spectrum", "--q", str(q), "--dim", str(dim), "--out", str(dst)]) == 0
    ev = i1_eigenpairs(FieldParams(q), dim).eigenvalues
    loop = max(min(abs(z - float(q) ** -m) for z in ev) for m in range(1, dim))
    assert json.loads(dst.read_text())["max_gap_to_analytic"] == loop


def test_cli_charfn_document(tmp_path):
    dst = tmp_path / "w.json"
    assert main(["charfn", "--q", "2", "--terms", "25", "--out", str(dst)]) == 0
    doc = json.loads(dst.read_text())
    for key in ("g11", "g12", "g21", "g22"):
        assert len(doc[key]) == 26
        assert doc["order_certificate"][key]["max_order_estimate"] <= 0.1
    assert doc["g11"][0][0] == pytest.approx((2 - 1) ** 2 / (2**2 * math.log(2.0) ** 2))


@pytest.mark.parametrize("terms", [1, 8])
def test_cli_charfn_short_series_writes_null_certificates(tmp_path, terms):
    # below 9 terms no entry has the 10 normal coefficients a certificate
    # needs: the document is written with each certificate null
    dst = tmp_path / "w.json"
    assert main(["charfn", "--q", "3", "--terms", str(terms), "--out", str(dst)]) == 0
    doc = json.loads(dst.read_text())
    assert doc["order_certificate"] == {key: None for key in ("g11", "g12", "g21", "g22")}
    assert len(doc["g12"]) == terms + 1


@pytest.mark.parametrize("q", [2, 7])
def test_cli_charfn_document_with_certificates_is_unchanged(tmp_path, q):
    # the bytes of a document whose every entry is certified: the series,
    # the four certificates and the underflow flag, in this order
    dst = tmp_path / "w.json"
    assert main(["charfn", "--q", str(q), "--terms", "60", "--out", str(dst)]) == 0
    p = FieldParams(q)
    series = characteristic_function(p, 60)
    coeffs = series.w_coefficients()
    doc = {"q": q, "terms": 60, "g11": series.g[0, 0], "g12": series.g[0, 1], "g21": series.g[1, 0],
           "g22": series.g[1, 1]}
    doc["order_certificate"] = {key: order_certificate(p, coeffs[a, b])
                                for key, (a, b) in zip(("g11", "g12", "g21", "g22"), np.ndindex(2, 2))}
    doc["underflowed"] = series.underflowed
    assert dst.read_text() == dump(doc)


def test_cli_charfn_other_refusals_still_exit_3(tmp_path, monkeypatch, capsys):
    # only the short-series refusal of the certificate is written as null
    def refuse(params, series):
        raise ValueError("coefficient 3 is not finite: nan")

    monkeypatch.setattr(cli, "order_certificate", refuse)
    assert main(["charfn", "--terms", "20", "--out", str(tmp_path / "w.json")]) == 3
    assert "coefficient 3 is not finite" in capsys.readouterr().err
    assert not (tmp_path / "w.json").exists()


def test_cli_charfn_flags_underflow(tmp_path):
    # at q = 7 every entry is zero from n = 28 on, over half of the 61 terms
    dst = tmp_path / "w.json"
    assert main(["charfn", "--q", "7", "--terms", "60", "--out", str(dst)]) == 0
    doc = json.loads(dst.read_text())
    assert doc["g22"][-1] == [0.0, 0.0]
    assert doc["underflowed"] is True


def test_cli_charfn_certificate_skips_subnormal_coefficients(tmp_path):
    # g21's fit used to peak at a subnormal coefficient (n = 28) and read 1.926
    dst = tmp_path / "w.json"
    assert main(["charfn", "--q", "7", "--terms", "60", "--out", str(dst)]) == 0
    cert = json.loads(dst.read_text())["order_certificate"]["g21"]
    assert cert["fitted_C"] == pytest.approx(1.86419497, abs=1e-8)
    assert cert["max_order_estimate"] == 0.0


def test_cli_laplace_and_invert_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    phi = KRadialFunction(P2, -6, 0, rng.standard_normal(7))
    src = tmp_path / "phi.json"
    src.write_text(dump_radial(phi))
    tr = tmp_path / "tilde.json"
    assert main(["laplace", str(src), "--range", "-9", "11", "--out", str(tr)]) == 0
    inv = tmp_path / "back.json"
    assert main([
        "laplace-invert", str(tr), "--phi1", str(phi.value_at(0).real), "0",
        "--m-max", "8", "--out", str(inv),
    ]) == 0
    doc = json.loads(inv.read_text())
    for m in range(1, 9):
        assert complex(*doc["phi_down"][m - 1]) == pytest.approx(phi.value_at(-m), abs=1e-12)
        assert complex(*doc["phi_up"][m - 1]) == pytest.approx(phi.value_at(m), abs=1e-12)


def test_cli_laplace_invert_non_finite_exits_3_and_writes_nothing(tmp_path, capsys):
    # the cumulative sums overflow to inf and then inf - inf = nan; JSON has
    # no token for either, so the document is refused rather than written
    src = tmp_path / "big.json"
    big = [[1e308, 0], [-1e308, 0], [1e308, 0], [-1e308, 0], [1e308, 0]]
    src.write_text(json.dumps({"q": 2, "alpha": 1, "n_lo": -1, "n_hi": 3, "values": big}))
    dst = tmp_path / "inv.json"
    argv = ["laplace-invert", str(src), "--phi1", "0", "0", "--m-max", "2", "--out", str(dst)]
    assert main(argv) == 3
    assert "'phi_down'" in capsys.readouterr().err
    assert not dst.exists()


def test_cli_laplace_invert_weight_overflow_exits_3(tmp_path, capsys):
    # q = 2, m = 1024: the transform fits the double range, the weight 2^1024 does not
    m = 1024
    src = tmp_path / "phi.json"
    src.write_text(dump_radial(KRadialFunction(P2, -m, 0, np.linspace(-1.0, 1.0, m + 1), 0.5)))
    tr = tmp_path / "tilde.json"
    assert main(["laplace", str(src), "--range", str(1 - m), str(m + 1), "--out", str(tr)]) == 0
    dst = tmp_path / "inv.json"
    argv = ["laplace-invert", str(tr), "--phi1", "1", "0", "--m-max", str(m), "--out", str(dst)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "q=2, m_max=1024" in err
    assert not dst.exists()


def test_dump_refuses_non_finite_numbers():
    with pytest.raises(ValueError, match="'values'"):
        dump_transform(TransformSequence(P2, 0, 1, [1.0, math.nan]))
    with pytest.raises(ValueError, match="'inner_tail'"):
        dump_radial(KRadialFunction(P2, 0, 0, [1.0], inner_tail=complex(0, -math.inf)))


@pytest.mark.parametrize("override, limit", [("--alpha", "alpha must be positive")])
def test_cli_apply_zero_override_exits_3(tmp_path, capsys, override, limit):
    src = tmp_path / "u.json"
    src.write_text(GOLDEN_INPUT)
    assert main(["apply", "Ialpha", str(src), override, "0"]) == 3
    assert limit in capsys.readouterr().err


def test_cli_verify_corrupted_tolerance_exits_1(monkeypatch, capsys):
    # moment_oracles has a strictly positive measured residual, so zeroing
    # its tolerance must fail the run
    monkeypatch.setitem(verify.DEFAULT_TOLERANCES, "moment_oracles", 0)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "VERIFICATION FAILED" in out


def test_cli_verify_unknown_tolerance_exits_2(capsys):
    # the tolerances are pinned: the option is gone, so argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tolerance", "moment_oracles=1"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("argv, limit", [(["--q", "6"], "prime power, got 6"),
                                         (["--alpha", "inf"], "positive and finite, got inf")])
def test_cli_verify_bad_parameters_exit_3(capsys, argv, limit):
    assert main(["verify", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and limit in captured.err


@pytest.mark.parametrize("k, alpha", [(1100, 1.0), (600, 2.0), (1023, 1.0)])
def test_cli_field_constants_beyond_the_double_range(tmp_path, capsys, k, alpha):
    # q = 2^k: verify refuses the parameters (exit 3), apply the document (exit 2)
    q = 2**k
    assert main(["verify", "--q", str(q), "--alpha", str(alpha)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and f"q={q} and alpha={alpha!r}" in captured.err
    src = tmp_path / "u.json"
    src.write_text(GOLDEN_INPUT.replace('"q": 2', f'"q": {q}').replace('"alpha": 1', f'"alpha": {alpha}'))
    assert main(["apply", "I01", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"q={q} and alpha={alpha!r}" in captured.err


@pytest.mark.parametrize("q", [65536, 2**40])
def test_cli_verify_with_operators_beyond_the_double_range_exits_3(capsys, q):
    # a check whose operator values leave the double range names itself and q
    assert main(["verify", "--q", str(q)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: check 'right_inverse' at q={q}, alpha=1.0: ")


@pytest.mark.parametrize("q", [128, 1024, 4096])
def test_cli_verify_at_large_q_still_fails_by_its_checks(capsys, q):
    assert main(["verify", "--q", str(q)]) == 1
    assert "VERIFICATION FAILED" in capsys.readouterr().out


def test_cli_commands_are_deterministic(tmp_path):
    v1 = make_basis(P2, "v", 1)
    src = tmp_path / "v1.json"
    src.write_text(dump_radial(v1))
    outs = []
    for k in range(2):
        dst = tmp_path / f"run{k}.json"
        assert main(["apply", "I01", str(src), "--out", str(dst)]) == 0
        outs.append(dst.read_bytes())
    assert outs[0] == outs[1]
    mats = []
    for k in range(2):
        dst = tmp_path / f"mat{k}.csv"
        assert main(["matrix", "J", "e", "--dim", "8", "--format", "csv", "--out", str(dst)]) == 0
        mats.append(dst.read_bytes())
    assert mats[0] == mats[1]
