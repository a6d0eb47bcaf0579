"""Document schemas and the command-line surface, including exit codes."""

import json
import math

import numpy as np
import pytest

from padicradial.cli import main
from padicradial.field import FieldParams, KRadialFunction, make_basis
from padicradial.serialize import (
    SchemaError,
    dump_radial,
    dump_transform,
    load_radial,
    load_transform,
    matrix_csv,
)
from padicradial.laplace import TransformSequence
from padicradial.operators import operator_matrix

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


def test_cli_charfn_document(tmp_path):
    dst = tmp_path / "w.json"
    assert main(["charfn", "--q", "2", "--terms", "25", "--out", str(dst)]) == 0
    doc = json.loads(dst.read_text())
    for key in ("g11", "g12", "g21", "g22"):
        assert len(doc[key]) == 26
        assert doc["order_certificate"][key]["max_order_estimate"] <= 0.1
    assert doc["g11"][0][0] == pytest.approx((2 - 1) ** 2 / (2**2 * math.log(2.0) ** 2))


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


def test_cli_verify_corrupted_tolerance_exits_1(capsys):
    # moment_oracles has a strictly positive measured residual, so zeroing
    # its tolerance must fail the run
    assert main(["verify", "--tolerance", "moment_oracles=0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "VERIFICATION FAILED" in out


def test_cli_verify_unknown_tolerance_exits_2(capsys):
    assert main(["verify", "--tolerance", "nonsense=1"]) == 2


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
