"""Smoke test of the per-layer cost-curve script ``benchmarks/scaling.py``."""

import importlib.util
import json
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "scaling.py"
CHARFN = ("characteristic_function", "order_certificate")


def load_scaling():
    spec = importlib.util.spec_from_file_location("scaling", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expand_layer_writes_a_record_with_finite_exponents(tmp_path):
    dst = tmp_path / "bench.json"
    assert load_scaling().main(["--layer", "expand", "--seconds", "0", "--into", str(dst)]) == 0
    record = json.loads(dst.read_text())["run"]
    assert set(record) == {"layer", "q", "shapes", "per_call", "scaling_exponent", "speed_factor",
                           "revision", "numpy", "python", "machine"}
    assert record["speed_factor"] > 0
    assert record["layer"] == "expand"
    assert [row.get("dim") or row.get("W") for row in record["per_call"]] == [40, 160, 640, 100, 400, 1600]
    exponents = record["scaling_exponent"]
    assert set(exponents) == {"expand e", "expand f", "inner_product"}
    assert all(math.isfinite(b) for fit in exponents.values() for b in fit.values())


def test_apply_layer_covers_both_fields_and_every_width(tmp_path):
    dst = tmp_path / "bench.json"
    assert load_scaling().main(["--layer", "apply", "--seconds", "0", "--into", str(dst)]) == 0
    record = json.loads(dst.read_text())["run"]
    assert set(record) == {"layer", "orders", "shapes", "per_call", "scaling_exponent", "speed_factor",
                           "revision", "numpy", "python", "machine"}
    assert [(row["q"], row["W"]) for row in record["per_call"]] == [
        (q, W) for q in (3, 7) for W in (100, 400, 1600)]
    names = ("_scaled cold", "_scaled warm", "apply_I_alpha", "apply_I01", "apply_D_alpha_O", "laplace_transform")
    for row in record["per_call"]:
        for name in names:
            # a timed call, or the library's refusal of it
            assert ("median" in row[name]) != ("refused" in row[name]), (row["q"], row["W"], name)
    exponents = record["scaling_exponent"]
    assert {f"{name} q={q}" for name in names for q in (3, 7)} >= set(exponents)
    assert "apply_I_alpha q=3" in exponents
    assert all(math.isfinite(b) for fit in exponents.values() for b in fit.values())


def test_scan_layer_times_both_kernels_at_every_width(tmp_path):
    dst = tmp_path / "bench.json"
    assert load_scaling().main(["--layer", "scan", "--seconds", "0", "--into", str(dst)]) == 0
    record = json.loads(dst.read_text())["run"]
    assert record["layer"] == "scan"
    assert [row["W"] for row in record["per_call"]] == [100, 400, 1600]
    assert all("median" in row[name] for row in record["per_call"] for name in row if name != "W")
    exponents = record["scaling_exponent"]
    assert set(exponents) == {"_decay", "_scan"}
    assert all(math.isfinite(b) for fit in exponents.values() for b in fit.values())


def test_charfn_layer_times_both_calls_at_every_order(tmp_path):
    dst = tmp_path / "bench.json"
    assert load_scaling().main(["--layer", "charfn", "--seconds", "0", "--into", str(dst)]) == 0
    record = json.loads(dst.read_text())["run"]
    assert set(record) == {"layer", "shapes", "per_call", "scaling_exponent", "speed_factor",
                           "revision", "numpy", "python", "machine"}
    assert [(row["q"], row["T"]) for row in record["per_call"]] == [
        (q, T) for q in (2, 3) for T in (50, 200, 800)]
    assert all("median" in row[name] for row in record["per_call"]
               for name in ("characteristic_function", "order_certificate"))
    exponents = record["scaling_exponent"]
    assert set(exponents) == {f"{name} q={q}" for name in ("characteristic_function", "order_certificate")
                              for q in (2, 3)}
    assert all(math.isfinite(b) for fit in exponents.values() for b in fit.values())


def test_ab_mode_times_both_trees_for_every_call(tmp_path):
    # the second tree is this one, imported again under another name
    dst = tmp_path / "bench.json"
    src = SCRIPT.parents[1] / "src"
    assert load_scaling().main(["--layer", "charfn", "--seconds", "0", "--ab", str(src), "--into", str(dst)]) == 0
    record = json.loads(dst.read_text())["run"]
    assert record["other"]["src"] == str(src)
    assert set(record["other"]) == {"src", "revision", "scaling_exponent"}
    for row in record["per_call"]:
        for name in ("characteristic_function", "order_certificate"):
            this, other = row[name], row[name]["other"]
            assert this["calls"] >= 3 and other["calls"] >= 3
            assert 0 < this["min"] <= this["median"] and 0 < other["min"] <= other["median"]
    fits = (record["scaling_exponent"], record["other"]["scaling_exponent"])
    assert set(fits[0]) == set(fits[1]) == {f"{name} q={q}" for name in CHARFN for q in (2, 3)}
    assert all(math.isfinite(b) for fit in fits for series in fit.values() for b in series.values())
