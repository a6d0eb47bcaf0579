"""Smoke test of the per-layer cost-curve script ``benchmarks/scaling.py``."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "scaling.py"
CHARFN = ("characteristic_function", "order_certificate")
SPECTRAL = ("volterra_check", "i1_eigenpairs", "j_diagnostics")


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
                           "revision", "source_sha256", "numpy", "python", "machine"}
    assert record["speed_factor"] > 0
    assert record["layer"] == "expand"
    sizes = [row.get("dim") or row.get("count") or row.get("W") for row in record["per_call"]]
    assert sizes == [40, 160, 640, 40, 160, 640, 100, 400, 1600]
    exponents = record["scaling_exponent"]
    assert set(exponents) == {"expand e", "expand f", "expand e_9", "inner_product"}
    assert all(math.isfinite(b) for fit in exponents.values() for b in fit.values())


def test_apply_layer_covers_both_fields_and_every_width(tmp_path):
    dst = tmp_path / "bench.json"
    assert load_scaling().main(["--layer", "apply", "--seconds", "0", "--into", str(dst)]) == 0
    record = json.loads(dst.read_text())["run"]
    assert set(record) == {"layer", "orders", "shapes", "per_call", "scaling_exponent", "speed_factor",
                           "revision", "source_sha256", "numpy", "python", "machine"}
    assert [(row["q"], row["W"]) for row in record["per_call"]] == [
        (q, W) for q in (3, 7) for W in (100, 400, 1600)]
    names = ("_scaled cold", "_scaled warm", "apply_I_alpha", "apply_I01", "apply_D_alpha", "apply_D_alpha_O",
             "apply_resolvent_D1O", "laplace_transform", "laplace_invert")
    for row in record["per_call"]:
        for name in names:
            # a timed call, or the library's refusal of it
            assert ("median" in row[name]) != ("refused" in row[name]), (row["q"], row["W"], name)
    exponents = record["scaling_exponent"]
    assert {f"{name} q={q}" for name in names for q in (3, 7)} >= set(exponents)
    assert {"apply_I_alpha q=3", "apply_D_alpha q=3", "apply_resolvent_D1O q=3", "laplace_invert q=3",
            "laplace_invert q=7"} <= set(exponents)
    assert all(math.isfinite(b) for fit in exponents.values() for b in fit.values())


def test_scan_layer_times_the_kernel_at_every_width(tmp_path):
    dst = tmp_path / "bench.json"
    assert load_scaling().main(["--layer", "scan", "--seconds", "0", "--into", str(dst)]) == 0
    record = json.loads(dst.read_text())["run"]
    assert record["layer"] == "scan"
    assert [row["W"] for row in record["per_call"]] == [10, 40, 100, 400, 1600]
    assert all("median" in row[name] for row in record["per_call"] for name in row if name != "W")
    exponents = record["scaling_exponent"]
    assert set(exponents) == {"_scan"}
    assert all(math.isfinite(b) for fit in exponents.values() for b in fit.values())


def test_charfn_layer_times_both_calls_at_every_order(tmp_path):
    dst = tmp_path / "bench.json"
    assert load_scaling().main(["--layer", "charfn", "--seconds", "0", "--into", str(dst)]) == 0
    record = json.loads(dst.read_text())["run"]
    assert set(record) == {"layer", "shapes", "per_call", "scaling_exponent", "speed_factor",
                           "revision", "source_sha256", "numpy", "python", "machine"}
    assert [(row["q"], row["T"]) for row in record["per_call"]] == [
        (q, T) for q in (2, 3) for T in (50, 200, 800)]
    assert all("median" in row[name] for row in record["per_call"]
               for name in ("characteristic_function", "order_certificate"))
    exponents = record["scaling_exponent"]
    assert set(exponents) == {f"{name} q={q}" for name in ("characteristic_function", "order_certificate")
                              for q in (2, 3)}
    assert all(math.isfinite(b) for fit in exponents.values() for b in fit.values())


def test_spectral_layer_times_every_call_at_every_size(tmp_path):
    dst = tmp_path / "bench.json"
    assert load_scaling().main(["--layer", "spectral", "--seconds", "0", "--into", str(dst)]) == 0
    record = json.loads(dst.read_text())["run"]
    assert set(record) == {"layer", "shapes", "per_call", "scaling_exponent", "speed_factor",
                           "revision", "source_sha256", "numpy", "python", "machine"}
    assert record["layer"] == "spectral"
    assert [(row["q"], row["dim"]) for row in record["per_call"]] == [
        (q, dim) for q in (2, 3) for dim in (40, 160, 640)]
    assert all("median" in row[name] for row in record["per_call"] for name in SPECTRAL)
    exponents = record["scaling_exponent"]
    assert set(exponents) == {f"{name} q={q}" for name in SPECTRAL for q in (2, 3)}
    assert all(math.isfinite(b) for fit in exponents.values() for b in fit.values())


def test_ab_mode_times_both_trees_for_every_call(tmp_path):
    # the second tree is this one, imported again under another name; each
    # call runs at least 20 pairs, and its timing carries the spread of the
    # per-pair ratio and the share of pairs the first tree won
    dst = tmp_path / "bench.json"
    src = SCRIPT.parents[1] / "src"
    assert load_scaling().main(["--layer", "charfn", "--seconds", "0", "--ab", str(src), "--into", str(dst)]) == 0
    record = json.loads(dst.read_text())["run"]
    assert record["other"]["src"] == "src"  # relative to the repository root
    assert set(record["other"]) == {"src", "revision", "source_sha256", "scaling_exponent"}
    assert record["other"]["source_sha256"] == record["source_sha256"]
    for row in record["per_call"]:
        for name in ("characteristic_function", "order_certificate"):
            this, other = row[name], row[name]["other"]
            assert this["calls"] == other["calls"] >= 20
            assert 0 < this["min"] <= this["median"] and 0 < other["min"] <= other["median"]
            ratio = this["ratio"]
            assert set(ratio) == {"median", "q1", "q3", "won"}
            assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"] and 0 <= ratio["won"] <= 1
            assert "ratio" not in other
    fits = (record["scaling_exponent"], record["other"]["scaling_exponent"])
    assert set(fits[0]) == set(fits[1]) == {f"{name} q={q}" for name in CHARFN for q in (2, 3)}
    assert all(math.isfinite(b) for fit in fits for series in fit.values() for b in series.values())


def test_a_copy_without_git_has_the_source_hash_of_this_tree(tmp_path):
    # a copy of src/ outside the repository, as ``git archive`` makes one: its
    # sources hash as this tree's, and a record names no machine path for it
    src, copy = SCRIPT.parents[1] / "src", tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    scaling = load_scaling()
    here = scaling._source_hash(src / "padicradial")
    assert len(here) == 64 and scaling._source_hash(copy / "padicradial") == here
    assert scaling._in_repo(copy) is None and scaling._in_repo(src) == "src"
    (copy / "padicradial" / "cli.py").write_text("")  # one file differs: so does the hash
    assert scaling._source_hash(copy / "padicradial") != here
