"""The same values under numpy's default CPU dispatch and without its AVX512 kernels.

Run as a script, this module sweeps every output family and saves the values:

    PYTHONPATH=src python tests/test_dispatch.py OUT.npz
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import padicradial as pr

NO_AVX512 = "X86_V4,AVX512_ICL,AVX512_SPR"
QS, ALPHAS, WIDTHS = (2, 3, 5, 7, 11), (0.25, 0.5, 1.0, 2.0), (5, 40, 400)


def sweep() -> dict:
    """Every output family at q in QS, alpha in ALPHAS and W in WIDTHS, keyed by family and case.
    A refusal is kept as its message."""
    out, rng = {}, np.random.default_rng(31)

    def keep(key, fn):
        try:
            got = fn()
        except (OverflowError, ValueError) as exc:
            got = f"{type(exc).__name__}: {exc}"
        out[key] = got if isinstance(got, str) else np.asarray(got)

    for q in QS:
        for W in WIDTHS:
            p = pr.FieldParams(q)
            for name in ("D1O", "I1", "I01", "J", "resolvent"):
                for basis in ("e", "f"):
                    keep(f"operator_matrix/{q}/{W}/{name}/{basis}", lambda: pr.operator_matrix(p, name, basis, W).entries)
            for l in (1, 2, 3):
                keep(f"monomial/{q}/{W}/{l}", lambda: pr.make_basis(p, "monomial", l, window=(1 - W, 0)).values)
            for a in ALPHAS:
                p = pr.FieldParams(q, a)
                u, v = (pr.KRadialFunction(p, 1 - W, 0, rng.standard_normal(W) + 1j * rng.standard_normal(W),
                                           complex(*rng.standard_normal(2))) for _ in range(2))
                case = f"{q}/{a}/{W}"
                for op in ("apply_D_alpha", "apply_I_alpha", "apply_I01", "apply_resolvent_D1O"):
                    keep(f"{op}/{case}", lambda: (lambda w: [*w.values, w.inner_tail])(getattr(pr, op)(u)))
                keep(f"inner_product/{case}", lambda: pr.inner_product(u, v))
                keep(f"expand_e/{case}", lambda: pr.expand(u, "e", W))
                keep(f"expand_f/{case}", lambda: pr.expand(u, "f", W))
                keep(f"laplace_transform/{case}", lambda: pr.laplace_transform(u, (2 - W, W)).values)
    return out


def _run(tmp_path: Path, name: str, disable: str | None) -> tuple[dict, str]:
    """The sweep in a fresh process under one dispatch setting, and the AVX512 state it ran with."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(pr.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    if disable is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    path = tmp_path / f"{name}.npz"
    done = subprocess.run([sys.executable, __file__, str(path)], env=env, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in done.stderr:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={disable!r}: {done.stderr.strip()[-300:]}")
    assert done.returncode == 0, done.stderr
    with np.load(path) as saved:
        return dict(saved), done.stdout.strip()


def test_every_output_family_is_the_same_without_avx512(tmp_path):
    # each power of q is Python's pow, so numpy's choice of kernels by CPU does not
    # reach an output; -0.0 and 0.0 compare equal (complex-by-real products may
    # differ in the sign of a zero), and a refusal must read the same
    umath = pytest.importorskip("numpy._core._multiarray_umath", reason="numpy 1 names its CPU features otherwise")
    if not umath.__cpu_features__.get("AVX512_SKX"):
        pytest.skip("this host has no AVX512 for numpy to dispatch to, so both settings are one")
    (default, on), (without, off) = _run(tmp_path, "default", None), _run(tmp_path, "without", NO_AVX512)
    if (on, off) != ("AVX512 on", "AVX512 off"):
        pytest.skip(f"numpy ran the sweeps with {on!r} and {off!r}, so they do not compare the two settings")
    assert default.keys() == without.keys()
    families = {key.split("/")[0] for key in default}
    assert len(families) == 10
    differ = [key for key in default if not np.array_equal(default[key], without[key])]
    assert not differ, f"{len(differ)} of {len(default)} outputs differ, first {differ[:5]}"


def test_no_real_power_by_numpy_in_the_library():
    # np.power's bits follow numpy's CPU dispatch, Python's pow's do not; the one call
    # left takes a complex(..) base, in ``MatrixPowerSeries.evaluate``
    package = Path(pr.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.power", "numpy.power"):
                base = node.args[0] if node.args else None
                if not (isinstance(base, ast.Call) and ast.unparse(base.func) == "complex"):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found


def test_no_numpy_complex_modulus_in_verify_or_the_cli():
    # numpy's complex abs differs from Python's by up to 2 ulp, so a reported residual
    # would follow numpy's kernels: complex moduli come from ``field._abs`` and real
    # ones from ``np.fabs``, which refuses a complex array, so no ``np.abs`` is left
    package = Path(pr.__file__).parent
    found = []
    for name in ("verify.py", "cli.py"):
        for node in ast.walk(ast.parse((package / name).read_text(), name)):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "np.abs", "np.absolute", "numpy.abs", "numpy.absolute"):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert not found


if __name__ == "__main__":
    from numpy._core._multiarray_umath import __cpu_features__

    np.savez(sys.argv[1], **sweep())
    print("AVX512", "on" if __cpu_features__.get("AVX512_SKX") else "off")
