"""Document schemas of the command line: radial functions, transforms, matrices.

Every JSON document goes through one writer, :func:`dump`: a fixed key order
and floats printed to 17 significant digits, so a parse/serialize round trip
of a canonical document is byte identical.  Complex numbers travel as
``[re, im]`` pairs in JSON and as ``re+imi`` in CSV cells.  A non-finite
number has no JSON form; the writer refuses it, naming the field, and so
does the loader (``NaN``, ``Infinity``, ``1e400``, a 400-digit integer).
"""

from __future__ import annotations

import json

import numpy as np

from .field import FieldParams, KRadialFunction
from .laplace import TransformSequence
from .operators import OperatorMatrix

__all__ = [
    "SchemaError",
    "dump",
    "dump_radial",
    "load_radial",
    "dump_transform",
    "load_transform",
    "matrix_csv",
    "matrix_json",
]


class SchemaError(ValueError):
    """A document does not match its schema; the message names the field."""


def _fmt(x: float) -> str:
    return format(x + 0.0, ".17g")  # adding 0.0 canonicalizes -0.0 to 0.0


def _cell(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def _numbers(obj) -> str:
    """A float, a complex number as ``[re, im]``, or a nested list of them."""
    if isinstance(obj, complex):
        return f"[{_fmt(obj.real)}, {_fmt(obj.imag)}]"
    if isinstance(obj, list):
        return "[" + ", ".join(map(_numbers, obj)) + "]"
    return _fmt(obj)


def _dumps(obj, key: str) -> str:
    if isinstance(obj, dict):
        return "{" + ", ".join(f'"{k}": {_dumps(v, k)}' for k, v in obj.items()) + "}"
    if obj is None or isinstance(obj, (str, bool, int)):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    text = _numbers(obj)
    # a finite float prints with digits, '.', 'e' and signs only: 'n' marks inf or nan
    if "n" in text:
        raise ValueError(f"field {key!r} holds a non-finite number, which JSON cannot carry")
    return text


def dump(doc: dict) -> str:
    """The JSON text of one document, keys in insertion order."""
    return _dumps(doc, "") + "\n"


def dump_radial(u: KRadialFunction) -> str:
    return dump({"q": u.params.q, "alpha": u.params.alpha, "n_lo": u.n_lo, "n_hi": u.n_hi,
                 "values": u.values, "inner_tail": u.inner_tail})


def _field(doc: dict, name: str, kinds) -> object:
    if name not in doc:
        raise SchemaError(f"missing field {name!r}")
    val = doc[name]
    if not isinstance(val, kinds) or isinstance(val, bool):
        raise SchemaError(f"field {name!r} has the wrong type")
    return val


def _complex_pair(raw, name: str) -> complex:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
    ):
        raise SchemaError(f"field {name!r} must be a [re, im] pair")
    try:
        return complex(raw[0], raw[1])
    except OverflowError:  # an integer beyond the double range
        raise SchemaError(f"field {name!r} holds a number that is not a finite double") from None


def _parse_common(text: str, want_tail: bool):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, or too deeply nested
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    q = _field(doc, "q", int)
    alpha = _field(doc, "alpha", (int, float))
    n_lo = _field(doc, "n_lo", int)
    n_hi = _field(doc, "n_hi", int)
    raw_values = _field(doc, "values", list)
    values = np.array(
        [_complex_pair(v, f"values[{i}]") for i, v in enumerate(raw_values)], dtype=complex
    )
    if values.size != n_hi - n_lo + 1:
        raise SchemaError(
            f"field 'values' has length {values.size}, window [{n_lo}, {n_hi}] needs {n_hi - n_lo + 1}"
        )
    try:
        params = FieldParams(q, float(alpha))
    except OverflowError:  # an integer beyond the double range
        raise SchemaError("field 'alpha' holds a number that is not a finite double") from None
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    tail = 0j
    if want_tail:
        tail = _complex_pair(_field(doc, "inner_tail", list), "inner_tail")
    finite = np.isfinite(np.append(values, tail))  # one pass over the values and the tail
    if not finite.all():
        i = int(np.argmin(finite))
        name = "inner_tail" if i == values.size else f"values[{i}]"
        raise SchemaError(f"field {name!r} holds a number that is not a finite double")
    return params, n_lo, n_hi, values, tail


def load_radial(text: str) -> KRadialFunction:
    params, n_lo, n_hi, values, tail = _parse_common(text, want_tail=True)
    try:
        return KRadialFunction(params, n_lo, n_hi, values, tail)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def dump_transform(t: TransformSequence) -> str:
    return dump({"q": t.params.q, "alpha": t.params.alpha, "n_lo": t.n_lo, "n_hi": t.n_hi,
                 "values": t.values})


def load_transform(text: str) -> TransformSequence:
    params, n_lo, n_hi, values, _ = _parse_common(text, want_tail=False)
    try:
        return TransformSequence(params, n_lo, n_hi, values)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def matrix_csv(mat: OperatorMatrix) -> str:
    r"""Rows by basis index j ascending; corner cell labels rows\columns."""
    lines = ["j\\n," + ",".join(str(n) for n in range(mat.dim))]
    for j in range(mat.dim):
        lines.append(f"{j}," + ",".join(_cell(complex(z)) for z in mat.entries[j]))
    return "\n".join(lines) + "\n"


def matrix_json(mat: OperatorMatrix) -> str:
    return dump({"q": mat.params.q, "name": mat.name, "basis": mat.basis, "dim": mat.dim,
                 "entries": mat.entries})
