"""In-memory spans around the library's public functions.

``Tracer.install`` wraps every public function (``__all__``) of the traced
modules and rebinds each wrapped name wherever a ``padicradial`` module
holds it, module attributes and module-level dicts alike: ``from .field
import expand`` binds a separate reference in ``operators`` that patching
``field`` alone would miss.  A span is ``[id, parent, name, start, end,
error, attrs]``; spans stay in a list until ``dump``.  Nothing in the
library changes: the wrappers only read arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

import numpy as np

TRACED_MODULES = ("field", "operators", "laplace", "spectral", "serialize", "cli", "verify")


def _width(obj) -> int | None:
    vals = getattr(obj, "values", None)
    return None if vals is None else int(len(vals))


def _finite(obj) -> bool:
    vals = getattr(obj, "values", None)
    if vals is None:
        return True
    tail = complex(getattr(obj, "inner_tail", 0j))
    return bool(np.all(np.isfinite(vals)) and math.isfinite(abs(tail)))


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts recorded at the call boundary, outside the timed span."""
    if name.startswith("operators.apply_") or name == "laplace.laplace_transform":
        out = {"in": _width(args[0]) if args else None}
        if result is not None:
            out["out"] = _width(result)
            out["finite"] = _finite(result)
        return out
    if name == "operators.operator_matrix":
        return {"dim": int(args[3] if len(args) > 3 else kwargs["dim"])}
    if name in ("serialize.load_radial", "serialize.load_transform"):
        return {"bytes": len(args[0])}
    if name in ("serialize.dump_radial", "serialize.dump_transform"):
        return {"bytes": len(result) if isinstance(result, str) else 0}
    if name == "verify.run_verification" and result is not None:
        checks = sys.modules["padicradial.verify"].CHECKS
        return {
            "checks": [
                [fn.__name__.removeprefix("check_"), r.seconds, r.measured, r.tolerance]
                for fn, r in zip(checks, result[1])
            ]
        }
    return {}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None, None]
            spans.append(span)
            stack.append(span[0])
            result = None
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                span[6] = _attrs(name, args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced module already imported."""
        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"padicradial.{short}")
            if mod is None:
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "padicradial" or mod_name.startswith("padicradial.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and originals[id(val)][0] is val:
                    setattr(mod, attr, originals[id(val)][1])
                    self._undo.append((mod, attr, val))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            val[key] = originals[id(item)][1]
                            self._undo.append((val, key, item))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)


def self_times(spans: list) -> list:
    """Span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[4] - s[3]
    return [s[4] - s[3] - c for s, c in zip(spans, child)]
