"""Spans recorded from outside the program, around calls into qalt's layers.

A `Tracer` replaces the public functions of the six modules (and a few
hot methods) with wrappers that record one span per call: name, start,
end, parent span and the operation (request) it belongs to.  Spans are
kept in flat arrays in memory and written out once, after the pass.
`install` patches every qalt module namespace that holds the function, so
calls made through `from .x import f` bindings are seen too; `uninstall`
restores the originals.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

LAYERS = ("scalars", "tableaux", "word_algebra", "hecke_rep",
          "alt_decompose", "cli")

# Arithmetic dunders of RationalFunction, traced under one span name.
_RF_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__")

# Methods traced besides the module-level public functions.
_METHODS = (
    ("scalars", "Polynomial", "gcd"),
    ("scalars", "RationalFunction", "evaluate"),
    ("word_algebra", "HeckeElement", "rmul_f"),
    ("word_algebra", "HeckeElement", "rmul_g"),
)


def _mats(r):
    mats = getattr(r, "y_matrices", None)
    return tuple(r) if mats is None else tuple(mats)


def _commutant_cells(args, kwargs, result) -> int:
    mats = _mats(args[0])
    if not mats:
        return 0
    d = mats[0].shape[0]
    return len(mats) * d * d * d * d   # (n-2)d^2 rows x d^2 unknowns


def _intertwiner_cells(args, kwargs, result) -> int:
    y1, y2 = _mats(args[0]), _mats(args[1])
    if not y1 or not y2:
        return 0
    d1, d2 = y1[0].shape[0], y2[0].shape[0]
    return len(y1) * d1 * d2 * d1 * d2   # (n-2)d1d2 rows x d1d2 unknowns


def _matrix_cells(args, kwargs, result) -> int:
    return int(args[0].size)


def _term_count(args, kwargs, result) -> int:
    return len(result.terms)


# Work counted from argument shapes or results: (span name, counter, fn).
_MEASURES = {
    "alt_decompose.commutant_dimension": ("kron_cells", _commutant_cells),
    "alt_decompose.find_intertwiner": ("kron_cells", _intertwiner_cells),
    "hecke_rep.numeric_rank": ("cells", _matrix_cells),
    "word_algebra.rewrite_y_word": ("terms", _term_count),
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, int] = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            layer = name.split(".", 1)[0]
            self._layer_of.append(LAYERS.index(layer) if layer in LAYERS
                                  else -1)
        return nid

    def span(self, name: str, fn):
        """Wrap fn so that every call records a span called name."""
        nid = self.intern(name)
        layer = self._layer_of[nid]
        measure = _MEASURES.get(name)
        stack = self._stack
        clock = time.perf_counter
        name_ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends = self.start, self.end
        work = self.work

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an error once per layer, where it leaves the layer
                parent = parents[idx]
                if layer >= 0 and (parent < 0 or
                                   self._layer_of[name_ids[parent]] != layer):
                    self.errors[LAYERS[layer]] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                key = f"{name}.{measure[0]}"
                work[key] = work.get(key, 0) + measure[1](args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap public functions of each qalt module and the hot methods.

        modules maps layer name to the imported module.
        """
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            public = getattr(mod, "__all__", None) or [
                k for k in vars(mod) if not k.startswith("_")]
            if layer == "cli":
                public = list(public) + ["render_json"]
            for attr in public:
                fn = vars(mod).get(attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = self.span(f"{layer}.{attr}", fn)
        # rebind every module-level reference, including `from .x import f`
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patch(mod, attr, wrapped[id(value)])

        rf = getattr(modules["scalars"], "RationalFunction", None)
        for op in _RF_OPS:
            if rf is not None and op in vars(rf):
                self._patch(rf, op, self.span(
                    "scalars.RationalFunction", vars(rf)[op]))
        for layer, cls_name, meth in _METHODS:
            cls = getattr(modules[layer], cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                continue
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, staticmethod):
                self._patch(cls, meth, staticmethod(self.span(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, meth, self.span(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the part its child spans cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent],
                              weights=dur[has_parent], minlength=dur.size)
        return dur - covered

    def summary(self) -> dict:
        """Calls and self seconds per span name, and self seconds per layer."""
        a = self.arrays()
        own = self.self_times()
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        by_name = {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                   for i, name in enumerate(self.names)}
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if layer in by_layer:
                by_layer[layer] += float(self_s[i])
        return {"by_name": by_name, "by_layer": by_layer}

    def layer_self_by_op(self) -> dict[int, dict[str, float]]:
        """Self seconds per layer within each operation."""
        a = self.arrays()
        own = self.self_times()
        layer_idx = np.array(self._layer_of, dtype=np.int64)[a["name_id"]]
        out: dict[int, dict[str, float]] = {}
        keep = (a["op"] >= 0) & (layer_idx >= 0)
        ops, lays, vals = a["op"][keep], layer_idx[keep], own[keep]
        width = len(LAYERS)
        flat = np.bincount(ops * width + lays, weights=vals,
                           minlength=(int(ops.max()) + 1) * width if ops.size else 0)
        for op in np.unique(ops):
            row = flat[op * width:(op + 1) * width]
            out[int(op)] = {LAYERS[j]: float(row[j]) for j in range(width)}
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
