"""Span recorder that times calls into cyclomod from outside the package.

``Recorder.install()`` rebinds every alias of the listed public functions
in every loaded ``cyclomod`` namespace (``tate`` is imported by name into
``oracle``, ``yakovlev``, ``suites`` and ``cli``, so patching
``cohomology.tate`` alone would miss those calls) and wraps the listed
class methods.  ``uninstall()`` puts every original back.

Spans live in memory as parallel arrays (name, parent, op, start, end)
plus a small dict of per-span attributes.  ``finish()`` turns them into
per-name statistics: calls, self time (duration minus the time covered
by direct child spans), total time (outermost spans of a name only, so
recursion is not counted twice), attribute sums and maxima, and the
exceptions that escaped.  ``layer_metrics()`` maps merged statistics to
the per-layer metric names the benchmark reports.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from array import array
from functools import wraps

# (module, function) pairs whose every binding is wrapped.
FUNCTIONS = (
    ("linalg", "smith"),
    ("linalg", "matmul"),
    ("linalg", "exact_kernel_cols"),
    ("linalg", "rank_mod_p"),
    ("linalg", "solve"),
    ("linalg", "kernel_cols"),
    ("modules", "submodule_from_elements"),
    ("modules", "kernel_of"),
    ("modules", "quotient_by_image"),
    ("modules", "free_cover"),
    ("modules", "direct_sum"),
    ("cohomology", "tate"),
    ("cohomology", "induced_map"),
    ("yakovlev", "delta"),
    ("yakovlev", "check_axioms"),
    ("yakovlev", "diagrams_isomorphic"),
    ("oracle", "hom_space_basis"),
    ("oracle", "modules_isomorphic"),
    ("oracle", "stably_isomorphic"),
    ("oracle", "krull_schmidt_note"),
    ("constructions", "j_module"),
    ("constructions", "lemma3_resolution"),
    ("constructions", "splitting_module"),
    ("constructions", "lemma2_pipeline"),
    ("constructions", "theorem1_verify"),
    ("fileio", "load_file"),
    ("fileio", "save_file"),
    ("cli", "main"),
)

# (module, class, method, span name).
METHODS = (
    ("arith", "GroupRingElement", "__init__", "arith.GroupRingElement.new"),
    ("arith", "GroupRingElement", "__mul__", "arith.GroupRingElement.mul"),
    ("modules", "PresentedModule", "__init__", "modules.PresentedModule.normalize"),
    ("modules", "ElementVector", "__init__", "modules.ElementVector.new"),
    ("cohomology", "TateGroup", "__init__", "cohomology.TateGroup.build"),
    ("constructions", "ExtensionData", "__post_init__", "constructions.ExtensionData.check"),
)

SKIP = object()


def _shape_cells(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) != 2:
        return 0
    return int(shape[0]) * int(shape[1])


def _smith_pre(args, kwargs):
    ctx = args[0] if args else kwargs["ctx"]
    a = args[1] if len(args) > 1 else kwargs["a"]
    return {"cells": _shape_cells(a), "object": int(ctx.dtype is object)}


def _normalize_pre(args, kwargs):
    internal = args[4] if len(args) > 4 else kwargs.get("_internal")
    return SKIP if internal is not None else {}


def _normalize_post(attrs, args, result):
    module = args[0]
    d = module.cfg.order
    attrs["cells"] = len(module.gen_names) * d * len(module.relations) * d


def _submodule_post(attrs, args, result):
    ambient = args[0]
    k = len(result.module.gen_names)
    attrs["cells"] = ambient.model_dim * k * ambient.cfg.order


def _hom_space_pre(args, kwargs):
    return {"unknowns": args[0].model_dim * args[1].model_dim}


def _undecided_post(attrs, args, result):
    attrs["undecided"] = int(type(result).__name__ == "Undecided")


def _load_pre(args, kwargs):
    return {"bytes_read": os.path.getsize(args[0])}


def _save_post(attrs, args, result):
    attrs["bytes_written"] = os.path.getsize(args[0])


HOOKS = {
    "linalg.smith": (_smith_pre, None),
    "modules.PresentedModule.normalize": (_normalize_pre, _normalize_post),
    "modules.submodule_from_elements": (None, _submodule_post),
    "oracle.hom_space_basis": (_hom_space_pre, None),
    "oracle.modules_isomorphic": (None, _undecided_post),
    "yakovlev.diagrams_isomorphic": (None, _undecided_post),
    "fileio.load_file": (_load_pre, None),
    "fileio.save_file": (None, _save_post),
}


def cyclomod_namespaces():
    """Every loaded cyclomod module, package first."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "cyclomod" or name.startswith("cyclomod."))
    ]


class Recorder:
    """In-memory span recorder for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._name_ids: dict = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.op_of = array("h")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")
        self.attrs: dict = {}
        self.errors: dict = {}
        self.op = -1
        self.max_model_dim = 0
        self._stack: list = []
        self._active: dict = {}
        self._patches: list = []
        self.wrappers: dict = {}

    # -- recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        depth = self._active.get(nid, 0)
        self._active[nid] = depth + 1
        self.outermost.append(1 if depth == 0 else 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, error: str | None = None) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self._active[self.name_of[idx]] -= 1
        if error is not None:
            self.errors[idx] = error

    def wrap(self, name: str, fn):
        """A callable that records a span named name around fn."""
        nid = self.name_id(name)
        pre, post = HOOKS.get(name, (None, None))
        rec = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = pre(args, kwargs) if pre is not None else None
            if attrs is SKIP:
                return fn(*args, **kwargs)
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.close(idx, type(exc).__name__)
                raise
            rec.close(idx)
            if post is not None:
                attrs = {} if attrs is None else attrs
                post(attrs, args, result)
            if attrs:
                rec.attrs[idx] = attrs
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of FUNCTIONS and every method in METHODS."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        namespaces = cyclomod_namespaces()
        for modname, fname in FUNCTIONS:
            original = getattr(sys.modules[f"cyclomod.{modname}"], fname)
            wrapper = self.wrap(f"{modname}.{fname}", original)
            self.wrappers[f"{modname}.{fname}"] = (original, wrapper)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        for modname, clsname, meth, span in METHODS:
            cls = getattr(sys.modules[f"cyclomod.{modname}"], clsname)
            original = cls.__dict__[meth]
            wrapper = self.wrap(span, original)
            if span == "modules.PresentedModule.normalize":
                wrapper = self._track_model_dim(wrapper)
            self.wrappers[span] = (original, wrapper)
            self._patches.append((cls, meth, original))
            setattr(cls, meth, wrapper)

    def _track_model_dim(self, init):
        rec = self

        @wraps(init)
        def wrapper(module, *args, **kwargs):
            init(module, *args, **kwargs)
            rec.max_model_dim = max(rec.max_model_dim, module.model_dim)

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def finish(self) -> dict:
        """Per-name statistics of everything recorded so far."""
        own = self_times(self.parent, self.start, self.end)
        has_child = bytearray(len(self.start))
        for p in self.parent:
            if p >= 0:
                has_child[p] = 1
        stats: dict = {}
        for idx in range(len(self.start)):
            name = self.names[self.name_of[idx]]
            st = stats.get(name)
            if st is None:
                st = stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "leaf": 0}
            st["calls"] += 1
            st["self_s"] += own[idx]
            if self.outermost[idx]:
                st["total_s"] += self.end[idx] - self.start[idx]
            if not has_child[idx]:
                st["leaf"] += 1
            error = self.errors.get(idx)
            if error is not None:
                key = f"raised_{error}"
                st[key] = st.get(key, 0) + 1
            for key, value in self.attrs.get(idx, {}).items():
                st[key] = st.get(key, 0) + value
                st[f"max_{key}"] = max(st.get(f"max_{key}", 0), value)
                if key == "object" and value:
                    st["object_self_s"] = st.get("object_self_s", 0.0) + own[idx]
        stats["modules.model_dim"] = {"max_dim": self.max_model_dim}
        return stats

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        own = self_times(self.parent, self.start, self.end)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for idx in range(len(self.start)):
                row = [
                    idx,
                    self.parent[idx],
                    self.name_of[idx],
                    self.op_of[idx],
                    self.start[idx],
                    self.end[idx],
                    own[idx],
                    self.errors.get(idx),
                    self.attrs.get(idx),
                ]
                fh.write(json.dumps(row) + "\n")


def self_times(parent, start, end) -> list:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread's call stack, so the children of a span
    are disjoint and lie inside it; summing their durations gives the
    part of its interval they cover.
    """
    own = [end[i] - start[i] for i in range(len(start))]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def merge_stats(parts) -> dict:
    """Combine per-process statistics: maxima by max, everything else by sum."""
    out: dict = {}
    for stats in parts:
        for name, st in stats.items():
            dst = out.setdefault(name, {})
            for key, value in st.items():
                if key.startswith("max_"):
                    dst[key] = max(dst.get(key, 0), value)
                else:
                    dst[key] = dst.get(key, 0) + value
    return out


def _field(stats, name, key):
    return stats.get(name, {}).get(key, 0)


def _sum(*pairs):
    return lambda s: sum(_field(s, n, k) for n, k in pairs)


def _ratio(name, num, den):
    def get(s):
        d = _field(s, name, den)
        return _field(s, name, num) / d if d else 0.0

    return get


def _stat(name, key):
    return lambda s: _field(s, name, key)


# metric name -> (unit, better, extractor over merged statistics)
LAYER_METRICS = {
    "linalg.smith.calls": ("count", "lower", _stat("linalg.smith", "calls")),
    "linalg.smith.self_s": ("s", "lower", _stat("linalg.smith", "self_s")),
    "linalg.smith.cells": ("count", "lower", _stat("linalg.smith", "cells")),
    "linalg.smith.max_cells": ("count", "lower", _stat("linalg.smith", "max_cells")),
    "linalg.smith.guard_raised": (
        "count", "lower", _stat("linalg.smith", "raised_PrecisionExhausted")
    ),
    "linalg.smith.object_calls": ("count", "lower", _stat("linalg.smith", "object")),
    "linalg.smith.object_self_s": ("s", "lower", _stat("linalg.smith", "object_self_s")),
    "linalg.matmul.calls": ("count", "lower", _stat("linalg.matmul", "calls")),
    "linalg.matmul.self_s": ("s", "lower", _stat("linalg.matmul", "self_s")),
    "linalg.exact_kernel_cols.calls": (
        "count", "lower", _stat("linalg.exact_kernel_cols", "calls")
    ),
    "linalg.exact_kernel_cols.self_s": (
        "s", "lower", _stat("linalg.exact_kernel_cols", "self_s")
    ),
    "linalg.rank_mod_p.calls": ("count", "lower", _stat("linalg.rank_mod_p", "calls")),
    "linalg.rank_mod_p.self_s": ("s", "lower", _stat("linalg.rank_mod_p", "self_s")),
    "linalg.solve.calls": ("count", "lower", _stat("linalg.solve", "calls")),
    "linalg.kernel_cols.calls": ("count", "lower", _stat("linalg.kernel_cols", "calls")),
    "arith.GroupRingElement.new": (
        "count", "lower", _stat("arith.GroupRingElement.new", "calls")
    ),
    "arith.GroupRingElement.mul": (
        "count", "lower", _stat("arith.GroupRingElement.mul", "calls")
    ),
    "arith.GroupRingElement.self_s": (
        "s",
        "lower",
        _sum(
            ("arith.GroupRingElement.new", "self_s"),
            ("arith.GroupRingElement.mul", "self_s"),
        ),
    ),
    "modules.submodule_from_elements.calls": (
        "count", "lower", _stat("modules.submodule_from_elements", "calls")
    ),
    "modules.submodule_from_elements.self_s": (
        "s", "lower", _stat("modules.submodule_from_elements", "self_s")
    ),
    "modules.submodule_from_elements.total_s": (
        "s", "lower", _stat("modules.submodule_from_elements", "total_s")
    ),
    "modules.submodule_from_elements.cells": (
        "count", "lower", _stat("modules.submodule_from_elements", "cells")
    ),
    "modules.PresentedModule.normalize.calls": (
        "count", "lower", _stat("modules.PresentedModule.normalize", "calls")
    ),
    "modules.PresentedModule.normalize.self_s": (
        "s", "lower", _stat("modules.PresentedModule.normalize", "self_s")
    ),
    "modules.PresentedModule.normalize.cells": (
        "count", "lower", _stat("modules.PresentedModule.normalize", "cells")
    ),
    "modules.kernel_of.total_s": ("s", "lower", _stat("modules.kernel_of", "total_s")),
    "modules.quotient_by_image.total_s": (
        "s", "lower", _stat("modules.quotient_by_image", "total_s")
    ),
    "modules.free_cover.total_s": ("s", "lower", _stat("modules.free_cover", "total_s")),
    "modules.direct_sum.total_s": ("s", "lower", _stat("modules.direct_sum", "total_s")),
    "modules.ElementVector.new": (
        "count", "lower", _stat("modules.ElementVector.new", "calls")
    ),
    "modules.ElementVector.self_s": (
        "s", "lower", _stat("modules.ElementVector.new", "self_s")
    ),
    "modules.model_dim.max": ("count", "lower", _stat("modules.model_dim", "max_dim")),
    "cohomology.tate.calls": ("count", "lower", _stat("cohomology.tate", "calls")),
    "cohomology.tate.hit_ratio": ("ratio", "higher", _ratio("cohomology.tate", "leaf", "calls")),
    "cohomology.TateGroup.builds": (
        "count", "lower", _stat("cohomology.TateGroup.build", "calls")
    ),
    "cohomology.TateGroup.self_s": (
        "s", "lower", _stat("cohomology.TateGroup.build", "self_s")
    ),
    "cohomology.induced_map.total_s": (
        "s", "lower", _stat("cohomology.induced_map", "total_s")
    ),
    "yakovlev.delta.calls": ("count", "lower", _stat("yakovlev.delta", "calls")),
    "yakovlev.delta.total_s": ("s", "lower", _stat("yakovlev.delta", "total_s")),
    "yakovlev.check_axioms.self_s": ("s", "lower", _stat("yakovlev.check_axioms", "self_s")),
    "yakovlev.diagrams_isomorphic.total_s": (
        "s", "lower", _stat("yakovlev.diagrams_isomorphic", "total_s")
    ),
    "yakovlev.diagrams_isomorphic.undecided": (
        "count", "lower", _stat("yakovlev.diagrams_isomorphic", "undecided")
    ),
    "oracle.hom_space_basis.calls": ("count", "lower", _stat("oracle.hom_space_basis", "calls")),
    "oracle.hom_space_basis.self_s": ("s", "lower", _stat("oracle.hom_space_basis", "self_s")),
    "oracle.hom_space_basis.total_s": ("s", "lower", _stat("oracle.hom_space_basis", "total_s")),
    "oracle.hom_space_basis.unknowns": (
        "count", "lower", _stat("oracle.hom_space_basis", "unknowns")
    ),
    "oracle.hom_space_basis.max_unknowns": (
        "count", "lower", _stat("oracle.hom_space_basis", "max_unknowns")
    ),
    "oracle.modules_isomorphic.calls": (
        "count", "lower", _stat("oracle.modules_isomorphic", "calls")
    ),
    "oracle.modules_isomorphic.total_s": (
        "s", "lower", _stat("oracle.modules_isomorphic", "total_s")
    ),
    "oracle.modules_isomorphic.undecided": (
        "count", "lower", _stat("oracle.modules_isomorphic", "undecided")
    ),
    "oracle.stably_isomorphic.total_s": (
        "s", "lower", _stat("oracle.stably_isomorphic", "total_s")
    ),
    "oracle.krull_schmidt_note.total_s": (
        "s", "lower", _stat("oracle.krull_schmidt_note", "total_s")
    ),
    "constructions.j_module.total_s": ("s", "lower", _stat("constructions.j_module", "total_s")),
    "constructions.lemma3_resolution.total_s": (
        "s", "lower", _stat("constructions.lemma3_resolution", "total_s")
    ),
    "constructions.splitting_module.total_s": (
        "s", "lower", _stat("constructions.splitting_module", "total_s")
    ),
    "constructions.lemma2_pipeline.total_s": (
        "s", "lower", _stat("constructions.lemma2_pipeline", "total_s")
    ),
    "constructions.theorem1_verify.total_s": (
        "s", "lower", _stat("constructions.theorem1_verify", "total_s")
    ),
    "constructions.ExtensionData.check_s": (
        "s", "lower", _stat("constructions.ExtensionData.check", "total_s")
    ),
    "fileio.load_file.calls": ("count", "lower", _stat("fileio.load_file", "calls")),
    "fileio.load_file.self_s": ("s", "lower", _stat("fileio.load_file", "self_s")),
    "fileio.load_file.total_s": ("s", "lower", _stat("fileio.load_file", "total_s")),
    "fileio.save_file.self_s": ("s", "lower", _stat("fileio.save_file", "self_s")),
    "fileio.bytes_read": ("B", "lower", _stat("fileio.load_file", "bytes_read")),
    "fileio.bytes_written": ("B", "lower", _stat("fileio.save_file", "bytes_written")),
    "cli.main.self_s": ("s", "lower", _stat("cli.main", "self_s")),
}


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values from merged statistics."""
    return {name: get(stats) for name, (_, _, get) in LAYER_METRICS.items()}
