"""Span tracing of the library's layers by rebinding functions in place.

``Tracer.install`` replaces every public function and method of each
layer module (plus the constructors and ``__eq__`` named in ``GROUPS``)
with a timing wrapper, in every ``l0limits`` module that holds it (so
intra-module calls are traced too) and in the calling modules it is given.  ``uninstall`` binds every name back
to its original object.  Untraced runs never call ``install``.

A span is (name, start, end, parent span, op id), kept in flat arrays
and written out once at the end.  Self time is a span's duration minus
the part its child spans cover.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
from time import perf_counter_ns

import numpy as np

#: Layer name -> modules that implement it.
LAYER_MODULES = {
    "measure": ("l0limits.measure",),
    "norms": ("l0limits.norms",),
    "modules": ("l0limits.modules",),
    "homdual": ("l0limits.homdual",),
    "indexsets": ("l0limits.indexsets",),
    "direct": ("l0limits.direct",),
    "inverse": ("l0limits.inverse",),
    "pullback": ("l0limits.pullback",),
    "harness": ("l0limits.harness.document", "l0limits.harness.checks"),
}
LAYERS = tuple(LAYER_MODULES)

#: Layer -> metric group -> the functions (``name`` or ``Class.name``) it sums.
GROUPS = {
    "measure": {
        "index_of": ("AtomicMeasureSpace.index_of", "AtomMap.target_index"),
        "space_eq": ("AtomicMeasureSpace.__eq__",),
        "pushforward": ("pushforward_check",),
    },
    "norms": {
        "opnorm": ("operator_norm_witness",),
        "norm_eval": ("norm_eval",),
        "spectral": ("spectral_norm", "spectral_norm_witness"),
        "candidates": tuple(f"{c}.{m}" for c in ("WeightedP", "FramedP", "DualOf")
                            for m in ("ball_candidates", "dual_ball_candidates")),
        "restrict": tuple(f"{c}.restrict" for c in ("WeightedP", "FramedP", "DualOf", "OperatorNorm")),
        "construct": ("WeightedP.__init__", "FramedP.__init__", "DualOf.__init__"),
    },
    "modules": {
        "operator_pointwise_norm": ("operator_pointwise_norm",),
        "pointwise_norm": ("pointwise_norm",),
        "compose": ("compose",),
        "apply": ("apply",),
        "morphism_new": ("ModuleMorphism.__init__",),
        "morphism_deviation": ("morphism_deviation",),
        "kernel_image": ("kernel_image",),
        "submodule": ("submodule_generated", "submodule_from_bases"),
        "certify_iso": ("certify_isometric_iso",),
    },
    "homdual": {
        "hom_module": ("hom_module", "dual_module"),
        "adjoint": ("adjoint",),
        "pairing": ("pairing",),
    },
    "indexsets": {
        "poset_new": ("FinitePoset.__init__",),
        "related_pairs": ("FinitePoset.related_pairs", "Chain.related_pairs"),
        "greatest": ("greatest_element",),
    },
    "direct": {
        "validate": ("validate_direct_system", "validate_system_morphism"),
        "map": ("DirectSystem.map",),
        "limit": ("direct_limit",),
        "universal": ("dl_universal_factorization",),
        "functor": ("dl_functor",),
    },
    "inverse": {
        "validate": ("validate_inverse_system",),
        "map": ("InverseSystem.map",),
        "limit": ("inverse_limit",),
        "universal": ("il_universal_factorization",),
        "functor": ("il_functor",),
    },
    "pullback": {
        "module": ("pullback_module",),
        "pull": tuple(f"PullbackPresentation.{m}" for m in ("pull_element", "pull_function", "pull_morphism")),
        "commute": ("dl_pullback_iso", "il_pullback_compare"),
        "sections": ("sections_iso",),
    },
    "harness": {
        "parse": ("parse_document",),
        "run": ("run_checks",),
        "render": ("render_structured",),
        "serialize": ("serialize_document", "dump_document"),
    },
}

#: Dispatch paths of ``operator_norm_witness``; ``trivial`` is a zero-dim fiber.
OPNORM_PATHS = ("vertex", "spectral", "facet", "bracket", "trivial")


def metric_names() -> list:
    """Every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_ms"]
    for layer, groups in GROUPS.items():
        for group in groups:
            keys = [f"{layer}.{group}"]
            if (layer, group) == ("norms", "opnorm"):
                keys += [f"norms.opnorm.{p}" for p in OPNORM_PATHS]
            for key in keys:
                names += [f"{key}.calls", f"{key}.self_ms"]
    return names + ["trace_overhead_pct"]


def opnorm_path(mat, source_spec, target_spec) -> str:
    """The branch ``operator_norm_witness`` takes, read from public attributes."""
    if source_spec.dim == 0 or target_spec.dim == 0:
        return "trivial"
    if source_spec.is_polyhedral:
        return "vertex"
    if source_spec.euclidean_transform() is not None:
        if target_spec.is_polyhedral:
            return "facet"
        if target_spec.euclidean_transform() is not None:
            return "spectral"
    return "bracket"


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the time covered by its children.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their covered time is the sum of their
    durations (each clipped to the parent).
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(starts.size, dtype=np.int64)
    child = np.flatnonzero(parents >= 0)
    par = parents[child]
    clipped = np.minimum(ends[child], ends[par]) - np.maximum(starts[child], starts[par])
    np.add.at(covered, par, np.maximum(clipped, 0))
    return (ends - starts) - covered


class Tracer:
    """Collects spans from wrapped library functions while active."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.keys = []  # span name id -> (layer, group or None, path or None)
        self._key_ids = {}
        self.names = array.array("i")
        self.parents = array.array("i")
        self.ops = array.array("i")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self._stack = [-1]
        self._restore = []  # (owner, attribute, original object)

    # -- spans -------------------------------------------------------------

    def _key(self, layer, group=None, path=None) -> int:
        key = (layer, group, path)
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def _wrap(self, fn, key_id, classify=None):
        tracer = self
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            kid = key_id
            if classify is not None:
                tracer.active = False
                try:
                    kid = classify(*args, **kwargs)
                finally:
                    tracer.active = True
            idx = len(starts)
            names.append(kid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        return wrapper

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(layer, qualified name, owner or None, attribute, function)."""
        for layer, modnames in LAYER_MODULES.items():
            grouped = {q for quals in GROUPS[layer].values() for q in quals}
            for modname in modnames:
                mod = sys.modules[modname]
                for name, obj in vars(mod).items():
                    if inspect.isfunction(obj) and obj.__module__ == modname and not name.startswith("_"):
                        yield layer, name, None, name, obj
                    elif inspect.isclass(obj) and obj.__module__ == modname:
                        for attr, meth in vars(obj).items():
                            qual = f"{name}.{attr}"
                            if inspect.isfunction(meth) and (not attr.startswith("_") or qual in grouped):
                                yield layer, qual, obj, attr, meth

    def install(self, *callers) -> None:
        """Wrap every layer function; ``callers`` are further modules (such
        as the benchmark's own) whose imported names are rebound too."""
        import l0limits.harness  # noqa: F401  (load every layer module)

        if self._restore:
            raise RuntimeError("tracer already installed")
        group_of = {(layer, q): g for layer, groups in GROUPS.items()
                    for g, quals in groups.items() for q in quals}
        found = set()
        replaced = {}
        for layer, qual, owner, attr, fn in self._targets():
            group = group_of.get((layer, qual))
            found.add((layer, qual))
            if (layer, group) == ("norms", "opnorm"):
                path_ids = {p: self._key(layer, group, p) for p in OPNORM_PATHS}

                def classify(mat, source_spec, target_spec, _ids=path_ids):
                    return _ids[opnorm_path(mat, source_spec, target_spec)]

                wrapper = self._wrap(fn, None, classify)
            else:
                wrapper = self._wrap(fn, self._key(layer, group))
            if owner is not None:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                replaced[id(fn)] = (fn, wrapper)
        missing = set(group_of) - found
        if missing:
            self.uninstall()
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")
        library = [m for n, m in list(sys.modules.items()) if n == "l0limits" or n.startswith("l0limits.")]
        for mod in library + list(callers):
            for attr, obj in list(vars(mod).items()):
                original, wrapper = replaced.get(id(obj), (None, None))
                if original is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        self.active = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """The span arrays as numpy views (valid until more spans are added)."""
        return {
            "names": np.frombuffer(self.names, dtype=np.int32),
            "parents": np.frombuffer(self.parents, dtype=np.int32),
            "ops": np.frombuffer(self.ops, dtype=np.int32),
            "starts": np.frombuffer(self.starts, dtype=np.int64),
            "ends": np.frombuffer(self.ends, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, keys=json.dumps(self.keys), **self.spans())

    def metrics(self, calls_window: int, traced_ops: int) -> dict:
        """Per-op metrics: calls over ops ``0..calls_window-1`` (which repeat
        exactly for one seed), self time averaged over all traced ops."""
        s = self.spans()
        if np.any(s["ends"] == 0):
            raise RuntimeError("unfinished span")
        own = self_times(s["starts"], s["ends"], s["parents"])
        in_window = s["ops"] < calls_window
        calls = np.bincount(s["names"][in_window], minlength=len(self.keys))
        self_ns = np.bincount(s["names"], weights=own, minlength=len(self.keys))
        totals = {}
        for kid, (layer, group, path) in enumerate(self.keys):
            keys = [layer]
            if group is not None:
                keys.append(f"{layer}.{group}")
            if path is not None:
                keys.append(f"{layer}.{group}.{path}")
            for key in keys:
                c, t = totals.get(key, (0, 0.0))
                totals[key] = (c + int(calls[kid]), t + float(self_ns[kid]))
        out = {}
        for name in metric_names()[:-1]:
            key, kind = name.rsplit(".", 1)
            c, t = totals.get(key, (0, 0.0))
            out[name] = c / calls_window if kind == "calls" else t / 1e6 / traced_ops
        return out
