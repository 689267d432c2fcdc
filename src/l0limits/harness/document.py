"""Self-contained document format for spaces, modules, systems and checks.

One JSON object with cross-references by string id.  Numbers are decimal;
exact rationals may be written as strings "p/q" and are parsed to doubles
at load time.  The serializer is canonical (sorted keys, fixed indent),
so serialize . parse is a fixpoint on bundled fixtures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from ..direct import DirectSystem, SystemMorphism
from ..errors import DocumentError
from ..indexsets import Chain, FinitePoset, HarmonicTail, IdentityTail, ScalarTail
from ..inverse import InverseSystem
from ..measure import AtomMap, AtomicMeasureSpace, L0Function
from ..modules import Element, Fiber, FiberModule, ModuleMorphism
from ..norms import INF, DualOf, FramedP, OperatorNorm, WeightedP, dual_spec, operator_spec

FORMAT_VERSION = 1


def _number(raw, path: str) -> float:
    if isinstance(raw, bool):
        raise DocumentError(path, "expected a number, got a boolean")
    if isinstance(raw, (int, float)):
        try:
            value = float(raw)
        except OverflowError:
            raise DocumentError(path, "integer out of the float range") from None
    elif isinstance(raw, str):
        try:
            value = float(Fraction(raw))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DocumentError(path, f"bad rational literal {raw!r}: {exc}") from None
    else:
        raise DocumentError(path, f"expected a number, got {type(raw).__name__}")
    if not math.isfinite(value):
        raise DocumentError(path, f"number {raw!r} is not finite")
    return value


def _integer(raw, path: str) -> int:
    """An integer field: a JSON integer, a number with an integral value or
    an integer literal.  A boolean or a fractional number is an error."""
    if isinstance(raw, bool):
        raise DocumentError(path, "expected an integer, got a boolean")
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            raise DocumentError(path, f"bad integer literal {raw!r}") from None
    if not isinstance(raw, (int, float)):
        raise DocumentError(path, f"expected an integer, got {type(raw).__name__}")
    if isinstance(raw, float) and not raw.is_integer():
        raise DocumentError(path, f"expected an integer, got {raw!r}")
    return int(raw)


def _tolerance(raw, path: str) -> float:
    value = _number(raw, path)
    if not value > 0.0:
        raise DocumentError(path, f"tolerance must be positive, got {raw!r}")
    return value


def _expect(raw, path: str) -> str:
    if raw not in ("pass", "fail"):
        raise DocumentError(path, f"expect must be 'pass' or 'fail', got {raw!r}")
    return raw


def _finite_floats(raw) -> bool:
    """Whether ``raw`` is a list of finite floats only: the common array,
    which needs neither a path nor a check per number."""
    return type(raw) is list and all([type(x) is float and math.isfinite(x) for x in raw])


def _numbers(raw, path: str) -> list:
    if _finite_floats(raw):
        return list(raw)
    if not isinstance(raw, list):
        raise DocumentError(path, "expected an array of numbers")
    return [_number(x, f"{path}[{k}]") for k, x in enumerate(raw)]


def _matrix(raw, path: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise DocumentError(path, "expected an array of rows")
    rows = [r if _finite_floats(r) else _numbers(r, f"{path}[{k}]") for k, r in enumerate(raw)]
    if rows and len({len(r) for r in rows}) != 1:
        raise DocumentError(path, "ragged matrix rows")
    return np.array(rows, dtype=float) if rows else np.zeros((0, 0))


def _p_value(raw, path: str) -> float:
    if raw in (1, 2, "1", "2"):
        return float(raw)
    if raw in ("inf", "Inf", "INF"):
        return INF
    raise DocumentError(path, f"p must be 1, 2 or 'inf', got {raw!r}")


def _p_repr(p: float):
    return "inf" if p == INF else int(p)


@dataclass
class CheckSpec:
    """One requested verification: a kind, parameters, and expectations."""

    name: str
    kind: str
    params: Dict = field(default_factory=dict)
    tol: Optional[float] = None
    seed: Optional[int] = None
    expect: str = "pass"


@dataclass
class Document:
    """All objects parsed from one document, keyed by their string ids."""

    spaces: Dict[str, AtomicMeasureSpace] = field(default_factory=dict)
    functions: Dict[str, L0Function] = field(default_factory=dict)
    norms: Dict[str, object] = field(default_factory=dict)
    modules: Dict[str, FiberModule] = field(default_factory=dict)
    elements: Dict[str, Element] = field(default_factory=dict)
    morphisms: Dict[str, ModuleMorphism] = field(default_factory=dict)
    index_sets: Dict[str, object] = field(default_factory=dict)
    systems: Dict[str, object] = field(default_factory=dict)
    system_morphisms: Dict[str, SystemMorphism] = field(default_factory=dict)
    atom_maps: Dict[str, AtomMap] = field(default_factory=dict)
    checks: List[CheckSpec] = field(default_factory=list)


def _ref(table: Dict, key, path: str):
    if key not in table:
        raise DocumentError(path, f"unresolved reference {key!r}")
    return table[key]


class _at:
    """``with _at(path) as path:`` reports any failure inside the block as
    a document error at ``path``; a :class:`DocumentError` raised inside
    keeps its own, deeper path.  (A class, not ``contextmanager``: it
    wraps every entry and fiber of a document, and costs a quarter as
    much.)"""

    __slots__ = ("path",)

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> str:
        return self.path

    def __exit__(self, kind, exc, tb) -> bool:
        if isinstance(exc, Exception) and not isinstance(exc, DocumentError):
            raise DocumentError(self.path, str(exc)) from None
        return False


def _entries(data: Dict, table: str) -> list:
    """The ``(id, raw entry)`` pairs of one table, in id order; each entry
    must be an object."""
    raw = data.get(table, {})
    if not isinstance(raw, dict):
        raise DocumentError(f"$.{table}", "expected an object of entries")
    items = sorted(raw.items())
    for key, entry in items:
        if not isinstance(entry, dict):
            raise DocumentError(f"$.{table}.{key}", "expected an object")
    return items


def parse_document(data: Dict) -> Document:
    if not isinstance(data, dict):
        raise DocumentError("$", "document root must be an object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError("$.format_version", f"unsupported version {version!r}")
    doc = Document()
    for sid, raw in _entries(data, "spaces"):
        with _at(f"$.spaces.{sid}") as path:
            doc.spaces[sid] = AtomicMeasureSpace(
                raw.get("atoms", []), _numbers(raw.get("weights", []), f"{path}.weights")
            )
    for fid, raw in _entries(data, "functions"):
        with _at(f"$.functions.{fid}") as path:
            space = _ref(doc.spaces, raw.get("space"), f"{path}.space")
            doc.functions[fid] = L0Function(
                space, _numbers(raw.get("values", []), f"{path}.values")
            )
    norms = dict(_entries(data, "norms"))
    for nid, raw in norms.items():
        doc.norms[nid] = _parse_norm(doc, nid, raw, norms)
    for mid, raw in _entries(data, "modules"):
        with _at(f"$.modules.{mid}") as path:
            space = _ref(doc.spaces, raw.get("space"), f"{path}.space")
            raw_fibers = raw.get("fibers", [])
            if not isinstance(raw_fibers, list) or len(raw_fibers) != space.atom_count:
                raise DocumentError(f"{path}.fibers", "one fiber per atom required")
            fibers = [
                _parse_fiber(doc, rf, f"{path}.fibers[{k}]") for k, rf in enumerate(raw_fibers)
            ]
            doc.modules[mid] = FiberModule(space, tuple(fibers))
    for eid, raw in _entries(data, "elements"):
        with _at(f"$.elements.{eid}") as path:
            module = _ref(doc.modules, raw.get("module"), f"{path}.module")
            coords = raw.get("coords", [])
            doc.elements[eid] = Element(
                module, [_numbers(c, f"{path}.coords[{k}]") for k, c in enumerate(coords)]
            )
    for pid, raw in _entries(data, "morphisms"):
        with _at(f"$.morphisms.{pid}") as path:
            source = _ref(doc.modules, raw.get("source"), f"{path}.source")
            target = _ref(doc.modules, raw.get("target"), f"{path}.target")
            # Parsed matrices are finite float64 arrays no one else holds,
            # so the morphism adopts them.
            mats = [
                _matrix(m, f"{path}.matrices[{k}]")
                for k, m in enumerate(raw.get("matrices", []))
            ]
            doc.morphisms[pid] = ModuleMorphism(source, target, mats, _fresh=True)
    for iid, raw in _entries(data, "index_sets"):
        doc.index_sets[iid] = _parse_index_set(doc, iid, raw)
    for sid, raw in _entries(data, "systems"):
        doc.systems[sid] = _parse_system(doc, sid, raw)
    for tid, raw in _entries(data, "system_morphisms"):
        with _at(f"$.system_morphisms.{tid}") as path:
            source = _ref(doc.systems, raw.get("source"), f"{path}.source")
            target = _ref(doc.systems, raw.get("target"), f"{path}.target")
            components = {}
            for key, ref in raw.get("components", {}).items():
                idx = _stage_key(source.index, key, f"{path}.components.{key}")
                components[idx] = _ref(doc.morphisms, ref, f"{path}.components.{key}")
            doc.system_morphisms[tid] = SystemMorphism(source, target, components)
    for aid, raw in _entries(data, "atom_maps"):
        with _at(f"$.atom_maps.{aid}") as path:
            source = _ref(doc.spaces, raw.get("source"), f"{path}.source")
            target = _ref(doc.spaces, raw.get("target"), f"{path}.target")
            doc.atom_maps[aid] = AtomMap(source, target, raw.get("table", {}))
    checks = data.get("checks", [])
    if not isinstance(checks, list):
        raise DocumentError("$.checks", "expected an array of checks")
    for k, raw in enumerate(checks):
        with _at(f"$.checks[{k}]") as path:
            if not isinstance(raw, dict) or "kind" not in raw:
                raise DocumentError(path, "check needs at least a kind")
            doc.checks.append(
                CheckSpec(
                    name=str(raw.get("name", f"check-{k}")),
                    kind=str(raw["kind"]),
                    params={
                        key: val
                        for key, val in raw.items()
                        if key not in ("name", "kind", "tol", "seed", "expect")
                    },
                    tol=None if "tol" not in raw else _tolerance(raw["tol"], f"{path}.tol"),
                    seed=None if "seed" not in raw else _integer(raw["seed"], f"{path}.seed"),
                    expect=_expect(raw.get("expect", "pass"), f"{path}.expect"),
                )
            )
    names = [c.name for c in doc.checks]
    if len(set(names)) != len(names):
        raise DocumentError("$.checks", "check names must be unique")
    return doc


def _parse_fiber(doc: Document, raw, path: str) -> Fiber:
    if not isinstance(raw, dict) or "dim" not in raw:
        raise DocumentError(path, "fiber needs a dim")
    with _at(path):
        dim = _integer(raw["dim"], f"{path}.dim")
        if dim == 0:
            return Fiber(0, WeightedP(1, ()))
        return Fiber(dim, _ref(doc.norms, raw.get("norm"), f"{path}.norm"))


def _parse_norm(doc: Document, nid: str, raw, all_raw, pending: tuple = ()) -> object:
    """The norm ``nid``; ``pending`` are the ids whose parse is waiting
    for it, outermost first."""
    path = f"$.norms.{nid}"
    if nid in doc.norms:
        return doc.norms[nid]
    if "kind" not in raw:
        raise DocumentError(path, "norm needs a kind")
    kind = raw["kind"]
    pending = (*pending, nid)

    def resolve(key: str):
        """The norm ``raw[key]`` names, parsed first if its id sorts later."""
        ref = raw.get(key)
        if ref not in doc.norms and ref in all_raw:
            if ref in pending:
                cycle = " -> ".join(pending[pending.index(ref):] + (ref,))
                raise DocumentError(f"$.norms.{ref}", f"cyclic norm reference {cycle}")
            doc.norms[ref] = _parse_norm(doc, ref, all_raw[ref], all_raw, pending)
        return _ref(doc.norms, ref, f"{path}.{key}")

    with _at(path):
        if kind == "weighted_p":
            return WeightedP(
                _p_value(raw.get("p"), f"{path}.p"),
                _numbers(raw.get("weights", []), f"{path}.weights"),
            )
        if kind == "framed_p":
            return FramedP(
                _p_value(raw.get("p"), f"{path}.p"),
                _matrix(raw.get("matrix", []), f"{path}.matrix"),
            )
        if kind == "dual_of":
            return dual_spec(resolve("inner"))
        if kind == "operator":
            return operator_spec(
                _integer(raw.get("source_dim", -1), f"{path}.source_dim"),
                resolve("source_norm"),
                _integer(raw.get("target_dim", -1), f"{path}.target_dim"),
                resolve("target_norm"),
            )
        raise DocumentError(path, f"unknown norm kind {kind!r}")


def _parse_index_set(doc: Document, iid: str, raw) -> object:
    path = f"$.index_sets.{iid}"
    if "kind" not in raw:
        raise DocumentError(path, "index set needs a kind")
    kind = raw["kind"]
    with _at(path):
        if kind == "finite_poset":
            return FinitePoset(
                raw.get("elements", []),
                [tuple(p) for p in raw.get("relation", [])],
            )
        if kind == "chain":
            tail_raw = raw.get("tail", {"kind": "identity"})
            tail_kind = tail_raw.get("kind")
            if tail_kind == "identity":
                tail = IdentityTail()
            elif tail_kind == "harmonic":
                tail = HarmonicTail()
            elif tail_kind == "scalar":
                tail = ScalarTail(
                    _ref(doc.functions, tail_raw.get("function"), f"{path}.tail.function")
                )
            else:
                raise DocumentError(f"{path}.tail", f"unknown tail kind {tail_kind!r}")
            return Chain(_integer(raw.get("stages", 0), f"{path}.stages"), tail)
        raise DocumentError(path, f"unknown index set kind {kind!r}")


def _stage_key(index, key: str, path: str):
    if isinstance(index, Chain):
        try:
            stage = int(key)
        except ValueError:
            raise DocumentError(path, f"chain stage {key!r} is not an integer") from None
        if not 0 <= stage < index.stages:
            raise DocumentError(path, f"chain stage {key!r} is not in 0..{index.last}")
        return stage
    if key not in index.elements:
        raise DocumentError(path, f"unknown poset element {key!r}")
    return key


def _parse_system(doc: Document, sid: str, raw) -> object:
    path = f"$.systems.{sid}"
    if raw.get("kind") not in ("direct", "inverse"):
        raise DocumentError(path, "system kind must be 'direct' or 'inverse'")
    with _at(path):
        index = _ref(doc.index_sets, raw.get("index_set"), f"{path}.index_set")
        modules = {}
        for key, ref in raw.get("modules", {}).items():
            idx = _stage_key(index, key, f"{path}.modules.{key}")
            modules[idx] = _ref(doc.modules, ref, f"{path}.modules.{key}")
        maps = {}
        for key, ref in raw.get("maps", {}).items():
            if "|" not in key:
                raise DocumentError(f"{path}.maps.{key}", "map keys look like 'i|j'")
            ki, kj = key.split("|", 1)
            pair = (
                _stage_key(index, ki, f"{path}.maps.{key}"),
                _stage_key(index, kj, f"{path}.maps.{key}"),
            )
            maps[pair] = _ref(doc.morphisms, ref, f"{path}.maps.{key}")
        cls = DirectSystem if raw["kind"] == "direct" else InverseSystem
        return cls(index, modules, maps)


def load_document(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # undecodable bytes, or not JSON
            raise DocumentError("$", f"invalid JSON: {exc}") from None
    return parse_document(data)


# ---------------------------------------------------------------------------
# Canonical serialization.
#
# One payload function per object kind.  Each takes the object, a resolver
# ``id_of(table, obj, name=None)`` giving the id of an object it refers to,
# and the object's own id, from which the ids of the parts it owns are
# formed.  The builder's resolver adds those parts under the ids given;
# the serializer's looks up the ids of a parsed document.
# ---------------------------------------------------------------------------


def _floats(values) -> list:
    """An array of any shape as nested lists of Python floats."""
    return np.asarray(values, dtype=float).tolist()


def _space_payload(space: AtomicMeasureSpace, id_of, sid: str) -> Dict:
    return {"atoms": list(space.atom_ids), "weights": _floats(space.weights)}


def _function_payload(f: L0Function, id_of, fid: str) -> Dict:
    return {"space": id_of("spaces", f.space), "values": _floats(f.values)}


def _norm_payload(norm, id_of, nid: str) -> Dict:
    if isinstance(norm, WeightedP):
        return {"kind": "weighted_p", "p": _p_repr(norm.p), "weights": _floats(norm.weights)}
    if isinstance(norm, FramedP):
        return {
            "kind": "framed_p",
            "p": _p_repr(norm.p),
            "matrix": _floats(norm.matrix),
        }
    if isinstance(norm, DualOf):
        return {"kind": "dual_of", "inner": id_of("norms", norm.inner)}
    if isinstance(norm, OperatorNorm):
        return {
            "kind": "operator",
            "source_dim": norm.source_dim,
            "source_norm": id_of("norms", norm.source_spec),
            "target_dim": norm.target_dim,
            "target_norm": id_of("norms", norm.target_spec),
        }
    raise DocumentError("$", f"cannot serialize norm {norm!r}")


def _module_payload(module: FiberModule, id_of, mid: str) -> Dict:
    return {
        "space": id_of("spaces", module.space),
        "fibers": [
            {"dim": 0} if f.dim == 0 else {"dim": f.dim, "norm": id_of("norms", f.norm)}
            for f in module.fibers
        ],
    }


def _element_payload(element: Element, id_of, eid: str) -> Dict:
    return {
        "module": id_of("modules", element.module),
        "coords": [_floats(c) for c in element.coords],
    }


def _morphism_payload(phi: ModuleMorphism, id_of, pid: str) -> Dict:
    return {
        "source": id_of("modules", phi.source),
        "target": id_of("modules", phi.target),
        "matrices": [_floats(m) for m in phi.matrices],
    }


def _index_set_payload(index, id_of, iid: str) -> Dict:
    if isinstance(index, FinitePoset):
        return {
            "kind": "finite_poset",
            "elements": list(index.elements),
            "relation": [list(p) for p in index.related_pairs()],
        }
    tail = index.tail
    tail_payload = {"kind": tail.kind}
    if tail.kind == "scalar":
        tail_payload["function"] = id_of("functions", tail.function, f"tail_{iid}")
    return {"kind": "chain", "stages": index.stages, "tail": tail_payload}


def _system_payload(system, id_of, sid: str) -> Dict:
    return {
        "kind": "direct" if isinstance(system, DirectSystem) else "inverse",
        "index_set": id_of("index_sets", system.index, f"idx_{sid}"),
        "modules": {
            str(i): id_of("modules", m, f"{sid}_M{i}") for i, m in system.modules.items()
        },
        "maps": {
            f"{i}|{j}": id_of("morphisms", phi, f"{sid}_phi_{i}_{j}")
            for (i, j), phi in system.maps.items()
        },
    }


def _system_morphism_payload(theta: SystemMorphism, source_id: str, target_id: str,
                             id_of, tid: str) -> Dict:
    return {
        "source": source_id,
        "target": target_id,
        "components": {
            str(i): id_of("morphisms", c, f"{tid}_theta_{i}")
            for i, c in theta.components.items()
        },
    }


def _atom_map_payload(atom_map: AtomMap, id_of, aid: str) -> Dict:
    return {
        "source": id_of("spaces", atom_map.source),
        "target": id_of("spaces", atom_map.target),
        "table": dict(sorted(atom_map.table.items())),
    }


def _check_payload(check: CheckSpec) -> Dict:
    payload = {"name": check.name, "kind": check.kind, **check.params}
    if check.tol is not None:
        payload["tol"] = check.tol
    if check.seed is not None:
        payload["seed"] = check.seed
    if check.expect != "pass":
        payload["expect"] = check.expect
    return payload


#: The payload function of each table of objects filed under their ids.
_PAYLOADS = {
    "spaces": _space_payload,
    "functions": _function_payload,
    "norms": _norm_payload,
    "modules": _module_payload,
    "elements": _element_payload,
    "morphisms": _morphism_payload,
    "index_sets": _index_set_payload,
    "systems": _system_payload,
    "atom_maps": _atom_map_payload,
}


class DocumentBuilder:
    """Accumulates objects and emits the canonical document dict.

    Spaces, functions, norm specs and modules are deduplicated
    structurally: adding one equal to an earlier one returns the earlier
    id.  Norm specs get ids ``n0, n1, ...`` in first-use order, so
    rebuilding the same objects reproduces the same bytes.
    """

    def __init__(self):
        self.data = {"format_version": FORMAT_VERSION, "system_morphisms": {}, "checks": []}
        self.data.update({table: {} for table in _PAYLOADS})
        self._ids = {table: {} for table in ("spaces", "functions", "norms", "modules")}

    def _put(self, table: str, name: str, obj) -> str:
        ids = self._ids.get(table)
        if ids is not None:
            if obj in ids:
                return ids[obj]
            ids[obj] = name  # before the payload, so inner norms number after
        self.data[table][name] = _PAYLOADS[table](obj, self._id_of, name)
        return name

    def _id_of(self, table: str, obj, name: Optional[str] = None) -> str:
        """The id of a part: norms are added under the next ``n{k}``, other
        named parts under ``name``; an unnamed space or module must have
        been added already."""
        if table == "norms":
            return self._put(table, f"n{len(self._ids['norms'])}", obj)
        if name is None:
            return self._ids[table][obj]
        return self._put(table, name, obj)

    def add_space(self, sid: str, space: AtomicMeasureSpace) -> str:
        return self._put("spaces", sid, space)

    def add_function(self, fid: str, f: L0Function) -> str:
        return self._put("functions", fid, f)

    def add_module(self, mid: str, module: FiberModule) -> str:
        return self._put("modules", mid, module)

    def add_morphism(self, pid: str, phi: ModuleMorphism) -> str:
        return self._put("morphisms", pid, phi)

    def add_index_set(self, iid: str, index) -> str:
        return self._put("index_sets", iid, index)

    def add_system(self, sid: str, system) -> str:
        return self._put("systems", sid, system)

    def add_system_morphism(
        self, tid: str, theta: SystemMorphism, source_id: str, target_id: str
    ) -> str:
        self.data["system_morphisms"][tid] = _system_morphism_payload(
            theta, source_id, target_id, self._id_of, tid
        )
        return tid

    def add_atom_map(self, aid: str, atom_map: AtomMap) -> str:
        return self._put("atom_maps", aid, atom_map)

    def add_check(self, name: str, kind: str, expect: str = "pass", **params) -> None:
        self.data["checks"].append(_check_payload(CheckSpec(name, kind, params, expect=expect)))


def serialize_document(doc: Document) -> Dict:
    """Re-emit a parsed document under its original ids.

    Together with :func:`parse_document` this is a fixpoint on canonical
    files: parsing and re-serializing a bundled fixture reproduces its
    bytes (norm specs in such files are already in simplified form).
    Ids are looked up by object identity, so equal objects filed under two
    ids keep both.
    """
    ids = {
        table: {id(obj): key for key, obj in getattr(doc, table).items()}
        for table in _PAYLOADS
    }

    def id_of(table: str, obj, name: Optional[str] = None) -> str:
        return ids[table][id(obj)]

    data = {
        table: {key: payload(obj, id_of, key) for key, obj in getattr(doc, table).items()}
        for table, payload in _PAYLOADS.items()
    }
    systems = ids["systems"]
    data["system_morphisms"] = {
        tid: _system_morphism_payload(
            theta, systems[id(theta.source)], systems[id(theta.target)], id_of, tid
        )
        for tid, theta in doc.system_morphisms.items()
    }
    data["format_version"] = FORMAT_VERSION
    data["checks"] = [_check_payload(check) for check in doc.checks]
    return data


# ---------------------------------------------------------------------------
# Canonical JSON text.
#
# The bytes of ``json.dumps(value, indent=2, sort_keys=True)``, which with
# ``indent`` set runs CPython's pure-Python encoder.  This emitter writes
# the same text with one recursive function that appends to one list of
# pieces, and a single ``join`` for each list of plain floats (the rows of
# every matrix and weight vector) or of plain strings (atom ids, poset
# elements).
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == INF:
        return "Infinity"
    if x == -INF:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return _encode_str(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _encode_str(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(value, indent: str, out: list, default) -> None:
    """Append ``value`` as canonical JSON to ``out``; ``indent`` is the
    newline and the indentation of the line the value starts on."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "," + inner
        lead = "{" + inner
        for key in sorted(value):  # distinct keys: the order of json's sorted items
            item = value[key]
            out.append(lead + (_encode_str(key) if type(key) is str else _key_text(key)) + ": ")
            if type(item) is str:
                out.append(_encode_str(item))
            else:
                _emit(item, inner, out, default)
            lead = sep
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "," + inner
        text = None
        try:  # one join for a list of floats or of strings
            if type(value[0]) is float:
                text = sep.join(map(float.__repr__, value))
                if "n" in text:  # "nan" or "inf": finite reprs hold no "n"
                    text = None
            elif type(value[0]) is str:
                text = sep.join(map(_encode_str, value))
        except TypeError:  # a later item of another type
            text = None
        if text is not None:
            out.append("[" + inner + text + indent + "]")
            return
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _emit(item, inner, out, default)
            lead = sep
        out.append(indent + "]")
    # Scalars, tested in the order json tests them.
    elif isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif default is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    else:
        _emit(default(value), indent, out, default)


def _canonical_json(value, default=None) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, default=default)``
    plus a final newline, byte for byte."""
    out = []
    _emit(value, "\n", out, default)
    out.append("\n")
    return "".join(out)


def dump_document(data: Dict) -> str:
    """Canonical text form: sorted keys, two-space indent, newline at end."""
    return _canonical_json(data)


def save_document(path: str, data: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_document(data))
