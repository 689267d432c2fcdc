"""Check dispatch, verdicts and report rendering.

Each check runs one verification against loaded objects and yields a raw
outcome (pass, fail or error) with a witness.  Counterexample checks
declare ``expect: fail``; their verdict is pass exactly when the raw
property fails as designed, and the witness records how.

Reports are deterministic for a fixed (document, tolerance) pair: no
check draws random numbers, checks are sorted by name and the structured
rendering carries no wall clock (durations appear only in the text
format).  The seed a report carries is recorded and steers nothing.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .. import pullback as pb
from ..config import tolerance, tolerance_override
from ..direct import solve_square_component
from ..errors import DocumentError, L0LimitsError
from ..indexsets import FinitePoset, greatest_element
from ..inverse import hom_inverse_system
from ..modules import morphism_deviation, scalar_module
from ..systems import (
    _limit,
    _limit_functor,
    _rank_preservation,
    _require_valid_systems,
    _universal_factorization,
    validate_system,
    validate_system_morphism,
)
from .document import CheckSpec, Document, _canonical_json, _integer, _stage_key

#: Documented boundary of the representable corpus, carried in reports.
SCOPE_NOTES = (
    "kernel preservation can fail for direct limits only through "
    "infinite-dimensional completions; no finite-fiber instance exists "
    "in this corpus, so the negative side is documented rather than run",
    "the inverse-limit/pullback comparison collects per-instance evidence "
    "only; the known non-commuting witness needs a non-atomic base space",
)


@dataclass
class CheckResult:
    name: str
    kind: str
    raw_outcome: str  # pass | fail | error
    verdict: str  # pass | fail | error
    expected: str
    witness: Dict = field(default_factory=dict)
    provenance: Tuple[str, ...] = ()
    duration: float = 0.0


@dataclass
class RunReport:
    tolerance: float
    seed: int
    document: str
    results: List[CheckResult]

    @property
    def exit_code(self) -> int:
        if any(r.verdict == "error" for r in self.results):
            return 2
        if any(r.verdict == "fail" for r in self.results):
            return 1
        return 0


def _dims(module) -> Dict:
    return {atom: fiber.dim for atom, fiber in zip(module.space.atom_ids, module.fibers)}


# Handlers: each takes a check's parameters as resolved objects, under their
# document names, and returns (raw outcome, witness, provenance).


def _check_validate(system):
    report = validate_system(system)
    violations = [
        {"kind": v.kind, "indices": [str(i) for i in v.indices],
         "deviation": v.deviation, "detail": v.detail}
        for v in report.violations
    ]
    return ("pass" if report.passed else "fail"), {"violations": violations}, ("system-laws",)


def _check_limit(system, expect_zero=False, expect_dims=None):
    presentation = _limit(system)
    witness = {"dims": _dims(presentation.module), "provenance": presentation.provenance,
               "canonical_maps": len(presentation.canonical)}
    outcome = "pass"
    if expect_zero and any(f.dim != 0 for f in presentation.module.fibers):
        outcome = "fail"
        witness["reason"] = "expected a zero limit module"
    if expect_dims is not None and expect_dims != witness["dims"]:
        outcome = "fail"
        witness["reason"] = f"expected dims {expect_dims}, got {witness['dims']}"
    return outcome, witness, (presentation.provenance,)


def _check_greatest(index_set):
    top = greatest_element(index_set)
    ok = all(index_set.leq(e, top) for e in index_set.elements)
    return ("pass" if ok else "fail"), {"top": top}, ("greatest-element",)


def _check_universal(system, **cone):
    """The cone of a direct system is a target, of an inverse one a source:
    the ``<side>_module`` and ``<side>_maps`` parameters."""
    side = system.cone_side
    worst = _universal_factorization(system, cone[f"{side}_module"], cone[f"{side}_maps"])[1]
    return "pass", {f"max_{system.cone_shape}_deviation": worst}, ("universal-property",)


def _check_square_solvable(source_system, target_system, given, solve_for):
    solution = solve_square_component(source_system, target_system, given, solve_for)
    witness = {"residual": solution.residual, "detail": solution.witness}
    return ("pass" if solution.exists else "fail"), witness, ("square-solvability",)


def _check_functor_square(first, second=None, expect_equal_images=True,
                          require_components_differ=False):
    report = validate_system_morphism(first)
    if not report.passed:
        # An invalid morphism induces no limit map.
        return "fail", {"first_violations": len(report.violations)}, ("limit-functor",)
    outcome = "pass"
    _require_valid_systems(first)
    image_first = _limit_functor(first, validate=False)
    witness: Dict = {"limit_map_dims": [list(m.shape) for m in image_first.matrices]}
    if second is not None:
        image_second = _limit_functor(second)
        components_differ = any(
            morphism_deviation(first.components[i], second.components[i]) > tolerance()
            for i in first.components
        )
        dev = morphism_deviation(image_first, image_second)
        witness["components_differ"] = components_differ
        witness["limit_image_deviation"] = dev
        witness["images_equal"] = bool(dev <= tolerance())
        if expect_equal_images and dev > tolerance():
            outcome = "fail"
        if require_components_differ and not components_differ:
            outcome = "fail"
    return outcome, witness, ("limit-functor",)


def _check_preserved(morphism, onto):
    """Surjectivity (``onto``) or injectivity, at every stage and in the limit."""
    adjective = "surjective" if onto else "injective"
    report = _rank_preservation(morphism, onto)
    witness = {
        f"stages_{adjective}": report.stages_have_property,
        f"limit_{adjective}": report.limit_has_property,
        "detail": report.witness,
    }
    ok = report.stages_have_property and report.limit_has_property
    provenance = "image-preservation" if onto else "kernel-preservation"
    return ("pass" if ok else "fail"), witness, (provenance,)


def _check_pullback_commute(system, atom_map):
    report = pb.dl_pullback_iso(atom_map, system)
    witness = {
        "bijective": report.certificate.bijective,
        "max_norm_deviation": report.certificate.max_norm_deviation,
        "limit_dims": _dims(report.limit_of_pulled.module),
    }
    return ("pass" if report.ok else "fail"), witness, ("pullback-commute",)


def _check_sections_iso(factor_space, module):
    report = pb.sections_iso(factor_space, module)
    witness = {
        "norm_identity_exact": report.norm_identity_exact,
        "constant_section_matches": report.constant_section_matches,
        "bijective": report.certificate.bijective,
    }
    return ("pass" if report.ok else "fail"), witness, ("sections-iso",)


def _check_hom_iso(system, module=None):
    """Homs into ``module``, or for a dual-iso check into the scalar module."""
    provenance = "dual-of-limit" if module is None else "hom-of-limit"
    fixed = scalar_module(system.space) if module is None else module
    cert = hom_inverse_system(system, fixed).certificate
    witness = {"bijective": cert.bijective, "max_norm_deviation": cert.max_norm_deviation}
    return ("pass" if cert.ok else "fail"), witness, (provenance,)


def _check_il_pullback(system, atom_map):
    report = pb.il_pullback_compare(atom_map, system)
    witness = {
        "isomorphic_on_instance": report.ok,
        "max_norm_deviation": report.certificate.max_norm_deviation,
        "note": report.note,
    }
    return ("pass" if report.ok else "fail"), witness, ("il-pullback-compare",)


# The contract of each check kind.  A parameter resolves its raw value as
# ``resolve(doc, raw, resolved, path)``, given the parameters resolved
# before it and its path below the check; a value it cannot resolve is a
# DocumentError at that path.

#: A declared parameter: what it holds (for messages), how it resolves and
#: whether a check must give it.
_Param = namedtuple("_Param", "what resolve required", defaults=(True,))


def _id(table: str, cls=object) -> _Param:
    """The id of an object of ``doc.<table>`` that is an instance of ``cls``."""
    what = table[:-1].replace("_", " ")

    def resolve(doc, raw, resolved, path):
        obj = getattr(doc, table).get(raw) if isinstance(raw, str) else None
        if obj is None:
            raise DocumentError(path, f"unknown {what} {raw!r}")
        if not isinstance(obj, cls):
            raise DocumentError(path, f"{raw!r} is a {type(obj).__name__}, not a {cls.__name__}")
        return obj

    return _Param(f"{what} id", resolve)


def _flag(doc, raw, resolved, path):
    if not isinstance(raw, bool):
        raise DocumentError(path, f"expected true or false, got {raw!r}")
    return raw


def _atom_dims(doc, raw, resolved, path):
    if not isinstance(raw, dict):
        raise DocumentError(path, "expected an object of dims by atom")
    return {atom: _integer(dim, f"{path}.{atom}") for atom, dim in raw.items()}


def _stage(system: str) -> _Param:
    """A stage of the system that the parameter ``system`` names."""

    def resolve(doc, raw, resolved, path):
        if not isinstance(raw, str):
            raise DocumentError(path, f"expected a stage key, got {raw!r}")
        return _stage_key(resolved[system].index, raw, path)

    return _Param("stage", resolve)


def _stage_maps(system: str, every_stage: bool = False) -> _Param:
    """Morphism ids by stage of the system that the parameter ``system``
    names; with ``every_stage``, one for each of its explicit stages."""
    stage, morphism = _stage(system).resolve, _id("morphisms").resolve

    def resolve(doc, raw, resolved, path):
        if not isinstance(raw, dict):
            raise DocumentError(path, "expected an object of morphism ids by stage")
        maps = {
            stage(doc, k, resolved, f"{path}.{k}"): morphism(doc, ref, resolved, f"{path}.{k}")
            for k, ref in raw.items()
        }
        if every_stage:
            for i in resolved[system].index.explicit_indices():
                if i not in maps:
                    raise DocumentError(path, f"missing the map at stage {str(i)!r}")
        return maps

    return _Param("stage map", resolve)


@dataclass(frozen=True)
class _Contract:
    """What a check kind takes: its handler, the direction (``direct`` or
    ``inverse``) its ``system`` parameter must have, if any, and its
    parameters in resolution order.  A parameter declared as a contract is
    a group: given, it is the only parameter and binds its own handler."""

    handler: Callable
    direction: Optional[str]
    params: Dict[str, object]
    required = False  # a group: without it, its siblings apply


def _contract(handler, direction=None, **params) -> _Contract:
    return _Contract(handler, direction, params)


def _bind(doc: Document, kind: str, contract: _Contract, raw, path: str):
    """The handler of ``contract`` and its keyword arguments resolved from
    ``raw``, the parameters at ``path``.  An undeclared, missing or
    mistyped parameter, an id that names nothing and a system of the
    wrong direction are each a DocumentError at the parameter's path."""
    if not isinstance(raw, dict):
        raise DocumentError(path, "expected an object of parameters")
    for name in raw:
        param = contract.params.get(name)
        if param is None:
            raise DocumentError(f"{path}.{name}", f"{kind} has no parameter {name!r}")
        if isinstance(param, _Contract):
            other = next((n for n in raw if n != name), None)
            if other is not None:
                message = f"{kind} takes {other!r} or {name!r}, not both"
                raise DocumentError(f"{path}.{other}", message)
            return _bind(doc, kind, param, raw[name], f"{path}.{name}")
    args = {}
    for name, param in contract.params.items():
        if name in raw:
            args[name] = param.resolve(doc, raw[name], args, f"{path}.{name}")
        elif param.required:
            raise DocumentError(f"{path}.{name}", f"missing {param.what}")
        if name == "system" and contract.direction not in (None, args[name].limit_kind):
            raise DocumentError(
                f"{path}.system", f"{kind} needs a system of kind {contract.direction!r}, "
                f"{raw[name]!r} is {args[name].limit_kind!r}"
            )
    return contract.handler, args


_SYSTEM, _MODULE, _MORPHISM = _id("systems"), _id("modules"), _id("system_morphisms")
_FLAG, _ATOM_DIMS = _Param("flag", _flag, False), _Param("atom dims", _atom_dims, False)
_CONE_MAPS = _stage_maps("system", every_stage=True)

_CONTRACTS = {
    "validate-system": _contract(_check_validate, system=_SYSTEM),
    "direct-limit": _contract(
        _check_limit, "direct", system=_SYSTEM, expect_zero=_FLAG, expect_dims=_ATOM_DIMS
    ),
    "inverse-limit": _contract(
        _check_limit, "inverse", system=_SYSTEM, expect_zero=_FLAG, expect_dims=_ATOM_DIMS
    ),
    "universal-direct": _contract(
        _check_universal, "direct",
        system=_SYSTEM, target_module=_MODULE, target_maps=_CONE_MAPS,
    ),
    "universal-inverse": _contract(
        _check_universal, "inverse",
        system=_SYSTEM, source_module=_MODULE, source_maps=_CONE_MAPS,
    ),
    "functor-square": _contract(
        _check_functor_square,
        first=_MORPHISM, second=_MORPHISM._replace(required=False),
        expect_equal_images=_FLAG, require_components_differ=_FLAG,
        solve=_contract(
            _check_square_solvable, source_system=_SYSTEM, target_system=_SYSTEM,
            given=_stage_maps("source_system"), solve_for=_stage("source_system"),
        ),
    ),
    "pullback-commute": _contract(
        _check_pullback_commute, "direct", system=_SYSTEM, atom_map=_id("atom_maps")
    ),
    "il-pullback-compare": _contract(
        _check_il_pullback, "inverse", system=_SYSTEM, atom_map=_id("atom_maps")
    ),
    "sections-iso": _contract(_check_sections_iso, factor_space=_id("spaces"), module=_MODULE),
    "dual-iso": _contract(_check_hom_iso, "direct", system=_SYSTEM),
    "hom-iso": _contract(_check_hom_iso, "direct", system=_SYSTEM, module=_MODULE),
    "greatest-element": _contract(_check_greatest, index_set=_id("index_sets", FinitePoset)),
    "surjectivity-preserved": _contract(partial(_check_preserved, onto=True), morphism=_MORPHISM),
    "injectivity-preserved": _contract(partial(_check_preserved, onto=False), morphism=_MORPHISM),
}

CHECK_KINDS = tuple(sorted(_CONTRACTS))


def run_check(doc: Document, spec: CheckSpec) -> CheckResult:
    """Run one check: bind its parameters by its kind's contract, then call
    the handler under the check's (possibly overridden) tolerance.  No
    check draws random numbers, so a check's ``seed`` field steers nothing."""
    contract = _CONTRACTS.get(spec.kind)
    if contract is None:
        reason = {"reason": f"unknown check kind {spec.kind!r}"}
        return CheckResult(spec.name, spec.kind, "error", "error", spec.expect, reason)
    start = time.perf_counter()
    tol = spec.tol if spec.tol is not None else tolerance()
    try:
        handler, args = _bind(doc, spec.kind, contract, spec.params, "")
        with tolerance_override(tol):
            raw, witness, provenance = handler(**args)
    except DocumentError as exc:  # a parameter, at its path below the check
        k = next((k for k, c in enumerate(doc.checks) if c is spec), repr(spec.name))
        raw, witness, provenance = "error", {"reason": f"$.checks[{k}]{exc}"}, ("error",)
    except L0LimitsError as exc:
        raw, witness, provenance = "error", {"reason": str(exc)}, ("error",)
    except Exception as exc:  # a library fault, not a malformed parameter
        raw, witness = "error", {"reason": f"{type(exc).__name__}: {exc}"}
        provenance = ("error",)
    duration = time.perf_counter() - start
    verdict = "error" if raw == "error" else "pass" if raw == spec.expect else "fail"
    return CheckResult(
        spec.name, spec.kind, raw, verdict, spec.expect, witness, provenance, duration
    )


def run_checks(
    doc: Document,
    checks: Optional[List[CheckSpec]] = None,
    seed: int = 0,
    document_name: str = "<memory>",
) -> RunReport:
    checks = doc.checks if checks is None else checks
    results = [run_check(doc, spec) for spec in checks]
    results.sort(key=lambda r: r.name)
    return RunReport(tolerance(), seed, document_name, results)


def render_text(report: RunReport) -> str:
    lines = [
        "check report",
        f"tolerance: {report.tolerance:g}   seed: {report.seed}   "
        f"document: {report.document}",
    ]
    for r in report.results:
        flag = {"pass": "PASS", "fail": "FAIL", "error": "ERR "}[r.verdict]
        extra = ""
        if r.raw_outcome != r.verdict and r.verdict == "pass":
            extra = f"  (fails as designed: {_shorten(r.witness)})"
        elif r.verdict != "pass":
            extra = f"  witness: {_shorten(r.witness)}"
        lines.append(f"[{flag}] {r.name}  ({r.kind})  {r.duration:.3f}s{extra}")
    counts = _summary(report)
    lines.append(
        f"summary: {counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['error']} errors"
    )
    for note in SCOPE_NOTES:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _shorten(witness: Dict, limit: int = 200) -> str:
    text = json.dumps(witness, sort_keys=True, default=str)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _summary(report: RunReport) -> Dict[str, int]:
    counts = {"pass": 0, "fail": 0, "error": 0}
    for r in report.results:
        counts[r.verdict] += 1
    return counts


def render_structured(report: RunReport) -> str:
    """Machine-diffable rendering; identical inputs give identical bytes,
    so wall-clock durations are deliberately omitted."""
    payload = {
        "format_version": 1,
        "tolerance": report.tolerance,
        "seed": report.seed,
        "document": report.document,
        "checks": [
            {
                "name": r.name,
                "kind": r.kind,
                "raw_outcome": r.raw_outcome,
                "verdict": r.verdict,
                "expected": r.expected,
                "witness": r.witness,
                "provenance": list(r.provenance),
            }
            for r in report.results
        ],
        "summary": _summary(report),
        "notes": list(SCOPE_NOTES),
    }
    return _canonical_json(payload, default=str)
