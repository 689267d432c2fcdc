"""Check dispatch, verdicts and report rendering.

Each check runs one verification against loaded objects and yields a raw
outcome (pass, fail or error) with a witness.  Counterexample checks
declare ``expect: fail``; their verdict is pass exactly when the raw
property fails as designed, and the witness records how.

Reports are deterministic for a fixed (document, seed, tolerance) triple:
checks are sorted by name and the structured rendering carries no wall
clock (durations appear only in the text format).
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import pullback as pb
from ..config import tolerance, tolerance_override
from ..direct import solve_square_component
from ..errors import L0LimitsError
from ..indexsets import FinitePoset, greatest_element
from ..inverse import dual_limit_iso, hom_inverse_system
from ..modules import composite_deviation, morphism_deviation
from ..systems import (
    _limit,
    _limit_functor,
    _rank_preservation,
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


def _limit_payload(presentation) -> Dict:
    return {
        "dims": {
            atom: fiber.dim
            for atom, fiber in zip(
                presentation.module.space.atom_ids, presentation.module.fibers
            )
        },
        "provenance": presentation.provenance,
        "canonical_maps": len(presentation.canonical),
    }


def _check_path(doc: Document, spec: CheckSpec) -> str:
    """The JSON path of a check: its position in the document, else its name."""
    k = next((k for k, c in enumerate(doc.checks) if c is spec), None)
    return f"$.checks[{spec.name!r}]" if k is None else f"$.checks[{k}]"


def _resolve(doc: Document, spec: CheckSpec, table: str, *keys):
    """The object of ``doc.<table>`` whose id the check parameter at
    ``keys`` (a path into ``spec.params``) holds.  A missing or unknown id
    is an error naming the parameter's path, ``$.checks[k].<param>``."""
    ref = spec.params
    for key in keys:
        ref = ref.get(key) if isinstance(ref, dict) else None
    objects = getattr(doc, table)
    if isinstance(ref, str) and ref in objects:
        return objects[ref]
    what = table[:-1].replace("_", " ")
    path = ".".join([_check_path(doc, spec), *map(str, keys)])
    if ref is None:
        raise L0LimitsError(f"{path}: missing {what} id")
    raise L0LimitsError(f"{path}: unknown {what} {ref!r}")


def _check_validate(doc, spec, rng):
    system = _resolve(doc, spec, "systems", "system")
    report = validate_system(system)
    witness = {
        "violations": [
            {
                "kind": v.kind,
                "indices": [str(i) for i in v.indices],
                "deviation": v.deviation,
                "detail": v.detail,
            }
            for v in report.violations
        ]
    }
    return ("pass" if report.passed else "fail"), witness, ("system-laws",)


def _directed_system(doc: Document, spec: CheckSpec):
    """The system of a limit or universal check, whose kind names the
    direction (direct or inverse) the system must have."""
    system = _resolve(doc, spec, "systems", "system")
    wanted = "direct" if "direct" in spec.kind else "inverse"
    if system.limit_kind != wanted:
        raise L0LimitsError(
            f"{_check_path(doc, spec)}.system: {spec.kind} needs a system of kind "
            f"{wanted!r}, {spec.params['system']!r} is {system.limit_kind!r}"
        )
    return system


def _check_limit(doc, spec, rng):
    system = _directed_system(doc, spec)
    presentation = _limit(system)
    witness = _limit_payload(presentation)
    outcome = "pass"
    if spec.params.get("expect_zero") and any(
        f.dim != 0 for f in presentation.module.fibers
    ):
        outcome = "fail"
        witness["reason"] = "expected a zero limit module"
    expected_dims = spec.params.get("expect_dims")
    if expected_dims is not None:
        actual = witness["dims"]
        path = f"{_check_path(doc, spec)}.expect_dims"
        if {k: _integer(v, f"{path}.{k}") for k, v in expected_dims.items()} != actual:
            outcome = "fail"
            witness["reason"] = f"expected dims {expected_dims}, got {actual}"
    return outcome, witness, (presentation.provenance,)


def _check_greatest(doc, spec, rng):
    index = _resolve(doc, spec, "index_sets", "index_set")
    if not isinstance(index, FinitePoset):
        raise L0LimitsError("greatest-element applies to finite posets")
    top = greatest_element(index)
    ok = all(index.leq(e, top) for e in index.elements)
    return ("pass" if ok else "fail"), {"top": top}, ("greatest-element",)


def _check_universal(doc, spec, rng):
    """The cone of a direct system is a target, of an inverse one a source."""
    system = _directed_system(doc, spec)
    side = system.cone_side
    module = _resolve(doc, spec, "modules", f"{side}_module")
    path = f"{_check_path(doc, spec)}.{side}_maps"
    maps = {}
    for key in spec.params.get(f"{side}_maps", {}):
        maps[_stage_key(system.index, key, f"{path}.{key}")] = _resolve(
            doc, spec, "morphisms", f"{side}_maps", key
        )
    mediating = _universal_factorization(system, module, maps)
    presentation = _limit(system)
    worst = max(
        composite_deviation(
            system._outer_first(presentation.canonical[i], mediating), (maps[i],)
        )
        for i in system.index.explicit_indices()
    )
    return "pass", {f"max_{system.cone_shape}_deviation": worst}, ("universal-property",)


def _check_functor_square(doc, spec, rng):
    params = spec.params
    if "solve" in params:
        solve = params["solve"]
        source = _resolve(doc, spec, "systems", "solve", "source_system")
        target = _resolve(doc, spec, "systems", "solve", "target_system")
        path = f"{_check_path(doc, spec)}.solve"
        fixed = {}
        for key in solve.get("given", {}):
            fixed[_stage_key(source.index, key, f"{path}.given.{key}")] = _resolve(
                doc, spec, "morphisms", "solve", "given", key
            )
        stage = _stage_key(source.index, solve.get("solve_for"), f"{path}.solve_for")
        solution = solve_square_component(source, target, fixed, stage)
        witness = {"residual": solution.residual, "detail": solution.witness}
        return ("pass" if solution.exists else "fail"), witness, ("square-solvability",)
    first = _resolve(doc, spec, "system_morphisms", "first")
    outcome = "pass"
    witness: Dict = {}
    report = validate_system_morphism(first)
    if not report.passed:
        outcome = "fail"
        witness["first_violations"] = len(report.violations)
    image_first = _limit_functor(first)
    witness["limit_map_dims"] = [list(m.shape) for m in image_first.matrices]
    if "second" in params:
        second = _resolve(doc, spec, "system_morphisms", "second")
        image_second = _limit_functor(second)
        components_differ = any(
            morphism_deviation(first.components[i], second.components[i]) > tolerance()
            for i in first.components
        )
        dev = morphism_deviation(image_first, image_second)
        witness["components_differ"] = components_differ
        witness["limit_image_deviation"] = dev
        witness["images_equal"] = bool(dev <= tolerance())
        if params.get("expect_equal_images", True) and dev > tolerance():
            outcome = "fail"
        if params.get("require_components_differ") and not components_differ:
            outcome = "fail"
    return outcome, witness, ("limit-functor",)


#: Rank-preservation check kind -> (whether it tests surjectivity, the
#: property's adjective, provenance).
_RANK_CHECKS = {
    "surjectivity-preserved": (True, "surjective", "image-preservation"),
    "injectivity-preserved": (False, "injective", "kernel-preservation"),
}


def _check_rank_preservation(doc, spec, rng):
    onto, adjective, provenance = _RANK_CHECKS[spec.kind]
    theta = _resolve(doc, spec, "system_morphisms", "morphism")
    report = _rank_preservation(theta, onto)
    witness = {
        f"stages_{adjective}": report.stages_have_property,
        f"limit_{adjective}": report.limit_has_property,
        "detail": report.witness,
    }
    ok = report.stages_have_property and report.limit_has_property
    return ("pass" if ok else "fail"), witness, (provenance,)


def _check_pullback_commute(doc, spec, rng):
    system = _resolve(doc, spec, "systems", "system")
    atom_map = _resolve(doc, spec, "atom_maps", "atom_map")
    report = pb.dl_pullback_iso(atom_map, system, rng=rng)
    witness = {
        "bijective": report.certificate.bijective,
        "max_norm_deviation": report.certificate.max_norm_deviation,
        "limit_dims": {
            a: f.dim
            for a, f in zip(
                report.limit_of_pulled.module.space.atom_ids,
                report.limit_of_pulled.module.fibers,
            )
        },
    }
    return ("pass" if report.ok else "fail"), witness, ("pullback-commute",)


def _check_sections_iso(doc, spec, rng):
    z = _resolve(doc, spec, "spaces", "factor_space")
    module = _resolve(doc, spec, "modules", "module")
    report = pb.sections_iso(z, module, rng=rng)
    witness = {
        "norm_identity_exact": report.norm_identity_exact,
        "constant_section_matches": report.constant_section_matches,
        "bijective": report.certificate.bijective,
    }
    return ("pass" if report.ok else "fail"), witness, ("sections-iso",)


def _check_dual_iso(doc, spec, rng):
    system = _resolve(doc, spec, "systems", "system")
    result = dual_limit_iso(system, rng=rng)
    cert = result.certificate
    witness = {
        "bijective": cert.bijective,
        "max_norm_deviation": cert.max_norm_deviation,
    }
    return ("pass" if cert.ok else "fail"), witness, ("dual-of-limit",)


def _check_hom_iso(doc, spec, rng):
    system = _resolve(doc, spec, "systems", "system")
    fixed = _resolve(doc, spec, "modules", "module")
    result = hom_inverse_system(system, fixed, rng=rng)
    cert = result.certificate
    witness = {
        "bijective": cert.bijective,
        "max_norm_deviation": cert.max_norm_deviation,
    }
    return ("pass" if cert.ok else "fail"), witness, ("hom-of-limit",)


def _check_il_pullback(doc, spec, rng):
    system = _resolve(doc, spec, "systems", "system")
    atom_map = _resolve(doc, spec, "atom_maps", "atom_map")
    report = pb.il_pullback_compare(atom_map, system, rng=rng)
    witness = {
        "isomorphic_on_instance": report.ok,
        "max_norm_deviation": report.certificate.max_norm_deviation,
        "note": report.note,
    }
    return ("pass" if report.ok else "fail"), witness, ("il-pullback-compare",)


_DISPATCH = {
    "validate-system": _check_validate,
    "direct-limit": _check_limit,
    "inverse-limit": _check_limit,
    "universal-direct": _check_universal,
    "universal-inverse": _check_universal,
    "functor-square": _check_functor_square,
    "pullback-commute": _check_pullback_commute,
    "sections-iso": _check_sections_iso,
    "dual-iso": _check_dual_iso,
    "hom-iso": _check_hom_iso,
    "greatest-element": _check_greatest,
    "surjectivity-preserved": _check_rank_preservation,
    "injectivity-preserved": _check_rank_preservation,
    "il-pullback-compare": _check_il_pullback,
}

CHECK_KINDS = tuple(sorted(_DISPATCH))


def run_check(doc: Document, spec: CheckSpec, global_seed: int = 0) -> CheckResult:
    """Run one check deterministically under its (possibly overridden)
    tolerance and a seed derived from the global seed and the check."""
    if spec.kind not in _DISPATCH:
        return CheckResult(
            spec.name,
            spec.kind,
            "error",
            "error",
            spec.expect,
            {"reason": f"unknown check kind {spec.kind!r}"},
        )
    seed = global_seed if spec.seed is None else spec.seed
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(spec.name.encode("utf-8"))])
    )
    start = time.perf_counter()
    tol = spec.tol if spec.tol is not None else tolerance()
    try:
        with tolerance_override(tol):
            raw, witness, provenance = _DISPATCH[spec.kind](doc, spec, rng)
    except L0LimitsError as exc:
        raw, witness, provenance = "error", {"reason": str(exc)}, ("error",)
    except Exception as exc:  # malformed parameters, unresolved ids, ...
        raw = "error"
        witness = {"reason": f"{type(exc).__name__}: {exc}"}
        provenance = ("error",)
    duration = time.perf_counter() - start
    if raw == "error":
        verdict = "error"
    else:
        verdict = "pass" if raw == spec.expect else "fail"
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
    results = [run_check(doc, spec, seed) for spec in checks]
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
