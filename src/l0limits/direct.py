"""Direct systems, their limits, and the colimit functor.

Over a finite directed poset the limit collapses to the stage at the
greatest element.  Over a chain with a declared tail the limit is the
last explicit stage with fibers zeroed at the atoms where the composite
tail factors vanish in the limit; the quotient of seminorm-null classes
then has finite-dimensional fibers and is already complete, so the
completion step is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import tolerance
from .errors import ShapeMismatchError, ValidationError
from .indexsets import (
    Chain,
    FinitePoset,
    greatest_element,
    tail_growth_sup,
    tail_limit_factor,
)
from .measure import L0Function
from .modules import (
    Element,
    FiberModule,
    ModuleMorphism,
    apply,
    composite_deviation,
    compose,
    mask_module,
    operator_pointwise_norm,
    pointwise_norm,
    submodule_generated,
)
from .systems import System, SystemReport, Violation, validate_system


class DirectSystem(System):
    """Modules indexed by a directed set with forward connecting maps.

    Maps may be supplied for any covering family of related pairs; the
    remaining composites are built by composing along provided edges.
    Law checking (identity, cocycle, admissibility) is performed by
    :func:`validate_direct_system`, not by the constructor.
    """

    def map(self, i, j) -> ModuleMorphism:
        """Connecting map from stage i to stage j (composing provided maps)."""
        return self._connect(i, j)


def validate_direct_system(system: DirectSystem, tol: Optional[float] = None) -> SystemReport:
    """Diagnostics: identity law, cocycle law, admissibility of every map.

    Every law is checked where it can fail, and only there:

    * identity: every supplied map at a pair (i, i) is compared with the
      identity;
    * admissibility: the pointwise operator norm of every supplied map is
      evaluated exactly.  A composed map is admissible without evaluation
      when every edge on its path has an exact kernel (vertex, facet or
      spectral, not the bracket) and the per-atom product of the edge
      norms, times ``1 + PRODUCT_SLACK`` (1e-12, in :mod:`l0limits.systems`),
      is at most ``1 + tol``: operator norms are submultiplicative, and
      the slack absorbs the rounding of the evaluated norms.  Every other
      composed map is evaluated exactly;
    * cocycle: a triple (i, j, k) is evaluated only when at least two
      paths of supplied maps join i to k.  With a single path every map
      involved is a composite along that one path, so the law is
      associativity of composition and holds up to rounding.

    Violations come in the order of the related pairs, then of the
    explicit indices, as a stage-by-stage check of every pair and triple
    would report them.
    """
    return validate_system(system, tol)


class SystemMorphism:
    """A stage-wise family of morphisms with commuting squares.

    Source and target systems must share the explicit index structure;
    chain tails may differ (the induced components beyond the last stage
    are determined by the tail factors and checked by validation).
    """

    def __init__(self, source: DirectSystem, target, components: Dict):
        if not source.index.same_shape(target.index):
            raise ShapeMismatchError("systems are indexed by different shapes")
        self.source = source
        self.target = target
        self.components = {}
        for i in source.index.explicit_indices():
            if i not in components:
                raise KeyError(f"missing component at index {i!r}")
            theta = components[i]
            if theta.source != source.modules[i] or theta.target != target.modules[i]:
                raise ShapeMismatchError(f"component at {i!r} has wrong endpoints")
            self.components[i] = theta


def _is_direct(system) -> bool:
    return isinstance(system, DirectSystem)


def validate_system_morphism(theta: SystemMorphism, tol: Optional[float] = None) -> SystemReport:
    """Check admissibility, commuting squares and chain tail solvability."""
    tol = tolerance() if tol is None else tol
    violations: List[Violation] = []
    direct = _is_direct(theta.source)
    for i, comp in theta.components.items():
        norm = operator_pointwise_norm(comp)
        dev = float(norm.values.max(initial=0.0)) - 1.0
        if not dev <= tol:
            violations.append(Violation("admissibility", (i,), dev, "component norm > 1"))
    for (i, j) in theta.source.index.related_pairs():
        if direct:
            left = (theta.components[j], theta.source.map(i, j))
            right = (theta.target.map(i, j), theta.components[i])
        else:
            left = (theta.components[i], theta.source.map(i, j))
            right = (theta.target.map(i, j), theta.components[j])
        dev = composite_deviation(left, right)
        if not dev <= tol:
            violations.append(Violation("square", (i, j), dev, "square does not commute"))
    index = theta.source.index
    if isinstance(index, Chain):
        last = index.last
        if direct:
            growth = tail_growth_sup(
                theta.target.index.tail, theta.source.index.tail, last, theta.source.space
            )
        else:
            growth = tail_growth_sup(
                theta.source.index.tail, theta.target.index.tail, last, theta.source.space
            )
        norm_last = operator_pointwise_norm(theta.components[last]).values
        for a, g in enumerate(growth):
            bound = tol if not np.isfinite(g) else (1.0 + tol) / g
            if not norm_last[a] <= bound:
                violations.append(
                    Violation(
                        "tail-square",
                        (last, theta.source.space.atom_ids[a]),
                        float(norm_last[a] - bound),
                        "no admissible components beyond the last stage",
                    )
                )
    return SystemReport(not violations, tuple(violations))


@dataclass(frozen=True)
class ColimitClass:
    """A colimit element presented by a representative at one stage."""

    stage: object
    element: Element


@dataclass(frozen=True)
class LimitPresentation:
    """A limit object with its canonical morphisms and provenance.

    For direct limits the canonical maps go from the stages into the
    limit; for inverse limits they are the projections out of it.
    """

    kind: str
    module: FiberModule
    canonical: Dict[object, ModuleMorphism] = field(compare=False)
    provenance: str = "greatest-element"


def _chain_keep_mask(system, chain: Chain) -> np.ndarray:
    return tail_limit_factor(chain.tail, system.space) > 0.0


def dl_seminorm(system: DirectSystem, cls: ColimitClass) -> L0Function:
    """Pointwise seminorm of a colimit class.

    Over a finite poset the infimum over all representatives collapses to
    the norm of the forward image at the greatest element (every
    connecting map contracts).  Over a chain the representative is pushed
    to the last stage and scaled by the per-atom limit of the tail
    factors.
    """
    if cls.stage not in system.modules:
        raise KeyError(f"stage {cls.stage!r} is not explicit in the system")
    if cls.element.module != system.modules[cls.stage]:
        raise ShapeMismatchError("class representative lives in the wrong module")
    index = system.index
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        pushed = apply(system.map(cls.stage, top), cls.element)
        return pointwise_norm(pushed)
    pushed = apply(system.map(cls.stage, index.last), cls.element)
    factor = tail_limit_factor(index.tail, system.space)
    return L0Function(system.space, factor * pointwise_norm(pushed).values)


def direct_limit(system: DirectSystem) -> LimitPresentation:
    """Construct the direct limit with its canonical morphisms.

    In every supported regime the quotient by seminorm-null classes has
    finite-dimensional fibers, hence the metric completion step is exact:
    completeness is asserted, never approximated.
    """
    index = system.index
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        limit = system.modules[top]
        canonical = {i: system.map(i, top) for i in index.explicit_indices()}
        return LimitPresentation("direct", limit, canonical, "greatest-element")
    last = index.last
    keep = _chain_keep_mask(system, index)
    limit, projection = mask_module(system.modules[last], keep)
    canonical = {
        i: compose(projection, system.map(i, last)) for i in index.explicit_indices()
    }
    return LimitPresentation("direct", limit, canonical, "chain-tail")


@dataclass(frozen=True)
class Target:
    """A candidate receiver of a direct system: one map per explicit stage."""

    module: FiberModule
    maps: Dict[object, ModuleMorphism] = field(compare=False)


def _spanning_ranks_ok(presentation: LimitPresentation) -> bool:
    """Canonical images must span every limit fiber (uniqueness witness)."""
    module = presentation.module
    for a, fiber in enumerate(module.fibers):
        if fiber.dim == 0:
            continue
        blocks = [phi.matrices[a] for phi in presentation.canonical.values()]
        stacked = np.hstack([b for b in blocks if b.size]) if blocks else np.zeros((fiber.dim, 0))
        if stacked.size == 0 or np.linalg.matrix_rank(stacked, tol=1e-10) < fiber.dim:
            return False
    return True


def dl_universal_factorization(
    system: DirectSystem,
    target: Target,
    presentation: Optional[LimitPresentation] = None,
    tol: Optional[float] = None,
) -> ModuleMorphism:
    """The unique mediating morphism from the limit to a target.

    Raises :class:`ValidationError` when the target laws fail or no
    factorization exists within tolerance.  Uniqueness is certified by
    checking that the canonical images span every limit fiber.
    """
    tol = tolerance() if tol is None else tol
    index = system.index
    explicit = index.explicit_indices()
    for i in explicit:
        if i not in target.maps:
            raise KeyError(f"target is missing the map at index {i!r}")
        psi = target.maps[i]
        if psi.source != system.modules[i] or psi.target != target.module:
            raise ShapeMismatchError(f"target map at {i!r} has wrong endpoints")
        norm = operator_pointwise_norm(psi)
        if not float(norm.values.max(initial=0.0)) <= 1.0 + tol:
            raise ValidationError(f"target map at {i!r} is not admissible")
    worst = ("", 0.0)
    for (i, j) in index.related_pairs():
        dev = composite_deviation((target.maps[j], system.map(i, j)), (target.maps[i],))
        if dev > worst[1]:
            worst = (f"target law at ({i!r}, {j!r})", dev)
    if worst[1] > tol:
        raise ValidationError(f"target-law violation: {worst[0]} deviates by {worst[1]:g}")
    presentation = direct_limit(system) if presentation is None else presentation
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        mediating = ModuleMorphism(
            presentation.module, target.module, target.maps[top].matrices
        )
    else:
        last = index.last
        psi_last = target.maps[last]
        mats = []
        for a, fiber in enumerate(presentation.module.fibers):
            m = psi_last.matrices[a]
            if fiber.dim == m.shape[1]:
                mats.append(m)
            else:
                # Masked atom: a valid target must already vanish here,
                # otherwise no admissible family beyond the last stage exists.
                if m.size and float(np.max(np.abs(m))) > tol:
                    raise ValidationError(
                        "no factorization: target map does not vanish on the "
                        f"collapsed atom {system.space.atom_ids[a]!r} "
                        f"(max entry {float(np.max(np.abs(m))):g})"
                    )
                mats.append(np.zeros((m.shape[0], 0)))
        mediating = ModuleMorphism(presentation.module, target.module, mats)
    for i in explicit:
        dev = composite_deviation((mediating, presentation.canonical[i]), (target.maps[i],))
        if not dev <= tol:
            raise ValidationError(
                f"no factorization within tolerance: square at {i!r} deviates by {dev:g}"
            )
    if not _spanning_ranks_ok(presentation):
        raise ValidationError("canonical images do not span the limit fibers")
    return mediating


def dl_functor(
    theta: SystemMorphism,
    validate: bool = True,
    tol: Optional[float] = None,
) -> ModuleMorphism:
    """The induced morphism between direct limits.

    Functorial: identities map to the identity and composites to
    composites; the result is the unique morphism commuting with every
    canonical square.
    """
    tol = tolerance() if tol is None else tol
    if validate:
        for name, system in (("source", theta.source), ("target", theta.target)):
            report = validate_direct_system(system, tol)
            if not report.passed:
                raise ValidationError(f"{name} system fails validation", report)
        report = validate_system_morphism(theta, tol)
        if not report.passed:
            raise ValidationError("system morphism fails validation", report)
    index = theta.source.index
    src_pres = direct_limit(theta.source)
    tgt_pres = direct_limit(theta.target)
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        core = theta.components[top].matrices
    else:
        core = theta.components[index.last].matrices
    mats = []
    for a in range(theta.source.space.atom_count):
        s_dim = src_pres.module.fibers[a].dim
        t_dim = tgt_pres.module.fibers[a].dim
        block = core[a]
        if s_dim == block.shape[1] and t_dim == block.shape[0]:
            mats.append(block)
        else:
            trimmed = block[:t_dim, :] if t_dim <= block.shape[0] else block
            mats.append(trimmed[:, :s_dim] if s_dim <= block.shape[1] else trimmed)
    limit_map = ModuleMorphism(src_pres.module, tgt_pres.module, mats)
    for i in index.explicit_indices():
        dev = composite_deviation(
            (limit_map, src_pres.canonical[i]),
            (tgt_pres.canonical[i], theta.components[i]),
        )
        if not dev <= max(tol, 10 * tolerance()):
            raise ValidationError(
                f"limit square at {i!r} deviates by {dev:g}; morphism invalid"
            )
    return limit_map


@dataclass(frozen=True)
class SquareSolution:
    """Outcome of solving one commuting square for a missing component."""

    exists: bool
    component: Optional[ModuleMorphism]
    residual: float
    witness: str = ""


def solve_square_component(
    source_system: DirectSystem,
    target_system,
    fixed: Dict,
    solve_for,
    tol: Optional[float] = None,
) -> SquareSolution:
    """Try to complete a partial family to a commuting square at one stage.

    For a two-stage chain with the top component fixed this solves
    ``psi . theta = fixed_top . phi`` for ``theta`` atom by atom in the
    least-squares sense and reports the residual; a surjectivity mismatch
    shows up as an irreducible residual.
    """
    tol = tolerance() if tol is None else tol
    index = source_system.index
    explicit = index.explicit_indices()
    if solve_for not in explicit:
        raise KeyError(f"unknown stage {solve_for!r}")
    partners = [
        j for j in explicit
        if j != solve_for and index.leq(solve_for, j) and j in fixed
    ]
    if not partners:
        raise ValidationError("no fixed component constrains the requested stage")
    src_mod = source_system.modules[solve_for]
    tgt_mod = target_system.modules[solve_for]
    mats = []
    residual = 0.0
    witness = ""
    for a in range(source_system.space.atom_count):
        rows = tgt_mod.fibers[a].dim
        cols = src_mod.fibers[a].dim
        blocks_lhs = []
        blocks_rhs = []
        for j in partners:
            psi = target_system.map(solve_for, j).matrices[a]
            rhs = compose(fixed[j], source_system.map(solve_for, j)).matrices[a]
            blocks_lhs.append(psi)
            blocks_rhs.append(rhs)
        if rows == 0 or cols == 0 or not blocks_lhs:
            mats.append(np.zeros((rows, cols)))
            continue
        lhs = np.vstack(blocks_lhs)
        rhs = np.vstack(blocks_rhs)
        sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        mats.append(sol)
        res = float(np.max(np.abs(lhs @ sol - rhs), initial=0.0))
        if res > residual:
            residual = res
            witness = (
                f"squares above stage {solve_for!r} are unsolvable at atom "
                f"{source_system.space.atom_ids[a]!r}: residual {res:g} "
                "(image of the fixed family exceeds the reachable column space)"
            )
    exists = residual <= tol
    component = ModuleMorphism(src_mod, tgt_mod, mats) if exists else None
    if exists:
        witness = "component recovered"
    return SquareSolution(exists, component, residual, witness)


@dataclass(frozen=True)
class FgPresentation:
    """A module rebuilt as the limit of its finitely generated stages."""

    system: DirectSystem
    isomorphism: ModuleMorphism
    stage_dims: Tuple[Tuple[int, ...], ...]
    inclusions: Tuple[ModuleMorphism, ...] = ()


def present_as_fg_limit(module: FiberModule, gens: List[Element]) -> FgPresentation:
    """Present a module as an identity-tail chain of generated submodules.

    Stage k is the submodule generated by the first k generators with
    inclusion connecting maps; the generators must exhaust the module by
    the last stage, and the mediating morphism onto the module is the
    identity because full-rank stages reuse the ambient coordinates.
    """
    from .indexsets import Chain, IdentityTail

    stages = []
    inclusions = []
    for k in range(len(gens) + 1):
        sub, inc = submodule_generated(module, gens[:k])
        stages.append(sub)
        inclusions.append(inc)
    final = stages[-1]
    deficient = [
        module.space.atom_ids[a]
        for a, (f, g) in enumerate(zip(final.fibers, module.fibers))
        if f.dim < g.dim
    ]
    if deficient:
        raise ValidationError(
            "generators do not exhaust the module; deficient atoms: "
            + ", ".join(repr(a) for a in deficient)
        )
    chain = Chain(len(gens) + 1, IdentityTail())
    maps = {}
    for k in range(len(gens)):
        # Coordinates of stage k inside stage k+1: bases are orthonormal
        # and nested, so the transfer matrix is B_{k+1}^T B_k.
        mats = [
            nxt.T @ cur
            for cur, nxt in zip(inclusions[k].matrices, inclusions[k + 1].matrices)
        ]
        maps[(k, k + 1)] = ModuleMorphism(stages[k], stages[k + 1], mats)
    system = DirectSystem(chain, dict(enumerate(stages)), maps)
    presentation = direct_limit(system)
    target = Target(module, dict(enumerate(inclusions)))
    iso = dl_universal_factorization(system, target, presentation)
    return FgPresentation(
        system, iso, tuple(s.dims() for s in stages), tuple(inclusions)
    )


@dataclass(frozen=True)
class PreservationReport:
    """Whether a stage-wise property survives passage to the limit."""

    stages_have_property: bool
    limit_has_property: bool
    preserved: bool
    witness: str = ""


def _full_row_rank(mat: np.ndarray) -> bool:
    rows = mat.shape[0]
    return rows == 0 or np.linalg.matrix_rank(mat, tol=1e-10) == rows


def check_surjectivity_preservation(theta: SystemMorphism) -> PreservationReport:
    """If every stage map has full per-atom image, so must the limit map."""
    stages_ok = True
    witness = ""
    for i, comp in theta.components.items():
        for a, m in enumerate(comp.matrices):
            if not _full_row_rank(m):
                stages_ok = False
                witness = f"stage {i!r} not surjective at atom " \
                          f"{theta.source.space.atom_ids[a]!r}"
    limit_map = dl_functor(theta) if _is_direct(theta.source) else None
    if limit_map is None:
        from .inverse import il_functor

        limit_map = il_functor(theta)
    limit_ok = all(_full_row_rank(m) for m in limit_map.matrices)
    preserved = (not stages_ok) or limit_ok
    if stages_ok and not limit_ok:
        bad = next(
            theta.source.space.atom_ids[a]
            for a, m in enumerate(limit_map.matrices)
            if not _full_row_rank(m)
        )
        witness = f"limit map loses surjectivity at atom {bad!r}"
    return PreservationReport(stages_ok, limit_ok, preserved, witness)
