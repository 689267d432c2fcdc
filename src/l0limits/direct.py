"""Direct systems, their limits, and the colimit functor.

Over a finite directed poset the limit collapses to the stage at the
greatest element.  Over a chain with a declared tail the limit is the
last explicit stage with fibers zeroed at the atoms where the composite
tail factors vanish in the limit; the quotient of seminorm-null classes
then has finite-dimensional fibers and is already complete, so the
completion step is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import tolerance
from .errors import NonFiniteError, ShapeMismatchError, ValidationError
from .indexsets import Chain, IdentityTail
from .measure import L0Function
from .modules import (
    Element,
    FiberModule,
    ModuleMorphism,
    apply,
    compose,
    pointwise_norm,
    submodule_generated,
)
from .norms import _mm
from . import systems
from .systems import (
    LimitPresentation,
    PreservationReport,
    System,
    SystemMorphism,
    SystemReport,
    validate_system,
)


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


def validate_direct_system(system: DirectSystem) -> SystemReport:
    """Diagnostics: identity law, cocycle law, admissibility of every map.

    Every law is checked where it can fail, and only there:

    * identity: every supplied map at a pair (i, i) is compared with the
      identity;
    * admissibility: the pointwise operator norm of every supplied map is
      evaluated exactly.  The composed maps are admissible without
      evaluation when every edge has an exact kernel (vertex, facet or
      spectral, not the bracket) and the product over all edges of each
      edge's largest norm, taken at least 1, times ``1 + PRODUCT_SLACK``
      (1e-12, in :mod:`l0limits.systems`), exceeds 1 by at most
      ``tolerance()``: operator norms are submultiplicative, that product
      is at least any path's, rounding is monotone, and the slack absorbs
      the rounding of the evaluated norms.  Otherwise every composed map
      is evaluated exactly.  A pair no path of supplied maps joins is a
      ``missing-map`` violation; when the bound settles and every pair is
      joined, no pair is visited;
    * cocycle: a triple (i, j, k) is evaluated only when at least two
      paths of supplied maps join i to k.  Both questions are read from
      the breadth-first trees of supplied maps that compose the
      closures, one per stage.  With a single path every map
      involved is a composite along that one path, so the law is
      associativity of composition and holds up to rounding.  The
      triples' deviations are reduced together, bit for bit those a
      triple-by-triple comparison gives.

    Violations come in the order of the related pairs, then of the
    explicit indices, as a stage-by-stage check of every pair and triple
    would report them, and a kernel error is raised at the first pair
    whose map a pair-by-pair check would fail to norm.  A product that
    overflows is a non-finite deviation or a located error, not a warning.

    The laws between a system and others are settled the same way, where
    they can fail: the cone law of :func:`dl_universal_factorization` and
    the squares of :func:`validate_system_morphism` are evaluated on the
    supplied edges, and on the other pairs only when the bound their tree
    paths telescope from the edges' deviations exceeds ``tolerance()``.
    """
    return validate_system(system)


def validate_system_morphism(theta: SystemMorphism) -> SystemReport:
    """Check admissibility, commuting squares and chain tail solvability,
    of a morphism between direct or between inverse systems; see
    :func:`l0limits.systems.validate_system_morphism`.  The squares off
    the supplied edges are evaluated only when the bound from the edges'
    squares does not settle them."""
    # A binding rather than a re-export: perfbench/layertrace.py times the
    # functions each layer module defines itself.
    return systems.validate_system_morphism(theta)


@dataclass(frozen=True)
class ColimitClass:
    """A colimit element presented by a representative at one stage."""

    stage: object
    element: Element


def dl_seminorm(system: DirectSystem, cls: ColimitClass) -> L0Function:
    """Pointwise seminorm of a colimit class: the norm of its image under
    the canonical map into the direct limit.

    Every connecting map contracts, so the infimum over representatives is
    the norm of the forward image at a poset's greatest element, or at a
    chain's last stage on the atoms the 0/1 tail factor keeps (it is zero
    on the others); the canonical map is that forward image.
    """
    if cls.stage not in system.modules:
        raise KeyError(f"stage {cls.stage!r} is not explicit in the system")
    if cls.element.module != system.modules[cls.stage]:
        raise ShapeMismatchError("class representative lives in the wrong module")
    return pointwise_norm(apply(direct_limit(system).canonical[cls.stage], cls.element))


def direct_limit(system: DirectSystem) -> LimitPresentation:
    """Construct the direct limit with its canonical morphisms.

    In every supported regime the quotient by seminorm-null classes has
    finite-dimensional fibers, hence the metric completion step is exact:
    completeness is asserted, never approximated.
    """
    return systems._limit(system)


@dataclass(frozen=True)
class Target:
    """A candidate receiver of a direct system: one map per explicit stage."""

    module: FiberModule
    maps: Dict[object, ModuleMorphism] = field(compare=False)


def dl_universal_factorization(system: DirectSystem, target: Target) -> ModuleMorphism:
    """The unique mediating morphism from the limit to a target.

    Raises :class:`ValidationError` when the target laws fail or no
    factorization exists within tolerance.  Uniqueness is certified by
    checking that the canonical images span every limit fiber.

    The target law ``psi_j . phi_ij = psi_i`` is evaluated at every
    supplied edge.  At another related pair, ``psi_j phi_ij - psi_i`` is
    the sum over the edges of its tree path of the edge differences, each
    times a closure from i.  With ``|X Y|_max <= |X|_max ||Y||_1``, the
    column sums of the edges and rounding terms for every product, the
    edges' computed deviations bound the pair's computed deviation.  One
    such bound, taken over all edges, serves every pair, and the pairs off
    the edges are evaluated only when it exceeds ``tolerance()``.  A pair
    left out therefore passes, and verdicts, texts and the worst pair
    named are those of a check of every pair.
    """
    return systems._universal_factorization(system, target.module, target.maps)[0]


def dl_functor(theta: SystemMorphism, validate: bool = True) -> ModuleMorphism:
    """The induced morphism between direct limits.

    Functorial: identities map to the identity and composites to
    composites; the result is the unique morphism commuting with every
    canonical square.
    """
    return systems._limit_functor(theta, validate)


@dataclass(frozen=True)
class SquareSolution:
    """Outcome of solving one commuting square for a missing component."""

    exists: bool
    component: Optional[ModuleMorphism]
    residual: float
    witness: str = ""


@np.errstate(over="ignore", invalid="ignore")
def solve_square_component(
    source_system: DirectSystem,
    target_system,
    fixed: Dict,
    solve_for,
) -> SquareSolution:
    """Try to complete a partial family to a commuting square at one stage.

    For a two-stage chain with the top component fixed this solves
    ``psi . theta = fixed_top . phi`` for ``theta`` atom by atom in the
    least-squares sense and reports the residual; a surjectivity mismatch
    shows up as an irreducible residual, above ``tolerance()``.  Products
    that overflow do not warn: the first atom whose least-squares data,
    solution or residual is not finite raises :class:`NonFiniteError`
    located at it.
    """
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
    # Each partner's square, built once: its target map and its fixed composite.
    squares = [
        (target_system.map(solve_for, j), compose(fixed[j], source_system.map(solve_for, j)))
        for j in partners
    ]
    mats = []
    residual = 0.0
    witness = ""
    for a in range(source_system.space.atom_count):
        rows = tgt_mod.fibers[a].dim
        cols = src_mod.fibers[a].dim
        if rows == 0 or cols == 0:
            mats.append(np.zeros((rows, cols)))
            continue
        atom = source_system.space.atom_ids[a]
        lhs = np.vstack([psi.matrices[a] for psi, _ in squares])
        rhs = np.vstack([chi.matrices[a] for _, chi in squares])
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise NonFiniteError("least-squares data is not finite").at_atom(atom)
        sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        res = float(np.max(np.abs(_mm(lhs, sol) - rhs), initial=0.0))
        if not (np.isfinite(sol).all() and math.isfinite(res)):
            raise NonFiniteError("least-squares solution or residual is not finite").at_atom(atom)
        mats.append(sol)
        if res > residual:
            residual = res
            witness = (
                f"squares above stage {solve_for!r} are unsolvable at atom "
                f"{atom!r}: residual {res:g} "
                "(image of the fixed family exceeds the reachable column space)"
            )
    exists = residual <= tolerance()
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
            _mm(nxt.T, cur)
            for cur, nxt in zip(inclusions[k].matrices, inclusions[k + 1].matrices)
        ]
        maps[(k, k + 1)] = ModuleMorphism(stages[k], stages[k + 1], mats)
    system = DirectSystem(chain, dict(enumerate(stages)), maps)
    target = Target(module, dict(enumerate(inclusions)))
    iso = dl_universal_factorization(system, target)
    return FgPresentation(
        system, iso, tuple(s.dims() for s in stages), tuple(inclusions)
    )


def check_surjectivity_preservation(theta: SystemMorphism) -> PreservationReport:
    """If every stage map has full per-atom image, so must the limit map
    (of direct or of inverse systems)."""
    return systems._rank_preservation(theta, onto=True)
