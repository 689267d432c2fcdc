"""Inverse systems, their limits, and dualities with direct limits.

The inverse limit lives inside the product of the stages as the set of
norm-bounded compatible threads.  Over a finite poset it collapses to the
top stage; over a chain the backward tail factors force components beyond
the last stage to grow, so membership is decided by an exact per-atom
case analysis of the tail (never by truncation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .config import tolerance
from .errors import ValidationError
from .direct import DirectSystem, direct_limit
from .homdual import HomModule, hom_module
from .indexsets import FinitePoset, tail_limit_factor
from .measure import L0Function, ess_extremum
from .modules import (
    Element,
    FiberModule,
    ModuleMorphism,
    _certify_isometric_iso,
    pointwise_norm,
    scalar_module,
)
from .norms import _eye
from . import systems
from .systems import (
    LimitPresentation,
    PreservationReport,
    System,
    SystemMorphism,
    SystemReport,
    validate_system,
)


class InverseSystem(System):
    """Modules indexed by a directed set with backward connecting maps.

    The map stored at a pair (i, j) with i <= j goes from stage j down to
    stage i.  Composites are assembled along provided edges; law checking
    lives in :func:`validate_inverse_system`.
    """

    forward = False
    stage_axis = 0
    limit_kind = "inverse"
    cone_side = "source"
    cone_shape = "triangle"
    missing_text = "no provided maps connect {j!r} down to {i!r}"
    identity_detail = "P_ii != id"
    cocycle_detail = "P_ik != P_ij . P_jk"
    cone_law_text = "source violates compatibility: compatibility at ({i!r}, {j!r}) by {dev:g}"
    collapse_text = "no factorization: source map does not vanish on the collapsed atom {atom!r}"
    unique_text = "projections do not jointly separate the limit"

    def map(self, i, j) -> ModuleMorphism:
        """Backward connecting map from stage j down to stage i."""
        return self._connect(i, j)


def validate_inverse_system(system: InverseSystem) -> SystemReport:
    """Diagnostics mirroring the direct case with arrows reversed.

    The same laws are evaluated at the same places as in
    :func:`l0limits.direct.validate_direct_system`: the identity law on
    supplied maps at pairs (i, i); the exact operator norm of every
    supplied map, and of every composite unless the one bound from the
    exact edge norms (their product, each taken at least 1, with
    ``PRODUCT_SLACK``) is within ``1 + tolerance()``; and the cocycle law
    ``P_ik = P_ij . P_jk`` on the triples where at least two paths of
    supplied maps join i to k, since along a single path it is
    associativity of composition.  The source
    compatibility of :func:`il_universal_factorization` and the squares of
    a morphism of inverse systems are settled from the supplied edges as
    in the direct case.
    """
    return validate_system(system)


@dataclass(frozen=True)
class Thread:
    """A compatible family: one element per explicit stage."""

    components: Dict[object, Element] = field(compare=False)


def _thread_growth_mask(system: InverseSystem, last_element: Element):
    """Atoms where the implicit backward components stay bounded."""
    chain = system.index
    factor = tail_limit_factor(chain.tail, system.space)
    last_norm = pointwise_norm(last_element).values
    # Backward components scale by the reciprocal composite factor, so the
    # norm stays finite exactly where the factor limit is 1, or where the
    # component already vanishes.
    return (factor > 0.0) | (last_norm <= tolerance())


def il_norm(system: InverseSystem, thread: Thread):
    """Pointwise norm of a thread with its per-atom finiteness mask.

    Returns ``(norm, finite_mask)``; infinite values are reported through
    the mask, never by a sentinel float.  Callers treat masked atoms as
    membership failure.
    """
    explicit = system.index.explicit_indices()
    for i in explicit:
        if i not in thread.components:
            raise KeyError(f"thread is missing stage {i!r}")
    norms = [pointwise_norm(thread.components[i]) for i in explicit]
    sup = ess_extremum(norms, "sup")
    if isinstance(system.index, FinitePoset):
        return sup, np.ones(system.space.atom_count, dtype=bool)
    finite = _thread_growth_mask(system, thread.components[system.index.last])
    values = np.where(finite, sup.values, 0.0)
    return L0Function(system.space, values), finite


def inverse_limit(system: InverseSystem) -> LimitPresentation:
    """Construct the inverse limit with its natural projections.

    Limit fibers are finite dimensional, hence complete; the completeness
    requirement is asserted rather than rebuilt from Cauchy sequences.
    """
    return systems._limit(system)


def thread_from_components(system: InverseSystem, components: Dict):
    """The unique limit element with the prescribed projections.

    The components must have finite norm under the tail rule; the
    element's pointwise norm is the supremum of the component norms.  With
    each atom's coordinates as a one-column matrix, the components are a
    cone from the scalar module, and the element is the column of its
    mediating morphism into the limit: the cone law is the compatibility
    of the components with the backward maps.
    """
    norm, finite = il_norm(system, Thread(dict(components)))
    if not np.all(finite):
        bad = [a for a, f in zip(system.space.atom_ids, finite) if not f]
        raise ValidationError(f"thread norm is infinite at atoms {bad!r}")
    scalars = scalar_module(system.space)
    cone = {
        i: ModuleMorphism(
            scalars, components[i].module, [c[:, None] for c in components[i].coords]
        )
        for i in system.index.explicit_indices()
    }
    mediating = systems._universal_factorization(
        system, scalars, cone, check_admissibility=False
    )[0]
    return Element(mediating.target, [m[:, 0] for m in mediating.matrices]), norm


@dataclass(frozen=True)
class Source:
    """A candidate emitter into an inverse system: one map per stage."""

    module: FiberModule
    maps: Dict[object, ModuleMorphism] = field(compare=False)


def il_universal_factorization(system: InverseSystem, source: Source) -> ModuleMorphism:
    """The unique mediating morphism from a compatible source to the limit.

    Uniqueness is certified by joint injectivity of the projections.  The
    compatibility ``P_ij . q_j = q_i`` is evaluated at every supplied
    edge, and at the other related pairs only when the bound their tree
    paths telescope from the edges' deviations exceeds ``tolerance()``: the
    closures sit on the left here, so the edges' row sums bound them (see
    :func:`l0limits.direct.dl_universal_factorization`).
    """
    return systems._universal_factorization(system, source.module, source.maps)[0]


def il_functor(theta: SystemMorphism, validate: bool = True) -> ModuleMorphism:
    """The induced morphism between inverse limits."""
    return systems._limit_functor(theta, validate)


def check_injectivity_preservation(theta: SystemMorphism) -> PreservationReport:
    """If every stage map has trivial per-atom kernel, so must the limit map
    (of inverse or of direct systems)."""
    return systems._rank_preservation(theta, onto=False)


@dataclass(frozen=True)
class HomLimitComparison:
    """Both routes from a direct system into a fixed module, with evidence
    that the canonical comparison map is an isometric isomorphism."""

    hom_system: InverseSystem
    limit_of_homs: LimitPresentation
    hom_of_limit: HomModule
    comparison: ModuleMorphism
    certificate: object


def _precompose_map(hom_from: HomModule, hom_to: HomModule, phi: ModuleMorphism) -> ModuleMorphism:
    """The map T -> T . phi between Hom modules, as per-atom matrices.

    With row-major flattening, postmultiplication by phi acts on vec(T)
    as the block-diagonal matrix kron(identity, phi^T): one copy of phi^T
    per row of T.  It is formed as the broadcast product of the identity
    and phi^T reshaped to the block layout, the same products ``np.kron``
    takes, so the entries (signed zeros included) are the same.
    """
    mats = []
    for a in range(phi.source.space.atom_count):
        t = hom_from.hom_target.fibers[a].dim
        block = phi.matrices[a].T
        rows, cols = block.shape
        mats.append((_eye(t)[:, None, :, None] * block[:, None, :]).reshape(t * rows, t * cols))
    return ModuleMorphism(hom_from, hom_to, mats, _fresh=True)


def _hom_system(system: DirectSystem, fixed: FiberModule) -> InverseSystem:
    """The inverse system of stage Hom modules into ``fixed``, connected by
    precomposition with the maps of ``system``."""
    index = system.index
    homs = {i: hom_module(system.modules[i], fixed) for i in index.explicit_indices()}
    if isinstance(index, FinitePoset):
        pairs = index.related_pairs()
    else:
        pairs = [(k, k + 1) for k in range(index.last)]
    maps = {(i, j): _precompose_map(homs[j], homs[i], system.map(i, j)) for (i, j) in pairs}
    return InverseSystem(index, homs, maps)


def hom_inverse_system(system: DirectSystem, fixed: FiberModule) -> HomLimitComparison:
    """Homomorphisms into a fixed module, stage by stage, versus all at once.

    Precomposition with the connecting maps turns the stage Hom modules
    into an inverse system; its limit is compared with the homomorphisms
    out of the direct limit, and the comparison map is certified exactly
    as by :func:`~l0limits.modules.certify_isometric_iso`, but within
    ``10 * tolerance()``.  The connecting maps are admissible because
    precomposition with a contraction contracts operator norms; this is
    inherited from the validated underlying system rather than re-checked
    through matrix-space norms, which have no exact kernel.
    """
    hom_sys = _hom_system(system, fixed)
    limit_of_homs = inverse_limit(hom_sys)
    dl = direct_limit(system)
    hom_of_limit = hom_module(dl.module, fixed)
    # Canonical comparison T -> {T . phi_i}, realized through the universal
    # property of the inverse limit with source maps Q_i = precomposition
    # with the canonical morphisms.
    q_maps = {
        i: _precompose_map(hom_of_limit, hom_sys.modules[i], dl.canonical[i])
        for i in system.index.explicit_indices()
    }
    comparison = systems._universal_factorization(
        hom_sys, hom_of_limit, q_maps, check_admissibility=False
    )[0]
    certificate = _certify_isometric_iso(comparison, 10 * tolerance())
    return HomLimitComparison(hom_sys, limit_of_homs, hom_of_limit, comparison, certificate)


def dual_limit_iso(system: DirectSystem) -> HomLimitComparison:
    """Duals stage by stage versus the dual of the limit.

    Specializes :func:`hom_inverse_system` to the scalar module; the
    connecting maps of the dual-side inverse system are the adjoints of
    the original connecting maps (precomposition with a map, on covectors,
    is its transpose).
    """
    return hom_inverse_system(system, scalar_module(system.space))


def dual_system(system: DirectSystem) -> InverseSystem:
    """The inverse system of dual modules with adjoint connecting maps:
    the Hom system into the scalar module."""
    return _hom_system(system, scalar_module(system.space))
