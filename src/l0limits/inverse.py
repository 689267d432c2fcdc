"""Inverse systems, their limits, and dualities with direct limits.

The inverse limit lives inside the product of the stages as the set of
norm-bounded compatible threads.  Over a finite poset it collapses to the
top stage; over a chain the backward tail factors force components beyond
the last stage to grow, so membership is decided by an exact per-atom
case analysis of the tail (never by truncation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .config import tolerance
from .errors import ShapeMismatchError, ValidationError
from .direct import (
    DirectSystem,
    LimitPresentation,
    SystemMorphism,
    direct_limit,
    validate_system_morphism,
)
from .homdual import HomModule, adjoint, dual_module, hom_module
from .indexsets import Chain, FinitePoset, greatest_element, tail_limit_factor
from .measure import L0Function, ess_extremum
from .modules import (
    Element,
    FiberModule,
    ModuleMorphism,
    apply,
    certify_isometric_iso,
    composite_deviation,
    compose,
    mask_inclusion,
    mask_module,
    morphism_deviation,
    operator_pointwise_norm,
    pointwise_norm,
    scalar_module,
)
from .systems import System, SystemReport, validate_system


class InverseSystem(System):
    """Modules indexed by a directed set with backward connecting maps.

    The map stored at a pair (i, j) with i <= j goes from stage j down to
    stage i.  Composites are assembled along provided edges; law checking
    lives in :func:`validate_inverse_system`.
    """

    forward = False
    missing_text = "no provided maps connect {j!r} down to {i!r}"
    identity_detail = "P_ii != id"
    cocycle_detail = "P_ik != P_ij . P_jk"

    def map(self, i, j) -> ModuleMorphism:
        """Backward connecting map from stage j down to stage i."""
        return self._connect(i, j)


def validate_inverse_system(system: InverseSystem, tol: Optional[float] = None) -> SystemReport:
    """Diagnostics mirroring the direct case with arrows reversed.

    The same laws are evaluated at the same places as in
    :func:`l0limits.direct.validate_direct_system`: the identity law on
    supplied maps at pairs (i, i); the exact operator norm of every
    supplied map and of every composite that submultiplicativity of exact
    edge norms (with ``PRODUCT_SLACK``) does not already bound by
    ``1 + tol``; and the cocycle law ``P_ik = P_ij . P_jk`` on the triples
    where at least two paths of supplied maps join i to k, since along a
    single path it is associativity of composition.
    """
    return validate_system(system, tol)


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
    return (factor >= 1.0) | (last_norm <= tolerance())


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
    index = system.index
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        limit = system.modules[top]
        projections = {i: system.map(i, top) for i in index.explicit_indices()}
        return LimitPresentation("inverse", limit, projections, "greatest-element")
    last = index.last
    keep = tail_limit_factor(index.tail, system.space) >= 1.0
    limit, _ = mask_module(system.modules[last], keep)
    include = mask_inclusion(system.modules[last], limit)
    projections = {
        i: compose(system.map(i, last), include) for i in index.explicit_indices()
    }
    return LimitPresentation("inverse", limit, projections, "chain-tail")


def thread_from_components(
    system: InverseSystem,
    components: Dict,
    tol: Optional[float] = None,
):
    """The unique limit element with the prescribed projections.

    Components must be compatible with every backward map and have finite
    norm under the tail rule; the element's pointwise norm equals the
    supremum of the component norms.
    """
    tol = tolerance() if tol is None else tol
    thread = Thread(dict(components))
    explicit = system.index.explicit_indices()
    worst = 0.0
    worst_pair = None
    for (i, j) in system.related_pairs():
        pushed = apply(system.map(i, j), thread.components[j])
        dev = max(
            float(np.max(np.abs(a - b), initial=0.0))
            for a, b in zip(pushed.coords, thread.components[i].coords)
        ) if pushed.coords else 0.0
        if dev > worst:
            worst, worst_pair = dev, (i, j)
    if worst > tol:
        raise ValidationError(
            f"incompatible components: pair {worst_pair!r} deviates by {worst:g}"
        )
    norm, finite = il_norm(system, thread)
    if not np.all(finite):
        bad = [a for a, f in zip(system.space.atom_ids, finite) if not f]
        raise ValidationError(f"thread norm is infinite at atoms {bad!r}")
    presentation = inverse_limit(system)
    if isinstance(system.index, FinitePoset):
        top = greatest_element(system.index)
        element = Element(presentation.module, thread.components[top].coords)
    else:
        last = system.index.last
        coords = []
        for a, fiber in enumerate(presentation.module.fibers):
            c = thread.components[last].coords[a]
            if fiber.dim == c.size:
                coords.append(c)
            else:
                if c.size and float(np.max(np.abs(c))) > tol:
                    raise ValidationError(
                        "component does not vanish on a collapsed atom"
                    )
                coords.append(np.zeros(0))
        element = Element(presentation.module, coords)
    for i in explicit:
        projected = apply(presentation.canonical[i], element)
        dev = max(
            (
                float(np.max(np.abs(a - b), initial=0.0))
                for a, b in zip(projected.coords, thread.components[i].coords)
            ),
            default=0.0,
        )
        if dev > 10 * tol:
            raise ValidationError(f"projection at {i!r} deviates by {dev:g}")
    return element, norm


@dataclass(frozen=True)
class Source:
    """A candidate emitter into an inverse system: one map per stage."""

    module: FiberModule
    maps: Dict[object, ModuleMorphism] = field(compare=False)


def _projections_separate(presentation: LimitPresentation) -> bool:
    """Stacked projections must be injective per atom (uniqueness witness)."""
    module = presentation.module
    for a, fiber in enumerate(module.fibers):
        if fiber.dim == 0:
            continue
        blocks = [p.matrices[a] for p in presentation.canonical.values() if p.matrices[a].size]
        stacked = np.vstack(blocks) if blocks else np.zeros((0, fiber.dim))
        if stacked.size == 0 or np.linalg.matrix_rank(stacked, tol=1e-10) < fiber.dim:
            return False
    return True


def il_universal_factorization(
    system: InverseSystem,
    source: Source,
    presentation: Optional[LimitPresentation] = None,
    tol: Optional[float] = None,
    check_admissibility: bool = True,
) -> ModuleMorphism:
    """The unique mediating morphism from a compatible source to the limit.

    Uniqueness is certified by joint injectivity of the projections.
    ``check_admissibility`` may be disabled when contractivity of the
    source maps is known analytically (e.g. precomposition maps between
    Hom modules, whose matrix-space norms have no exact kernel).
    """
    tol = tolerance() if tol is None else tol
    index = system.index
    explicit = index.explicit_indices()
    for i in explicit:
        if i not in source.maps:
            raise KeyError(f"source is missing the map at index {i!r}")
        q = source.maps[i]
        if q.source != source.module or q.target != system.modules[i]:
            raise ShapeMismatchError(f"source map at {i!r} has wrong endpoints")
        if check_admissibility:
            norm = operator_pointwise_norm(q)
            if not float(norm.values.max(initial=0.0)) <= 1.0 + tol:
                raise ValidationError(f"source map at {i!r} is not admissible")
    worst = ("", 0.0)
    for (i, j) in index.related_pairs():
        dev = composite_deviation((system.map(i, j), source.maps[j]), (source.maps[i],))
        if dev > worst[1]:
            worst = (f"compatibility at ({i!r}, {j!r})", dev)
    if worst[1] > tol:
        raise ValidationError(f"source violates compatibility: {worst[0]} by {worst[1]:g}")
    presentation = inverse_limit(system) if presentation is None else presentation
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        mediating = ModuleMorphism(
            source.module, presentation.module, source.maps[top].matrices
        )
    else:
        last = index.last
        q_last = source.maps[last]
        mats = []
        for a, fiber in enumerate(presentation.module.fibers):
            m = q_last.matrices[a]
            if fiber.dim == m.shape[0]:
                mats.append(m)
            else:
                if m.size and float(np.max(np.abs(m))) > tol:
                    raise ValidationError(
                        "no factorization: source map does not vanish on the "
                        f"collapsed atom {system.space.atom_ids[a]!r}"
                    )
                mats.append(np.zeros((0, m.shape[1])))
        mediating = ModuleMorphism(source.module, presentation.module, mats)
    for i in explicit:
        dev = composite_deviation((presentation.canonical[i], mediating), (source.maps[i],))
        if not dev <= tol:
            raise ValidationError(
                f"no factorization within tolerance: triangle at {i!r} deviates by {dev:g}"
            )
    if not _projections_separate(presentation):
        raise ValidationError("projections do not jointly separate the limit")
    return mediating


def il_functor(
    theta: SystemMorphism,
    validate: bool = True,
    tol: Optional[float] = None,
) -> ModuleMorphism:
    """The induced morphism between inverse limits."""
    tol = tolerance() if tol is None else tol
    if validate:
        for name, system in (("source", theta.source), ("target", theta.target)):
            report = validate_inverse_system(system, tol)
            if not report.passed:
                raise ValidationError(f"{name} system fails validation", report)
        report = validate_system_morphism(theta, tol)
        if not report.passed:
            raise ValidationError("system morphism fails validation", report)
    index = theta.source.index
    src_pres = inverse_limit(theta.source)
    tgt_pres = inverse_limit(theta.target)
    if isinstance(index, FinitePoset):
        core = theta.components[greatest_element(index)].matrices
    else:
        core = theta.components[index.last].matrices
    mats = []
    for a in range(theta.source.space.atom_count):
        s_dim = src_pres.module.fibers[a].dim
        t_dim = tgt_pres.module.fibers[a].dim
        block = core[a]
        mats.append(block[:t_dim, :s_dim])
    limit_map = ModuleMorphism(src_pres.module, tgt_pres.module, mats)
    for i in index.explicit_indices():
        dev = composite_deviation(
            (tgt_pres.canonical[i], limit_map),
            (theta.components[i], src_pres.canonical[i]),
        )
        if not dev <= max(tol, 10 * tolerance()):
            raise ValidationError(
                f"limit square at {i!r} deviates by {dev:g}; morphism invalid"
            )
    return limit_map


def check_injectivity_preservation(theta: SystemMorphism):
    """If every stage map has trivial per-atom kernel, so must the limit map."""
    from .direct import PreservationReport, dl_functor

    def full_col_rank(mat: np.ndarray) -> bool:
        cols = mat.shape[1]
        return cols == 0 or np.linalg.matrix_rank(mat, tol=1e-10) == cols

    stages_ok = True
    witness = ""
    for i, comp in theta.components.items():
        for a, m in enumerate(comp.matrices):
            if not full_col_rank(m):
                stages_ok = False
                witness = (
                    f"stage {i!r} not injective at atom "
                    f"{theta.source.space.atom_ids[a]!r}"
                )
    if isinstance(theta.source, InverseSystem):
        limit_map = il_functor(theta)
    else:
        limit_map = dl_functor(theta)
    limit_ok = all(full_col_rank(m) for m in limit_map.matrices)
    preserved = (not stages_ok) or limit_ok
    if stages_ok and not limit_ok:
        bad = next(
            theta.source.space.atom_ids[a]
            for a, m in enumerate(limit_map.matrices)
            if not full_col_rank(m)
        )
        witness = f"limit map loses injectivity at atom {bad!r}"
    return PreservationReport(stages_ok, limit_ok, preserved, witness)


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
    as kron(identity, phi^T).
    """
    mats = []
    for a in range(phi.source.space.atom_count):
        t = hom_from.hom_target.fibers[a].dim
        mats.append(np.kron(np.eye(t), phi.matrices[a].T))
    return ModuleMorphism(hom_from, hom_to, mats)


def hom_inverse_system(
    system: DirectSystem,
    fixed: FiberModule,
    rng: Optional[np.random.Generator] = None,
    tol: Optional[float] = None,
) -> HomLimitComparison:
    """Homomorphisms into a fixed module, stage by stage, versus all at once.

    Precomposition with the connecting maps turns the stage Hom modules
    into an inverse system; its limit is compared with the homomorphisms
    out of the direct limit.  The connecting maps are admissible because
    precomposition with a contraction contracts operator norms; this is
    inherited from the validated underlying system rather than re-checked
    through matrix-space norms.
    """
    tol = tolerance() if tol is None else tol
    index = system.index
    hom_modules = {i: hom_module(system.modules[i], fixed) for i in index.explicit_indices()}
    maps = {}
    if isinstance(index, FinitePoset):
        pair_iter = index.related_pairs()
    else:
        pair_iter = [(k, k + 1) for k in range(index.last)]
    for (i, j) in pair_iter:
        maps[(i, j)] = _precompose_map(hom_modules[j], hom_modules[i], system.map(i, j))
    if isinstance(index, Chain):
        hom_index = Chain(index.stages, index.tail)
    else:
        hom_index = index
    hom_sys = InverseSystem(hom_index, hom_modules, maps)
    limit_of_homs = inverse_limit(hom_sys)
    dl = direct_limit(system)
    hom_of_limit = hom_module(dl.module, fixed)
    # Canonical comparison T -> {T . phi_i}, realized through the universal
    # property of the inverse limit with source maps Q_i = precomposition
    # with the canonical morphisms.
    q_maps = {
        i: _precompose_map(hom_of_limit, hom_modules[i], dl.canonical[i])
        for i in index.explicit_indices()
    }
    comparison = il_universal_factorization(
        hom_sys,
        Source(hom_of_limit, q_maps),
        limit_of_homs,
        tol=tol,
        check_admissibility=False,
    )
    certificate = certify_isometric_iso(comparison, rng=rng, tol=10 * tol)
    return HomLimitComparison(hom_sys, limit_of_homs, hom_of_limit, comparison, certificate)


def dual_limit_iso(
    system: DirectSystem,
    rng: Optional[np.random.Generator] = None,
    tol: Optional[float] = None,
) -> HomLimitComparison:
    """Duals stage by stage versus the dual of the limit.

    Specializes :func:`hom_inverse_system` to the scalar module; the
    connecting maps of the dual-side inverse system are the adjoints of
    the original connecting maps.
    """
    result = hom_inverse_system(system, scalar_module(system.space), rng=rng, tol=tol)
    # The precomposition maps into scalars are exactly the adjoints.
    for (i, j), p in result.hom_system.maps.items():
        expected = adjoint(system.map(i, j))
        if morphism_deviation(p, expected) > (tolerance() if tol is None else tol):
            raise ValidationError("dual system maps disagree with the adjoints")
    return result


def dual_system(system: DirectSystem) -> InverseSystem:
    """The inverse system of dual modules with adjoint connecting maps."""
    index = system.index
    duals = {i: dual_module(system.modules[i]) for i in index.explicit_indices()}
    maps = {}
    if isinstance(index, FinitePoset):
        pair_iter = index.related_pairs()
    else:
        pair_iter = [(k, k + 1) for k in range(index.last)]
    for (i, j) in pair_iter:
        adj = adjoint(system.map(i, j))
        maps[(i, j)] = ModuleMorphism(duals[j], duals[i], adj.matrices)
    hom_index = Chain(index.stages, index.tail) if isinstance(index, Chain) else index
    return InverseSystem(hom_index, duals, maps)
