"""The shared core of direct and inverse systems and their limits.

A system supplies connecting maps on some related pairs (i, j), i <= j, of
a directed index.  A direct system's map at (i, j) goes forward from stage
i to stage j, an inverse system's goes back from stage j to stage i.
Apart from that arrow direction both kinds build their composites, check
their laws, take their limits, factor cones through them and induce limit
maps the same way, so all of it is implemented here once.  The direction
enters through two attributes of :class:`System`: ``forward``, which
through ``_arrow`` puts an arrow's ends in source-target order and so
decides which side of a square or a cone it sits on, and ``stage_axis``,
the axis of a matrix between a stage and the limit or a cone apex that
belongs to the stage.
A chain's limit keeps the same atoms in both directions, those where
:func:`~l0limits.indexsets.tail_limit_factor` is positive; that factor is
a 0/1 indicator for every tail kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
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
from .modules import (
    FiberModule,
    ModuleMorphism,
    _full_ranks,
    _operator_norm_results,
    composite_deviation,
    compose,
    identity_morphism,
    mask_inclusion,
    mask_module,
    morphism_deviation,
    operator_pointwise_norms,
)
from .norms import _raise_first, kernel_path

#: Relative slack on a product of computed edge norms.  Every exactly
#: evaluated norm carries a few ulps of rounding, and so does the
#: evaluation of the composite it bounds; 1e-12 absorbs that along paths
#: of thousands of edges.
PRODUCT_SLACK = 1e-12

#: Absolute singular-value cut of the rank tests on canonical maps and on
#: the components of system morphisms and limit maps.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class Violation:
    """One law failure found while validating a system or morphism."""

    kind: str
    indices: tuple
    deviation: float
    detail: str = ""


@dataclass(frozen=True)
class SystemReport:
    passed: bool
    violations: Tuple[Violation, ...]

    def worst(self) -> Optional[Violation]:
        if not self.violations:
            return None
        return max(self.violations, key=lambda v: v.deviation)


class System:
    """Modules indexed by a directed set with connecting maps along its order.

    Maps may be supplied for any covering family of related pairs.  Every
    other connecting map out of stage i is composed along the breadth-first
    tree of supplied edges rooted at i (edges taken in ``(str(a), str(b))``
    order), one composition from the map at its tree parent, and cached;
    so is the limit, once built.  Subclasses fix the arrow direction
    through ``forward`` and ``stage_axis`` and name their maps and cones in
    the texts below.
    """

    forward = True
    stage_axis = 1
    limit_kind = "direct"
    cone_side = "target"
    cone_shape = "square"
    missing_text = "no provided maps connect {i!r} to {j!r}"
    identity_detail = "phi_ii != id"
    cocycle_detail = "phi_ik != phi_jk . phi_ij"
    cone_law_text = "target-law violation: target law at ({i!r}, {j!r}) deviates by {dev:g}"
    collapse_text = (
        "no factorization: target map does not vanish on the collapsed atom "
        "{atom!r} (max entry {entry:g})"
    )
    unique_text = "canonical images do not span the limit fibers"

    def __init__(self, index, modules: Dict, maps: Dict):
        self.index = index
        explicit = index.explicit_indices()
        for i in explicit:
            if i not in modules:
                raise KeyError(f"missing module at index {i!r}")
        self.modules = {i: modules[i] for i in explicit}
        spaces = {m.space for m in self.modules.values()}
        if len(spaces) != 1:
            raise ShapeMismatchError("all system modules must share one base space")
        self.space = next(iter(spaces))
        self.maps = {}
        for (i, j), phi in maps.items():
            if not index.leq(i, j):
                raise KeyError(f"map supplied for unrelated pair ({i!r}, {j!r})")
            source, target = self._arrow(i, j)
            if phi.source != self.modules[source] or phi.target != self.modules[target]:
                raise ShapeMismatchError(f"map at ({i!r}, {j!r}) has wrong endpoints")
            self.maps[(i, j)] = phi
        self._edges: Dict[object, list] = {}
        for a, b in sorted(self.maps, key=lambda p: (str(p[0]), str(p[1]))):
            self._edges.setdefault(a, []).append(b)
        self._trees: Dict[object, dict] = {}
        self._closure: Dict[tuple, ModuleMorphism] = {}
        self._presentation: Optional[LimitPresentation] = None

    def related_pairs(self):
        return self.index.related_pairs()

    def _arrow(self, near, far) -> tuple:
        """``(near, far)`` in arrow order, source first.  A direct system's
        arrows run from a lower stage up, from a stage into the limit and
        from the limit to a cone's apex; an inverse system's the other way."""
        return (near, far) if self.forward else (far, near)

    def _outer_first(self, near, far) -> tuple:
        """``(near, far)`` with the later arrow first, as :func:`compose`
        takes its factors and a matrix lists its (target, source) dims."""
        return self._arrow(near, far)[::-1]

    def _extend(self, acc: ModuleMorphism, edge: ModuleMorphism) -> ModuleMorphism:
        """The map along a path, lengthened at its upper end by one edge."""
        return compose(*self._outer_first(acc, edge))

    def _reach(self, i, j) -> dict:
        """Breadth-first parents of the stages reachable from i; raises
        ``KeyError`` when j is not among them."""
        tree = self._trees.get(i)
        if tree is None:
            tree = {i: None}
            order = [i]
            for a in order:  # the list grows while it is walked: a queue
                for b in self._edges.get(a, ()):
                    if b not in tree:
                        tree[b] = a
                        order.append(b)
            self._trees[i] = tree
        if j not in tree:
            raise KeyError(self.missing_text.format(i=i, j=j))
        return tree

    def _connect(self, i, j) -> ModuleMorphism:
        """Connecting map at (i, j): supplied, or composed along the tree path."""
        if i == j:
            return identity_morphism(self.modules[i])
        if (i, j) in self.maps:
            return self.maps[(i, j)]
        if (i, j) in self._closure:
            return self._closure[(i, j)]
        tree = self._reach(i, j)
        pending = []
        node = j
        while (i, node) not in self.maps and (i, node) not in self._closure:
            pending.append(node)
            node = tree[node]
        phi = self.maps[(i, node)] if (i, node) in self.maps else self._closure[(i, node)]
        for node in reversed(pending):
            phi = self._extend(phi, self.maps[(tree[node], node)])
            self._closure[(i, node)] = phi
        return phi


def _redundant_targets(system: System) -> Dict[object, List]:
    """For each stage i, the stages k (in index order) that at least two
    paths of supplied edges join i to.  Path counts capped at two come from
    ``N <- min(2, I + A N)`` on the supplied-edge adjacency ``A``, which
    reaches its fixed point within as many steps as the longest path; with
    no stage of two outgoing edges every path is the only one."""
    explicit = system.index.explicit_indices()
    if all(len([b for b in system._edges.get(a, ()) if b != a]) < 2 for a in explicit):
        return {a: [] for a in explicit}
    position = {e: n for n, e in enumerate(explicit)}
    adjacency = np.zeros((len(explicit), len(explicit)), dtype=np.int64)
    for a, targets in system._edges.items():
        for b in targets:
            if b != a:
                adjacency[position[a], position[b]] = 1
    eye = np.eye(len(explicit), dtype=np.int64)
    counts = eye
    while True:
        step = np.minimum(2, eye + adjacency @ counts)
        if np.array_equal(step, counts):
            break
        counts = step
    return {a: [explicit[k] for k in np.flatnonzero(row > 1)] for a, row in zip(explicit, counts)}


def validate_system(system: System, tol: Optional[float] = None) -> SystemReport:
    """Identity law, admissibility and cocycle law of a direct or inverse
    system; see :func:`l0limits.direct.validate_direct_system`."""
    tol = tolerance() if tol is None else tol
    violations: List[Violation] = []
    for (i, j), phi in system.maps.items():
        if i == j:
            dev = morphism_deviation(phi, identity_morphism(system.modules[i]))
            if not dev <= tol:
                violations.append(Violation("identity", (i,), dev, system.identity_detail))

    pairs = system.related_pairs()
    # The supplied edges are normed in one batch; each edge's error is
    # raised in its pair's turn, where a loop over the pairs would raise it.
    edges = [p for p in pairs if p in system.maps]
    edge_norms = dict(zip(edges, _operator_norm_results([system.maps[e] for e in edges])))
    bounds: Dict[tuple, Optional[np.ndarray]] = {}

    @cache
    def exact_norm(edge) -> Optional[np.ndarray]:
        """The edge's norm where every atom has an exact kernel, else None."""
        phi = system.maps[edge]
        fibers = zip(phi.source.fibers, phi.target.fibers)
        if all(kernel_path(s.norm, t.norm) != "bracket" for s, t in fibers):
            return _raise_first([edge_norms[edge]])[0].values
        return None

    def path_bound(i, j, tree) -> Optional[np.ndarray]:
        """Per-atom product of the edge norms along the tree path i -> j."""
        pending = []
        node = j
        while node != i and (i, node) not in bounds:
            pending.append(node)
            node = tree[node]
        bound = np.ones(system.space.atom_count) if node == i else bounds[(i, node)]
        for node in reversed(pending):
            factor = None if bound is None else exact_norm((tree[node], node))
            bound = None if factor is None else bound * factor
            bounds[(i, node)] = bound
        return bound

    for (i, j) in pairs:
        try:
            tree = system._reach(i, j)
        except KeyError as exc:
            violations.append(Violation("missing-map", (i, j), float("inf"), str(exc)))
            continue
        if (i, j) in system.maps:
            result = edge_norms[(i, j)]
        else:
            bound = path_bound(i, j, tree)
            if bound is not None and float(bound.max()) * (1.0 + PRODUCT_SLACK) <= 1.0 + tol:
                continue
            result = _operator_norm_results([system._connect(i, j)])[0]
        dev = float(_raise_first([result])[0].values.max(initial=0.0)) - 1.0
        if not dev <= tol:
            violations.append(
                Violation("admissibility", (i, j), dev, "pointwise operator norm > 1")
            )

    redundant = _redundant_targets(system)
    for (i, j) in pairs:
        for k in redundant[i]:
            if k == j or not system.index.leq(j, k):
                continue
            try:
                direct_map = system._connect(i, k)
                lower, upper = system._connect(i, j), system._connect(j, k)
            except KeyError:
                continue
            # The composite along j, outermost factor first, as _extend builds it.
            dev = composite_deviation((direct_map,), system._outer_first(lower, upper))
            if not dev <= tol:
                violations.append(Violation("cocycle", (i, j, k), dev, system.cocycle_detail))
    return SystemReport(not violations, tuple(violations))


class SystemMorphism:
    """A stage-wise family of morphisms with commuting squares.

    Source and target systems must share the explicit index structure;
    chain tails may differ (the induced components beyond the last stage
    are determined by the tail factors and checked by validation).
    """

    def __init__(self, source: System, target: System, components: Dict):
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


def validate_system_morphism(theta: SystemMorphism, tol: Optional[float] = None) -> SystemReport:
    """Check admissibility, commuting squares and chain tail solvability."""
    tol = tolerance() if tol is None else tol
    violations: List[Violation] = []
    system = theta.source
    norms = dict(zip(theta.components, operator_pointwise_norms(list(theta.components.values()))))
    for i, norm in norms.items():
        dev = float(norm.values.max(initial=0.0)) - 1.0
        if not dev <= tol:
            violations.append(Violation("admissibility", (i,), dev, "component norm > 1"))
    for (i, j) in system.index.related_pairs():
        # The components where the connecting arrow starts and ends.
        start, end = system._arrow(theta.components[i], theta.components[j])
        dev = composite_deviation((end, system.map(i, j)), (theta.target.map(i, j), start))
        if not dev <= tol:
            violations.append(Violation("square", (i, j), dev, "square does not commute"))
    if isinstance(system.index, Chain):
        last = system.index.last
        growth = tail_growth_sup(
            *system._arrow(theta.target.index.tail, system.index.tail), last, system.space
        )
        norm_last = norms[last].values
        for a, g in enumerate(growth):
            bound = tol if not np.isfinite(g) else (1.0 + tol) / g
            if not norm_last[a] <= bound:
                violations.append(
                    Violation(
                        "tail-square",
                        (last, system.space.atom_ids[a]),
                        float(norm_last[a] - bound),
                        "no admissible components beyond the last stage",
                    )
                )
    return SystemReport(not violations, tuple(violations))


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


@dataclass(frozen=True)
class PreservationReport:
    """Whether a stage-wise property survives passage to the limit."""

    stages_have_property: bool
    limit_has_property: bool
    preserved: bool
    witness: str = ""


def _top(index):
    """The stage a limit is read off: a poset's greatest element, a chain's last stage."""
    return greatest_element(index) if isinstance(index, FinitePoset) else index.last


def _limit(system: System) -> LimitPresentation:
    """The limit of a system with its canonical maps; see
    :func:`l0limits.direct.direct_limit` and :func:`l0limits.inverse.inverse_limit`.
    Built on first use and kept, as a system is never changed after
    construction."""
    if system._presentation is None:
        system._presentation = _build_limit(system)
    return system._presentation


def _build_limit(system: System) -> LimitPresentation:
    index = system.index
    top = _top(index)
    if isinstance(index, FinitePoset):
        canonical = {i: system.map(i, top) for i in index.explicit_indices()}
        return LimitPresentation(
            system.limit_kind, system.modules[top], canonical, "greatest-element"
        )
    keep = tail_limit_factor(index.tail, system.space) > 0.0
    limit, projection = mask_module(system.modules[top], keep)
    cut = projection if system.forward else mask_inclusion(system.modules[top], limit)
    canonical = {
        i: compose(*system._outer_first(system.map(i, top), cut))
        for i in index.explicit_indices()
    }
    return LimitPresentation(system.limit_kind, limit, canonical, "chain-tail")


def _canonical_maps_unique(system: System, presentation: LimitPresentation) -> bool:
    """Uniqueness witness: at every atom the canonical maps, stacked along
    their stage sides, have full rank on the limit fiber (the canonical
    images span it, or the projections jointly separate it)."""
    stacked = []
    for a, fiber in enumerate(presentation.module.fibers):
        if fiber.dim == 0:
            continue
        blocks = [phi.matrices[a] for phi in presentation.canonical.values()]
        blocks = [m for m in blocks if m.size]
        if not blocks:
            return False
        stacked.append(np.concatenate(blocks, axis=system.stage_axis))
    return all(_full_ranks(stacked, 1 - system.stage_axis, RANK_TOL))


def _universal_factorization(
    system: System,
    apex: FiberModule,
    maps: Dict,
    presentation: Optional[LimitPresentation] = None,
    tol: Optional[float] = None,
    check_admissibility: bool = True,
) -> Tuple[ModuleMorphism, float]:
    """The unique morphism between the limit and the apex of a cone that
    the cone factors through (see
    :func:`l0limits.direct.dl_universal_factorization`), and the largest
    deviation of a factored cone map from the cone's own."""
    tol = tolerance() if tol is None else tol
    index = system.index
    explicit = index.explicit_indices()
    side = system.cone_side
    # The cone maps up to the first one that is missing or misplaced are
    # normed in one batch; that map's error is raised after their verdicts.
    cone, fault = [], None
    for i in explicit:
        if i not in maps:
            fault = KeyError(f"{side} is missing the map at index {i!r}")
        elif (maps[i].source, maps[i].target) != system._arrow(system.modules[i], apex):
            fault = ShapeMismatchError(f"{side} map at {i!r} has wrong endpoints")
        if fault is not None:
            break
        cone.append(i)
    if check_admissibility:
        for i, result in zip(cone, _operator_norm_results([maps[i] for i in cone])):
            if not float(_raise_first([result])[0].values.max(initial=0.0)) <= 1.0 + tol:
                raise ValidationError(f"{side} map at {i!r} is not admissible")
    if fault is not None:
        raise fault
    worst, worst_pair = 0.0, (None, None)
    for (i, j) in index.related_pairs():
        dev = composite_deviation(system._outer_first(system.map(i, j), maps[j]), (maps[i],))
        if dev > worst:
            worst, worst_pair = dev, (i, j)
    if worst > tol:
        i, j = worst_pair
        raise ValidationError(system.cone_law_text.format(i=i, j=j, dev=worst))
    presentation = _limit(system) if presentation is None else presentation
    mats = []
    for a, (fiber, m) in enumerate(zip(presentation.module.fibers, maps[_top(index)].matrices)):
        if m.shape[system.stage_axis] == fiber.dim:
            mats.append(m)
            continue
        # Collapsed atom: a valid cone must already vanish here, otherwise
        # no admissible family beyond the last stage exists.
        entry = float(np.max(np.abs(m), initial=0.0))
        if m.size and entry > tol:
            raise ValidationError(
                system.collapse_text.format(atom=system.space.atom_ids[a], entry=entry)
            )
        shape = list(m.shape)
        shape[system.stage_axis] = 0
        mats.append(np.zeros(shape))
    mediating = ModuleMorphism(*system._arrow(presentation.module, apex), mats, _fresh=True)
    devs = []
    for i in explicit:
        dev = composite_deviation(
            system._outer_first(presentation.canonical[i], mediating), (maps[i],)
        )
        if not dev <= tol:
            raise ValidationError(
                f"no factorization within tolerance: {system.cone_shape} at {i!r} "
                f"deviates by {dev:g}"
            )
        devs.append(dev)
    if not _canonical_maps_unique(system, presentation):
        raise ValidationError(system.unique_text)
    return mediating, max(devs)


def _limit_functor(
    theta: SystemMorphism,
    validate: bool = True,
    tol: Optional[float] = None,
) -> ModuleMorphism:
    """The morphism a system morphism induces between the limits; see
    :func:`l0limits.direct.dl_functor`."""
    tol = tolerance() if tol is None else tol
    if validate:
        for name, system in (("source", theta.source), ("target", theta.target)):
            report = validate_system(system, tol)
            if not report.passed:
                raise ValidationError(f"{name} system fails validation", report)
        report = validate_system_morphism(theta, tol)
        if not report.passed:
            raise ValidationError("system morphism fails validation", report)
    index = theta.source.index
    src_pres = _limit(theta.source)
    tgt_pres = _limit(theta.target)
    # The limits are the top stages with some fibers zeroed: trim to them.
    mats = [
        block[: t.dim, : s.dim]
        for block, s, t in zip(
            theta.components[_top(index)].matrices,
            src_pres.module.fibers,
            tgt_pres.module.fibers,
        )
    ]
    limit_map = ModuleMorphism(src_pres.module, tgt_pres.module, mats, _fresh=True)
    for i in index.explicit_indices():
        # The maps where the canonical arrow starts and ends.
        start, end = theta.source._arrow(theta.components[i], limit_map)
        dev = composite_deviation(
            (end, src_pres.canonical[i]), (tgt_pres.canonical[i], start)
        )
        if not dev <= max(tol, 10 * tolerance()):
            raise ValidationError(
                f"limit square at {i!r} deviates by {dev:g}; morphism invalid"
            )
    return limit_map


def _rank_preservation(theta: SystemMorphism, onto: bool) -> PreservationReport:
    """If every stage map is surjective (``onto``) or injective at every
    atom, so must the induced limit map be."""
    if onto:
        axis, adjective, noun = 0, "surjective", "surjectivity"
    else:
        axis, adjective, noun = 1, "injective", "injectivity"
    atoms = theta.source.space.atom_ids
    stages = [(i, a) for i, comp in theta.components.items() for a in range(len(comp.matrices))]
    full = _full_ranks([theta.components[i].matrices[a] for i, a in stages], axis, RANK_TOL)
    # The witness names the last stage and atom without the property.
    missing = [(i, a) for (i, a), ok in zip(stages, full) if not ok]
    stages_ok = not missing
    witness = ""
    if missing:
        i, a = missing[-1]
        witness = f"stage {i!r} not {adjective} at atom {atoms[a]!r}"
    limit_map = _limit_functor(theta)
    ranks = _full_ranks(limit_map.matrices, axis, RANK_TOL)
    lost = [atoms[a] for a, ok in enumerate(ranks) if not ok]
    if stages_ok and lost:
        witness = f"limit map loses {noun} at atom {lost[0]!r}"
    return PreservationReport(stages_ok, not lost, (not stages_ok) or not lost, witness)
