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
    composite_deviations,
    compose,
    identity_morphism,
    mask_inclusion,
    mask_module,
)
from .norms import _raise_first, _scalar_of

#: Relative slack on a product of computed edge norms, each edge's largest
#: over the atoms.  Every exactly evaluated norm carries a few ulps of
#: rounding, and so does the evaluation of the composite it bounds; 1e-12
#: absorbs that along paths of thousands of edges.  While
#: ``1 + PRODUCT_SLACK <= 1 + tolerance()``, edges normed at most 1.0
#: settle every composite, and validation does not walk the pairs; below
#: that tolerance every composite is bounded, or normed, on its own.
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
            source, target = (self.modules[k] for k in self._arrow(i, j))
            if (phi.source is not source and phi.source != source) or (
                phi.target is not target and phi.target != target
            ):
                raise ShapeMismatchError(f"map at ({i!r}, {j!r}) has wrong endpoints")
            self.maps[(i, j)] = phi
        self._edges: Dict[object, list] = {}
        for a, b in sorted(self.maps, key=lambda p: (str(p[0]), str(p[1]))):
            self._edges.setdefault(a, []).append(b)
        self._trees: Dict[object, dict] = {}
        self._closure: Dict[tuple, ModuleMorphism] = dict(self.maps)
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
        if (phi := self._closure.get((i, j))) is not None:
            return phi
        tree = self._reach(i, j)
        pending = []
        node = j
        while (i, node) not in self._closure:
            pending.append(node)
            node = tree[node]
        phi = self._closure[(i, node)]
        for node in reversed(pending):
            phi = self._extend(phi, self.maps[(tree[node], node)])
            self._closure[(i, node)] = phi
        return phi


def _path_counts(system: System) -> Tuple[Dict[object, int], Dict[object, int], Dict[object, List]]:
    """Which stages the paths of supplied edges join, counted up to two:
    the position of each explicit stage, per stage i the bitset ``once[i]``
    of the stages at least one path joins i to (bit ``n`` for the ``n``-th
    explicit stage; i reaches itself), and the stages k, in index order,
    that at least two paths join i to.

    The supplied edges form a DAG (the index is a partial order and loops
    are left out), so the counts of a stage follow from those of its
    successors, ``N(i, k) = [i = k] + sum N(b, k)``: a stage is reached
    twice from i when some successor reaches it twice or two successors
    reach it each.  Each stage is counted once, after its successors, by a
    depth-first walk that does not rely on the element order; a second
    bitset per stage, ``twice``, holds the stages reached twice."""
    explicit = system.index.explicit_indices()
    succ = {a: [b for b in system._edges.get(a, ()) if b != a] for a in explicit}
    position = {e: n for n, e in enumerate(explicit)}
    once: Dict[object, int] = {}
    twice: Dict[object, int] = {}
    for root in explicit:
        stack = [root]
        while stack:
            a = stack[-1]
            if a in once:
                stack.pop()
                continue
            todo = [b for b in succ[a] if b not in once]
            if todo:
                stack += todo
                continue
            stack.pop()
            reached, again = 1 << position[a], 0
            for b in succ[a]:
                again |= twice[b] | (reached & once[b])
                reached |= once[b]
            once[a], twice[a] = reached, again
    redundant = {
        a: [explicit[n] for n in range(twice[a].bit_length()) if twice[a] >> n & 1]
        for a in explicit
    }
    return position, once, redundant


def validate_system(system: System) -> SystemReport:
    """Identity law, admissibility and cocycle law of a direct or inverse
    system; see :func:`l0limits.direct.validate_direct_system`.

    Which pairs are joined by supplied edges, and which by two paths of
    them, comes from one walk of :func:`_path_counts`.  When every edge is
    normed exactly, without error, at most 1.0, and ``1.0 * (1 +
    PRODUCT_SLACK) <= 1 + tolerance()``, every composite's bound is at most
    that (a product of floats in [0, 1] rounds to at most 1.0), so the
    pairs are not walked one by one: only an unjoined pair can fail.  The
    identity laws, and the cocycle laws, each take one
    :func:`composite_deviations`.
    """
    tol = tolerance()
    violations: List[Violation] = []
    loops = [i for (i, j) in system.maps if i == j]
    identities = [((system.maps[(i, i)],), (identity_morphism(system.modules[i]),)) for i in loops]
    for i, dev in zip(loops, composite_deviations(identities)):
        if not dev <= tol:
            violations.append(Violation("identity", (i,), dev, system.identity_detail))

    pairs = system.related_pairs()
    # The supplied edges are normed in one batch; each edge's error is
    # raised in its pair's turn, where a loop over the pairs would raise it.
    edges = [p for p in pairs if p in system.maps]
    results = _operator_norm_results([system.maps[e] for e in edges])
    edge_norms = dict(zip(edges, results))
    inexact = {edges[n] for n in results.inexact}
    bounds: Dict[tuple, Optional[float]] = {}

    @cache
    def exact_norm(edge) -> Optional[float]:
        """The edge's largest norm where no atom took the bracket path, else None."""
        if edge in inexact:
            return None
        return max(_raise_first([edge_norms[edge]])[0], default=0.0)

    def path_bound(i, j, tree) -> Optional[float]:
        """Product of the edges' largest norms along the tree path i -> j."""
        pending = []
        node = j
        while node != i and (i, node) not in bounds:
            pending.append(node)
            node = tree[node]
        bound = 1.0 if node == i else bounds[(i, node)]
        for node in reversed(pending):
            factor = None if bound is None else exact_norm((tree[node], node))
            bound = None if factor is None else bound * factor
            bounds[(i, node)] = bound
        return bound

    position, once, redundant = _path_counts(system)
    # With every related pair supplied there is no composite to settle.
    settled = len(edges) < len(pairs) and 1.0 * (1.0 + PRODUCT_SLACK) <= 1.0 + tol and all(
        not isinstance(edge_norms[e], Exception) and (n := exact_norm(e)) is not None and n <= 1.0
        for e in edges
    )
    # Settled, only an unjoined pair can fail.  Every joined pair is
    # related, so with as many joined pairs as related ones there is none.
    joined = sum(reach.bit_count() - 1 for reach in once.values())
    for (i, j) in () if settled and joined == len(pairs) else pairs:
        if not once[i] >> position[j] & 1:
            detail = str(KeyError(system.missing_text.format(i=i, j=j)))
            violations.append(Violation("missing-map", (i, j), float("inf"), detail))
            continue
        if settled:
            continue
        result = edge_norms.get((i, j))
        if result is None:
            bound = path_bound(i, j, system._reach(i, j))
            if bound is not None and bound * (1.0 + PRODUCT_SLACK) <= 1.0 + tol:
                continue
            result = _operator_norm_results([system._connect(i, j)])[0]
        dev = max(_raise_first([result])[0], default=0.0) - 1.0
        if not dev <= tol:
            violations.append(
                Violation("admissibility", (i, j), dev, "pointwise operator norm > 1")
            )

    triples, laws = [], []
    for (i, j) in pairs:
        if not redundant[i]:
            continue
        for k in redundant[i]:
            if k == j or not system.index.leq(j, k):
                continue
            try:
                direct_map = system._connect(i, k)
                lower, upper = system._connect(i, j), system._connect(j, k)
            except KeyError:
                continue
            # The composite along j, outermost factor first, as _extend builds it.
            triples.append((i, j, k))
            laws.append(((direct_map,), system._outer_first(lower, upper)))
    for triple, dev in zip(triples, composite_deviations(laws)):
        if not dev <= tol:
            violations.append(Violation("cocycle", triple, dev, system.cocycle_detail))
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


def validate_system_morphism(theta: SystemMorphism) -> SystemReport:
    """Check admissibility, commuting squares and chain tail solvability."""
    tol = tolerance()
    violations: List[Violation] = []
    system, components = theta.source, theta.components
    norms = dict(zip(components, _raise_first(_operator_norm_results([*components.values()]))))
    for i, norm in norms.items():
        dev = max(norm, default=0.0) - 1.0
        if not dev <= tol:
            violations.append(Violation("admissibility", (i,), dev, "component norm > 1"))
    pairs = system.index.related_pairs()
    squares = []
    for (i, j) in pairs:
        # The components where the connecting arrow starts and ends.
        start, end = system._arrow(theta.components[i], theta.components[j])
        squares.append(((end, system.map(i, j)), (theta.target.map(i, j), start)))
    for pair, dev in zip(pairs, composite_deviations(squares)):
        if not dev <= tol:
            violations.append(Violation("square", pair, dev, "square does not commute"))
    if isinstance(system.index, Chain):
        last = system.index.last
        growth = tail_growth_sup(
            *system._arrow(theta.target.index.tail, system.index.tail), last, system.space
        )
        for a, (g, norm) in enumerate(zip(growth, norms[last])):
            bound = tol if not np.isfinite(g) else (1.0 + tol) / g
            if not norm <= bound:
                violations.append(
                    Violation(
                        "tail-square",
                        (last, system.space.atom_ids[a]),
                        float(norm - bound),
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
    images span it, or the projections jointly separate it), singular
    values above ``RANK_TOL``.  An atom where some canonical block is
    ``c I`` on the limit fiber with ``|c| > RANK_TOL`` has it with no SVD:
    every singular value of the stack is at least ``|c|``.  The other atoms
    take the stacked SVD of :func:`_full_ranks`, which raises
    ``NonFiniteError`` at the first atom whose stack is not finite."""
    stacked, located = [], []
    for a, fiber in enumerate(presentation.module.fibers):
        if fiber.dim == 0:
            continue
        blocks = [m for phi in presentation.canonical.values() if (m := phi.matrices[a]).size]
        if not blocks:
            return False
        scalars = (_scalar_of(m) for m in blocks)
        if any(c is not None and abs(c) > RANK_TOL for c in scalars):
            continue
        stacked.append(np.concatenate(blocks, axis=system.stage_axis))
        located.append(system.space.atom_ids[a])
    return all(_full_ranks(stacked, 1 - system.stage_axis, RANK_TOL, located))


def _universal_factorization(
    system: System,
    apex: FiberModule,
    maps: Dict,
    check_admissibility: bool = True,
) -> Tuple[ModuleMorphism, float]:
    """The unique morphism between the limit and the apex of a cone that
    the cone factors through (see
    :func:`l0limits.direct.dl_universal_factorization`), and the largest
    deviation of a factored cone map from the cone's own."""
    tol = tolerance()
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
            if not max(_raise_first([result])[0], default=0.0) <= 1.0 + tol:
                raise ValidationError(f"{side} map at {i!r} is not admissible")
    if fault is not None:
        raise fault
    pairs = index.related_pairs()
    laws = [(system._outer_first(system.map(i, j), maps[j]), (maps[i],)) for (i, j) in pairs]
    worst, worst_pair = 0.0, (None, None)
    for pair, dev in zip(pairs, composite_deviations(laws)):
        if dev > worst:
            worst, worst_pair = dev, pair
    if worst > tol:
        i, j = worst_pair
        raise ValidationError(system.cone_law_text.format(i=i, j=j, dev=worst))
    presentation = _limit(system)
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
    devs = composite_deviations([
        (system._outer_first(presentation.canonical[i], mediating), (maps[i],)) for i in explicit
    ])
    for i, dev in zip(explicit, devs):
        if not dev <= tol:
            raise ValidationError(
                f"no factorization within tolerance: {system.cone_shape} at {i!r} "
                f"deviates by {dev:g}"
            )
    if not _canonical_maps_unique(system, presentation):
        raise ValidationError(system.unique_text)
    return mediating, max(devs)


def _require_valid_systems(theta: SystemMorphism) -> None:
    """Raise :class:`ValidationError` unless theta's source, then target, passes."""
    for name, system in (("source", theta.source), ("target", theta.target)):
        report = validate_system(system)
        if not report.passed:
            raise ValidationError(f"{name} system fails validation", report)


def _limit_functor(theta: SystemMorphism, validate: bool = True) -> ModuleMorphism:
    """The morphism a system morphism induces between the limits; see
    :func:`l0limits.direct.dl_functor`.  Its squares with the canonical
    maps are checked within ``10 * tolerance()``."""
    if validate:
        _require_valid_systems(theta)
        report = validate_system_morphism(theta)
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
    bound = 10 * tolerance()
    explicit = index.explicit_indices()
    squares = []
    for i in explicit:
        # The maps where the canonical arrow starts and ends.
        start, end = theta.source._arrow(theta.components[i], limit_map)
        squares.append(((end, src_pres.canonical[i]), (tgt_pres.canonical[i], start)))
    for i, dev in zip(explicit, composite_deviations(squares)):
        if not dev <= bound:
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
    full = _full_ranks(
        [theta.components[i].matrices[a] for i, a in stages],
        axis,
        RANK_TOL,
        [atoms[a] for _, a in stages],
    )
    # The witness names the last stage and atom without the property.
    missing = [(i, a) for (i, a), ok in zip(stages, full) if not ok]
    stages_ok = not missing
    witness = ""
    if missing:
        i, a = missing[-1]
        witness = f"stage {i!r} not {adjective} at atom {atoms[a]!r}"
    limit_map = _limit_functor(theta)
    ranks = _full_ranks(limit_map.matrices, axis, RANK_TOL, atoms)
    lost = [atoms[a] for a, ok in enumerate(ranks) if not ok]
    if stages_ok and lost:
        witness = f"limit map loses {noun} at atom {lost[0]!r}"
    return PreservationReport(stages_ok, not lost, (not stages_ok) or not lost, witness)
