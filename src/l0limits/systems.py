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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
from .norms import _mm, _raise_first, _scalar_of

#: Relative slack on a product of computed edge norms, each edge's largest
#: over the atoms, taken at least 1.  Every exactly evaluated norm carries
#: a few ulps of rounding, and so does the evaluation of the composite it
#: bounds; 1e-12 absorbs that along paths of thousands of edges.  When the
#: product over all supplied edges, times ``1 + PRODUCT_SLACK``, exceeds 1
#: by at most ``tolerance()``, it settles every composite and validation
#: norms none; otherwise every composite is normed.
PRODUCT_SLACK = 1e-12

#: Absolute singular-value cut of the rank tests on canonical maps and on
#: the components of system morphisms and limit maps.
RANK_TOL = 1e-10

#: A telescoped bound (:func:`_telescoped_bound`) takes inputs, edge
#: deviations, stage-map entries and abs sums, up to this size, and edges
#: whose abs sums, each taken at least 1, multiply to at most it.  Then no
#: product a law takes can overflow, and underflow, in the law's products
#: or in the bound's own evaluation, costs less than ``_BOUND_FLOOR``,
#: which is added to it.  Otherwise the bound is infinite.
_BOUND_RANGE = 2.0**64
_BOUND_FLOOR = 2.0**-500

#: Unit roundoff of float64.
_U = 2.0**-53


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
    order), when it is first asked for: from the nearest pair on its tree
    path already built, one product per atom and edge in the order
    repeated :func:`compose` takes them, so its bytes do not depend on
    what was built before.  Only the pair asked for becomes a morphism and
    is cached.  A limit composes its canonical maps along the same tree
    paths but from the top down, sharing the products of common path
    suffixes, and caches no closure (:func:`_build_limit`); the limit
    itself is cached once built.  The same trees tell validation which
    pairs the supplied maps join, and which two paths of them join
    (:meth:`_redundant`).
    Subclasses fix the arrow direction through ``forward`` and
    ``stage_axis`` and name their maps and cones in the texts below.
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

    def _tree(self, i) -> dict:
        """Breadth-first parents of the stages reachable from i, in the
        order they are reached (i first, with parent None); built once."""
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
        return tree

    def _reach(self, i, j) -> dict:
        """The tree of :meth:`_tree` rooted at i; raises ``KeyError`` when j
        is not in it."""
        tree = self._tree(i)
        if j not in tree:
            raise KeyError(self.missing_text.format(i=i, j=j))
        return tree

    def _connect(self, i, j) -> ModuleMorphism:
        """Connecting map at (i, j): supplied, or composed along the tree path.

        The path is lengthened edge by edge from the nearest pair on it that
        is already built, at its upper end, atom by atom with the products
        repeated :func:`compose` takes, so a closure has the same bytes
        whichever pairs were built before it.  Only the requested pair
        becomes a morphism, and is cached.  Validation and the pair laws
        build their closures here; a limit's canonical maps follow the
        same paths, composed from the top down (:func:`_build_limit`)."""
        if i == j:
            return identity_morphism(self.modules[i])
        if (phi := self._closure.get((i, j))) is not None:
            return phi
        tree = self._reach(i, j)
        path = []
        node = j
        while (i, node) not in self._closure:
            path.append(self.maps[(tree[node], node)])
            node = tree[node]
        built = self._closure[(i, node)]
        mats = built.matrices
        for edge in reversed(path):
            if self.forward:
                mats = [_mm(e, m) for m, e in zip(mats, edge.matrices)]
            else:
                mats = [_mm(m, e) for m, e in zip(mats, edge.matrices)]
        first, last = self._arrow(built, path[0])
        phi = ModuleMorphism.__new__(ModuleMorphism)._adopt(first.source, last.target, tuple(mats))
        self._closure[(i, j)] = phi
        return phi

    def _joins_every_pair(self) -> bool:
        """Whether paths of supplied maps join every related pair.  Every
        stage a tree reaches is related to its root, so the trees join every
        pair when they hold as many stages besides their roots."""
        explicit = self.index.explicit_indices()
        return sum(len(self._tree(i)) - 1 for i in explicit) == len(self.related_pairs())

    def _redundant(self, i) -> list:
        """The stages, in index order, that two paths of supplied maps join
        i to.  The tree path is one.  Any other leaves the tree of i by an
        edge (a, b) that is neither a loop nor the tree's edge into b, and
        goes on to a stage of the tree of b; a head b already reached adds
        nothing, as its tree lies in the tree that reached it."""
        tree = self._tree(i)
        reached = set()
        for a in tree:
            for b in self._edges.get(a, ()):
                if b != a and tree[b] != a and b not in reached:
                    reached.update(self._tree(b))
        return [k for k in self.index.explicit_indices() if k in reached] if reached else []


@np.errstate(over="ignore", invalid="ignore")
def validate_system(system: System) -> SystemReport:
    """Identity law, admissibility and cocycle law of a direct or inverse
    system; see :func:`l0limits.direct.validate_direct_system`.

    The supplied edges are normed in one batch.  Every composite is
    bounded by one float, the product over all edges of each edge's
    largest norm taken at least 1; an edge with an error or a bracket atom
    makes it infinite.  When that bound times ``1 + PRODUCT_SLACK``
    exceeds 1 by at most ``tolerance()``, no composite is built or normed;
    otherwise every composite a path joins is normed in a second batch.
    A norm is admissible when it exceeds 1 by at most ``tolerance()``, the
    one test every admissibility check in the library makes.  Which pairs
    the supplied edges join, and which two paths of them join, is read from
    the breadth-first trees that compose the closures
    (:meth:`System._tree`); when the bound settles and every pair is
    joined, the pairs are not walked at all.  The identity laws, and the
    cocycle laws, each take one :func:`composite_deviations`.
    Products that overflow read as non-finite deviations or located
    errors, not warnings.
    """
    tol = tolerance()
    violations: List[Violation] = []
    loops = [i for (i, j) in system.maps if i == j]
    identities = [((system.maps[(i, i)],), (identity_morphism(system.modules[i]),)) for i in loops]
    for i, dev in zip(loops, composite_deviations(identities)):
        if not dev <= tol:
            violations.append(Violation("identity", (i,), dev, system.identity_detail))

    pairs = system.related_pairs()
    edges = [p for p in pairs if p in system.maps]
    results = _operator_norm_results([system.maps[e] for e in edges])
    norms = dict(zip(edges, results))
    # One bound for every composite: the product of all edges' largest
    # norms, each taken at least 1, is at least any path's product (rounding
    # is monotone).  An error or a bracket atom leaves it unbounded.
    bound = math.inf if results.inexact else 1.0
    for result in results:
        bound = math.inf if isinstance(result, Exception) else bound * max([1.0, *result])
    settled = bound * (1.0 + PRODUCT_SLACK) - 1.0 <= tol
    tree = system._tree
    if not settled:
        composites = [p for p in pairs if p not in norms and p[1] in tree(p[0])]
        built = [system._connect(*p) for p in composites]
        norms.update(zip(composites, _operator_norm_results(built)))
    # Settled, every edge and composite passes, so only an unjoined pair
    # can fail, and with every pair joined none is walked.  Each error is
    # raised in its pair's turn, where a loop over the pairs would meet it.
    for (i, j) in () if settled and system._joins_every_pair() else pairs:
        if j not in tree(i):
            detail = str(KeyError(system.missing_text.format(i=i, j=j)))
            violations.append(Violation("missing-map", (i, j), float("inf"), detail))
        elif not settled:
            dev = max(_raise_first([norms[(i, j)]])[0], default=0.0) - 1.0
            if not dev <= tol:
                violations.append(
                    Violation("admissibility", (i, j), dev, "pointwise operator norm > 1")
                )

    redundant = {i: system._redundant(i) for i in system.index.explicit_indices()}
    triples, laws = [], []
    for (i, j) in pairs:
        for k in redundant[i]:
            if k == j or j not in tree(i) or k not in tree(j):
                continue
            direct_map = system._connect(i, k)
            lower, upper = system._connect(i, j), system._connect(j, k)
            # The composite along j, outermost factor first, as compose takes it.
            triples.append((i, j, k))
            laws.append(((direct_map,), system._outer_first(lower, upper)))
    for triple, dev in zip(triples, composite_deviations(laws)):
        if not dev <= tol:
            violations.append(Violation("cocycle", triple, dev, system.cocycle_detail))
    return SystemReport(not violations, tuple(violations))


def _gamma(n: int) -> float:
    """``gamma_n = n u / (1 - n u)``: an n-term dot product, or a product of
    matrices whose inner dimensions add up to n, errs by at most gamma_n
    times the same product of the entries' absolute values (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, §3.5)."""
    nu = n * _U
    return nu / (1.0 - nu) if nu < 0.5 else math.inf


def _abs_maxima(phis: Sequence[ModuleMorphism], axis: Optional[int]) -> List[float]:
    """Per morphism, over its atoms, the largest absolute column sum (axis
    0), row sum (axis 1) or entry (None) of its matrices: 0.0 with no
    entries, NaN with a NaN.  One ``np.abs`` and two reductions for all."""
    blocks, lines, spans, owners = [], [], [], []
    offset = 0
    for n, phi in enumerate(phis):
        first = len(lines)
        for m in phi.matrices:
            if m.size:
                block = m.T if axis == 0 else m
                blocks.append(block)
                step = 1 if axis is None else block.shape[1]
                lines.extend(range(offset, offset + m.size, step))
                offset += m.size
        if len(lines) > first:
            spans.append(first)
            owners.append(n)
    maxima = [0.0] * len(phis)
    if blocks:
        flat = np.abs(np.concatenate(blocks, axis=None))
        # A sum beyond the float range is an infinity: no finite bound.
        with np.errstate(over="ignore"):
            sums = flat if axis is None else np.add.reduceat(flat, lines)
        for n, value in zip(owners, np.maximum.reduceat(sums, spans).tolist()):
            maxima[n] = value
    return maxima


def _telescoped_bound(devs: Dict, stage_maps: Dict, inner, outer=None) -> float:
    """An upper bound on the computed deviation of a pair law at every
    related pair of a system that is not an edge (a pair with a supplied
    map), from the deviations ``devs`` the law computed on the edges.
    Every related pair must be joined by a tree path.

    A pair law compares two chains of factors, as
    :func:`composite_deviations` multiplies them: the law's stage maps
    (``stage_maps``, a cone's maps or a system morphism's components) at
    the pair's ends, and the closures of the systems it spans.  Along the
    tree path ``i = k_0 -> ... -> k_r = j`` that :meth:`System._connect`
    composes, the exact difference telescopes into the exact edge
    differences ``D_t``: ``sum_t L_t D_t R_t``, where the closure factors
    ``L_t`` on the left and ``R_t`` on the right run one from i to k_t, the
    other from k_{t+1} to j.  For a cone ``m_j phi_ij - m_i = sum_t D_t
    phi_{i k_t}``; a square's has a target closure on its other side.
    ``inner`` names the supplied maps whose closures run from i, as
    ``(maps, axis)``, and ``outer`` those that run to j (None for none, the
    identity): axis 0 for a factor on the right, bounded by its largest
    absolute column sum, as ``|X Y|_max <= |X|_max ||Y||_1``, and axis 1
    for one on the left, by its largest row sum.  The closures' and the
    law's own products err by ``gamma`` terms (:func:`_gamma`) in the
    stage maps' largest entries, and ``|D_t|`` exceeds the edge's computed
    deviation by such terms too.

    One bound serves every pair: each path's factors, taken at least 1,
    are multiplied over all edges, its terms summed over all edges, and
    its rounding taken for the longest path.  The result is doubled, for
    the rounding of the law's final subtraction and of the bound's
    evaluation, and ``_BOUND_FLOOR`` is added.  A NaN or infinity in any
    input, or an input or a product of factors beyond ``_BOUND_RANGE``,
    makes the bound infinite."""
    edges = list(devs)
    inner_sums = _abs_maxima([inner[0][e] for e in edges], inner[1])
    outer_sums = (
        [1.0] * len(edges) if outer is None else _abs_maxima([outer[0][e] for e in edges], outer[1])
    )
    mags = dict(zip(stage_maps, _abs_maxima(list(stage_maps.values()), None)))
    dim = max(max(phi.source._dims + phi.target._dims, default=0) for phi in stage_maps.values())
    edge_gamma = _gamma(dim)
    total, spread = 0.0, 1.0
    for (a, b), dev, into, out in zip(edges, devs.values(), inner_sums, outer_sums):
        # |D| <= dev + gamma_dim (|A| |e| + |f| |B|) for the edge's two products.
        total += dev + edge_gamma * (mags[a] + mags[b]) * (into + out)
        spread *= max(into, 1.0) * max(out, 1.0)
    inputs = (total, spread, *inner_sums, *outer_sums, *mags.values())
    # A NaN compares false, so it fails the range as an infinity does.
    if not all(x <= _BOUND_RANGE for x in inputs):
        return math.inf
    # The errors of the two chains' products, closures included, on a
    # path of at most one edge fewer than the stages.
    ends = _gamma((len(mags) - 1) * dim) * 2.0 * max(mags.values())
    return 2.0 * spread * (total + ends) + _BOUND_FLOOR


def _law_deviations(system: System, law, stage_maps: Dict, inner, outer=None):
    """``(pair, deviation)`` of the pair law ``law(i, j)`` (a ``(left,
    right)`` pair of chains) at the related pairs of ``system``, in pair
    order, leaving out the pairs that are not edges when the law's
    telescoped bound (:func:`_telescoped_bound`) is within
    ``tolerance()``: no computed deviation there could exceed that bound,
    so none could fail.

    The edges are evaluated first, in one :func:`composite_deviations`,
    then, when the bound exceeds the tolerance, the other pairs in
    another.  All pairs are evaluated in one call, as a check of every
    pair does, when the inner and outer sides supply different pairs (a
    system morphism's source and target), so that no tree path carries
    both; when no more pairs than edges are left to settle (the bound
    reads every edge's maps, and costs about as much as evaluating that
    many pairs); or when some related pair has no tree path (the law then
    raises the ``KeyError`` of the first)."""
    pairs = system.related_pairs()
    edges = [p for p in pairs if p in system.maps]
    if (
        (outer is not None and outer[0].keys() != inner[0].keys())
        or len(pairs) - len(edges) <= len(edges)
        or not system._joins_every_pair()
    ):
        return list(zip(pairs, composite_deviations([law(i, j) for i, j in pairs])))
    devs = dict(zip(edges, composite_deviations([law(i, j) for i, j in edges])))
    if not _telescoped_bound(devs, stage_maps, inner, outer) <= tolerance():
        rest = [p for p in pairs if p not in devs]
        devs.update(zip(rest, composite_deviations([law(i, j) for i, j in rest])))
    return [(p, devs[p]) for p in pairs if p in devs]


def _cone_law(system: System, maps: Dict):
    """The cone law ``m_j . phi_ij = m_i`` of ``maps``, one per explicit
    stage, as :func:`_law_deviations` takes it: the pair law, the stage
    maps and the inner side.  A direct system's closures sit on the right
    of the cone's maps, an inverse one's on the left, and both start at i."""

    def law(i, j):
        return system._outer_first(system.map(i, j), maps[j]), (maps[i],)

    stage_maps = {i: maps[i] for i in system.index.explicit_indices()}
    return law, stage_maps, (system.maps, 0 if system.forward else 1)


def _square_law(theta: SystemMorphism):
    """The commuting squares of a system morphism, as
    :func:`_law_deviations` takes them: the pair law, the components and
    the inner and outer sides.  The source's closures sit on the right of a
    square and the target's on the left; along a path from i, a direct
    square's source closures start at i, an inverse square's target ones."""
    source, target, components = theta.source, theta.target, theta.components

    def square(i, j):
        # The components where the connecting arrow starts and ends.
        start, end = source._arrow(components[i], components[j])
        return (end, source.map(i, j)), (target.map(i, j), start)

    sides = ((source.maps, 0), (target.maps, 1))
    inner, outer = sides if source.forward else sides[::-1]
    return square, components, inner, outer


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


@np.errstate(over="ignore", invalid="ignore")
def validate_system_morphism(theta: SystemMorphism) -> SystemReport:
    """Check admissibility, commuting squares and chain tail solvability.

    The squares at the edges are evaluated; those at the other related
    pairs only when the telescoped bound (:func:`_telescoped_bound`) from
    the edges' squares exceeds ``tolerance()``.  Each of their computed
    deviations is at most that bound, so a pair left out could not be a
    violation.  When the source and target supply different pairs, every
    square is evaluated.  A square whose products overflow reads a
    non-finite deviation, not a warning."""
    tol = tolerance()
    violations: List[Violation] = []
    system, components = theta.source, theta.components
    norms = dict(zip(components, _raise_first(_operator_norm_results([*components.values()]))))
    for i, norm in norms.items():
        dev = max(norm, default=0.0) - 1.0
        if not dev <= tol:
            violations.append(Violation("admissibility", (i,), dev, "component norm > 1"))
    for pair, dev in _law_deviations(system, *_square_law(theta)):
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


@np.errstate(over="ignore", invalid="ignore")
def _build_limit(system: System) -> LimitPresentation:
    """Builds the limit :func:`_limit` keeps.

    A poset's limit is its top stage, a chain's the top stage cut to the
    atoms its tail keeps.  Each stage's canonical map follows the tree path
    :meth:`System._connect` takes from it to the top, composed from the
    top down: the cut (a poset's identity, never multiplied) first, then
    one edge at a time.  A product is kept by the path suffix it composes,
    so a suffix that several stages share, on a chain every one, is
    multiplied once: a chain's limit takes n - 1 products per atom, and a
    collapsed atom multiplies 0-row blocks.  Stages are walked in index
    order, so the first one no path joins to the top raises its
    ``KeyError``.  No closure is cached; a canonical map that overflows
    keeps its non-finite entries, with no warning."""
    index = system.index
    top = _top(index)
    if isinstance(index, FinitePoset):
        limit, provenance, cut = system.modules[top], "greatest-element", None
    else:
        keep = tail_limit_factor(index.tail, system.space) > 0.0
        limit, projection = mask_module(system.modules[top], keep)
        cut = projection if system.forward else mask_inclusion(system.modules[top], limit)
        provenance = "chain-tail"
    built = [cut]  # by suffix; suffix 0 is the top alone
    suffixes: Dict[tuple, int] = {}  # (stage, suffix after it) -> suffix from it
    canonical = {}
    for i in index.explicit_indices():
        tree = system._reach(i, top)
        node, suffix = top, 0
        while node != i:
            below = tree[node]
            key = (below, suffix)
            if key not in suffixes:
                edge = system.maps[(below, node)]
                outer = built[suffix]
                built.append(edge if outer is None else compose(*system._outer_first(edge, outer)))
                suffixes[key] = len(built) - 1
            node, suffix = below, suffixes[key]
        phi = built[suffix]
        canonical[i] = identity_morphism(limit) if phi is None else phi
    return LimitPresentation(system.limit_kind, limit, canonical, provenance)


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


@np.errstate(over="ignore", invalid="ignore")
def _universal_factorization(
    system: System,
    apex: FiberModule,
    maps: Dict,
    check_admissibility: bool = True,
) -> Tuple[ModuleMorphism, float]:
    """The unique morphism between the limit and the apex of a cone that
    the cone factors through (see
    :func:`l0limits.direct.dl_universal_factorization`), and the largest
    deviation of a factored cone map from the cone's own.  The cone law
    is evaluated as :func:`_law_deviations` does; the pairs it leaves out
    are within the tolerance, so the worst pair it reports, the first
    with the largest deviation, is the one a check of every pair finds.
    Products that overflow read as non-finite deviations, not warnings."""
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
            if not max(_raise_first([result])[0], default=0.0) - 1.0 <= tol:
                raise ValidationError(f"{side} map at {i!r} is not admissible")
    if fault is not None:
        raise fault
    worst, worst_pair = 0.0, (None, None)
    for pair, dev in _law_deviations(system, *_cone_law(system, maps)):
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


@np.errstate(over="ignore", invalid="ignore")
def _limit_functor(theta: SystemMorphism, validate: bool = True) -> ModuleMorphism:
    """The morphism a system morphism induces between the limits; see
    :func:`l0limits.direct.dl_functor`.  Its squares with the canonical
    maps are checked within ``10 * tolerance()``; products that overflow
    read as non-finite deviations, not warnings."""
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
