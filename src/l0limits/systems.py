"""The shared core of direct and inverse systems.

A system supplies connecting maps on some related pairs (i, j), i <= j, of
a directed index.  A direct system's map at (i, j) goes forward from stage
i to stage j, an inverse system's goes back from stage j to stage i.
Apart from that arrow direction both kinds build their composites and
check their laws the same way, so both are implemented here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from graphlib import TopologicalSorter
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import tolerance
from .errors import ShapeMismatchError
from .modules import (
    ModuleMorphism,
    composite_deviation,
    compose,
    identity_morphism,
    morphism_deviation,
    operator_pointwise_norm,
)
from .norms import kernel_path

#: Relative slack on a product of computed edge norms.  Every exactly
#: evaluated norm carries a few ulps of rounding, and so does the
#: evaluation of the composite it bounds; 1e-12 absorbs that along paths
#: of thousands of edges.
PRODUCT_SLACK = 1e-12


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
    order), one composition from the map at its tree parent, and cached.
    Subclasses fix the arrow direction through ``forward`` and name their
    maps in the texts below.
    """

    forward = True
    missing_text = "no provided maps connect {i!r} to {j!r}"
    identity_detail = "phi_ii != id"
    cocycle_detail = "phi_ik != phi_jk . phi_ij"

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
            source, target = (i, j) if self.forward else (j, i)
            if phi.source != self.modules[source] or phi.target != self.modules[target]:
                raise ShapeMismatchError(f"map at ({i!r}, {j!r}) has wrong endpoints")
            self.maps[(i, j)] = phi
        self._edges: Dict[object, list] = {}
        for a, b in sorted(self.maps, key=lambda p: (str(p[0]), str(p[1]))):
            self._edges.setdefault(a, []).append(b)
        self._trees: Dict[object, dict] = {}
        self._closure: Dict[tuple, ModuleMorphism] = {}

    def related_pairs(self):
        return self.index.related_pairs()

    def _extend(self, acc: ModuleMorphism, edge: ModuleMorphism) -> ModuleMorphism:
        """The map along a path, lengthened at its upper end by one edge."""
        return compose(edge, acc) if self.forward else compose(acc, edge)

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
    paths of supplied edges join i to.  Path counts are capped at two and
    summed over the supplied-edge DAG from its sinks up."""
    explicit = system.index.explicit_indices()
    succ = {a: [b for b in system._edges.get(a, ()) if b != a] for a in explicit}
    counts: Dict[object, dict] = {}
    for a in TopologicalSorter(succ).static_order():
        row = {a: 1}
        for b in succ[a]:
            for k, n in counts[b].items():
                row[k] = min(2, row.get(k, 0) + n)
        counts[a] = row
    position = {e: n for n, e in enumerate(explicit)}
    return {
        a: sorted((k for k, n in row.items() if n > 1), key=position.__getitem__)
        for a, row in counts.items()
    }


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

    bounds: Dict[tuple, Optional[np.ndarray]] = {}

    @cache
    def edge_norm(edge) -> np.ndarray:
        return operator_pointwise_norm(system.maps[edge]).values

    @cache
    def exact_norm(edge) -> Optional[np.ndarray]:
        """The edge's norm where every atom has an exact kernel, else None."""
        phi = system.maps[edge]
        fibers = zip(phi.source.fibers, phi.target.fibers)
        if all(kernel_path(s.norm, t.norm) != "bracket" for s, t in fibers):
            return edge_norm(edge)
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

    pairs = system.related_pairs()
    for (i, j) in pairs:
        try:
            tree = system._reach(i, j)
        except KeyError as exc:
            violations.append(Violation("missing-map", (i, j), float("inf"), str(exc)))
            continue
        if (i, j) in system.maps:
            norm = edge_norm((i, j))
        else:
            bound = path_bound(i, j, tree)
            if bound is not None and float(bound.max()) * (1.0 + PRODUCT_SLACK) <= 1.0 + tol:
                continue
            norm = operator_pointwise_norm(system._connect(i, j)).values
        dev = float(norm.max(initial=0.0)) - 1.0
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
            composite = (upper, lower) if system.forward else (lower, upper)
            dev = composite_deviation((direct_map,), composite)
            if not dev <= tol:
                violations.append(Violation("cocycle", (i, j, k), dev, system.cocycle_detail))
    return SystemReport(not violations, tuple(violations))
