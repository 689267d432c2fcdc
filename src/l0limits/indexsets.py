"""Directed index sets: finite posets and integer chains with declared tails.

A finite directed poset always has a greatest element, which makes limits
over it collapse to the top stage.  The interesting infinite behaviour is
captured by chains 0..N whose connecting maps beyond the last explicit
stage follow one of three finitely presented tail rules:

* identity tail: all further maps are the identity;
* scalar tail f (values in [0, 1]): all further maps scale by f, and the
  limit keeps exactly the atoms where f equals 1;
* harmonic tail: the map at step k scales by (k+1)/(k+2), so composite
  factors telescope to (N+1)/(N+j+1).

Each tail answers ``steps(space)``, the per-atom factor of every tail map
(``None`` for harmonic, whose factor changes with the step),
``limit_factor(space)``, the per-atom 0/1 limit of the composite factors,
and ``pulled(atom_map)``, the tail of the chain pulled back along an atom
map.  What a tail does is decided here and nowhere else.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .measure import AtomicMeasureSpace, AtomMap, L0Function


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """A finite directed poset given by elements and order pairs.

    The supplied pairs are closed reflexively and transitively; the result
    must be antisymmetric and directed (every pair has an upper bound).
    The poset is immutable, so it keeps its sorted strictly related pairs
    and its greatest element from construction.
    """

    elements: Tuple[str, ...]
    relation: frozenset

    def __init__(self, elements: Iterable[str], pairs: Iterable[Tuple[str, str]]):
        elements = tuple(str(e) for e in elements)
        if not elements:
            raise ValueError("a directed set is nonempty")
        if len(set(elements)) != len(elements):
            raise ValueError("poset elements must be distinct")
        position = {e: k for k, e in enumerate(elements)}
        rel = {(str(a), str(b)) for a, b in pairs}
        for a, b in rel:
            if a not in position or b not in position:
                raise KeyError(f"order pair ({a!r}, {b!r}) mentions unknown elements")
        # Row k of the order as an integer: bit j of above[k] is set when
        # elements[k] <= elements[j].  Warshall's closure: after pivot m,
        # every row holds the paths whose inner stages are among pivots
        # 0..m, so after the last pivot it holds every path.
        n = len(elements)
        above = [1 << k for k in range(n)]
        for a, b in rel:
            above[position[a]] |= 1 << position[b]
        for m in range(n):
            bit, pivot = 1 << m, above[m]
            above = [row | pivot if row & bit else row for row in above]
        # In a closed relation a ~ b (each below the other) exactly when
        # their rows are equal.  The first position with a repeated row and
        # the next position holding that row are the first such pair in
        # row-major order: a partner before it would have come first.
        if len(set(above)) < n:
            a = next(k for k, row in enumerate(above) if above.count(row) > 1)
            b = above.index(above[a], a + 1)
            raise ValueError(
                f"relation is not antisymmetric: {elements[a]!r} ~ {elements[b]!r}"
            )
        # A finite poset is directed exactly when it has a greatest element,
        # the one bit every row shares; only without one are the pairs
        # scanned in row-major order, for the first without an upper bound.
        tops = functools.reduce(operator.and_, above)
        if not tops:
            a, b = next(
                (a, b) for a, ra in enumerate(above) for b, rb in enumerate(above) if not ra & rb
            )
            raise ValueError(
                f"relation is not directed: {elements[a]!r}, {elements[b]!r} have no upper bound"
            )
        # Row-major: by the first element's position, then the second's.
        pairs = tuple(
            (elements[a], elements[b])
            for a, row in enumerate(above)
            for b in range(n)
            if row >> b & 1 and a != b
        )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "relation", frozenset(pairs + tuple(zip(elements, elements))))
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_greatest", elements[tops.bit_length() - 1])

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def explicit_indices(self) -> Tuple[str, ...]:
        return self.elements

    def related_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """All strictly related pairs (a, b) with a < b, ordered by the
        positions of a, then of b, among the elements."""
        return self._pairs

    def pulled(self, atom_map: AtomMap) -> "FinitePoset":
        """The poset of a system pulled back along an atom map: itself."""
        return self

    def same_shape(self, other) -> bool:
        return (
            isinstance(other, FinitePoset)
            and self.elements == other.elements
            and self.relation == other.relation
        )

    def __eq__(self, other):
        return self.same_shape(other)

    def __hash__(self):
        return hash((self.elements, self.relation))


def greatest_element(poset: FinitePoset) -> str:
    """The unique maximum: a finite directed poset has one, and keeps it
    from construction (the element every element is below)."""
    return poset._greatest


@dataclass(frozen=True)
class IdentityTail:
    """Connecting maps beyond the last stage are identities."""

    kind = "identity"

    def steps(self, space: AtomicMeasureSpace) -> np.ndarray:
        return np.ones(space.atom_count)

    def limit_factor(self, space: AtomicMeasureSpace) -> np.ndarray:
        return np.ones(space.atom_count)

    def pulled(self, atom_map: AtomMap) -> "IdentityTail":
        return self


@dataclass(frozen=True)
class ScalarTail:
    """Connecting maps beyond the last stage scale by a fixed function,
    kept as given.  Its values must lie in [0, 1] exactly: above 1 a tail
    map would not contract.  Since ``f**k -> 0`` for every ``f < 1``, the
    limit keeps an atom exactly where the value equals 1."""

    function: L0Function
    kind = "scalar"

    def __post_init__(self):
        values = self.function.values
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("scalar tail values must lie in [0, 1]")

    def steps(self, space: AtomicMeasureSpace) -> np.ndarray:
        return self.function.values

    def limit_factor(self, space: AtomicMeasureSpace) -> np.ndarray:
        return (self.function.values == 1.0).astype(float)

    def pulled(self, atom_map: AtomMap) -> "ScalarTail":
        values = self.function.values[list(atom_map.targets)]
        return ScalarTail(L0Function(atom_map.source, values))


@dataclass(frozen=True)
class HarmonicTail:
    """Connecting maps beyond the last stage scale by (k+1)/(k+2)."""

    kind = "harmonic"

    def steps(self, space: AtomicMeasureSpace) -> None:
        return None

    def limit_factor(self, space: AtomicMeasureSpace) -> np.ndarray:
        return np.zeros(space.atom_count)

    def pulled(self, atom_map: AtomMap) -> "HarmonicTail":
        return self


@dataclass(frozen=True, eq=False)
class Chain:
    """Stages 0..N with the total order and a tail rule beyond stage N."""

    stages: int
    tail: object

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("a chain needs at least one explicit stage")
        if not isinstance(self.tail, (IdentityTail, ScalarTail, HarmonicTail)):
            raise ValueError(f"unrecognized tail rule {self.tail!r}")
        n = self.stages  # immutable, so the pairs are kept from construction
        object.__setattr__(self, "_pairs", tuple((i, j) for i in range(n) for j in range(i + 1, n)))

    @property
    def last(self) -> int:
        return self.stages - 1

    def explicit_indices(self) -> Tuple[int, ...]:
        return tuple(range(self.stages))

    def related_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """All pairs (i, j) with i < j, ordered by i, then by j."""
        return self._pairs

    def leq(self, a: int, b: int) -> bool:
        return a <= b

    def pulled(self, atom_map: AtomMap) -> "Chain":
        """The chain of a system pulled back along an atom map."""
        return Chain(self.stages, self.tail.pulled(atom_map))

    def same_shape(self, other) -> bool:
        """Equal explicit structure; tails may differ between systems."""
        return isinstance(other, Chain) and self.stages == other.stages

    def __eq__(self, other):
        return self.same_shape(other) and self.tail == other.tail

    def __hash__(self):
        return hash(("chain", self.stages, self.tail))


def tail_limit_factor(tail, space: AtomicMeasureSpace) -> np.ndarray:
    """Per-atom limit of the composite forward tail factors.

    Identity stays one, a scalar tail converges to the indicator of the
    set where it equals one, and the harmonic products telescope to zero.
    """
    return tail.limit_factor(space)


def tail_growth_sup(num_tail, den_tail, last_stage: int, space: AtomicMeasureSpace):
    """Per-atom supremum of the telescoped factor ratios num/den.

    A component family beyond the last stage must scale by the ratio of
    the two tails' step factors; the supremum over all steps bounds how
    much the last explicit component is amplified.  ``inf`` means the
    last component has to vanish at that atom.
    """
    num, den = num_tail.steps(space), den_tail.steps(space)
    if num is None and den is None:
        return np.ones(space.atom_count)
    if num is None:
        # harmonic over scalar: (base/(base+j)) / f^j
        return np.where(den >= 1.0, 1.0, math.inf)
    if den is not None:
        return np.where(num <= den, 1.0, math.inf)
    out = np.ones(space.atom_count)
    base = last_stage + 1  # harmonic composite factor is base / (base + j)
    for a, f in enumerate(num):
        # scalar over harmonic: f^j (base+j)/base, maximized in closed form
        if f >= 1.0:
            out[a] = math.inf
        elif f > 0.0:
            peak = -1.0 / math.log(f) - base
            best = 1.0
            for j in {0, max(0, math.floor(peak)), max(0, math.ceil(peak))}:
                best = max(best, f**j * (base + j) / base)
            out[a] = best
    return out
