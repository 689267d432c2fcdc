"""Finite atomic measure spaces and their measurable functions.

A base space is a finite list of atoms with strictly positive weights, so
every almost-everywhere statement is a finite per-atom conjunction and all
constructions stay exact.  Functions are per-atom real values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError, SpaceMismatchError


@dataclass(frozen=True)
class AtomicMeasureSpace:
    """A finite atomic measure: ordered atom labels and positive weights."""

    atom_ids: tuple
    weights: np.ndarray

    def __init__(self, atom_ids: Sequence[str], weights: Sequence[float]):
        atom_ids = tuple(str(a) for a in atom_ids)
        weights = np.asarray(weights, dtype=float)
        if len(atom_ids) == 0:
            raise ValueError("a measure space needs at least one atom")
        if len(set(atom_ids)) != len(atom_ids):
            raise ValueError("atom ids must be pairwise distinct")
        if weights.shape != (len(atom_ids),):
            raise ShapeMismatchError(
                f"expected {len(atom_ids)} weights, got shape {weights.shape}"
            )
        if not np.isfinite(weights).all():
            bad = atom_ids[int(np.argmin(np.isfinite(weights)))]
            raise NonFiniteError(f"weight of atom {bad!r} is not finite")
        if not np.all(weights > 0.0):
            bad = atom_ids[int(np.argmin(weights))]
            raise ValueError(f"weight of atom {bad!r} is not strictly positive")
        weights.setflags(write=False)
        object.__setattr__(self, "atom_ids", atom_ids)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_positions", {a: k for k, a in enumerate(atom_ids)})

    @property
    def atom_count(self) -> int:
        return len(self.atom_ids)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def index_of(self, atom_id: str) -> int:
        try:
            return self._positions[atom_id]
        except KeyError:
            raise KeyError(f"unknown atom id {atom_id!r}") from None

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, AtomicMeasureSpace)
            and self.atom_ids == other.atom_ids
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.atom_ids, self.weights.tobytes()))

    def __repr__(self):
        pairs = ", ".join(f"{a}:{w:g}" for a, w in zip(self.atom_ids, self.weights))
        return f"AtomicMeasureSpace({pairs})"


@dataclass(frozen=True)
class L0Function:
    """A measurable function: one real value per atom of its space."""

    space: AtomicMeasureSpace
    values: np.ndarray

    def __init__(self, space: AtomicMeasureSpace, values: Sequence[float]):
        values = np.asarray(values, dtype=float)
        if values.shape != (space.atom_count,):
            raise ShapeMismatchError(
                f"expected {space.atom_count} values, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            bad = space.atom_ids[int(np.argmin(np.isfinite(values)))]
            raise NonFiniteError(f"function value at atom {bad!r} is not finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        return (
            isinstance(other, L0Function)
            and self.space == other.space
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.space, self.values.tobytes()))

    def __repr__(self):
        return f"L0Function({np.array2string(self.values, precision=6)})"


def constant_function(space: AtomicMeasureSpace, value: float) -> L0Function:
    return L0Function(space, np.full(space.atom_count, float(value)))


def indicator(space: AtomicMeasureSpace, atoms: Iterable[str]) -> L0Function:
    values = np.zeros(space.atom_count)
    for a in atoms:
        values[space.index_of(a)] = 1.0
    return L0Function(space, values)


def _require_same_space(f: L0Function, g: L0Function) -> None:
    if f.space != g.space:
        raise SpaceMismatchError("functions live over different spaces")


def normalized_reference(space: AtomicMeasureSpace) -> L0Function:
    """The probability measure obtained by normalizing the atom weights.

    The result is mutually absolutely continuous with the input measure:
    positive exactly where the weights are, i.e. everywhere.
    """
    return L0Function(space, space.weights / space.total_mass)


def l0_distance(f: L0Function, g: L0Function) -> float:
    """Distance sum_a m'_a * min(|f_a - g_a|, 1) with m' the normalized weights."""
    _require_same_space(f, g)
    ref = normalized_reference(f.space).values
    return float(np.sum(ref * np.minimum(np.abs(f.values - g.values), 1.0)))


def ess_extremum(
    functions: Sequence[L0Function],
    mode: str,
    tail_limit: Optional[L0Function] = None,
) -> L0Function:
    """Per-atom extremum of a family of functions.

    ``functions`` is a finite family, or the explicit prefix of a chain
    family whose eventually monotone tail has the closed-form per-atom
    limit ``tail_limit`` (supplied by the caller; the limit modules derive
    these in closed form).
    """
    if mode not in ("sup", "inf"):
        raise ValueError(f"mode must be 'sup' or 'inf', got {mode!r}")
    functions = list(functions)
    if tail_limit is not None:
        functions = functions + [tail_limit]
    if not functions:
        raise ValueError("ess_extremum of an empty family is undefined")
    space = functions[0].space
    for f in functions[1:]:
        _require_same_space(functions[0], f)
    stacked = np.stack([f.values for f in functions])
    values = stacked.max(axis=0) if mode == "sup" else stacked.min(axis=0)
    return L0Function(space, values)


@dataclass(frozen=True)
class AtomMap:
    """A total map between atom sets, serialized as an explicit id table.

    ``targets`` holds, for each source atom in order, the position of its
    image among the target atoms.
    """

    source: AtomicMeasureSpace
    target: AtomicMeasureSpace
    table: dict = field(compare=False)

    def __init__(self, source, target, table):
        table = {str(k): str(v) for k, v in table.items()}
        for a in source.atom_ids:
            if a not in table:
                raise ValueError(f"atom map is not total: missing atom {a!r}")
        for a, b in table.items():
            if a not in source._positions:
                raise KeyError(f"atom map defined on unknown atom {a!r}")
            if b not in target._positions:
                raise KeyError(f"atom map hits unknown atom id {b!r}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "table", dict(table))
        object.__setattr__(
            self, "targets", tuple(target._positions[table[a]] for a in source.atom_ids)
        )

    def __call__(self, atom_id: str) -> str:
        return self.table[atom_id]

    def target_index(self, source_index: int) -> int:
        return self.targets[source_index]

    def __eq__(self, other):
        return (
            isinstance(other, AtomMap)
            and self.source == other.source
            and self.target == other.target
            and self.table == other.table
        )


def identity_atom_map(space: AtomicMeasureSpace) -> AtomMap:
    return AtomMap(space, space, {a: a for a in space.atom_ids})


def pushforward_check(f: AtomMap):
    """Pushforward weights of the source measure and absolute continuity.

    Returns ``(weights_on_target, abs_continuous)``.  The flag is true iff
    every target atom receiving positive mass has positive weight, which
    always holds here since all weights are strictly positive.
    """
    pushed = np.zeros(f.target.atom_count)
    for i, y in enumerate(f.targets):
        pushed[y] += f.source.weights[i]
    abs_continuous = bool(np.all((pushed <= 0.0) | (f.target.weights > 0.0)))
    return pushed, abs_continuous
