"""Seeded random instances: spaces, modules, systems and morphisms.

Systems over posets are built from nested per-atom subspaces of a fixed
ambient module (so the cocycle laws hold exactly), optionally dressed by
order-reversing positive scalars.  Chain systems use free random
admissible consecutive maps, where no diamond constraints exist.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .direct import DirectSystem, SystemMorphism
from .indexsets import Chain, FinitePoset, HarmonicTail, IdentityTail, ScalarTail
from .inverse import InverseSystem
from .measure import AtomMap, AtomicMeasureSpace, L0Function
from .modules import (
    Element,
    Fiber,
    FiberModule,
    ModuleMorphism,
    euclidean_fiber,
    operator_pointwise_norm,
    scale_morphism,
    submodule_from_bases,
)
from .norms import FramedP, WeightedP, dual_spec

INF = float("inf")


def random_space(rng, max_atoms: int = 3) -> AtomicMeasureSpace:
    n = int(rng.integers(1, max_atoms + 1))
    ids = [f"a{k}" for k in range(n)]
    return AtomicMeasureSpace(ids, rng.uniform(0.5, 2.0, size=n))


def random_norm(rng, dim: int, allow_dual: bool = True):
    if dim == 0:
        return WeightedP(1, ())
    kind = rng.integers(0, 6 if allow_dual else 5)
    p = [1.0, 2.0, INF][int(rng.integers(0, 3))]
    if kind <= 2:
        return WeightedP(p, rng.uniform(0.5, 2.0, size=dim))
    if kind <= 4:
        mat = _well_conditioned(rng, dim, dim)
        return FramedP(p, mat)
    tall = _well_conditioned(rng, dim + int(rng.integers(1, 3)), dim)
    return dual_spec(FramedP(1.0 if rng.integers(0, 2) else INF, tall))


def _well_conditioned(rng, rows: int, cols: int) -> np.ndarray:
    mat = rng.standard_normal((rows, cols))
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
    sv = np.clip(sv, 0.5, 2.0)
    return u @ np.diag(sv) @ vt


def random_module(
    rng,
    space: AtomicMeasureSpace,
    max_dim: int = 4,
    min_dim: int = 1,
    allow_dual: bool = True,
) -> FiberModule:
    fibers = []
    for _ in space.atom_ids:
        dim = int(rng.integers(min_dim, max_dim + 1))
        fibers.append(Fiber(dim, random_norm(rng, dim, allow_dual)))
    return FiberModule(space, tuple(fibers))


def random_element(rng, module: FiberModule, scale: float = 1.0) -> Element:
    return Element(
        module, [scale * rng.standard_normal(f.dim) for f in module.fibers]
    )


def random_admissible_morphism(
    rng,
    source: FiberModule,
    target: FiberModule,
    norm_target: float = 0.9,
) -> ModuleMorphism:
    """A random morphism scaled so the pointwise operator norm is below one."""
    mats = [
        rng.standard_normal((t.dim, s.dim))
        for s, t in zip(source.fibers, target.fibers)
    ]
    raw = ModuleMorphism(source, target, mats)
    norms = operator_pointwise_norm(raw).values
    top = float(np.max(norms, initial=0.0))
    if top <= 0.0:
        return raw
    return ModuleMorphism(source, target, [norm_target / top * m for m in raw.matrices])


def random_poset(rng, max_elements: int = 6) -> FinitePoset:
    """A random finite directed poset, forced directed by topping it off."""
    n = int(rng.integers(1, max_elements + 1))
    labels = [f"i{k}" for k in range(n)]
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.45:
                pairs.append((labels[a], labels[b]))
    try:
        return FinitePoset(labels, pairs)
    except ValueError:
        top = labels[-1]
        pairs.extend((labels[a], top) for a in range(n - 1))
        return FinitePoset(labels, pairs)


def _nested_bases(rng, poset: FinitePoset, ambient_dims, decreasing: bool):
    """Per-index, per-atom orthonormal bases with nested column spans.

    Spans grow along the order when ``decreasing`` is false (direct
    systems) and shrink when true (inverse systems); nesting makes the
    transfer matrices satisfy the cocycle law exactly.
    """
    depth = {e: 1 for e in poset.elements}
    for _ in poset.elements:  # longest-chain depth, fixed-point iteration
        for e in poset.elements:
            below = [d for d in poset.elements if d != e and poset.leq(d, e)]
            depth[e] = 1 + max((depth[d] for d in below), default=0)
    max_depth = max(depth.values())
    # One shared orthonormal flag per atom, cut at a rank that follows the
    # order depth; identical columns make every nesting relation exact.
    flags = [np.linalg.qr(rng.standard_normal((dim, dim)))[0] for dim in ambient_dims]
    bases = {}
    for e in poset.elements:
        level = depth[e] if not decreasing else (max_depth + 1 - depth[e])
        per_atom = []
        for dim, q in zip(ambient_dims, flags):
            frac = level / (max_depth + 1)
            rank = min(dim, max(1, int(np.ceil(frac * dim))))
            per_atom.append(q[:, :rank])
        bases[e] = per_atom
    return bases, depth


def random_direct_system(
    rng,
    space: Optional[AtomicMeasureSpace] = None,
    max_dim: int = 4,
    allow_dual: bool = False,
) -> DirectSystem:
    """A random validated direct system over a random finite poset."""
    space = random_space(rng) if space is None else space
    poset = random_poset(rng)
    ambient = random_module(rng, space, max_dim=max_dim, allow_dual=allow_dual)
    bases, depth = _nested_bases(rng, poset, ambient.dims(), decreasing=False)
    stages = {}
    inclusions = {}
    for e in poset.elements:
        sub, inc = submodule_from_bases(ambient, bases[e])
        stages[e] = sub
        inclusions[e] = inc
    if rng.random() < 0.5:
        base = float(rng.uniform(0.4, 1.0))
        scalars = {e: base ** depth[e] for e in poset.elements}
    else:
        scalars = {e: 1.0 for e in poset.elements}
    maps = {}
    for (i, j) in poset.related_pairs():
        mats = [
            (scalars[j] / scalars[i]) * (bj.T @ bi)
            for bi, bj in zip(bases[i], bases[j])
        ]
        maps[(i, j)] = ModuleMorphism(stages[i], stages[j], mats)
    return DirectSystem(poset, stages, maps)


def random_inverse_system(
    rng,
    space: Optional[AtomicMeasureSpace] = None,
    max_dim: int = 4,
) -> InverseSystem:
    """A random validated inverse system over a random finite poset.

    Built from decreasing nested spans of a Euclidean ambient module, so
    coordinate projections are exact contractions.
    """
    space = random_space(rng) if space is None else space
    poset = random_poset(rng)
    dims = [int(rng.integers(1, max_dim + 1)) for _ in space.atom_ids]
    ambient = FiberModule(space, tuple(euclidean_fiber(d) for d in dims))
    bases, _ = _nested_bases(rng, poset, ambient.dims(), decreasing=True)
    stages = {}
    for e in poset.elements:
        sub, _ = submodule_from_bases(ambient, bases[e])
        stages[e] = sub
    maps = {}
    for (i, j) in poset.related_pairs():
        # Downward map: orthogonal projection in nested coordinates.
        mats = [bi.T @ bj for bi, bj in zip(bases[i], bases[j])]
        maps[(i, j)] = ModuleMorphism(stages[j], stages[i], mats)
    return InverseSystem(poset, stages, maps)


def random_tail(rng, space: AtomicMeasureSpace):
    roll = rng.integers(0, 3)
    if roll == 0:
        return IdentityTail()
    if roll == 1:
        values = np.where(
            rng.random(space.atom_count) < 0.5,
            1.0,
            rng.uniform(0.0, 0.95, size=space.atom_count),
        )
        return ScalarTail(L0Function(space, values))
    return HarmonicTail()


def random_chain_direct_system(
    rng,
    space: Optional[AtomicMeasureSpace] = None,
    stages: Optional[int] = None,
    max_dim: int = 4,
    allow_dual: bool = True,
    tail=None,
) -> DirectSystem:
    """A random direct chain: free consecutive admissible maps, random tail."""
    space = random_space(rng) if space is None else space
    stages = int(rng.integers(2, 5)) if stages is None else stages
    modules = {
        k: random_module(rng, space, max_dim=max_dim, allow_dual=allow_dual)
        for k in range(stages)
    }
    maps = {}
    for k in range(stages - 1):
        maps[(k, k + 1)] = random_admissible_morphism(rng, modules[k], modules[k + 1])
    tail = random_tail(rng, space) if tail is None else tail
    return DirectSystem(Chain(stages, tail), modules, maps)


def _rank_pair(rng, space, max_dim: int, kind) -> SystemMorphism:
    """A morphism of systems of class ``kind`` whose components keep the
    per-atom rank: onto for direct systems, injective for inverse ones.

    A fixed ambient map is restricted to nested spans; the target spans
    are the images of the source spans, so every component is a bijection
    of spans and all squares commute exactly.  The map at (i, j) runs
    from the smaller index to the larger for direct systems and back for
    inverse ones, with matrix ``b_hi.T @ b_lo`` in nested coordinates.
    """
    space = random_space(rng) if space is None else space
    poset = random_poset(rng)
    dims = [int(rng.integers(1, max_dim + 1)) for _ in space.atom_ids]
    ambient = FiberModule(space, tuple(euclidean_fiber(d) for d in dims))
    bases, _ = _nested_bases(rng, poset, ambient.dims(), decreasing=not kind.forward)
    ambient_map = [_well_conditioned(rng, d, d) for d in dims]
    target_bases = {}
    for e in poset.elements:
        per_atom = []
        for b, r in zip(bases[e], ambient_map):
            q, _ = np.linalg.qr(r @ b)
            per_atom.append(q[:, : b.shape[1]])
        target_bases[e] = per_atom

    def system(per_index):
        stages = {e: submodule_from_bases(ambient, per_index[e])[0] for e in poset.elements}
        maps = {}
        for (i, j) in poset.related_pairs():
            lo, hi = (i, j) if kind.forward else (j, i)
            maps[(i, j)] = ModuleMorphism(
                stages[lo],
                stages[hi],
                [b_hi.T @ b_lo for b_lo, b_hi in zip(per_index[lo], per_index[hi])],
            )
        return kind(poset, stages, maps)

    source_system, target_system = system(bases), system(target_bases)
    components = {}
    worst = 0.0
    for e in poset.elements:
        mats = [
            tb.T @ r @ sb
            for sb, tb, r in zip(bases[e], target_bases[e], ambient_map)
        ]
        comp = ModuleMorphism(source_system.modules[e], target_system.modules[e], mats)
        worst = max(worst, float(np.max(operator_pointwise_norm(comp).values)))
        components[e] = comp
    scale = 0.95 / worst if worst > 0.95 else 1.0
    components = {e: scale_morphism(c, scale) for e, c in components.items()}
    return SystemMorphism(source_system, target_system, components)


def random_surjective_system_pair(
    rng,
    space: Optional[AtomicMeasureSpace] = None,
    max_dim: int = 4,
) -> SystemMorphism:
    """A direct-system morphism whose components are surjective per atom.

    A fixed ambient map is restricted to nested spans; the target spans
    are the images of the source spans, so every component is onto and
    all squares commute exactly.
    """
    return _rank_pair(rng, space, max_dim, DirectSystem)


def random_injective_inverse_pair(
    rng,
    space: Optional[AtomicMeasureSpace] = None,
    max_dim: int = 4,
) -> SystemMorphism:
    """An inverse-system morphism with per-atom injective components."""
    return _rank_pair(rng, space, max_dim, InverseSystem)


def random_chain_morphism_pair(rng, space=None, stages=3) -> SystemMorphism:
    """Chain-indexed morphism with invertible components and exact squares.

    The target maps are conjugates of the source maps by the components,
    rescaled to stay admissible.
    """
    space = random_space(rng) if space is None else space
    dims = [int(rng.integers(1, 4)) for _ in space.atom_ids]
    module = FiberModule(space, tuple(euclidean_fiber(d) for d in dims))
    modules = {k: module for k in range(stages)}
    thetas = {}
    for k in range(stages):
        raw = ModuleMorphism(module, module, [_well_conditioned(rng, d, d) for d in dims])
        top = float(np.max(operator_pointwise_norm(raw).values))
        thetas[k] = scale_morphism(raw, 0.9 / max(top, 0.9))
    phi = {}
    for k in range(stages - 1):
        phi[k] = random_admissible_morphism(rng, module, module, 0.5)
    psi = {}
    worst = 1.0
    for k in range(stages - 1):
        mats = [
            t1 @ p @ np.linalg.inv(t0)
            for t0, t1, p in zip(
                thetas[k].matrices, thetas[k + 1].matrices, phi[k].matrices
            )
        ]
        raw = ModuleMorphism(module, module, mats)
        worst = max(worst, float(np.max(operator_pointwise_norm(raw).values)))
        psi[k] = raw
    if worst > 1.0:
        scale = 0.95 / worst
        phi = {k: scale_morphism(m, scale) for k, m in phi.items()}
        psi = {k: scale_morphism(m, scale) for k, m in psi.items()}
    tail = IdentityTail()
    source = DirectSystem(
        Chain(stages, tail), modules, {(k, k + 1): phi[k] for k in phi}
    )
    target = DirectSystem(
        Chain(stages, tail), modules, {(k, k + 1): psi[k] for k in psi}
    )
    return SystemMorphism(source, target, thetas)


def random_atom_map(rng, target: AtomicMeasureSpace, max_atoms: int = 4) -> AtomMap:
    n = int(rng.integers(1, max_atoms + 1))
    ids = [f"x{k}" for k in range(n)]
    source = AtomicMeasureSpace(ids, rng.uniform(0.5, 2.0, size=n))
    table = {
        a: target.atom_ids[int(rng.integers(0, target.atom_count))] for a in ids
    }
    return AtomMap(source, target, table)
