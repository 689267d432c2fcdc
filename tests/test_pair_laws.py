"""Pair laws settled from edge laws.

The cone law of a universal factorization and the squares of a system
morphism hold on every related pair.  Along a tree path each pair's law is
a sum of edge laws, so :func:`l0limits.systems._telescoped_bound` bounds
every pair's computed deviation from the edges' deviations, and a law
evaluates the other pairs only when that bound exceeds the tolerance.  The bound
must hold for any input, and the checks must read exactly as the
all-pairs references of ``tests/oracles.py`` do.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0limits import randgen, systems
from l0limits.config import tolerance_override
from l0limits.direct import DirectSystem, Target, direct_limit, dl_universal_factorization
from l0limits.errors import L0LimitsError
from l0limits.indexsets import Chain, FinitePoset, IdentityTail
from l0limits.inverse import InverseSystem, Source, il_universal_factorization, inverse_limit
from l0limits.measure import AtomicMeasureSpace
from l0limits.modules import (
    FiberModule,
    ModuleMorphism,
    composite_deviations,
    compose,
    euclidean_fiber,
    euclidean_module,
    scale_morphism,
)
from l0limits.systems import SystemMorphism, validate_system_morphism

from oracles import (
    reference_dl_universal_factorization,
    reference_il_universal_factorization,
    reference_validate_system_morphism,
)

LAWS = ("direct-cone", "inverse-cone", "direct-square", "inverse-square")


def _fresh(source, target, mats):
    """A morphism holding ``mats`` as they are, NaN and infinity included,
    as an overflowing product of finite maps would."""
    return ModuleMorphism(source, target, mats, _fresh=True)


def _joined(lower, upper, cls):
    """The composite along two consecutive edges of a chain of ``cls``."""
    return compose(upper, lower) if cls is DirectSystem else compose(lower, upper)


def _with_shortcuts(system, factor=1.0):
    """The system with a map at each (k, k + 2) as well: the composite of
    its two edges, times ``factor``."""
    maps = dict(system.maps)
    for k in range(len(system.modules) - 2):
        maps[(k, k + 2)] = scale_morphism(
            _joined(maps[(k, k + 1)], maps[(k + 1, k + 2)], type(system)), factor
        )
    return type(system)(system.index, system.modules, maps)


def _replaced(system, key, phi):
    return type(system)(system.index, system.modules, {**system.maps, key: phi})


def _poisoned(phi, rng, value):
    """``phi`` with ``value`` (NaN or an infinity) in one entry."""
    mats = [m.copy() for m in phi.matrices]
    m = mats[int(rng.integers(len(mats)))]
    m.flat[int(rng.integers(m.size))] = value
    return _fresh(phi.source, phi.target, mats)


def _square_module(space, rng):
    return FiberModule(space, tuple(euclidean_fiber(int(d)) for d in rng.integers(1, 4, space.atom_count)))


def _law_case(kind, stages, shortcuts, poison, data):
    """A chain of ``stages`` stages and a law over it: the system, and the
    law as the library checks it.  The law holds up to rounding, on the
    edges of a cone exactly, when its maps are built edge by edge; every
    map is scaled by its own power of two in [2^-60, 2^60], a cone map may
    be scaled away from the law, and ``poison`` (NaN or an infinity), if
    any, lands in one entry of a supplied map or of a stage map."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    atoms = data.draw(st.integers(1, 2))
    space = AtomicMeasureSpace([f"a{k}" for k in range(atoms)], [1.0] * atoms)

    def scale():
        return 2.0 ** data.draw(st.integers(-60, 60))

    cls = DirectSystem if kind.startswith("direct") else InverseSystem
    chain = Chain(stages, IdentityTail())
    if kind.endswith("cone"):
        modules = {k: _square_module(space, rng) for k in range(stages)}
        maps = {}
        for k in range(stages - 1):
            source, target = (modules[k], modules[k + 1])[:: 1 if cls is DirectSystem else -1]
            mats = [scale() * rng.standard_normal((t, s)) for s, t in zip(source.dims(), target.dims())]
            maps[(k, k + 1)] = _fresh(source, target, mats)
        system = cls(chain, modules, maps)
        if shortcuts:
            system = _with_shortcuts(system)
        apex = euclidean_module(space, int(rng.integers(1, 4)))
        ends = system._arrow(modules[stages - 1], apex)
        tip = _fresh(*ends, [scale() * rng.standard_normal((t, s))
                             for s, t in zip(ends[0].dims(), ends[1].dims())])
        if data.draw(st.booleans()):
            # Each cone map is the tip through the closure to the top stage.
            stage_maps = {k: compose(*system._outer_first(system.map(k, stages - 1), tip))
                          for k in range(stages)}
        else:
            # Each cone map is the next one through an edge: every edge law
            # computes to 0, and only rounding makes the other pairs deviate.
            stage_maps = {stages - 1: tip}
            for k in range(stages - 2, -1, -1):
                stage_maps[k] = compose(*system._outer_first(system.maps[(k, k + 1)], stage_maps[k + 1]))
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, stages - 1))
            stage_maps[k] = scale_morphism(stage_maps[k], scale())
        others = None
    else:
        module = _square_module(space, rng)
        modules = {k: module for k in range(stages)}
        stage_maps = {
            k: _fresh(module, module, [scale() * randgen._well_conditioned(rng, f.dim, f.dim)
                                       for f in module.fibers])
            for k in range(stages)
        }
        source_maps, target_maps = {}, {}
        for k in range(stages - 1):
            phi = [scale() * rng.standard_normal((f.dim, f.dim)) for f in module.fibers]
            lower, upper = stage_maps[k].matrices, stage_maps[k + 1].matrices
            # The target's maps conjugate the source's: squares commute up to rounding.
            if cls is DirectSystem:
                psi = [b @ p @ np.linalg.inv(a) for a, b, p in zip(lower, upper, phi)]
            else:
                psi = [a @ p @ np.linalg.inv(b) for a, b, p in zip(lower, upper, phi)]
            source_maps[(k, k + 1)] = _fresh(module, module, phi)
            target_maps[(k, k + 1)] = _fresh(module, module, psi)
        system, others = cls(chain, modules, source_maps), cls(chain, modules, target_maps)
        if shortcuts:
            system, others = _with_shortcuts(system), _with_shortcuts(others)
    if poison is not None:
        where = data.draw(st.sampled_from(["edge", "stage"] + (["other"] if others else [])))
        if where == "stage":
            k = data.draw(st.integers(0, stages - 1))
            stage_maps[k] = _poisoned(stage_maps[k], rng, poison)
        else:
            victim = system if where == "edge" else others
            key = data.draw(st.sampled_from(sorted(victim.maps)))
            victim = _replaced(victim, key, _poisoned(victim.maps[key], rng, poison))
            system, others = (victim, others) if where == "edge" else (system, victim)
    if others is None:
        return system, systems._cone_law(system, stage_maps) + (None,)
    return system, systems._square_law(SystemMorphism(system, others, stage_maps))


# Products through an injected infinity overflow, or meet 0 * inf.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=250, deadline=None)
@given(st.sampled_from(LAWS), st.integers(2, 12), st.booleans(),
       st.sampled_from([None, math.nan, math.inf, -math.inf]), st.data())
def test_a_telescoped_bound_is_at_least_every_computed_deviation(kind, stages, shortcuts, poison, data):
    """The law's bound is at least the computed deviation of every pair
    that is not an edge, and when some pair's deviation is NaN the bound
    is not finite, so no pair settles."""
    system, (law, stage_maps, inner, outer) = _law_case(kind, stages, shortcuts, poison, data)
    pairs = system.related_pairs()
    deviations = dict(zip(pairs, composite_deviations([law(i, j) for i, j in pairs])))
    edges = {p: deviations[p] for p in pairs if p in system.maps}
    bound = systems._telescoped_bound(edges, stage_maps, inner, outer)
    for pair in pairs:
        dev = deviations[pair]
        if math.isnan(dev):
            assert not bound < math.inf, (pair, bound)
        elif pair not in edges:
            assert dev <= bound, (pair, dev, bound)


@pytest.mark.parametrize("kind", LAWS)
def test_a_telescoped_bound_carries_the_growth_along_a_path(kind):
    """Edges ``3 I`` and stage maps that keep the law exactly, but for one
    entry of the map at stage 3 moved by 2^-20: the pairs reaching stage
    3 from below deviate by up to 27 times that, more than the edges' own
    deviations add up to, and the bound, finite, still covers each."""
    space = AtomicMeasureSpace(["a"], [1.0])
    module = euclidean_module(space, 2)
    stages = 6
    cls = DirectSystem if kind.startswith("direct") else InverseSystem
    edge = ModuleMorphism(module, module, [3.0 * np.eye(2)])
    system = cls(Chain(stages, IdentityTail()), {k: module for k in range(stages)},
                 {(k, k + 1): edge for k in range(stages - 1)})
    if kind.endswith("cone"):
        # m_i = 3^(j - i) m_j: every cone law holds exactly.
        stage_maps = {k: ModuleMorphism(module, module, [3.0 ** (stages - 1 - k) * np.eye(2)])
                      for k in range(stages)}
    else:
        stage_maps = {k: ModuleMorphism(module, module, [np.eye(2)]) for k in range(stages)}
    stage_maps[3] = _moved(stage_maps[3], np.random.default_rng(3), 2.0**-20)
    if kind.endswith("cone"):
        law, stage_maps, inner = systems._cone_law(system, stage_maps)
        outer = None
    else:
        law, stage_maps, inner, outer = systems._square_law(SystemMorphism(system, system, stage_maps))
    pairs = system.related_pairs()
    deviations = dict(zip(pairs, composite_deviations([law(i, j) for i, j in pairs])))
    edges = {p: deviations[p] for p in pairs if p in system.maps}
    bound = systems._telescoped_bound(edges, stage_maps, inner, outer)
    assert max(deviations.values()) > 2.0 * sum(edges.values())
    assert bound < math.inf
    for pair in set(pairs) - edges.keys():
        assert deviations[pair] <= bound, (pair, deviations[pair], bound)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_abs_sum_beyond_the_float_range_settles_nothing_and_does_not_warn():
    """A finite edge whose column of entries near 1e308 sums past the
    float range, on a chain long enough to be settled from its edges:
    the bound is infinite without an overflow warning, and the squares of
    tiny components, all of whose products stay finite, are evaluated at
    every pair as the reference evaluates them."""
    space = AtomicMeasureSpace(["a"], [1.0])
    module = euclidean_module(space, 2)
    stages = 5
    maps = {}
    for k in range(stages - 1):
        mat = np.full((2, 2), 1e-3)
        if k == 0:
            mat[:, 0] = 1e308
        maps[(k, k + 1)] = ModuleMorphism(module, module, [mat])
    system = DirectSystem(Chain(stages, IdentityTail()), {k: module for k in range(stages)}, maps)
    tiny = ModuleMorphism(module, module, [1e-300 * np.eye(2)])
    theta = SystemMorphism(system, system, {k: tiny for k in range(stages)})
    law, components, inner, outer = systems._square_law(theta)
    edges = dict(zip(maps, composite_deviations([law(i, j) for i, j in maps])))
    assert systems._telescoped_bound(edges, components, inner, outer) == math.inf
    got = _outcome(lambda: validate_system_morphism(theta))
    assert got == _outcome(lambda: reference_validate_system_morphism(theta))
    assert got == (True, [])


#: Tolerances: the default, and one at which rounding-level laws still
#: pass but many pairs do not settle.
TOLS = (1e-9, 1e-13)

#: Multiples of the tolerance by which a cone or component entry moves.
MOVES = (-10.0, -3.0, -1.0, -0.5, 0.5, 1.0, 1.5, 3.0, 10.0)


def _outcome(call):
    """What a check returns, as matrix bytes, or the type and text it raises."""
    try:
        result = call()
    except (L0LimitsError, KeyError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, ModuleMorphism):
        return [(m.shape, m.tobytes()) for m in result.matrices]
    return result.passed, [(v.kind, v.indices, v.deviation, v.detail) for v in result.violations]


def _moved(phi, rng, by):
    """``phi`` with one entry moved by ``by``."""
    mats = [m.copy() for m in phi.matrices]
    filled = [m for m in mats if m.size]
    if filled:
        m = filled[int(rng.integers(len(filled)))]
        m.flat[int(rng.integers(m.size))] += by
    return ModuleMorphism(phi.source, phi.target, mats)


def _edges_scaled(system, rng, factor, every):
    """``system`` with every supplied map, or one, scaled by ``factor``."""
    keys = sorted(system.maps)
    chosen = keys if every else [keys[int(rng.integers(len(keys)))]]
    maps = {p: scale_morphism(phi, factor) if p in chosen else phi for p, phi in system.maps.items()}
    return type(system)(system.index, system.modules, maps)


def _inverse_chain(rng, space, stages):
    modules = {k: randgen.random_module(rng, space, max_dim=3) for k in range(stages)}
    maps = {(k, k + 1): randgen.random_admissible_morphism(rng, modules[k + 1], modules[k])
            for k in range(stages - 1)}
    return InverseSystem(Chain(stages, randgen.random_tail(rng, space)), modules, maps)


def _tree_poset_system(cls, rng, space, elements, factor):
    """A system of ``cls`` over a poset of ``elements`` elements whose
    covering pairs form a tree into the greatest one: each other element
    is covered by one of the next two, so paths run long and branch.
    Maps are supplied on the covering pairs, and unless ``factor`` is
    None on about half the other related pairs too, each the composite along its
    path times ``factor``; the pairs left have no supplied map."""
    labels = [f"e{k}" for k in range(elements)]
    cover = {labels[k]: labels[int(rng.integers(k + 1, min(k + 3, elements)))]
             for k in range(elements - 1)}
    modules = {e: randgen.random_module(rng, space, max_dim=3) for e in labels}
    maps = {}
    for a, b in cover.items():
        ends = (modules[a], modules[b]) if cls is DirectSystem else (modules[b], modules[a])
        maps[(a, b)] = randgen.random_admissible_morphism(rng, *ends)
    system = cls(FinitePoset(labels, list(cover.items())), modules, maps)
    if factor is not None:
        for pair in system.related_pairs():
            if pair not in maps and rng.random() < 0.5:
                maps[pair] = scale_morphism(system.map(*pair), factor)
        system = cls(system.index, modules, maps)
    return system


@settings(max_examples=160, deadline=None)
@given(st.sampled_from(["direct", "inverse", "direct-poset", "inverse-poset"]), st.integers(3, 10),
       st.booleans(), st.sampled_from(TOLS), st.data())
def test_cone_laws_read_as_the_all_pairs_reference(kind, stages, shortcuts, tol, data):
    """Universal factorizations onto a limit's canonical maps, with the
    edges scaled by ``1 + k tol`` and a cone entry moved by a multiple of
    tol, on chains with and without shortcut maps and on tree-shaped
    posets where some related pairs have no supplied map: the same
    mediating map, or the same text (which names the worst pair), as the
    reference that evaluates every pair."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    space = randgen.random_space(rng, max_atoms=2)
    if kind.startswith("direct"):
        limit, factor, reference, wrap = direct_limit, dl_universal_factorization, \
            reference_dl_universal_factorization, Target
    else:
        limit, factor, reference, wrap = inverse_limit, il_universal_factorization, \
            reference_il_universal_factorization, Source
    shortcut = 1.0 + data.draw(st.integers(-3, 3)) * tol if shortcuts else None
    if kind.endswith("poset"):
        cls = DirectSystem if kind == "direct-poset" else InverseSystem
        system = _tree_poset_system(cls, rng, space, stages, shortcut)
    else:
        if kind == "direct":
            system = randgen.random_chain_direct_system(rng, space, stages=stages, max_dim=3)
        else:
            system = _inverse_chain(rng, space, stages)
        if shortcuts:
            system = _with_shortcuts(system, shortcut)
    presentation = limit(system)
    cone = dict(presentation.canonical)
    k = data.draw(st.integers(-20, 20))
    system = _edges_scaled(system, rng, 1.0 + k * tol, data.draw(st.booleans()))
    if data.draw(st.booleans()):
        i = data.draw(st.sampled_from(system.index.explicit_indices()))
        cone[i] = _moved(cone[i], rng, data.draw(st.sampled_from(MOVES)) * tol)
    with tolerance_override(tol):
        got = _outcome(lambda: factor(system, wrap(presentation.module, cone)))
        want = _outcome(lambda: reference(system, wrap(presentation.module, cone)))
    assert got == want


def _transposed(theta):
    """The inverse-system morphism whose squares are the transposes of a
    direct one's: source maps the target's transposed, target maps the
    source's, components transposed."""
    def flipped(system):
        maps = {p: ModuleMorphism(phi.target, phi.source, [m.T for m in phi.matrices])
                for p, phi in system.maps.items()}
        return InverseSystem(system.index, system.modules, maps)

    components = {k: ModuleMorphism(c.target, c.source, [m.T for m in c.matrices])
                  for k, c in theta.components.items()}
    return SystemMorphism(flipped(theta.target), flipped(theta.source), components)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["direct", "inverse"]), st.integers(3, 10),
       st.sampled_from(["none", "both", "source", "target"]), st.sampled_from(TOLS), st.data())
def test_squares_read_as_the_all_pairs_reference(kind, stages, shortcuts, tol, data):
    """System morphisms with an edge of either side scaled by ``1 + k
    tol`` and a component entry moved by a multiple of tol, on chains with
    shortcut maps on both sides, on one (source and target then supply
    different pairs) or on none: the same report as the reference."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    theta = randgen.random_chain_morphism_pair(rng, randgen.random_space(rng, max_atoms=2), stages)
    if kind == "inverse":
        theta = _transposed(theta)
    source, target = theta.source, theta.target
    if shortcuts in ("both", "source"):
        source = _with_shortcuts(source, 1.0 + data.draw(st.integers(-3, 3)) * tol)
    if shortcuts in ("both", "target"):
        target = _with_shortcuts(target)
    k = data.draw(st.integers(-40, 40))
    if data.draw(st.booleans()):
        source = _edges_scaled(source, rng, 1.0 + k * tol, False)
    else:
        target = _edges_scaled(target, rng, 1.0 + k * tol, False)
    components = dict(theta.components)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, stages - 1))
        components[i] = _moved(components[i], rng, data.draw(st.sampled_from(MOVES)) * tol)
    bad = SystemMorphism(source, target, components)
    with tolerance_override(tol):
        got = _outcome(lambda: validate_system_morphism(bad))
        want = _outcome(lambda: reference_validate_system_morphism(bad))
    assert got == want
