"""The shared limit core against the per-direction functions it replaced.

Limits, universal factorizations, limit functors, rank-preservation
reports, system pullbacks and pullback comparisons of seeded direct and
inverse chains (identity, harmonic and scalar tails) and posets must equal
those of the reference copies in ``oracles`` bit for bit, and every
failing input must raise the same error with the same message.  Threads
and colimit seminorms must equal their hand-written reference copies bit
for bit too; a rejected thread raises the same error type, whose message
now names the law of the cone it is read as.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0limits import randgen
from l0limits.direct import (
    ColimitClass,
    DirectSystem,
    SystemMorphism,
    Target,
    check_surjectivity_preservation,
    direct_limit,
    dl_functor,
    dl_seminorm,
    dl_universal_factorization,
    validate_system_morphism,
)
from l0limits.errors import L0LimitsError
from l0limits.indexsets import (
    Chain,
    FinitePoset,
    HarmonicTail,
    IdentityTail,
    ScalarTail,
    greatest_element,
    tail_limit_factor,
)
from l0limits.inverse import (
    InverseSystem,
    Source,
    check_injectivity_preservation,
    il_functor,
    il_universal_factorization,
    inverse_limit,
    thread_from_components,
)
from l0limits.homdual import hom_module
from l0limits.measure import AtomicMeasureSpace, L0Function
from l0limits.modules import (
    Element,
    Fiber,
    FiberModule,
    ModuleMorphism,
    apply,
    certify_isometric_iso,
    compose,
    euclidean_module,
    identity_morphism,
    mask_inclusion,
    mask_module,
    scale_morphism,
)
from l0limits.norms import WeightedP
from l0limits.pullback import (
    dl_pullback_iso,
    il_pullback_compare,
    pullback_direct_system,
    pullback_inverse_system,
)
from l0limits.systems import LimitPresentation, _canonical_maps_unique, _gamma

from oracles import (
    _reference_projections_separate,
    _reference_spanning_ranks_ok,
    reference_check_injectivity_preservation,
    reference_check_surjectivity_preservation,
    reference_direct_limit,
    reference_dl_functor,
    reference_dl_pullback_iso,
    reference_dl_seminorm,
    reference_dl_universal_factorization,
    reference_il_functor,
    reference_il_pullback_compare,
    reference_il_universal_factorization,
    reference_inverse_limit,
    reference_pullback_direct_system,
    reference_pullback_inverse_system,
    reference_thread_from_components,
    reference_validate_system_morphism,
)

SEEDS = range(8)


def _scalar_tail(rng, space):
    """Some atoms kept (factor 1), the others collapsed."""
    n = space.atom_count
    values = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.0, 0.95, n))
    return ScalarTail(L0Function(space, values))


TAILS = {
    "identity": lambda rng, space: IdentityTail(),
    "harmonic": lambda rng, space: HarmonicTail(),
    "scalar": _scalar_tail,
}


def _chain(cls, rng, tail):
    space = randgen.random_space(rng)
    stages = int(rng.integers(2, 5))
    modules = {k: randgen.random_module(rng, space, max_dim=3) for k in range(stages)}
    maps = {}
    for k in range(stages - 1):
        source, target = (k, k + 1) if cls is DirectSystem else (k + 1, k)
        maps[(k, k + 1)] = randgen.random_admissible_morphism(
            rng, modules[source], modules[target]
        )
    return cls(Chain(stages, TAILS[tail](rng, space)), modules, maps)


SYSTEMS = {
    **{f"direct-chain-{t}": (lambda rng, t=t: _chain(DirectSystem, rng, t)) for t in TAILS},
    "direct-poset": lambda rng: randgen.random_direct_system(rng, max_dim=3),
    **{f"inverse-chain-{t}": (lambda rng, t=t: _chain(InverseSystem, rng, t)) for t in TAILS},
    "inverse-poset": lambda rng: randgen.random_inverse_system(rng, max_dim=3),
}

#: system.forward -> (the library's function, the reference copy).
LIMIT = {
    True: (direct_limit, reference_direct_limit),
    False: (inverse_limit, reference_inverse_limit),
}
FUNCTOR = {True: (dl_functor, reference_dl_functor), False: (il_functor, reference_il_functor)}


def _outcome(fn, *args, **kwargs):
    """("ok", value), or ("raised", (type, message, report)) for a library error."""
    try:
        return "ok", fn(*args, **kwargs)
    except (L0LimitsError, KeyError) as exc:
        return "raised", (type(exc), str(exc), getattr(exc, "report", None))


def _assert_same_morphism(got, want):
    assert got.source == want.source and got.target == want.target
    assert len(got.matrices) == len(want.matrices)
    for a, b in zip(got.matrices, want.matrices):
        assert np.array_equal(a, b)


def _assert_same_presentation(got, want):
    assert (got.kind, got.module, got.provenance) == (want.kind, want.module, want.provenance)
    assert list(got.canonical) == list(want.canonical)
    for i in want.canonical:
        _assert_same_morphism(got.canonical[i], want.canonical[i])


def _assert_same(got, want, compare, same_message=True):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1] if same_message else got[1][0] is want[1][0]
    else:
        compare(got[1], want[1])
    return got[0]


def _systems(seed):
    for name, build in SYSTEMS.items():
        yield name, build(np.random.default_rng([seed, len(name)]))


@pytest.mark.parametrize("seed", SEEDS)
def test_limits_match_reference(seed):
    for _, system in _systems(seed):
        new, old = LIMIT[system.forward]
        _assert_same(_outcome(new, system), _outcome(old, system), _assert_same_presentation)


def _ladder(rng, levels):
    """A poset of ``levels`` ranks, one or two elements each and one at the
    top, each element below every element of the next rank, so that tree
    paths from the bottom have ``levels - 1`` edges and shortest paths tie.
    The elements are listed in shuffled order, and so are their labels."""
    widths = [int(rng.integers(1, 3)) for _ in range(levels - 1)] + [1]
    names = iter(rng.permutation(sum(widths)).tolist())
    ranks = [[f"p{next(names)}" for _ in range(w)] for w in widths]
    pairs = [(a, b) for lower, upper in zip(ranks, ranks[1:]) for a in lower for b in upper]
    elements = [e for rank in ranks for e in rank]
    rng.shuffle(elements)
    return FinitePoset(elements, pairs), pairs


def _top_down_case(data):
    """A direct or inverse system with Gaussian maps, which commute with
    nothing: a chain of any tail, a chain with a map at each (k, k + 2)
    as well (the composite of its two edges times ``1 + 2**-30``, so
    shortest paths tie and differ by more than rounding), or a ladder."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    forward = data.draw(st.booleans())
    shape = data.draw(st.sampled_from(["chain", "shortcut-chain", "ladder"]))
    space = randgen.random_space(rng)
    if shape == "ladder":
        index, pairs = _ladder(rng, data.draw(st.integers(4, 6)))
    else:
        stages = data.draw(st.integers(2, 12))
        index = Chain(stages, TAILS[data.draw(st.sampled_from(sorted(TAILS)))](rng, space))
        pairs = [(k, k + 1) for k in range(stages - 1)]
    modules = {i: randgen.random_module(rng, space, max_dim=3) for i in index.explicit_indices()}
    maps = {}
    for i, j in pairs:
        source, target = (modules[i], modules[j]) if forward else (modules[j], modules[i])
        mats = [rng.standard_normal((t, s)) for s, t in zip(source.dims(), target.dims())]
        maps[(i, j)] = ModuleMorphism(source, target, mats)
    if shape == "shortcut-chain":
        for k in range(len(modules) - 2):
            lower, upper = maps[(k, k + 1)], maps[(k + 1, k + 2)]
            joined = compose(upper, lower) if forward else compose(lower, upper)
            maps[(k, k + 2)] = scale_morphism(joined, 1 + 2**-30)
    return (DirectSystem if forward else InverseSystem)(index, modules, maps)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_down_canonical_maps_are_the_closures_up_to_rounding(data):
    """A limit composes each canonical map from the top down.  It differs
    from the closure composed bottom up, ``cut . phi_{i,top}`` on a chain
    (``phi_{i,top} . inclusion`` for an inverse system) and ``phi_{i,top}``
    on a poset, by rounding only: along a tree path of r edges, by at most
    ``2 gamma_{r d}`` times the product of the factors' absolute values,
    with d the largest fiber dim (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., §3.5).  A canonical map that took
    another path, where shortest paths tie, would differ by a cocycle
    deviation, far beyond that bound."""
    system = _top_down_case(data)
    presentation = LIMIT[system.forward][0](system)
    index = system.index
    dim = max(max(m.dims(), default=0) for m in system.modules.values())
    if isinstance(index, Chain):
        top = index.last
        keep = tail_limit_factor(index.tail, system.space) > 0.0
        limit, cut = mask_module(system.modules[top], keep)
        if not system.forward:
            cut = mask_inclusion(system.modules[top], limit)
        heads = [cut]
    else:
        top, heads = greatest_element(index), []
    for i in index.explicit_indices():
        closure = system.map(i, top)
        old = compose(*system._outer_first(closure, heads[0])) if heads else closure
        tree, node, factors = system._tree(i), top, list(heads)
        while node != i:
            factors.append(system.maps[(tree[node], node)])
            node = tree[node]
        edges = len(factors) - len(heads)
        if not system.forward:
            factors.reverse()
        for a, new in enumerate(presentation.canonical[i].matrices):
            size = np.abs(factors[0].matrices[a]) if factors else np.eye(len(new))
            for phi in factors[1:]:
                size = size @ np.abs(phi.matrices[a])
            assert np.all(np.abs(new - old.matrices[a]) <= 2 * _gamma(edges * dim) * size)


def _with_limit(system, presentation):
    """A copy of ``system`` that keeps ``presentation`` as its limit: the
    library factors a cone through the limit its system keeps."""
    copy = type(system)(system.index, system.modules, system.maps)
    copy._presentation = presentation
    return copy


def _cones(system, rng):
    """Cones over the system, with the limit presentation to factor them
    through (None: the system's own): through its limit (they factor),
    through its top stage (they fail on collapsed atoms), and scaled or
    incompatible variants of the first."""
    limit = reference_direct_limit(system) if system.forward else reference_inverse_limit(system)
    index = system.index
    top = index.last if isinstance(index, Chain) else greatest_element(index)
    apex = randgen.random_module(rng, system.space, max_dim=3)

    def between(near, far):
        source, target = (near, far) if system.forward else (far, near)
        return randgen.random_admissible_morphism(rng, source, target)

    def along(near_map, far_map):
        return compose(far_map, near_map) if system.forward else compose(near_map, far_map)

    explicit = system.index.explicit_indices()
    yield "canonical", limit.module, dict(limit.canonical), None
    via_limit = between(limit.module, apex)
    through_limit = {i: along(limit.canonical[i], via_limit) for i in explicit}
    yield "through-limit", apex, through_limit, None
    via_top = between(system.modules[top], apex)
    yield "through-top", apex, {i: along(system.map(i, top), via_top) for i in explicit}, None
    for factor in (0.5, 3.0):
        yield f"all-scaled-{factor}", apex, {
            i: scale_morphism(m, factor) for i, m in through_limit.items()
        }, None
    first = explicit[0]
    scaled = scale_morphism(through_limit[first], 1.5)
    yield "one-scaled", apex, {**through_limit, first: scaled}, None
    other = between(system.modules[first], apex)
    yield "incompatible", apex, {**through_limit, first: other}, None
    # Against a limit whose canonical maps are zero, the canonical cone
    # does not factor, and the zero cone factors but not uniquely.
    zero = {i: scale_morphism(m, 0.0) for i, m in limit.canonical.items()}
    degenerate = LimitPresentation(limit.kind, limit.module, zero, limit.provenance)
    yield "degenerate-limit", limit.module, dict(limit.canonical), degenerate
    yield "zero-cone", limit.module, zero, degenerate


@pytest.mark.parametrize("seed", SEEDS)
def test_universal_factorizations_match_reference(seed):
    outcomes = set()
    for _, system in _systems(seed):
        rng = np.random.default_rng(seed)
        for cone, apex, maps, presentation in _cones(system, rng):
            subject = system if presentation is None else _with_limit(system, presentation)
            if system.forward:
                new = _outcome(dl_universal_factorization, subject, Target(apex, maps))
                old = _outcome(
                    reference_dl_universal_factorization, system, Target(apex, maps), presentation
                )
            else:
                new = _outcome(il_universal_factorization, subject, Source(apex, maps))
                old = _outcome(
                    reference_il_universal_factorization, system, Source(apex, maps), presentation
                )
            outcomes.add((cone, _assert_same(new, old, _assert_same_morphism)))
    for cone in ("canonical", "through-limit"):
        assert (cone, "ok") in outcomes and (cone, "raised") not in outcomes
    for cone in ("incompatible", "degenerate-limit", "zero-cone"):
        assert (cone, "raised") in outcomes


def _lapack_calls(monkeypatch) -> list:
    """The names of the ``np.linalg.svd`` and ``inv`` calls made from now on."""
    calls = []
    for name in ("svd", "inv"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_certificates_of_scalar_maps_call_no_lapack(monkeypatch):
    """``c I`` blocks are bijective with the inverse ``(1/c) I`` and the
    norms ``|c|`` and ``1/|c|``: no SVD and no ``inv``, over Euclidean,
    1-norm and Hom fibers."""
    space = AtomicMeasureSpace(["a", "b", "c"], [1.0, 1.0, 1.0])
    hom = hom_module(euclidean_module(space, 2), euclidean_module(space, 3))
    module = FiberModule(space, (
        Fiber(2, WeightedP(1, (1.0, 2.0))), Fiber(3, WeightedP(2, (1.0, 1.0, 3.0))), hom.fibers[2],
    ))
    ident = identity_morphism(module)
    half = scale_morphism(ident, -0.5)
    calls = _lapack_calls(monkeypatch)
    assert certify_isometric_iso(ident).ok
    cert = certify_isometric_iso(half)
    assert (cert.ok, cert.bijective, cert.max_norm_deviation) == (False, True, 1.0)
    assert calls == []
    # A general matrix still takes the stacked SVD and inv.
    assert not certify_isometric_iso(compose(half, ModuleMorphism(module, module, [
        np.eye(2)[::-1], np.eye(3), np.eye(6),
    ]))).ok
    assert calls == ["svd", "inv"]


@pytest.mark.parametrize("seed", SEEDS)
def test_the_uniqueness_witness_takes_lapack_only_without_a_scalar_block(seed, monkeypatch):
    """Chain and poset limits hold an identity top-stage block at every
    atom of a nonzero limit fiber, so their witness needs no SVD; the
    degenerate presentation of ``_cones``, whose canonical maps are zero,
    is refused as the reference refuses it: by the ``c I`` rule where an
    atom's stack is one square zero block, by the SVD where it is not."""
    built = []
    for _, system in _systems(seed):
        limit = LIMIT[system.forward][0](system)
        zero = {i: scale_morphism(m, 0.0) for i, m in limit.canonical.items()}
        degenerate = LimitPresentation(limit.kind, limit.module, zero, limit.provenance)
        reference = _reference_spanning_ranks_ok if system.forward else _reference_projections_separate
        built.append((system, limit, degenerate, reference(degenerate)))
    calls = _lapack_calls(monkeypatch)
    for system, limit, _, _ in built:
        assert _canonical_maps_unique(system, limit)
    assert calls == []
    refused = reached_svd = 0
    for system, limit, degenerate, want in built:
        assert _canonical_maps_unique(system, degenerate) == want
        # One SVD per shape of the stacked blocks; none on an all-zero limit.
        nonzero = any(limit.module.dims())
        assert want is not nonzero
        stacked = [
            np.concatenate([m for phi in degenerate.canonical.values() if (m := phi.matrices[a]).size],
                           axis=system.stage_axis).shape
            for a, d in enumerate(degenerate.module.dims()) if d
        ]
        square = all(shape[0] == shape[1] for shape in stacked)
        assert set(calls) == ({"svd"} if nonzero and not square else set())
        calls.clear()
        refused += nonzero
        reached_svd += nonzero and not square
    assert refused > 0
    assert reached_svd > 0


def _morphisms(seed):
    """Morphisms between systems of both directions, valid and not: the
    identity, a contraction, the zero map and an inflation of each system,
    the identity of the system with its maps inflated, the identity
    between two tails over one chain, and randgen's morphism pairs with
    one component scaled so that a square breaks."""
    for name, system in _systems(seed):
        ident = {i: identity_morphism(m) for i, m in system.modules.items()}
        for factor in (1.0, 0.5, 0.0, 3.0):
            yield f"{name}-x{factor}", SystemMorphism(
                system, system, {i: scale_morphism(m, factor) for i, m in ident.items()}
            )
        inflated_maps = {k: scale_morphism(m, 3.0) for k, m in system.maps.items()}
        inflated = type(system)(system.index, system.modules, inflated_maps)
        yield f"{name}-inflated", SystemMorphism(inflated, inflated, ident)
        if isinstance(system.index, Chain):
            harmonic = Chain(system.index.stages, HarmonicTail())
            other = type(system)(harmonic, system.modules, system.maps)
            yield f"{name}-to-harmonic", SystemMorphism(system, other, ident)
            yield f"{name}-from-harmonic", SystemMorphism(other, system, ident)
    rng = np.random.default_rng(seed)
    pairs = {
        "direct-chain-pair": randgen.random_chain_morphism_pair(rng),
        "direct-poset-pair": randgen.random_surjective_system_pair(rng, max_dim=3),
        "inverse-poset-pair": randgen.random_injective_inverse_pair(rng, max_dim=3),
    }
    for name, theta in pairs.items():
        yield name, theta
        first = theta.source.index.explicit_indices()[0]
        broken = {**theta.components, first: scale_morphism(theta.components[first], 0.5)}
        yield f"{name}-broken", SystemMorphism(theta.source, theta.target, broken)


@pytest.mark.parametrize("seed", SEEDS)
def test_functors_and_preservation_match_reference(seed):
    outcomes = set()
    for _, theta in _morphisms(seed):
        assert validate_system_morphism(theta) == reference_validate_system_morphism(theta)
        new, old = FUNCTOR[theta.source.forward]
        outcome = _assert_same(_outcome(new, theta), _outcome(old, theta), _assert_same_morphism)
        outcomes.add(outcome)
        for new, old in (
            (check_surjectivity_preservation, reference_check_surjectivity_preservation),
            (check_injectivity_preservation, reference_check_injectivity_preservation),
        ):
            _assert_same(_outcome(new, theta), _outcome(old, theta), lambda a, b: a == b)
    assert outcomes == {"ok", "raised"}


def _assert_same_system(got, want):
    assert type(got) is type(want)
    assert got.index.same_shape(want.index) and got.modules == want.modules
    assert list(got.maps) == list(want.maps)
    for key in want.maps:
        _assert_same_morphism(got.maps[key], want.maps[key])


def _assert_same_commute_report(got, want):
    _assert_same_presentation(got.limit_of_pulled, want.limit_of_pulled)
    assert got.pulled_limit == want.pulled_limit
    _assert_same_morphism(got.comparison, want.comparison)
    assert (got.certificate, got.note) == (want.certificate, want.note)


@pytest.mark.parametrize("seed", SEEDS)
def test_pullbacks_match_reference(seed):
    for _, system in _systems(seed):
        atom_map = randgen.random_atom_map(np.random.default_rng(seed), system.space)
        if system.forward:
            pull, ref_pull = pullback_direct_system, reference_pullback_direct_system
            compare, ref_compare = dl_pullback_iso, reference_dl_pullback_iso
        else:
            pull, ref_pull = pullback_inverse_system, reference_pullback_inverse_system
            compare, ref_compare = il_pullback_compare, reference_il_pullback_compare
        _assert_same(_outcome(pull, atom_map, system), _outcome(ref_pull, atom_map, system),
                     _assert_same_system)
        _assert_same(
            _outcome(compare, atom_map, system),
            _outcome(ref_compare, atom_map, system),
            _assert_same_commute_report,
        )


def _threads(system, rng):
    """Threads of the projections of a random top-stage element: as drawn
    (of infinite norm where a collapsed atom carries mass), zeroed where
    the limit collapses (finite), and each with one component scaled by
    0.5 (incompatible unless that component is zero)."""
    index = system.index
    top = index.last if isinstance(index, Chain) else greatest_element(index)
    explicit = index.explicit_indices()
    drawn = randgen.random_element(rng, system.modules[top])
    limit = reference_inverse_limit(system).module
    kept = Element(drawn.module, [
        c if f.dim == c.size else np.zeros_like(c) for c, f in zip(drawn.coords, limit.fibers)
    ])
    for name, v in (("drawn", drawn), ("kept", kept)):
        components = {i: apply(system.map(i, top), v) for i in explicit}
        yield name, components
        k = explicit[int(rng.integers(len(explicit)))]
        yield f"{name}-one-scaled", {**components, k: components[k].scale(0.5)}


def _assert_same_thread(got, want):
    (element, norm), (ref_element, ref_norm) = got, want
    assert element.module == ref_element.module
    for a, b in zip(element.coords, ref_element.coords):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert norm.space == ref_norm.space and np.array_equal(norm.values, ref_norm.values)


def _assert_same_function(got, want):
    assert got.space == want.space and np.array_equal(got.values, want.values)


@pytest.mark.parametrize("seed", range(25))
def test_threads_and_seminorms_match_reference(seed):
    outcomes = set()
    for _, system in _systems(seed):
        rng = np.random.default_rng(seed)
        if not system.forward:
            for _, components in _threads(system, rng):
                outcomes.add(_assert_same(
                    _outcome(thread_from_components, system, components),
                    _outcome(reference_thread_from_components, system, components),
                    _assert_same_thread,
                    same_message=False,
                ))
            continue
        classes = [(i, randgen.random_element(rng, m)) for i, m in system.modules.items()]
        foreign = randgen.random_element(rng, randgen.random_module(rng, system.space, max_dim=3))
        classes += [("no-such-stage", classes[0][1]), (classes[0][0], foreign)]
        for stage, v in classes:
            _assert_same(
                _outcome(dl_seminorm, system, ColimitClass(stage, v)),
                _outcome(reference_dl_seminorm, system, stage, v),
                _assert_same_function,
            )
    assert outcomes == {"ok", "raised"}
