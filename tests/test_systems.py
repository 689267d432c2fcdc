"""The shared system core against the plain reference validation.

The core skips the admissibility evaluations that submultiplicativity
settles and the cocycle evaluations that associativity settles; its
reports and connecting maps must still equal those of the reference,
which evaluates every law on every pair and triple.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0limits import randgen, systems
from l0limits.config import tolerance
from l0limits.direct import (
    DirectSystem,
    SystemMorphism,
    Target,
    direct_limit,
    dl_universal_factorization,
    validate_direct_system,
    validate_system_morphism,
)
from l0limits.errors import (
    BracketTooWideError,
    L0LimitsError,
    NonFiniteError,
    ValidationError,
)
from l0limits.indexsets import (
    Chain,
    FinitePoset,
    HarmonicTail,
    IdentityTail,
    ScalarTail,
    tail_limit_factor,
)
from l0limits.homdual import hom_module
from l0limits.inverse import (
    InverseSystem,
    Source,
    hom_inverse_system,
    il_universal_factorization,
    inverse_limit,
    validate_inverse_system,
)
from l0limits.measure import AtomicMeasureSpace, L0Function
from l0limits.modules import (
    Fiber,
    FiberModule,
    ModuleMorphism,
    compose,
    euclidean_module,
    identity_morphism,
    operator_pointwise_norm,
    scale_morphism,
    zero_morphism,
)
from l0limits.norms import WeightedP

from oracles import (
    ReferenceDirectSystem,
    ReferenceInverseSystem,
    reference_poset_relation,
    reference_validate_direct_system,
    reference_validate_inverse_system,
)

#: Factors applied to one supplied map: just inside the tolerance, over
#: the admissibility bound, far over it, and a sign flip (same norm,
#: broken cocycle).
SCALES = (1 + 5e-10, 1.5, 3.0, -1.0)


def _inverse_chain(rng, stages=None):
    space = randgen.random_space(rng)
    stages = int(rng.integers(2, 7)) if stages is None else stages
    modules = {k: randgen.random_module(rng, space) for k in range(stages)}
    maps = {
        (k, k + 1): randgen.random_admissible_morphism(rng, modules[k + 1], modules[k])
        for k in range(stages - 1)
    }
    return InverseSystem(Chain(stages, randgen.random_tail(rng, space)), modules, maps)


RANDOM_SYSTEMS = {
    "direct-chain": lambda rng: randgen.random_chain_direct_system(
        rng, stages=int(rng.integers(2, 7))
    ),
    "direct-poset": randgen.random_direct_system,
    "inverse-chain": _inverse_chain,
    "inverse-poset": randgen.random_inverse_system,
}


def _mutants(system, rng):
    """The system, then variants with one supplied map scaled by each factor,
    with one supplied map dropped, and with a scaled identity at a loop."""
    yield system
    keys = list(system.maps)
    for factor in SCALES + (None,) if keys else ():
        key = keys[int(rng.integers(len(keys)))]
        maps = dict(system.maps)
        if factor is None:
            del maps[key]
        else:
            maps[key] = scale_morphism(maps[key], factor)
        yield type(system)(system.index, system.modules, maps)
    stage = system.index.explicit_indices()[-1]
    loop = scale_morphism(identity_morphism(system.modules[stage]), 1.5)
    yield type(system)(system.index, system.modules, {**system.maps, (stage, stage): loop})


def _outcome(validate, system):
    try:
        report = validate(system)
    except L0LimitsError as exc:
        return type(exc)
    return report.passed, [(v.kind, v.indices, v.deviation, v.detail) for v in report.violations]


def _check_against_reference(system):
    if isinstance(system, DirectSystem):
        validate, reference, ref_system = (
            validate_direct_system, reference_validate_direct_system, ReferenceDirectSystem
        )
    else:
        validate, reference, ref_system = (
            validate_inverse_system, reference_validate_inverse_system, ReferenceInverseSystem
        )
    got = _outcome(validate, system)
    assert got == _outcome(reference, system)
    ref = ref_system(system)
    for i, j in system.related_pairs():
        try:
            want = ref.map(i, j)
        except KeyError as exc:
            with pytest.raises(KeyError) as raised:
                system.map(i, j)
            assert str(raised.value) == str(exc)
            continue
        mats = system.map(i, j).matrices
        assert all(np.array_equal(a, b) for a, b in zip(mats, want.matrices))
    return got


@pytest.mark.parametrize("kind", sorted(RANDOM_SYSTEMS))
def test_reports_and_maps_match_reference(kind):
    failing = set()
    for seed in range(30):
        rng = np.random.default_rng([seed, len(kind)])
        for system in _mutants(RANDOM_SYSTEMS[kind](rng), rng):
            got = _check_against_reference(system)
            if not isinstance(got, type) and not got[0]:
                failing.update(v[0] for v in got[1])
    # The mutations must reach every violation kind the system shape allows.
    assert {"identity", "admissibility", "missing-map"} <= failing
    if kind.endswith("poset"):
        assert "cocycle" in failing


@pytest.mark.parametrize("bracket", [False, True])
def test_only_exact_kernels_certify_composites(monkeypatch, bracket):
    """Zero maps along a 4-stage chain: with Euclidean fibers the three
    composites are certified from the three edge norms; with operator-norm
    fibers the edges take the bracket kernel, so each composite is
    evaluated too."""
    calls = []
    batch = systems._operator_norm_results
    monkeypatch.setattr(systems, "_operator_norm_results",
                        lambda phis: calls.extend(phis) or batch(phis))
    plane = euclidean_module(AtomicMeasureSpace(["a"], [1.0]), 2)
    module = hom_module(plane, plane) if bracket else plane
    zero = zero_morphism(module, module)
    system = DirectSystem(
        Chain(4, IdentityTail()), {k: module for k in range(4)}, {(k, k + 1): zero for k in range(3)}
    )
    assert validate_direct_system(system).passed
    assert len(calls) == (6 if bracket else 3)


@pytest.mark.parametrize("cls", [DirectSystem, InverseSystem])
def test_identity_chain_evaluates_only_supplied_maps(monkeypatch, cls):
    """A 200-stage chain: one norm per supplied map, no composition at all."""
    calls = {"norm": 0, "compose": 0}

    def counted(name, fn, morphisms=lambda *args: 1):
        def wrapper(*args):
            calls[name] += morphisms(*args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(systems, "_operator_norm_results",
                        counted("norm", systems._operator_norm_results, len))
    monkeypatch.setattr(systems, "compose", counted("compose", systems.compose))
    module = euclidean_module(AtomicMeasureSpace(["a0", "a1"], [1.0, 1.0]), 3)
    ident = identity_morphism(module)
    system = cls(
        Chain(200, IdentityTail()),
        {k: module for k in range(200)},
        {(k, k + 1): ident for k in range(199)},
    )
    report = validate_direct_system(system) if cls is DirectSystem else validate_inverse_system(system)
    assert report.passed
    assert calls == {"norm": 199, "compose": 0}


def test_poset_closure_matches_fixed_point_reference():
    rng = np.random.default_rng(7)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(1, 7))
        labels = [f"e{k}" for k in range(n)]
        pairs = [(a, b) for a in labels for b in labels if a != b and rng.random() < 0.25]
        try:
            want = reference_poset_relation(labels, pairs)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                FinitePoset(labels, pairs)
            if "directed" in str(exc):
                assert str(raised.value) == str(exc)
                outcomes.add("undirected")
            else:
                assert "not antisymmetric" in str(raised.value)
                outcomes.add("cyclic")
            continue
        assert FinitePoset(labels, pairs).relation == want
        outcomes.add("ok")
    assert outcomes == {"ok", "undirected", "cyclic"}


def _count_law_check_objects(monkeypatch):
    """Count ``compose`` calls, wherever the library calls it, and
    ``ModuleMorphism`` constructions."""
    calls = {"compose": 0, "morphism": 0}
    init = ModuleMorphism.__init__

    def counted_compose(psi, phi):
        calls["compose"] += 1
        return compose(psi, phi)

    def counted_init(self, *args, **kwargs):
        calls["morphism"] += 1
        init(self, *args, **kwargs)

    for layer in ("modules", "systems", "direct", "inverse"):
        monkeypatch.setattr(f"l0limits.{layer}.compose", counted_compose)
    monkeypatch.setattr(ModuleMorphism, "__init__", counted_init)
    return calls


def _warm(system):
    """Build and cache every connecting map of the system."""
    for i, j in system.related_pairs():
        system.map(i, j)


def test_law_checks_build_no_morphisms(monkeypatch):
    """Squares, target laws, compatibilities and triangles over 10-stage
    chains are compared atom by atom from the factors: once the connecting
    maps exist, no composite is built (only the mediating morphism)."""
    rng = np.random.default_rng(10)
    theta = randgen.random_chain_morphism_pair(rng, stages=10)
    chain = randgen.random_chain_direct_system(rng, stages=10)
    d_pres = direct_limit(chain)
    backward = _inverse_chain(rng, stages=10)
    i_pres = inverse_limit(backward)
    for system in (theta.source, theta.target, chain, backward):
        _warm(system)
    calls = _count_law_check_objects(monkeypatch)
    assert validate_system_morphism(theta).passed
    assert calls == {"compose": 0, "morphism": 0}
    dl_universal_factorization(chain, Target(d_pres.module, dict(d_pres.canonical)), d_pres)
    assert calls == {"compose": 0, "morphism": 1}
    il_universal_factorization(backward, Source(i_pres.module, dict(i_pres.canonical)), i_pres)
    assert calls == {"compose": 0, "morphism": 2}


def _nan_map(source, target):
    """A map with a NaN entry that skips the input checks, as an
    overflowing product of finite maps would."""
    mats = [np.full((t, s), np.nan) for s, t in zip(source.dims(), target.dims())]
    return ModuleMorphism(source, target, mats, _fresh=True)


def _never_passes(check):
    try:
        report = check()
    except L0LimitsError:
        return
    assert not report.passed


def test_nan_maps_never_pass_validation():
    space = AtomicMeasureSpace(["a"], [1.0])
    module = FiberModule(space, (Fiber(2, WeightedP(1, (1.0, 1.0))),))
    with pytest.raises(NonFiniteError):
        ModuleMorphism(module, module, [[[np.nan, 0.0], [0.0, 0.5]]])
    chain = Chain(2, IdentityTail())
    for cls, validate in ((DirectSystem, validate_direct_system),
                          (InverseSystem, validate_inverse_system)):
        system = cls(chain, {0: module, 1: module}, {(0, 1): _nan_map(module, module)})
        _never_passes(lambda: validate(system))


def test_nan_square_is_reported():
    theta = randgen.random_chain_morphism_pair(np.random.default_rng(4), stages=3)
    source = theta.source
    maps = dict(source.maps)
    key = next(iter(maps))
    maps[key] = _nan_map(maps[key].source, maps[key].target)
    broken = SystemMorphism(type(source)(source.index, source.modules, maps), theta.target,
                            theta.components)
    report = validate_system_morphism(broken)
    assert not report.passed
    squares = [v for v in report.violations if v.kind == "square"]
    assert key in [v.indices for v in squares]
    assert all(np.isnan(v.deviation) for v in squares)


def test_hom_systems_raise_a_located_bracket_error():
    """The Hom systems of seeded 3-stage chains take the bracket kernel,
    which cannot certify them: validation names the atom and never passes."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        system = randgen.random_chain_direct_system(rng, stages=3, max_dim=2)
        fixed = randgen.random_module(rng, system.space, max_dim=2)
        hom_system = hom_inverse_system(system, fixed).hom_system
        with pytest.raises(BracketTooWideError) as raised:
            validate_inverse_system(hom_system)
        assert raised.value.atom in system.space.atom_ids
        assert f"at atom {raised.value.atom!r}" in str(raised.value)


#: Maps of the plane into its operator-norm Hom module on the bracket
#: kernel: ``u -> e1 u^T`` it certifies (norm 1), ``u -> [[u1, u2], [-u2, u1]]``
#: it cannot (bracket [1, sqrt 2]).
EMBED = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
TWIST = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]])


def _plane_and_hom():
    plane = euclidean_module(AtomicMeasureSpace(["a"], [1.0]), 2)
    return plane, hom_module(plane, plane)


def test_validation_raises_the_kernel_error_a_pairwise_loop_meets_first():
    """The composite at (0, 2) is uncertifiable, and so is the later edge
    (1, 2), with another bracket.  Edges are normed in a batch ahead of
    the composite, yet the composite's error is the one raised."""
    plane, hom = _plane_and_hom()
    twist = np.zeros((4, 4))
    twist[:, :2] = TWIST
    up = ModuleMorphism(plane, hom, [EMBED])
    edge = ModuleMorphism(hom, hom, [twist])
    with pytest.raises(BracketTooWideError) as composite:
        operator_pointwise_norm(compose(edge, up))
    with pytest.raises(BracketTooWideError) as later:
        operator_pointwise_norm(edge)
    assert str(later.value) != str(composite.value)
    system = DirectSystem(
        Chain(3, IdentityTail()), {0: plane, 1: hom, 2: hom}, {(0, 1): up, (1, 2): edge}
    )
    with pytest.raises(BracketTooWideError) as raised:
        validate_direct_system(system)
    assert str(raised.value) == str(composite.value)


@pytest.mark.parametrize("cone,error,text", [
    ({0: 2.0 * EMBED, 1: TWIST}, ValidationError, "map at 0 is not admissible"),
    ({0: 2.0 * EMBED}, ValidationError, "map at 0 is not admissible"),
    ({0: TWIST}, BracketTooWideError, "at atom 'a'"),
    ({0: EMBED, 1: TWIST}, BracketTooWideError, "at atom 'a'"),
    ({0: EMBED}, KeyError, "missing the map at index 1"),
], ids=["verdict-before-error", "verdict-before-missing", "error-before-missing",
        "error", "missing"])
def test_cone_maps_fail_in_index_order(cone, error, text):
    """Cone maps are normed in one batch, but a verdict, a kernel error and
    a missing map surface in index order, as a loop over the maps meets them."""
    plane, hom = _plane_and_hom()
    system = DirectSystem(Chain(2, IdentityTail()), {0: plane, 1: plane},
                          {(0, 1): identity_morphism(plane)})
    maps = {i: ModuleMorphism(plane, hom, [m]) for i, m in cone.items()}
    with pytest.raises(error, match=text):
        dl_universal_factorization(system, Target(hom, maps))


def test_chain_morphism_norms_each_component_once(monkeypatch):
    """Admissibility and the tail square share one batch: n components, n norms."""
    rng = np.random.default_rng(5)
    theta = randgen.random_chain_morphism_pair(rng, stages=6)
    normed = []
    batch = systems.operator_pointwise_norms
    monkeypatch.setattr(systems, "operator_pointwise_norms",
                        lambda phis: normed.extend(phis) or batch(phis))
    report = validate_system_morphism(theta)
    assert report.passed
    assert len(normed) == 6
    assert {id(phi) for phi in normed} == {id(c) for c in theta.components.values()}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6))
def test_tail_limit_factor_is_a_zero_one_indicator(values):
    """Direct and inverse chain limits keep the atoms where the tail
    factor is positive; one rule serves both only because the factor is
    0 or 1 for every tail kind.  A scalar tail snaps values within the
    tolerance of 1 to 1, so such a value counts as 1."""
    space = AtomicMeasureSpace([f"a{k}" for k in range(len(values))], np.ones(len(values)))
    scalar = ScalarTail(L0Function(space, values))
    for tail in (IdentityTail(), HarmonicTail(), scalar):
        factor = tail_limit_factor(tail, space)
        assert factor.shape == (space.atom_count,)
        assert set(factor.tolist()) <= {0.0, 1.0}
    assert tail_limit_factor(scalar, space).tolist() == [
        float(abs(v - 1.0) <= tolerance()) for v in values
    ]
