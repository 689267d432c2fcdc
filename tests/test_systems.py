"""The shared system core against the plain reference validation.

The core skips the admissibility evaluations that submultiplicativity
settles and the cocycle evaluations that associativity settles; its
reports and connecting maps must still equal those of the reference,
which evaluates every law on every pair and triple.
"""

import itertools
import json
import math
import pathlib
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l0limits import randgen, systems
from l0limits.config import tolerance, tolerance_override
from l0limits.direct import (
    ColimitClass,
    DirectSystem,
    SystemMorphism,
    Target,
    direct_limit,
    dl_functor,
    dl_seminorm,
    dl_universal_factorization,
    solve_square_component,
    validate_direct_system,
    validate_system_morphism,
)
from l0limits.errors import (
    BracketTooWideError,
    L0LimitsError,
    NonFiniteError,
    ShapeMismatchError,
    ValidationError,
)
from l0limits.indexsets import (
    Chain,
    FinitePoset,
    HarmonicTail,
    IdentityTail,
    ScalarTail,
    greatest_element,
    tail_growth_sup,
    tail_limit_factor,
)
from l0limits.homdual import hom_module
from l0limits.inverse import (
    InverseSystem,
    Source,
    hom_inverse_system,
    il_universal_factorization,
    inverse_limit,
    thread_from_components,
    validate_inverse_system,
)
from l0limits.measure import AtomMap, AtomicMeasureSpace, L0Function
from l0limits.modules import (
    Fiber,
    FiberModule,
    ModuleMorphism,
    apply,
    compose,
    euclidean_fiber,
    euclidean_module,
    identity_morphism,
    is_morphism,
    operator_pointwise_norm,
    pointwise_norm,
    scalar_module,
    scale_morphism,
    zero_morphism,
)
from l0limits.norms import WeightedP

from oracles import (
    ReferenceDirectSystem,
    ReferenceInverseSystem,
    reference_direct_limit,
    reference_dl_universal_factorization,
    reference_greatest_element,
    reference_inverse_limit,
    reference_poset_relation,
    reference_redundant_targets,
    reference_validate_direct_system,
    reference_validate_inverse_system,
    reference_validate_system_morphism,
)

#: A chain document whose scalar tail is 0.999999 at atom ``a``.
NEAR_ONE = pathlib.Path(__file__).parent / "data" / "scalar-tail-near-one.json"

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


#: Factors applied to every supplied edge: contractions, edges as drawn,
#: edges one ulp over 1.0, edges over 1.0 but within the tolerance, and
#: edges over it.
EDGE_SCALES = (0.5, 1.0, "1+eps", "1+tol/2", "1+10tol")


@pytest.mark.parametrize("tol", [1e-9, 1e-13], ids=["tol1e-9", "tol1e-13"])
@pytest.mark.parametrize("kind", sorted(RANDOM_SYSTEMS))
def test_validation_that_skips_the_pair_walk_matches_the_reference(kind, tol):
    """Every edge scaled alike, then one edge dropped: the whole report is
    the reference's, which norms every map, whether validation walks the
    pairs or the edges alone decide.  At 1e-13, below ``PRODUCT_SLACK``,
    the pairs are always walked."""
    validate, reference = (
        (validate_direct_system, reference_validate_direct_system) if kind.startswith("direct")
        else (validate_inverse_system, reference_validate_inverse_system)
    )
    found = set()
    for seed in range(10):
        rng = np.random.default_rng([seed, len(kind), 21])
        system = RANDOM_SYSTEMS[kind](rng)
        # Each edge scaled to its largest norm 1, then by the factor.
        units = {p: 1.0 / max(max(operator_pointwise_norm(phi).values), 1e-300)
                 for p, phi in system.maps.items() if p[0] != p[1]}
        edges = list(units)
        for scale in EDGE_SCALES:
            factor = {"1+eps": 1.0 + 2.0**-52, "1+tol/2": 1.0 + tol / 2,
                      "1+10tol": 1.0 + 10 * tol}.get(scale, scale)
            maps = {p: scale_morphism(phi, units[p] * factor) if p in units else phi
                    for p, phi in system.maps.items()}
            variants = [maps]
            if edges:
                dropped = dict(maps)
                del dropped[edges[int(rng.integers(len(edges)))]]
                variants.append(dropped)
            for variant in variants:
                scaled = type(system)(system.index, system.modules, variant)
                with tolerance_override(tol):
                    got = _outcome(validate, scaled)
                    assert got == _outcome(reference, scaled)
                found.update(v[0] for v in got[1])
    assert {"admissibility", "missing-map"} <= found


@pytest.mark.parametrize("cls", [DirectSystem, InverseSystem])
def test_a_contraction_chain_validates_without_walking_its_pairs(monkeypatch, cls):
    """Edges normed at most 1.0, or one ulp over it as rounding may leave
    them, settle every composite: no pair is connected, with every stage
    joined or with a missing edge."""
    reaches = []
    reach = systems.System._reach
    monkeypatch.setattr(systems.System, "_reach",
                        lambda self, i, j: reaches.append((i, j)) or reach(self, i, j))
    space = AtomicMeasureSpace(["a0", "a1"], [1.0, 2.0])
    plane = euclidean_module(space, 2)
    validate, reference = (
        (validate_direct_system, reference_validate_direct_system) if cls is DirectSystem
        else (validate_inverse_system, reference_validate_inverse_system)
    )
    for over in (False, True):
        rng = np.random.default_rng(21)
        maps = {}
        for k in range(9):
            phi = scale_morphism(randgen.random_admissible_morphism(rng, plane, plane), 0.5)
            if over:
                phi = ModuleMorphism(plane, plane, [phi.matrices[0], (1.0 + 2.0**-52) * np.eye(2)])
                assert max(operator_pointwise_norm(phi).values) == 1.0 + 2.0**-52
            maps[(k, k + 1)] = phi
        chain = cls(Chain(10, IdentityTail()), {k: plane for k in range(10)}, maps)
        assert validate(chain).passed
        del maps[(4, 5)]
        broken = cls(Chain(10, IdentityTail()), {k: plane for k in range(10)}, maps)
        report = validate(broken)
        assert {v.kind for v in report.violations} == {"missing-map"}
        assert len(report.violations) == 5 * 5
        assert report == reference(broken)
        assert reaches == []


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


@pytest.mark.parametrize("validate", [validate_direct_system, validate_inverse_system])
def test_validation_takes_each_route_from_the_batch(monkeypatch, validate):
    """A 10-stage chain with fresh fibers at every stage: ``kernel_path``
    runs once per spec pair of each operator-norm batch, and validation
    reads each edge's exactness from the batch, routing no atom again."""
    from l0limits import modules, norms

    routes, pairs = [], []
    path, batch = norms.kernel_path, norms.operator_norm_batch

    def counted_path(source, target):
        routes.append((source, target))
        return path(source, target)

    def counted_batch(items):
        pairs.append(len({(id(s), id(t)) for _, s, t in items}))
        return batch(items)

    monkeypatch.setattr(norms, "kernel_path", counted_path)
    monkeypatch.setattr(systems, "kernel_path", counted_path, raising=False)
    monkeypatch.setattr(modules, "operator_norm_batch", counted_batch)
    rng = np.random.default_rng(10)
    space = randgen.random_space(rng)
    stages = {k: randgen.random_module(rng, space, max_dim=3) for k in range(10)}
    if validate is validate_direct_system:
        maps = {(k, k + 1): randgen.random_admissible_morphism(rng, stages[k], stages[k + 1])
                for k in range(9)}
        system = DirectSystem(Chain(10, IdentityTail()), stages, maps)
    else:
        maps = {(k, k + 1): randgen.random_admissible_morphism(rng, stages[k + 1], stages[k])
                for k in range(9)}
        system = InverseSystem(Chain(10, IdentityTail()), stages, maps)
    assert validate(system).passed
    assert pairs and len(routes) == sum(pairs)


_EDGE_NORM = st.builds(
    lambda mantissa, exponent: mantissa * 10.0 ** exponent,
    st.floats(1.0, 10.0), st.integers(-150, 149),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda atoms: st.lists(st.lists(_EDGE_NORM, min_size=atoms, max_size=atoms),
                           min_size=1, max_size=6)
))
@example([[1e-150, 1.0], [1e-150, 1.0], [1e-10, 1.0]])  # a product rounds to a subnormal
@example([[1e150, 1e-150], [1e150, 1e-150], [1e10, 1.0]])  # the bound rounds to inf
def test_product_of_edge_maxima_bounds_every_atoms_product(edges):
    """validate_system certifies every composite from one float, the
    product over all edges of each edge's largest norm taken at least 1.
    IEEE multiplication rounds monotonically, so the product of a path's
    maxima is never below the product any atom takes along it, subnormal
    and overflowing ones included, and the product over all edges, each
    at least 1, never below that: no composite an atom's product would
    not settle is skipped."""
    path, whole = 1.0, 1.0
    atoms = [1.0] * len(edges[0])
    for norms in edges:
        path *= max(norms)
        whole *= max(1.0, *norms)
        atoms = [p * n for p, n in zip(atoms, norms)]
        assert all(p <= path <= whole for p in atoms)


def test_a_composite_the_float_bound_misses_is_normed(monkeypatch):
    """Edge maxima in (1, 1 + tol] on different atoms: the product of the
    maxima exceeds 1 + tol, every atom's product stays below it.  The
    composite is normed and passes, as the reference finds."""
    calls = []
    batch = systems._operator_norm_results
    monkeypatch.setattr(systems, "_operator_norm_results",
                        lambda phis: calls.append(len(phis)) or batch(phis))
    space = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])
    line = euclidean_module(space, 1)
    high = 1.0 + 0.8 * tolerance()

    def edge(at_a, at_b):
        return ModuleMorphism(line, line, [np.array([[at_a]]), np.array([[at_b]])])

    system = DirectSystem(
        Chain(3, IdentityTail()), {k: line for k in range(3)},
        {(0, 1): edge(high, 0.5), (1, 2): edge(0.5, high)},
    )
    assert high * high * (1.0 + systems.PRODUCT_SLACK) > 1.0 + tolerance()
    report = validate_direct_system(system)
    assert report.passed and not report.violations
    assert report == reference_validate_direct_system(system)
    assert calls == [2, 1]


def test_validation_builds_no_function_for_a_norm_result(monkeypatch):
    """Validation, a chain morphism and a universal factorization take the
    maxima of plain float lists; no L0Function wraps a norm they compute."""
    import l0limits.modules as modules

    built = []

    class Counted(L0Function):
        def __init__(self, space, values):
            built.append(values)
            super().__init__(space, values)

    rng = np.random.default_rng(19)
    space = AtomicMeasureSpace(["a0", "a1"], [1.0, 2.0])
    plane = euclidean_module(space, 2)
    maps = {(k, k + 1): randgen.random_admissible_morphism(rng, plane, plane) for k in range(9)}
    chain = DirectSystem(Chain(10, IdentityTail()), {k: plane for k in range(10)}, maps)
    theta = SystemMorphism(chain, chain, {k: identity_morphism(plane) for k in range(10)})
    monkeypatch.setattr(modules, "L0Function", Counted)
    assert validate_direct_system(chain).passed
    assert validate_system_morphism(theta).passed
    pres = direct_limit(chain)
    dl_universal_factorization(chain, Target(pres.module, dict(pres.canonical)))
    assert built == []


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
            assert str(raised.value) == str(exc)
            outcomes.add("undirected" if "directed" in str(exc) else "cyclic")
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

    for layer in ("modules", "systems", "direct"):
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
    dl_universal_factorization(chain, Target(d_pres.module, dict(d_pres.canonical)))
    assert calls == {"compose": 0, "morphism": 1}
    il_universal_factorization(backward, Source(i_pres.module, dict(i_pres.canonical)))
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


def _flooded(phi):
    """``phi`` with every entry 1e300: its products with most maps overflow."""
    return ModuleMorphism(phi.source, phi.target, [np.full(m.shape, 1e300) for m in phi.matrices])


def _flooded_system(system):
    """``system`` with every supplied map flooded by :func:`_flooded`."""
    return type(system)(system.index, system.modules,
                        {p: _flooded(phi) for p, phi in system.maps.items()})


def test_an_overflowing_edge_error_surfaces_at_the_composite_a_pairwise_loop_meets_first():
    """Edge (1, 2) of a 4-stage chain overflows its norm, and so does the
    composite (0, 2) at an earlier atom: the pair loop meets (0, 2) first,
    so its error is the one raised."""
    system = randgen.random_chain_direct_system(np.random.default_rng(4), stages=4)
    system = DirectSystem(system.index, system.modules,
                          {**system.maps, (1, 2): _flooded(system.maps[(1, 2)])})
    with pytest.raises(NonFiniteError) as raised:
        validate_direct_system(system)
    assert str(raised.value) == "function value at atom 'a0' is not finite"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as reference:
        reference_validate_direct_system(system)
    assert str(raised.value) == str(reference.value)


def test_an_overflowing_cocycle_is_a_violation_not_a_warning():
    """a < b < c with every map supplied: a -> b and b -> c read 1e200, so
    their composite overflows, and the cocycle law reads an infinite
    deviation where tier-1 turns the overflow warning into an error."""
    line = euclidean_module(AtomicMeasureSpace(["x"], [1.0]), 1)

    def scalar(c):
        return ModuleMorphism(line, line, [np.array([[c]])])

    system = DirectSystem(
        FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c")]), {e: line for e in "abc"},
        {("a", "b"): scalar(1e200), ("b", "c"): scalar(1e200), ("a", "c"): scalar(0.5)},
    )
    report = validate_direct_system(system)
    assert [(v.kind, v.indices, v.deviation) for v in report.violations] == [
        ("admissibility", ("a", "b"), 1e200),
        ("admissibility", ("b", "c"), 1e200),
        ("cocycle", ("a", "b", "c"), math.inf),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        assert report == reference_validate_direct_system(system)


def test_overflowing_squares_are_violations_not_warnings():
    """A 3-stage chain morphism whose source edges read 1e300 everywhere:
    every square's products overflow, and each is reported as the
    reference reports it, (0, 2) with a NaN deviation."""
    theta = randgen.random_chain_morphism_pair(np.random.default_rng(4), stages=3)
    bad = SystemMorphism(_flooded_system(theta.source), theta.target, theta.components)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_validate_system_morphism(bad)
    # NaN deviations compare by their repr.
    got, want = ([(v.kind, v.indices, repr(v.deviation)) for v in r.violations]
                 for r in (validate_system_morphism(bad), want))
    assert got == want
    assert [v[:2] for v in got] == [("square", (0, 1)), ("square", (0, 2)), ("square", (1, 2))]


def test_an_overflowing_limit_functor_is_a_verdict_not_a_warning():
    """The flooded chain morphism of
    :func:`test_overflowing_squares_are_violations_not_warnings`, not
    validated: its limit squares overflow, and the one at stage 0 reads a
    NaN deviation."""
    theta = randgen.random_chain_morphism_pair(np.random.default_rng(4), stages=3)
    bad = SystemMorphism(_flooded_system(theta.source), theta.target, theta.components)
    with pytest.raises(ValidationError) as raised:
        dl_functor(bad, validate=False)
    assert str(raised.value) == "limit square at 0 deviates by nan; morphism invalid"


def test_an_overflowing_limit_is_built_without_a_warning():
    """The flooded source's closures overflow: its limit is still presented,
    with canonical maps that are not finite."""
    theta = randgen.random_chain_morphism_pair(np.random.default_rng(4), stages=3)
    presentation = direct_limit(_flooded_system(theta.source))
    assert not all(np.isfinite(m).all() for m in presentation.canonical[0].matrices)


def test_an_overflowing_cone_law_is_a_verdict_not_a_warning():
    """A flooded chain factored onto the unflooded chain's limit cone: the
    cone law overflows, and the worst pair is the one the reference finds."""
    system = randgen.random_chain_direct_system(np.random.default_rng(4), stages=3)
    presentation = direct_limit(system)
    flooded = _flooded_system(system)
    want = "target-law violation: target law at (1, 2) deviates by 1e+300"
    with pytest.raises(ValidationError) as raised:
        dl_universal_factorization(flooded, Target(presentation.module, dict(presentation.canonical)))
    assert str(raised.value) == want
    with warnings.catch_warnings(), pytest.raises(ValidationError) as reference:
        warnings.simplefilter("ignore", RuntimeWarning)
        reference_dl_universal_factorization(
            flooded, Target(presentation.module, dict(presentation.canonical)))
    assert str(reference.value) == want


@pytest.mark.parametrize("fixed", ["unflooded", "flooded-top"])
def test_a_non_finite_square_solve_is_a_located_error_not_a_warning(fixed):
    """The flooded source of the chain morphism pair: its closures
    overflow, so the least-squares data at the first atom is not finite,
    with the target's components fixed as they are or with the top one
    flooded too."""
    theta = randgen.random_chain_morphism_pair(np.random.default_rng(4), stages=3)
    components = dict(theta.components)
    if fixed == "flooded-top":
        components = {2: _flooded(components[2])}
    with pytest.raises(NonFiniteError) as raised:
        solve_square_component(_flooded_system(theta.source), theta.target, components, 0)
    assert str(raised.value) == "at atom 'a0': least-squares data is not finite"
    assert raised.value.atom == "a0"


def test_every_admissibility_check_reads_the_excess_over_one():
    """A norm of ``fl(1 + 1e-9)`` exceeds 1 by more than the tolerance
    1e-9, though it equals ``1.0 + 1e-9`` in floats: a morphism test, a
    system's validation and a cone's factorization all reject it."""
    space = AtomicMeasureSpace(["pt"], [1.0])
    line = scalar_module(space)
    phi = ModuleMorphism(line, line, [np.array([[1.0 + 1e-9]])])
    with tolerance_override(1e-9):
        assert not is_morphism(phi)
        system = DirectSystem(Chain(2, IdentityTail()), {0: line, 1: line}, {(0, 1): phi})
        report = validate_direct_system(system)
        assert [(v.kind, v.indices) for v in report.violations] == [("admissibility", (0, 1))]
        assert report.violations[0].deviation == 1.000000082740371e-09
        system = DirectSystem(Chain(2, IdentityTail()), {0: line, 1: line},
                              {(0, 1): identity_morphism(line)})
        with pytest.raises(ValidationError, match="target map at 0 is not admissible"):
            dl_universal_factorization(system, Target(line, {0: phi, 1: phi}))


def test_index_sets_pull_back_along_an_atom_map():
    """A scalar tail is reindexed along the map; the other tails and a
    poset stay as they are."""
    base = AtomicMeasureSpace(["y0", "y1"], [1.0, 1.0])
    cover = AtomicMeasureSpace(["x0", "x1", "x2"], [1.0, 2.0, 3.0])
    atom_map = AtomMap(cover, base, {"x0": "y1", "x1": "y0", "x2": "y1"})
    scalar = Chain(3, ScalarTail(L0Function(base, [1.0, 0.25])))
    assert scalar.pulled(atom_map) == Chain(3, ScalarTail(L0Function(cover, [0.25, 1.0, 0.25])))
    for tail in (IdentityTail(), HarmonicTail()):
        assert Chain(3, tail).pulled(atom_map) == Chain(3, tail)
    poset = FinitePoset(["p", "q"], [("p", "q")])
    assert poset.pulled(atom_map) is poset


def test_a_hom_system_is_connected_where_the_system_supplies_a_map():
    """Over a poset the supplied maps need not cover every related pair;
    the Hom system has a map exactly at each supplied pair."""
    poset = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    space = AtomicMeasureSpace(["pt"], [1.0])
    plane = euclidean_module(space, 2)
    system = DirectSystem(poset, {k: plane for k in poset.elements},
                          {("a", "b"): identity_morphism(plane), ("b", "c"): identity_morphism(plane)})
    hom_system = hom_inverse_system(system, plane).hom_system
    assert list(hom_system.maps) == [("a", "b"), ("b", "c")]


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
    batch = systems._operator_norm_results
    monkeypatch.setattr(systems, "_operator_norm_results",
                        lambda phis: normed.extend(phis) or batch(phis))
    report = validate_system_morphism(theta)
    assert report.passed
    assert len(normed) == 6
    assert {id(phi) for phi in normed} == {id(c) for c in theta.components.values()}


def test_a_system_builds_its_limit_once(monkeypatch):
    """Limits, universal factorizations, seminorms, threads and limit
    functors share one limit per system."""
    builds = []
    build = systems._build_limit
    monkeypatch.setattr(systems, "_build_limit", lambda system: builds.append(system) or build(system))
    rng = np.random.default_rng(4)
    chain = randgen.random_chain_direct_system(rng, stages=5)
    backward = _inverse_chain(rng)
    theta = randgen.random_chain_morphism_pair(rng, stages=4)
    for _ in range(2):
        pres = direct_limit(chain)
        dl_universal_factorization(chain, Target(pres.module, dict(pres.canonical)))
        for i, module in chain.modules.items():
            dl_seminorm(chain, ColimitClass(i, randgen.random_element(rng, module)))
        pres = inverse_limit(backward)
        il_universal_factorization(backward, Source(pres.module, dict(pres.canonical)))
        thread = randgen.random_element(rng, pres.module)
        components = {i: apply(pres.canonical[i], thread) for i in backward.modules}
        thread_from_components(backward, components)
        dl_functor(theta)
    assert sorted(map(id, builds)) == sorted(map(id, (chain, backward, theta.source, theta.target)))


@pytest.mark.parametrize("forward", [True, False])
def test_limits_walk_their_stages_in_index_order(forward):
    """A limit composes each canonical map from the top down along that
    stage's own tree path, the stages taken in index order: the first stage
    no path joins to the top raises its ``KeyError``, and a poset that
    lists its elements top first builds the limit the reference builds,
    with no closure cached."""
    cls, limit, reference = (
        (DirectSystem, direct_limit, reference_direct_limit) if forward
        else (InverseSystem, inverse_limit, reference_inverse_limit)
    )
    rng = np.random.default_rng(3)
    space = randgen.random_space(rng)

    def system(index, pairs):
        explicit = index.explicit_indices()
        modules = {k: randgen.random_module(rng, space, max_dim=3) for k in explicit}
        maps = {}
        for i, j in pairs:
            ends = (modules[i], modules[j]) if forward else (modules[j], modules[i])
            maps[(i, j)] = randgen.random_admissible_morphism(rng, *ends)
        return cls(index, modules, maps)

    # Stages 0 and 2 are joined to nothing above them; 0 comes first.
    with pytest.raises(KeyError) as raised:
        limit(system(Chain(5, IdentityTail()), [(1, 2), (3, 4)]))
    text = "0 to 4" if forward else "4 down to 0"
    assert raised.value.args == (f"no provided maps connect {text}",)
    pairs = [("a", "b"), ("b", "c"), ("c", "d")]
    poset = system(FinitePoset(["d", "c", "b", "a"], pairs), pairs)
    got, want = limit(poset), reference(poset)
    assert list(got.canonical) == ["d", "c", "b", "a"]
    for i, phi in want.canonical.items():
        assert all(np.array_equal(a, b) for a, b in zip(got.canonical[i].matrices, phi.matrices))
    assert len(poset._closure) == len(poset.maps)


@pytest.mark.parametrize("stages", [10, 20, 40, 80])
def test_chain_laws_grow_linearly_in_the_stages(monkeypatch, stages):
    """On chains of n stages a limit composes its canonical maps from the
    top down, one product per atom and edge, n - 1 in all, and caches no
    closure; built bottom up they took (n-1)(n-2)/2 + n products per atom.
    On valid chains, validation, the limits, the universal factorizations
    onto them and ``dl_functor(validate=True)`` evaluate at most 6n law
    pairs and build at most 4n closures (none where the edges settle every
    other pair of the cone laws and squares).  Evaluating every pair took
    3240 law pairs at 80 stages."""
    from l0limits import modules

    evaluated, products = [], []
    reduce = systems.composite_deviations
    monkeypatch.setattr(systems, "composite_deviations",
                        lambda laws: evaluated.append(len(laws)) or reduce(laws))
    for module in (systems, modules):
        monkeypatch.setattr(module, "_mm",
                            lambda a, b, mm=module._mm: products.append(1) or mm(a, b))
    rng = np.random.default_rng(stages)
    chain = randgen.random_chain_direct_system(rng, stages=stages, max_dim=3)
    backward = _inverse_chain(rng, stages=stages)
    theta = randgen.random_chain_morphism_pair(rng, stages=stages)
    for system, limit in ((chain, direct_limit), (backward, inverse_limit)):
        products.clear()
        limit(system)
        assert len(products) == (stages - 1) * system.space.atom_count
        assert len(system._closure) == len(system.maps)
    assert validate_direct_system(chain).passed
    assert validate_inverse_system(backward).passed
    pres = direct_limit(chain)
    dl_universal_factorization(chain, Target(pres.module, dict(pres.canonical)))
    pres = inverse_limit(backward)
    il_universal_factorization(backward, Source(pres.module, dict(pres.canonical)))
    dl_functor(theta, validate=True)
    closures = sum(len(s._closure) - len(s.maps) for s in (chain, backward, theta.source, theta.target))
    assert sum(evaluated) <= 6 * stages
    assert closures <= 4 * stages


def _pushed_seminorm(system, stage, element):
    """A chain's colimit seminorm written out by hand: the representative
    pushed forward through the cached closure to the last stage, then
    scaled by the tail factor."""
    if stage not in system.modules:
        raise KeyError(f"stage {stage!r} is not explicit in the system")
    if element.module != system.modules[stage]:
        raise ShapeMismatchError("class representative lives in the wrong module")
    pushed = apply(system.map(stage, system.index.last), element)
    factor = tail_limit_factor(system.index.tail, system.space)
    return L0Function(system.space, factor * pointwise_norm(pushed).values)


def test_colimit_seminorms_cost_about_their_hand_written_version():
    """On warm 10-stage chains a seminorm reads the kept limit: it takes at
    most 1.5 times as long as the version that pushes the representative
    forward through a cached closure and scales it by the tail factor."""
    rng = np.random.default_rng(9)
    classes = []
    for _ in range(40):
        chain = randgen.random_chain_direct_system(rng, stages=10)
        stage = int(rng.integers(0, 10))
        classes.append((chain, stage, randgen.random_element(rng, chain.modules[stage])))

    def library():
        for chain, stage, v in classes:
            dl_seminorm(chain, ColimitClass(stage, v))

    def reference():
        for chain, stage, v in classes:
            _pushed_seminorm(chain, stage, v)

    best = {library: np.inf, reference: np.inf}
    for _ in range(7):
        for run in best:
            start = time.perf_counter()
            run()
            best[run] = min(best[run], time.perf_counter() - start)
    assert best[library] <= 1.5 * best[reference]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6))
@example([0.9999999999999999, 1.0, 0.0])
def test_tail_limit_factor_is_a_zero_one_indicator(values):
    """Direct and inverse chain limits keep the atoms where the tail
    factor is positive; one rule serves both only because the factor is
    0 or 1 for every tail kind.  A scalar tail's factor is 1 exactly where
    its value is 1.0: ``f**k -> 0`` for the largest float below 1 too."""
    space = AtomicMeasureSpace([f"a{k}" for k in range(len(values))], np.ones(len(values)))
    scalar = ScalarTail(L0Function(space, values))
    for tail in (IdentityTail(), HarmonicTail(), scalar):
        factor = tail_limit_factor(tail, space)
        assert factor.shape == (space.atom_count,)
        assert set(factor.tolist()) <= {0.0, 1.0}
    assert tail_limit_factor(scalar, space).tolist() == [float(v == 1.0) for v in values]


# A scalar tail value: 0, 1, one of the floats 1 - 2**-k just below 1 (the
# last, k = 53, is the largest float below 1), or any value in between.
_EXACT_TAIL_VALUE = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_EXACT_TAIL_VALUE, st.integers(0, 3)), min_size=1, max_size=5),
    st.sampled_from((DirectSystem, InverseSystem)),
)
@example([(1.0 - 2.0**-53, 2), (1.0 - 2.0**-30, 2), (1.0, 3)], DirectSystem)
def test_a_chain_limit_keeps_exactly_the_atoms_whose_tail_is_one(atoms, cls):
    """The limit fiber at an atom is the stage's fiber where the scalar
    tail is 1.0 and zero elsewhere: a value one ulp below 1 still
    contracts to zero."""
    space = AtomicMeasureSpace([f"a{k}" for k in range(len(atoms))], np.ones(len(atoms)))
    stage = FiberModule(space, tuple(euclidean_fiber(dim) for _, dim in atoms))
    tail = ScalarTail(L0Function(space, [value for value, _ in atoms]))
    system = cls(Chain(2, tail), {0: stage, 1: stage}, {(0, 1): identity_morphism(stage)})
    limit = direct_limit if cls is DirectSystem else inverse_limit
    assert limit(system).module.dims() == tuple(dim if value == 1.0 else 0 for value, dim in atoms)


@pytest.mark.parametrize("bad", [1.0 + 2.0**-52, -1e-300], ids=["above-one", "below-zero"])
def test_a_tail_value_outside_the_unit_interval_is_a_located_document_error(
    tmp_path, capsys, bad
):
    """A tail value above 1 would not contract, and none below 0 is a
    scale factor: either is an error (exit 2) at the chain's index set,
    however close it lies to [0, 1]."""
    from l0limits.harness.cli import main

    data = json.loads(NEAR_ONE.read_text())
    data["functions"]["tail_idx_near"]["values"][0] = bad
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(data))
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: $.index_sets.idx_near: scalar tail values must lie in [0, 1]\n"
    assert captured.out == ""


def test_chain_related_pairs_are_kept_from_construction():
    """A chain builds its pairs once, in nested-range order."""
    chain = Chain(6, IdentityTail())
    assert chain.related_pairs() is chain.related_pairs()
    assert chain.related_pairs() == tuple((i, j) for i in range(6) for j in range(i + 1, 6))
    assert Chain(1, IdentityTail()).related_pairs() == ()


#: Steps past the last stage over which the brute-force tail ratio runs.
_TAIL_STEPS = 300

_TAIL_KINDS = ("identity", "scalar", "harmonic")

# A scalar tail value: 0, 1, or a hundredth in between, so that a bounded
# ratio peaks within the steps run and an unbounded one still grows at the
# last of them.
_TAIL_VALUE = st.one_of(st.just(0.0), st.just(1.0), st.integers(1, 99).map(lambda k: k / 100))


def _tail_ratios(num, den, base):
    """The ratio of two composite tail factors over steps 0.._TAIL_STEPS,
    as the running product of their step factors' ratios.  A step factor
    is a scalar value, or None for the harmonic step (base+j-1)/(base+j).
    Where the numerator's step factor is 0 the ratio drops to 0, also over
    a zero denominator: nothing past that step constrains a component."""
    ratios = [1.0]
    for j in range(1, _TAIL_STEPS + 1):
        harmonic = (base + j - 1) / (base + j)
        top = harmonic if num is None else num
        bottom = harmonic if den is None else den
        ratios.append(ratios[-1] * (0.0 if top == 0.0 else top / bottom if bottom else math.inf))
    return ratios


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_TAIL_VALUE, _TAIL_VALUE), min_size=1, max_size=6), st.integers(0, 5))
def test_tail_growth_sup_is_the_brute_force_supremum(values, last_stage):
    """Over every pair of tail kinds, the supremum equals the largest ratio
    of the composite factors where that ratio stays bounded, and is inf
    where it still grows at the last step."""
    space = AtomicMeasureSpace([f"a{k}" for k in range(len(values))], np.ones(len(values)))

    def tail(kind, side):
        if kind == "scalar":
            return ScalarTail(L0Function(space, [pair[side] for pair in values]))
        return IdentityTail() if kind == "identity" else HarmonicTail()

    def step(kind, value):
        return {"identity": 1.0, "scalar": value, "harmonic": None}[kind]

    for num_kind, den_kind in itertools.product(_TAIL_KINDS, repeat=2):
        got = tail_growth_sup(tail(num_kind, 0), tail(den_kind, 1), last_stage, space)
        for value, (f_num, f_den) in zip(got.tolist(), values):
            ratios = _tail_ratios(step(num_kind, f_num), step(den_kind, f_den), last_stage + 1)
            case = (num_kind, den_kind, f_num, f_den, last_stage)
            if ratios[-1] == math.inf or ratios[-1] > ratios[-2]:
                assert value == math.inf, case
            else:
                assert value == pytest.approx(max(ratios), rel=1e-12), case


def test_poset_closure_index_data_match_the_references():
    """Closure by repeated squaring, the sorted related pairs and the
    greatest element, on random posets of up to 20 elements given by their
    covering pairs (chains need the most squarings) and topped off."""
    rng = np.random.default_rng(17)
    for _ in range(150):
        n = int(rng.integers(1, 21))
        labels = [f"p{k}" for k in rng.permutation(n)]
        pairs = [(labels[a], labels[a + 1]) for a in range(n - 1) if rng.random() < 0.6]
        pairs += [
            (labels[a], labels[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.08
        ]
        pairs += [(labels[a], labels[-1]) for a in range(n - 1)]
        poset = FinitePoset(labels, pairs)
        relation = reference_poset_relation(labels, pairs)
        assert poset.relation == relation
        order = {e: k for k, e in enumerate(labels)}
        want = sorted((p for p in relation if p[0] != p[1]), key=lambda p: (order[p[0]], order[p[1]]))
        assert poset.related_pairs() == tuple(want)
        assert greatest_element(poset) == reference_greatest_element(poset) == labels[-1]


def _edge_systems(rng):
    """Direct systems of identities on random subsets of the related pairs
    (each consecutive chain step, or each covering pair of a poset, kept)."""
    module = euclidean_module(AtomicMeasureSpace(["a"], [1.0]), 1)
    ident = identity_morphism(module)
    for _ in range(40):
        stages = int(rng.integers(1, 9))
        chain = Chain(stages, IdentityTail())
        edges = {(k, k + 1) for k in range(stages - 1)}
        edges |= {p for p in chain.related_pairs() if rng.random() < 0.3}
        if rng.random() < 0.3:
            edges.add((0, 0))
        yield DirectSystem(chain, {k: module for k in range(stages)}, {e: ident for e in edges})
        poset = randgen.random_poset(rng, max_elements=8)
        edges = {p for p in poset.related_pairs() if rng.random() < 0.6}
        yield DirectSystem(poset, {e: module for e in poset.elements}, {e: ident for e in edges})


def _rising(n):
    """Pairs ``(a, b)`` of ranks ``0 <= a < b < n``."""
    return st.integers(0, n - 2).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, n - 1)))


@st.composite
def _relations(draw):
    """Order pairs on up to 12 elements listed in a drawn order: pairs that
    rise in a hidden ranking, some topped off by every element's pair with
    the highest (directed), some with pairs that fall back (cyclic)."""
    n = draw(st.integers(1, 12))
    labels = [f"e{k}" for k in draw(st.permutations(range(n)))]
    pairs = []
    if n > 1:
        pairs += [(labels[a], labels[b]) for a, b in draw(st.lists(_rising(n), max_size=2 * n))]
        pairs += [(labels[b], labels[a]) for a, b in draw(st.lists(_rising(n), max_size=2))]
    if draw(st.booleans()):
        pairs += [(label, labels[-1]) for label in labels[:-1]]
    return labels, pairs


@settings(max_examples=300, deadline=None)
@given(_relations())
@example((["b", "a", "c"], [("a", "c"), ("b", "c")]))
@example((["c", "b", "a"], [("a", "b"), ("b", "c"), ("c", "a")]))
@example((["a", "b", "c"], [("b", "c")]))
def test_poset_closure_matches_the_reference_on_any_relation(relation):
    """The closure, its related pairs in row-major position order, the
    greatest element and every error message equal the reference's, on
    valid, cyclic and undirected relations of up to 12 elements."""
    labels, pairs = relation
    try:
        want = reference_poset_relation(labels, pairs)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            FinitePoset(labels, pairs)
        assert str(raised.value) == str(exc)
        return
    poset = FinitePoset(labels, pairs)
    assert poset.relation == want
    order = {e: k for k, e in enumerate(labels)}
    strict = sorted((p for p in want if p[0] != p[1]), key=lambda p: (order[p[0]], order[p[1]]))
    assert poset.related_pairs() == tuple(strict)
    assert greatest_element(poset) == reference_greatest_element(poset)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10), st.data())
def test_redundant_targets_match_the_reference_on_unordered_dags(n, data):
    """The stages two paths join, read from the trees, equal the path
    counts of the topological reference on posets whose element order is
    not a topological order of the supplied edges: the top comes first,
    and the bottom supplies edges to it and to one more stage, so two
    paths can meet.  The other related pairs are each supplied or left to
    composition."""
    ranked = [f"s{k}" for k in range(n)]  # s0 lowest, s{n-1} the top
    labels = [ranked[-1]] + data.draw(st.permutations(ranked[:-1]))
    pairs = [(ranked[a], ranked[b]) for a, b in data.draw(st.sets(_rising(n)))]
    pairs += [(ranked[0], ranked[1])] + [(e, ranked[-1]) for e in ranked[:-1]]
    poset = FinitePoset(labels, pairs)
    above = [b for a, b in poset.related_pairs() if a == ranked[0] and b != ranked[-1]]
    second = data.draw(st.sampled_from(above))
    forced = {(ranked[0], ranked[-1]), (ranked[0], second)}
    edges = forced | {p for p in poset.related_pairs() if data.draw(st.booleans())}
    module = euclidean_module(AtomicMeasureSpace(["a"], [1.0]), 1)
    ident = identity_morphism(module)
    system = DirectSystem(poset, {e: module for e in labels}, {e: ident for e in edges})
    redundant = {i: system._redundant(i) for i in system.index.explicit_indices()}
    assert redundant == reference_redundant_targets(system)


def test_redundant_targets_match_the_topological_count():
    rng = np.random.default_rng(8)
    shapes = set()
    for system in _edge_systems(rng):
        got = {i: system._redundant(i) for i in system.index.explicit_indices()}
        assert got == reference_redundant_targets(system)
        shapes.add(any(got.values()))
    assert shapes == {False, True}


def test_a_failing_validation_raises_on_every_call():
    """A system whose validation raises a kernel error raises it again on
    the next call."""
    plane, hom = _plane_and_hom()
    twist = ModuleMorphism(plane, hom, [TWIST])
    system = DirectSystem(Chain(2, IdentityTail()), {0: plane, 1: hom}, {(0, 1): twist})
    for _ in range(2):
        with pytest.raises(BracketTooWideError):
            validate_direct_system(system)
