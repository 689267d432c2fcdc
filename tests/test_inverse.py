import numpy as np
import pytest

from l0limits.config import DEFAULT_TOLERANCE, tolerance, tolerance_override
from l0limits.direct import (
    DirectSystem,
    SystemMorphism,
    check_surjectivity_preservation,
    direct_limit,
    dl_functor,
)
from l0limits.errors import ValidationError
from l0limits.indexsets import (
    Chain,
    FinitePoset,
    HarmonicTail,
    IdentityTail,
    ScalarTail,
    greatest_element,
)
from l0limits.inverse import (
    InverseSystem,
    Source,
    Thread,
    check_injectivity_preservation,
    dual_limit_iso,
    dual_system,
    hom_inverse_system,
    il_functor,
    il_norm,
    il_universal_factorization,
    inverse_limit,
    thread_from_components,
    validate_inverse_system,
)
from l0limits.measure import AtomicMeasureSpace, L0Function
from l0limits.modules import (
    Element,
    ModuleMorphism,
    apply,
    compose,
    euclidean_module,
    identity_morphism,
    morphism_deviation,
    pointwise_norm,
    zero_element,
)
from l0limits.randgen import (
    random_chain_direct_system,
    random_direct_system,
    random_element,
    random_injective_inverse_pair,
    random_inverse_system,
)

from oracles import exhaustive_component_sup

PT = AtomicMeasureSpace(["pt"], [1.0])
TWO = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])


def harmonic_system(stages=3, space=TWO, dim=2):
    module = euclidean_module(space, dim)
    maps = {
        (k, k + 1): ModuleMorphism(
            module, module,
            [(k + 1) / (k + 2) * np.eye(dim) for _ in space.atom_ids],
        )
        for k in range(stages - 1)
    }
    return InverseSystem(
        Chain(stages, HarmonicTail()), {k: module for k in range(stages)}, maps
    )


def identity_system(stages=3, space=TWO, dim=2):
    module = euclidean_module(space, dim)
    maps = {(k, k + 1): identity_morphism(module) for k in range(stages - 1)}
    return InverseSystem(
        Chain(stages, IdentityTail()), {k: module for k in range(stages)}, maps
    )


def test_validate_inverse_identity_system():
    assert validate_inverse_system(identity_system()).passed


def test_validate_inverse_cocycle_violation():
    module = euclidean_module(PT, 2)
    poset = FinitePoset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    ident = identity_morphism(module)
    swap = ModuleMorphism(module, module, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    sys_ = InverseSystem(
        poset,
        {"0": module, "1": module, "2": module},
        {("0", "1"): ident, ("1", "2"): ident, ("0", "2"): swap},
    )
    report = validate_inverse_system(sys_)
    assert any(v.kind == "cocycle" for v in report.violations)


def test_validate_inverse_admissibility():
    module = euclidean_module(PT, 1)
    poset = FinitePoset(["0", "1"], [("0", "1")])
    grow = ModuleMorphism(module, module, [np.array([[3.0]])])
    sys_ = InverseSystem(poset, {"0": module, "1": module}, {("0", "1"): grow})
    report = validate_inverse_system(sys_)
    assert any(v.kind == "admissibility" for v in report.violations)


def test_il_norm_identity_chain():
    sys_ = identity_system()
    module = sys_.modules[2]
    v = Element(module, [[3.0, 4.0], [0.0, 1.0]])
    thread = Thread({k: v for k in range(3)})
    norm, finite = il_norm(sys_, thread)
    assert np.all(finite)
    assert norm.values.tolist() == [5.0, 1.0]


def test_il_norm_scalar_tail_masks():
    module = euclidean_module(TWO, 2)
    tail = ScalarTail(L0Function(TWO, [1.0, 0.5]))
    sys_ = InverseSystem(
        Chain(2, tail), {0: module, 1: module},
        {(0, 1): identity_morphism(module)},
    )
    ok = Element(module, [[3.0, 0.0], [0.0, 0.0]])
    norm, finite = il_norm(sys_, Thread({0: ok, 1: ok}))
    assert np.all(finite)
    assert norm.values.tolist() == [3.0, 0.0]
    bad = Element(module, [[3.0, 0.0], [1.0, 0.0]])
    _, finite_bad = il_norm(sys_, Thread({0: bad, 1: bad}))
    assert finite_bad.tolist() == [True, False]


def test_il_norm_harmonic_infinite_unless_zero():
    sys_ = harmonic_system()
    module = sys_.modules[2]
    v = Element(module, [[1.0, 0.0], [0.0, 0.0]])
    comps = {2: v, 1: apply(sys_.map(1, 2), v), 0: apply(sys_.map(0, 2), v)}
    _, finite = il_norm(sys_, Thread(comps))
    assert finite.tolist() == [False, True]
    zero_thread = Thread({k: zero_element(module) for k in range(3)})
    _, finite_zero = il_norm(sys_, zero_thread)
    assert np.all(finite_zero)


def test_il_norm_poset_matches_exhaustive_sup():
    rng = np.random.default_rng(6)
    for _ in range(15):
        sys_ = random_inverse_system(rng)
        top = greatest_element(sys_.index)
        v = random_element(rng, sys_.modules[top])
        comps = {
            i: apply(sys_.map(i, top), v) for i in sys_.index.explicit_indices()
        }
        norm, finite = il_norm(sys_, Thread(comps))
        assert np.all(finite)
        assert np.allclose(norm.values, exhaustive_component_sup(sys_, comps))
        # the top component dominates
        assert np.allclose(norm.values, pointwise_norm(v).values, atol=1e-9)


def test_inverse_limit_singleton():
    module = euclidean_module(PT, 3)
    sys_ = InverseSystem(FinitePoset(["0"], []), {"0": module}, {})
    pres = inverse_limit(sys_)
    assert pres.module is module


def test_inverse_limit_harmonic_zero():
    pres = inverse_limit(harmonic_system())
    assert pres.module.dims() == (0, 0)
    assert pres.provenance == "chain-tail"


def test_inverse_limit_scalar_tail_masks_fibers():
    module = euclidean_module(TWO, 2)
    tail = ScalarTail(L0Function(TWO, [1.0, 0.5]))
    sys_ = InverseSystem(
        Chain(2, tail), {0: module, 1: module},
        {(0, 1): identity_morphism(module)},
    )
    pres = inverse_limit(sys_)
    assert pres.module.dims() == (2, 0)


def test_thread_from_components_round_trip():
    sys_ = identity_system()
    module = sys_.modules[2]
    v = Element(module, [[1.0, 2.0], [3.0, 4.0]])
    element, norm = thread_from_components(sys_, {k: v for k in range(3)})
    assert np.allclose(element.coords[0], v.coords[0])
    assert np.allclose(norm.values, pointwise_norm(v).values)


def test_thread_from_components_zero():
    sys_ = identity_system()
    zeros = {k: zero_element(sys_.modules[k]) for k in range(3)}
    element, norm = thread_from_components(sys_, zeros)
    assert norm.values.tolist() == [0.0, 0.0]


def test_thread_from_components_poset_recovery():
    rng = np.random.default_rng(10)
    sys_ = random_inverse_system(rng)
    top = greatest_element(sys_.index)
    v = random_element(rng, sys_.modules[top])
    comps = {i: apply(sys_.map(i, top), v) for i in sys_.index.explicit_indices()}
    element, _ = thread_from_components(sys_, comps)
    assert np.allclose(
        np.concatenate(element.coords), np.concatenate(v.coords), atol=1e-12
    )


def test_thread_from_components_rejects_incompatible():
    sys_ = identity_system()
    module = sys_.modules[0]
    a = Element(module, [[1.0, 0.0], [0.0, 0.0]])
    b = Element(module, [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        thread_from_components(sys_, {0: a, 1: b, 2: b})


def test_thread_from_components_rejects_infinite_norm():
    sys_ = harmonic_system()
    module = sys_.modules[2]
    v = Element(module, [[1.0, 0.0], [0.0, 0.0]])
    comps = {2: v, 1: apply(sys_.map(1, 2), v), 0: apply(sys_.map(0, 2), v)}
    with pytest.raises(ValidationError) as err:
        thread_from_components(sys_, comps)
    assert "infinite" in str(err.value)


def test_il_universal_factorization_identity_source():
    sys_ = identity_system()
    pres = inverse_limit(sys_)
    phi = il_universal_factorization(sys_, Source(pres.module, dict(pres.canonical)))
    for m, f in zip(phi.matrices, pres.module.fibers):
        assert np.allclose(m, np.eye(f.dim))


def test_il_universal_factorization_zero_source():
    from l0limits.modules import zero_module, zero_morphism

    sys_ = identity_system()
    zero = zero_module(TWO)
    maps = {k: zero_morphism(zero, sys_.modules[k]) for k in range(3)}
    phi = il_universal_factorization(sys_, Source(zero, maps))
    assert all(m.shape[1] == 0 for m in phi.matrices)


def test_il_universal_factorization_recovers_precomposition():
    rng = np.random.default_rng(30)
    from l0limits.randgen import random_admissible_morphism, random_module

    for _ in range(10):
        sys_ = random_inverse_system(rng)
        pres = inverse_limit(sys_)
        outside = random_module(rng, sys_.space, max_dim=3)
        rho = random_admissible_morphism(rng, outside, pres.module)
        source = Source(
            outside,
            {
                i: compose(pres.canonical[i], rho)
                for i in sys_.index.explicit_indices()
            },
        )
        phi = il_universal_factorization(sys_, source)
        assert morphism_deviation(phi, rho) < 1e-9


def test_il_universal_factorization_chain_requires_vanishing_on_masked_atoms():
    module = euclidean_module(TWO, 2)
    tail = ScalarTail(L0Function(TWO, [1.0, 0.5]))
    sys_ = InverseSystem(
        Chain(2, tail), {0: module, 1: module},
        {(0, 1): identity_morphism(module)},
    )
    half = ModuleMorphism(module, module, [0.5 * np.eye(2)] * 2)
    with pytest.raises(ValidationError) as err:
        il_universal_factorization(sys_, Source(module, {0: half, 1: half}))
    assert "collapsed atom" in str(err.value)
    masked = ModuleMorphism(module, module, [0.5 * np.eye(2), np.zeros((2, 2))])
    mediating = il_universal_factorization(
        sys_, Source(module, {0: masked, 1: masked})
    )
    assert mediating.matrices[0].shape == (2, 2)
    assert mediating.matrices[1].shape == (0, 2)


def test_il_functor_identity():
    sys_ = identity_system()
    ident = {k: identity_morphism(sys_.modules[k]) for k in range(3)}
    out = il_functor(SystemMorphism(sys_, sys_, ident))
    for m in out.matrices:
        assert np.array_equal(m, np.eye(2))


def scaling_counterexample():
    source = harmonic_system()
    target = identity_system()
    comps = {
        k: ModuleMorphism(
            source.modules[k], target.modules[k],
            [1.0 / (k + 1) * np.eye(2) for _ in TWO.atom_ids],
        )
        for k in range(3)
    }
    return SystemMorphism(source, target, comps)


def test_scaling_counterexample_kills_surjectivity():
    theta = scaling_counterexample()
    from l0limits.direct import validate_system_morphism

    assert validate_system_morphism(theta).passed
    out = il_functor(theta)
    assert all(m.shape[1] == 0 for m in out.matrices)
    report = check_surjectivity_preservation(theta)
    assert report.stages_have_property
    assert not report.limit_has_property
    assert not (report.stages_have_property and report.limit_has_property)


def test_injectivity_preserved_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(10):
        theta = random_injective_inverse_pair(rng)
        report = check_injectivity_preservation(theta)
        assert report.stages_have_property and report.limit_has_property


def test_hom_inverse_system_singleton():
    module = euclidean_module(PT, 2)
    sys_ = DirectSystem(FinitePoset(["0"], []), {"0": module}, {})
    result = hom_inverse_system(sys_, euclidean_module(PT, 2))
    assert result.certificate.ok
    for m, f in zip(result.comparison.matrices, result.hom_of_limit.fibers):
        assert np.allclose(m, np.eye(f.dim))


def test_hom_inverse_system_remark_scalar():
    plane = euclidean_module(PT, 2)
    poset = FinitePoset(["0", "1"], [("0", "1")])
    sys_ = DirectSystem(
        poset, {"0": plane, "1": plane}, {("0", "1"): identity_morphism(plane)}
    )
    from l0limits.modules import scalar_module

    result = hom_inverse_system(sys_, scalar_module(PT))
    assert result.certificate.ok
    assert result.hom_of_limit.dims() == (2,)


def test_hom_inverse_system_harmonic_collapses():
    plane = euclidean_module(TWO, 2)
    sys_ = DirectSystem(
        Chain(2, HarmonicTail()), {0: plane, 1: plane},
        {(0, 1): identity_morphism(plane)},
    )
    from l0limits.modules import scalar_module

    result = hom_inverse_system(sys_, scalar_module(TWO))
    assert result.certificate.ok
    assert result.hom_of_limit.dims() == (0, 0)
    assert result.limit_of_homs.module.dims() == (0, 0)


def test_dual_limit_iso_on_random_systems():
    rng = np.random.default_rng(32)
    for _ in range(8):
        sys_ = random_direct_system(rng, max_dim=3)
        result = dual_limit_iso(sys_)
        assert result.certificate.ok, result.certificate
    for _ in range(8):
        sys_ = random_chain_direct_system(rng, max_dim=3)
        result = dual_limit_iso(sys_)
        assert result.certificate.ok, result.certificate


def test_tenfold_bounds_hold_at_the_largest_tolerances():
    """The Hom certificate and the limit squares are bounded by
    ``10 * tolerance()``, which is infinite above about 1.8e307.  They are
    plain comparisons, not tolerances of their own, so they raise no
    "finite and positive" error and the tolerance is back afterwards."""
    sys_ = random_chain_direct_system(np.random.default_rng(35), max_dim=3)
    ident = {i: identity_morphism(m) for i, m in sys_.modules.items()}
    with tolerance_override(1e308):
        result = dual_limit_iso(sys_)
        limit_map = dl_functor(SystemMorphism(sys_, sys_, ident))
    assert result.certificate.ok and result.certificate.bijective
    assert limit_map.source == limit_map.target == direct_limit(sys_).module
    assert tolerance() == DEFAULT_TOLERANCE


def test_dual_system_uses_adjoint_maps():
    """The maps of the dual system, and of the Hom system that
    ``dual_limit_iso`` compares, are exactly the adjoints of the original
    maps, on a chain and on a poset system."""
    from l0limits.homdual import adjoint
    from l0limits.randgen import random_direct_system

    rng = np.random.default_rng(33)
    chain = random_chain_direct_system(rng, max_dim=3, tail=IdentityTail())
    poset = random_direct_system(np.random.default_rng(4), max_dim=3)
    assert any(i != j for i, j in poset.maps)
    for sys_ in (chain, poset):
        duals = dual_system(sys_)
        assert validate_inverse_system(duals).passed
        compared = dual_limit_iso(sys_)
        assert compared.certificate.ok
        for system in (duals, compared.hom_system):
            assert system.maps.keys() == duals.maps.keys()
            for (i, j), p in system.maps.items():
                expected = adjoint(sys_.map(i, j))
                assert (p.source, p.target) == (expected.source, expected.target)
                assert morphism_deviation(p, expected) == 0.0


def test_dual_limit_iso_fg_chain():
    # duals of a growing chain of submodules shrink compatibly
    from l0limits.direct import present_as_fg_limit
    from l0limits.modules import basis_elements

    rng = np.random.default_rng(34)
    module = euclidean_module(TWO, 3)
    gens = basis_elements(module)
    rng.shuffle(gens)
    fg = present_as_fg_limit(module, gens)
    result = dual_limit_iso(fg.system)
    assert result.certificate.ok


def test_precompose_map_is_kron_of_identity_and_transpose_byte_for_byte():
    """The block-diagonal precomposition matrices equal
    ``np.kron(np.eye(t), M.T)`` in every byte, signed zeros included, for
    all fiber dims 0-3 of the map's ends and of the fixed target."""
    from l0limits.homdual import hom_module
    from l0limits.inverse import _precompose_map
    from l0limits.modules import Fiber, FiberModule
    from l0limits.norms import WeightedP

    dims = [(s, r, t) for s in range(4) for r in range(4) for t in range(4)]
    space = AtomicMeasureSpace([f"x{k}" for k in range(len(dims))], np.ones(len(dims)))

    def module(which):
        return FiberModule(space, tuple(
            Fiber(d[which], WeightedP(2, np.ones(d[which]))) for d in dims
        ))

    source, target, fixed = module(0), module(1), module(2)
    rng = np.random.default_rng(5)
    mats = []
    for s, r, _ in dims:
        m = rng.standard_normal((r, s))
        m[np.abs(m) < 0.5] = 0.0
        m[m > 1.0] = -0.0
        mats.append(m)
    phi = ModuleMorphism(source, target, mats)
    p = _precompose_map(hom_module(target, fixed), hom_module(source, fixed), phi)
    for (_, _, t), m, got in zip(dims, phi.matrices, p.matrices):
        want = np.kron(np.eye(t), m.T)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_each_norm_spec_computes_its_dual_at_most_once(monkeypatch):
    """One ``dual_limit_iso`` on seeded chains asks for the dual of the
    same stage norms once per stage, map end and Hom module; each spec
    computes it once and keeps it."""
    from functools import cached_property

    from l0limits.norms import FramedP, WeightedP

    runs = {}
    for cls in (WeightedP, FramedP):
        prop = cls.__dict__["_dual"]
        assert isinstance(prop, cached_property)

        def counted(spec, _body=prop.func):
            runs[id(spec)] = runs.get(id(spec), 0) + 1
            return _body(spec)

        monkeypatch.setattr(prop, "func", counted)
    rng = np.random.default_rng(71)
    systems = [random_chain_direct_system(rng, stages=4, max_dim=3) for _ in range(3)]
    for system in systems:
        runs.clear()
        assert dual_limit_iso(system).certificate.ok
        assert runs and max(runs.values()) == 1
