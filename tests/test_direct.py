import numpy as np
import pytest

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
    present_as_fg_limit,
    solve_square_component,
    validate_direct_system,
    validate_system_morphism,
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
from l0limits.measure import AtomicMeasureSpace, L0Function
from l0limits.modules import (
    Element,
    ModuleMorphism,
    apply,
    basis_elements,
    compose,
    euclidean_module,
    identity_morphism,
    morphism_deviation,
    pointwise_norm,
    zero_element,
)
from l0limits.randgen import (
    random_chain_direct_system,
    random_chain_morphism_pair,
    random_direct_system,
    random_element,
    random_module,
    random_space,
    random_surjective_system_pair,
)

from oracles import brute_class_seminorm

PT = AtomicMeasureSpace(["pt"], [1.0])
TWO = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])


def remark_systems():
    plane = euclidean_module(PT, 2)
    poset = FinitePoset(["0", "1"], [("0", "1")])
    ident = identity_morphism(plane)
    proj = ModuleMorphism(plane, plane, [np.array([[1.0, 0.0], [0.0, 0.0]])])
    m_sys = DirectSystem(poset, {"0": plane, "1": plane}, {("0", "1"): ident})
    n_sys = DirectSystem(poset, {"0": plane, "1": plane}, {("0", "1"): proj})
    return plane, m_sys, n_sys


def test_greatest_element_cases():
    chain = FinitePoset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert greatest_element(chain) == "2"
    assert greatest_element(FinitePoset(["x"], [])) == "x"
    diamond = FinitePoset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert greatest_element(diamond) == "c"


def test_poset_invariants_enforced():
    with pytest.raises(ValueError):
        FinitePoset(["a", "b"], [("a", "b"), ("b", "a")])  # antisymmetry
    with pytest.raises(ValueError):
        FinitePoset(["a", "b"], [])  # not directed


def test_validate_identity_system():
    plane = euclidean_module(PT, 2)
    sys_ = DirectSystem(FinitePoset(["0"], []), {"0": plane}, {})
    assert validate_direct_system(sys_).passed


def test_validate_flags_inadmissible_map():
    plane = euclidean_module(PT, 2)
    poset = FinitePoset(["0", "1"], [("0", "1")])
    big = ModuleMorphism(plane, plane, [2.0 * np.eye(2)])
    sys_ = DirectSystem(poset, {"0": plane, "1": plane}, {("0", "1"): big})
    report = validate_direct_system(sys_)
    assert not report.passed
    assert report.violations[0].kind == "admissibility"
    assert report.violations[0].indices == ("0", "1")


def test_validate_flags_cocycle_break():
    plane = euclidean_module(PT, 2)
    poset = FinitePoset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    ident = identity_morphism(plane)
    swap = ModuleMorphism(plane, plane, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    sys_ = DirectSystem(
        poset,
        {"0": plane, "1": plane, "2": plane},
        {("0", "1"): ident, ("1", "2"): ident, ("0", "2"): swap},
    )
    report = validate_direct_system(sys_)
    kinds = {v.kind for v in report.violations}
    assert "cocycle" in kinds
    worst = report.worst()
    assert worst.deviation == pytest.approx(1.0)


def test_dl_seminorm_identity_system():
    plane = euclidean_module(TWO, 2)
    sys_ = DirectSystem(
        FinitePoset(["0", "1"], [("0", "1")]),
        {"0": plane, "1": plane},
        {("0", "1"): identity_morphism(plane)},
    )
    v = Element(plane, [[3.0, 4.0], [1.0, 0.0]])
    out = dl_seminorm(sys_, ColimitClass("0", v))
    assert np.allclose(out.values, pointwise_norm(v).values)


def test_dl_seminorm_scalar_tail():
    plane = euclidean_module(TWO, 2)
    tail = ScalarTail(L0Function(TWO, [1.0, 0.5]))
    sys_ = DirectSystem(
        Chain(2, tail),
        {0: plane, 1: plane},
        {(0, 1): identity_morphism(plane)},
    )
    v = Element(plane, [[3.0, 0.0], [7.0, 0.0]])
    out = dl_seminorm(sys_, ColimitClass(1, v))
    assert out.values.tolist() == [3.0, 0.0]


def test_dl_seminorm_harmonic_tail_vanishes():
    plane = euclidean_module(TWO, 2)
    sys_ = DirectSystem(
        Chain(2, HarmonicTail()),
        {0: plane, 1: plane},
        {(0, 1): identity_morphism(plane)},
    )
    v = random_element(np.random.default_rng(0), plane)
    assert dl_seminorm(sys_, ColimitClass(0, v)).values.tolist() == [0.0, 0.0]


def test_dl_seminorm_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        system = random_direct_system(rng, max_dim=3)
        stage = system.index.elements[int(rng.integers(0, len(system.index.elements)))]
        v = random_element(rng, system.modules[stage])
        fast = dl_seminorm(system, ColimitClass(stage, v)).values
        brute = brute_class_seminorm(system, stage, v)
        assert np.allclose(fast, brute, atol=1e-9), (fast, brute)


def test_direct_limit_single_module():
    plane = euclidean_module(PT, 2)
    sys_ = DirectSystem(FinitePoset(["0"], []), {"0": plane}, {})
    pres = direct_limit(sys_)
    assert pres.module is plane
    assert morphism_deviation(pres.canonical["0"], identity_morphism(plane)) == 0.0
    assert pres.provenance == "greatest-element"


def test_direct_limit_two_stage():
    plane, m_sys, n_sys = remark_systems()
    pres = direct_limit(m_sys)
    assert pres.module is plane
    assert morphism_deviation(pres.canonical["0"], m_sys.map("0", "1")) == 0.0


def test_direct_limit_harmonic_collapses():
    plane = euclidean_module(TWO, 2)
    sys_ = DirectSystem(
        Chain(3, HarmonicTail()),
        {k: plane for k in range(3)},
        {(k, k + 1): identity_morphism(plane) for k in range(2)},
    )
    pres = direct_limit(sys_)
    assert pres.module.dims() == (0, 0)
    assert pres.provenance == "chain-tail"


def test_universal_factorization_identity_target():
    _, m_sys, _ = remark_systems()
    pres = direct_limit(m_sys)
    phi = dl_universal_factorization(m_sys, Target(pres.module, dict(pres.canonical)))
    assert np.array_equal(phi.matrices[0], np.eye(2))


def test_universal_factorization_remark_target():
    plane, m_sys, _ = remark_systems()
    proj = ModuleMorphism(plane, plane, [np.array([[1.0, 0.0], [0.0, 0.0]])])
    phi = dl_universal_factorization(m_sys, Target(plane, {"0": proj, "1": proj}))
    assert np.allclose(phi.matrices[0], proj.matrices[0])


def test_universal_factorization_recovers_postcomposition():
    rng = np.random.default_rng(3)
    for _ in range(10):
        system = random_direct_system(rng, max_dim=3)
        pres = direct_limit(system)
        outside = random_module(rng, system.space, max_dim=3)
        rho = __import__("l0limits.randgen", fromlist=["random_admissible_morphism"]) \
            .random_admissible_morphism(rng, pres.module, outside)
        target = Target(
            outside,
            {i: compose(rho, pres.canonical[i]) for i in system.index.explicit_indices()},
        )
        phi = dl_universal_factorization(system, target)
        assert morphism_deviation(phi, rho) < 1e-9


def test_universal_factorization_rejects_bad_target():
    plane, m_sys, _ = remark_systems()
    swap = ModuleMorphism(plane, plane, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    ident = identity_morphism(plane)
    with pytest.raises(ValidationError):
        dl_universal_factorization(m_sys, Target(plane, {"0": swap, "1": ident}))


def test_universal_factorization_unique_because_canonicals_span():
    # any second solution of the same squares coincides entrywise: solve
    # the constraints independently from the stacked canonical images
    rng = np.random.default_rng(40)
    system = random_direct_system(rng, max_dim=3)
    pres = direct_limit(system)
    outside = random_module(rng, system.space, max_dim=3)
    from l0limits.randgen import random_admissible_morphism

    rho = random_admissible_morphism(rng, pres.module, outside)
    target = Target(
        outside,
        {i: compose(rho, pres.canonical[i]) for i in system.index.explicit_indices()},
    )
    mediating = dl_universal_factorization(system, target)
    for a in range(system.space.atom_count):
        columns = np.hstack(
            [pres.canonical[i].matrices[a] for i in system.index.explicit_indices()]
        )
        rhs = np.hstack(
            [target.maps[i].matrices[a] for i in system.index.explicit_indices()]
        )
        if columns.size == 0:
            continue
        # mediating @ columns = rhs has a unique solution when the columns
        # span the limit fiber
        solved, *_ = np.linalg.lstsq(columns.T, rhs.T, rcond=None)
        assert np.allclose(solved.T, mediating.matrices[a], atol=1e-9)


def test_universal_factorization_chain_requires_vanishing_on_masked_atoms():
    plane = euclidean_module(TWO, 2)
    tail = ScalarTail(L0Function(TWO, [1.0, 0.5]))
    system = DirectSystem(
        Chain(2, tail), {0: plane, 1: plane}, {(0, 1): identity_morphism(plane)}
    )
    half = ModuleMorphism(plane, plane, [0.5 * np.eye(2)] * 2)
    with pytest.raises(ValidationError) as err:
        dl_universal_factorization(system, Target(plane, {0: half, 1: half}))
    assert "collapsed atom" in str(err.value)
    masked = ModuleMorphism(plane, plane, [0.5 * np.eye(2), np.zeros((2, 2))])
    mediating = dl_universal_factorization(
        system, Target(plane, {0: masked, 1: masked})
    )
    assert mediating.matrices[0].shape == (2, 2)
    assert mediating.matrices[1].shape == (2, 0)


def test_dl_functor_identity_morphism():
    _, m_sys, _ = remark_systems()
    ident = {i: identity_morphism(m_sys.modules[i]) for i in ("0", "1")}
    theta = SystemMorphism(m_sys, m_sys, ident)
    out = dl_functor(theta)
    assert np.array_equal(out.matrices[0], np.eye(2))


def test_dl_functor_collapses_distinct_morphisms():
    plane, m_sys, n_sys = remark_systems()
    proj = ModuleMorphism(plane, plane, [np.array([[1.0, 0.0], [0.0, 0.0]])])
    flip = ModuleMorphism(plane, plane, [np.diag([1.0, -1.0])])
    theta = SystemMorphism(m_sys, n_sys, {"0": identity_morphism(plane), "1": proj})
    eta = SystemMorphism(m_sys, n_sys, {"0": flip, "1": proj})
    assert morphism_deviation(theta.components["0"], eta.components["0"]) > 1.0
    out_theta = dl_functor(theta)
    out_eta = dl_functor(eta)
    assert morphism_deviation(out_theta, out_eta) == 0.0
    assert np.allclose(out_theta.matrices[0], proj.matrices[0])


def test_dl_functor_identity_and_composition_laws():
    from l0limits.randgen import random_chain_morphism_pair

    rng = np.random.default_rng(5)
    th = random_chain_morphism_pair(rng)
    ident = SystemMorphism(
        th.source, th.source,
        {i: identity_morphism(th.source.modules[i]) for i in th.components},
    )
    out = dl_functor(ident)
    for m, f in zip(out.matrices, out.source.fibers):
        assert np.allclose(m, np.eye(f.dim))
    # conjugate the target maps once more: the same components form a second
    # morphism, and the functor respects the composite
    further = {
        (k, k + 1): compose(
            th.components[k + 1],
            compose(th.target.map(k, k + 1), _inverse(th.components[k])),
        )
        for k in range(th.source.index.last)
    }
    beyond = DirectSystem(th.target.index, dict(th.target.modules), further)
    eta = SystemMorphism(th.target, beyond, dict(th.components))
    composite = SystemMorphism(
        th.source, beyond,
        {i: compose(eta.components[i], th.components[i]) for i in th.components},
    )
    lhs = dl_functor(composite, validate=False)
    rhs = compose(dl_functor(eta, validate=False), dl_functor(th, validate=False))
    assert morphism_deviation(lhs, rhs) < 1e-9


def _inverse(phi):
    return ModuleMorphism(
        phi.target, phi.source, [np.linalg.inv(m) for m in phi.matrices]
    )


def test_no_preimage_square_witnessed():
    plane, m_sys, n_sys = remark_systems()
    sol = solve_square_component(
        m_sys, n_sys, {"1": identity_morphism(plane)}, "0"
    )
    assert not sol.exists
    assert sol.residual == pytest.approx(1.0)
    assert "unsolvable" in sol.witness


def test_square_solving_composes_once_per_partner(monkeypatch):
    """Each fixed component is composed with its source map once, not once
    per atom."""
    rng = np.random.default_rng(3)
    theta = random_chain_morphism_pair(rng, AtomicMeasureSpace(["a", "b"], [1.0, 1.0]))
    calls = []

    def counted_compose(psi, phi):
        calls.append((psi, phi))
        return compose(psi, phi)

    monkeypatch.setattr("l0limits.direct.compose", counted_compose)
    fixed = {k: theta.components[k] for k in (1, 2)}
    sol = solve_square_component(theta.source, theta.target, fixed, 0)
    assert len(calls) == 2
    assert sol.exists
    assert morphism_deviation(sol.component, theta.components[0]) < 1e-9


def test_solvable_square_recovers_component():
    plane, m_sys, n_sys = remark_systems()
    proj = ModuleMorphism(plane, plane, [np.array([[1.0, 0.0], [0.0, 0.0]])])
    sol = solve_square_component(m_sys, n_sys, {"1": proj}, "0")
    assert sol.exists
    assert sol.component is not None


def test_system_morphism_tail_solvability():
    plane = euclidean_module(TWO, 2)
    masked = ScalarTail(L0Function(TWO, [1.0, 0.5]))
    src = DirectSystem(
        Chain(2, masked), {0: plane, 1: plane}, {(0, 1): identity_morphism(plane)}
    )
    tgt = DirectSystem(
        Chain(2, IdentityTail()), {0: plane, 1: plane},
        {(0, 1): identity_morphism(plane)},
    )
    # identity components fail: the masked source forces the last component
    # to vanish where the target tail keeps growing relatively
    theta = SystemMorphism(
        src, tgt, {k: identity_morphism(plane) for k in range(2)}
    )
    report = validate_system_morphism(theta)
    assert not report.passed
    assert any(v.kind in ("square", "tail-square") for v in report.violations)
    # vanishing on the masked atom fixes it
    fixed_mat = [np.eye(2), np.zeros((2, 2))]
    comp = ModuleMorphism(plane, plane, fixed_mat)
    theta2 = SystemMorphism(src, tgt, {0: comp, 1: comp})
    report2 = validate_system_morphism(theta2)
    assert report2.passed, report2.violations


def test_present_as_fg_limit_standard_basis():
    plane = euclidean_module(TWO, 2)
    fg = present_as_fg_limit(plane, basis_elements(plane))
    assert fg.stage_dims[0] == (0, 0)
    assert fg.stage_dims[-1] == (2, 2)
    for m in fg.isomorphism.matrices:
        assert np.array_equal(m, np.eye(2))
    assert validate_direct_system(fg.system).passed


def test_present_as_fg_limit_duplicates_stabilize():
    plane = euclidean_module(TWO, 2)
    gens = basis_elements(plane)
    fg = present_as_fg_limit(plane, gens + gens)
    assert fg.stage_dims[-1] == (2, 2)
    assert fg.stage_dims[len(gens)] == fg.stage_dims[-1]


def test_present_as_fg_limit_insufficient_generators():
    plane = euclidean_module(TWO, 2)
    gen = Element(plane, [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValidationError) as err:
        present_as_fg_limit(plane, [gen])
    assert "deficient" in str(err.value)
    assert "a" in str(err.value)


def test_surjectivity_preserved_identity_and_random():
    _, m_sys, _ = remark_systems()
    ident = {i: identity_morphism(m_sys.modules[i]) for i in ("0", "1")}
    rep = check_surjectivity_preservation(SystemMorphism(m_sys, m_sys, ident))
    assert rep.preserved and rep.limit_has_property
    rng = np.random.default_rng(21)
    for _ in range(5):
        th = random_surjective_system_pair(rng)
        rep = check_surjectivity_preservation(th)
        assert rep.stages_have_property and rep.limit_has_property


def test_surjectivity_preserved_onto_axis_submodule():
    # map onto the first-axis submodule as codomain; onto at every stage,
    # so the limit map must be onto as well
    from l0limits.modules import submodule_generated

    plane, m_sys, _ = remark_systems()
    axis_gen = Element(plane, [[1.0, 0.0]])
    axis, _ = submodule_generated(plane, [axis_gen])
    poset = m_sys.index
    onto = ModuleMorphism(plane, axis, [np.array([[1.0, 0.0]])])
    axis_sys = DirectSystem(
        poset, {"0": axis, "1": axis}, {("0", "1"): identity_morphism(axis)}
    )
    theta = SystemMorphism(m_sys, axis_sys, {"0": onto, "1": onto})
    assert validate_system_morphism(theta).passed
    rep = check_surjectivity_preservation(theta)
    assert rep.stages_have_property and rep.limit_has_property and rep.preserved


def test_chain_maps_compose_along_path():
    rng = np.random.default_rng(2)
    system = random_chain_direct_system(rng, stages=4, tail=IdentityTail())
    direct = system.map(0, 3)
    step = compose(system.map(2, 3), compose(system.map(1, 2), system.map(0, 1)))
    assert morphism_deviation(direct, step) < 1e-12


def test_monotone_contraction_along_order():
    rng = np.random.default_rng(13)
    system = random_direct_system(rng)
    top = greatest_element(system.index)
    for i in system.index.explicit_indices():
        v = random_element(rng, system.modules[i])
        prev = pointwise_norm(v).values
        for j in system.index.explicit_indices():
            if i != j and system.index.leq(i, j):
                pushed = pointwise_norm(apply(system.map(i, j), v)).values
                assert np.all(pushed <= prev + 1e-9)
