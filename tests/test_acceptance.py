"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success; tolerances are pinned
here and never relaxed at runtime.
"""

import json
import pathlib

import numpy as np
import pytest

from l0limits.config import tolerance_override
from l0limits.direct import (
    ColimitClass,
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
from l0limits.harness import load_document, render_structured, run_checks
from l0limits.indexsets import greatest_element
from l0limits.inverse import (
    Source,
    check_injectivity_preservation,
    dual_limit_iso,
    il_functor,
    il_universal_factorization,
    inverse_limit,
    validate_inverse_system,
)
from l0limits.measure import AtomicMeasureSpace
from l0limits.modules import (
    Element,
    Fiber,
    FiberModule,
    ModuleMorphism,
    basis_elements,
    euclidean_module,
    identity_morphism,
    morphism_deviation,
    operator_norm_witnesses,
    operator_pointwise_norm,
)
from l0limits.norms import INF, WeightedP, operator_norm_witness
from l0limits.pullback import dl_pullback_iso, sections_iso
from l0limits.randgen import (
    random_atom_map,
    random_chain_direct_system,
    random_direct_system,
    random_element,
    random_injective_inverse_pair,
    random_inverse_system,
    random_module,
    random_space,
    random_surjective_system_pair,
)

from oracles import brute_class_seminorm, sampled_operator_norm

TOL = 1e-9
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture(autouse=True)
def _pinned_tolerance():
    """Every criterion runs with the library's tolerance set to ``TOL``."""
    with tolerance_override(TOL):
        yield


def _report(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_01_limit_functor_collapse_and_missing_preimage():
    doc = load_document(str(FIXTURES / "remark-faithful.json"))
    theta = doc.system_morphisms["Theta"]
    eta = doc.system_morphisms["Eta"]
    assert validate_system_morphism(theta).passed
    assert validate_system_morphism(eta).passed
    # item i: distinct stage families with the same morphism of limits
    assert morphism_deviation(theta.components["0"], eta.components["0"]) > TOL
    out_theta = dl_functor(theta)
    out_eta = dl_functor(eta)
    expected = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert morphism_deviation(out_theta, out_eta) <= TOL
    assert np.max(np.abs(out_theta.matrices[0] - expected)) <= TOL
    # item ii: the identity on the top stage admits no compatible component
    m_sys = doc.systems["M"]
    n_sys = doc.systems["N"]
    solution = solve_square_component(
        m_sys, n_sys, {"1": identity_morphism(m_sys.modules["1"])}, "0"
    )
    assert not solution.exists
    assert solution.residual > TOL
    assert "unsolvable" in solution.witness
    _report(1, "distinct morphisms collapse to (x,0); no preimage component exists")


def test_criterion_02_harmonic_inverse_limit_is_zero():
    doc = load_document(str(FIXTURES / "harmonic-inverse.json"))
    system = doc.systems["shrinking"]
    assert validate_inverse_system(system).passed
    presentation = inverse_limit(system)
    assert presentation.module.dims() == tuple(0 for _ in system.space.atom_ids)
    # any nonzero module collapses the same way
    rng = np.random.default_rng(2)
    for _ in range(5):
        space = random_space(rng)
        module = random_module(rng, space, max_dim=4)
        from l0limits.indexsets import Chain, HarmonicTail

        stages = int(rng.integers(2, 5))
        maps = {
            (k, k + 1): ModuleMorphism(
                module, module,
                [(k + 1) / (k + 2) * np.eye(f.dim) for f in module.fibers],
            )
            for k in range(stages - 1)
        }
        from l0limits.inverse import InverseSystem

        sys_ = InverseSystem(
            Chain(stages, HarmonicTail()), {k: module for k in range(stages)}, maps
        )
        assert inverse_limit(sys_).module.dims() == tuple(0 for _ in space.atom_ids)
    _report(2, "backward harmonic scaling collapses the inverse limit to zero, exactly")


def test_criterion_03_scaling_breaks_surjectivity_preservation():
    doc = load_document(str(FIXTURES / "scaling-surjectivity.json"))
    theta = doc.system_morphisms["Theta"]
    assert validate_system_morphism(theta).passed
    for comp in theta.components.values():
        for m in comp.matrices:
            assert np.linalg.matrix_rank(m) == m.shape[0]  # stage-wise onto
    limit_map = il_functor(theta)
    assert all(m.shape[1] == 0 for m in limit_map.matrices)  # image is zero
    report = check_surjectivity_preservation(theta)
    assert report.stages_have_property
    assert not report.limit_has_property  # the negative test MUST fail
    _report(3, "every stage map is onto yet the limit image is the zero module")


def test_criterion_04_greatest_element_collapse_certified():
    rng = np.random.default_rng(4)
    for trial in range(100):
        system = random_direct_system(rng, max_dim=4)
        assert validate_direct_system(system).passed, trial
        top = greatest_element(system.index)
        pres = direct_limit(system)
        assert pres.module is system.modules[top]
        for i in system.index.explicit_indices():
            assert morphism_deviation(pres.canonical[i], system.map(i, top)) <= TOL
        mediating = dl_universal_factorization(system, Target(pres.module, dict(pres.canonical)))
        for m, f in zip(mediating.matrices, pres.module.fibers):
            assert np.max(np.abs(m - np.eye(f.dim)), initial=0.0) <= TOL

        inverse = random_inverse_system(rng, max_dim=4)
        assert validate_inverse_system(inverse).passed, trial
        itop = greatest_element(inverse.index)
        ipres = inverse_limit(inverse)
        assert ipres.module is inverse.modules[itop]
        for i in inverse.index.explicit_indices():
            assert morphism_deviation(ipres.canonical[i], inverse.map(i, itop)) <= TOL
        imed = il_universal_factorization(inverse, Source(ipres.module, dict(ipres.canonical)))
        for m, f in zip(imed.matrices, ipres.module.fibers):
            assert np.max(np.abs(m - np.eye(f.dim)), initial=0.0) <= TOL
    _report(4, "100 random posets collapse to the top stage, certified both ways")


def test_criterion_05_seminorm_matches_exhaustive_infimum():
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(100):
        system = random_direct_system(rng, max_dim=3)
        elements = system.index.explicit_indices()
        stage = elements[int(rng.integers(0, len(elements)))]
        v = random_element(rng, system.modules[stage])
        fast = dl_seminorm(system, ColimitClass(stage, v)).values
        brute = brute_class_seminorm(system, stage, v)
        assert np.all(np.abs(fast - brute) <= 1e-9), (trial, fast, brute)
        checked += 1
    assert checked == 100
    _report(5, "class seminorm equals the exhaustive representative infimum (100/100)")


def test_criterion_06_pullback_commutes_with_direct_limit():
    rng = np.random.default_rng(6)
    for trial in range(100):
        if trial % 3 == 0:
            system = random_chain_direct_system(rng, max_dim=3, allow_dual=False)
        else:
            system = random_direct_system(rng, max_dim=3)
        atom_map = random_atom_map(rng, system.space)
        report = dl_pullback_iso(atom_map, system)
        assert report.certificate.bijective, trial
        assert report.certificate.max_norm_deviation <= 1e-9, trial
    doc = load_document(str(FIXTURES / "pullback-commute.json"))
    run = run_checks(doc, document_name="pullback-commute.json")
    assert run.exit_code == 0
    _report(6, "pullback/limit comparison is isometric on 100 random instances + fixture")


def test_criterion_07_dual_of_limit_is_limit_of_duals():
    rng = np.random.default_rng(7)
    for trial in range(50):
        if trial % 2 == 0:
            system = random_direct_system(rng, max_dim=3)
        else:
            system = random_chain_direct_system(rng, max_dim=3)
        result = dual_limit_iso(system)
        assert result.certificate.bijective, trial
        assert result.certificate.max_norm_deviation <= 1e-9, (
            trial, result.certificate.max_norm_deviation,
        )
    _report(7, "dual of the limit matches the limit of duals on 50 random systems")


def test_criterion_08_sections_realize_pullback_exactly():
    doc = load_document(str(FIXTURES / "sections-product.json"))
    z = doc.spaces["factor"]
    module = doc.modules["plane2"]
    report = sections_iso(z, module)
    assert report.certificate.ok
    assert report.norm_identity_exact  # equality of floats, not approximation
    assert report.constant_section_matches
    run = run_checks(doc, document_name="sections-product.json")
    assert run.exit_code == 0
    _report(8, "sections over the finite factor realize the pullback, norms exact")


def test_criterion_09_kernel_and_image_preservation_suites():
    rng = np.random.default_rng(9)
    for trial in range(100):
        theta = random_injective_inverse_pair(rng, max_dim=4)
        report = check_injectivity_preservation(theta)
        assert report.stages_have_property and report.limit_has_property, trial
    for trial in range(100):
        theta = random_surjective_system_pair(rng, max_dim=4)
        report = check_surjectivity_preservation(theta)
        assert report.stages_have_property and report.limit_has_property, trial
    # negative counterparts: the backward-scaling fixture must fail, and the
    # direct-limit kernel case is documented as out of representable scope
    doc = load_document(str(FIXTURES / "scaling-surjectivity.json"))
    neg = check_surjectivity_preservation(doc.system_morphisms["Theta"])
    assert neg.stages_have_property and not neg.limit_has_property
    notes = json.loads(render_structured(run_checks(doc, document_name="x")))["notes"]
    assert any("kernel preservation" in n for n in notes)
    _report(9, "kernel/image preservation holds 100/100 each; negatives as designed")


def test_criterion_10_operator_norm_kernel():
    # hand-computed values, exact to 1e-9
    euclid2 = WeightedP(2, (1.0, 1.0))
    val, _ = operator_norm_witness(np.diag([1.0, 0.5]), euclid2, euclid2)
    assert abs(val - 1.0) <= 1e-9
    val, _ = operator_norm_witness(
        np.array([[1.0, 1.0]]), WeightedP(INF, (1.0, 1.0)), WeightedP(1, (1.0,))
    )
    assert abs(val - 2.0) <= 1e-9
    ident = identity_morphism(euclidean_module(AtomicMeasureSpace(["pt"], [1.0]), 3))
    assert np.max(np.abs(operator_pointwise_norm(ident).values - 1.0)) <= 1e-9
    # dense-sampling lower bound with 10^4 unit vectors, 1e-6 relative
    rng = np.random.default_rng(10)
    combos = [
        (WeightedP(1, (1.0, 2.0)), WeightedP(2, (1.0, 1.0, 1.0))),
        (WeightedP(2, (1.0, 0.5)), WeightedP(1, (1.0, 1.0, 2.0))),
        (WeightedP(2, (1.0, 1.0)), WeightedP(2, (1.0, 2.0, 1.0))),
        (WeightedP(INF, (1.0, 1.0)), WeightedP(INF, (1.0, 0.5, 2.0))),
        (WeightedP(1, (1.0, 1.0, 0.5)), WeightedP(INF, (1.0, 1.0))),
        (WeightedP(2, (2.0, 1.0, 1.0)), WeightedP(2, (1.0, 1.0))),
    ]
    for k, (src, tgt) in enumerate(combos):
        mat = rng.standard_normal((tgt.dim, src.dim))
        exact, witness = operator_norm_witness(mat, src, tgt)
        lower = sampled_operator_norm(mat, src, tgt, samples=10_000, seed=100 + k)
        assert lower <= exact + 1e-9, (k, lower, exact)
        assert exact - lower <= 1e-6 * max(1.0, exact), (k, lower, exact)
        from l0limits.norms import norm_eval

        assert abs(norm_eval(tgt, mat @ witness) - exact) <= 1e-9
    _report(10, "operator norms match hand values (1e-9) and sampling (1e-6 rel)")


def test_criterion_11_finitely_generated_round_trip():
    rng = np.random.default_rng(11)
    for trial in range(50):
        space = random_space(rng, max_atoms=4)
        module = random_module(rng, space, max_dim=5, allow_dual=False)
        gens = basis_elements(module)
        rng.shuffle(gens)
        extra = [random_element(rng, module) for _ in range(int(rng.integers(0, 3)))]
        fg = present_as_fg_limit(module, extra + gens)
        assert validate_direct_system(fg.system).passed, trial
        presentation = direct_limit(fg.system)
        assert presentation.module.dims() == module.dims()
        for m, f in zip(fg.isomorphism.matrices, module.fibers):
            assert np.max(np.abs(m - np.eye(f.dim)), initial=0.0) <= 1e-9, trial
    _report(11, "50 random modules round-trip through their generated chains via identity")
