import numpy as np
import pytest

from l0limits.config import tolerance_override
from l0limits.direct import DirectSystem
from l0limits.errors import ValidationError
from l0limits.indexsets import Chain, FinitePoset, HarmonicTail, ScalarTail
from l0limits.inverse import InverseSystem
from l0limits.measure import AtomMap, AtomicMeasureSpace, L0Function, identity_atom_map
from l0limits.modules import (
    Element,
    ModuleMorphism,
    apply,
    basis_elements,
    euclidean_module,
    identity_morphism,
    morphism_deviation,
    pointwise_norm,
)
from l0limits.pullback import (
    constant_section,
    dl_pullback_iso,
    il_pullback_compare,
    product_projection,
    product_space,
    pullback_module,
    pullback_morphism,
    sections_iso,
    sections_module,
)
from l0limits.randgen import (
    random_atom_map,
    random_chain_direct_system,
    random_direct_system,
    random_element,
    random_inverse_system,
    random_module,
    random_space,
)

Y = AtomicMeasureSpace(["y0", "y1"], [1.0, 2.0])
X = AtomicMeasureSpace(["x0", "x1", "x2"], [1.0, 1.0, 1.0])
COVER = AtomMap(X, Y, {"x0": "y0", "x1": "y1", "x2": "y1"})


def test_pullback_identity_map():
    module = euclidean_module(Y, 2)
    pulled = pullback_module(identity_atom_map(Y), module)
    assert pulled.module == module
    v = Element(module, [[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(
        np.concatenate(pulled.pull_element(v).coords), np.concatenate(v.coords)
    )


def test_pullback_constant_map_copies_fiber():
    pt = AtomicMeasureSpace(["c"], [5.0])
    module = euclidean_module(pt, 2)
    two = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])
    const = AtomMap(two, pt, {"a": "c", "b": "c"})
    pulled = pullback_module(const, module)
    assert pulled.module.dims() == (2, 2)
    v = Element(module, [[3.0, 4.0]])
    pv = pulled.pull_element(v)
    assert pointwise_norm(pv).values.tolist() == [5.0, 5.0]


def test_pullback_reindexes_dims():
    one = AtomicMeasureSpace(["a"], [1.0])
    target = AtomicMeasureSpace(["c", "d"], [1.0, 1.0])
    module_fibers = euclidean_module(target, 2).fibers[0], euclidean_module(target, 3).fibers[1]
    from l0limits.modules import FiberModule

    mixed = FiberModule(target, (module_fibers[0], module_fibers[1]))
    pulled = pullback_module(AtomMap(one, target, {"a": "c"}), mixed)
    assert pulled.module.dims() == (2,)


def test_pullback_norm_identity_exact():
    rng = np.random.default_rng(0)
    module = random_module(rng, Y, max_dim=3)
    pulled = pullback_module(COVER, module)
    for _ in range(10):
        v = random_element(rng, module)
        lhs = pointwise_norm(pulled.pull_element(v)).values
        rhs = pulled.pull_function(pointwise_norm(v)).values
        assert np.array_equal(lhs, rhs)  # reindexing introduces no arithmetic


def test_pullback_morphism_square_commutes_exactly():
    rng = np.random.default_rng(1)
    module = random_module(rng, Y, max_dim=3)
    other = random_module(rng, Y, max_dim=3)
    from l0limits.randgen import random_admissible_morphism

    phi = random_admissible_morphism(rng, module, other)
    pulled_phi = pullback_morphism(COVER, phi)
    src = pullback_module(COVER, module)
    tgt = pullback_module(COVER, other)
    for _ in range(5):
        v = random_element(rng, module)
        left = tgt.pull_element(apply(phi, v))
        right = apply(pulled_phi, src.pull_element(v))
        assert all(np.array_equal(a, b) for a, b in zip(left.coords, right.coords))


def test_pullback_functorial():
    module = euclidean_module(Y, 2)
    ident = pullback_morphism(COVER, identity_morphism(module))
    for m in ident.matrices:
        assert np.array_equal(m, np.eye(2))
    rng = np.random.default_rng(2)
    from l0limits.modules import compose
    from l0limits.randgen import random_admissible_morphism

    m2 = random_module(rng, Y, max_dim=2)
    m3 = random_module(rng, Y, max_dim=2)
    phi = random_admissible_morphism(rng, module, m2)
    psi = random_admissible_morphism(rng, m2, m3)
    lhs = pullback_morphism(COVER, compose(psi, phi))
    rhs = compose(pullback_morphism(COVER, psi), pullback_morphism(COVER, phi))
    assert morphism_deviation(lhs, rhs) == 0.0


def test_pullback_generates():
    rng = np.random.default_rng(3)
    module = random_module(rng, Y, max_dim=3)
    pulled = pullback_module(COVER, module)
    from l0limits.modules import submodule_generated

    gens = [pulled.pull_element(v) for v in basis_elements(module)]
    span, _ = submodule_generated(pulled.module, gens)
    assert span.dims() == pulled.module.dims()


def test_pullback_requires_measure_compatibility():
    module = euclidean_module(Y, 1)
    with pytest.raises(ValidationError):
        pullback_module(COVER, euclidean_module(X, 1))


def test_product_space_weights():
    z = AtomicMeasureSpace(["z0", "z1"], [2.0, 3.0])
    prod = product_space(z, Y)
    assert prod.atom_ids == ("z0|y0", "z0|y1", "z1|y0", "z1|y1")
    assert prod.weights.tolist() == [2.0, 4.0, 3.0, 6.0]


def test_sections_iso_singleton_factor():
    z = AtomicMeasureSpace(["only"], [1.0])
    module = euclidean_module(Y, 2)
    report = sections_iso(z, module)
    assert report.ok
    assert report.sections_module.dims() == module.dims()


def test_sections_iso_certifies_and_norm_identity():
    z = AtomicMeasureSpace(["z0", "z1"], [1.0, 2.0])
    rng = np.random.default_rng(4)
    module = random_module(rng, Y, max_dim=3)
    report = sections_iso(z, module)
    assert report.ok
    assert report.norm_identity_exact
    assert report.constant_section_matches
    # spot check the norm identity by hand
    v = random_element(rng, module)
    tv = constant_section(z, module, v)
    norms = pointwise_norm(tv).values
    base = pointwise_norm(v).values
    assert np.array_equal(norms, np.concatenate([base, base]))


def test_dl_pullback_iso_singleton_system():
    module = euclidean_module(Y, 2)
    sys_ = DirectSystem(FinitePoset(["0"], []), {"0": module}, {})
    report = dl_pullback_iso(COVER, sys_)
    assert report.ok
    assert report.limit_of_pulled.module.dims() == (2, 2, 2)


def test_dl_pullback_iso_two_stage():
    module = euclidean_module(Y, 2)
    proj = ModuleMorphism(module, module, [np.array([[1.0, 0.0], [0.0, 0.0]])] * 2)
    sys_ = DirectSystem(
        FinitePoset(["0", "1"], [("0", "1")]),
        {"0": module, "1": module},
        {("0", "1"): proj},
    )
    report = dl_pullback_iso(COVER, sys_)
    assert report.ok


def test_dl_pullback_iso_scalar_tail_mask_transport():
    module = euclidean_module(Y, 2)
    tail = ScalarTail(L0Function(Y, [1.0, 0.5]))
    sys_ = DirectSystem(
        Chain(2, tail), {0: module, 1: module},
        {(0, 1): identity_morphism(module)},
    )
    report = dl_pullback_iso(COVER, sys_)
    assert report.ok
    # mask (1, 0.5) over Y transports along the two-to-one cover
    assert report.limit_of_pulled.module.dims() == (2, 0, 0)
    assert report.pulled_limit.dims() == (2, 0, 0)


def test_dl_pullback_iso_randomized():
    rng = np.random.default_rng(5)
    for k in range(10):
        if k % 2:
            sys_ = random_direct_system(rng, max_dim=3)
        else:
            sys_ = random_chain_direct_system(rng, max_dim=3)
        atom_map = random_atom_map(rng, sys_.space)
        report = dl_pullback_iso(atom_map, sys_)
        assert report.ok, report.certificate


def test_il_pullback_compare_identity_map():
    sys_ = random_inverse_system(np.random.default_rng(6))
    report = il_pullback_compare(identity_atom_map(sys_.space), sys_)
    assert report.ok
    assert "corpus" in report.note


def test_il_pullback_compare_harmonic_collapse():
    module = euclidean_module(Y, 2)
    sys_ = InverseSystem(
        Chain(2, HarmonicTail()), {0: module, 1: module},
        {(0, 1): ModuleMorphism(module, module, [0.5 * np.eye(2)] * 2)},
    )
    report = il_pullback_compare(COVER, sys_)
    assert report.ok
    assert report.limit_of_pulled.module.dims() == (0, 0, 0)


def test_alternative_couple_mediates_uniquely():
    from l0limits.pullback import certify_alternative_couple

    rng = np.random.default_rng(7)
    module = euclidean_module(Y, 2)
    pulled = pullback_module(COVER, module)
    # alternative realization: rotate each pulled fiber by an orthogonal
    # matrix (Euclidean norms are rotation invariant, so both defining
    # properties still hold)
    rotations = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in X.atom_ids]

    def transport(v):
        plain = pulled.pull_element(v)
        return Element(pulled.module, [r @ c for r, c in zip(rotations, plain.coords)])

    report = certify_alternative_couple(pulled, pulled.module, transport)
    assert report.ok
    for m, r in zip(report.mediating.matrices, rotations):
        assert np.allclose(m, r)


def test_alternative_couple_flags_norm_break():
    from l0limits.pullback import certify_alternative_couple

    module = euclidean_module(Y, 2)
    pulled = pullback_module(COVER, module)

    def squash(v):
        plain = pulled.pull_element(v)
        return Element(pulled.module, [0.5 * c for c in plain.coords])

    report = certify_alternative_couple(pulled, pulled.module, squash)
    assert not report.ok
    assert not report.certificate.ok


def test_alternative_couple_flags_a_transport_that_is_not_additive(monkeypatch):
    """``v -> v |v|`` atom by atom fixes every basis element, so its forced
    mediating morphism is the identity; the sum of the basis elements shows
    that it is no linear transport, with no random draw."""
    from l0limits.pullback import certify_alternative_couple

    module = euclidean_module(Y, 2)
    pulled = pullback_module(COVER, module)

    def stretch(v):
        plain = pulled.pull_element(v)
        return Element(pulled.module, [c * np.linalg.norm(c) for c in plain.coords])

    def no_draws(*args, **kwargs):
        raise AssertionError("random draw")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    report = certify_alternative_couple(pulled, pulled.module, stretch)
    assert report.certificate.ok
    assert all(np.array_equal(m, np.eye(2)) for m in report.mediating.matrices)
    assert report.max_transport_deviation == pytest.approx(np.sqrt(2.0) - 1.0)
    assert not report.ok


def test_a_couple_is_decided_under_the_tolerance_it_is_certified_at():
    """``ok`` is decided at certification: a couple certified under a wider
    tolerance keeps its verdict when the tolerance is back to the default."""
    from l0limits.pullback import certify_alternative_couple

    module = euclidean_module(Y, 2)
    pulled = pullback_module(COVER, module)

    def bent(v):
        # Exact on each basis element, where one coordinate is zero; off by
        # 2e-6 on their sum, so it is not additive.
        plain = pulled.pull_element(v)
        return Element(pulled.module, [c + 2e-6 * c[0] * c[1] for c in plain.coords])

    with tolerance_override(1e-5):
        report = certify_alternative_couple(pulled, pulled.module, bent)
        assert report.ok
    assert report.max_transport_deviation == pytest.approx(2e-6)
    assert report.ok


def test_il_pullback_compare_two_stage_poset():
    module = euclidean_module(Y, 2)
    proj = ModuleMorphism(module, module, [np.array([[1.0, 0.0], [0.0, 0.0]])] * 2)
    sys_ = InverseSystem(
        FinitePoset(["0", "1"], [("0", "1")]),
        {"0": module, "1": module},
        {("0", "1"): proj},
    )
    report = il_pullback_compare(COVER, sys_)
    assert report.ok


@pytest.mark.parametrize("compare,build", [
    (dl_pullback_iso, random_chain_direct_system),
    (dl_pullback_iso, random_direct_system),
    (il_pullback_compare, random_inverse_system),
], ids=["direct-chain", "direct-poset", "inverse-poset"])
def test_pullback_comparison_pulls_each_stage_back_once(monkeypatch, compare, build):
    """One ``pullback_module`` per explicit stage, shared by the pulled-back
    system and the cone over the pulled-back limit, plus one for the limit."""
    import l0limits.pullback as pullback

    rng = np.random.default_rng(11)
    system = build(rng)
    atom_map = random_atom_map(rng, system.space)
    pulled = []

    def counted(atom_map, module):
        pulled.append(module)
        return pullback_module(atom_map, module)

    monkeypatch.setattr(pullback, "pullback_module", counted)
    assert compare(atom_map, system).ok
    assert len(pulled) == len(system.index.explicit_indices()) + 1
