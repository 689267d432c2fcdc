import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l0limits.modules as modules
import l0limits.norms as norms
from l0limits.direct import (
    DirectSystem,
    SystemMorphism,
    Target,
    direct_limit,
    dl_functor,
    dl_universal_factorization,
)
from l0limits.errors import (
    BracketTooWideError,
    KernelLimitError,
    DimensionCapError,
    NonFiniteError,
    ShapeMismatchError,
    SpaceMismatchError,
)
from l0limits.indexsets import Chain, FinitePoset, ScalarTail
from l0limits.inverse import (
    InverseSystem,
    Source,
    dual_limit_iso,
    hom_inverse_system,
    il_universal_factorization,
    inverse_limit,
)
from l0limits.measure import AtomicMeasureSpace, L0Function
from l0limits.modules import (
    Element,
    Fiber,
    FiberModule,
    ModuleMorphism,
    apply,
    basis_elements,
    certify_isometric_iso,
    compose,
    composite_deviation,
    euclidean_module,
    identity_morphism,
    is_morphism,
    kernel_image,
    mask_inclusion,
    mask_module,
    module_distance,
    morphism_deviation,
    operator_norm_witnesses,
    operator_pointwise_norm,
    pointwise_norm,
    scalar_module,
    scale_morphism,
    submodule_generated,
    zero_element,
    zero_morphism,
)
from l0limits.homdual import adjoint, hom_module
from l0limits.norms import INF, FramedP, WeightedP, norm_eval
from l0limits.pullback import pullback_module
from l0limits.randgen import (
    random_admissible_morphism,
    random_atom_map,
    random_chain_direct_system,
    random_direct_system,
    random_module,
    random_space,
)

from oracles import reference_certify_isometric_iso


TWO = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])
PLANE = euclidean_module(TWO, 2)


def test_pointwise_norm_zero_element():
    assert pointwise_norm(zero_element(PLANE)).values.tolist() == [0.0, 0.0]


def test_pointwise_norm_euclidean_values():
    v = Element(PLANE, [[3.0, 4.0], [0.0, 1.0]])
    assert pointwise_norm(v).values.tolist() == [5.0, 1.0]


def test_pointwise_norm_function_scaling():
    v = Element(PLANE, [[3.0, 4.0], [1.0, 1.0]])
    f = L0Function(TWO, [2.0, 0.0])
    scaled = v.scale_fn(f)
    base = pointwise_norm(v).values
    assert pointwise_norm(scaled).values.tolist() == [2.0 * base[0], 0.0]


def test_module_distance_examples():
    v = Element(PLANE, [[1.0, 1.0], [0.0, 0.0]])
    assert module_distance(v, v) == 0.0
    single = euclidean_module(AtomicMeasureSpace(["pt"], [1.0]), 1)
    assert module_distance(
        Element(single, [[0.0]]), Element(single, [[3.0]])
    ) == pytest.approx(1.0)
    w = Element(PLANE, [[0.5, 0.0], [2.0, 0.0]])
    z = zero_element(PLANE)
    assert module_distance(w, z) == pytest.approx(0.75)


def test_apply_identity_and_swap():
    v = Element(PLANE, [[3.0, 4.0], [1.0, 2.0]])
    assert apply(identity_morphism(PLANE), v).coords[0].tolist() == [3.0, 4.0]
    swap = ModuleMorphism(PLANE, PLANE, [np.array([[0, 1], [1, 0]])] * 2)
    assert apply(swap, v).coords[0].tolist() == [4.0, 3.0]


def test_compose_identity_law():
    swap = ModuleMorphism(PLANE, PLANE, [np.array([[0, 1], [1, 0]])] * 2)
    left = compose(swap, identity_morphism(PLANE))
    right = compose(identity_morphism(PLANE), swap)
    for m, n in zip(left.matrices, right.matrices):
        assert np.array_equal(m, n)


@settings(max_examples=40)
@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4))
def test_apply_is_function_linear(a0, a1, f0, f1):
    phi = ModuleMorphism(PLANE, PLANE, [np.array([[1.0, 2.0], [0.0, 1.0]])] * 2)
    v = Element(PLANE, [[a0, a1], [a1, a0]])
    f = L0Function(TWO, [f0, f1])
    lhs = apply(phi, v.scale_fn(f))
    rhs = apply(phi, v).scale_fn(f)
    for x, y in zip(lhs.coords, rhs.coords):
        assert np.allclose(x, y)


def test_operator_pointwise_norm_identity():
    assert operator_pointwise_norm(identity_morphism(PLANE)).values.tolist() == [1.0, 1.0]


def test_operator_pointwise_norm_diag():
    single = euclidean_module(AtomicMeasureSpace(["pt"], [1.0]), 2)
    phi = ModuleMorphism(single, single, [np.diag([1.0, 0.5])])
    assert operator_pointwise_norm(phi).values.tolist() == [1.0]


def test_operator_pointwise_norm_box_to_abs():
    pt = AtomicMeasureSpace(["pt"], [1.0])
    box = FiberModule(pt, (Fiber(2, WeightedP(INF, (1, 1))),))
    line = FiberModule(pt, (Fiber(1, WeightedP(1, (1.0,))),))
    phi = ModuleMorphism(box, line, [np.array([[1.0, 1.0]])])
    assert operator_pointwise_norm(phi).values.tolist() == [2.0]


def test_is_morphism():
    assert is_morphism(identity_morphism(PLANE))
    double = ModuleMorphism(PLANE, PLANE, [2.0 * np.eye(2)] * 2)
    assert not is_morphism(double)
    single = euclidean_module(AtomicMeasureSpace(["pt"], [1.0]), 2)
    assert is_morphism(ModuleMorphism(single, single, [np.diag([1.0, 0.5])]))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_morphism_bound_and_submultiplicativity(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    m1 = random_module(rng, space, max_dim=3)
    m2 = random_module(rng, space, max_dim=3)
    m3 = random_module(rng, space, max_dim=3)
    phi = random_admissible_morphism(rng, m1, m2)
    psi = random_admissible_morphism(rng, m2, m3)
    np_phi = operator_pointwise_norm(phi).values
    np_psi = operator_pointwise_norm(psi).values
    np_comp = operator_pointwise_norm(compose(psi, phi)).values
    assert np.all(np_comp <= np_psi * np_phi + 1e-9)
    v = Element(m1, [rng.standard_normal(f.dim) for f in m1.fibers])
    assert np.all(
        pointwise_norm(apply(phi, v)).values
        <= np_phi * pointwise_norm(v).values + 1e-9
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_operator_norm_witness_is_sharp(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    src = random_module(rng, space, max_dim=3)
    tgt = random_module(rng, space, max_dim=3)
    phi = random_admissible_morphism(rng, src, tgt)
    values = operator_pointwise_norm(phi).values
    for a, (val, wit) in enumerate(operator_norm_witnesses(phi)):
        assert val == pytest.approx(values[a])
        if wit is None:
            continue
        assert norm_eval(src.fibers[a].norm, wit) == pytest.approx(1.0, abs=1e-9)
        assert norm_eval(tgt.fibers[a].norm, phi.matrices[a] @ wit) == pytest.approx(
            val, abs=1e-9
        )


def test_submodule_full_span_is_module():
    sub, inc = submodule_generated(PLANE, basis_elements(PLANE))
    assert sub.dims() == PLANE.dims()
    for m in inc.matrices:
        assert np.array_equal(m, np.eye(2))
    assert sub.fibers[0].norm is PLANE.fibers[0].norm


def test_submodule_zero_generator():
    sub, _ = submodule_generated(PLANE, [zero_element(PLANE)])
    assert sub.dims() == (0, 0)


def test_submodule_partial_rank():
    gen = Element(PLANE, [[1.0, 0.0], [0.0, 0.0]])
    sub, inc = submodule_generated(PLANE, [gen])
    assert sub.dims() == (1, 0)
    assert operator_pointwise_norm(inc).values[0] == pytest.approx(1.0)


def test_submodule_distance_matches_parent():
    rng = np.random.default_rng(8)
    module = random_module(rng, TWO, max_dim=3)
    gens = [Element(module, [rng.standard_normal(f.dim) for f in module.fibers])
            for _ in range(2)]
    sub, inc = submodule_generated(module, gens)
    v = Element(sub, [rng.standard_normal(f.dim) for f in sub.fibers])
    w = Element(sub, [rng.standard_normal(f.dim) for f in sub.fibers])
    assert module_distance(v, w) == pytest.approx(
        module_distance(apply(inc, v), apply(inc, w)), abs=1e-12
    )


def test_kernel_image_identity_and_zero():
    ki = kernel_image(identity_morphism(PLANE))
    assert ki.kernel.dims() == (0, 0)
    assert ki.image.dims() == PLANE.dims()
    zero = ModuleMorphism(PLANE, PLANE, [np.zeros((2, 2))] * 2)
    kz = kernel_image(zero)
    assert kz.kernel.dims() == PLANE.dims()
    assert kz.image.dims() == (0, 0)


def test_kernel_image_rank_one_projection():
    single = euclidean_module(AtomicMeasureSpace(["pt"], [1.0]), 2)
    phi = ModuleMorphism(single, single, [np.array([[1.0, 0.0], [0.0, 0.0]])])
    ki = kernel_image(phi)
    assert ki.kernel.dims() == (1,)
    assert ki.image.dims() == (1,)
    assert is_morphism(ki.kernel_inclusion)
    assert is_morphism(ki.image_inclusion)


def test_element_shape_validation():
    with pytest.raises(ShapeMismatchError):
        Element(PLANE, [[1.0], [1.0, 2.0]])
    other = euclidean_module(TWO, 3)
    with pytest.raises(SpaceMismatchError):
        Element(PLANE, [[1, 2], [3, 4]]) + Element(other, [[1, 2, 3], [4, 5, 6]])


def test_scalar_module_norm_is_absolute_value():
    ring = scalar_module(TWO)
    v = Element(ring, [[-3.0], [2.0]])
    assert pointwise_norm(v).values.tolist() == [3.0, 2.0]


def test_public_construction_copies_and_products_are_read_only():
    raw = np.array([[1.0, 2.0], [0.0, 1.0]])
    phi = ModuleMorphism(PLANE, PLANE, [raw, raw])
    raw[0, 0] = 5.0
    assert phi.matrices[0][0, 0] == 1.0
    for derived in (compose(phi, phi), scale_morphism(phi, 0.5),
                    scale_morphism(phi, L0Function(TWO, [2.0, 3.0]))):
        for m in derived.matrices:
            assert not m.flags.writeable
            assert not np.shares_memory(m, phi.matrices[0])
            assert not np.shares_memory(m, phi.matrices[1])
    assert np.array_equal(compose(phi, phi).matrices[1], phi.matrices[1] @ phi.matrices[1])


def _hom_comparisons(seeds):
    """The comparison maps of seeded Hom-limit and dual-limit checks, over
    chains and posets, plus a scaled and a zero variant of each so that
    failing certificates are compared too."""
    for seed in seeds:
        for make in (random_chain_direct_system, random_direct_system):
            rng = np.random.default_rng(seed)
            system = make(rng, max_dim=2)
            fixed = random_module(rng, system.space, max_dim=2)
            results = (
                hom_inverse_system(system, fixed),
                dual_limit_iso(system),
            )
            for result in results:
                phi = result.comparison
                yield phi
                yield scale_morphism(phi, 1.0 + 1e-3)
                yield zero_morphism(phi.source, phi.target)


def _sqrt_psd(mat):
    """The symmetric square root of a symmetric positive definite matrix."""
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(w)) @ v.T


def _quadratic_null_form(probes):
    """A symmetric S of spectral norm one with ``x^T S x = 0`` on every probe
    row: a null vector of the linear map from the d(d+1)/2 entries of S to
    the probes' quadratic forms."""
    d = probes.shape[1]
    upper = np.triu_indices(d)
    weight = np.where(upper[0] == upper[1], 1.0, 2.0)
    forms = probes[:, upper[0]] * probes[:, upper[1]] * weight
    coeffs = np.linalg.svd(forms)[2][-1]
    s = np.zeros((d, d))
    s[upper] = coeffs
    s = s + np.triu(s, 1).T
    return s / np.linalg.norm(s, 2)


def test_certify_isometric_iso_refuses_a_map_that_keeps_the_old_probe_norms():
    """The sampled certificate compared norms on the five basis vectors and
    eight draws of ``default_rng(0)``.  ``m = sqrt(I + tS)`` with S null on
    all thirteen keeps every one of those norms, yet it is no isometry."""
    probes = np.vstack([np.eye(5), np.random.default_rng(0).standard_normal((8, 5))])
    m = _sqrt_psd(np.eye(5) + 0.3 * _quadratic_null_form(probes))
    fiber = euclidean_module(AtomicMeasureSpace(["pt"], [1.0]), 5)
    euclid = fiber.fibers[0].norm
    assert np.allclose(norms.norm_rows(euclid, probes @ m.T), norms.norm_rows(euclid, probes),
                       rtol=0.0, atol=1e-12)
    cert = certify_isometric_iso(ModuleMorphism(fiber, fiber, [m]))
    assert cert.bijective and not cert.ok
    stretch = max(np.linalg.norm(m, 2), np.linalg.norm(np.linalg.inv(m), 2))
    assert cert.max_norm_deviation == pytest.approx(stretch - 1.0, rel=1e-12)
    # S has an eigenvalue +-1, so m or its inverse stretches by sqrt(1.3)
    # or 1 / sqrt(0.7).
    assert cert.max_norm_deviation >= np.sqrt(1.3) - 1.0 - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000), st.floats(0.01, 0.9))
def test_non_isometric_square_roots_are_never_certified(dim, seed, t):
    """``sqrt(I + tS)`` with symmetric ``S != 0`` stretches an eigenvector of
    S, so it is refused whatever S is null on."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim))
    s = raw + raw.T
    s /= np.linalg.norm(s, 2)
    module = euclidean_module(AtomicMeasureSpace(["pt"], [1.0]), dim)
    cert = certify_isometric_iso(ModuleMorphism(module, module, [_sqrt_psd(np.eye(dim) + t * s)]))
    # An eigenvalue of S is +1 or -1, so |m| = sqrt(1 + t) or
    # |m^-1| = 1 / sqrt(1 - t), the larger of the two.
    assert cert.bijective and not cert.ok
    assert cert.max_norm_deviation >= np.sqrt(1.0 + t) - 1.0 - 1e-12


def _isometry(p, dim, rng):
    """A member of the isometry group of the unit-weight p-norm: an
    orthogonal matrix for p=2, a signed permutation for p=1 and p=inf."""
    if p == 2:
        return np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], size=dim)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, INF]), st.integers(1, 5), st.integers(0, 10_000))
def test_isometry_group_members_are_certified(p, dim, seed):
    rng = np.random.default_rng(seed)
    space = AtomicMeasureSpace(["a", "b"], [1.0, 2.0])
    module = FiberModule(space, (Fiber(dim, WeightedP(p, np.ones(dim))),) * 2)
    phi = ModuleMorphism(module, module, [_isometry(p, dim, rng) for _ in range(2)])
    cert = certify_isometric_iso(phi)
    assert cert.ok and cert.bijective, cert
    assert cert.max_norm_deviation <= 1e-12


#: A power of two, so that ``1 + TOL`` and ``1 - TOL`` are floats and the
#: boundary of the scalar rule is exact.
POW2_TOL = 2.0 ** -30


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([WeightedP(1, (1.0, 3.0)), WeightedP(2, (0.5, 2.0)), WeightedP(INF, (1.0, 1.0)),
                     FramedP(1, [[1.0, 0.3], [0.0, 1.0], [2.0, -1.0]])]),
    st.one_of(st.sampled_from([0.0, POW2_TOL, -POW2_TOL]),
              st.floats(-4 * POW2_TOL, 4 * POW2_TOL), st.floats(-0.5, 3.0)),
    st.booleans(),
)
def test_scalar_maps_are_certified_exactly_within_the_tolerance(norm, delta, negative):
    c = (-1.0 if negative else 1.0) * (1.0 + delta)
    module = FiberModule(AtomicMeasureSpace(["pt"], [1.0]), (Fiber(2, norm),))
    cert = certify_isometric_iso(ModuleMorphism(module, module, [c * np.eye(2)]), tol=POW2_TOL)
    assert cert.bijective
    assert cert.ok == (abs(abs(c) - 1.0) <= POW2_TOL)


def _evaluated(certify, phi):
    try:
        return certify(phi)
    except KernelLimitError:
        return None


def _takes_scalar_rule(phi) -> bool:
    """Whether some atom of ``phi`` is ``c I`` between equal fiber norms."""
    return any(
        s.dim and s.norm == t.norm and np.array_equal(m, m[0, 0] * np.eye(s.dim))
        for m, s, t in zip(phi.matrices, phi.source.fibers, phi.target.fibers)
    )


def test_certify_isometric_iso_matches_atom_loop():
    """The certificate of the witness loop, bit for bit, wherever the loop
    evaluates: seeded Hom and dual comparisons with scaled and zero
    variants, and maps no scalar rule covers, isometric or not.  The
    witness takes the scalar rule as the batch does; a map between Hom
    fibers that is no multiple of the identity is left to the bracket,
    which the loop cannot certify."""
    rng = np.random.default_rng(3)
    space = AtomicMeasureSpace(["a", "b", "c"], [1.0, 1.0, 1.0])
    module = FiberModule(space, (
        Fiber(2, WeightedP(1, (1.0, 1.0))),
        Fiber(3, WeightedP(2, (1.0, 1.0, 1.0))),
        Fiber(2, WeightedP(INF, (1.0, 1.0))),
    ))
    plain = [
        ModuleMorphism(module, module, [
            _isometry(p, f.dim, rng) for p, f in zip((1, 2, INF), module.fibers)
        ])
        for _ in range(4)
    ]
    plain += [scale_morphism(phi, 1.0 + 1e-3) for phi in plain]
    plain.append(ModuleMorphism(module, module, [
        np.eye(2)[::-1], _sqrt_psd(np.eye(3) + 0.2 * np.diag([1.0, -1.0, 0.0])), -np.eye(2)[::-1],
    ]))
    hom = hom_module(euclidean_module(space, 2), euclidean_module(space, 3))
    swap = np.eye(6)[[1, 0, 2, 3, 4, 5]]
    plain.append(ModuleMorphism(hom, hom, [np.eye(6), swap, -np.eye(6)]))
    counts = {"exact": 0, "scalar rule": 0, "skipped": 0}
    for phi in [*_hom_comparisons(range(12)), *plain]:
        want = _evaluated(reference_certify_isometric_iso, phi)
        if want is None:
            counts["skipped"] += 1
            continue
        assert certify_isometric_iso(phi) == want
        counts["scalar rule" if _takes_scalar_rule(phi) else "exact"] += 1
    assert sum(counts.values()) == 12 * 2 * 2 * 3 + len(plain)
    assert min(counts.values()) > 0, counts


def test_certificate_kernel_errors_are_located_at_their_atom():
    """A map between Hom fibers that is no scalar multiple of the identity
    goes to the kernel, whose error names its atom; the identity there is
    certified by the scalar rule."""
    space = AtomicMeasureSpace(["a", "wide"], [1.0, 1.0])
    plane = euclidean_module(space, 2)
    hom = hom_module(plane, euclidean_module(space, 3))
    swap = np.eye(6)[[1, 0, 2, 3, 4, 5]]
    assert certify_isometric_iso(identity_morphism(hom)).ok
    with pytest.raises(BracketTooWideError) as raised:
        certify_isometric_iso(ModuleMorphism(hom, hom, [np.eye(6), swap]))
    assert raised.value.atom == "wide"


def test_non_bijective_maps_have_infinite_deviation():
    zero = zero_morphism(PLANE, PLANE)
    cert = certify_isometric_iso(zero)
    assert (cert.ok, cert.bijective, cert.max_norm_deviation) == (False, False, INF)


def test_certify_isometric_iso_makes_no_per_vector_norm_calls(monkeypatch):
    """Hom fibers over three atoms take the vertex, facet and spectral
    kernels; the certificate evaluates them without a per-vector call."""
    space = AtomicMeasureSpace(["a", "b", "c"], [1.0, 1.0, 1.0])
    frame = np.array([[1.0, 0.3], [0.0, 1.0]])
    source = FiberModule(space, (
        Fiber(2, WeightedP(1, (1.0, 2.0))),
        Fiber(2, WeightedP(2, (1.0, 2.0))),
        Fiber(2, FramedP(2, frame)),
    ))
    fixed = FiberModule(space, (
        Fiber(2, FramedP(2, frame)),
        Fiber(2, WeightedP(INF, (1.0, 0.5))),
        Fiber(2, WeightedP(2, (2.0, 1.0))),
    ))
    system = DirectSystem(FinitePoset(["0"], []), {"0": source}, {})
    phi = hom_inverse_system(system, fixed).comparison
    paths = {norms.kernel_path(f.norm.source_spec, f.norm.target_spec) for f in phi.source.fibers}
    assert paths == {"vertex", "facet", "spectral"}

    def forbidden(*args, **kwargs):
        raise AssertionError("per-vector norm call")

    monkeypatch.setattr(modules, "pointwise_norm", forbidden)
    monkeypatch.setattr(modules, "operator_norm_witness", forbidden)
    monkeypatch.setattr(norms, "operator_norm_witness", forbidden)
    assert certify_isometric_iso(phi).ok
    assert not certify_isometric_iso(scale_morphism(phi, 2.0)).ok


def test_element_copies_its_coordinates():
    c = np.array([1.0, 2.0])
    v = Element(PLANE, [c, c])
    c[0] = 9.0
    assert v.coords[0].tolist() == [1.0, 2.0]
    assert v.coords[1].tolist() == [1.0, 2.0]
    assert not np.shares_memory(v.coords[0], v.coords[1])
    w = Element(PLANE, [[0.5, 0.0], [1.0, -1.0]])
    phi = ModuleMorphism(PLANE, PLANE, [np.eye(2), 2.0 * np.eye(2)])
    derived = (v + w, v - w, -v, v.scale(2.0), v.scale_fn(L0Function(TWO, [2.0, 3.0])),
               apply(phi, v))
    for u in derived:
        for a, coords in enumerate(u.coords):
            assert not coords.flags.writeable
            assert not np.shares_memory(coords, v.coords[a])
            assert not np.shares_memory(coords, w.coords[a])
    assert apply(phi, v).coords[1].tolist() == [2.0, 4.0]


def _chains(seed):
    """Two chains of one to three random factors with common ends."""
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    count = 1 + seed % 3
    modules_ = [random_module(rng, space) for _ in range(count + 1)]

    def chain():
        # Outermost factor first: modules_[k+1] <- modules_[k].
        return [random_admissible_morphism(rng, modules_[k], modules_[k + 1])
                for k in reversed(range(count))]

    left = chain()
    right = chain() if seed % 2 else [scale_morphism(f, 1.0 + 1e-9 * (seed % 5)) for f in left]
    return left, right


def test_composite_deviation_equals_deviation_of_composites():
    for seed in range(60):
        left, right = _chains(seed)
        want = morphism_deviation(functools.reduce(compose, left), functools.reduce(compose, right))
        assert composite_deviation(left, right) == want
        assert composite_deviation(left[:1], left[:1]) == 0.0
        # Both factor counts may differ, as long as the ends agree.
        whole = functools.reduce(compose, right)
        assert composite_deviation(left, [whole]) == want


def test_composite_deviation_raises_like_compose():
    left, right = _chains(2)
    assert len(left) == 3
    with pytest.raises(ShapeMismatchError, match="composition endpoints"):
        composite_deviation(left[::-1], right)
    with pytest.raises(ShapeMismatchError, match="incompatible shapes"):
        composite_deviation(left, right[:1])


def test_nan_deviation_is_not_lost():
    nan_map = ModuleMorphism(PLANE, PLANE, [np.full((2, 2), np.nan), np.eye(2)], _fresh=True)
    ident = identity_morphism(PLANE)
    assert np.isnan(morphism_deviation(nan_map, ident))
    assert np.isnan(composite_deviation((ident, nan_map), (ident,)))


@pytest.mark.parametrize("make", [
    lambda: L0Function(TWO, [np.nan, 1.0]),
    lambda: Element(PLANE, [[1.0, np.inf], [0.0, 0.0]]),
    lambda: ModuleMorphism(PLANE, PLANE, [np.eye(2), [[np.nan, 0.0], [0.0, 0.5]]]),
    lambda: AtomicMeasureSpace(["a", "b"], [1.0, np.inf]),
], ids=["function", "element", "morphism", "space"])
def test_non_finite_input_is_rejected(make):
    with pytest.raises(NonFiniteError, match="'b'|not finite"):
        make()


def test_kernel_errors_name_the_atom():
    space = AtomicMeasureSpace(["a", "wide"], [1.0, 1.0])
    plane = euclidean_module(space, 2)
    hom = hom_module(plane, euclidean_module(space, 3))
    # Diagonals that are no multiple of the identity (that one is normed exactly).
    phi = ModuleMorphism(hom, hom, [np.zeros((6, 6)), np.diag(np.arange(1.0, 7.0))])
    with pytest.raises(BracketTooWideError) as raised:
        operator_pointwise_norm(phi)
    assert raised.value.atom == "wide"
    assert "'wide'" in str(raised.value)
    assert raised.value.lower <= raised.value.upper

    box = Fiber(13, WeightedP(INF, np.ones(13)))
    big = FiberModule(space, (Fiber(0, WeightedP(1, ())), box))
    ramp = ModuleMorphism(big, big, [np.zeros((0, 0)), np.diag(np.linspace(0.5, 1.0, 13))])
    with pytest.raises(DimensionCapError) as raised:
        operator_pointwise_norm(ramp)
    assert raised.value.atom == "wide"
    assert "'wide'" in str(raised.value)


def test_a_tiny_invertible_scalar_is_bijective():
    """Bijectivity takes numpy's relative rank tolerance: ``1e-11 I`` is
    invertible, not an isometry, and its deviation is ``|m^-1| - 1``.  An
    absolute cut of 1e-10 read it as not bijective, with deviation inf."""
    cert = certify_isometric_iso(scale_morphism(identity_morphism(PLANE), 1e-11))
    assert (cert.ok, cert.bijective) == (False, True)
    assert cert.max_norm_deviation == pytest.approx(1e11 - 1.0, rel=1e-15)


def test_the_identity_on_a_hom_fiber_norms_to_one():
    """Operator-norm fibers have only the bracket kernel, which cannot
    certify their identity; between equal specs ``c I`` has the norm |c|."""
    hom = hom_module(PLANE, euclidean_module(TWO, 3))
    assert operator_pointwise_norm(identity_morphism(hom)).values.tolist() == [1.0, 1.0]
    half = scale_morphism(identity_morphism(hom), -0.5)
    assert operator_pointwise_norm(half).values.tolist() == [0.5, 0.5]
    assert is_morphism(identity_morphism(hom))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([None, 1e-10]), st.integers(0, 1))
def test_full_ranks_equal_matrix_rank(seed, tol, axis):
    """Per matrix, full rank along the axis by ``np.linalg.matrix_rank``:
    seeded matrices of mixed shapes (empty sides included), of low rank,
    repeated, and scaled by 10^-100..10^100."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(int(rng.integers(1, 9))):
        rows, cols = (int(n) for n in rng.integers(0, 4, size=2))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        mats.append(m * 10.0 ** rng.uniform(-100, 100))
    mats += [mats[int(k)].copy() for k in rng.integers(0, len(mats), size=2)]
    want = [
        m.shape[axis] == 0 or (min(m.shape) > 0 and np.linalg.matrix_rank(m, tol=tol) == m.shape[axis])
        for m in mats
    ]
    assert modules._full_ranks(mats, axis, tol) == want


def _assert_adopted(phi):
    """What the public constructor guarantees: read-only, finite float64
    matrices of the endpoints' dims."""
    for m, s, t in zip(phi.matrices, phi.source.dims(), phi.target.dims()):
        assert m.dtype == np.float64 and m.shape == (t, s)
        assert not m.flags.writeable and np.isfinite(m).all()


def test_morphisms_the_library_builds_hold_read_only_finite_float64_matrices():
    """Every library site that adopts its matrices without the public
    checks, on chains whose tail collapses one atom of the limit."""
    rng = np.random.default_rng(3)
    space = AtomicMeasureSpace(["a", "b"], [1.0, 2.0])
    plane = euclidean_module(space, 2)
    phi = random_admissible_morphism(rng, plane, plane, 0.5)
    chain = Chain(2, ScalarTail(L0Function(space, [1.0, 0.5])))
    direct = DirectSystem(chain, {0: plane, 1: plane}, {(0, 1): phi})
    inverse = InverseSystem(chain, {0: plane, 1: plane}, {(0, 1): phi})
    dl, il = direct_limit(direct), inverse_limit(inverse)
    ident = identity_morphism(plane)
    masked, projection = mask_module(plane, np.array([True, False]))
    pulled = pullback_module(random_atom_map(rng, space), plane)
    hom = hom_inverse_system(direct, scalar_module(space))
    built = [
        ident,
        zero_morphism(plane, scalar_module(space)),
        projection,
        mask_inclusion(plane, masked),
        dl_universal_factorization(direct, Target(dl.module, dict(dl.canonical)), dl),
        il_universal_factorization(inverse, Source(il.module, dict(il.canonical)), il),
        dl_functor(SystemMorphism(direct, direct, {0: ident, 1: ident})),
        pulled.pull_morphism(phi, pulled),
        adjoint(phi),
        *hom.hom_system.maps.values(),
        hom.comparison,
    ]
    assert [m.shape for m in projection.matrices] == [(2, 2), (0, 2)]
    for morphism in built:
        _assert_adopted(morphism)


def test_the_public_constructor_converts_and_copies():
    raw = np.eye(2)
    phi = ModuleMorphism(PLANE, PLANE, [raw, [[1, 0], [0, 1]]])
    raw[0, 0] = 5.0
    assert phi.matrices[0][0, 0] == 1.0
    _assert_adopted(phi)
