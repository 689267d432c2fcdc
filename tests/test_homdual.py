import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0limits.homdual import (
    adjoint,
    dual_module,
    hom_element,
    hom_element_as_morphism,
    hom_matrices,
    hom_module,
    morphism_as_hom_element,
    pairing,
)
from l0limits.measure import AtomicMeasureSpace, L0Function
from l0limits.modules import (
    Element,
    Fiber,
    FiberModule,
    ModuleMorphism,
    apply,
    compose,
    euclidean_module,
    identity_morphism,
    operator_pointwise_norm,
    pointwise_norm,
    zero_module,
)
from l0limits.norms import INF, WeightedP, norm_eval
from l0limits.randgen import random_admissible_morphism, random_module, random_space

PT = AtomicMeasureSpace(["pt"], [1.0])
TWO = AtomicMeasureSpace(["a", "b"], [1.0, 2.0])


def test_hom_scalar_case():
    line = euclidean_module(TWO, 1)
    hom = hom_module(line, line)
    assert hom.dims() == (1, 1)
    elem = hom_element(hom, [np.array([[2.0]]), np.array([[-3.0]])])
    assert pointwise_norm(elem).values.tolist() == [2.0, 3.0]


def test_hom_module_builds_one_fiber_per_distinct_fiber_pair(monkeypatch):
    """Atoms that share a (source fiber, target fiber) pair share one Hom
    fiber: ``operator_spec`` runs once per distinct pair, fibers equal but
    built apart count as one, and each atom's fiber is the one its own
    pair gives."""
    import l0limits.homdual as homdual
    from l0limits.norms import FramedP, operator_spec

    def framed():  # a fresh but equal spec on every call
        return FramedP(INF, np.array([[1.0, 0.5], [0.0, 1.0], [1.0, 1.0]]))

    plane = Fiber(2, WeightedP(1, np.ones(2)))
    kinds = {
        "plane": lambda: plane,
        "framed": lambda: Fiber(2, framed()),
        "line": lambda: Fiber(1, WeightedP(2, np.ones(1))),
        "zero": lambda: Fiber(0, WeightedP(1, ())),
    }
    sources = ["plane", "framed", "plane", "line", "framed", "zero", "plane", "framed"]
    targets = ["line", "plane", "line", "line", "plane", "plane", "framed", "plane"]
    space = AtomicMeasureSpace([f"x{k}" for k in range(len(sources))], np.ones(len(sources)))
    source = FiberModule(space, tuple(kinds[k]() for k in sources))
    target = FiberModule(space, tuple(kinds[k]() for k in targets))
    calls = []

    def counted(*args):
        calls.append(args)
        return operator_spec(*args)

    monkeypatch.setattr(homdual, "operator_spec", counted)
    hom = hom_module(source, target)
    assert len(calls) == len(set(zip(sources, targets))) == 5
    for s, t, fiber in zip(source.fibers, target.fibers, hom.fibers):
        assert fiber == Fiber(s.dim * t.dim, operator_spec(s.dim, s.norm, t.dim, t.norm))


def test_hom_into_scalars_is_dual_norm():
    box = FiberModule(PT, (Fiber(2, WeightedP(1, (1.0, 2.0))),))
    dual = dual_module(box)
    assert dual.dims() == (2,)
    covector = Element(dual, [[2.0, 2.0]])
    assert pointwise_norm(covector).values.tolist() == [2.0]


def test_hom_zero_source():
    hom = hom_module(zero_module(TWO), euclidean_module(TWO, 3))
    assert hom.dims() == (0, 0)


def test_dual_examples():
    euclid = euclidean_module(PT, 2)
    dual = dual_module(euclid)
    assert pointwise_norm(Element(dual, [[3.0, 4.0]])).values.tolist() == [5.0]
    assert dual_module(zero_module(PT)).dims() == (0,)


def test_hom_operations_act_entrywise():
    src = euclidean_module(PT, 2)
    tgt = euclidean_module(PT, 2)
    hom = hom_module(src, tgt)
    t = hom_element(hom, [np.array([[1.0, 0.0], [0.0, 2.0]])])
    s = hom_element(hom, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    f = L0Function(PT, [3.0])
    v = Element(src, [[1.0, 1.0]])
    sum_apply = apply(hom_element_as_morphism(t + s), v)
    separate = apply(hom_element_as_morphism(t), v) + apply(hom_element_as_morphism(s), v)
    assert np.allclose(sum_apply.coords[0], separate.coords[0])
    scaled = apply(hom_element_as_morphism(t.scale_fn(f)), v)
    assert np.allclose(scaled.coords[0], 3.0 * apply(hom_element_as_morphism(t), v).coords[0])


def test_pairing_values():
    box = euclidean_module(PT, 2)
    dual = dual_module(box)
    omega = Element(dual, [[1.0, 2.0]])
    v = Element(box, [[3.0, 1.0]])
    assert pairing(omega, v).values.tolist() == [5.0]
    zero = Element(dual, [[0.0, 0.0]])
    assert pairing(zero, v).values.tolist() == [0.0]


@settings(max_examples=30)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_pairing_bilinear_and_bounded(w0, w1, scale):
    box = euclidean_module(TWO, 2)
    dual = dual_module(box)
    omega = Element(dual, [[w0, w1], [w1, w0]])
    v = Element(box, [[1.0, -2.0], [0.5, 0.0]])
    f = L0Function(TWO, [scale, -scale])
    lhs = pairing(omega.scale_fn(f), v).values
    rhs = f.values * pairing(omega, v).values
    assert np.allclose(lhs, rhs)
    bound = pointwise_norm(omega).values * pointwise_norm(v).values
    assert np.all(np.abs(pairing(omega, v).values) <= bound + 1e-9)


def test_adjoint_identity_and_transpose():
    plane = euclidean_module(PT, 2)
    ident = adjoint(identity_morphism(plane))
    assert np.array_equal(ident.matrices[0], np.eye(2))
    phi = ModuleMorphism(plane, plane, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    adj = adjoint(phi)
    assert np.array_equal(adj.matrices[0], np.array([[0.0, 0.0], [1.0, 0.0]]))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_adjoint_defining_identity(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    m = random_module(rng, space, max_dim=3)
    n = random_module(rng, space, max_dim=3)
    phi = random_admissible_morphism(rng, m, n)
    omega = Element(dual_module(n), [rng.standard_normal(f.dim) for f in n.fibers])
    v = Element(m, [rng.standard_normal(f.dim) for f in m.fibers])
    lhs = pairing(apply(adjoint(phi), omega), v).values
    rhs = pairing(omega, apply(phi, v)).values
    assert np.allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_adjoint_preserves_operator_norm(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    m = random_module(rng, space, max_dim=3)
    n = random_module(rng, space, max_dim=3)
    phi = random_admissible_morphism(rng, m, n)
    direct = operator_pointwise_norm(phi).values
    via_dual = operator_pointwise_norm(adjoint(phi)).values
    assert np.allclose(direct, via_dual, atol=1e-9)


def test_adjoint_reverses_composition():
    rng = np.random.default_rng(4)
    m = random_module(rng, TWO, max_dim=3)
    n = random_module(rng, TWO, max_dim=3)
    o = random_module(rng, TWO, max_dim=3)
    phi = random_admissible_morphism(rng, m, n)
    psi = random_admissible_morphism(rng, n, o)
    lhs = adjoint(compose(psi, phi))
    rhs = compose(adjoint(phi), adjoint(psi))
    for a, b in zip(lhs.matrices, rhs.matrices):
        assert np.allclose(a, b)


def test_dual_element_norm_matches_dual_spec():
    box = FiberModule(PT, (Fiber(2, WeightedP(1, (1.0, 2.0))),))
    dual = dual_module(box)
    rng = np.random.default_rng(9)
    from l0limits.norms import dual_spec

    spec = dual_spec(box.fibers[0].norm)
    for _ in range(25):
        w = rng.standard_normal(2)
        elem = Element(dual, [w])
        assert pointwise_norm(elem).values[0] == pytest.approx(
            norm_eval(spec, w), abs=1e-12
        )


def test_hom_matrices_round_trip():
    src = euclidean_module(TWO, 2)
    tgt = euclidean_module(TWO, 3)
    hom = hom_module(src, tgt)
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((3, 2)) for _ in range(2)]
    elem = hom_element(hom, mats)
    back = hom_matrices(elem)
    for a, b in zip(mats, back):
        assert np.array_equal(a, b)
    phi = hom_element_as_morphism(elem)
    assert morphism_as_hom_element(hom, phi).coords[0].tolist() == elem.coords[0].tolist()
