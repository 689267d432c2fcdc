import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0limits.errors import DimensionCapError, UnsupportedNormError
from l0limits.measure import AtomicMeasureSpace
from l0limits.modules import ModuleMorphism, euclidean_module, is_morphism, operator_pointwise_norm
from l0limits.norms import (
    INF,
    DualOf,
    FramedP,
    OperatorNorm,
    WeightedP,
    dual_spec,
    norm_eval,
    operator_norm_witness,
    operator_spec,
    spectral_norm,
)

from oracles import sampled_operator_norm


def test_weighted_one_eval():
    assert norm_eval(WeightedP(1, (1, 2)), [1, 1]) == pytest.approx(3.0)


def test_zero_vector_all_specs():
    specs = [
        WeightedP(1, (1, 2)),
        WeightedP(2, (0.5, 3)),
        WeightedP(INF, (1, 1)),
        FramedP(1, [[1, 0], [0, 1], [1, 1]]),
        dual_spec(FramedP(INF, [[1, 0], [0, 1], [1, 1]])),
    ]
    for spec in specs:
        assert norm_eval(spec, np.zeros(2)) == 0.0


def test_dual_of_weighted_one():
    spec = dual_spec(WeightedP(1, (1, 2)))
    assert isinstance(spec, WeightedP) and spec.p == INF
    assert norm_eval(spec, [2, 2]) == pytest.approx(2.0)


def test_dual_euclidean_self_dual():
    spec = dual_spec(WeightedP(2, (1, 1)))
    assert norm_eval(spec, [3, 4]) == pytest.approx(5.0)


def test_double_dual_flattens():
    inner = FramedP(1, [[1, 0], [0, 1], [1, 1]])
    dd = dual_spec(dual_spec(inner))
    assert dd is inner
    w = WeightedP(1, (2, 3))
    round_trip = dual_spec(dual_spec(w))
    assert isinstance(round_trip, WeightedP) and round_trip.p == 1
    assert np.allclose(round_trip.weights, w.weights)


def test_framed_square_dual_closed_form():
    a = np.array([[2.0, 1.0], [0.0, 1.0]])
    spec = dual_spec(FramedP(1, a))
    assert isinstance(spec, FramedP) and spec.p == INF
    rng = np.random.default_rng(0)
    for _ in range(50):
        xi = rng.standard_normal(2)
        # dual norm by direct maximization over the primal ball vertices
        brute = max(float(xi @ v) for v in FramedP(1, a).ball_candidates())
        assert norm_eval(spec, xi) == pytest.approx(brute, abs=1e-12)


def test_tall_framed_dual_matches_sampling():
    a = np.array([[1.0, 0.0], [0.5, 1.0], [-1.0, 2.0]])
    for p in (1, INF):
        spec = dual_spec(FramedP(p, a))
        assert isinstance(spec, DualOf)
        rng = np.random.default_rng(1)
        for _ in range(10):
            xi = rng.standard_normal(2)
            exact = norm_eval(spec, xi)
            inner = FramedP(p, a)
            best = 0.0
            for x in rng.standard_normal((4000, 2)):
                n = norm_eval(inner, x)
                best = max(best, float(xi @ x) / n)
            assert best <= exact + 1e-9
            assert exact - best < 5e-2 * max(1.0, exact)


def test_framed_requires_full_column_rank():
    with pytest.raises(ValueError):
        FramedP(1, [[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        FramedP(2, [[1.0, 0.0]])  # wide


def test_vertex_cap_enforced():
    with pytest.raises(DimensionCapError):
        WeightedP(INF, np.ones(13)).ball_candidates()


def test_ball_candidates_lie_on_sphere():
    specs = [
        WeightedP(1, (1, 2, 0.5)),
        WeightedP(INF, (2, 1)),
        FramedP(1, [[1, 0], [0, 1], [1, 1]]),
        FramedP(INF, [[1, 0], [0, 1], [1, -1]]),
    ]
    for spec in specs:
        for v in spec.ball_candidates():
            assert norm_eval(spec, v) == pytest.approx(1.0, abs=1e-9)


def test_dual_candidates_support_eval():
    spec = FramedP(INF, [[1, 0], [0, 1], [1, -1]])
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.standard_normal(2)
        via_duals = max(float(d @ x) for d in spec.dual_ball_candidates())
        assert via_duals == pytest.approx(norm_eval(spec, x), abs=1e-12)


norm_strategy = st.sampled_from([
    WeightedP(1, (1.0, 2.0)),
    WeightedP(2, (1.0, 0.5)),
    WeightedP(INF, (2.0, 1.0)),
    FramedP(2, [[1.0, 0.2], [0.0, 1.0]]),
    FramedP(1, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    dual_spec(FramedP(INF, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])),
])


@settings(max_examples=60)
@given(norm_strategy, st.floats(-3, 3), st.floats(-3, 3),
       st.floats(-3, 3), st.floats(-3, 3), st.floats(-4, 4))
def test_norm_axioms(spec, x0, x1, y0, y1, scale):
    x = np.array([x0, x1])
    y = np.array([y0, y1])
    nx, ny = norm_eval(spec, x), norm_eval(spec, y)
    assert norm_eval(spec, x + y) <= nx + ny + 1e-9
    assert norm_eval(spec, scale * x) == pytest.approx(abs(scale) * nx, abs=1e-9)
    if nx <= 1e-12:
        assert np.max(np.abs(x)) < 1e-6


def test_spectral_norm_examples():
    assert spectral_norm(np.diag([1.0, 0.5])) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = rng.standard_normal((4, 3))
        assert spectral_norm(m) == pytest.approx(
            float(np.linalg.svd(m, compute_uv=False)[0]), rel=1e-12
        )


def test_spectral_norm_degenerate_spectrum():
    # equal singular values: any vector in the top space is maximizing
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    m = np.diag([2.0, 2.0, 1.0])
    assert spectral_norm(m) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("diag", [(1e200, 1e199), (3e-170, 1e-171)])
def test_spectral_kernel_at_extreme_scales(diag):
    # Squaring the Gram matrix overflowed (underflowed) here to a norm of 0,
    # which passed a map of norm 1e200 as admissible.
    plane = euclidean_module(AtomicMeasureSpace(["pt"], [1.0]), 2)
    phi = ModuleMorphism(plane, plane, [np.diag(diag)])
    assert operator_pointwise_norm(phi).values[0] == pytest.approx(diag[0], rel=1e-12, abs=0.0)
    assert is_morphism(phi) == (diag[0] <= 1.0)


@settings(max_examples=80, deadline=None)
@given(norm_strategy, norm_strategy, st.integers(0, 10_000), st.floats(-150, 150), st.booleans())
def test_operator_norm_is_scale_invariant(source, target, seed, exponent, negative):
    mat = np.random.default_rng(seed).standard_normal((target.dim, source.dim))
    c = (-1.0 if negative else 1.0) * 10.0**exponent
    base, _ = operator_norm_witness(mat, source, target)
    scaled, _ = operator_norm_witness(c * mat, source, target)
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=0.0)


def test_operator_norm_identity_is_one():
    spec = WeightedP(2, (1, 1))
    val, _ = operator_norm_witness(np.eye(2), spec, spec)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_diag_euclidean():
    spec = WeightedP(2, (1, 1))
    val, wit = operator_norm_witness(np.diag([1.0, 0.5]), spec, spec)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert norm_eval(spec, wit) == pytest.approx(1.0, abs=1e-9)


def test_operator_norm_sum_from_box():
    val, wit = operator_norm_witness(
        np.array([[1.0, 1.0]]), WeightedP(INF, (1, 1)), WeightedP(1, (1.0,))
    )
    assert val == pytest.approx(2.0, abs=1e-12)
    assert sorted(np.abs(wit).tolist()) == [1.0, 1.0]


def test_operator_norm_witness_achieves_value():
    rng = np.random.default_rng(11)
    sources = [WeightedP(1, (1, 2)), WeightedP(2, (1, 1)), WeightedP(INF, (1, 0.5))]
    targets = [WeightedP(1, (1, 1, 1)), WeightedP(2, (2, 1, 1)), WeightedP(INF, (1, 1, 1))]
    for src in sources:
        for tgt in targets:
            mat = rng.standard_normal((3, 2))
            val, wit = operator_norm_witness(mat, src, tgt)
            assert norm_eval(src, wit) == pytest.approx(1.0, abs=1e-9)
            assert norm_eval(tgt, mat @ wit) == pytest.approx(val, abs=1e-9)


def test_operator_norm_against_sampled_lower_bound():
    rng = np.random.default_rng(23)
    combos = [
        (WeightedP(1, (1, 2)), WeightedP(2, (1, 1, 1))),
        (WeightedP(2, (1, 0.5)), WeightedP(1, (1, 1, 2))),
        (WeightedP(2, (1, 1)), WeightedP(2, (1, 2, 1))),
        (FramedP(1, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), WeightedP(INF, (1, 1, 1))),
    ]
    for src, tgt in combos:
        mat = rng.standard_normal((3, 2))
        exact, _ = operator_norm_witness(mat, src, tgt)
        lower = sampled_operator_norm(mat, src, tgt, samples=2000, seed=7)
        assert lower <= exact + 1e-9
        assert exact - lower <= 1e-6 * max(1.0, exact)


def test_operator_spec_scalar_simplifications():
    src = WeightedP(1, (1, 2))
    scalar = WeightedP(1, (1.0,))
    spec = operator_spec(2, src, 1, scalar)
    assert isinstance(spec, WeightedP) and spec.p == INF  # dual of weighted-1
    spec2 = operator_spec(1, scalar, 2, src)
    assert spec2 is src
    assert operator_spec(0, WeightedP(1, ()), 2, src).dim == 0


def test_operator_norm_spec_eval_matches_direct():
    src = WeightedP(INF, (1.0, 1.0))
    tgt = WeightedP(2, (1.0, 1.0, 2.0))
    spec = OperatorNorm(2, src, 3, tgt)
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((3, 2))
    assert norm_eval(spec, mat.reshape(-1)) == pytest.approx(
        operator_norm_witness(mat, src, tgt)[0]
    )


def test_restrict_weighted_and_dual():
    spec = WeightedP(1, (1.0, 2.0, 1.0))
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    restricted = spec.restrict(basis)
    rng = np.random.default_rng(4)
    for _ in range(30):
        x = rng.standard_normal(2)
        assert norm_eval(restricted, x) == pytest.approx(
            norm_eval(spec, basis @ x), abs=1e-12
        )
    dual = dual_spec(FramedP(1, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    sub = dual.restrict(np.array([[1.0], [0.5]]))
    for _ in range(30):
        t = rng.standard_normal(1)
        assert norm_eval(sub, t) == pytest.approx(
            norm_eval(dual, np.array([[1.0], [0.5]]) @ t), abs=1e-12
        )


def test_operator_norm_rejects_unsupported_dual():
    with pytest.raises(UnsupportedNormError):
        dual_spec(OperatorNorm(2, WeightedP(2, (1, 1)), 2, WeightedP(2, (1, 1))))
