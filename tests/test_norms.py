import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l0limits import norms
from l0limits.errors import (
    BracketTooWideError,
    DimensionCapError,
    NonFiniteError,
    ShapeMismatchError,
    UnsupportedNormError,
)
from l0limits.measure import AtomicMeasureSpace
from l0limits.modules import (
    Fiber,
    FiberModule,
    ModuleMorphism,
    euclidean_module,
    is_morphism,
    operator_pointwise_norm,
    operator_pointwise_norms,
)
from l0limits.norms import (
    INF,
    DualOf,
    FramedP,
    OperatorNorm,
    WeightedP,
    _euclidean_lower,
    dual_spec,
    kernel_path,
    norm_eval,
    norm_rows,
    operator_norm_batch,
    operator_norm_value,
    operator_norm_values,
    operator_norm_witness,
    operator_spec,
    spectral_norm,
    spectral_norm_witness,
    zero_norm,
)

from oracles import (
    reference_frame_ball_candidates,
    reference_halve_symmetric,
    reference_norm_eval,
    sampled_operator_norm,
)


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


def _seeded_frames(seed):
    """Square and tall frames, one-column frames, frames with a duplicate
    and a sign-mirrored row (rank-deficient subsets), and each of them
    scaled by 10^100 and 10^-100."""
    rng = np.random.default_rng(seed)
    for rows, cols in ((1, 1), (4, 1), (2, 2), (3, 3), (5, 3), (6, 4), (8, 2), (8, 5)):
        frame = rng.standard_normal((rows, cols))
        variants = [frame]
        if rows >= cols + 2:
            mirrored = frame.copy()
            mirrored[1], mirrored[2] = frame[0], -frame[0]
            variants.append(mirrored)
        for a in variants:
            yield a
            yield 1e100 * a
            yield 1e-100 * a


@pytest.mark.parametrize("p", [1, INF], ids=["p1", "pinf"])
def test_stacked_frame_ball_matches_the_subset_loop(monkeypatch, p):
    """The stacked enumeration gives the loop's candidates byte for byte,
    in the loop's order, in one stack, one subset per stack, or chunked."""
    chunks = (norms._CHUNK_FLOATS, 1, 37)
    for seed in range(3):
        for frame in _seeded_frames(seed):
            want = reference_frame_ball_candidates(FramedP(p, frame))
            for chunk in chunks:
                monkeypatch.setattr(norms, "_CHUNK_FLOATS", chunk)
                got = FramedP(p, frame).ball_candidates()
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, INF]), st.sampled_from([(1, 1), (3, 1), (2, 2), (4, 2), (5, 3), (4, 4)]),
       st.integers(0, 10_000), st.floats(-100, 100), st.booleans())
@example(INF, (5, 3), 0, -5.0, False)
@example(1, (5, 3), 0, -13.0, False)
def test_framed_ball_is_scale_invariant(p, shape, seed, exponent, negative):
    """Scaling a frame by c divides every operator norm out of it by |c|.
    Absolute thresholds emptied the inf-ball of a frame scaled by 1e-5 and
    rejected one scaled by 1e-13 as rank-deficient."""
    rng = np.random.default_rng(seed)
    frame = rng.standard_normal(shape)
    mat = rng.standard_normal((2, shape[1]))
    target = WeightedP(2, (1.0, 0.5))
    c = (-1.0 if negative else 1.0) * 10.0**exponent
    base = operator_norm_value(mat, FramedP(p, frame), target)
    scaled = operator_norm_value(mat, FramedP(p, c * frame), target)
    assert scaled == pytest.approx(base / abs(c), rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.floats(-100, 100), st.booleans())
@example(0, 13.0, False)
@example(0, 100.0, False)
def test_restricted_dual_is_scale_invariant(seed, exponent, negative):
    """Restricting the dual of a frame scaled by c gives norms 1/|c| times
    those of the unscaled restriction.  Absolute merge thresholds kept one
    functional of a frame scaled by 1e13 (an invalid frame) and every
    functional of one scaled by 1e100."""
    rng = np.random.default_rng(seed)
    frame = rng.standard_normal((5, 3))
    basis = rng.standard_normal((3, 2))
    ys = rng.standard_normal((4, 2))
    c = (-1.0 if negative else 1.0) * 10.0**exponent
    base = dual_spec(FramedP(INF, frame)).restrict(basis)
    scaled = dual_spec(FramedP(INF, c * frame)).restrict(basis)
    assert scaled.matrix.shape == base.matrix.shape
    assert norm_rows(scaled, ys) == pytest.approx(norm_rows(base, ys) / abs(c), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p, shape, work", [(1, (6, 3), 6 * 15), (INF, (6, 3), 160)])
def test_frame_ball_budget_admits_work_equal_to_it(monkeypatch, p, shape, work):
    spec = FramedP(p, np.random.default_rng(0).standard_normal(shape))
    monkeypatch.setattr(norms, "FRAME_BALL_BUDGET", work - 1)
    with pytest.raises(DimensionCapError, match=f"needs {work} candidate solves"):
        spec.ball_candidates()
    monkeypatch.setattr(norms, "FRAME_BALL_BUDGET", work)
    assert len(spec.ball_candidates())


def test_frame_ball_memory_stays_bounded_at_the_budget_edge():
    """C(73, 3) * 2^3 = 497,568 solves, the most a 3-column inf-frame may
    take: all their images at once would take about 290 MB.  One row more
    is over the budget, which raises before anything is allocated."""
    rng = np.random.default_rng(0)
    edge = FramedP(INF, rng.standard_normal((73, 3)))
    over = FramedP(INF, rng.standard_normal((74, 3)))
    tracemalloc.start()
    try:
        cands = edge.ball_candidates()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(DimensionCapError):
            over.ball_candidates()
        _, over_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cands)
    assert peak <= 32 * 2**20 + 2 * cands.nbytes
    assert over_peak <= 2**20


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


TALL = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]

#: Every spec kind, p in {1, 2, inf}, and operator norms on three kernel paths.
row_specs = [
    WeightedP(1, (1.0, 2.0, 0.5)),
    WeightedP(2, (1.0, 0.5)),
    WeightedP(INF, (2.0, 1.0, 3.0)),
    FramedP(1, TALL),
    FramedP(2, [[1.0, 0.2], [0.0, 1.0]]),
    FramedP(INF, [[2.0, 1.0], [0.5, -1.0]]),
    dual_spec(FramedP(INF, TALL)),
    dual_spec(FramedP(1, TALL)),
    OperatorNorm(2, WeightedP(INF, (1.0, 2.0)), 3, FramedP(1, np.diag([1.0, 1.0, 2.0]) + 0.5 * np.eye(3, k=2))),
    OperatorNorm(2, WeightedP(2, (1.0, 2.0)), 2, dual_spec(FramedP(1, TALL))),
    OperatorNorm(3, FramedP(2, np.eye(3) + 0.3 * np.eye(3, k=1)), 2, WeightedP(2, (1.0, 0.5))),
    zero_norm(),
]


def test_row_specs_cover_every_operator_path():
    operators = [s for s in row_specs if isinstance(s, OperatorNorm)]
    paths = {kernel_path(s.source_spec, s.target_spec) for s in operators}
    assert paths == {"vertex", "facet", "spectral"}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(row_specs), st.integers(0, 10_000), st.integers(0, 6), st.floats(-100, 100))
def test_norm_rows_match_per_vector_evaluation(spec, seed, count, exponent):
    xs = np.random.default_rng(seed).standard_normal((count, spec.dim)) * 10.0**exponent
    rows = norm_rows(spec, xs)
    assert rows.shape == (count,)
    for x, value in zip(xs, rows):
        assert value == pytest.approx(norm_eval(spec, x), rel=1e-12, abs=0.0)
        assert value == pytest.approx(reference_norm_eval(spec, x), rel=1e-12, abs=0.0)


def test_norm_rows_rejects_wrong_shapes():
    with pytest.raises(ShapeMismatchError):
        norm_rows(WeightedP(1, (1.0, 2.0)), np.ones((3, 3)))
    with pytest.raises(ShapeMismatchError):
        norm_rows(WeightedP(1, (1.0, 2.0)), np.ones(2))


# An operator norm between Euclidean-like covector spaces: the bracket
# kernel, tight enough to certify multiples of orthogonal maps.
COVECTORS = OperatorNorm(2, WeightedP(2, (1.0, 1.0)), 1, WeightedP(2, (1.0,)))

VALUE_CASES = {
    "vertex": [(WeightedP(1, (1.0, 2.0)), FramedP(2, TALL[:2])),
               (WeightedP(INF, (1.0, 0.5)), dual_spec(FramedP(1, TALL))),
               (FramedP(1, TALL), WeightedP(INF, (1.0, 2.0, 0.5)))],
    "facet": [(WeightedP(2, (1.0, 2.0)), WeightedP(1, (1.0, 0.5, 2.0))),
              (FramedP(2, [[1.0, 0.2], [0.0, 1.0]]), dual_spec(FramedP(INF, TALL)))],
    "spectral": [(FramedP(2, [[1.0, 0.2], [0.0, 1.0]]), WeightedP(2, (1.0, 3.0, 0.5)))],
    "trivial": [(zero_norm(), WeightedP(2, (1.0, 1.0))), (WeightedP(1, (1.0,)), zero_norm())],
}


@pytest.mark.parametrize("path,source,target", [
    (path, source, target) for path, pairs in VALUE_CASES.items() for source, target in pairs
])
def test_operator_norm_values_match_witness(path, source, target):
    assert kernel_path(source, target) == path
    rng = np.random.default_rng(17)
    mats = rng.standard_normal((6, target.dim, source.dim))
    mats[2] = 0.0
    values = operator_norm_values(mats, source, target)
    assert values.shape == (6,)
    for mat, value in zip(mats, values):
        assert value == operator_norm_witness(mat, source, target)[0]


def test_operator_norm_values_on_the_bracket_path():
    assert kernel_path(COVECTORS, COVECTORS) == "bracket"
    q = np.array([[0.6, -0.8], [0.8, 0.6]])
    mats = np.stack([np.zeros((2, 2)), 2.5 * np.eye(2), -q, 1e-3 * q])
    values = operator_norm_values(mats, COVECTORS, COVECTORS)
    for mat, value in zip(mats, values):
        expected = operator_norm_witness(mat, COVECTORS, COVECTORS)[0]
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
    wide = OperatorNorm(2, WeightedP(2, (1.0, 1.0)), 3, WeightedP(2, (1.0, 1.0, 1.0)))
    # The identity is c I between equal specs, normed exactly; a diagonal
    # that is not scalar still reaches the bracket.
    assert operator_norm_values(np.eye(wide.dim)[None], wide, wide).tolist() == [1.0]
    with pytest.raises(BracketTooWideError):
        operator_norm_values(np.diag(np.arange(1.0, wide.dim + 1))[None], wide, wide)
    with pytest.raises(ShapeMismatchError):
        operator_norm_values(np.zeros((2, 2)), COVECTORS, COVECTORS)


def test_euclidean_lower_is_smallest_singular_value():
    m = np.array([[2.0, 1.0], [0.0, 0.5]])
    expected = 1.0 / spectral_norm(np.linalg.inv(m))
    assert _euclidean_lower(FramedP(2, m)) == pytest.approx(expected, rel=1e-12)
    assert _euclidean_lower(WeightedP(2, (3.0, 0.25))) == pytest.approx(0.25, rel=1e-12)


#: (source, target) fiber norms on every route of the operator norm,
#: zero-dimensional sides included.
OPNORM_PAIRS = [
    (source, target) for pairs in VALUE_CASES.values() for source, target in pairs
] + [(COVECTORS, COVECTORS), (zero_norm(), zero_norm())]


def test_opnorm_pairs_cover_every_route():
    paths = {kernel_path(source, target) for source, target in OPNORM_PAIRS}
    assert paths == {"vertex", "facet", "spectral", "trivial", "bracket"}


def _rotation(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    return q


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(OPNORM_PAIRS), st.integers(0, 10_000), st.floats(-100, 100))
def test_pointwise_operator_norm_equals_the_witness_value_exactly(pair, seed, exponent):
    """The values-only route gives the witness route's value bit for bit,
    on every kernel path and at every scale."""
    source, target = pair
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    if kernel_path(source, target) == "bracket":
        # Multiples of orthogonal maps are the ones the bracket certifies.
        mat = scale * _rotation(rng)
    else:
        mat = scale * rng.standard_normal((target.dim, source.dim))
    space = AtomicMeasureSpace(["a", "b"], [1.0, 2.0])
    zero = Fiber(0, zero_norm())
    phi = ModuleMorphism(
        FiberModule(space, (Fiber(source.dim, source), zero)),
        FiberModule(space, (Fiber(target.dim, target), Fiber(2, WeightedP(2, (1.0, 1.0))))),
        [mat, np.zeros((2, 0))],
    )
    values = operator_pointwise_norm(phi).values
    assert values[0] == operator_norm_witness(mat, source, target)[0]
    assert values[0] == operator_norm_value(mat, source, target)
    assert values[1] == 0.0


def _atom_matrix(rng, source, target, kind, scale) -> np.ndarray:
    if kind == "zero":
        return np.zeros((target.dim, source.dim))
    if kernel_path(source, target) == "bracket" and kind == "fit":
        # Multiples of orthogonal maps are the ones the bracket certifies;
        # a generic matrix mostly is not.
        return scale * _rotation(rng)
    return scale * rng.standard_normal((target.dim, source.dim))


def _witness_loop(phi):
    """The per-atom witness values of a morphism, or the atom id of the
    first atom whose evaluation raises."""
    values = []
    fibers = zip(phi.matrices, phi.source.fibers, phi.target.fibers)
    for a, (mat, s, t) in enumerate(fibers):
        try:
            values.append(operator_norm_witness(mat, s.norm, t.norm)[0])
        except BracketTooWideError:
            return phi.source.space.atom_ids[a]
    return np.array(values, dtype=float)


ATOM_DRAWS = st.tuples(
    st.integers(0, len(OPNORM_PAIRS) - 1),
    st.sampled_from(["fit", "generic", "zero"]),
    st.floats(-100, 100),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(ATOM_DRAWS, min_size=1, max_size=4), min_size=1, max_size=6),
       st.integers(0, 10_000))
def test_stacked_pointwise_norms_equal_the_witness_values(morphisms, seed):
    """One stacked pass over 1-6 morphisms gives each atom's witness value
    bit for bit; an uncertifiable atom raises at the atom a per-atom loop
    meets first, as ``operator_pointwise_norm`` of its morphism does."""
    rng = np.random.default_rng(seed)
    phis = []
    for n, atoms in enumerate(morphisms):
        pairs = [OPNORM_PAIRS[k] for k, _, _ in atoms]
        space = AtomicMeasureSpace([f"m{n}a{a}" for a in range(len(atoms))], np.ones(len(atoms)))
        phis.append(ModuleMorphism(
            FiberModule(space, tuple(Fiber(s.dim, s) for s, _ in pairs)),
            FiberModule(space, tuple(Fiber(t.dim, t) for _, t in pairs)),
            [_atom_matrix(rng, s, t, kind, 10.0**e) for (s, t), (_, kind, e) in zip(pairs, atoms)],
        ))
    expected = [_witness_loop(phi) for phi in phis]
    failing = [(phi, atom) for phi, atom in zip(phis, expected) if isinstance(atom, str)]
    if failing:
        with pytest.raises(BracketTooWideError) as raised:
            operator_pointwise_norms(phis)
        with pytest.raises(BracketTooWideError) as single:
            operator_pointwise_norm(failing[0][0])
        assert raised.value.atom == single.value.atom == failing[0][1]
        assert str(raised.value) == str(single.value)
        return
    norms = operator_pointwise_norms(phis)
    assert len(norms) == len(phis)
    for phi, norm, want in zip(phis, norms, expected):
        assert norm.space == phi.source.space
        assert norm.values.tobytes() == want.tobytes()


def test_stacked_pointwise_norms_raise_at_the_first_failing_morphism():
    space = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])
    module = FiberModule(space, (Fiber(2, COVECTORS), Fiber(2, COVECTORS)))
    wide = np.array([[1.0, 2.0], [0.0, 1.0]])
    fine = ModuleMorphism(module, module, [np.eye(2), np.eye(2)])
    late = ModuleMorphism(module, module, [np.eye(2), wide])
    early = ModuleMorphism(module, module, [wide, wide])
    for phis, atom in (([fine, late, early], "b"), ([fine, early, late], "a")):
        with pytest.raises(BracketTooWideError) as raised:
            operator_pointwise_norms(phis)
        assert raised.value.atom == atom
    assert operator_pointwise_norms([fine, fine])[1] == operator_pointwise_norm(fine)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_an_overflowing_norm_is_an_error_of_its_own_morphism():
    import l0limits.modules as modules

    space = AtomicMeasureSpace(["a"], [1.0])
    covectors = FiberModule(space, (Fiber(2, COVECTORS),))
    wide = ModuleMorphism(covectors, covectors, [np.array([[1.0, 2.0], [0.0, 1.0]])])
    # p=1 overflows in a vertex value, p=2 in a spectral core T M R^-1
    # (inf - inf: NaN, on which LAPACK's SVD fails for the whole stack).
    for p in (1, 2):
        tiny = FiberModule(space, (Fiber(2, WeightedP(p, (1e-300, 1e-300))),))
        huge = FiberModule(space, (Fiber(1, WeightedP(p, (1e300,))),))
        overflow = ModuleMorphism(tiny, huge, [np.array([[1e300, -1e300]])])
        fine = ModuleMorphism(huge, huge, [np.array([[0.5]])])
        with pytest.raises(NonFiniteError, match="'a'"):
            operator_pointwise_norms([fine, overflow, wide])
        with pytest.raises(BracketTooWideError, match="'a'"):
            operator_pointwise_norms([fine, wide, overflow])
        first, second = modules._operator_norm_results([overflow, fine])
        assert isinstance(first, NonFiniteError)
        assert second.values.tolist() == [0.5]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_non_finite_spectral_core_is_an_error_not_an_svd():
    # LAPACK's full SVD of this 3x3 matrix does not return.
    stuck = np.ones((3, 3))
    stuck[0, 0] = np.inf
    with pytest.raises(NonFiniteError):
        spectral_norm_witness(stuck)
    tiny, huge = WeightedP(2, (1e-300,) * 3), WeightedP(2, (1e300,) * 3)
    mat = np.full((3, 3), 1e300)
    with pytest.raises(NonFiniteError):
        operator_norm_witness(mat, tiny, huge)
    with pytest.raises(NonFiniteError):
        operator_norm_values(np.stack([np.eye(3), mat]), tiny, huge)


def test_inverse_transform_is_computed_once_per_spec(monkeypatch):
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append(m) or inv(m))
    source = FramedP(2, [[1.0, 0.2], [0.0, 1.0]])
    weighted = WeightedP(2, (1.0, 2.0))
    target = WeightedP(1, (1.0, 0.5, 2.0))
    mats = np.random.default_rng(3).standard_normal((4, 3, 2))
    for spec in (source, weighted):
        for mat in mats:
            operator_norm_value(mat, spec, target)
            operator_norm_witness(mat, spec, target)
            operator_norm_value(mat[:2], spec, spec)
        operator_norm_values(mats, spec, target)
    assert len(calls) == 2


def test_pointwise_operator_norm_takes_the_values_route(monkeypatch):
    import l0limits.modules as modules
    import l0limits.norms as norms

    def forbidden(*args, **kwargs):
        raise AssertionError("maximizer requested")

    space = AtomicMeasureSpace([f"a{k}" for k in range(len(OPNORM_PAIRS))], np.ones(len(OPNORM_PAIRS)))
    rng = np.random.default_rng(11)
    mats = [
        _rotation(rng) if kernel_path(s, t) == "bracket" else rng.standard_normal((t.dim, s.dim))
        for s, t in OPNORM_PAIRS
    ]
    phi = ModuleMorphism(
        FiberModule(space, tuple(Fiber(s.dim, s) for s, _ in OPNORM_PAIRS)),
        FiberModule(space, tuple(Fiber(t.dim, t) for _, t in OPNORM_PAIRS)),
        mats,
    )
    want = [operator_norm_witness(m, s, t)[0] for m, (s, t) in zip(mats, OPNORM_PAIRS)]
    monkeypatch.setattr(modules, "operator_norm_witness", forbidden)
    monkeypatch.setattr(norms, "operator_norm_witness", forbidden)
    assert operator_pointwise_norm(phi).values.tolist() == want


@pytest.mark.parametrize("make", [
    lambda: WeightedP(2, [np.inf, 1.0]),
    lambda: WeightedP(1, [np.nan]),
    lambda: FramedP(2, [[np.nan, 0.0], [0.0, 1.0]]),
    lambda: FramedP(INF, [[1.0, 0.0], [0.0, -np.inf], [1.0, 1.0]]),
], ids=["weighted-inf", "weighted-nan", "framed-nan", "framed-inf"])
def test_norm_specs_reject_non_finite_input(make):
    with pytest.raises(NonFiniteError):
        make()


#: Factories of every spec kind, so that an equal spec that is another
#: object can be made.
SCALAR_SPECS = [
    lambda: WeightedP(1, (1.0, 2.0)),
    lambda: WeightedP(2, (0.5, 3.0, 1.0)),
    lambda: WeightedP(INF, (1.0, 1e-3)),
    lambda: FramedP(1, TALL),
    lambda: FramedP(2, [[1.0, 0.2], [0.0, 1.0]]),
    lambda: FramedP(INF, TALL),
    lambda: dual_spec(FramedP(INF, TALL)),
    lambda: dual_spec(FramedP(1, TALL)),
    lambda: OperatorNorm(2, WeightedP(2, (1.0, 1.0)), 3, WeightedP(2, (1.0, 1.0, 1.0))),
    lambda: OperatorNorm(2, WeightedP(1, (1.0, 2.0)), 2, FramedP(INF, TALL)),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SCALAR_SPECS), st.one_of(st.just(None), st.floats(-100, 100)),
       st.booleans(), st.booleans())
def test_a_multiple_of_the_identity_norms_to_its_modulus(make, exponent, negative, same):
    """``|c I| = |c|`` between equal specs of every kind, the same object or
    not, from the batch and the witness alike; the witness is a unit vector.
    Operator-norm fibers have only the bracket kernel, which could not
    certify the identity."""
    source = make()
    target = source if same else make()
    assert target == source
    c = 0.0 if exponent is None else (-1.0 if negative else 1.0) * 10.0**exponent
    mat = c * np.eye(source.dim)
    assert operator_norm_value(mat, source, target) == abs(c)
    assert operator_norm_values(np.stack([mat, mat]), source, target).tolist() == [abs(c)] * 2
    value, witness = operator_norm_witness(mat, source, target)
    assert value == abs(c)
    assert norm_eval(source, witness) == pytest.approx(1.0, rel=1e-12)


def test_the_scalar_rule_needs_equal_specs_and_a_finite_scalar():
    weighted = WeightedP(2, (1.0, 2.0))
    other = WeightedP(2, (2.0, 1.0))
    assert operator_norm_value(np.eye(2), weighted, other) == pytest.approx(2.0, rel=1e-15)
    # [[inf]] is c I with c = inf, left to the kernel, which rejects it.
    with pytest.raises(NonFiniteError):
        operator_norm_value(np.array([[np.inf]]), WeightedP(2, (1.0,)), WeightedP(2, (1.0,)))


def test_a_batch_with_repeated_items_equals_its_singleton_batches():
    """Repeated matrices, repeated ``c I`` and repeated uncertifiable
    matrices in one batch: every item gets its singleton batch's value bit
    for bit, and every error is an object of its own."""
    rng = np.random.default_rng(5)
    wide = np.array([[1.0, 2.0], [0.0, 1.0]])
    items = [(wide, COVECTORS, COVECTORS), (2.0 * np.eye(2), COVECTORS, COVECTORS)]
    for source, target in OPNORM_PAIRS:
        if kernel_path(source, target) == "bracket":
            mat = _rotation(rng)
        else:
            mat = rng.standard_normal((target.dim, source.dim))
        items.append((mat, source, target))
    items = [items[k] for k in rng.permutation(3 * len(items)) % len(items)]
    items += [(mat.copy(), source, target) for mat, source, target in items[:4]]
    values = operator_norm_batch(items)
    for item, value in zip(items, values):
        single = operator_norm_batch([item])[0]
        if isinstance(single, Exception):
            assert (type(value), str(value)) == (type(single), str(single))
        else:
            assert np.float64(value).tobytes() == np.float64(single).tobytes()
    errors = [v for v in values if isinstance(v, Exception)]
    assert len(errors) >= 3
    assert len({id(e) for e in errors}) == len(errors)


def test_repeated_failing_morphisms_locate_their_own_errors():
    import l0limits.modules as modules

    space = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])
    module = FiberModule(space, (Fiber(2, COVECTORS), Fiber(2, COVECTORS)))
    wide = np.array([[1.0, 2.0], [0.0, 1.0]])
    phi = ModuleMorphism(module, module, [np.eye(2), wide])
    first, second = modules._operator_norm_results([phi, phi])
    assert first is not second
    for err in (first, second):
        assert isinstance(err, BracketTooWideError)
        assert err.atom == "b"
        assert str(err).count("at atom") == 1


def test_restricted_dual_functionals_merge_as_the_row_loop_does():
    """The blocked merge keeps the loop's rows in the loop's order: seeded
    frames at scales 10^-100..10^100, with duplicated, mirrored, nearly
    equal (within and beyond the relative atol) and zero rows mixed in."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        rows = rng.standard_normal((int(rng.integers(1, 12)), dim))
        picks = rows[rng.integers(0, len(rows), size=int(rng.integers(0, 8)))]
        near = picks * (1.0 + rng.choice([1e-13, 1e-7, 5e-6, 1.5e-5, 1e-4], size=(len(picks), 1)))
        extra = [picks, -picks, near, -near, np.zeros((int(rng.integers(0, 2)), dim))]
        rows = np.concatenate([rows, *extra])
        rows = rows[rng.permutation(len(rows))] * 10.0 ** rng.uniform(-100, 100)
        want = reference_halve_symmetric(rows)
        got = norms._halve_symmetric(rows)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_halve_symmetric_compares_in_blocks(monkeypatch):
    """Blocks of one row each against the rows kept so far give the rows of
    a single block."""
    rows = np.random.default_rng(2).standard_normal((40, 3))
    rows = np.concatenate([rows, -rows[::3], rows[::5] * (1 + 1e-8)])
    whole = norms._halve_symmetric(rows)
    monkeypatch.setattr(norms, "_CHUNK_FLOATS", 1)
    assert norms._halve_symmetric(rows).tobytes() == whole.tobytes()
    assert whole.tobytes() == reference_halve_symmetric(rows).tobytes()


def test_a_one_frame_budget_counts_rows_times_subsets():
    """40,000 rows of two columns make 40,000 subsets, each normal measured
    against every row: 1.6e9 row evaluations, over the budget."""
    frame = FramedP(1, np.random.default_rng(0).standard_normal((40_000, 2)))
    with pytest.raises(DimensionCapError, match="needs 1600000000 candidate solves"):
        frame.ball_candidates()


def test_a_square_frame_dual_is_its_inverse_transpose_and_the_public_frame_copies():
    """A public frame is copied and rank-tested; the dual of a square frame
    is the read-only float64 inverse transpose."""
    raw = np.array([[2.0, 1.0], [0.0, 1.0]])
    frames = [FramedP(p, raw) for p in (1, 2, INF)]
    raw[0, 0] = 7.0
    assert all(f.matrix[0, 0] == 2.0 and not f.matrix.flags.writeable for f in frames)
    for frame in frames:
        dual = frame.dual()
        assert isinstance(dual, FramedP) and dual.p == {1: INF, 2: 2, INF: 1}[frame.p]
        assert dual.matrix.dtype == np.float64 and not dual.matrix.flags.writeable
        assert np.allclose(dual.matrix.T @ frame.matrix, np.eye(2), rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="full column rank"):
        FramedP(1, [[1.0, 2.0], [2.0, 4.0]])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", [1, 2, INF])
def test_the_dual_of_a_frame_near_underflow_is_not_finite(p):
    """The frame passes the rank test, but its inverse overflows."""
    frame = FramedP(p, 1e-310 * np.eye(2))
    with pytest.raises(NonFiniteError):
        frame.dual()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.floats(-100, 100),
       st.lists(st.floats(-11, -4), min_size=1, max_size=4))
@example(0, 0.0, [-5.5])
def test_a_restricted_norm_is_the_largest_pairing_of_every_row(seed, exponent, distances):
    """The merge behind ``DualOf.restrict`` keeps rows planted at relative
    distances 10^-11..10^-4 from others, at scales 10^-100..10^100: the
    norm of the kept rows equals the largest ``|row . x|`` over all rows.
    Merging at ``np.allclose``'s rtol=1e-5 dropped rows up to 1e-5 apart,
    so the norm could undershoot by that much."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    count = dim + len(distances)
    base = rng.uniform(0.5, 1.0, (count, dim)) * rng.choice([-1.0, 1.0], (count, dim))
    picks = base[rng.permutation(count)[: len(distances)]]
    planted = picks * (1.0 + 10.0 ** np.array(distances)[:, None]
                       * rng.choice([-1.0, 1.0], picks.shape))
    rows = np.concatenate([base, planted, -picks])
    rows = rows[rng.permutation(len(rows))] * 10.0**exponent
    spec = FramedP(INF, norms._halve_symmetric(rows))
    xs = np.concatenate([rows, rng.standard_normal((8, dim))])
    want = np.abs(xs @ rows.T).max(axis=1)
    assert norm_rows(spec, xs) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_a_map_into_a_restricted_dual_past_norm_one_is_not_admissible():
    """A false pass: the dual of the hexagon ``|x1|, |x2|, |x1 + x2| <= 1``
    restricted to the line through ``(1 - 1e-6, 1)`` has the functionals
    ``0.999999`` and ``1`` among its rows.  Merging them at rtol=1e-5 kept
    the smaller one, so a map of true norm ``1 / 0.999999`` read 1 and was
    certified admissible."""
    space = AtomicMeasureSpace(["a"], [1.0])
    inner = FramedP(INF, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    line = np.array([[1.0 - 1e-6], [1.0]])
    line /= np.linalg.norm(line)
    restricted = FiberModule(space, (Fiber(1, dual_spec(inner).restrict(line)),))
    pairings = np.unique(np.abs(inner.ball_candidates() @ line))
    assert pairings[-1] / pairings[-2] == pytest.approx(1.0 + 1e-6, rel=1e-9)
    scalars = FiberModule(space, (Fiber(1, WeightedP(1, (1.0,))),))
    phi = ModuleMorphism(scalars, restricted, [[[1.0 / pairings[-2]]]])
    norm = operator_pointwise_norm(phi).values[0]
    assert norm == pytest.approx(pairings[-1] / pairings[-2], rel=1e-12)
    assert not is_morphism(phi)
