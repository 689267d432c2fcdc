import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l0limits import norms
from l0limits.errors import (
    BracketTooWideError,
    DimensionCapError,
    KernelLimitError,
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
    scale_morphism,
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


#: The multiple of ``cond(frame) * eps`` that ``test_framed_ball_is_scale_invariant``
#: allows.  Over 51,444 seeded cases of its strategy (both p, all six shapes,
#: seeds 0-10000 in steps of 7, three scales each) the largest relative gap
#: was 3.4 times ``cond * eps``; 16 leaves room above that.
SCALE_COND_FACTOR = 16


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, INF]), st.sampled_from([(1, 1), (3, 1), (2, 2), (4, 2), (5, 3), (4, 4)]),
       st.integers(0, 10_000), st.floats(-100, 100), st.booleans())
@example(INF, (5, 3), 0, -5.0, False)
@example(1, (5, 3), 0, -13.0, False)
@example(1, (2, 2), 7517, 1.0, False)
def test_framed_ball_is_scale_invariant(p, shape, seed, exponent, negative):
    """Scaling a frame by c divides every operator norm out of it by |c|.
    Absolute thresholds emptied the inf-ball of a frame scaled by 1e-5 and
    rejected one scaled by 1e-13 as rank-deficient.

    The ball's vertices are solved from the frame's rows, so the two norms
    agree to a multiple of ``cond(frame) * eps``, not to a fixed 1e-12:
    seed 7517 (a 2x2 frame of condition 1.19e5) reads a relative gap of
    1.6e-12 under a ``cond * eps`` of 2.6e-11.  The bound is
    ``SCALE_COND_FACTOR * cond * eps`` with 1e-12 as its floor."""
    rng = np.random.default_rng(seed)
    frame = rng.standard_normal(shape)
    mat = rng.standard_normal((2, shape[1]))
    target = WeightedP(2, (1.0, 0.5))
    c = (-1.0 if negative else 1.0) * 10.0**exponent
    base = operator_norm_value(mat, FramedP(p, frame), target)
    scaled = operator_norm_value(mat, FramedP(p, c * frame), target)
    rel = max(1e-12, SCALE_COND_FACTOR * np.linalg.cond(frame) * np.finfo(float).eps)
    assert scaled == pytest.approx(base / abs(c), rel=rel, abs=0.0)


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


#: A square frame of condition 4.0e10 and a map out of its inf-ball.  A
#: feasibility test with the fixed slack 1e-9 dropped two of the ball's four
#: vertices ``A^-1 s``, so the map read a norm 324 times too small, and the
#: map scaled by it passed as admissible.
ILL_SQUARE_FRAME = [[0.05907361217051204, 0.7024432709924953],
                    [-0.059439080308457, -0.7067890456950902]]
ILL_SQUARE_MAP = [[-0.3511134768655856, 1.1202303480818123],
                  [1.4593915696617625, -0.5852353969375876]]


def _exact_square_inf_norm(frame, mat):
    """max over the sign patterns s of ``||mat A^-1 s||_inf``, in exact
    rational arithmetic on the given floats, for a 2x2 frame A."""
    a = [[Fraction(x) for x in row] for row in frame]
    m = [[Fraction(x) for x in row] for row in mat]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    inv = [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]
    best = Fraction(0)
    for s in itertools.product((-1, 1), repeat=2):
        x = [inv[r][0] * s[0] + inv[r][1] * s[1] for r in range(2)]
        best = max(best, *(abs(row[0] * x[0] + row[1] * x[1]) for row in m))
    return best


def test_a_square_frame_keeps_every_vertex_at_any_condition():
    frame = FramedP(INF, ILL_SQUARE_FRAME)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=2)))
    want = np.array([np.linalg.solve(frame.matrix, s) for s in signs])
    assert frame.ball_candidates().tobytes() == want.tobytes()
    space = AtomicMeasureSpace(["a"], [1.0])
    source = FiberModule(space, (Fiber(2, frame),))
    target = FiberModule(space, (Fiber(2, WeightedP(INF, (1.0, 1.0))),))
    phi = ModuleMorphism(source, target, [ILL_SQUARE_MAP])
    exact = _exact_square_inf_norm(ILL_SQUARE_FRAME, ILL_SQUARE_MAP)
    rel = SCALE_COND_FACTOR * np.linalg.cond(frame.matrix) * np.finfo(float).eps
    value = operator_pointwise_norm(phi).values[0]
    assert value == pytest.approx(float(exact), rel=rel, abs=0.0)
    # The map scaled by the computed norm is admissible, and truly so.
    assert is_morphism(scale_morphism(phi, 1.0 / value))
    assert float(exact / Fraction(value)) <= 1.0 + rel


#: Tall frames that a feasibility test with the fixed slack 1e-9, run on
#: every row, read wrong.  The first (condition 1.13e8) kept too few
#: vertices: the map ``I`` into ``WeightedP(inf, (1, 1))`` read 4.339e7
#: where its exact norm is 1.621e8.  The second (condition 4.7e10) kept
#: none, so its norms raised.
ILL_TALL_FRAMES = [
    [[-0.429824230948801, 0.13428355922942906],
     [0.41567543240869687, -0.12986326439386212],
     [0.7440034597762745, -0.23243789601460127]],
    [[0.0547114667416926, -0.01730079192417197],
     [-0.649764889852718, 0.20546784462084383],
     [-0.6956348627305853, 0.2199727903653531]],
]


def _exact_tall_vertices(frame):
    """The vertices of the inf-ball of a k x 2 frame, in exact rational
    arithmetic on the given floats: each nonsingular pair of rows, each
    sign pattern, kept when every row reads at most 1."""
    a = [[Fraction(x) for x in row] for row in frame]
    verts = []
    for i, j in itertools.combinations(range(len(a)), 2):
        det = a[i][0] * a[j][1] - a[i][1] * a[j][0]
        if det == 0:
            continue
        for si, sj in itertools.product((-1, 1), repeat=2):
            x = ((si * a[j][1] - sj * a[i][1]) / det, (sj * a[i][0] - si * a[j][0]) / det)
            if all(abs(r[0] * x[0] + r[1] * x[1]) <= 1 for r in a):
                verts.append(x)
    return verts


def _exact_tall_norms(frame, mat, xi):
    """The exact norm of ``mat`` out of ``FramedP(inf, frame)`` into
    ``WeightedP(inf, (1, 1))``, and the exact dual norm of ``xi``."""
    verts = _exact_tall_vertices(frame)
    m = [[Fraction(x) for x in row] for row in mat]
    op = max(abs(row[0] * x[0] + row[1] * x[1]) for row in m for x in verts)
    dual = max(Fraction(xi[0]) * x[0] + Fraction(xi[1]) * x[1] for x in verts)
    return op, dual


def _tall_frame_rel(frame):
    return SCALE_COND_FACTOR * np.linalg.cond(frame) * np.finfo(float).eps


@pytest.mark.parametrize("frame", ILL_TALL_FRAMES, ids=["cond1.1e8", "cond4.7e10"])
def test_a_tall_frame_keeps_every_vertex(frame):
    spec = FramedP(INF, frame)
    exact, _ = _exact_tall_norms(frame, np.eye(2), (1.0, 0.0))
    value = operator_norm_value(np.eye(2), spec, WeightedP(INF, (1.0, 1.0)))
    assert value == pytest.approx(float(exact), rel=_tall_frame_rel(frame), abs=0.0)
    assert len(spec.ball_candidates()) >= len(_exact_tall_vertices(frame))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 11.9))
@example(0, 11.9)
def test_tall_frames_and_their_duals_match_exact_vertices(seed, log_cond):
    """A 3x2 frame of condition about ``10^log_cond``, up to the 1e12 the
    rank test admits: the operator norm of a map out of its inf-ball and its
    dual norm (``DualOf``) of a covector agree with the exact vertex
    enumeration to ``SCALE_COND_FACTOR * cond * eps``, in both directions."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    right, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    frame = left @ np.diag([1.0, 10.0**-log_cond]) @ right.T
    mat = rng.standard_normal((2, 2))
    xi = rng.standard_normal(2)
    spec = FramedP(INF, frame)
    exact_op, exact_dual = _exact_tall_norms(frame, mat, xi)
    dual = dual_spec(spec)
    assert isinstance(dual, DualOf)
    rel = _tall_frame_rel(frame)
    op = operator_norm_value(mat, spec, WeightedP(INF, (1.0, 1.0)))
    assert op == pytest.approx(float(exact_op), rel=rel, abs=0.0)
    assert norm_eval(dual, xi) == pytest.approx(float(exact_dual), rel=rel, abs=0.0)


def test_an_empty_vertex_set_is_a_located_kernel_error(monkeypatch):
    """Not numpy's unlocated ``zero-size array`` ValueError.  No admitted
    frame keeps no vertex any more, so the enumeration is made to keep
    none."""
    monkeypatch.setattr(FramedP, "_inf_ball_vertices", lambda self, index: np.zeros((0, self.dim)))
    frame = FramedP(INF, ILL_TALL_FRAMES[1])
    with pytest.raises(KernelLimitError, match="kept"):
        frame.ball_candidates()
    frame = FramedP(INF, ILL_TALL_FRAMES[1])
    space = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])
    plane = Fiber(2, WeightedP(2, (1.0, 1.0)))
    source = FiberModule(space, (plane, Fiber(2, frame)))
    phi = ModuleMorphism(source, FiberModule(space, (plane, plane)), [np.eye(2), np.eye(2)])
    with pytest.raises(KernelLimitError) as raised:
        operator_pointwise_norm(phi)
    assert raised.value.atom == "b"
    assert "at atom 'b'" in str(raised.value)
    with pytest.raises(KernelLimitError):
        norm_eval(dual_spec(frame), [1.0, 0.0])


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


def _restricting_parents():
    """A fresh spec of each kind that restricts, all of dim 3."""
    return [
        WeightedP(1, (1.0, 2.0, 0.5)),
        FramedP(INF, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),
        dual_spec(FramedP(1, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 1.0]])),
    ]


def _kept(spec) -> dict:
    return spec._restrictions


_FLAG, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))


@pytest.mark.parametrize("k", range(3))
def test_an_equal_basis_gives_the_one_kept_restriction(k):
    """A non-contiguous view, the original again and a copy: one spec,
    equal to a fresh restriction, with the same ball candidates."""
    parent, fresh_parent = _restricting_parents()[k], _restricting_parents()[k]
    view = _FLAG[:, :2]
    assert not view.flags.c_contiguous
    restricted = parent.restrict(view)
    assert parent.restrict(view) is restricted
    assert parent.restrict(view.copy()) is restricted
    assert parent.restrict(view.tolist()) is restricted
    fresh = fresh_parent.restrict(view.copy())
    assert fresh is not restricted and fresh == restricted
    assert fresh.ball_candidates().tobytes() == restricted.ball_candidates().tobytes()


@pytest.mark.parametrize("k", range(3))
def test_bases_that_differ_in_shape_or_a_zero_sign_give_distinct_specs(k):
    parent = _restricting_parents()[k]
    plane = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    signed = plane.copy()
    signed[2, 0] = -0.0
    assert np.array_equal(plane, signed) and plane.tobytes() != signed.tobytes()
    specs = [parent.restrict(b) for b in (plane, signed, plane[:, :1])]
    assert len({id(spec) for spec in specs}) == 3
    assert [parent.restrict(b) for b in (plane, signed, plane[:, :1])] == specs


@pytest.mark.parametrize("k", range(3))
def test_an_identity_or_failing_restriction_keeps_nothing(k):
    """The identity gives the parent itself, which it does not keep, so no
    spec holds itself; a wrong ambient dim or a NaN raises every time."""
    parent = _restricting_parents()[k]
    assert parent.restrict(np.eye(3)) is parent
    signed = np.eye(3)
    signed[0, 1] = -0.0
    assert parent.restrict(signed) is parent
    nan = _FLAG[:, :2].copy()
    nan[1, 1] = np.nan
    for _ in range(2):
        with pytest.raises(ShapeMismatchError):
            parent.restrict(np.ones((2, 1)))
        with pytest.raises(NonFiniteError):
            parent.restrict(nan)
    assert _kept(parent) == {}


@pytest.mark.parametrize("k", range(3))
def test_a_parent_with_kept_restrictions_pickles_and_copies(k):
    import copy
    import pickle

    parent = _restricting_parents()[k]
    restricted = parent.restrict(_FLAG[:, :2])
    for clone in (pickle.loads(pickle.dumps(parent)), copy.deepcopy(parent)):
        assert clone == parent
        again = clone.restrict(_FLAG[:, :2].copy())
        assert again == restricted and again is not restricted
        assert clone.restrict(_FLAG[:, :2]) is again


@pytest.mark.parametrize("k", range(3))
def test_the_kept_restrictions_never_pass_their_bound(k):
    parent = _restricting_parents()[k]
    for n in range(3 * norms._KEPT_RESTRICTIONS):
        latest = parent.restrict((1.0 + n) * _FLAG[:, :2])
        assert len(_kept(parent)) == min(n + 1, norms._KEPT_RESTRICTIONS)
        assert parent.restrict((1.0 + n) * _FLAG[:, :2]) is latest


def test_threads_restricting_one_spec_share_its_kept_restrictions():
    """Eight threads restrict one parent at once, with a short switch
    interval: along as many bases as the table keeps, every thread gets
    the one kept restriction of each; along three times as many, none
    raises and the table stays within its bound."""
    import sys
    import threading

    parent = WeightedP(1, (1.0, 2.0, 0.5))
    bound = norms._KEPT_RESTRICTIONS
    errors = []

    def run(bases, outs):
        def work(out):
            try:
                for _ in range(30):
                    out += [parent.restrict(b.copy()) for b in bases]
            except Exception as exc:  # a thread's error fails the test below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(out,)) for out in outs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        few = [(1.0 + n) * _FLAG[:, :2] for n in range(bound)]
        outs = [[] for _ in range(8)]
        run(few, outs)
        kept = _kept(parent)
        for out in outs:
            assert len(out) == 30 * bound
            assert all(spec is kept[few[n % bound].tobytes()] for n, spec in enumerate(out))
        run([(1.0 + n) * _FLAG[:, 1:] for n in range(3 * bound)], [[] for _ in range(8)])
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(_kept(parent)) == bound


def test_submodules_along_equal_bases_share_their_fiber_norms():
    from l0limits.modules import submodule_from_bases

    space = AtomicMeasureSpace(["a", "b", "c"], [1.0, 1.0, 1.0])
    module = FiberModule(space, tuple(Fiber(3, spec) for spec in _restricting_parents()))
    first, _ = submodule_from_bases(module, [_FLAG[:, :2]] * 3)
    second, _ = submodule_from_bases(module, [_FLAG[:, :2].copy() for _ in range(3)])
    for f, g in zip(first.fibers, second.fibers):
        assert f.norm is g.norm


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
        assert second == [0.5]


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


@pytest.mark.parametrize("p, frame", [
    (1, [[2.0, 0.5], [-1.0, 3.0]]),
    (INF, [[2.0, 0.5], [-1.0, 3.0]]),
    (2, [[2.0, 0.5], [-1.0, 3.0]]),
    (2, TALL),
], ids=["square-p1", "square-pinf", "square-p2", "tall-p2"])
def test_the_dual_of_an_admitted_frame_runs_no_rank_svd(monkeypatch, p, frame):
    """The dual's frame is derived from one the constructor admitted, so it
    is adopted without the rank SVD; it is the matrix the public
    constructor builds, byte for byte, and read-only."""
    spec = FramedP(p, frame)
    inverse = spec._inverse_transform if p == 2 else np.linalg.inv(spec.matrix)
    want = FramedP({1: INF, INF: 1, 2: 2}[p], inverse.T)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args) or svd(*args, **kwargs))
    dual = spec.dual()
    assert calls == []
    assert isinstance(dual, FramedP) and dual.p == want.p
    assert dual.matrix.tobytes() == want.matrix.tobytes()
    assert dual.matrix.flags.c_contiguous and not dual.matrix.flags.writeable


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


def _batch_pool():
    """Items on every route: one per pair of ``OPNORM_PAIRS``; an
    uncertifiable bracket matrix and a ``c I`` between operator-norm
    fibers; a lone vertex pair whose ball is beyond the enumeration cap; a
    lone facet pair; a spectral pair whose core shape no other pair has;
    and a second spectral pair whose cores share their shape with the
    ``OPNORM_PAIRS`` one, so that the two are stacked together."""
    rng = np.random.default_rng(5)
    items = [(np.array([[1.0, 2.0], [0.0, 1.0]]), COVECTORS, COVECTORS),
             (2.0 * np.eye(2), COVECTORS, COVECTORS)]
    for source, target in OPNORM_PAIRS:
        if kernel_path(source, target) == "bracket":
            mat = _rotation(rng)
        else:
            mat = rng.standard_normal((target.dim, source.dim))
        items.append((mat, source, target))
    capped = (WeightedP(INF, np.ones(13)), WeightedP(2, (1.0,)))
    facet = (WeightedP(2, (1.0, 3.0)), WeightedP(INF, (1.0, 2.0)))
    lone_core = (WeightedP(2, (1.0, 2.0, 0.5)), FramedP(2, rng.standard_normal((4, 4))))
    shared_core = (WeightedP(2, (2.0, 1.0)), WeightedP(2, (1.0, 1.0, 3.0)))
    for source, target in (capped, facet, lone_core, shared_core, shared_core):
        items.append((rng.standard_normal((target.dim, source.dim)), source, target))
    return items


BATCH_POOL = _batch_pool()


def _rebuilt(spec):
    """An equal spec built anew by its constructor, sharing no object or
    cache with ``spec``."""
    if isinstance(spec, WeightedP):
        return WeightedP(spec.p, spec.weights.copy())
    if isinstance(spec, FramedP):
        return FramedP(spec.p, spec.matrix.copy())
    if isinstance(spec, DualOf):
        return DualOf(_rebuilt(spec.inner))
    return OperatorNorm(spec.source_dim, _rebuilt(spec.source_spec),
                        spec.target_dim, _rebuilt(spec.target_spec))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(BATCH_POOL) - 1), st.booleans(), st.booleans()),
                min_size=1, max_size=24))
@example([(k % len(BATCH_POOL), k >= len(BATCH_POOL), k % 2 == 1) for k in range(2 * len(BATCH_POOL))])
def test_a_batch_with_repeated_items_equals_its_singleton_batches(picks):
    """Any subset of the pool's items, in any order and repeated, the same
    matrix object or a copy of it, between the pool's specs or equal
    rebuilt ones: every item gets the value of the pool item's singleton
    batch bit for bit, or an error of the same type and text, and every
    error is an object of its own.  So a spec pair's items may share one
    stack whether their specs are one object or equal ones."""
    items, pooled = [], []
    for k, copy, rebuilt in picks:
        mat, source, target = BATCH_POOL[k]
        if rebuilt:
            source, target = _rebuilt(source), _rebuilt(target)
        items.append((mat.copy() if copy else mat, source, target))
        pooled.append(BATCH_POOL[k])
    values = operator_norm_batch(items)
    assert len(values) == len(items)
    for item, value in zip(pooled, values):
        single = operator_norm_batch([item])[0]
        if isinstance(single, Exception):
            assert (type(value), str(value)) == (type(single), str(single))
        else:
            assert np.float64(value).tobytes() == np.float64(single).tobytes()
    errors = [v for v in values if isinstance(v, Exception)]
    assert len({id(e) for e in errors}) == len(errors)


def test_the_batch_pool_covers_every_route_and_error():
    paths = {kernel_path(source, target) for _, source, target in BATCH_POOL}
    assert paths == {"vertex", "facet", "spectral", "trivial", "bracket"}
    values = operator_norm_batch(BATCH_POOL)
    kinds = {type(v) for v in values if isinstance(v, Exception)}
    assert kinds == {BracketTooWideError, DimensionCapError}


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


def test_the_results_name_the_morphisms_with_a_bracket_atom():
    """The bracket items of a batch, and the morphisms with an atom among
    them, as ``kernel_path`` routes them, whatever their values."""
    import l0limits.modules as modules

    space = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])
    mixed = FiberModule(space, (Fiber(2, WeightedP(2, (1.0, 1.0))), Fiber(2, COVECTORS)))
    plain = euclidean_module(space, 2)
    wide = np.array([[1.0, 2.0], [0.0, 1.0]])
    exact = ModuleMorphism(plain, plain, [wide, wide])
    bracket = ModuleMorphism(mixed, mixed, [wide, 0.5 * np.eye(2)])
    failing = ModuleMorphism(mixed, mixed, [np.eye(2), wide])
    point = FiberModule(AtomicMeasureSpace(["z"], [1.0]), (Fiber(0, zero_norm()),))
    trivial = ModuleMorphism(point, point, [np.zeros((0, 0))])
    results = modules._operator_norm_results([exact, bracket, trivial, failing, exact])
    assert results.inexact == [1, 3]
    assert isinstance(results[3], BracketTooWideError)
    items = [(wide, COVECTORS, COVECTORS), (wide, WeightedP(2, (1.0, 1.0)), WeightedP(1, (1.0, 1.0))),
             (np.eye(2), COVECTORS, COVECTORS)]
    assert operator_norm_batch(items).inexact == [0, 2]


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
