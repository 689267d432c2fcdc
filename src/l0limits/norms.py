"""Fiber norm specifications and the exact evaluation kernel.

The norm family is weighted and framed p-norms for p in {1, 2, inf},
closed under subspace restriction, duality and operator-norm formation:

* ``WeightedP(p, w)``  is ``x -> ||diag(w) x||_p`` with positive weights;
* ``FramedP(p, A)``    is ``x -> ||A x||_p`` with A of full column rank;
* ``DualOf(inner)``    is the dual norm ``xi -> sup{<xi, x> : inner(x) <= 1}``;
* ``OperatorNorm``     is the induced norm on flattened matrices.

Duals are simplified eagerly: only ``DualOf`` of a strictly tall framed
1- or inf-norm survives as a symbolic node, everything else collapses to
a closed form, and double duals flatten back to the original norm.
Specs are immutable, so each computes its dual once and keeps it, as it
keeps its vertex candidates, its inverse transform and its latest
restrictions.

Unit balls of the 1/inf variants are polytopes; convex maximization over
them is exact once a finite candidate superset of the vertices is known.
Candidate enumeration is capped at dimension ``VERTEX_DIM_CAP``.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .config import tolerance
from .errors import (
    BracketTooWideError,
    DimensionCapError,
    KernelLimitError,
    NonFiniteError,
    ShapeMismatchError,
    UnsupportedNormError,
)

INF = float("inf")

#: Sign-pattern and subset enumeration is limited to this many dimensions.
VERTEX_DIM_CAP = 12

#: A framed ball enumerates at most this many subset solves (p=inf), or
#: frame-row evaluations of subset normals, rows x subsets (p=1).
FRAME_BALL_BUDGET = 500_000

#: Floats one array of a stacked frame-ball enumeration may hold.
_CHUNK_FLOATS = 1 << 19

#: The restrictions a spec keeps, at most (see ``_restriction``).
_KEPT_RESTRICTIONS = 4

#: The multiple of a solved inf-ball vertex's rounding bound that its test
#: against the frame's other rows allows (see ``FramedP._inf_ball_vertices``).
_SOLVE_SLACK = 2


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected a matrix, got ndim={a.ndim}")
    return a


def _conjugate(p: float) -> float:
    if p == 1:
        return INF
    if p == INF:
        return 1
    return 2


def _check_cap(n: int, what: str) -> None:
    if n > VERTEX_DIM_CAP:
        raise DimensionCapError(
            f"{what} needs enumeration in dimension {n} > cap {VERTEX_DIM_CAP}"
        )


@cache
def _sign_grid(n: int) -> np.ndarray:
    """All sign vectors in {-1, +1}^n, shape (2^n, n), read-only and built
    once per ``n``."""
    _check_cap(n, "sign-pattern enumeration")
    grid = np.array(list(itertools.product((-1.0, 1.0), repeat=n))) if n else np.zeros((1, 0))
    grid.setflags(write=False)
    return grid


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a matrix or vector ``a`` and a matrix or vector ``b``,
    byte for byte: ``a.dot(b)`` when the inner dimension ``len(b)`` is 2 or
    more, else ``a @ b``.  Every 2-D product and matrix-vector product of
    the library goes through here; stacks of matrices stay on ``@``.

    ``ndarray.dot`` reaches the same BLAS call at about half the dispatch
    cost of ``@`` (about 0.4 against 0.9 us for a 2x2 product on a 2.0 GHz
    Xeon, numpy 2.4.6).  Within the precondition below the two agree on
    every shape, layout and value but for an inner dimension of 1, where
    ``.dot`` scales by the scalar with BLAS and ``@`` multiplies entry by
    entry:

    * ``[[0.]] . [[0., nan]]``: ``@`` gives ``[0, nan]``, ``.dot`` ``[0, 0]``;
    * ``[[2.]] . [[-0.]]``: ``@`` gives ``+0.0``, ``.dot`` ``-0.0``;
    * ``[[1e-200], [1.]] . [[-1e-200, 1.]]``: the corner that underflows is
      ``+0.0`` by ``@`` and ``-0.0`` by ``.dot``.

    Precondition: each operand has a unit stride on one axis, and operands
    that share memory are whole (contiguous) arrays, as every product of
    the library has.  Operands strided on both axes can differ in the last
    bits, and a sliced block against another view of its own buffer (its
    transpose, say) in the sign of a zero or of a NaN.

    An overflow warns as ``@``'s does on numpy 2, named ``dot`` rather than
    ``matmul``; older numpy releases may not warn at all from ``.dot``, so
    an overflow is reported by the kernels' :class:`NonFiniteError`, never
    by a warning: each kernel entry (:func:`operator_norm_batch`,
    :func:`operator_norm_witness`, :func:`spectral_norm_witness`) runs
    under ``np.errstate(over="ignore", invalid="ignore")``, so that a
    caller who turns warnings into errors still gets the located error."""
    return a.dot(b) if len(b) > 1 else a @ b


def _comb(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _p_norm_rows(ys: np.ndarray, p: float) -> np.ndarray:
    """The p-norm of each row of a (k, n) array with n > 0."""
    if p == 1:
        return np.abs(ys).sum(axis=1)
    if p == INF:
        return np.abs(ys).max(axis=1)
    return np.sqrt(np.einsum("ij,ij->i", ys, ys))


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value (LAPACK SVD, scale safe across the float range)."""
    return spectral_norm_witness(mat)[0]


@np.errstate(over="ignore", invalid="ignore")
def spectral_norm_witness(mat: np.ndarray):
    """Largest singular value together with a maximizing unit vector.

    A matrix with a NaN or infinite entry is a :class:`NonFiniteError`:
    LAPACK's SVD fails on it, or on an infinity may not return at all."""
    mat = _as_matrix(mat)
    if not np.isfinite(mat).all():
        raise NonFiniteError("matrix has a NaN or infinite entry")
    rows, cols = mat.shape
    if rows == 0 or cols == 0 or not np.any(mat):
        v = np.zeros(cols)
        if cols:
            v[0] = 1.0
        return 0.0, v
    _, sv, vt = np.linalg.svd(mat, full_matrices=False)
    return float(sv[0]), vt[0]


class WeightedP:
    """Diagonal-weighted p-norm ``x -> ||diag(w) x||_p``."""

    kind = "weighted_p"

    def __init__(self, p, weights):
        p = float(p)
        if p not in (1.0, 2.0, INF):
            raise UnsupportedNormError(f"p must be 1, 2 or inf, got {p}")
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if not np.isfinite(weights).all():
            raise NonFiniteError("norm weights must be finite")
        if weights.size and not np.all(weights > 0.0):
            raise ValueError("norm weights must be strictly positive")
        weights = weights.copy()
        weights.setflags(write=False)
        self.p = p
        self.weights = weights
        self._restrictions = {}

    @property
    def dim(self) -> int:
        return self.weights.size

    @property
    def is_polyhedral(self) -> bool:
        return self.p != 2.0 and self.dim > 0

    def eval_rows(self, xs: np.ndarray) -> np.ndarray:
        return _p_norm_rows(xs * self.weights, self.p)

    @cached_property
    def _diagonal(self) -> np.ndarray:
        return np.diag(self.weights)

    def euclidean_transform(self) -> Optional[np.ndarray]:
        if self.p == 2.0:
            return self._diagonal
        return None

    @cached_property
    def _inverse_transform(self) -> np.ndarray:
        return np.linalg.inv(self._diagonal)

    @cached_property
    def _ball_candidates(self) -> np.ndarray:
        if self.p == 1.0:
            cross = np.diag(1.0 / self.weights)
            return np.vstack([cross, -cross])
        return _sign_grid(self.dim) / self.weights

    @cached_property
    def _dual_candidates(self) -> np.ndarray:
        if self.p == 1.0:
            return _sign_grid(self.dim) * self.weights
        return np.vstack([np.diag(self.weights), -np.diag(self.weights)])

    def ball_candidates(self) -> np.ndarray:
        if not self.is_polyhedral:
            raise UnsupportedNormError("no vertex description for a p=2 ball")
        return self._ball_candidates

    def dual_ball_candidates(self) -> np.ndarray:
        if not self.is_polyhedral:
            raise UnsupportedNormError("no vertex description for a p=2 ball")
        return self._dual_candidates

    def dual(self):
        return self._dual

    @cached_property
    def _dual(self):
        if self.dim == 0:
            return self
        return WeightedP(_conjugate(self.p), 1.0 / self.weights)

    def restrict(self, basis: np.ndarray):
        """The norm ``y -> ||diag(w) B y||_p`` on the span of the columns of
        ``basis``, in their coordinates: a framed p-norm, or this norm for
        the identity.  A restriction along a basis this spec still keeps is
        returned as it is, so the result may be a shared object (see
        :func:`_restriction`)."""
        return _restriction(self, basis)

    def _restricted(self, basis: np.ndarray):
        return FramedP(self.p, self.weights[:, None] * basis)

    def __eq__(self, other):
        return (
            isinstance(other, WeightedP)
            and self.p == other.p
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash(("weighted_p", self.p, self.weights.tobytes()))

    def __repr__(self):
        return f"WeightedP({self.p:g}, {np.array2string(self.weights, precision=4)})"


def zero_norm() -> WeightedP:
    """The norm of the zero space."""
    return WeightedP(1, ())


class FramedP:
    """Composed p-norm ``x -> ||A x||_p`` with A injective (full column rank)."""

    kind = "framed_p"

    def __init__(self, p, matrix, *, _fresh: bool = False):
        # ``_fresh``: the duals below derive a square frame from an admitted
        # one, whose rank needs no second SVD.
        p = float(p)
        if p not in (1.0, 2.0, INF):
            raise UnsupportedNormError(f"p must be 1, 2 or inf, got {p}")
        matrix = _as_matrix(matrix)
        if not np.isfinite(matrix).all():
            raise NonFiniteError("frame matrix must be finite")
        rows, cols = matrix.shape
        if cols > 0 and not _fresh:
            if rows < cols:
                raise ValueError("frame matrix must have at least as many rows as columns")
            sv = np.linalg.svd(matrix, compute_uv=False)
            if sv.size == 0 or sv[-1] <= 1e-12 * sv[0]:
                raise ValueError("frame matrix must have full column rank")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self.p = p
        self.matrix = matrix
        self._restrictions = {}

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def is_square(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1]

    @property
    def is_polyhedral(self) -> bool:
        return self.p != 2.0 and self.dim > 0

    def eval_rows(self, xs: np.ndarray) -> np.ndarray:
        return _p_norm_rows(_mm(xs, self.matrix.T), self.p)

    @cached_property
    def _square_transform(self) -> np.ndarray:
        # ||A x||_2 == ||R x||_2 for the triangular factor of A = QR.
        if self.is_square:
            return self.matrix
        r = np.linalg.qr(self.matrix, mode="r")
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return signs[:, None] * r

    def euclidean_transform(self) -> Optional[np.ndarray]:
        if self.p == 2.0:
            return self._square_transform
        return None

    @cached_property
    def _inverse_transform(self) -> np.ndarray:
        return np.linalg.inv(self._square_transform)

    @cached_property
    def _ball_candidates(self) -> np.ndarray:
        """Vertex candidates of the unit ball, one per row, in the order of
        the row subsets they come from (and of the sign patterns, for p=inf).

        The subsets are enumerated in stacks of LAPACK calls.  A stack holds
        as many subsets as keep each of its arrays within ``_CHUNK_FLOATS``
        floats (4 MiB), so that any frame the budget admits is enumerated
        with at most 32 MiB of working arrays, besides the candidates
        themselves (held twice while the stacks' parts are joined).  The
        budget is checked before anything is allocated.  The rank, determinant
        and length thresholds are relative, so ``FramedP(p, c * A)`` has the
        candidates of ``FramedP(p, A)`` divided by ``c``, up to rounding.  A
        one-column frame needs no enumeration.
        """
        rows, cols = self.matrix.shape
        if self.p == 1.0:
            # Each subset's normal is measured against every row of A.
            size, per_subset = max(cols - 1, 0), rows
        else:
            size, per_subset = cols, 2 ** min(cols, 40)
        work = _comb(rows, size) * per_subset
        if work > FRAME_BALL_BUDGET:
            raise DimensionCapError(
                f"frame ball enumeration needs {work} candidate solves "
                f"(budget {FRAME_BALL_BUDGET})"
            )
        if cols == 1:
            if self.p == 1.0:
                u = np.ones(1)
                return np.array([u, -u]) / np.abs(self.matrix).sum()
            # The ball is [-1/max |a_i|, 1/max |a_i|]: its vertices +-1/a_i,
            # the points a subset solve gives, come from the rows of largest
            # modulus, found exactly.
            moduli = np.abs(self.matrix[:, 0])
            x = 1.0 / self.matrix[moduli == moduli.max()]
            return np.stack([-x, x], axis=1).reshape(-1, 1)
        if self.p == 1.0:
            stack, widest = self._one_ball_vertices, max(cols * cols, rows)
        else:
            stack, widest = self._inf_ball_vertices, per_subset * rows
        step = max(1, _CHUNK_FLOATS // widest)
        subsets = itertools.combinations(range(rows), size)
        parts = []
        for _ in range(0, _comb(rows, size), step):
            flat = itertools.chain.from_iterable(itertools.islice(subsets, step))
            index = np.fromiter(flat, dtype=np.intp).reshape(-1, size)
            parts.append(stack(index))
        candidates = np.concatenate(parts)
        if not len(candidates):
            raise KernelLimitError(f"no vertex of the {self!r} unit ball was kept")
        return candidates

    def _one_ball_vertices(self, index: np.ndarray) -> np.ndarray:
        """Vertices of {x : ||A x||_1 <= 1} from a (k, dim-1) stack of row
        subsets.  The dual ball is the zonotope spanned by the rows of
        A, whose facet normals are orthogonal to (dim-1)-subsets of rows;
        each normal u gives the vertices +-u / ||A u||_1."""
        _, sv, vt = np.linalg.svd(self.matrix[index])
        normals = vt[(sv > 1e-12 * sv[:, :1]).all(axis=1), -1]
        lengths = np.abs(np.matmul(self.matrix, normals[:, :, None]))[:, :, 0].sum(axis=1)
        keep = lengths > 1e-12 * np.abs(self.matrix).max()
        verts = normals[keep] / lengths[keep, None]
        return np.stack([verts, -verts], axis=1).reshape(-1, self.dim)

    def _inf_ball_vertices(self, index: np.ndarray) -> np.ndarray:
        """Vertices of {x : |a_i . x| <= 1} from a (k, dim) stack of row
        subsets S: the intersections of dim active facets, ``A_S x = s`` for
        every sign pattern s, filtered by feasibility.  Subsets are judged
        singular on their rows scaled to unit largest entry, whose
        determinant neither overflows nor underflows.  A square frame's one
        subset is A itself, which the frame's rank test admitted, and its
        vertices are exactly ``A^-1 s``: they are kept unfiltered.

        A tall frame tests only the rows outside S (those in S equal +-1 by
        construction), each with a slack scaled to the solve's error, so
        that a vertex is kept at any condition the rank test admits.  The
        computed ``a_i . x`` is off by its own rounding, about ``dim * eps *
        ||a_i||_1 ||x||_inf``, plus ``lambda_i . r`` for ``a_i = lambda_i
        A_S`` and the solve's residual r, about ``dim * eps * ||a_j||_1
        ||x||_inf`` in row j of S; the slack is ``_SOLVE_SLACK`` times their
        sum.  The sign patterns G satisfy ``G^T G = 2^dim I``, so ``A_S^-1 =
        X^T G / 2^dim`` for the solved points X, with no LAPACK call."""
        subs = self.matrix[index]
        grid = _sign_grid(self.dim)
        # One right-hand side per solve, as a (dim, 1) matrix: numpy 1.x and
        # 2.x read that shape alike.
        signs = grid[None, :, :, None]
        if self.is_square:
            return np.linalg.solve(subs[:, None], signs).reshape(-1, self.dim)
        scale = np.abs(subs).max(axis=2, keepdims=True)
        scale[scale == 0.0] = 1.0
        regular = np.abs(np.linalg.det(subs / scale)) > 1e-12
        subs, index = subs[regular], index[regular]
        xs = np.linalg.solve(subs[:, None], signs)[..., 0]
        lams = np.abs(self.matrix @ (xs.swapaxes(1, 2) @ grid)) / len(grid)
        lengths = np.abs(self.matrix).sum(axis=1)
        bounds = lengths + (lams @ lengths[index][:, :, None])[:, :, 0]
        # A row of S, or a zero row, needs no test: its bound is infinite.
        bounds[np.arange(len(index))[:, None], index] = np.inf
        bounds[bounds == 0.0] = np.inf
        # Each |a_i . x| - 1 in units of its row's bound, in place.
        excess = xs @ self.matrix.T
        np.abs(excess, out=excess)
        excess -= 1.0
        excess /= bounds[:, None, :]
        slack = _SOLVE_SLACK * self.dim * np.finfo(float).eps * np.abs(xs).max(axis=2)
        return xs[excess.max(axis=2) <= slack]

    @cached_property
    def _dual_candidates(self) -> np.ndarray:
        rows, _ = self.matrix.shape
        if self.p == 1.0:
            # Dual ball is the zonotope A^T [-1,1]^rows; its extreme
            # points lie among A^T s over sign vectors s.
            return _mm(_sign_grid(rows), self.matrix)
        return np.vstack([self.matrix, -self.matrix])

    def ball_candidates(self) -> np.ndarray:
        if not self.is_polyhedral:
            raise UnsupportedNormError("no vertex description for a p=2 ball")
        return self._ball_candidates

    def dual_ball_candidates(self) -> np.ndarray:
        if not self.is_polyhedral:
            raise UnsupportedNormError("no vertex description for a p=2 ball")
        return self._dual_candidates

    def dual(self):
        return self._dual

    @cached_property
    def _dual(self):
        if self.dim == 0:
            return zero_norm()
        if self.p == 2.0:
            return FramedP(2, self._inverse_transform.T, _fresh=True)
        if self.is_square:
            return FramedP(_conjugate(self.p), np.linalg.inv(self.matrix).T, _fresh=True)
        return DualOf(self)

    def restrict(self, basis: np.ndarray):
        """The norm ``y -> ||A B y||_p`` on the span of the columns of
        ``basis``, in their coordinates, or this norm for the identity.  A
        restriction along a basis this spec still keeps is returned as it
        is, so the result may be a shared object (see :func:`_restriction`)."""
        return _restriction(self, basis)

    def _restricted(self, basis: np.ndarray):
        return FramedP(self.p, _mm(self.matrix, basis))

    def __eq__(self, other):
        return (
            isinstance(other, FramedP)
            and self.p == other.p
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash(("framed_p", self.p, self.matrix.tobytes()))

    def __repr__(self):
        return f"FramedP({self.p:g}, shape={self.matrix.shape})"


class DualOf:
    """Dual norm of a strictly tall framed 1- or inf-norm.

    Every other dual collapses to a closed form; see :func:`dual_spec`.
    Evaluation is exact convex maximization over the inner unit ball,
    which is a polytope with an explicitly enumerable vertex set.
    """

    kind = "dual_of"

    def __init__(self, inner: FramedP):
        if not isinstance(inner, FramedP) or inner.p == 2.0 or inner.is_square:
            raise UnsupportedNormError(
                "DualOf only wraps strictly tall framed 1/inf norms; "
                "use dual_spec for the general construction"
            )
        self.inner = inner
        self._restrictions = {}

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def is_polyhedral(self) -> bool:
        return True

    def eval_rows(self, xs: np.ndarray) -> np.ndarray:
        # The candidate set is symmetric, so the plain maximum of the
        # pairings equals the maximum of their absolute values.
        return np.max(_mm(xs, self.inner.ball_candidates().T), axis=1)

    def euclidean_transform(self) -> Optional[np.ndarray]:
        return None

    def ball_candidates(self) -> np.ndarray:
        return self.inner.dual_ball_candidates()

    def dual_ball_candidates(self) -> np.ndarray:
        return self.inner.ball_candidates()

    def dual(self):
        return self.inner

    def restrict(self, basis: np.ndarray):
        """This norm on the span of the columns of ``basis``, in their
        coordinates: a framed inf-norm, or this norm for the identity.  A
        restriction along a basis this spec still keeps is returned as it
        is, so the result may be a shared object (see :func:`_restriction`)."""
        return _restriction(self, basis)

    def _restricted(self, basis: np.ndarray):
        if basis.shape[1] == 0:
            return zero_norm()
        # Restricting a polyhedral norm with dual candidates {w} gives the
        # max-of-functionals norm with functionals {B^T w}, i.e. a framed
        # inf-norm.  Keep one functional from each +- pair.
        cands = self.dual_ball_candidates()
        rows = _mm(cands, basis)
        keep = _halve_symmetric(rows)
        return FramedP(INF, keep)

    def __eq__(self, other):
        return isinstance(other, DualOf) and self.inner == other.inner

    def __hash__(self):
        return hash(("dual_of", self.inner))

    def __repr__(self):
        return f"DualOf({self.inner!r})"


def _restriction(spec, basis):
    """``spec`` restricted to the span of the columns of ``basis``, the
    entry of every ``restrict``: the shape check, then ``spec`` itself for
    the identity, else the restriction ``spec`` keeps along an equal basis
    (same shape, same bytes), else a new one from ``spec._restricted``.

    A nested-subspace system restricts one ambient norm to a few subspaces
    over and over, so equal restrictions are one object: its ball
    candidates, factors and operator-norm stacks are built once.  A
    construction reads only the basis's values, so a kept restriction is
    bit for bit the one a new build would give; bases that differ in a
    byte (the sign of a zero) are kept apart.  The bytes fix the shape too,
    since the rows are the spec's dim (a spec of dim 0 has no restriction
    but itself).  A spec keeps its latest ``_KEPT_RESTRICTIONS``
    restrictions in a plain dict made with it, which pickles and copies
    with it.  A restriction that raises is not kept, and neither is the
    identity, so no spec holds itself.  Each change to a table is one dict
    call, atomic under the interpreter, and ``setdefault`` keeps the first
    of racing builds: threads that restrict one spec at once all get the
    one kept restriction, with no lock."""
    basis = _as_matrix(basis)
    dim, cols = basis.shape
    if dim != spec.dim:
        raise ShapeMismatchError("restriction basis has wrong ambient dimension")
    key = basis.tobytes()
    # The bytes of the identity settle the common case; an identity with a
    # -0.0 entry is one too.
    if cols == dim and (key == _eye(dim).tobytes() or _scalar_of(basis) == 1.0):
        return spec
    kept = spec._restrictions
    restricted = kept.get(key)
    if restricted is None:
        restricted = kept.setdefault(key, spec._restricted(basis))
        for stale in list(kept)[:-_KEPT_RESTRICTIONS]:
            kept.pop(stale, None)
    return restricted


def _halve_symmetric(rows: np.ndarray) -> np.ndarray:
    """Drop near-zero, near-duplicate and sign-mirrored rows, keeping the
    span intact and the kept rows in order.  The thresholds are relative
    to the largest entry, so rows scaled by any ``c != 0`` keep the same
    rows.

    A row is kept unless it is near zero or agrees entrywise, to within the
    relative ``atol``, with a kept row or its negative.  The restricted norm
    is the largest ``|row . x|``, so only rows that agree to rounding may be
    merged: a merge at ``np.allclose``'s ``rtol=1e-5`` made the norm
    undershoot by up to 1e-5 relative.  The rows are compared in blocks,
    each with the rows kept so far and with itself in one broadcast test of
    at most ``_CHUNK_FLOATS`` floats per array; one pass over a block's
    booleans then keeps its rows in order."""
    scale = np.max(np.abs(rows), initial=0.0)
    atol = 1e-12 * scale
    rows_left = rows[np.max(np.abs(rows), axis=1, initial=0.0) > 1e-14 * scale]
    kept = rows_left[:0]
    while len(rows_left):
        step = max(1, _CHUNK_FLOATS // (rows.shape[1] * (len(kept) + len(rows_left))))
        block, rows_left = rows_left[:step], rows_left[step:]
        known = np.concatenate([kept, block])
        # For -k the difference is r + k.
        close = (np.abs(block[:, None] - known[None]) <= atol).all(axis=2)
        close |= (np.abs(block[:, None] + known[None]) <= atol).all(axis=2)
        alive = np.zeros(len(known), dtype=bool)
        alive[: len(kept)] = True
        for n in range(len(block)):
            if not (close[n] & alive).any():
                alive[len(kept) + n] = True
        kept = known[alive]
    return kept if len(kept) else rows


class OperatorNorm:
    """Induced norm on (target_dim x source_dim) matrices, flattened row-major."""

    kind = "operator"

    def __init__(self, source_dim, source_spec, target_dim, target_spec):
        source_dim = int(source_dim)
        target_dim = int(target_dim)
        if source_spec.dim != source_dim or target_spec.dim != target_dim:
            raise ShapeMismatchError("operator norm endpoint dims do not match specs")
        self.source_dim = source_dim
        self.source_spec = source_spec
        self.target_dim = target_dim
        self.target_spec = target_spec

    @property
    def dim(self) -> int:
        return self.source_dim * self.target_dim

    @property
    def is_polyhedral(self) -> bool:
        return False

    def eval_rows(self, xs: np.ndarray) -> np.ndarray:
        mats = xs.reshape(-1, self.target_dim, self.source_dim)
        return operator_norm_values(mats, self.source_spec, self.target_spec)

    def euclidean_transform(self) -> Optional[np.ndarray]:
        return None

    def dual(self):
        raise UnsupportedNormError("duals of operator-norm fibers are not supported")

    def restrict(self, basis):
        raise UnsupportedNormError(
            "subspace restriction of operator-norm fibers is not supported"
        )

    def __eq__(self, other):
        return (
            isinstance(other, OperatorNorm)
            and self.source_dim == other.source_dim
            and self.target_dim == other.target_dim
            and self.source_spec == other.source_spec
            and self.target_spec == other.target_spec
        )

    def __hash__(self):
        return hash(("operator", self.source_spec, self.target_spec))

    def __repr__(self):
        return f"OperatorNorm({self.source_dim}->{self.target_dim})"


def _is_unit_scalar(dim: int, spec) -> bool:
    """Whether a declared dim of 1 with ``spec`` is the scalars.  The
    scalar 1 is the shared ``_eye(1)``, and ``norm_rows`` tests its shape
    against the spec, so a spec of another dim raises."""
    return dim == 1 and abs(norm_rows(spec, _eye(1))[0] - 1.0) <= 1e-15


def dual_spec(spec):
    """Dual norm with eager simplification and double-dual flattening."""
    if spec.dim == 0:
        return spec
    return spec.dual()


def operator_spec(source_dim, source_spec, target_dim, target_spec):
    """Norm spec for a space of homomorphisms, simplified where possible.

    A scalar target turns the matrix space into covectors with the dual
    norm; a scalar source turns it into target vectors with the target
    norm.  Both simplifications keep evaluation exact.
    """
    if source_dim == 0 or target_dim == 0:
        return zero_norm()
    if _is_unit_scalar(target_dim, target_spec):
        return dual_spec(source_spec)
    if _is_unit_scalar(source_dim, source_spec):
        return target_spec
    return OperatorNorm(source_dim, source_spec, target_dim, target_spec)


def norm_rows(spec, xs) -> np.ndarray:
    """Evaluate a norm spec on each row of a (k, dim) array of coordinates."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != spec.dim:
        raise ShapeMismatchError(f"rows of shape {xs.shape} against norm of dim {spec.dim}")
    if spec.dim == 0 or xs.shape[0] == 0:
        return np.zeros(xs.shape[0])
    return spec.eval_rows(xs)


def norm_eval(spec, x) -> float:
    """Evaluate a norm spec on a coordinate vector."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != spec.dim:
        raise ShapeMismatchError(f"vector of length {x.size} against norm of dim {spec.dim}")
    return float(norm_rows(spec, x[None, :])[0])


# ---------------------------------------------------------------------------
# Operator norms between normed fibers.
#
# Dispatch, after a rule that needs no kernel: a matrix c I between equal
# specs has the norm |c| (homogeneity).  Then:
#   (a) polytope source ball: convex maximization attains at a vertex, so
#       evaluate the target norm at each candidate;
#   (b) Euclidean source and target: largest singular value;
#   (c) Euclidean source, polytope target: per target facet functional a
#       closed-form quadratic maximization;
#   (d) anything else: certified bracket, erroring when too wide.
# ---------------------------------------------------------------------------


def _euclidean_upper(spec) -> float:
    """Upper bound for sup{spec(x) : ||x||_2 <= 1}."""
    if spec.dim == 0:
        return 0.0
    if spec.is_polyhedral:
        return float(np.max(np.linalg.norm(spec.dual_ball_candidates(), axis=1)))
    r = spec.euclidean_transform()
    if r is not None:
        return spectral_norm(r)
    assert isinstance(spec, OperatorNorm)
    lo = _euclidean_lower(spec.source_spec)
    if lo == 0.0:
        return INF
    return _euclidean_upper(spec.target_spec) / lo


def _euclidean_lower(spec) -> float:
    """Lower bound for inf{spec(x) : ||x||_2 = 1}."""
    if spec.dim == 0:
        return INF
    if spec.is_polyhedral:
        reach = float(np.max(np.linalg.norm(spec.ball_candidates(), axis=1)))
        return 1.0 / reach if reach > 0 else INF
    r = spec.euclidean_transform()
    if r is not None:
        return float(np.linalg.svd(r, compute_uv=False)[-1])
    assert isinstance(spec, OperatorNorm)
    up = _euclidean_upper(spec.source_spec)
    if up == 0.0 or up == INF:
        return 0.0
    rank_cap = np.sqrt(min(spec.source_dim, spec.target_dim))
    return _euclidean_lower(spec.target_spec) / (up * rank_cap)


_BRACKET_RNG_SEED = 0x5EED


def _bracket_norm(mat, source_spec, target_spec):
    cols = mat.shape[1]
    rng = np.random.default_rng(_BRACKET_RNG_SEED)
    dirs = np.vstack([np.ones((1, cols)), np.eye(cols), rng.standard_normal((64, cols))])
    sizes = norm_rows(source_spec, dirs)
    keep = sizes > 1e-14
    units = dirs[keep] / sizes[keep, None]
    values = norm_rows(target_spec, _mm(units, mat.T))
    lower = 0.0
    witness = None
    if values.size and values.max() > 0.0:
        best = int(np.argmax(values))
        lower, witness = float(values[best]), units[best]
    upper = _euclidean_upper(target_spec) * spectral_norm(mat)
    lo_src = _euclidean_lower(source_spec)
    upper = INF if lo_src == 0.0 else upper / lo_src
    if upper - lower <= tolerance() * max(1.0, lower):
        return lower, witness
    raise BracketTooWideError(lower, upper, "uncertified operator norm combination")


def kernel_path(source_spec, target_spec) -> str:
    """The route :func:`operator_norm_witness` takes for a pair of fiber norms.

    ``"trivial"`` (a zero-dimensional side), ``"vertex"``, ``"facet"`` and
    ``"spectral"`` evaluate the operator norm exactly; ``"bracket"`` is the
    certified-bracket fallback.
    """
    if source_spec.dim == 0 or target_spec.dim == 0:
        return "trivial"
    if source_spec.is_polyhedral:
        return "vertex"
    if source_spec.euclidean_transform() is not None:
        if target_spec.is_polyhedral:
            return "facet"
        if target_spec.euclidean_transform() is not None:
            return "spectral"
    return "bracket"


@np.errstate(over="ignore", invalid="ignore")
def operator_norm_witness(mat, source_spec, target_spec):
    """Exact pointwise operator norm with a maximizing unit vector.

    The witness has source norm one and achieves the returned value
    (``None`` for degenerate shapes).  The value is the one
    :func:`operator_norm_batch` gives, bit for bit: a matrix ``c I``
    between equal specs has the norm ``|c|``, and any unit vector is its
    witness.
    """
    mat = _as_matrix(mat)
    _check_shape(mat, source_spec, target_spec)
    path = kernel_path(source_spec, target_spec)
    if path == "trivial":
        return 0.0, None
    scalar = _scalar_of(mat)
    if scalar is not None and (source_spec is target_spec or source_spec == target_spec):
        unit = _eye(source_spec.dim)[:1]
        return abs(scalar), unit[0] / norm_rows(source_spec, unit)[0]
    if path == "vertex":
        cands, values = _vertex_norms(mat, source_spec, target_spec)
        best = int(np.argmax(values))
        return float(values[best]), cands[best]
    if path == "bracket":
        return _bracket_norm(mat, source_spec, target_spec)
    r_inv = source_spec._inverse_transform
    if path == "facet":
        rows, scores = _facet_scores(mat, source_spec, target_spec)
        best = int(np.argmax(scores))
        value = float(scores[best])
        if value <= 0.0:
            r = source_spec.euclidean_transform()
            return 0.0, r_inv[:, 0] / np.linalg.norm(_mm(r, r_inv[:, 0]))
        return value, _mm(r_inv, rows[best] / value)
    sigma, u = spectral_norm_witness(_spectral_core(mat, source_spec, target_spec))
    return sigma, _mm(r_inv, u)


def operator_norm_value(mat, source_spec, target_spec) -> float:
    """Exact pointwise operator norm, ``operator_norm_witness(...)[0]``:
    the one-item case of :func:`operator_norm_batch`."""
    mat = _as_matrix(mat)
    return _raise_first(operator_norm_batch([(mat, source_spec, target_spec)]))[0]


def operator_norm_values(mats, source_spec, target_spec) -> np.ndarray:
    """Exact operator norm of each matrix in a (k, t, s) stack: the
    one-spec-pair case of :func:`operator_norm_batch`."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1:] != (target_spec.dim, source_spec.dim):
        raise ShapeMismatchError("matrix stack shape does not match fiber dimensions")
    values = operator_norm_batch([(m, source_spec, target_spec) for m in mats])
    return np.array(_raise_first(values), dtype=float)


@np.errstate(over="ignore", invalid="ignore")
def operator_norm_batch(items) -> list:
    """Exact operator norm of each ``(matrix, source spec, target spec)`` item.

    The matrices are float arrays of shape (target dim, source dim).  Each
    value equals ``operator_norm_witness(...)[0]`` bit for bit.  Items are
    grouped by their pair of specs (the same objects), and one pass over
    the pairs settles each in place: its route (:func:`kernel_path`), then
    the rule that a matrix ``c I`` between equal specs has the norm ``|c|``
    (the pointwise norm is homogeneous), then the kernel of its route for
    the matrices left: a vertex or facet pair in one stacked call (a lone
    matrix on the vertex path in 2-D products, see :func:`_vertex_norms`),
    and a bracket pair one matrix at a time.
    Only spectral cores ``T M R^-1`` are gathered across the pairs, by
    shape, for one LAPACK SVD per shape.  An item no exact kernel
    evaluates gets its :class:`KernelLimitError` in place of its value,
    and a spectral item whose core overflows its :class:`NonFiniteError`,
    so that a caller can raise it where a loop over the items would; every
    item gets an error object of its own.  The list's ``inexact`` holds the
    positions, in order, of the items on the bracket path.
    """
    # Per spec pair, its specs, the matrix shape its fibers fix and the
    # positions of its items.
    pairs = {}
    for n, (mat, source_spec, target_spec) in enumerate(items):
        key = (id(source_spec), id(target_spec))
        pair = pairs.get(key)
        if pair is None:
            pair = pairs[key] = (source_spec, target_spec, (target_spec.dim, source_spec.dim), [])
        if mat.shape != pair[2]:
            raise ShapeMismatchError("matrix shape does not match fiber dimensions")
        pair[3].append(n)
    values = [0.0] * len(items)
    cores, inexact = {}, []
    for source_spec, target_spec, shape, positions in pairs.values():
        path = kernel_path(source_spec, target_spec)
        if path == "trivial":
            continue
        if path == "bracket":
            inexact += positions
        # Only a square matrix can be c I.
        if shape[0] == shape[1] and (source_spec is target_spec or source_spec == target_spec):
            rest = []
            for n in positions:
                c = _scalar_of(items[n][0])
                if c is None:
                    rest.append(n)
                else:
                    values[n] = abs(c)
        else:
            rest = positions
        if path == "spectral":
            for n in rest:
                core = _spectral_core(items[n][0], source_spec, target_spec)
                cores.setdefault(core.shape, []).append((n, core))
        elif len(rest) == 1:
            values[rest[0]] = _pair_values(path, items[rest[0]][0][None], source_spec, target_spec)[0]
        elif rest:
            stack = np.array([items[n][0] for n in rest])
            for n, value in zip(rest, _pair_values(path, stack, source_spec, target_spec)):
                values[n] = value
    for run in cores.values():
        for (n, _), value in zip(run, _spectral_values(np.array([c for _, c in run]))):
            values[n] = value
    return _Results(values, sorted(inexact))


class _Results(list):
    """A list of results, of items or of morphisms, whose ``inexact`` holds
    the positions of the entries that the bracket path evaluated, in whole
    or in part."""

    __slots__ = ("inexact",)

    def __init__(self, values, inexact):
        super().__init__(values)
        self.inexact = inexact


@cache
def _eye(n: int) -> np.ndarray:
    """``np.eye(n)``, read-only and built once per ``n``."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _scalar_of(m: np.ndarray) -> Optional[float]:
    """``c`` when ``m`` is ``c I`` (square, non-empty) with ``c`` finite,
    zero included, else None: the one recogniser of that structure for the
    norm, rank and inverse rules.  The top right corner and the last
    diagonal entry rule out most other matrices before the whole is
    compared."""
    n = len(m)
    if not n or m.shape != (n, n):
        return None
    c = m.item(0)
    if not math.isfinite(c):
        return None
    if n > 1 and (
        m.item(n - 1) != 0.0 or m.item(n * n - 1) != c or not (m == c * _eye(n)).all()
    ):
        return None
    return c


def _pair_values(path, mats, source_spec, target_spec) -> list:
    """The values of a (k, t, s) stack of matrices between one pair of
    specs on the vertex, facet or bracket path.  A stack that raises a
    :class:`KernelLimitError` is taken apart, so that each matrix gets its
    value or an error of its own."""
    try:
        if path == "vertex":
            return _vertex_norms(mats, source_spec, target_spec)[1].max(axis=-1).tolist()
        if path == "facet":
            return _facet_scores(mats, source_spec, target_spec)[1].max(axis=-1).tolist()
        return [_bracket_norm(m, source_spec, target_spec)[0] for m in mats]
    except KernelLimitError as exc:
        if len(mats) == 1:
            return [exc]
    return [_pair_values(path, m[None], source_spec, target_spec)[0] for m in mats]


def _spectral_values(cores) -> list:
    """Per core of a (k, t, s) stack, its largest singular value as
    :func:`spectral_norm` gives it: from the full SVD, since the largest
    singular value ``compute_uv=False`` gives can differ in the last bits,
    and zero for a zero core.  A core that overflowed gets a
    :class:`NonFiniteError` in its place, so that the SVD of the others
    still runs."""
    finite = np.isfinite(cores).all(axis=(1, 2))
    if finite.all():
        sigmas = np.linalg.svd(cores, full_matrices=False)[1][:, 0]
    else:
        sigmas = np.zeros(len(cores))
        if finite.any():
            sigmas[finite] = np.linalg.svd(cores[finite], full_matrices=False)[1][:, 0]
    sigmas[~cores.any(axis=(1, 2))] = 0.0
    return [
        s if ok else NonFiniteError("operator norm overflows the float range")
        for s, ok in zip(sigmas.tolist(), finite.tolist())
    ]


def _raise_first(values: list) -> list:
    """A list of results, raising the first error among them."""
    for value in values:
        if isinstance(value, Exception):
            raise value
    return values


def _check_shape(mat, source_spec, target_spec) -> None:
    if mat.shape != (target_spec.dim, source_spec.dim):
        raise ShapeMismatchError("matrix shape does not match fiber dimensions")


def _vertex_norms(mats, source_spec, target_spec):
    """The source ball's vertex candidates and the target norm of each
    one's image under a (t, s) matrix, or under each matrix of a (k, t, s)
    stack: shape (candidates,) or (k, candidates).  One matrix, alone or
    as a stack of one, takes 2-D products (see :func:`_mm`)."""
    cands = source_spec.ball_candidates()
    if mats.ndim == 2 or len(mats) == 1:
        images = _mm(cands, mats.reshape(mats.shape[-2:]).T)
    else:
        images = cands @ mats.swapaxes(-1, -2)
    values = target_spec.eval_rows(images.reshape(-1, target_spec.dim))
    return cands, values.reshape(mats.shape[:-2] + (len(cands),))


def _facet_scores(mats, source_spec, target_spec):
    """Each target facet functional pulled back through a (t, s) matrix, or
    each matrix of a (k, t, s) stack, and the source's inverse transform;
    and the length of each."""
    rows = target_spec.dual_ball_candidates() @ mats @ source_spec._inverse_transform
    return rows, np.linalg.norm(rows, axis=-1)


def _spectral_core(mat, source_spec, target_spec) -> np.ndarray:
    """``T M R^-1``: its largest singular value is the operator norm."""
    return _mm(_mm(target_spec.euclidean_transform(), mat), source_spec._inverse_transform)

