"""Independent oracles used to cross-check the exact kernels.

These deliberately take different routes than the library: linear
programming and least squares for minima over affine sets, and random
sampling with derivative-free polishing for operator-norm lower bounds.
Dual-ball candidate sets for the base norm kinds are recomputed locally.

System validation and poset closure are checked against the plain
versions they replaced: a fresh breadth-first search for every composite,
every law evaluated on every pair and triple, and a fixed-point closure
of the order pairs, with the greatest element folded from pairwise upper
bounds and the redundant cocycle targets counted over a topological order
of the supplied edges.  Likewise the batched norm kernels are checked
against per-vector evaluation, the stacked frame-ball enumeration against
its subset-by-subset loop, the merge of restricted dual functionals
against its row-by-row loop, and the isometry certificate against its
atom-by-atom loop over witness calls.  The shared limit core (limits,
universal factorizations, limit functors, rank preservation, pullback
comparisons) is checked against the per-direction functions it replaced,
and so are threads and colimit seminorms against their hand-written
versions, from before they went through the universal property.
"""

from __future__ import annotations

import itertools
from graphlib import TopologicalSorter
from typing import Dict, List, Optional

import numpy as np
from scipy.optimize import linprog

from l0limits.config import tolerance
from l0limits.direct import DirectSystem, Target, validate_direct_system
from l0limits.errors import ShapeMismatchError, ValidationError
from l0limits.indexsets import (
    Chain,
    FinitePoset,
    greatest_element,
    tail_growth_sup,
    tail_limit_factor,
)
from l0limits.inverse import InverseSystem, Source, Thread, il_norm, validate_inverse_system
from l0limits.modules import (
    Element,
    IsoCertificate,
    ModuleMorphism,
    apply,
    certify_isometric_iso,
    composite_deviation,
    compose,
    identity_morphism,
    mask_inclusion,
    mask_module,
    morphism_deviation,
    operator_pointwise_norm,
    pointwise_norm,
)
from l0limits.pullback import (
    IL_PULLBACK_NOTE,
    PullbackCommuteReport,
    _pull_index,
    pullback_module,
)
from l0limits.measure import AtomMap, L0Function
from l0limits.systems import (
    LimitPresentation,
    PreservationReport,
    SystemMorphism,
    SystemReport,
    Violation,
)
from l0limits.norms import (
    INF,
    DualOf,
    FramedP,
    OperatorNorm,
    WeightedP,
    norm_eval,
    operator_norm_witness,
)

# ---------------------------------------------------------------------------
# Local dual-ball candidates (max-of-functionals form of each norm).
# ---------------------------------------------------------------------------


def _signs(n):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


def dual_functionals(spec):
    """Rows d with spec(x) = max_d <d, x>, derived independently."""
    if isinstance(spec, WeightedP):
        if spec.p == 1:
            return _signs(spec.dim) * spec.weights
        if spec.p == INF:
            return np.vstack([np.diag(spec.weights), -np.diag(spec.weights)])
    if isinstance(spec, FramedP):
        if spec.p == 1:
            return _signs(spec.matrix.shape[0]) @ spec.matrix
        if spec.p == INF:
            return np.vstack([spec.matrix, -spec.matrix])
    if isinstance(spec, DualOf):
        # The dual of the dual is the original: functionals are the points
        # of the inner ball, approximated here by its own evaluation.
        return spec.dual_ball_candidates()
    raise ValueError(f"no functional form for {spec!r}")


def _euclidean_matrix(spec):
    if isinstance(spec, WeightedP) and spec.p == 2:
        return np.diag(spec.weights)
    if isinstance(spec, FramedP) and spec.p == 2:
        return spec.matrix
    return None


def min_norm_over_affine(spec, particular, nullspace):
    """Exact minimum of spec(particular + nullspace @ t) over t.

    Euclidean norms reduce to least squares; polyhedral norms to a linear
    program in epigraph form solved by HiGHS.
    """
    if nullspace.shape[1] == 0:
        return norm_eval(spec, particular)
    mat = _euclidean_matrix(spec)
    if mat is not None:
        t, *_ = np.linalg.lstsq(mat @ nullspace, -(mat @ particular), rcond=None)
        return norm_eval(spec, particular + nullspace @ t)
    if isinstance(spec, WeightedP) and spec.p == 1:
        # Variables (t, s): minimize sum w_i s_i with s_i >= |x_i|.
        q = nullspace.shape[1]
        n = spec.dim
        c = np.concatenate([np.zeros(q), spec.weights])
        a_ub = np.zeros((2 * n, q + n))
        b_ub = np.zeros(2 * n)
        a_ub[:n, :q] = nullspace
        a_ub[:n, q:] = -np.eye(n)
        b_ub[:n] = -particular
        a_ub[n:, :q] = -nullspace
        a_ub[n:, q:] = -np.eye(n)
        b_ub[n:] = particular
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (q + n),
                      method="highs")
        assert res.success, res.message
        return float(res.fun)
    # Generic polyhedral: minimize s subject to <d_r, x> <= s.
    duals = dual_functionals(spec)
    q = nullspace.shape[1]
    c = np.concatenate([np.zeros(q), [1.0]])
    a_ub = np.hstack([duals @ nullspace, -np.ones((duals.shape[0], 1))])
    b_ub = -(duals @ particular)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (q + 1),
                  method="highs")
    assert res.success, res.message
    return float(res.fun)


# ---------------------------------------------------------------------------
# Brute-force seminorm of a colimit class: per-atom infimum of the fiber
# norm over every representative at every stage, with representatives
# described as affine solution sets of the forward equations.
# ---------------------------------------------------------------------------


def brute_class_seminorm(system, stage, element, solve_tol=1e-9):
    """Per-atom infimum over all (stage, witness-stage) representative sets.

    A representative of the class of ``element`` at stage j with witness
    stage k is any w solving phi_jk(w) = phi_ik(v) at every atom; its
    contribution at one atom is the exact minimum of the fiber norm over
    the per-atom affine solution set.
    """
    index = system.index
    atoms = system.space.atom_count
    best = np.full(atoms, np.inf)
    pushed_cache = {}
    for k in index.explicit_indices():
        if not index.leq(stage, k):
            continue
        pushed_cache[k] = [
            system.map(stage, k).matrices[a] @ element.coords[a] for a in range(atoms)
        ]
    for j in index.explicit_indices():
        for k in index.explicit_indices():
            if not (index.leq(stage, k) and index.leq(j, k)):
                continue
            fwd = system.map(j, k)
            solutions = []
            feasible = True
            for a in range(atoms):
                mat = fwd.matrices[a]
                rhs = pushed_cache[k][a]
                if mat.shape[1] == 0:
                    if rhs.size and np.max(np.abs(rhs)) > solve_tol:
                        feasible = False
                        break
                    solutions.append((np.zeros(0), np.zeros((0, 0))))
                    continue
                sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
                if rhs.size and np.max(np.abs(mat @ sol - rhs)) > solve_tol:
                    feasible = False
                    break
                _, sv, vt = np.linalg.svd(mat, full_matrices=True)
                rank = int(np.sum(sv > 1e-11 * max(1.0, sv[0] if sv.size else 1.0)))
                solutions.append((sol, vt[rank:].T))
            if not feasible:
                continue
            module = system.modules[j]
            for a in range(atoms):
                particular, null = solutions[a]
                val = min_norm_over_affine(module.fibers[a].norm, particular, null)
                best[a] = min(best[a], val)
    return best


# ---------------------------------------------------------------------------
# Sampled operator-norm lower bound with compass-search polishing.
# ---------------------------------------------------------------------------


def sampled_operator_norm(mat, source_spec, target_spec, samples=10_000, seed=0,
                          polish_starts=24):
    """Lower bound from random unit vectors, sharpened by coordinate search.

    Every iterate is normalized back onto the unit sphere of the source
    norm, so the result never exceeds the true operator norm.
    """
    rng = np.random.default_rng(seed)
    dim = mat.shape[1]
    if dim == 0 or mat.shape[0] == 0:
        return 0.0

    def value(x):
        return norm_eval(target_spec, mat @ x)

    def normalize(x):
        n = norm_eval(source_spec, x)
        return None if n <= 1e-14 else x / n

    pool = []
    for x in rng.standard_normal((samples, dim)):
        u = normalize(x)
        if u is not None:
            pool.append((value(u), u))
    for k in range(dim):
        u = normalize(np.eye(dim)[:, k])
        if u is not None:
            pool.append((value(u), u))
    pool.sort(key=lambda p: -p[0])
    best_val = pool[0][0]
    for start_val, start in pool[:polish_starts]:
        x, val = start.copy(), start_val
        step = 0.5
        while step > 1e-10:
            improved = False
            for k in range(dim):
                for sign in (1.0, -1.0):
                    cand = x.copy()
                    cand[k] += sign * step
                    cand = normalize(cand)
                    if cand is None:
                        continue
                    v = value(cand)
                    if v > val + 1e-15:
                        x, val, improved = cand, v, True
            if not improved:
                step *= 0.5
        best_val = max(best_val, val)
    return best_val


def exhaustive_component_sup(system, thread_components):
    """Literal pointwise supremum of component norms over a finite family."""
    stacked = np.stack(
        [pointwise_norm(v).values for v in thread_components.values()]
    )
    return stacked.max(axis=0)


def poset_top(system):
    return greatest_element(system.index)


# ---------------------------------------------------------------------------
# Reference system validation: every composite folded along a fresh
# breadth-first path, every pair's norm and every triple's cocycle law
# evaluated.
# ---------------------------------------------------------------------------


class _ReferenceSystem:
    def __init__(self, system):
        self.index = system.index
        self.modules = system.modules
        self.maps = dict(system.maps)
        self._closure: Dict[tuple, ModuleMorphism] = {}

    def _find_path(self, i, j) -> Optional[list]:
        edges: Dict[object, list] = {}
        for a, b in sorted(self.maps.keys(), key=lambda p: (str(p[0]), str(p[1]))):
            edges.setdefault(a, []).append(b)
        frontier = [[i]]
        seen = {i}
        while frontier:
            path = frontier.pop(0)
            for nxt in edges.get(path[-1], []):
                if nxt in seen:
                    continue
                if nxt == j:
                    return path + [nxt]
                seen.add(nxt)
                frontier.append(path + [nxt])
        return None

    def related_pairs(self):
        return self.index.related_pairs()


class ReferenceDirectSystem(_ReferenceSystem):
    def map(self, i, j) -> ModuleMorphism:
        """Connecting map from stage i to stage j (composing provided maps)."""
        if i == j:
            return identity_morphism(self.modules[i])
        key = (i, j)
        if key in self.maps:
            return self.maps[key]
        if key not in self._closure:
            path = self._find_path(i, j)
            if path is None:
                raise KeyError(f"no provided maps connect {i!r} to {j!r}")
            phi = self.maps[(path[0], path[1])]
            for a, b in zip(path[1:], path[2:]):
                phi = compose(self.maps[(a, b)], phi)
            self._closure[key] = phi
        return self._closure[key]


class ReferenceInverseSystem(_ReferenceSystem):
    def map(self, i, j) -> ModuleMorphism:
        """Backward connecting map from stage j down to stage i."""
        if i == j:
            return identity_morphism(self.modules[i])
        key = (i, j)
        if key in self.maps:
            return self.maps[key]
        if key not in self._closure:
            path = self._find_path(i, j)
            if path is None:
                raise KeyError(f"no provided maps connect {j!r} down to {i!r}")
            phi = self.maps[(path[0], path[1])]
            for a, b in zip(path[1:], path[2:]):
                phi = compose(phi, self.maps[(a, b)])
            self._closure[key] = phi
        return self._closure[key]


def reference_validate_direct_system(system, tol: Optional[float] = None) -> SystemReport:
    """Diagnostics: identity law, cocycle law, admissibility of every map."""
    system = ReferenceDirectSystem(system)
    tol = tolerance() if tol is None else tol
    violations: List[Violation] = []
    for (i, j) in system.maps:
        if i == j:
            dev = morphism_deviation(
                system.maps[(i, j)], identity_morphism(system.modules[i])
            )
            if dev > tol:
                violations.append(Violation("identity", (i,), dev, "phi_ii != id"))
    for (i, j) in system.related_pairs():
        try:
            phi = system.map(i, j)
        except KeyError as exc:
            violations.append(Violation("missing-map", (i, j), float("inf"), str(exc)))
            continue
        norm = operator_pointwise_norm(phi)
        dev = float(np.max(norm.values, initial=0.0)) - 1.0
        if dev > tol:
            violations.append(
                Violation("admissibility", (i, j), dev, "pointwise operator norm > 1")
            )
    for (i, j) in system.related_pairs():
        for k in system.index.explicit_indices():
            if k == i or k == j or not system.index.leq(j, k):
                continue
            try:
                direct_map = system.map(i, k)
                composite = compose(system.map(j, k), system.map(i, j))
            except KeyError:
                continue
            dev = morphism_deviation(direct_map, composite)
            if dev > tol:
                violations.append(
                    Violation("cocycle", (i, j, k), dev, "phi_ik != phi_jk . phi_ij")
                )
    return SystemReport(not violations, tuple(violations))


def reference_validate_inverse_system(system, tol: Optional[float] = None) -> SystemReport:
    """Diagnostics mirroring the direct case with arrows reversed."""
    system = ReferenceInverseSystem(system)
    tol = tolerance() if tol is None else tol
    violations: List[Violation] = []
    for (i, j) in system.maps:
        if i == j:
            dev = morphism_deviation(
                system.maps[(i, j)], identity_morphism(system.modules[i])
            )
            if dev > tol:
                violations.append(Violation("identity", (i,), dev, "P_ii != id"))
    for (i, j) in system.related_pairs():
        try:
            phi = system.map(i, j)
        except KeyError as exc:
            violations.append(Violation("missing-map", (i, j), float("inf"), str(exc)))
            continue
        norm = operator_pointwise_norm(phi)
        dev = float(np.max(norm.values, initial=0.0)) - 1.0
        if dev > tol:
            violations.append(
                Violation("admissibility", (i, j), dev, "pointwise operator norm > 1")
            )
    for (i, j) in system.related_pairs():
        for k in system.index.explicit_indices():
            if k == i or k == j or not system.index.leq(j, k):
                continue
            try:
                direct_map = system.map(i, k)
                composite = compose(system.map(i, j), system.map(j, k))
            except KeyError:
                continue
            dev = morphism_deviation(direct_map, composite)
            if dev > tol:
                violations.append(
                    Violation("cocycle", (i, j, k), dev, "P_ik != P_ij . P_jk")
                )
    return SystemReport(not violations, tuple(violations))


def reference_poset_relation(elements, pairs) -> frozenset:
    """Reflexive-transitive closure of order pairs by fixed-point iteration,
    with the directedness scan over every pair of elements."""
    elements = tuple(str(e) for e in elements)
    rel = {(str(a), str(b)) for a, b in pairs}
    rel |= {(e, e) for e in elements}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    for a, b in rel:
        if a != b and (b, a) in rel:
            raise ValueError(f"relation is not antisymmetric: {a!r} ~ {b!r}")
    for a in elements:
        for b in elements:
            if not any((a, c) in rel and (b, c) in rel for c in elements):
                raise ValueError(
                    f"relation is not directed: {a!r}, {b!r} have no upper bound"
                )
    return frozenset(rel)


# ---------------------------------------------------------------------------
# Per-vector norm evaluation and frame-ball candidates subset by subset,
# as they were before the batched and stacked kernels, and the isometry
# certificate atom by atom.
# ---------------------------------------------------------------------------


def reference_redundant_targets(system) -> Dict[object, List]:
    """For each stage i, the stages k (in index order) that at least two
    paths of supplied edges join i to: path counts capped at two, summed
    over the supplied-edge DAG from its sinks up in a topological order."""
    explicit = system.index.explicit_indices()
    succ = {a: [b for b in system._edges.get(a, ()) if b != a] for a in explicit}
    counts: Dict[object, dict] = {}
    for a in TopologicalSorter(succ).static_order():
        row = {a: 1}
        for b in succ[a]:
            for k, n in counts[b].items():
                row[k] = min(2, row.get(k, 0) + n)
        counts[a] = row
    position = {e: n for n, e in enumerate(explicit)}
    return {
        a: sorted((k for k, n in row.items() if n > 1), key=position.__getitem__)
        for a, row in counts.items()
    }


def reference_greatest_element(poset: FinitePoset) -> str:
    """The unique maximum, found by folding pairwise upper bounds."""
    top = poset.elements[0]
    for e in poset.elements[1:]:
        if poset.leq(top, e):
            top = e
        elif not poset.leq(e, top):
            top = next(
                c for c in poset.elements if poset.leq(top, c) and poset.leq(e, c)
            )
    return top


def reference_halve_symmetric(rows: np.ndarray) -> np.ndarray:
    """Drop near-zero, near-duplicate and sign-mirrored rows, one row at a
    time against every kept row with two ``np.allclose`` calls that merge
    rows agreeing to ``1e-12`` times the largest entry, with no relative
    term."""
    scale = np.max(np.abs(rows), initial=0.0)
    atol = 1e-12 * scale
    kept = []
    for r in rows:
        if np.max(np.abs(r), initial=0.0) <= 1e-14 * scale:
            continue
        if any(np.allclose(r, sign * k, rtol=0.0, atol=atol) for k in kept for sign in (1, -1)):
            continue
        kept.append(r)
    return np.array(kept) if kept else rows


def _p_norm(y, p):
    if y.size == 0:
        return 0.0
    if p == 1:
        return float(np.abs(y).sum())
    if p == INF:
        return float(np.abs(y).max())
    return float(np.sqrt(np.dot(y, y)))


def reference_norm_eval(spec, x) -> float:
    """One vector's norm by the closed form of its spec kind."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if spec.dim == 0:
        return 0.0
    if isinstance(spec, WeightedP):
        return _p_norm(spec.weights * x, spec.p)
    if isinstance(spec, FramedP):
        return _p_norm(spec.matrix @ x, spec.p)
    if isinstance(spec, DualOf):
        return float(np.max(spec.inner.ball_candidates() @ x))
    if isinstance(spec, OperatorNorm):
        mat = x.reshape(spec.target_dim, spec.source_dim)
        return operator_norm_witness(mat, spec.source_spec, spec.target_spec)[0]
    raise ValueError(f"no closed form for {spec!r}")


def reference_certify_isometric_iso(phi, tol=None) -> IsoCertificate:
    """The exact isometry certificate atom by atom: bijectivity by numpy's
    default relative rank tolerance, and both operator norms of every
    bijective atom from its own witness call."""
    tol = tolerance() if tol is None else tol
    max_dev = 0.0
    for m, s, t in zip(phi.matrices, phi.source.fibers, phi.target.fibers):
        if s.dim != t.dim or (s.dim and np.linalg.matrix_rank(m) != s.dim):
            return IsoCertificate(False, False, INF, "not bijective per atom")
        if s.dim:
            forward = operator_norm_witness(m, s.norm, t.norm)[0]
            backward = operator_norm_witness(np.linalg.inv(m), t.norm, s.norm)[0]
            max_dev = max(max_dev, forward - 1.0, backward - 1.0)
    ok = max_dev <= tol
    return IsoCertificate(ok, True, max_dev, "" if ok else f"norm deviation {max_dev:g}")


def reference_frame_ball_candidates(spec: FramedP) -> np.ndarray:
    """Vertex candidates of a framed 1- or inf-ball by one LAPACK call per
    row subset (and per sign pattern, for p=inf), with the relative rank,
    determinant and length thresholds of the stacked enumeration."""
    matrix = spec.matrix
    rows, cols = matrix.shape
    if spec.p == 1:
        if cols == 1:
            u = np.ones(1)
            return np.array([u, -u]) / np.abs(matrix @ u).sum()
        verts = []
        for subset in itertools.combinations(range(rows), cols - 1):
            sub = matrix[list(subset), :]
            _, sv, vt = np.linalg.svd(sub)
            if int(np.sum(sv > 1e-12 * sv[0])) != cols - 1:
                continue
            u = vt[-1]
            val = np.abs(matrix @ u).sum()
            if val > 1e-12 * np.abs(matrix).max():
                verts.append(u / val)
                verts.append(-u / val)
        return np.array(verts)
    verts = []
    for subset in itertools.combinations(range(rows), cols):
        sub = matrix[list(subset), :]
        scale = np.abs(sub).max(axis=1, keepdims=True)
        scale[scale == 0.0] = 1.0
        if abs(np.linalg.det(sub / scale)) <= 1e-12:
            continue
        for signs in _signs(cols):
            x = np.linalg.solve(sub, signs)
            if np.max(np.abs(matrix @ x)) <= 1.0 + 1e-9:
                verts.append(x)
    return np.array(verts)


# ---------------------------------------------------------------------------
# Reference limits, universal factorizations, limit functors, rank
# preservation and pullback comparisons: one function per arrow direction,
# as they were before the shared limit core.
# ---------------------------------------------------------------------------


def _reference_is_direct(system) -> bool:
    return isinstance(system, DirectSystem)


def reference_validate_system_morphism(theta: SystemMorphism, tol: Optional[float] = None) -> SystemReport:
    """Check admissibility, commuting squares and chain tail solvability."""
    tol = tolerance() if tol is None else tol
    violations: List[Violation] = []
    direct = _reference_is_direct(theta.source)
    for i, comp in theta.components.items():
        norm = operator_pointwise_norm(comp)
        dev = float(norm.values.max(initial=0.0)) - 1.0
        if not dev <= tol:
            violations.append(Violation("admissibility", (i,), dev, "component norm > 1"))
    for (i, j) in theta.source.index.related_pairs():
        if direct:
            left = (theta.components[j], theta.source.map(i, j))
            right = (theta.target.map(i, j), theta.components[i])
        else:
            left = (theta.components[i], theta.source.map(i, j))
            right = (theta.target.map(i, j), theta.components[j])
        dev = composite_deviation(left, right)
        if not dev <= tol:
            violations.append(Violation("square", (i, j), dev, "square does not commute"))
    index = theta.source.index
    if isinstance(index, Chain):
        last = index.last
        if direct:
            growth = tail_growth_sup(
                theta.target.index.tail, theta.source.index.tail, last, theta.source.space
            )
        else:
            growth = tail_growth_sup(
                theta.source.index.tail, theta.target.index.tail, last, theta.source.space
            )
        norm_last = operator_pointwise_norm(theta.components[last]).values
        for a, g in enumerate(growth):
            bound = tol if not np.isfinite(g) else (1.0 + tol) / g
            if not norm_last[a] <= bound:
                violations.append(
                    Violation(
                        "tail-square",
                        (last, theta.source.space.atom_ids[a]),
                        float(norm_last[a] - bound),
                        "no admissible components beyond the last stage",
                    )
                )
    return SystemReport(not violations, tuple(violations))


def _reference_chain_keep_mask(system, chain: Chain) -> np.ndarray:
    return tail_limit_factor(chain.tail, system.space) > 0.0


def reference_direct_limit(system: DirectSystem) -> LimitPresentation:
    """Construct the direct limit with its canonical morphisms.

    In every supported regime the quotient by seminorm-null classes has
    finite-dimensional fibers, hence the metric completion step is exact:
    completeness is asserted, never approximated.
    """
    index = system.index
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        limit = system.modules[top]
        canonical = {i: system.map(i, top) for i in index.explicit_indices()}
        return LimitPresentation("direct", limit, canonical, "greatest-element")
    last = index.last
    keep = _reference_chain_keep_mask(system, index)
    limit, projection = mask_module(system.modules[last], keep)
    canonical = {
        i: compose(projection, system.map(i, last)) for i in index.explicit_indices()
    }
    return LimitPresentation("direct", limit, canonical, "chain-tail")


def _reference_spanning_ranks_ok(presentation: LimitPresentation) -> bool:
    """Canonical images must span every limit fiber (uniqueness witness)."""
    module = presentation.module
    for a, fiber in enumerate(module.fibers):
        if fiber.dim == 0:
            continue
        blocks = [phi.matrices[a] for phi in presentation.canonical.values()]
        stacked = np.hstack([b for b in blocks if b.size]) if blocks else np.zeros((fiber.dim, 0))
        if stacked.size == 0 or np.linalg.matrix_rank(stacked, tol=1e-10) < fiber.dim:
            return False
    return True


def reference_dl_universal_factorization(
    system: DirectSystem,
    target: Target,
    presentation: Optional[LimitPresentation] = None,
    tol: Optional[float] = None,
) -> ModuleMorphism:
    """The unique mediating morphism from the limit to a target.

    Raises :class:`ValidationError` when the target laws fail or no
    factorization exists within tolerance.  Uniqueness is certified by
    checking that the canonical images span every limit fiber.
    """
    tol = tolerance() if tol is None else tol
    index = system.index
    explicit = index.explicit_indices()
    for i in explicit:
        if i not in target.maps:
            raise KeyError(f"target is missing the map at index {i!r}")
        psi = target.maps[i]
        if psi.source != system.modules[i] or psi.target != target.module:
            raise ShapeMismatchError(f"target map at {i!r} has wrong endpoints")
        norm = operator_pointwise_norm(psi)
        if not float(norm.values.max(initial=0.0)) <= 1.0 + tol:
            raise ValidationError(f"target map at {i!r} is not admissible")
    worst = ("", 0.0)
    for (i, j) in index.related_pairs():
        dev = composite_deviation((target.maps[j], system.map(i, j)), (target.maps[i],))
        if dev > worst[1]:
            worst = (f"target law at ({i!r}, {j!r})", dev)
    if worst[1] > tol:
        raise ValidationError(f"target-law violation: {worst[0]} deviates by {worst[1]:g}")
    presentation = reference_direct_limit(system) if presentation is None else presentation
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        mediating = ModuleMorphism(
            presentation.module, target.module, target.maps[top].matrices
        )
    else:
        last = index.last
        psi_last = target.maps[last]
        mats = []
        for a, fiber in enumerate(presentation.module.fibers):
            m = psi_last.matrices[a]
            if fiber.dim == m.shape[1]:
                mats.append(m)
            else:
                # Masked atom: a valid target must already vanish here,
                # otherwise no admissible family beyond the last stage exists.
                if m.size and float(np.max(np.abs(m))) > tol:
                    raise ValidationError(
                        "no factorization: target map does not vanish on the "
                        f"collapsed atom {system.space.atom_ids[a]!r} "
                        f"(max entry {float(np.max(np.abs(m))):g})"
                    )
                mats.append(np.zeros((m.shape[0], 0)))
        mediating = ModuleMorphism(presentation.module, target.module, mats)
    for i in explicit:
        dev = composite_deviation((mediating, presentation.canonical[i]), (target.maps[i],))
        if not dev <= tol:
            raise ValidationError(
                f"no factorization within tolerance: square at {i!r} deviates by {dev:g}"
            )
    if not _reference_spanning_ranks_ok(presentation):
        raise ValidationError("canonical images do not span the limit fibers")
    return mediating


def reference_dl_functor(
    theta: SystemMorphism,
    validate: bool = True,
    tol: Optional[float] = None,
) -> ModuleMorphism:
    """The induced morphism between direct limits.

    Functorial: identities map to the identity and composites to
    composites; the result is the unique morphism commuting with every
    canonical square.
    """
    tol = tolerance() if tol is None else tol
    if validate:
        for name, system in (("source", theta.source), ("target", theta.target)):
            report = validate_direct_system(system, tol)
            if not report.passed:
                raise ValidationError(f"{name} system fails validation", report)
        report = reference_validate_system_morphism(theta, tol)
        if not report.passed:
            raise ValidationError("system morphism fails validation", report)
    index = theta.source.index
    src_pres = reference_direct_limit(theta.source)
    tgt_pres = reference_direct_limit(theta.target)
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        core = theta.components[top].matrices
    else:
        core = theta.components[index.last].matrices
    mats = []
    for a in range(theta.source.space.atom_count):
        s_dim = src_pres.module.fibers[a].dim
        t_dim = tgt_pres.module.fibers[a].dim
        block = core[a]
        if s_dim == block.shape[1] and t_dim == block.shape[0]:
            mats.append(block)
        else:
            trimmed = block[:t_dim, :] if t_dim <= block.shape[0] else block
            mats.append(trimmed[:, :s_dim] if s_dim <= block.shape[1] else trimmed)
    limit_map = ModuleMorphism(src_pres.module, tgt_pres.module, mats)
    for i in index.explicit_indices():
        dev = composite_deviation(
            (limit_map, src_pres.canonical[i]),
            (tgt_pres.canonical[i], theta.components[i]),
        )
        if not dev <= max(tol, 10 * tolerance()):
            raise ValidationError(
                f"limit square at {i!r} deviates by {dev:g}; morphism invalid"
            )
    return limit_map


def _reference_full_row_rank(mat: np.ndarray) -> bool:
    rows = mat.shape[0]
    return rows == 0 or np.linalg.matrix_rank(mat, tol=1e-10) == rows


def reference_check_surjectivity_preservation(theta: SystemMorphism) -> PreservationReport:
    """If every stage map has full per-atom image, so must the limit map."""
    stages_ok = True
    witness = ""
    for i, comp in theta.components.items():
        for a, m in enumerate(comp.matrices):
            if not _reference_full_row_rank(m):
                stages_ok = False
                witness = f"stage {i!r} not surjective at atom " \
                          f"{theta.source.space.atom_ids[a]!r}"
    limit_map = reference_dl_functor(theta) if _reference_is_direct(theta.source) else None
    if limit_map is None:
        limit_map = reference_il_functor(theta)
    limit_ok = all(_reference_full_row_rank(m) for m in limit_map.matrices)
    preserved = (not stages_ok) or limit_ok
    if stages_ok and not limit_ok:
        bad = next(
            theta.source.space.atom_ids[a]
            for a, m in enumerate(limit_map.matrices)
            if not _reference_full_row_rank(m)
        )
        witness = f"limit map loses surjectivity at atom {bad!r}"
    return PreservationReport(stages_ok, limit_ok, preserved, witness)


def reference_inverse_limit(system: InverseSystem) -> LimitPresentation:
    """Construct the inverse limit with its natural projections.

    Limit fibers are finite dimensional, hence complete; the completeness
    requirement is asserted rather than rebuilt from Cauchy sequences.
    """
    index = system.index
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        limit = system.modules[top]
        projections = {i: system.map(i, top) for i in index.explicit_indices()}
        return LimitPresentation("inverse", limit, projections, "greatest-element")
    last = index.last
    keep = tail_limit_factor(index.tail, system.space) >= 1.0
    limit, _ = mask_module(system.modules[last], keep)
    include = mask_inclusion(system.modules[last], limit)
    projections = {
        i: compose(system.map(i, last), include) for i in index.explicit_indices()
    }
    return LimitPresentation("inverse", limit, projections, "chain-tail")


def _reference_projections_separate(presentation: LimitPresentation) -> bool:
    """Stacked projections must be injective per atom (uniqueness witness)."""
    module = presentation.module
    for a, fiber in enumerate(module.fibers):
        if fiber.dim == 0:
            continue
        blocks = [p.matrices[a] for p in presentation.canonical.values() if p.matrices[a].size]
        stacked = np.vstack(blocks) if blocks else np.zeros((0, fiber.dim))
        if stacked.size == 0 or np.linalg.matrix_rank(stacked, tol=1e-10) < fiber.dim:
            return False
    return True


def reference_il_universal_factorization(
    system: InverseSystem,
    source: Source,
    presentation: Optional[LimitPresentation] = None,
    tol: Optional[float] = None,
    check_admissibility: bool = True,
) -> ModuleMorphism:
    """The unique mediating morphism from a compatible source to the limit.

    Uniqueness is certified by joint injectivity of the projections.
    ``check_admissibility`` may be disabled when contractivity of the
    source maps is known analytically (e.g. precomposition maps between
    Hom modules, whose matrix-space norms have no exact kernel).
    """
    tol = tolerance() if tol is None else tol
    index = system.index
    explicit = index.explicit_indices()
    for i in explicit:
        if i not in source.maps:
            raise KeyError(f"source is missing the map at index {i!r}")
        q = source.maps[i]
        if q.source != source.module or q.target != system.modules[i]:
            raise ShapeMismatchError(f"source map at {i!r} has wrong endpoints")
        if check_admissibility:
            norm = operator_pointwise_norm(q)
            if not float(norm.values.max(initial=0.0)) <= 1.0 + tol:
                raise ValidationError(f"source map at {i!r} is not admissible")
    worst = ("", 0.0)
    for (i, j) in index.related_pairs():
        dev = composite_deviation((system.map(i, j), source.maps[j]), (source.maps[i],))
        if dev > worst[1]:
            worst = (f"compatibility at ({i!r}, {j!r})", dev)
    if worst[1] > tol:
        raise ValidationError(f"source violates compatibility: {worst[0]} by {worst[1]:g}")
    presentation = reference_inverse_limit(system) if presentation is None else presentation
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        mediating = ModuleMorphism(
            source.module, presentation.module, source.maps[top].matrices
        )
    else:
        last = index.last
        q_last = source.maps[last]
        mats = []
        for a, fiber in enumerate(presentation.module.fibers):
            m = q_last.matrices[a]
            if fiber.dim == m.shape[0]:
                mats.append(m)
            else:
                if m.size and float(np.max(np.abs(m))) > tol:
                    raise ValidationError(
                        "no factorization: source map does not vanish on the "
                        f"collapsed atom {system.space.atom_ids[a]!r}"
                    )
                mats.append(np.zeros((0, m.shape[1])))
        mediating = ModuleMorphism(source.module, presentation.module, mats)
    for i in explicit:
        dev = composite_deviation((presentation.canonical[i], mediating), (source.maps[i],))
        if not dev <= tol:
            raise ValidationError(
                f"no factorization within tolerance: triangle at {i!r} deviates by {dev:g}"
            )
    if not _reference_projections_separate(presentation):
        raise ValidationError("projections do not jointly separate the limit")
    return mediating


def reference_il_functor(
    theta: SystemMorphism,
    validate: bool = True,
    tol: Optional[float] = None,
) -> ModuleMorphism:
    """The induced morphism between inverse limits."""
    tol = tolerance() if tol is None else tol
    if validate:
        for name, system in (("source", theta.source), ("target", theta.target)):
            report = validate_inverse_system(system, tol)
            if not report.passed:
                raise ValidationError(f"{name} system fails validation", report)
        report = reference_validate_system_morphism(theta, tol)
        if not report.passed:
            raise ValidationError("system morphism fails validation", report)
    index = theta.source.index
    src_pres = reference_inverse_limit(theta.source)
    tgt_pres = reference_inverse_limit(theta.target)
    if isinstance(index, FinitePoset):
        core = theta.components[greatest_element(index)].matrices
    else:
        core = theta.components[index.last].matrices
    mats = []
    for a in range(theta.source.space.atom_count):
        s_dim = src_pres.module.fibers[a].dim
        t_dim = tgt_pres.module.fibers[a].dim
        block = core[a]
        mats.append(block[:t_dim, :s_dim])
    limit_map = ModuleMorphism(src_pres.module, tgt_pres.module, mats)
    for i in index.explicit_indices():
        dev = composite_deviation(
            (tgt_pres.canonical[i], limit_map),
            (theta.components[i], src_pres.canonical[i]),
        )
        if not dev <= max(tol, 10 * tolerance()):
            raise ValidationError(
                f"limit square at {i!r} deviates by {dev:g}; morphism invalid"
            )
    return limit_map


def reference_check_injectivity_preservation(theta: SystemMorphism):
    """If every stage map has trivial per-atom kernel, so must the limit map."""
    def full_col_rank(mat: np.ndarray) -> bool:
        cols = mat.shape[1]
        return cols == 0 or np.linalg.matrix_rank(mat, tol=1e-10) == cols

    stages_ok = True
    witness = ""
    for i, comp in theta.components.items():
        for a, m in enumerate(comp.matrices):
            if not full_col_rank(m):
                stages_ok = False
                witness = (
                    f"stage {i!r} not injective at atom "
                    f"{theta.source.space.atom_ids[a]!r}"
                )
    if isinstance(theta.source, InverseSystem):
        limit_map = reference_il_functor(theta)
    else:
        limit_map = reference_dl_functor(theta)
    limit_ok = all(full_col_rank(m) for m in limit_map.matrices)
    preserved = (not stages_ok) or limit_ok
    if stages_ok and not limit_ok:
        bad = next(
            theta.source.space.atom_ids[a]
            for a, m in enumerate(limit_map.matrices)
            if not full_col_rank(m)
        )
        witness = f"limit map loses injectivity at atom {bad!r}"
    return PreservationReport(stages_ok, limit_ok, preserved, witness)


def reference_pullback_direct_system(atom_map: AtomMap, system: DirectSystem) -> DirectSystem:
    presentations = {
        i: pullback_module(atom_map, system.modules[i])
        for i in system.index.explicit_indices()
    }
    maps = {}
    for (i, j), phi in system.maps.items():
        maps[(i, j)] = presentations[i].pull_morphism(phi, presentations[j])
    return DirectSystem(
        _pull_index(atom_map, system.index),
        {i: p.module for i, p in presentations.items()},
        maps,
    )


def reference_pullback_inverse_system(atom_map: AtomMap, system: InverseSystem) -> InverseSystem:
    presentations = {
        i: pullback_module(atom_map, system.modules[i])
        for i in system.index.explicit_indices()
    }
    maps = {}
    for (i, j), phi in system.maps.items():
        maps[(i, j)] = presentations[j].pull_morphism(phi, presentations[i])
    return InverseSystem(
        _pull_index(atom_map, system.index),
        {i: p.module for i, p in presentations.items()},
        maps,
    )


def reference_dl_pullback_iso(
    atom_map: AtomMap,
    system: DirectSystem,
    tol: Optional[float] = None,
) -> PullbackCommuteReport:
    """Certify that pulling back commutes with the direct limit.

    Both sides are computed independently: the limit of the pulled-back
    system, and the pullback of the limit receiving the pulled canonical
    morphisms.  The mediating morphism between them is then certified to
    be an isometric isomorphism.
    """
    tol = tolerance() if tol is None else tol
    pulled_system = reference_pullback_direct_system(atom_map, system)
    side_a = reference_direct_limit(pulled_system)
    dl = reference_direct_limit(system)
    limit_pulled = pullback_module(atom_map, dl.module)
    stage_pulled = {
        i: pullback_module(atom_map, system.modules[i])
        for i in system.index.explicit_indices()
    }
    target = Target(
        limit_pulled.module,
        {
            i: stage_pulled[i].pull_morphism(dl.canonical[i], limit_pulled)
            for i in system.index.explicit_indices()
        },
    )
    comparison = reference_dl_universal_factorization(pulled_system, target, side_a, tol=tol)
    certificate = certify_isometric_iso(comparison, tol=tol)
    return PullbackCommuteReport(side_a, limit_pulled.module, comparison, certificate)


def reference_il_pullback_compare(
    atom_map: AtomMap,
    system: InverseSystem,
    tol: Optional[float] = None,
) -> PullbackCommuteReport:
    """Compare both orders of inverse limit and pullback on one instance.

    Reports whether the canonical comparison is an isometric isomorphism
    here; no general claim is made either way.
    """
    tol = tolerance() if tol is None else tol
    pulled_system = reference_pullback_inverse_system(atom_map, system)
    side_a = reference_inverse_limit(pulled_system)
    il = reference_inverse_limit(system)
    limit_pulled = pullback_module(atom_map, il.module)
    stage_pulled = {
        i: pullback_module(atom_map, system.modules[i])
        for i in system.index.explicit_indices()
    }
    source = Source(
        limit_pulled.module,
        {
            i: limit_pulled.pull_morphism(il.canonical[i], stage_pulled[i])
            for i in system.index.explicit_indices()
        },
    )
    comparison = reference_il_universal_factorization(pulled_system, source, side_a, tol=tol)
    certificate = certify_isometric_iso(comparison, tol=tol)
    return PullbackCommuteReport(
        side_a, limit_pulled.module, comparison, certificate, IL_PULLBACK_NOTE
    )


# ---------------------------------------------------------------------------
# Limit elements by hand: threads and colimit seminorms, each with its own
# poset/chain split, collapsed-atom check and tail factor.
# ---------------------------------------------------------------------------


def reference_thread_from_components(system: InverseSystem, components: Dict, tol=None):
    """The unique limit element with the prescribed projections.

    Components must be compatible with every backward map and have finite
    norm under the tail rule; the element's pointwise norm equals the
    supremum of the component norms.
    """
    tol = tolerance() if tol is None else tol
    thread = Thread(dict(components))
    explicit = system.index.explicit_indices()
    worst = 0.0
    worst_pair = None
    for (i, j) in system.related_pairs():
        pushed = apply(system.map(i, j), thread.components[j])
        dev = max(
            float(np.max(np.abs(a - b), initial=0.0))
            for a, b in zip(pushed.coords, thread.components[i].coords)
        ) if pushed.coords else 0.0
        if dev > worst:
            worst, worst_pair = dev, (i, j)
    if worst > tol:
        raise ValidationError(
            f"incompatible components: pair {worst_pair!r} deviates by {worst:g}"
        )
    norm, finite = il_norm(system, thread)
    if not np.all(finite):
        bad = [a for a, f in zip(system.space.atom_ids, finite) if not f]
        raise ValidationError(f"thread norm is infinite at atoms {bad!r}")
    presentation = reference_inverse_limit(system)
    if isinstance(system.index, FinitePoset):
        top = greatest_element(system.index)
        element = Element(presentation.module, thread.components[top].coords)
    else:
        last = system.index.last
        coords = []
        for a, fiber in enumerate(presentation.module.fibers):
            c = thread.components[last].coords[a]
            if fiber.dim == c.size:
                coords.append(c)
            else:
                if c.size and float(np.max(np.abs(c))) > tol:
                    raise ValidationError(
                        "component does not vanish on a collapsed atom"
                    )
                coords.append(np.zeros(0))
        element = Element(presentation.module, coords)
    for i in explicit:
        projected = apply(presentation.canonical[i], element)
        dev = max(
            (
                float(np.max(np.abs(a - b), initial=0.0))
                for a, b in zip(projected.coords, thread.components[i].coords)
            ),
            default=0.0,
        )
        if dev > 10 * tol:
            raise ValidationError(f"projection at {i!r} deviates by {dev:g}")
    return element, norm


def reference_dl_seminorm(system: DirectSystem, stage, element: Element) -> L0Function:
    """Pointwise seminorm of the colimit class of ``element`` at ``stage``.

    Over a finite poset the infimum over all representatives collapses to
    the norm of the forward image at the greatest element (every
    connecting map contracts).  Over a chain the representative is pushed
    to the last stage and scaled by the per-atom limit of the tail
    factors.
    """
    if stage not in system.modules:
        raise KeyError(f"stage {stage!r} is not explicit in the system")
    if element.module != system.modules[stage]:
        raise ShapeMismatchError("class representative lives in the wrong module")
    index = system.index
    if isinstance(index, FinitePoset):
        top = greatest_element(index)
        pushed = apply(system.map(stage, top), element)
        return pointwise_norm(pushed)
    pushed = apply(system.map(stage, index.last), element)
    factor = tail_limit_factor(index.tail, system.space)
    return L0Function(system.space, factor * pointwise_norm(pushed).values)
