"""Independent oracles used to cross-check the exact kernels.

These deliberately take different routes than the library: linear
programming and least squares for minima over affine sets, and random
sampling with derivative-free polishing for operator-norm lower bounds.
Dual-ball candidate sets for the base norm kinds are recomputed locally.

System validation and poset closure are checked against the plain
versions they replaced: a fresh breadth-first search for every composite,
every law evaluated on every pair and triple, and a fixed-point closure
of the order pairs.  Likewise the batched norm kernels are checked
against per-vector evaluation, and the batched isometry certificate
against its probe-by-probe loop.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

import numpy as np
from scipy.optimize import linprog

from l0limits.config import tolerance
from l0limits.indexsets import greatest_element
from l0limits.modules import (
    Element,
    IsoCertificate,
    ModuleMorphism,
    apply,
    basis_elements,
    compose,
    identity_morphism,
    morphism_deviation,
    operator_pointwise_norm,
    pointwise_norm,
)
from l0limits.systems import SystemReport, Violation
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
# Per-vector norm evaluation and the probe-by-probe isometry certificate,
# as they were before the batched kernels.
# ---------------------------------------------------------------------------


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


def reference_certify_isometric_iso(phi, rng=None, samples=8, tol=None) -> IsoCertificate:
    tol = tolerance() if tol is None else tol
    rng = np.random.default_rng(0) if rng is None else rng
    bijective = True
    for m, s, t in zip(phi.matrices, phi.source.fibers, phi.target.fibers):
        if s.dim != t.dim:
            bijective = False
            break
        if s.dim and np.linalg.matrix_rank(m, tol=1e-10) != s.dim:
            bijective = False
            break
    probes = basis_elements(phi.source)
    for _ in range(samples):
        coords = [rng.standard_normal(f.dim) for f in phi.source.fibers]
        probes.append(Element(phi.source, coords))
    max_dev = 0.0
    for v in probes:
        before = pointwise_norm(v).values
        after = pointwise_norm(apply(phi, v)).values
        if before.size:
            max_dev = max(max_dev, float(np.max(np.abs(before - after))))
    ok = bijective and max_dev <= tol
    detail = "" if ok else (
        "not bijective per atom" if not bijective else f"norm deviation {max_dev:g}"
    )
    return IsoCertificate(ok, bijective, max_dev, detail)
