"""The benchmark workloads: seeded inputs, one timed op, output checks.

Each workload is built from a seed (set-up), hands out the inputs of op
``i`` (``prepare``), runs one op on them (``run``, the only timed part)
and checks the op's outputs (``check``).  Input generation uses
``l0limits.randgen``; the library only ever sees the generated objects.

Sizes are module constants so the self-tests can shrink them.
"""

from __future__ import annotations

import json
import pathlib
import zlib

import numpy as np

from l0limits import randgen
from l0limits.direct import (
    DirectSystem,
    Target,
    direct_limit,
    dl_functor,
    dl_universal_factorization,
    validate_direct_system,
)
from l0limits.harness import (
    DocumentBuilder,
    dump_document,
    parse_document,
    render_structured,
    run_checks,
    serialize_document,
)
from l0limits.homdual import adjoint, dual_module
from l0limits.indexsets import Chain, FinitePoset, HarmonicTail, IdentityTail, ScalarTail
from l0limits.inverse import (
    InverseSystem,
    Source,
    il_universal_factorization,
    inverse_limit,
    validate_inverse_system,
)
from l0limits.measure import AtomMap, AtomicMeasureSpace
from l0limits.modules import (
    Fiber,
    FiberModule,
    ModuleMorphism,
    apply,
    compose,
    euclidean_module,
    is_morphism,
    kernel_image,
    module_distance,
    morphism_deviation,
    operator_norm_witnesses,
    operator_pointwise_norm,
    pointwise_norm,
    submodule_from_bases,
    submodule_generated,
)
from l0limits.norms import FramedP, WeightedP, dual_spec, norm_eval
from l0limits.pullback import pullback_module

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

#: Absolute slack for floating-point output checks, the library default.
TOL = 1e-9

class CheckFailed(Exception):
    """An op returned a wrong result."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _no_pause() -> None:
    pass


def _op_rng(seed: int, name: str, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), i])


def _space(rng, n: int, prefix: str = "a") -> AtomicMeasureSpace:
    return AtomicMeasureSpace([f"{prefix}{k}" for k in range(n)], rng.uniform(0.5, 2.0, size=n))


def _frame(rng, rows: int, cols: int) -> np.ndarray:
    """A frame matrix with singular values in [0.5, 2]."""
    u, sv, vt = np.linalg.svd(rng.standard_normal((rows, cols)), full_matrices=False)
    return u @ np.diag(np.clip(sv, 0.5, 2.0)) @ vt


# ---------------------------------------------------------------------------
# report: the CLI user's path over bundled and generated documents.
# ---------------------------------------------------------------------------


def _canonical(builder: DocumentBuilder) -> str:
    """Builder output passed once through parse/serialize, as fixtures are."""
    doc = parse_document(json.loads(dump_document(builder.data)))
    return dump_document(serialize_document(doc))


#: Generated documents per group.
GENERATED_PER_GROUP = 20


def _drawn(rng, make, shape, target):
    """Draw ``make(rng)`` until ``shape`` of it equals ``target``.

    Poset sizes and fiber dims set most of a document's cost, so each
    group cycles through fixed targets for them: every seed's pool then
    holds the same shapes and costs about the same."""
    while True:
        x = make(rng)
        if shape(x) == target:
            return x


def _poset_size(system) -> int:
    return len(system.index.elements)


def _total_dim(system) -> int:
    return sum(sum(m.dims()) for m in system.modules.values())


def generated_documents(seed: int) -> dict:
    """Documents for the five check kinds the bundled fixtures lack, built
    from small random instances over two atoms."""
    docs = {}
    for k in range(GENERATED_PER_GROUP):
        rng = np.random.default_rng([seed, 0x0D0C, k])
        space = _space(rng, 2)

        b = DocumentBuilder()
        system = _drawn(
            rng, lambda r: randgen.random_chain_direct_system(
                r, space, stages=3, max_dim=2, allow_dual=False, tail=IdentityTail()),
            _total_dim, (8, 9, 10, 9)[k % 4])
        b.add_space("X", space)
        b.add_system("D", system)
        b.add_check("dual-of-limit", "dual-iso", system="D")
        b.add_module("E", euclidean_module(space, 2))
        b.add_check("hom-of-limit", "hom-iso", system="D", module="E")
        docs[f"gen-homdual-{k}.json"] = _canonical(b)

        b = DocumentBuilder()
        theta = _drawn(rng, lambda r: randgen.random_injective_inverse_pair(r, space, max_dim=2),
                       lambda t: _poset_size(t.source), 1 + k % 6)
        b.add_space("X", space)
        b.add_system("S", theta.source)
        b.add_system("T", theta.target)
        b.add_system_morphism("Theta", theta, "S", "T")
        b.add_check("injective-limit", "injectivity-preserved", morphism="Theta")
        docs[f"gen-injectivity-{k}.json"] = _canonical(b)

        b = DocumentBuilder()
        inverse = _drawn(rng, lambda r: randgen.random_inverse_system(r, space, max_dim=2),
                         _poset_size, 1 + k % 6)
        pres = inverse_limit(inverse)
        b.add_space("X", space)
        b.add_system("I", inverse)
        limit_id = b.add_module("L", pres.module)  # the top stage's id if already added
        maps = {str(i): b.add_morphism(f"proj_{i}", q) for i, q in pres.canonical.items()}
        b.add_check("limit-universal", "universal-inverse", system="I",
                    source_module=limit_id, source_maps=maps)
        b.add_index_set("P", randgen.random_poset(rng, max_elements=8))
        b.add_check("top", "greatest-element", index_set="P")
        docs[f"gen-inverse-{k}.json"] = _canonical(b)
    return docs


class Report:
    """One op: every document of the pool, each from its JSON text through
    parse, checks, render and dump, as the CLI does over a directory."""

    name = "report"
    calls_window = 1

    def __init__(self, seed: int):
        self.seed = seed
        pool = {p.name: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.json"))}
        if not pool:
            raise FileNotFoundError(f"no fixtures under {FIXTURES}")
        pool.update(generated_documents(seed))
        self.pool = sorted(pool.items())

    def prepare(self, i: int):
        return self.pool

    def run(self, pool, pause=_no_pause):
        outs = []
        for name, text in pool:
            pause()
            doc = parse_document(json.loads(text))
            report = run_checks(doc, seed=self.seed, document_name=name)
            rendered = render_structured(report)
            outs.append((report, rendered, dump_document(serialize_document(doc))))
        return outs

    def check(self, pool, outs) -> None:
        _expect(len(outs) == len(pool), "not every document was reported")
        for (name, text), (report, rendered, dumped) in zip(pool, outs):
            _expect(bool(report.results), f"{name}: no checks ran")
            for r in report.results:
                _expect(r.verdict == "pass",
                        f"{name}: {r.name} got {r.raw_outcome}, expected {r.expected}")
            _expect(json.loads(rendered)["summary"]["pass"] == len(report.results),
                    f"{name}: summary")
            _expect(dumped == text, f"{name}: serialize/dump does not reproduce the input bytes")

    def digest(self) -> str:
        return _digest(text for _, text in self.pool)


# ---------------------------------------------------------------------------
# Fiber shapes shared by the two wide workloads.
# ---------------------------------------------------------------------------

INF = float("inf")

#: Eight fiber shapes of dims 1-4 covering every norm kind and every p:
#: (kind, p, frame rows, dim).  Each fixes the size of the norm's vertex
#: set, so a module with a balanced mix of shapes costs the same for
#: every seed.
SHAPES = (
    ("weighted_p", 1, 1, 1),
    ("weighted_p", 2, 2, 2),
    ("weighted_p", INF, 3, 3),
    ("framed_p", 1, 2, 2),
    ("framed_p", 2, 4, 3),
    ("framed_p", INF, 4, 4),
    ("dual_of", 1, 4, 3),
    ("dual_of", INF, 3, 2),
)


def _shape_fiber(rng, shape) -> Fiber:
    kind, p, rows, dim = shape
    if kind == "weighted_p":
        norm = WeightedP(p, rng.uniform(0.5, 2.0, dim))
    else:
        norm = FramedP(p, _frame(rng, rows, dim))
        if kind == "dual_of":
            norm = dual_spec(norm)
    return Fiber(dim, norm)


def _balanced(rng, n: int) -> np.ndarray:
    """Shape indices with every shape used equally often, in random order."""
    return rng.permutation(np.resize(np.arange(len(SHAPES)), n))


# ---------------------------------------------------------------------------
# wide-shared: the read path over many atoms with warm norm caches.
# ---------------------------------------------------------------------------

SHARED_ATOMS = 256
SHARED_PULL_ATOMS = 384
SHARED_PROBES = 4


class WideShared:
    """Module reads over many atoms; the same objects on every op."""

    name = "wide-shared"
    calls_window = 2

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 0x5A5E])
        palette = [_shape_fiber(rng, shape) for shape in SHAPES]
        space = _space(rng, SHARED_ATOMS)

        def module():
            return FiberModule(space, tuple(palette[k] for k in _balanced(rng, SHARED_ATOMS)))

        self.m, self.n, self.p = module(), module(), module()
        self.phi = randgen.random_admissible_morphism(rng, self.m, self.n)
        self.psi = randgen.random_admissible_morphism(rng, self.n, self.p)
        self.v = randgen.random_element(rng, self.m)
        self.w = randgen.random_element(rng, self.m)
        source = _space(rng, SHARED_PULL_ATOMS, "x")
        # Onto the target atoms, then many-to-one for the rest.
        hits = np.concatenate([rng.permutation(SHARED_ATOMS),
                               rng.integers(0, SHARED_ATOMS, SHARED_PULL_ATOMS - SHARED_ATOMS)])
        self.atom_map = AtomMap(source, space, {x: space.atom_ids[h] for x, h in zip(source.atom_ids, hits)})
        self.hits = hits
        self.probe_rng = np.random.default_rng([seed, 0x9B0E])

    def prepare(self, i: int):
        return None

    def run(self, x, pause=_no_pause):
        admissible = is_morphism(self.phi)
        chi = compose(self.psi, self.phi)
        chi_norm = operator_pointwise_norm(chi)
        pause()
        image_norm = pointwise_norm(apply(self.phi, self.v))
        distance = module_distance(self.v, self.w)
        pause()
        pulled_m = pullback_module(self.atom_map, self.m)
        pulled_n = pullback_module(self.atom_map, self.n)
        pulled_v = pulled_m.pull_element(self.v)
        pulled_phi = pulled_m.pull_morphism(self.phi, pulled_n)
        pause()
        dual = dual_module(self.m)
        adj = adjoint(self.phi)
        return dict(admissible=admissible, chi=chi, chi_norm=chi_norm, image_norm=image_norm,
                    distance=distance, pulled_m=pulled_m, pulled_v=pulled_v,
                    pulled_phi=pulled_phi, dual=dual, adj=adj)

    def check(self, x, out) -> None:
        _expect(out["admissible"] is True, "phi is admissible by construction")
        chi = out["chi"]
        values = out["chi_norm"].values
        witnesses = operator_norm_witnesses(chi)
        for a, (m, s, t) in enumerate(zip(chi.matrices, chi.source.fibers, chi.target.fibers)):
            value, x_a = witnesses[a]
            _expect(value == values[a], f"atom {a}: opnorm differs from its witness call")
            slack = TOL * max(1.0, value)
            _expect(abs(norm_eval(s.norm, x_a) - 1.0) <= TOL, f"atom {a}: witness is not a unit vector")
            _expect(abs(norm_eval(t.norm, m @ x_a) - value) <= slack, f"atom {a}: witness misses the value")
            for probe in self.probe_rng.standard_normal((SHARED_PROBES, s.dim)):
                ratio = norm_eval(t.norm, m @ probe) / norm_eval(s.norm, probe)
                _expect(ratio <= value + slack, f"atom {a}: probe exceeds the operator norm")
        image = [norm_eval(f.norm, self.phi.matrices[a] @ self.v.coords[a])
                 for a, f in enumerate(self.n.fibers)]
        _expect(np.allclose(out["image_norm"].values, image, rtol=0, atol=TOL), "pointwise norm of phi(v)")
        _expect(0.0 < out["distance"] <= 1.0, "module distance out of range")
        pulled = out["pulled_m"]
        lhs = pointwise_norm(out["pulled_v"]).values
        rhs = pulled.pull_function(pointwise_norm(self.v)).values
        _expect(np.array_equal(lhs, rhs), "pullback norm identity is not exact")
        pulled_phi = out["pulled_phi"]
        _expect(all(np.array_equal(m, self.phi.matrices[h]) for m, h in zip(pulled_phi.matrices, self.hits)),
                "pulled morphism matrices")
        _expect(out["dual"].dims() == self.m.dims(), "dual module dims")
        _expect(all(np.array_equal(a, m.T) for a, m in zip(out["adj"].matrices, self.phi.matrices)),
                "adjoint is not the transpose")

    def digest(self) -> str:
        return _digest([self.phi.matrices, self.psi.matrices, self.v.coords, self.w.coords, self.hits])


# ---------------------------------------------------------------------------
# wide-distinct: new restricted norms on every op, nothing to reuse.
# ---------------------------------------------------------------------------

DISTINCT_ATOMS = 32


class WideDistinct:
    """Kernels, images and generated submodules of a fresh morphism between
    fresh modules per op: every atom has its own norm, drawn per op."""

    name = "wide-distinct"
    calls_window = 4

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, i: int):
        rng = _op_rng(self.seed, self.name, i)
        space = _space(rng, DISTINCT_ATOMS)
        m, n = (FiberModule(space, tuple(_shape_fiber(rng, SHAPES[k]) for k in _balanced(rng, DISTINCT_ATOMS)))
                for _ in range(2))
        phi = randgen.random_admissible_morphism(rng, m, n)
        gens = [randgen.random_element(rng, m) for _ in range(2)]
        return phi, gens

    def run(self, x, pause=_no_pause):
        phi, gens = x
        ki = kernel_image(phi)
        sub, inclusion = submodule_generated(phi.source, gens)
        pause()
        return dict(
            ki=ki, sub=sub, inclusion=inclusion,
            kernel_norm=operator_pointwise_norm(ki.kernel_inclusion),
            image_norm=operator_pointwise_norm(ki.image_inclusion),
            sub_norm=operator_pointwise_norm(inclusion),
            gen_norm=pointwise_norm(gens[0]),
        )

    def check(self, x, out) -> None:
        phi, gens = x
        ki = out["ki"]
        for key, inc in (("kernel_norm", ki.kernel_inclusion), ("image_norm", ki.image_inclusion),
                         ("sub_norm", out["inclusion"])):
            for a, f in enumerate(inc.source.fibers):
                if f.dim:
                    _expect(abs(out[key].values[a] - 1.0) <= TOL, f"{key} at atom {a} is not 1")
        for a, m in enumerate(phi.matrices):
            rank = np.linalg.matrix_rank(m)
            _expect(ki.image.fibers[a].dim == rank, f"image rank at atom {a}")
            _expect(ki.kernel.fibers[a].dim + rank == m.shape[1], f"rank-nullity at atom {a}")
            basis = ki.kernel_inclusion.matrices[a]
            _expect(not basis.size or np.max(np.abs(m @ basis)) <= TOL, f"kernel at atom {a}")
        # Restricted norms are isometric: a generator keeps its norm in
        # the coordinates of the submodule it generates.
        for a, f in enumerate(out["sub"].fibers):
            basis = out["inclusion"].matrices[a]
            coords = np.linalg.lstsq(basis, gens[0].coords[a], rcond=None)[0]
            slack = TOL * max(1.0, out["gen_norm"].values[a])
            _expect(abs(norm_eval(f.norm, coords) - out["gen_norm"].values[a]) <= 10 * slack,
                    f"restricted norm at atom {a}")

    def digest(self) -> str:
        phi, gens = self.prepare(0)
        return _digest([phi.matrices, gens[0].coords, gens[1].coords])


# ---------------------------------------------------------------------------
# deep-systems: many stages over two atoms, fresh systems on every op.
# ---------------------------------------------------------------------------

DEEP_STAGES = 10
DEEP_POSET = 10
DEEP_ATOMS = 2
DEEP_DIM = 3


def _tail_keep(tail, atoms: int) -> np.ndarray:
    """Atoms where the tail's composite factor stays one (limit survives)."""
    if isinstance(tail, IdentityTail):
        return np.ones(atoms, dtype=bool)
    if isinstance(tail, HarmonicTail):
        return np.zeros(atoms, dtype=bool)
    if isinstance(tail, ScalarTail):
        return tail.function.values == 1.0
    raise TypeError(f"unknown tail {tail!r}")


def _inverse_chain(rng, space, stages: int) -> InverseSystem:
    modules = {k: randgen.random_module(rng, space, max_dim=DEEP_DIM) for k in range(stages)}
    maps = {(k, k + 1): randgen.random_admissible_morphism(rng, modules[k + 1], modules[k])
            for k in range(stages - 1)}
    return InverseSystem(Chain(stages, randgen.random_tail(rng, space)), modules, maps)


def _poset_system(rng, space, size: int):
    """Labels and order pairs of a random directed poset, plus a
    nested-subspace direct system over it (maps keyed by related pairs)."""
    labels = [f"i{k}" for k in range(size)]
    pairs = [(labels[a], labels[b]) for a in range(size) for b in range(a + 1, size)
             if rng.random() < 0.3]
    pairs += [(labels[a], labels[-1]) for a in range(size - 1)]
    poset = FinitePoset(labels, pairs)
    ambient = randgen.random_module(rng, space, max_dim=DEEP_DIM, allow_dual=False)
    # randgen's own poset systems cap the poset at 6 elements, so reuse its
    # nested-basis construction on this larger poset.
    bases, _ = randgen._nested_bases(rng, poset, ambient.dims(), decreasing=False)
    stages, maps = {}, {}
    for e in labels:
        stages[e], _ = submodule_from_bases(ambient, bases[e])
    for (i, j) in poset.related_pairs():
        maps[(i, j)] = ModuleMorphism(stages[i], stages[j],
                                      [bj.T @ bi for bi, bj in zip(bases[i], bases[j])])
    return labels, pairs, stages, maps


class DeepSystems:
    """Validation, limits and universal maps of long chains and a poset."""

    name = "deep-systems"
    calls_window = 4

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, i: int):
        rng = _op_rng(self.seed, self.name, i)
        space = _space(rng, DEEP_ATOMS)
        direct = randgen.random_chain_direct_system(rng, space, stages=DEEP_STAGES, max_dim=DEEP_DIM)
        inverse = _inverse_chain(rng, space, DEEP_STAGES)
        theta = randgen.random_chain_morphism_pair(rng, space, stages=DEEP_STAGES)
        poset = _poset_system(rng, space, DEEP_POSET)
        return direct, inverse, theta, poset

    def run(self, x, pause=_no_pause):
        direct, inverse, theta, (labels, pairs, stages, maps) = x
        d_report = validate_direct_system(direct)
        d_pres = direct_limit(direct)
        d_med = dl_universal_factorization(direct, Target(d_pres.module, dict(d_pres.canonical)))
        pause()
        i_report = validate_inverse_system(inverse)
        i_pres = inverse_limit(inverse)
        i_med = il_universal_factorization(inverse, Source(i_pres.module, dict(i_pres.canonical)))
        pause()
        limit_map = dl_functor(theta, validate=True)
        pause()
        poset = FinitePoset(labels, pairs)
        p_system = DirectSystem(poset, stages, maps)
        p_report = validate_direct_system(p_system)
        p_pres = direct_limit(p_system)
        return dict(d_report=d_report, d_pres=d_pres, d_med=d_med, i_report=i_report,
                    i_pres=i_pres, i_med=i_med, limit_map=limit_map, p_report=p_report,
                    p_pres=p_pres)

    def check(self, x, out) -> None:
        direct, inverse, theta, (labels, _, stages, _) = x
        for key in ("d_report", "i_report", "p_report"):
            _expect(out[key].passed, f"{key}: valid-by-construction system failed validation")
        for system, pres, med in ((direct, out["d_pres"], out["d_med"]),
                                  (inverse, out["i_pres"], out["i_med"])):
            last = system.modules[DEEP_STAGES - 1]
            keep = _tail_keep(system.index.tail, DEEP_ATOMS)
            want = tuple(d if k else 0 for d, k in zip(last.dims(), keep))
            _expect(pres.module.dims() == want, f"{pres.kind} limit dims {pres.module.dims()} != {want}")
            for m, f in zip(med.matrices, pres.module.fibers):
                _expect(np.max(np.abs(m - np.eye(f.dim)), initial=0.0) <= TOL,
                        f"{pres.kind} factorization is not the identity")
        last = theta.components[DEEP_STAGES - 1]
        _expect(morphism_deviation(out["limit_map"], last) <= TOL, "limit functor image")
        _expect(out["p_pres"].module is stages[labels[-1]], "poset limit is not the top stage")

    def digest(self) -> str:
        direct, inverse, theta, (labels, pairs, _, maps) = self.prepare(0)
        return _digest([[m.matrices for m in direct.maps.values()],
                        [m.matrices for m in inverse.maps.values()],
                        [c.matrices for c in theta.components.values()], pairs,
                        [m.matrices for m in maps.values()]])


def _digest(parts) -> str:
    """Order-sensitive digest of nested lists of arrays and strings."""
    h = zlib.crc32(b"")

    def feed(obj):
        nonlocal h
        if isinstance(obj, np.ndarray):
            h = zlib.crc32(np.ascontiguousarray(obj, dtype=float).tobytes(), h)
        elif isinstance(obj, str):
            h = zlib.crc32(obj.encode(), h)
        elif hasattr(obj, "__iter__"):
            for item in obj:
                feed(item)
        else:
            h = zlib.crc32(repr(obj).encode(), h)

    feed(parts)
    return f"{h:08x}"


WORKLOADS = {w.name: w for w in (Report, WideShared, WideDistinct, DeepSystems)}
