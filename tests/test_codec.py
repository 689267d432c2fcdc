"""The document codec: the builder's bytes, the parse/serialize fixpoint
and the canonical JSON emitter.

The builder and ``serialize_document`` share one payload function per
object kind.  These tests pin the builder's own output (the bundled
fixtures are regenerated byte for byte) and check that a builder dump
survives parse -> serialize unchanged, extreme floats included.  The
emitter behind ``dump_document`` and ``render_structured`` must write the
bytes ``json.dumps(..., indent=2, sort_keys=True)`` writes.
"""

import importlib.util
import json
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0limits import randgen
from l0limits.harness import (
    CheckResult,
    DocumentBuilder,
    RunReport,
    dump_document,
    parse_document,
    render_structured,
    serialize_document,
)
from l0limits.harness import checks
from l0limits.measure import AtomicMeasureSpace, L0Function
from l0limits.modules import Fiber, FiberModule, ModuleMorphism
from l0limits.norms import INF, WeightedP
from l0limits.systems import SystemMorphism

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def _make_fixtures_module():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_fixtures_reproduces_every_bundled_fixture(tmp_path, monkeypatch):
    """Every builder in ``scripts/make_fixtures.py`` writes the committed
    bytes.  The fixtures hold only simple rationals, so no BLAS rounding
    enters."""
    make_fixtures = _make_fixtures_module()
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == sorted(p.name for p in FIXTURES.glob("*.json"))
    differing = [
        name for name in written
        if (tmp_path / name).read_bytes() != (FIXTURES / name).read_bytes()
    ]
    assert differing == []


#: Non-finite-free floats at the ends of the double range: tiny normal,
#: smallest subnormal and largest finite.
EXTREMES = (1e-300, 5e-324, 1.7976931348623157e308)


def _sprinkled(rng, values, extremes, positive=False) -> np.ndarray:
    """A copy of ``values`` with one entry per extreme swapped for it, with
    a random sign unless ``positive``."""
    out = np.array(values, dtype=float)
    flat = out.reshape(-1)
    for x in extremes:
        if flat.size:
            flat[rng.integers(flat.size)] = x if positive else x * rng.choice((-1.0, 1.0))
    return out


def _sprinkled_morphism(rng, phi, extremes) -> ModuleMorphism:
    return ModuleMorphism(
        phi.source, phi.target, [_sprinkled(rng, m, extremes) for m in phi.matrices]
    )


def _builder(seed: int, extremes) -> DocumentBuilder:
    """A document using every builder method, over randgen systems whose
    space weights, norm weights, function values and map matrices carry
    the given extreme floats."""
    rng = np.random.default_rng(seed)
    weights = _sprinkled(rng, rng.uniform(0.5, 2.0, 3), extremes, positive=True)
    space = AtomicMeasureSpace(["a0", "a1", "a2"], weights)
    b = DocumentBuilder()
    b.add_space("X", space)
    b.add_function("f", L0Function(space, _sprinkled(rng, rng.standard_normal(3), extremes)))
    systems = {
        "D": randgen.random_chain_direct_system(rng, space, allow_dual=True),
        "P": randgen.random_direct_system(rng, space, allow_dual=True),
        "I": randgen.random_inverse_system(rng, space),
    }
    for sid, system in systems.items():
        maps = {pair: _sprinkled_morphism(rng, phi, extremes) for pair, phi in system.maps.items()}
        b.add_system(sid, type(system)(system.index, system.modules, maps))
    theta = randgen.random_chain_morphism_pair(rng, space)
    components = {
        i: _sprinkled_morphism(rng, c, extremes) for i, c in theta.components.items()
    }
    theta = SystemMorphism(theta.source, theta.target, components)
    b.add_system("S", theta.source)
    b.add_system("T", theta.target)
    b.add_system_morphism("Theta", theta, "S", "T")
    norm_weights = _sprinkled(rng, rng.uniform(0.5, 2.0, 2), extremes, positive=True)
    module = FiberModule(space, tuple(Fiber(2, WeightedP(p, norm_weights)) for p in (1, 2, INF)))
    b.add_module("W", module)
    b.add_morphism("w", ModuleMorphism(module, module, [
        _sprinkled(rng, rng.standard_normal((2, 2)), extremes) for _ in range(3)
    ]))
    atom_map = randgen.random_atom_map(rng, space)
    b.add_space("Y", atom_map.source)
    b.add_atom_map("pi", atom_map)
    b.add_index_set("Q", randgen.random_poset(rng))
    b.add_check("laws", "validate-system", system="D", tol=extremes[0])
    b.add_check("top", "greatest-element", expect="fail", index_set="Q")
    return b


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=4))
def test_builder_dump_is_a_parse_serialize_fixpoint(seed, extremes):
    first = dump_document(_builder(seed, extremes).data)
    again = dump_document(serialize_document(parse_document(json.loads(first))))
    assert again == first


def _json_dumps(value, default=None) -> str:
    return json.dumps(value, indent=2, sort_keys=True, default=default) + "\n"


#: Floats json writes in its own way: the range ends, a signed zero and the
#: non-finite values it spells NaN, Infinity and -Infinity.
SPECIAL_FLOATS = (5e-324, 1.7976931348623157e308, -0.0, float("nan"), INF, -INF)
_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
_texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(('say "hi"', "back\\slash", "tab\tline\nfeed\x00\x1f\x7f", "ümlaut ∞ 😀 \u2028")),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**200).map(lambda n: -n),
    _floats, _texts,
)


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_texts, inner, max_size=4),
        st.lists(_floats, max_size=5),
        st.lists(_texts, max_size=3),
    )


_json_values = st.recursive(_scalars, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_dump_document_writes_the_bytes_of_json_dumps(value):
    assert dump_document(value) == _json_dumps(value)


@pytest.mark.parametrize("value", [
    {}, [], [[]], {"a": {}}, [{}, [], ""], {2: "b", 10: "a"}, {1.5: 0, -0.0: 1},
    {True: 1}, {False: 0}, {None: 2}, [1.0, 2], [1.0, True], ["a", 1], [float("nan"), 1.0], (1.0, "x"),
])
def test_dump_document_on_edge_containers(value):
    assert dump_document(value) == _json_dumps(value)


_witness_leaves = st.one_of(
    _scalars,
    _floats.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)
_witnesses = st.dictionaries(_texts, st.recursive(
    _witness_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_texts, inner, max_size=3),
    ),
    max_leaves=12,
), max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(_witnesses, min_size=1, max_size=3), _floats)
def test_render_structured_writes_the_bytes_of_json_dumps(witnesses, tol):
    """Witnesses hold tuples and numpy scalars: ``np.float64`` is a float,
    ``np.int64`` goes through ``default=str`` as in ``json.dumps``."""
    results = [
        CheckResult(f"c{k}", "validate-system", "pass", "pass", "pass", w, ("p",))
        for k, w in enumerate(witnesses)
    ]
    report = RunReport(tol, 0, "doc.json", results)
    text = render_structured(report)
    with mock.patch.object(checks, "_canonical_json", _json_dumps):
        assert text == render_structured(report)
