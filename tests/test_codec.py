"""The document codec: the builder's bytes and the parse/serialize fixpoint.

The builder and ``serialize_document`` share one payload function per
object kind.  These tests pin the builder's own output (the bundled
fixtures are regenerated byte for byte) and check that a builder dump
survives parse -> serialize unchanged, extreme floats included.
"""

import importlib.util
import json
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from l0limits import randgen
from l0limits.harness import DocumentBuilder, dump_document, parse_document, serialize_document
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
