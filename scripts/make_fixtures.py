#!/usr/bin/env python3
"""Regenerate the bundled fixture documents.

Each fixture is emitted through the canonical serializer and then passed
once through parse -> serialize so that the files on disk are fixpoints
of that round trip (the loader byte-identity test depends on this).
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from l0limits import (
    AtomMap,
    AtomicMeasureSpace,
    Chain,
    DirectSystem,
    FinitePoset,
    HarmonicTail,
    IdentityTail,
    InverseSystem,
    L0Function,
    ModuleMorphism,
    ScalarTail,
    SystemMorphism,
    identity_morphism,
)
from l0limits.direct import present_as_fg_limit
from l0limits.modules import basis_elements, euclidean_module
from l0limits.harness import DocumentBuilder, dump_document, parse_document, serialize_document

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def _write(name: str, builder: DocumentBuilder) -> None:
    text = dump_document(builder.data)
    doc = parse_document(json.loads(text))
    text = dump_document(serialize_document(doc))
    # fixpoint sanity: one more round trip must be byte-identical
    again = dump_document(serialize_document(parse_document(json.loads(text))))
    assert again == text, f"serializer is not a fixpoint for {name}"
    (FIXTURES / name).write_text(text, encoding="utf-8")
    print(f"wrote fixtures/{name}")


def remark_faithful() -> None:
    b = DocumentBuilder()
    dirac = AtomicMeasureSpace(["pt"], [1.0])
    b.add_space("dirac", dirac)
    plane = euclidean_module(dirac, 2)
    b.add_module("plane", plane)
    ident = identity_morphism(plane)
    proj = ModuleMorphism(plane, plane, [np.array([[1.0, 0.0], [0.0, 0.0]])])
    flip = ModuleMorphism(plane, plane, [np.diag([1.0, -1.0])])
    poset = FinitePoset(["0", "1"], [("0", "1")])
    m_sys = DirectSystem(poset, {"0": plane, "1": plane}, {("0", "1"): ident})
    n_sys = DirectSystem(poset, {"0": plane, "1": plane}, {("0", "1"): proj})
    b.add_system("M", m_sys)
    b.add_system("N", n_sys)
    theta = SystemMorphism(m_sys, n_sys, {"0": ident, "1": proj})
    eta = SystemMorphism(m_sys, n_sys, {"0": flip, "1": proj})
    b.add_system_morphism("Theta", theta, "M", "N")
    b.add_system_morphism("Eta", eta, "M", "N")
    b.add_morphism("identity_plane", ident)
    b.add_check("validate-M", "validate-system", system="M")
    b.add_check("validate-N", "validate-system", system="N")
    b.add_check("limit-M", "direct-limit", system="M", expect_dims={"pt": 2})
    b.add_check(
        "collapse-distinct-morphisms",
        "functor-square",
        first="Theta",
        second="Eta",
        require_components_differ=True,
    )
    b.add_check(
        "no-preimage-for-identity",
        "functor-square",
        expect="fail",
        solve={
            "source_system": "M",
            "target_system": "N",
            "given": {"1": "identity_plane"},
            "solve_for": "0",
        },
    )
    _write("remark-faithful.json", b)


def harmonic_inverse() -> None:
    b = DocumentBuilder()
    space = AtomicMeasureSpace(["a", "b"], [1.0, 2.0])
    b.add_space("base", space)
    module = euclidean_module(space, 2)
    b.add_module("plane2", module)
    chain = Chain(3, HarmonicTail())
    maps = {
        (k, k + 1): ModuleMorphism(
            module, module, [(k + 1) / (k + 2) * np.eye(2) for _ in range(2)]
        )
        for k in range(2)
    }
    system = InverseSystem(chain, {k: module for k in range(3)}, maps)
    b.add_system("shrinking", system)
    b.add_check("validate-shrinking", "validate-system", system="shrinking")
    b.add_check("limit-is-zero", "inverse-limit", system="shrinking", expect_zero=True)
    _write("harmonic-inverse.json", b)


def scaling_surjectivity() -> None:
    b = DocumentBuilder()
    space = AtomicMeasureSpace(["a", "b"], [1.0, 1.0])
    b.add_space("base", space)
    module = euclidean_module(space, 2)
    b.add_module("plane2", module)
    harmonic = Chain(3, HarmonicTail())
    identity_chain = Chain(3, IdentityTail())
    shrink_maps = {
        (k, k + 1): ModuleMorphism(
            module, module, [(k + 1) / (k + 2) * np.eye(2) for _ in range(2)]
        )
        for k in range(2)
    }
    id_maps = {(k, k + 1): identity_morphism(module) for k in range(2)}
    source = InverseSystem(harmonic, {k: module for k in range(3)}, shrink_maps)
    target = InverseSystem(identity_chain, {k: module for k in range(3)}, id_maps)
    components = {
        k: ModuleMorphism(
            module, module, [1.0 / (k + 1) * np.eye(2) for _ in range(2)]
        )
        for k in range(3)
    }
    theta = SystemMorphism(source, target, components)
    b.add_system("shrinking", source)
    b.add_system("steady", target)
    b.add_system_morphism("Theta", theta, "shrinking", "steady")
    b.add_check("validate-shrinking", "validate-system", system="shrinking")
    b.add_check("validate-steady", "validate-system", system="steady")
    b.add_check(
        "surjectivity-lost-in-limit",
        "surjectivity-preserved",
        expect="fail",
        morphism="Theta",
    )
    _write("scaling-surjectivity.json", b)


def fg_presentation() -> None:
    b = DocumentBuilder()
    rng = np.random.default_rng(7)
    space = AtomicMeasureSpace(["a", "b"], [1.0, 0.5])
    b.add_space("base", space)
    module = euclidean_module(space, 3)
    b.add_module("ambient", module)
    gens = basis_elements(module)
    rng.shuffle(gens)
    fg = present_as_fg_limit(module, gens)
    b.add_system("generated-chain", fg.system)
    target_maps = {
        str(k): b.add_morphism(f"include_{k}", fg.inclusions[k])
        for k in fg.system.index.explicit_indices()
    }
    b.add_check(
        "limit-recovers-module",
        "universal-direct",
        system="generated-chain",
        target_module="ambient",
        target_maps=target_maps,
    )
    _write("fg-presentation.json", b)


def sections_product() -> None:
    b = DocumentBuilder()
    z = AtomicMeasureSpace(["z0", "z1"], [1.0, 2.0])
    y = AtomicMeasureSpace(["y0", "y1"], [1.0, 1.0])
    b.add_space("factor", z)
    b.add_space("base", y)
    module = euclidean_module(y, 2)
    b.add_module("plane2", module)
    b.add_check(
        "sections-realize-pullback",
        "sections-iso",
        factor_space="factor",
        module="plane2",
    )
    _write("sections-product.json", b)


def pullback_commute() -> None:
    b = DocumentBuilder()
    y = AtomicMeasureSpace(["y0", "y1"], [1.0, 1.0])
    x = AtomicMeasureSpace(["x0", "x1", "x2"], [1.0, 1.0, 1.0])
    b.add_space("base", y)
    b.add_space("cover", x)
    module = euclidean_module(y, 2)
    b.add_module("plane2", module)
    atom_map = AtomMap(x, y, {"x0": "y0", "x1": "y1", "x2": "y1"})
    b.add_atom_map("two-to-one", atom_map)

    poset = FinitePoset(["0", "1"], [("0", "1")])
    proj = ModuleMorphism(module, module, [np.array([[1.0, 0.0], [0.0, 0.0]])] * 2)
    stage_sys = DirectSystem(poset, {"0": module, "1": module}, {("0", "1"): proj})
    b.add_system("two-stage", stage_sys)

    mask = L0Function(y, [1.0, 0.5])
    chain = Chain(2, ScalarTail(mask))
    chain_sys = DirectSystem(
        chain, {0: module, 1: module}, {(0, 1): identity_morphism(module)}
    )
    b.add_system("masked-chain", chain_sys)

    inv_sys = InverseSystem(
        FinitePoset(["0", "1"], [("0", "1")]),
        {"0": module, "1": module},
        {("0", "1"): proj},
    )
    b.add_system("two-stage-inverse", inv_sys)

    b.add_check("commute-two-stage", "pullback-commute", system="two-stage",
                atom_map="two-to-one")
    b.add_check("commute-masked-chain", "pullback-commute", system="masked-chain",
                atom_map="two-to-one")
    b.add_check("compare-inverse", "il-pullback-compare", system="two-stage-inverse",
                atom_map="two-to-one")
    _write("pullback-commute.json", b)


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    remark_faithful()
    harmonic_inverse()
    scaling_surjectivity()
    fg_presentation()
    sections_product()
    pullback_commute()


if __name__ == "__main__":
    main()
