"""Hom modules, duals, pairings and adjoints.

The module of homomorphisms between two fiber modules has, at each atom,
the space of (target-dim x source-dim) matrices flattened row-major, with
the induced operator norm.  The dual module is the Hom module into the
scalar module; its elements are per-atom covectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ShapeMismatchError, SpaceMismatchError
from .measure import L0Function
from .modules import (
    Element,
    Fiber,
    FiberModule,
    ModuleMorphism,
    scalar_module,
)
from .norms import operator_spec


@dataclass(frozen=True, eq=False)
class HomModule(FiberModule):
    """Fiber module of homomorphisms, remembering its endpoints."""

    hom_source: FiberModule = None
    hom_target: FiberModule = None


def hom_module(source: FiberModule, target: FiberModule) -> HomModule:
    """Module of matrices from source to target fibers, atom by atom.

    Addition and function-scaling of elements act entrywise, matching the
    pointwise operations on homomorphisms.
    """
    if source.space != target.space:
        raise SpaceMismatchError("hom endpoints live over different spaces")
    pairs = {}  # one Hom fiber per distinct (source fiber, target fiber)
    for pair in zip(source.fibers, target.fibers):
        if pair not in pairs:
            s, t = pair
            pairs[pair] = Fiber(s.dim * t.dim, operator_spec(s.dim, s.norm, t.dim, t.norm))
    fibers = tuple(pairs[pair] for pair in zip(source.fibers, target.fibers))
    return HomModule(source.space, fibers, source, target)


def dual_module(module: FiberModule) -> HomModule:
    """Dual module: homomorphisms into the scalar module."""
    return hom_module(module, scalar_module(module.space))


def hom_element(hom: HomModule, matrices) -> Element:
    """Wrap per-atom matrices as an element of a Hom module."""
    coords = []
    for a, m in enumerate(matrices):
        m = np.asarray(m, dtype=float)
        expected = (hom.hom_target.fibers[a].dim, hom.hom_source.fibers[a].dim)
        if m.size == 0:
            m = np.zeros(expected)
        if m.shape != expected:
            raise ShapeMismatchError(f"matrix shape {m.shape}, expected {expected}")
        coords.append(m.reshape(-1))
    return Element(hom, coords)


def hom_matrices(element: Element) -> List[np.ndarray]:
    """Recover per-atom matrices from an element of a Hom module."""
    hom = element.module
    if not isinstance(hom, HomModule):
        raise ShapeMismatchError("element does not belong to a Hom module")
    out = []
    for a, c in enumerate(element.coords):
        t = hom.hom_target.fibers[a].dim
        s = hom.hom_source.fibers[a].dim
        out.append(c.reshape(t, s))
    return out


def hom_element_as_morphism(element: Element) -> ModuleMorphism:
    hom = element.module
    return ModuleMorphism(hom.hom_source, hom.hom_target, hom_matrices(element))


def morphism_as_hom_element(hom: HomModule, phi: ModuleMorphism) -> Element:
    if phi.source != hom.hom_source or phi.target != hom.hom_target:
        raise ShapeMismatchError("morphism endpoints do not match the Hom module")
    return hom_element(hom, phi.matrices)


def pairing(omega: Element, v: Element) -> L0Function:
    """Evaluate a dual element on a module element, atom by atom.

    Bilinear over the function ring; bounded by the product of the
    pointwise norms.
    """
    dual = omega.module
    if not isinstance(dual, HomModule) or dual.hom_source != v.module:
        raise SpaceMismatchError("pairing requires a dual element of the same module")
    if dual.hom_target.dims() != tuple(1 for _ in dual.space.atom_ids):
        raise ShapeMismatchError("pairing requires scalar-valued homomorphisms")
    values = [float(np.dot(w, c)) for w, c in zip(omega.coords, v.coords)]
    return L0Function(v.module.space, values)


def adjoint(phi: ModuleMorphism) -> ModuleMorphism:
    """Adjoint morphism between dual modules: per-atom matrix transpose.

    Precomposition with ``phi`` sends covectors on the target to covectors
    on the source and preserves the pointwise operator norm.
    """
    return ModuleMorphism(
        dual_module(phi.target),
        dual_module(phi.source),
        [m.T for m in phi.matrices],
        _fresh=True,
    )
