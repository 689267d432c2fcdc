"""Pullback of modules along measure-compatible atom maps.

The pulled-back module is defined by fiber reindexing: the fiber at a
source atom is a copy of the fiber at its image, so the defining norm
identity ``|pulled v| = |v| after the atom map`` holds exactly and the
pulled-back basis elements span every fiber.  The characterizing
properties are then verified rather than used as the construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import tolerance
from .errors import ValidationError
from .direct import DirectSystem
from .inverse import InverseSystem
from .measure import AtomMap, AtomicMeasureSpace, L0Function
from .modules import (
    Element,
    FiberModule,
    IsoCertificate,
    ModuleMorphism,
    apply,
    basis_elements,
    certify_isometric_iso,
    pointwise_norm,
)
from .systems import LimitPresentation, System, _limit, _universal_factorization


@dataclass(frozen=True)
class PullbackPresentation:
    """A pulled-back module with its element and morphism transports."""

    atom_map: AtomMap
    base_module: FiberModule
    module: FiberModule

    def pull_element(self, v: Element) -> Element:
        if v.module != self.base_module:
            raise ValidationError("element does not belong to the pulled-back base")
        coords = [v.coords[y] for y in self.atom_map.targets]
        return Element(self.module, coords)

    def pull_function(self, f: L0Function) -> L0Function:
        values = f.values[list(self.atom_map.targets)]
        return L0Function(self.atom_map.source, values)

    def pull_morphism(self, phi: ModuleMorphism, other: "PullbackPresentation") -> ModuleMorphism:
        if phi.source != self.base_module or other.base_module != phi.target:
            raise ValidationError("morphism endpoints do not match the presentations")
        mats = [phi.matrices[y] for y in self.atom_map.targets]
        return ModuleMorphism(self.module, other.module, mats, _fresh=True)


def pullback_module(atom_map: AtomMap, module: FiberModule) -> PullbackPresentation:
    """Pull a module back along an atom map by reindexing its fibers.

    The pushforward of the source measure is absolutely continuous with
    respect to the target measure for every atom map, since every atom
    weight is strictly positive, so there is nothing to check there."""
    if module.space != atom_map.target:
        raise ValidationError("module does not live over the map target")
    fibers = tuple(module.fibers[y] for y in atom_map.targets)
    pulled = FiberModule(atom_map.source, fibers)
    return PullbackPresentation(atom_map, module, pulled)


def pullback_morphism(
    atom_map: AtomMap, phi: ModuleMorphism
) -> ModuleMorphism:
    """Pull a morphism back along an atom map; the transport square with
    the element pullbacks commutes exactly and admissibility is preserved."""
    src = pullback_module(atom_map, phi.source)
    tgt = pullback_module(atom_map, phi.target)
    return src.pull_morphism(phi, tgt)


@dataclass(frozen=True)
class CoupleCertificate:
    """Mediating morphism to an alternative pullback realization."""

    mediating: ModuleMorphism
    certificate: IsoCertificate
    max_transport_deviation: float
    #: An isometric isomorphism whose transports agree within the
    #: tolerance in force at certification.
    ok: bool


def certify_alternative_couple(
    pulled: PullbackPresentation,
    alt_module: FiberModule,
    alt_transport,
) -> CoupleCertificate:
    """Check another couple claiming the same universal role.

    ``alt_transport`` maps base elements to elements of ``alt_module``
    with the same norm-transport property.  The unique mediating
    morphism is forced on the pulled-back basis elements (which span
    every fiber); the certificate records whether it is an isometric
    isomorphism and how far it is from intertwining the two transports.
    For linear transports the basis elements decide the intertwining;
    their sum is compared too, so that a transport which is not additive
    fails.  The verdict ``ok`` is decided here, under the current tolerance.
    """
    atom_map = pulled.atom_map
    base = pulled.base_module
    mats = []
    for x, y in enumerate(atom_map.targets):
        fiber_dim = base.fibers[y].dim
        columns = []
        for k in range(fiber_dim):
            coords = [np.zeros(f.dim) for f in base.fibers]
            coords[y][k] = 1.0
            columns.append(alt_transport(Element(base, coords)).coords[x])
        mats.append(
            np.column_stack(columns) if columns
            else np.zeros((alt_module.fibers[x].dim, 0))
        )
    mediating = ModuleMorphism(pulled.module, alt_module, mats)
    worst = 0.0
    probes = basis_elements(base)
    probes.append(Element(base, [np.ones(f.dim) for f in base.fibers]))
    for v in probes:
        via_mediating = apply(mediating, pulled.pull_element(v))
        direct = alt_transport(v)
        for a, b in zip(via_mediating.coords, direct.coords):
            if a.size:
                worst = max(worst, float(np.max(np.abs(a - b))))
    certificate = certify_isometric_iso(mediating)
    ok = certificate.ok and worst <= tolerance()
    return CoupleCertificate(mediating, certificate, worst, ok)


def product_space(z: AtomicMeasureSpace, y: AtomicMeasureSpace) -> AtomicMeasureSpace:
    """Product of two atomic spaces with product weights; atom ids are
    joined with a pipe."""
    ids = [f"{a}|{b}" for a, b in itertools.product(z.atom_ids, y.atom_ids)]
    weights = np.outer(z.weights, y.weights).reshape(-1)
    return AtomicMeasureSpace(ids, weights)


def product_projection(z: AtomicMeasureSpace, y: AtomicMeasureSpace) -> AtomMap:
    product = product_space(z, y)
    table = {
        f"{a}|{b}": b for a, b in itertools.product(z.atom_ids, y.atom_ids)
    }
    return AtomMap(product, y, table)


@dataclass(frozen=True)
class SectionsIsoReport:
    """Evidence that parameterized sections agree with the pullback along
    the product projection."""

    sections_module: FiberModule
    pullback: PullbackPresentation
    certificate: IsoCertificate
    norm_identity_exact: bool
    constant_section_matches: bool

    @property
    def ok(self) -> bool:
        return (
            self.certificate.ok
            and self.norm_identity_exact
            and self.constant_section_matches
        )


def sections_module(z: AtomicMeasureSpace, module: FiberModule) -> FiberModule:
    """Module of maps from the finite factor into a module: the fiber at a
    product atom (z, y) is the fiber of the module at y."""
    fibers = tuple(
        module.fibers[module.space.index_of(b)]
        for _, b in itertools.product(z.atom_ids, module.space.atom_ids)
    )
    return FiberModule(product_space(z, module.space), fibers)


def constant_section(z: AtomicMeasureSpace, module: FiberModule, v: Element) -> Element:
    """The section constantly equal to ``v`` in the finite factor."""
    target = sections_module(z, module)
    coords = [
        v.coords[module.space.index_of(b)]
        for _, b in itertools.product(z.atom_ids, module.space.atom_ids)
    ]
    return Element(target, coords)


def sections_iso(z: AtomicMeasureSpace, module: FiberModule) -> SectionsIsoReport:
    """Certify that sections over a finite factor realize the pullback
    along the product projection, with the exact norm identity.  The
    constant section and the pullback of an element are linear in it, so
    the basis elements decide their agreement."""
    sections = sections_module(z, module)
    projection = product_projection(z, module.space)
    pulled = pullback_module(projection, module)
    identity = ModuleMorphism(
        sections, pulled.module, [np.eye(f.dim) for f in sections.fibers]
    )
    certificate = certify_isometric_iso(identity)
    norm_exact = True
    constant_matches = True
    for v in basis_elements(module):
        tv = constant_section(z, module, v)
        pv = pulled.pull_element(v)
        if any(not np.array_equal(a, b) for a, b in zip(tv.coords, pv.coords)):
            constant_matches = False
        lhs = pointwise_norm(tv).values
        rhs = pulled.pull_function(pointwise_norm(v)).values
        if not np.array_equal(lhs, rhs):
            norm_exact = False
    return SectionsIsoReport(sections, pulled, certificate, norm_exact, constant_matches)


def _pullback_system(atom_map: AtomMap, system: System):
    """The system of pulled-back stages and maps, with the presentation of
    each pulled-back stage."""
    presentations = {
        i: pullback_module(atom_map, system.modules[i])
        for i in system.index.explicit_indices()
    }
    maps = {}
    for (i, j), phi in system.maps.items():
        source, target = system._arrow(presentations[i], presentations[j])
        maps[(i, j)] = source.pull_morphism(phi, target)
    pulled = type(system)(
        system.index.pulled(atom_map),
        {i: p.module for i, p in presentations.items()},
        maps,
    )
    return pulled, presentations


def pullback_direct_system(atom_map: AtomMap, system: DirectSystem) -> DirectSystem:
    return _pullback_system(atom_map, system)[0]


def pullback_inverse_system(atom_map: AtomMap, system: InverseSystem) -> InverseSystem:
    return _pullback_system(atom_map, system)[0]


@dataclass(frozen=True)
class PullbackCommuteReport:
    """Both orders of limit and pullback, with the comparison morphism."""

    limit_of_pulled: LimitPresentation
    pulled_limit: FiberModule
    comparison: ModuleMorphism
    certificate: IsoCertificate
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.certificate.ok


def _pullback_comparison(
    atom_map: AtomMap, system: System, note: str = ""
) -> PullbackCommuteReport:
    """The limit of the pulled-back system, the pullback of the limit with
    the pulled canonical maps as a cone, and the certified mediating
    morphism between them.  Each stage is pulled back once."""
    pulled_system, stage_pulled = _pullback_system(atom_map, system)
    side_a = _limit(pulled_system)
    limit = _limit(system)
    limit_pulled = pullback_module(atom_map, limit.module)
    maps = {}
    for i in system.index.explicit_indices():
        source, target = system._arrow(stage_pulled[i], limit_pulled)
        maps[i] = source.pull_morphism(limit.canonical[i], target)
    comparison = _universal_factorization(pulled_system, limit_pulled.module, maps)[0]
    certificate = certify_isometric_iso(comparison)
    return PullbackCommuteReport(side_a, limit_pulled.module, comparison, certificate, note)


def dl_pullback_iso(atom_map: AtomMap, system: DirectSystem) -> PullbackCommuteReport:
    """Certify that pulling back commutes with the direct limit.

    Both sides are computed independently: the limit of the pulled-back
    system, and the pullback of the limit receiving the pulled canonical
    morphisms.  The mediating morphism between them is then certified to
    be an isometric isomorphism.
    """
    return _pullback_comparison(atom_map, system)


IL_PULLBACK_NOTE = (
    "comparison holds on this instance; the known obstruction to commuting "
    "an inverse limit past a pullback needs a non-atomic base and "
    "infinite-dimensional fibers, outside this representable corpus"
)


def il_pullback_compare(atom_map: AtomMap, system: InverseSystem) -> PullbackCommuteReport:
    """Compare both orders of inverse limit and pullback on one instance.

    Reports whether the canonical comparison is an isometric isomorphism
    here; no general claim is made either way.
    """
    return _pullback_comparison(atom_map, system, IL_PULLBACK_NOTE)
