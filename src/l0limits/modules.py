"""Normed modules over a finite atomic base space.

A module is represented as one finite-dimensional normed fiber per atom;
an element picks one coordinate vector per fiber, and a morphism one
matrix per atom.  All values are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import tolerance
from .errors import (
    NonFiniteError,
    ShapeMismatchError,
    SpaceMismatchError,
)
from .measure import AtomicMeasureSpace, L0Function, l0_distance
from .norms import (
    WeightedP,
    _eye,
    _mm,
    _Results,
    _raise_first,
    _scalar_of,
    norm_eval,
    operator_norm_batch,
    operator_norm_witness,
    zero_norm,
)


@dataclass(frozen=True, eq=False)
class Fiber:
    """One atom's normed space: a dimension and a norm spec over it."""

    dim: int
    norm: object

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("fiber dimension must be nonnegative")
        if self.norm.dim != self.dim:
            raise ShapeMismatchError(
                f"norm of dim {self.norm.dim} attached to fiber of dim {self.dim}"
            )

    def __eq__(self, other):
        return isinstance(other, Fiber) and self.dim == other.dim and self.norm == other.norm

    def __hash__(self):
        return hash((self.dim, self.norm))


def zero_fiber() -> Fiber:
    return Fiber(0, zero_norm())


def euclidean_fiber(dim: int) -> Fiber:
    return Fiber(dim, WeightedP(2, np.ones(dim)))


@dataclass(frozen=True, eq=False)
class FiberModule:
    """A normed module presented as one fiber per atom of its space."""

    space: AtomicMeasureSpace
    fibers: Tuple[Fiber, ...]

    def __post_init__(self):
        object.__setattr__(self, "fibers", tuple(self.fibers))
        if len(self.fibers) != self.space.atom_count:
            raise ShapeMismatchError(
                f"{len(self.fibers)} fibers over a space with "
                f"{self.space.atom_count} atoms"
            )
        object.__setattr__(self, "_dims", tuple(f.dim for f in self.fibers))

    def dims(self) -> Tuple[int, ...]:
        return self._dims

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FiberModule)
            and self.space == other.space
            and self.fibers == other.fibers
        )

    def __hash__(self):
        return hash((self.space, self.fibers))

    def __repr__(self):
        return f"FiberModule(dims={self.dims()})"


def uniform_module(space: AtomicMeasureSpace, fiber: Fiber) -> FiberModule:
    return FiberModule(space, tuple(fiber for _ in space.atom_ids))


def euclidean_module(space: AtomicMeasureSpace, dim: int) -> FiberModule:
    return uniform_module(space, euclidean_fiber(dim))


def zero_module(space: AtomicMeasureSpace) -> FiberModule:
    return uniform_module(space, zero_fiber())


def scalar_module(space: AtomicMeasureSpace) -> FiberModule:
    """The ring of measurable functions viewed as a module over itself."""
    return uniform_module(space, Fiber(1, WeightedP(1, (1.0,))))


@dataclass(frozen=True, eq=False)
class Element:
    """A module element: one coordinate vector per atom."""

    module: FiberModule
    coords: Tuple[np.ndarray, ...]

    def __init__(self, module: FiberModule, coords: Sequence, *, _fresh: bool = False):
        # ``_fresh`` is for callers in this module that pass vectors they
        # have just computed and hold no other reference to; those vectors
        # are adopted as they are, neither copied nor checked for finiteness.
        if _fresh:
            coords = tuple(coords)
        else:
            coords = tuple(np.array(c, dtype=float).reshape(-1) for c in coords)
        if len(coords) != module.space.atom_count:
            raise ShapeMismatchError("one coordinate vector per atom required")
        for a, (c, f) in enumerate(zip(coords, module.fibers)):
            if c.size != f.dim:
                raise ShapeMismatchError(
                    f"coordinate vector of length {c.size} in fiber of dim {f.dim}"
                )
            if not _fresh and not np.isfinite(c).all():
                raise NonFiniteError(
                    f"coordinates at atom {module.space.atom_ids[a]!r} are not finite"
                )
            c.setflags(write=False)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "Element") -> "Element":
        _require_same_module(self, other)
        coords = [a + b for a, b in zip(self.coords, other.coords)]
        return Element(self.module, coords, _fresh=True)

    def __sub__(self, other: "Element") -> "Element":
        _require_same_module(self, other)
        coords = [a - b for a, b in zip(self.coords, other.coords)]
        return Element(self.module, coords, _fresh=True)

    def __neg__(self) -> "Element":
        return Element(self.module, [-c for c in self.coords], _fresh=True)

    def scale(self, factor: float) -> "Element":
        return Element(self.module, [factor * c for c in self.coords], _fresh=True)

    def scale_fn(self, f: L0Function) -> "Element":
        if f.space != self.module.space:
            raise SpaceMismatchError("scaling function lives over a different space")
        coords = [v * c for v, c in zip(f.values, self.coords)]
        return Element(self.module, coords, _fresh=True)

    def __repr__(self):
        return f"Element({[np.array2string(c, precision=4) for c in self.coords]})"


def zero_element(module: FiberModule) -> Element:
    return Element(module, [np.zeros(f.dim) for f in module.fibers])


def basis_elements(module: FiberModule) -> List[Element]:
    """Standard basis elements: one coordinate set at one atom, zero elsewhere."""
    out = []
    for a, fiber in enumerate(module.fibers):
        for k in range(fiber.dim):
            coords = [np.zeros(f.dim) for f in module.fibers]
            coords[a][k] = 1.0
            out.append(Element(module, coords))
    return out


def _require_same_module(v: Element, w: Element) -> None:
    if v.module != w.module:
        raise SpaceMismatchError("elements belong to different modules")


@dataclass(frozen=True, eq=False)
class ModuleMorphism:
    """A linear map over the ring of functions: one matrix per atom.

    Admissibility (pointwise operator norm at most one) is checked by
    :func:`is_morphism`, never assumed by the type.
    """

    source: FiberModule
    target: FiberModule
    matrices: Tuple[np.ndarray, ...]

    def __init__(
        self,
        source: FiberModule,
        target: FiberModule,
        matrices: Sequence,
        *,
        _fresh: bool = False,
    ):
        # Matrices are validated once, where they enter the library: a
        # public caller's are converted to float, tested for finiteness and
        # copied.  A library caller passes ``_fresh=True`` to adopt its
        # matrices as they are, with only the shape test and the read-only
        # flag, and must meet this invariant: they are float64, finite by
        # construction (parsed numbers, eye/zeros, transposes, slices or
        # identity-Kronecker blocks of validated matrices), and no writable
        # reference to them is held anywhere.  Identity blocks are shared:
        # every morphism that holds ``np.eye(n)`` from ``_eye`` holds the
        # same read-only array.  Products (``compose``, ``scale_morphism``)
        # can overflow; the norm kernels and rank tests raise NonFiniteError
        # on what they meet.  On either path an empty matrix stands for the
        # zero block of the atom's shape.  :func:`compose` skips even the
        # shape test: it hands its products straight to ``_adopt``.
        if source.space is not target.space and source.space != target.space:
            raise SpaceMismatchError("morphism endpoints live over different spaces")
        if len(matrices) != source.space.atom_count:
            raise ShapeMismatchError("one matrix per atom required")
        if _fresh:
            mats = tuple(matrices)
            for m, s, t in zip(mats, source._dims, target._dims):
                if m.shape != (t, s):
                    break
            else:
                self._adopt(source, target, mats)
                return
        mats = []
        for a, (s, t, raw) in enumerate(zip(source.dims(), target.dims(), matrices)):
            expected = (t, s)
            m = raw if _fresh else np.asarray(raw, dtype=float)
            if m.size == 0:
                m = np.zeros(expected)
            if m.shape != expected:
                raise ShapeMismatchError(
                    f"matrix at atom {source.space.atom_ids[a]!r} has shape "
                    f"{m.shape}, expected {expected}"
                )
            if not _fresh:
                if not np.isfinite(m).all():
                    raise NonFiniteError(
                        f"matrix at atom {source.space.atom_ids[a]!r} is not finite"
                    )
                m = m.copy()
            mats.append(m)
        self._adopt(source, target, tuple(mats))

    def _adopt(self, source: FiberModule, target: FiberModule, mats: tuple) -> ModuleMorphism:
        """Hold ``mats`` as they are, made read-only: the step every
        construction ends in, once the matrices are known to have the
        shapes of the endpoints' fibers over one space."""
        for m in mats:
            m.setflags(write=False)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrices", mats)
        return self

    def __repr__(self):
        return f"ModuleMorphism({self.source.dims()}->{self.target.dims()})"


def identity_morphism(module: FiberModule) -> ModuleMorphism:
    return ModuleMorphism(module, module, [_eye(f.dim) for f in module.fibers], _fresh=True)


def zero_morphism(source: FiberModule, target: FiberModule) -> ModuleMorphism:
    return ModuleMorphism(
        source,
        target,
        [np.zeros((t.dim, s.dim)) for s, t in zip(source.fibers, target.fibers)],
        _fresh=True,
    )


def apply(phi: ModuleMorphism, v: Element) -> Element:
    if v.module != phi.source:
        raise ShapeMismatchError("element does not belong to the morphism source")
    return Element(phi.target, [_mm(m, c) for m, c in zip(phi.matrices, v.coords)], _fresh=True)


def compose(psi: ModuleMorphism, phi: ModuleMorphism) -> ModuleMorphism:
    """The composite ``psi after phi``.

    Once the factors meet, their products are adopted as they are, with no
    space or shape test: every matrix of a morphism has its atom's exact
    ``(target dim, source dim)`` shape, so each product has the composite's,
    and the three modules share one space."""
    if psi.source is not phi.target and psi.source != phi.target:
        raise ShapeMismatchError("composition endpoints do not match")
    mats = tuple([_mm(b, a) for b, a in zip(psi.matrices, phi.matrices)])
    return ModuleMorphism.__new__(ModuleMorphism)._adopt(phi.source, psi.target, mats)


def scale_morphism(phi: ModuleMorphism, factor) -> ModuleMorphism:
    """Entrywise scaling, by a constant or per-atom by a function."""
    if isinstance(factor, L0Function):
        if factor.space != phi.source.space:
            raise SpaceMismatchError("scaling function lives over a different space")
        factors = factor.values
    else:
        factors = np.full(phi.source.space.atom_count, float(factor))
    mats = [f * m for f, m in zip(factors, phi.matrices)]
    return ModuleMorphism(phi.source, phi.target, mats, _fresh=True)


def morphism_deviation(a: ModuleMorphism, b: ModuleMorphism) -> float:
    """Largest absolute entry of ``a - b`` over all atoms (NaN if any is NaN)."""
    return composite_deviation((a,), (b,))


def _chain_products(factors: Sequence[ModuleMorphism]) -> list:
    """Each atom's matrix of the composite ``factors[0] . factors[1] . ...``,
    multiplied from the left as repeated :func:`compose` builds it."""
    products = factors[0].matrices
    for phi in factors[1:]:
        products = [_mm(m, f) for m, f in zip(products, phi.matrices)]
    return products


def _chain_ends(factors: Sequence[ModuleMorphism]):
    """Source and target dims of a chain's composite; raises as
    :func:`compose` does when two neighbouring factors do not meet."""
    for psi, phi in zip(factors, factors[1:]):
        if psi.source is not phi.target and psi.source != phi.target:
            raise ShapeMismatchError("composition endpoints do not match")
    return factors[-1].source._dims, factors[0].target._dims


def composite_deviation(
    left: Sequence[ModuleMorphism], right: Sequence[ModuleMorphism]
) -> float:
    """``morphism_deviation`` of the composites of two chains of factors:
    the one-pair case of :func:`composite_deviations`.

    Each chain lists its factors outermost first, so ``(psi, phi)`` stands
    for ``compose(psi, phi)`` and ``(chi, psi, phi)`` for
    ``compose(compose(chi, psi), phi)``.  The value equals the deviation of
    the composed morphisms bit for bit, from the same matrix products, but
    no composite morphism is built.
    """
    return composite_deviations([(left, right)])[0]


def composite_deviations(pairs: Sequence[tuple]) -> List[float]:
    """:func:`composite_deviation` of each ``(left, right)`` pair of chains.

    A law holds on many pairs at once, so its check reduces them together:
    the chains' products are taken atom by atom as for one pair, and all
    their differences are reduced with one ``np.abs`` and one
    ``np.maximum.reduceat``, one span per pair.  Each value equals the one
    pair's bit for bit: an atom with an empty block is skipped, a pair with
    no other atom reads 0.0, and a NaN difference makes the pair's value
    NaN.  The first pair whose factors or ends do not meet raises
    :class:`ShapeMismatchError`, before any later pair's products are taken.
    """
    lefts, rights, starts, owners = [], [], [], []
    total = 0
    for n, (left, right) in enumerate(pairs):
        ends = _chain_ends(left)
        if ends != _chain_ends(right):
            raise ShapeMismatchError("morphisms have incompatible shapes")
        size = sum(map(operator.mul, *ends))
        if size:
            # Empty blocks add nothing to the flattened differences.
            lefts += _chain_products(left)
            rights += _chain_products(right)
            starts.append(total)
            owners.append(n)
            total += size
    devs = [0.0] * len(pairs)
    if owners:
        flat = np.concatenate(lefts + rights, axis=None)
        diff = flat[:total] - flat[total:]
        for n, dev in zip(owners, np.maximum.reduceat(np.abs(diff), starts).tolist()):
            devs[n] = dev
    return devs


def pointwise_norm(v: Element) -> L0Function:
    """Per-atom fiber norm of an element's coordinates."""
    values = [norm_eval(f.norm, c) for f, c in zip(v.module.fibers, v.coords)]
    return L0Function(v.module.space, values)


def module_distance(v: Element, w: Element) -> float:
    """Complete distance induced by the pointwise norm (fibers are finite
    dimensional, so completeness holds automatically)."""
    _require_same_module(v, w)
    return l0_distance(
        pointwise_norm(v - w),
        L0Function(v.module.space, np.zeros(v.module.space.atom_count)),
    )


def operator_pointwise_norm(phi: ModuleMorphism) -> L0Function:
    """Exact per-atom operator norm of a morphism.

    This is the minimal function bounding ``|phi(v)|`` by a multiple of
    ``|v|`` at every atom.
    """
    return operator_pointwise_norms([phi])[0]


def operator_pointwise_norms(phis: Sequence[ModuleMorphism]) -> List[L0Function]:
    """:func:`operator_pointwise_norm` of each morphism, from one stacked
    pass over the atoms of all of them.  The first error in morphism order
    is raised, the one a loop over the morphisms would meet first."""
    results = _raise_first(_operator_norm_results(phis))
    return [L0Function(phi.source.space, values) for phi, values in zip(phis, results)]


def _operator_norm_results(phis: Sequence[ModuleMorphism]) -> _Results:
    """Each morphism's exact per-atom operator norms as a list of floats from
    one :func:`~l0limits.norms.operator_norm_batch`, or in its place the
    error it raises: the first error of an atom in atom order (a kernel error
    or a spectral core that overflows) located at the atom, else the
    :class:`L0Function` error of a norm that overflows, for callers to raise.
    The list's ``inexact`` holds the positions of the morphisms with an atom
    on the bracket path, as the batch took it."""
    items = [
        (m, s.norm, t.norm)
        for phi in phis
        for m, s, t in zip(phi.matrices, phi.source.fibers, phi.target.fibers)
    ]
    values = operator_norm_batch(items)
    results, stops, start = [], [], 0
    for phi in phis:
        space = phi.source.space
        chunk = values[start:start + space.atom_count]
        start += space.atom_count
        stops.append(start)
        bad = next((a for a, v in enumerate(chunk) if isinstance(v, Exception)), None)
        if bad is not None:
            chunk = chunk[bad].at_atom(space.atom_ids[bad])
        elif not all(map(math.isfinite, chunk)):
            atom = space.atom_ids[next(a for a, v in enumerate(chunk) if not math.isfinite(v))]
            chunk = NonFiniteError(f"function value at atom {atom!r} is not finite")
        results.append(chunk)
    # Item n belongs to the first morphism whose atoms end past it.
    return _Results(results, sorted({bisect_right(stops, n) for n in values.inexact}))


def operator_norm_witnesses(phi: ModuleMorphism):
    """Per-atom (value, maximizer) pairs; maximizers have source norm one."""
    return [
        operator_norm_witness(m, s.norm, t.norm)
        for m, s, t in zip(phi.matrices, phi.source.fibers, phi.target.fibers)
    ]


def is_morphism(phi: ModuleMorphism) -> bool:
    """True iff the pointwise operator norm exceeds 1 by at most
    ``tolerance()`` at every atom."""
    return bool(np.all(operator_pointwise_norm(phi).values - 1.0 <= tolerance()))


def _orth_basis(columns: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column space; identity when the span is full."""
    dim = columns.shape[0]
    if dim == 0 or columns.size == 0:
        return np.zeros((dim, 0))
    u, sv, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(sv > tol * max(1.0, sv[0] if sv.size else 1.0)))
    if rank == dim:
        return np.eye(dim)
    return u[:, :rank]


def submodule_from_bases(module: FiberModule, bases: Sequence[np.ndarray]):
    """Submodule with the given per-atom orthonormal bases and the
    inclusion morphism.  Fiber norms are the restrictions of the ambient
    norms along the bases."""
    fibers = []
    for f, b in zip(module.fibers, bases):
        r = b.shape[1]
        fibers.append(Fiber(r, zero_norm()) if r == 0 else Fiber(r, f.norm.restrict(b)))
    sub = FiberModule(module.space, tuple(fibers))
    inclusion = ModuleMorphism(sub, module, list(bases))
    return sub, inclusion


def submodule_generated(module: FiberModule, gens: Sequence[Element]):
    """Smallest submodule containing the generators, with its inclusion.

    Over a finite atomic space with finite-dimensional fibers the span of
    the generators is closed atom by atom, so density collapses to
    equality and the fiber at each atom is simply the column space of the
    generators' coordinates there.
    """
    for g in gens:
        if g.module != module:
            raise SpaceMismatchError("generator does not belong to the module")
    tol = tolerance()
    bases = []
    for a, f in enumerate(module.fibers):
        if gens:
            cols = np.column_stack([g.coords[a] for g in gens])
        else:
            cols = np.zeros((f.dim, 0))
        bases.append(_orth_basis(cols, tol))
    return submodule_from_bases(module, bases)


@dataclass(frozen=True)
class KernelImage:
    kernel: FiberModule
    kernel_inclusion: ModuleMorphism
    image: FiberModule
    image_inclusion: ModuleMorphism


def kernel_image(phi: ModuleMorphism) -> KernelImage:
    """Per-atom null space and column space with restricted norms.

    The image is automatically closed in finite dimensions, so it equals
    the closure of the set-theoretic range.
    """
    tol = tolerance()
    kernel_bases = []
    image_bases = []
    for m in phi.matrices:
        t, s = m.shape
        if s == 0:
            kernel_bases.append(np.zeros((0, 0)))
            image_bases.append(np.zeros((t, 0)))
            continue
        u, sv, vt = np.linalg.svd(m, full_matrices=True)
        top = sv[0] if sv.size else 0.0
        rank = int(np.sum(sv > tol * max(1.0, top)))
        kernel = vt[rank:].T
        kernel_bases.append(np.eye(s) if kernel.shape[1] == s else kernel)
        image = u[:, :rank]
        image_bases.append(np.eye(t) if rank == t else image)
    kernel, kernel_inc = submodule_from_bases(phi.source, kernel_bases)
    image, image_inc = submodule_from_bases(phi.target, image_bases)
    return KernelImage(kernel, kernel_inc, image, image_inc)


def mask_module(module: FiberModule, keep: np.ndarray):
    """Zero out the fibers at atoms where ``keep`` is false.

    Returns the masked module together with the projection morphism from
    the original module (identity on kept atoms, zero map elsewhere).
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (module.space.atom_count,):
        raise ShapeMismatchError("one keep flag per atom required")
    fibers = [f if k else zero_fiber() for f, k in zip(module.fibers, keep)]
    masked = FiberModule(module.space, tuple(fibers))
    mats = [
        _eye(f.dim) if k else np.zeros((0, f.dim))
        for f, k in zip(module.fibers, keep)
    ]
    projection = ModuleMorphism(module, masked, mats, _fresh=True)
    return masked, projection


def mask_inclusion(module: FiberModule, masked: FiberModule) -> ModuleMorphism:
    """Inclusion of a masked module back into its parent."""
    mats = []
    for f, g in zip(module.fibers, masked.fibers):
        mats.append(_eye(f.dim) if g.dim == f.dim else np.zeros((f.dim, 0)))
    return ModuleMorphism(masked, module, mats, _fresh=True)


@dataclass(frozen=True)
class IsoCertificate:
    """Evidence that a morphism is an isometric isomorphism."""

    ok: bool
    bijective: bool
    max_norm_deviation: float
    detail: str = ""


def certify_isometric_iso(phi: ModuleMorphism) -> IsoCertificate:
    """Check, exactly, that a morphism is an isometric isomorphism.

    The matrix ``m`` at an atom is an isometry within ``tolerance()`` iff
    it is bijective and both ``|m|`` and ``|m^-1|`` are at most
    ``1 + tolerance()``.
    Bijectivity is full rank under numpy's default relative tolerance,
    so that an invertible atom of any scale counts as bijective.  The
    deviation is the largest ``max(|m|, |m^-1|) - 1`` over the atoms,
    clipped at zero, and infinite when an atom is not bijective.  A block
    ``c I`` (``c`` finite and nonzero) is bijective and has the inverse
    ``(1/c) I`` with no LAPACK call (see :func:`_full_ranks` and
    :func:`_inverses`); every other block takes a stacked SVD and ``inv``.
    All the norms come from one :func:`~l0limits.norms.operator_norm_batch`
    (which norms ``c I`` between equal fiber norms as ``|c|`` without a
    kernel).  A kernel error there, and the :class:`NonFiniteError` of a
    block with a NaN or infinite entry, are raised located at the atom.
    """
    return _certify_isometric_iso(phi, tolerance())


def _certify_isometric_iso(phi: ModuleMorphism, bound: float) -> IsoCertificate:
    """:func:`certify_isometric_iso` with ``bound`` in place of the
    tolerance, for a relation the library certifies within a multiple of
    it (``10 * tolerance()`` may be infinite, which no tolerance is)."""
    atoms = [
        (atom, m, s, t)
        for atom, m, s, t in zip(
            phi.source.space.atom_ids, phi.matrices, phi.source.fibers, phi.target.fibers
        )
        if s.dim or t.dim
    ]
    mats = [m for _, m, _, _ in atoms]
    if any(s.dim != t.dim for _, _, s, t in atoms) or not all(
        _full_ranks(mats, 0, atoms=[atom for atom, _, _, _ in atoms])
    ):
        return IsoCertificate(False, False, np.inf, "not bijective per atom")
    items, located = [], []
    for (atom, m, s, t), inverse in zip(atoms, _inverses(mats)):
        items += [(m, s.norm, t.norm), (inverse, t.norm, s.norm)]
        located += [atom, atom]
    values = operator_norm_batch(items)
    for atom, value in zip(located, values):
        if isinstance(value, Exception):
            raise value.at_atom(atom)
    max_dev = max(0.0, float(max(values, default=1.0)) - 1.0)
    ok = max_dev <= bound
    return IsoCertificate(ok, True, max_dev, "" if ok else f"norm deviation {max_dev:g}")


def _by_shape(mats: Sequence[np.ndarray], positions: Sequence[int]) -> list:
    """``(positions, stack)`` of the matrices at the given positions, one
    stack per shape, for a stacked numpy function to take in one call."""
    shapes: dict = {}
    for n in positions:
        shapes.setdefault(mats[n].shape, []).append(n)
    return [(group, np.array([mats[n] for n in group])) for group in shapes.values()]


def _full_ranks(
    mats: Sequence[np.ndarray],
    axis: int,
    tol: Optional[float] = None,
    atoms: Optional[Sequence[str]] = None,
) -> List[bool]:
    """Whether each matrix has full rank along ``axis`` (0: onto, 1:
    one-to-one), by the rank ``np.linalg.matrix_rank(m, tol=tol)`` gives:
    the count of singular values above ``tol``, or for ``tol=None`` above
    numpy's default ``S.max() * max(shape) * eps``.

    A block ``c I`` (``c`` finite, see :func:`_scalar_of`) has every
    singular value ``|c|``, and numpy's default cut for it, ``|c| n eps``,
    lies below ``|c|`` unless ``c`` is 0; so it has full rank iff ``|c|``
    exceeds ``tol``, or 0 for ``tol=None``, with no SVD.  Every other
    non-empty matrix takes part in one values-only SVD per shape, the
    routine ``matrix_rank`` calls.  A matrix with a NaN or infinite entry,
    whose rank is undefined, raises :class:`NonFiniteError` (the first one
    in order), located at its entry of ``atoms`` when given."""
    scalar_cut = 0.0 if tol is None else tol
    # A matrix with an empty side has rank 0: full along that side only.
    out = [m.shape[axis] == 0 for m in mats]
    rest = []
    for n, m in enumerate(mats):
        if m.size:
            c = _scalar_of(m)
            if c is None:
                rest.append(n)
            else:
                out[n] = abs(c) > scalar_cut
    stacks = _by_shape(mats, rest)
    bad = [
        n
        for group, stack in stacks
        for n, ok in zip(group, np.isfinite(stack).all(axis=(1, 2)).tolist())
        if not ok
    ]
    if bad:
        exc = NonFiniteError("matrix is not finite")
        raise exc if atoms is None else exc.at_atom(atoms[min(bad)])
    for group, stack in stacks:
        shape = stack.shape[1:]
        for n, sv in zip(group, np.linalg.svd(stack, compute_uv=False)):
            cut = sv.max(initial=0.0) * (max(shape) * np.finfo(float).eps) if tol is None else tol
            out[n] = int(np.count_nonzero(sv > cut)) == shape[axis]
    return out


def _inverses(mats: Sequence[np.ndarray]) -> list:
    """``np.linalg.inv`` of each invertible matrix, bit for bit.  A block
    ``c I`` with ``c`` nonzero and ``1/c`` finite is inverted as
    ``(1/c) I``, which is what the LU solve computes for it, signed zeros
    included; every other matrix takes part in one stacked ``inv`` per
    shape."""
    out = [None] * len(mats)
    rest = []
    for n, m in enumerate(mats):
        c = _scalar_of(m)
        if c and math.isfinite(1.0 / c):
            out[n] = (1.0 / c) * _eye(len(m))
        else:
            rest.append(n)
    for group, stack in _by_shape(mats, rest):
        for n, inverse in zip(group, np.linalg.inv(stack)):
            out[n] = inverse
    return out
