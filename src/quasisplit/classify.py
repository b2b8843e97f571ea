"""Numerical invariants of an involution class.

Root-space bookkeeping at the standard maximal torus: a root is imaginary
when theta0 fixes it and complex otherwise (theta0 preserves positivity, so
no root is sent to its negative here).  Imaginary roots carry a sign eps
built from the pinned signs and the grading vector; eps = +1 marks root
spaces inside the fixed subgroup.

IndexedGrading is the one per-root table of a (class, grading): the
imaginary and compact imaginary roots as bitmasks (see weyl.root_index),
built by XOR of per-node parity masks, and eps per root index read from the
two masks; what depends on theta0 alone is read from its
chevalley.PinnedSigns.  Root counts, dimensions, the compact subsystem
type, the unipotent dimensions at a chamber and the generic-character test
are all read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .chevalley import pinned_signs
from .involution import Grading, InvolutionClass, grading_string
from .rootdata import format_subsystem, identify_cartan, type_string
from .weyl import Chamber, root_index


class IndexedGrading:
    """One class at one grading, in root-index form (see weyl.root_index).

    pinned is the PinnedSigns of theta0, and imaginary and compact the
    bitmasks of the imaginary and of the compact imaginary roots; signs[k]
    is the eps of root k read from them (0 on complex roots).

    eps of an imaginary root is its pinned sign times the grading signs at
    the fixed-node coefficients; swapped-node coefficients never contribute
    because the torus part is normalized to +1 there.  So it is the pinned
    sign times -1 to the number of minus nodes where the root has an odd
    coefficient: over the roots at once, the odd roots are the XOR of
    RootIndex.odd_masks over the minus nodes (parity), and an imaginary root
    is compact when its pinned sign is -1 exactly where it is odd.
    """

    def __init__(self, cls: InvolutionClass, rep: Grading):
        if not cls.contains(rep):
            raise ValueError(f"grading {grading_string(rep)} is not in the orbit of class {cls.class_id!r}")
        self.cls = cls
        self.ri = ri = root_index(cls.rs)
        self.pinned = pinned = pinned_signs(cls.rs, cls.aut)
        odd_masks, parity = ri.odd_masks, 0
        for node, s in zip(cls.fixed_nodes, rep):
            if s == -1:
                parity ^= odd_masks[node - 1]
        self.imaginary = pinned.imaginary
        self.compact = pinned.imaginary & ~(pinned.minus ^ parity)

    @cached_property
    def signs(self) -> tuple[int, ...]:
        """eps per root index: +1 on compact, -1 on the other imaginary roots, 0
        on complex ones.  Assignable, so a test can plant wrong signs."""
        imaginary, compact = self.imaginary, self.compact
        return tuple(
            (compact >> k & 1) * 2 - 1 if imaginary >> k & 1 else 0 for k in range(len(self.ri.key))
        )

    def admits_generic(self, chamber: Chamber) -> bool:
        """Whether some wall-generic character kills the fixed unipotent part.

        Blocked by a compact imaginary wall (the whole wall space lies in the
        image) or by a complex wall whose partner is w-positive but interior
        (the wall space again lies in the image).  A complex wall pair only
        forces the character to vanish on a diagonal, which generic
        characters can dodge.  The first block depends on the grading, the
        second only on theta0 (PinnedSigns.complex_wall_blocks).
        """
        if chamber.wall_mask & self.compact:
            return False
        return not self.pinned.complex_wall_blocks(bytes(chamber.walls), chamber.img[: self.ri.npos])


@lru_cache(maxsize=None)
def indexed_grading(cls: InvolutionClass, rep: Grading) -> IndexedGrading:
    return IndexedGrading(cls, rep)


@dataclass(frozen=True)
class ClassSummary:
    """Everything the reporting layer prints about one class."""

    root_system: str
    class_id: str
    theta0: str
    grading: str
    orbit_size: int
    quasi_split: bool
    dim_group: int
    dim_fixed: int
    dim_torus_fixed: int
    compact_imaginary: int
    noncompact_imaginary: int
    complex_roots: int
    split_rank: int | None
    k_type: str | None


def torus_fixed_dim(cls: InvolutionClass) -> int:
    rs = cls.rs
    node_orbits = len(cls.fixed_nodes) + (rs.rank - len(cls.fixed_nodes)) // 2
    return node_orbits + rs.central_torus_dim


@lru_cache(maxsize=None)
def root_counts(cls: InvolutionClass) -> tuple[int, int, int]:
    """(compact imaginary, noncompact imaginary, complex), over all roots."""
    g = indexed_grading(cls, cls.canonical_rep)
    compact = g.compact.bit_count()
    imaginary = g.imaginary.bit_count()
    return compact, imaginary - compact, len(g.ri.key) - imaginary


def fixed_group_dim(cls: InvolutionClass) -> int:
    """Dimension of the fixed subgroup: torus part, compact imaginary root
    spaces, and one dimension per complex root pair."""
    compact, _, cplx = root_counts(cls)
    if cplx % 2:
        raise ValueError(f"odd number {cplx} of complex roots: theta0 does not pair them")
    return torus_fixed_dim(cls) + compact + cplx // 2


def split_rank(cls: InvolutionClass) -> int | None:
    """Dimension count for the small-torus rank of a quasi-split class.

    dim U + dim T - dim K; None when the class is not quasi-split.
    """
    if not cls.quasi_split:
        return None
    rs = cls.rs
    dim_u = len(rs.roots) // 2
    dim_t = rs.rank + rs.central_torus_dim
    return dim_u + dim_t - fixed_group_dim(cls)


@lru_cache(maxsize=None)
def k_subsystem(cls: InvolutionClass) -> str:
    """Type of the compact-imaginary root subsystem plus its residual torus.

    Only meaningful for inner classes, where every root is imaginary and the
    compact roots form a closed subsystem; the simple ones are the compact
    positives that are not sums of two compact positives, and their Cartan
    matrix comes from root strings (RootIndex.cartan).
    """
    if not cls.is_inner:
        raise ValueError("compact subsystem type is computed for inner classes")
    rs = cls.rs
    g = indexed_grading(cls, cls.canonical_rep)
    ri = g.ri
    simples = ri.simples(g.compact & (1 << ri.npos) - 1)
    residual = rs.rank - len(simples) + rs.central_torus_dim
    return format_subsystem(identify_cartan(ri.cartan(simples)), residual)


def classify_involution(cls: InvolutionClass) -> ClassSummary:
    compact, noncompact, cplx = root_counts(cls)
    return ClassSummary(
        root_system=type_string(cls.rs),
        class_id=cls.class_id,
        theta0=cls.aut.cycle_string(),
        grading=grading_string(cls.canonical_rep),
        orbit_size=cls.orbit_size,
        quasi_split=cls.quasi_split,
        dim_group=cls.rs.dim_group(),
        dim_fixed=fixed_group_dim(cls),
        dim_torus_fixed=torus_fixed_dim(cls),
        compact_imaginary=compact,
        noncompact_imaginary=noncompact,
        complex_roots=cplx,
        split_rank=split_rank(cls),
        k_type=k_subsystem(cls) if cls.is_inner else None,
    )


def unipotent_fixed_dim(cls: InvolutionClass, rep: Grading, chamber: Chamber) -> int:
    """Dimension of the theta-fixed part of the unipotent radical at a chamber.

    Compact imaginary roots inside w(positives) each contribute one; complex
    pairs with both members inside contribute one diagonal.
    """
    g = indexed_grading(cls, rep)
    positive = chamber.positive_mask
    complex_positive = positive & ~g.imaginary
    pairs = complex_positive & g.pinned.theta_mask(g.ri.indices(complex_positive))
    return (g.compact & positive).bit_count() + pairs.bit_count() // 2


def unipotent_image_dim(cls: InvolutionClass, rep: Grading, chamber: Chamber) -> int:
    """Dimension of the image of the fixed unipotent part on the walls.

    Projection of the theta-fixed subalgebra of the unipotent radical to the
    wall root spaces (the abelianization).  A compact imaginary wall
    contributes one; a complex wall whose theta0-partner is w-positive
    contributes one, shared when the partner is itself a wall.
    """
    g = indexed_grading(cls, rep)
    walls = chamber.wall_mask
    partners = g.pinned.theta_mask(g.ri.indices(walls & ~g.imaginary))
    interior = partners & chamber.positive_mask & ~walls
    shared = partners & walls
    return (g.compact & walls).bit_count() + interior.bit_count() + shared.bit_count() // 2


def admits_generic_character(cls: InvolutionClass, rep: Grading, chamber: Chamber) -> bool:
    """Whether some wall-generic character kills the fixed unipotent part."""
    return indexed_grading(cls, rep).admits_generic(chamber)
