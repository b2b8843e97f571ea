"""Numerical invariants of an involution class.

Root-space bookkeeping at the standard maximal torus: a root is imaginary
when theta0 fixes it and complex otherwise (theta0 preserves positivity, so
no root is sent to its negative here).  Imaginary roots carry a sign eps
built from the pinned signs and the grading vector; eps = +1 marks root
spaces inside the fixed subgroup.

IndexedGrading is the one per-root table of a (class, grading): theta0 as a
permutation of root indices (see weyl.root_index), eps per root index, and
the imaginary and compact imaginary roots as bitmasks.  Root counts,
dimensions, the compact subsystem type, the unipotent dimensions at a chamber
and the generic-character test are all read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .chevalley import pinned_signs
from .involution import Grading, InvolutionClass, grading_string
from .rootdata import format_subsystem, identify_subsystem, type_string
from .weyl import Chamber, root_index


def _check_rep(cls: InvolutionClass, rep: Grading) -> None:
    if not cls.contains(rep):
        raise ValueError(f"grading {grading_string(rep)} is not in the orbit of class {cls.class_id!r}")


class IndexedGrading:
    """One class at one grading, in root-index form (see weyl.root_index).

    theta is theta0 as a permutation of root indices, signs[k] the eps of an
    imaginary root k (0 on complex roots), and imaginary and compact the
    bitmasks of the imaginary and of the compact imaginary roots.

    eps of an imaginary root is its pinned sign times the grading signs at
    the fixed-node coefficients; swapped-node coefficients never contribute
    because the torus part is normalized to +1 there.  So it is the pinned
    sign times -1 to the sum of the coefficients at the minus nodes.
    """

    def __init__(self, cls: InvolutionClass, rep: Grading):
        _check_rep(cls, rep)
        self.cls = cls
        self.ri = ri = root_index(cls.rs)
        pinned = pinned_signs(cls.rs, cls.aut)
        self.theta = theta = pinned.theta
        minus = [node - 1 for node, s in zip(cls.fixed_nodes, rep) if s == -1]
        signs = []
        for k, beta in enumerate(cls.rs.roots):
            if theta[k] != k:
                signs.append(0)
            elif sum(beta[i] for i in minus) % 2:
                signs.append(-pinned.signs[k])
            else:
                signs.append(pinned.signs[k])
        self.signs = tuple(signs)
        self.imaginary = ri.mask(k for k, t in enumerate(theta) if t == k)
        self.compact = ri.mask(k for k, sign in enumerate(signs) if sign == 1)

    def theta_mask(self, indices: Iterable[int]) -> int:
        """Bitmask of theta0 applied to the given root indices."""
        return self.ri.mask(map(self.theta.__getitem__, indices))

    def admits_generic(self, chamber: Chamber) -> bool:
        """Whether some wall-generic character kills the fixed unipotent part.

        Blocked by a compact imaginary wall (the whole wall space lies in the
        image) or by a complex wall whose partner is w-positive but interior
        (the wall space again lies in the image).  A complex wall pair only
        forces the character to vanish on a diagonal, which generic
        characters can dodge.
        """
        walls = chamber.wall_mask
        if walls & self.compact:
            return False
        if self.cls.is_inner:  # theta0 fixes every wall
            return True
        partners = self.theta_mask(chamber.walls) & ~walls
        return not (partners and partners & chamber.positive_mask)


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
    return compact, imaginary - compact, len(g.theta) - imaginary


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
    positives that are not sums of two compact positives.
    """
    if not cls.is_inner:
        raise ValueError("compact subsystem type is computed for inner classes")
    rs = cls.rs
    g = indexed_grading(cls, cls.canonical_rep)
    positives = (1 << g.ri.npos) - 1
    simples = [rs.roots[k] for k in g.ri.simples(g.compact & positives)]
    types = identify_subsystem(rs, simples)
    residual = rs.rank - len(simples) + rs.central_torus_dim
    return format_subsystem(types, residual)


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
    pairs = complex_positive & g.theta_mask(g.ri.indices(complex_positive))
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
    partners = g.theta_mask(g.ri.indices(walls & ~g.imaginary))
    interior = partners & chamber.positive_mask & ~walls
    shared = partners & walls
    return (g.compact & walls).bit_count() + interior.bit_count() + shared.bit_count() // 2


def admits_generic_character(cls: InvolutionClass, rep: Grading, chamber: Chamber) -> bool:
    """Whether some wall-generic character kills the fixed unipotent part."""
    return indexed_grading(cls, rep).admits_generic(chamber)
