"""Conjugacy classes of involutions of a connected reductive group.

Working over an algebraically closed field of characteristic zero, with the
group taken in adjoint form times a central torus, every involution is
conjugate to one of the form (pinned lift of a diagram involution theta0)
composed with Int(t), where t is an order <= 2 torus element recorded by a
sign vector on the theta0-fixed simple nodes.  Two such pairs give conjugate
involutions exactly when the sign vectors lie in the same orbit of the
theta0-centralizer subgroup of the Weyl group, acting through the pinned
signs.  So a conjugacy class is a pair (theta0, orbit of sign vectors), and
this module enumerates those orbits directly.

A sign vector on f fixed nodes is an f-bit int, bit f-1-j set when the
sign at the j-th fixed node is -1, so int order is the order of the class
ids (+ before -, first node most significant).  Each folded generator then
acts as a GF(2)-affine map, and the orbits are labelled over range(2**f)
(weyl.orbit_partition).  Those labels are the only form of a grading orbit:
a class holds the labels of its theta0 and the smallest member of its orbit.

Quasi-splitness is decided inside the orbit: a class is quasi-split iff the
all-minus sign vector occurs in its orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

from .chevalley import pinned_signs
from .rootdata import DiagramAutomorphism, RootSystem, diagram_automorphisms
from .weyl import folded_generators, orbit_partition, root_index

Grading = tuple[int, ...]


def grading_string(s: Grading) -> str:
    return "".join("+" if x == 1 else "-" for x in s)


def _bits(rep: Grading, width: int) -> int | None:
    """The int of a +-1 tuple of the given length, or None for anything else."""
    s = 0
    for x in rep:
        if x != 1 and x != -1:
            return None
        s = 2 * s + (x == -1)
    return s if len(rep) == width else None


@dataclass(frozen=True)
class InvolutionClass:
    """One conjugacy class: a diagram involution plus a grading orbit.

    labels[s] numbers the orbit of each int sign vector s, and every class of
    one theta0 shares them.  The class is the orbit of canonical, its
    smallest member, and is compared and hashed without the labels.  As +-1
    tuples indexed by fixed_nodes, canonical_rep is canonical and orbit lists
    the members in increasing int order.
    """

    rs: RootSystem
    aut: DiagramAutomorphism
    fixed_nodes: tuple[int, ...]
    canonical: int
    orbit_size: int = field(compare=False)
    labels: Sequence[int] = field(compare=False, repr=False)

    def _grading(self, s: int) -> Grading:
        return tuple(-1 if s >> j & 1 else 1 for j in range(len(self.fixed_nodes) - 1, -1, -1))

    @cached_property
    def canonical_rep(self) -> Grading:
        return self._grading(self.canonical)

    @property
    def orbit(self) -> tuple[Grading, ...]:
        own = self.labels[self.canonical]
        return tuple(self._grading(s) for s, label in enumerate(self.labels) if label == own)

    @property
    def is_inner(self) -> bool:
        return self.aut.is_identity

    @property
    def is_trivial(self) -> bool:
        return self.is_inner and self.canonical == 0

    @property
    def quasi_split(self) -> bool:
        """All-minus grading, the last sign vector, in the orbit; vacuously
        true with no fixed nodes."""
        return self.labels[-1] == self.labels[self.canonical]

    @property
    def class_id(self) -> str:
        g = grading_string(self.canonical_rep)
        if self.is_inner:
            return g
        cycles = self.aut.cycle_string()
        return f"{cycles}:{g}" if g else cycles

    def contains(self, rep: Grading) -> bool:
        s = _bits(rep, len(self.fixed_nodes))
        return s is not None and self.labels[s] == self.labels[self.canonical]

    def sort_key(self):
        return (not self.is_inner, self.aut.perm, self.canonical)


def _grading_action(rs: RootSystem, aut: DiagramAutomorphism, fixed: tuple[int, ...]):
    """The folded-generator action on sign vectors, as (flip, columns) pairs.

    A generator g sends s to s' with s'_i = c(g(alpha_i)) * prod_j s_j^(m_j),
    m the coefficient vector of g(alpha_i); only fixed-node coefficients
    matter since the cocycle is normalized to +1 on swapped nodes.  g(alpha_i)
    is found by moving the root index of alpha_i through the simple
    reflections of the word.  g commutes with theta0 and alpha_i is
    theta0-fixed, so g(alpha_i) is too: c = -1 there iff it lies in the
    pinned minus mask, and the parities m_j are read from
    RootIndex.odd_masks.  Folded generators are involutions, so g and
    g^{-1} need not be distinguished.  On bitmasks this is s' = flip ^ A s
    over GF(2); A is listed by the columns where it differs from the
    identity (see weyl.orbit_partition).
    """
    minus = pinned_signs(rs, aut).minus
    ri = root_index(rs)
    odd = [ri.odd_masks[f - 1] for f in fixed]
    bits = [1 << (len(fixed) - 1 - i) for i in range(len(fixed))]
    actions = []
    for word in folded_generators(rs, aut.perm):
        flip = 0
        columns = [0] * len(fixed)
        for bit, node in zip(bits, fixed):
            k = ri.simple[node - 1]
            for i in reversed(word):
                k = ri.reflections[i - 1][k]
            if minus >> k & 1:
                flip |= bit
            for j, mask in enumerate(odd):
                if mask >> k & 1:
                    columns[j] |= bit
        actions.append((flip, [(b, c ^ b) for b, c in zip(bits, columns) if c != b]))
    return actions


@lru_cache(maxsize=None)
def enumerate_involution_classes(rs: RootSystem) -> tuple[InvolutionClass, ...]:
    """All involution classes, inner first, in a deterministic order.

    Includes the trivial class (identity diagram automorphism, all-plus
    grading), which is the identity automorphism of the group.
    """
    classes = []
    for aut in diagram_automorphisms(rs):
        if aut.order > 2:
            continue
        fixed = aut.fixed_nodes()
        labels, firsts, sizes = orbit_partition(len(fixed), _grading_action(rs, aut, fixed))
        classes.extend(InvolutionClass(rs, aut, fixed, s, size, labels) for s, size in zip(firsts, sizes))
    classes.sort(key=InvolutionClass.sort_key)
    return tuple(classes)


def trivial_class(rs: RootSystem) -> InvolutionClass:
    """The class of the identity, which sorts first."""
    return enumerate_involution_classes(rs)[0]


@lru_cache(maxsize=None)
def _first_classes(rs: RootSystem) -> dict[DiagramAutomorphism, int]:
    """The position of each theta0's first class, the orbit of all-plus.  The
    classes of one theta0 follow it in the enumeration in label order."""
    return {c.aut: at for at, c in enumerate(enumerate_involution_classes(rs)) if c.canonical == 0}


def find_class(rs: RootSystem, aut: DiagramAutomorphism, rep: Grading) -> InvolutionClass:
    """The class whose orbit contains the given sign vector for this theta0."""
    classes = enumerate_involution_classes(rs)
    at = _first_classes(rs).get(aut)
    s = None if at is None else _bits(rep, len(classes[at].fixed_nodes))
    if s is None:
        raise ValueError(f"no class of {aut.perm} contains {rep}")
    return classes[at + classes[at].labels[s]]


def _transport(rs: RootSystem, aut: DiagramAutomorphism, tau: DiagramAutomorphism) -> tuple[int, tuple[int, ...]]:
    """How tau moves the classes of theta0 = aut: (at, shifts).

    at is the position of the first class of tau theta0 tau^{-1} in the
    enumeration.  The fixed nodes of theta0 map onto those of the conjugate
    through tau, so a sign vector moves as a bit permutation: bit j goes to
    bit shifts[j].
    """
    t = tau.perm
    perm = [0] * len(t)
    for i, j in zip(t, (t[j - 1] for j in aut.perm)):
        perm[i - 1] = j
    at = _first_classes(rs)[DiagramAutomorphism(tuple(perm))]
    target = enumerate_involution_classes(rs)[at].fixed_nodes
    top = len(target) - 1
    bit_of = {node: top - j for j, node in enumerate(target)}
    return at, tuple(bit_of[t[node - 1]] for node in reversed(aut.fixed_nodes()))


def _moved(classes: Sequence[InvolutionClass], transport: tuple[int, tuple[int, ...]], s: int) -> int:
    """The position of the class of the sign vector s moved by a transport."""
    at, shifts = transport
    image = 0
    for shift in shifts:
        image |= (s & 1) << shift
        s >>= 1
    return at + classes[at].labels[image]


def conjugate_class_by(cls: InvolutionClass, tau: DiagramAutomorphism) -> InvolutionClass:
    """Transport a class through an ambient diagram automorphism.

    The pinned lift of tau maps the involution (theta0, s) to
    (tau theta0 tau^{-1}, s relabeled through tau); gradings transport with
    no sign corrections because imaginary root vectors meet tau-pinning
    coefficients twice, once in and once out.  The class of the image of
    one member of the orbit is the class of the image.
    """
    classes = enumerate_involution_classes(cls.rs)
    return classes[_moved(classes, _transport(cls.rs, cls.aut, tau), cls.canonical)]


def merge_diagram_conjugates(rs: RootSystem) -> tuple[tuple[InvolutionClass, tuple[str, ...]], ...]:
    """Group classes that differ by an ambient diagram automorphism.

    Returns (representative, ids of the whole group) pairs; representatives
    keep the enumeration order.  With triality present this fuses classes
    whose fixed subgroups are abstractly isomorphic but sit on different
    nodes.  The automorphisms form a group, so one pass over them reaches
    every conjugate of a class.  The transports are built once per theta0,
    whose classes are contiguous, and classes are handled by their
    positions, which follow sort_key.
    """
    classes = enumerate_involution_classes(rs)
    taus = diagram_automorphisms(rs)
    aut, moves = None, []
    merged: list[tuple[InvolutionClass, tuple[str, ...]]] = []
    seen: set[int] = set()
    for n, cls in enumerate(classes):
        if n in seen:
            continue
        if cls.aut != aut:
            aut = cls.aut
            moves = [_transport(rs, aut, tau) for tau in taus]
        group = sorted({_moved(classes, move, cls.canonical) for move in moves})
        seen.update(group)
        merged.append((classes[group[0]], tuple(classes[m].class_id for m in group)))
    return tuple(merged)
