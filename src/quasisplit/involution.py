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

Inside the enumeration a sign vector on f fixed nodes is an f-bit int, bit
f-1-j set when the sign at the j-th fixed node is -1, so int order is the
order of the class ids (+ before -, first node most significant).  Each
folded generator then acts as a GF(2)-affine map, and the orbits are
labelled over range(2**f).  InvolutionClass.orbit keeps +-1 tuples.

Quasi-splitness is decided inside the orbit: a class is quasi-split iff the
all-minus sign vector occurs in its orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .chevalley import pinned_signs
from .rootdata import (
    DiagramAutomorphism,
    RootSystem,
    diagram_automorphisms,
    identity_automorphism,
)
from .weyl import folded_generators, orbit_partition, root_index

Grading = tuple[int, ...]


def grading_string(s: Grading) -> str:
    return "".join("+" if x == 1 else "-" for x in s)


def _bit_key(s: Grading) -> tuple[int, ...]:
    return tuple(0 if x == 1 else 1 for x in s)


@dataclass(frozen=True)
class InvolutionClass:
    """One conjugacy class: a diagram involution plus a grading orbit.

    orbit holds sign vectors indexed by fixed_nodes in increasing node order,
    sorted with all-plus first.  canonical_rep is orbit[0].
    """

    rs: RootSystem
    aut: DiagramAutomorphism
    fixed_nodes: tuple[int, ...]
    orbit: tuple[Grading, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.rs, self.aut, self.fixed_nodes, self.orbit)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def canonical_rep(self) -> Grading:
        return self.orbit[0]

    @property
    def orbit_size(self) -> int:
        return len(self.orbit)

    @property
    def is_inner(self) -> bool:
        return self.aut.is_identity

    @property
    def is_trivial(self) -> bool:
        return self.is_inner and all(x == 1 for x in self.canonical_rep)

    @property
    def quasi_split(self) -> bool:
        """All-minus grading in the orbit, where it sorts last; vacuously
        true with no fixed nodes."""
        return self.orbit[-1] == (-1,) * len(self.fixed_nodes)

    @property
    def class_id(self) -> str:
        g = grading_string(self.canonical_rep)
        if self.is_inner:
            return g
        cycles = self.aut.cycle_string()
        return f"{cycles}:{g}" if g else cycles

    def contains(self, rep: Grading) -> bool:
        return rep in self.orbit

    def sort_key(self):
        return (not self.is_inner, self.aut.perm, _bit_key(self.canonical_rep))


def _grading_action(rs: RootSystem, aut: DiagramAutomorphism, fixed: tuple[int, ...]):
    """The folded-generator action on sign vectors, as (flip, columns) pairs.

    A generator g sends s to s' with s'_i = c(g(alpha_i)) * prod_j s_j^(m_j),
    m the coefficient vector of g(alpha_i); only fixed-node coefficients
    matter since the cocycle is normalized to +1 on swapped nodes.  g(alpha_i)
    is found by moving the root index of alpha_i through the simple
    reflections of the word.  Folded generators are involutions, so g and
    g^{-1} need not be distinguished.  On bitmasks this is s' = flip ^ A s
    over GF(2); A is listed by the columns where it differs from the
    identity (see weyl.orbit_partition).
    """
    signs = pinned_signs(rs, aut).signs
    ri = root_index(rs)
    bits = [1 << (len(fixed) - 1 - i) for i in range(len(fixed))]
    actions = []
    for word in folded_generators(rs, aut.perm):
        flip = 0
        columns = [0] * len(fixed)
        for bit, node in zip(bits, fixed):
            k = ri.simple[node - 1]
            for i in reversed(word):
                k = ri.reflections[i - 1][k]
            if signs[k] == -1:
                flip |= bit
            image = rs.roots[k]
            for j, f in enumerate(fixed):
                if image[f - 1] % 2:
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
        shifts = range(len(fixed) - 1, -1, -1)
        for orbit in orbit_partition(len(fixed), _grading_action(rs, aut, fixed)):
            orbit.sort()
            gradings = tuple(tuple(-1 if s >> j & 1 else 1 for j in shifts) for s in orbit)
            classes.append(InvolutionClass(rs, aut, fixed, gradings))
    classes.sort(key=InvolutionClass.sort_key)
    return tuple(classes)


def trivial_class(rs: RootSystem) -> InvolutionClass:
    for cls in enumerate_involution_classes(rs):
        if cls.is_trivial:
            return cls
    raise AssertionError("trivial class missing")


@lru_cache(maxsize=None)
def _class_of_sign_vector(rs: RootSystem) -> dict[tuple[DiagramAutomorphism, Grading], InvolutionClass]:
    return {(cls.aut, s): cls for cls in enumerate_involution_classes(rs) for s in cls.orbit}


def find_class(rs: RootSystem, aut: DiagramAutomorphism, rep: Grading) -> InvolutionClass:
    """The class whose orbit contains the given sign vector for this theta0."""
    cls = _class_of_sign_vector(rs).get((aut, rep))
    if cls is None:
        raise ValueError(f"no class of {aut.perm} contains {rep}")
    return cls


def conjugate_class_by(cls: InvolutionClass, tau: DiagramAutomorphism) -> InvolutionClass:
    """Transport a class through an ambient diagram automorphism.

    The pinned lift of tau maps the involution (theta0, s) to
    (tau theta0 tau^{-1}, s relabeled through tau); gradings transport with
    no sign corrections because imaginary root vectors meet tau-pinning
    coefficients twice, once in and once out.  The class of the image of
    one member of the orbit is the class of the image.
    """
    conjugated = {tau.apply(i): tau.apply(j) for i, j in enumerate(cls.aut.perm, 1)}
    perm = tuple(conjugated[i] for i in range(1, len(conjugated) + 1))
    signs = {tau.apply(node): sign for node, sign in zip(cls.fixed_nodes, cls.canonical_rep)}
    rep = tuple(signs[node] for node in sorted(signs))
    return find_class(cls.rs, DiagramAutomorphism(perm), rep)


def merge_diagram_conjugates(
    rs: RootSystem,
) -> tuple[tuple[InvolutionClass, tuple[str, ...]], ...]:
    """Group classes that differ by an ambient diagram automorphism.

    Returns (representative, ids of the whole group) pairs; representatives
    keep the enumeration order.  With triality present this fuses classes
    whose fixed subgroups are abstractly isomorphic but sit on different
    nodes.  The automorphisms form a group, so one pass over them reaches
    every conjugate of a class.
    """
    merged: list[tuple[InvolutionClass, tuple[str, ...]]] = []
    seen: set[InvolutionClass] = set()
    for cls in enumerate_involution_classes(rs):
        if cls in seen:
            continue
        group = {conjugate_class_by(cls, tau) for tau in diagram_automorphisms(rs)}
        seen |= group
        ordered = sorted(group, key=InvolutionClass.sort_key)
        merged.append((ordered[0], tuple(c.class_id for c in ordered)))
    return tuple(merged)
