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

Quasi-splitness is decided inside the orbit: a class is quasi-split iff the
all-minus sign vector occurs in its orbit.
"""

from __future__ import annotations

import itertools
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
        object.__setattr__(self, "_orbit_set", frozenset(self.orbit))
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
        """All-minus grading in the orbit; vacuously true with no fixed nodes."""
        return tuple([-1] * len(self.fixed_nodes)) in self._orbit_set

    @property
    def class_id(self) -> str:
        g = grading_string(self.canonical_rep)
        if self.is_inner:
            return g
        cycles = self.aut.cycle_string()
        return f"{cycles}:{g}" if g else cycles

    def contains(self, rep: Grading) -> bool:
        return rep in self._orbit_set

    def sort_key(self):
        return (not self.is_inner, self.aut.perm, _bit_key(self.canonical_rep))


def _grading_action(rs: RootSystem, aut: DiagramAutomorphism, fixed: tuple[int, ...]):
    """Callables giving the folded-generator action on sign vectors.

    A generator g sends s to s' with s'_i = c(g(alpha_i)) * prod_j s_j^(m_j),
    m the coefficient vector of g(alpha_i); only fixed-node coefficients
    matter since the cocycle is normalized to +1 on swapped nodes.  g(alpha_i)
    is found by moving the root index of alpha_i through the simple
    reflections of the word.  Folded generators are involutions, so g and
    g^{-1} need not be distinguished.
    """
    signs = pinned_signs(rs, aut).signs
    ri = root_index(rs)
    actions = []
    for word in folded_generators(rs, aut.perm):
        rows = []
        for node in fixed:
            k = ri.simple[node - 1]
            for i in reversed(word):
                k = ri.reflections[i - 1][k]
            image = rs.roots[k]
            mask = tuple(image[f - 1] % 2 for f in fixed)
            rows.append((signs[k], mask))
        actions.append(rows)

    def make(rows):
        def act(s: Grading) -> Grading:
            out = []
            for sign, mask in rows:
                v = sign
                for j, m in enumerate(mask):
                    if m:
                        v *= s[j]
                out.append(v)
            return tuple(out)

        return act

    return [make(rows) for rows in actions]


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
        domain = list(itertools.product((1, -1), repeat=len(fixed)))
        generators = _grading_action(rs, aut, fixed)
        for orbit in orbit_partition(domain, generators):
            orbit.sort(key=_bit_key)
            classes.append(InvolutionClass(rs, aut, fixed, tuple(orbit)))
    classes.sort(key=InvolutionClass.sort_key)
    return tuple(classes)


def trivial_class(rs: RootSystem) -> InvolutionClass:
    for cls in enumerate_involution_classes(rs):
        if cls.is_trivial:
            return cls
    raise AssertionError("trivial class missing")


def inner_classes(rs: RootSystem) -> tuple[InvolutionClass, ...]:
    return tuple(c for c in enumerate_involution_classes(rs) if c.is_inner)


def find_class(rs: RootSystem, aut: DiagramAutomorphism, rep: Grading) -> InvolutionClass:
    """The class whose orbit contains the given sign vector for this theta0."""
    for cls in enumerate_involution_classes(rs):
        if cls.aut == aut and cls.contains(rep):
            return cls
    raise ValueError(f"no class of {aut.perm} contains {rep}")


def conjugate_class_by(cls: InvolutionClass, tau: DiagramAutomorphism) -> InvolutionClass:
    """Transport a class through an ambient diagram automorphism.

    The pinned lift of tau maps the involution (theta0, s) to
    (tau theta0 tau^{-1}, s relabeled through tau); gradings transport with
    no sign corrections because imaginary root vectors meet tau-pinning
    coefficients twice, once in and once out.
    """
    rs = cls.rs
    perm = tuple(tau.apply(cls.aut.apply(i)) for i in _inverse_perm(tau.perm))
    new_aut = DiagramAutomorphism(perm)
    new_fixed = tuple(sorted(tau.apply(i) for i in cls.fixed_nodes))
    position = {node: k for k, node in enumerate(new_fixed)}
    new_orbit = []
    for s in cls.orbit:
        out = [1] * len(new_fixed)
        for k, node in enumerate(cls.fixed_nodes):
            out[position[tau.apply(node)]] = s[k]
        new_orbit.append(tuple(out))
    new_orbit.sort(key=_bit_key)
    return find_class(rs, new_aut, new_orbit[0])


def _inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm, start=1):
        inv[j - 1] = i
    return tuple(inv)


def merge_diagram_conjugates(
    rs: RootSystem,
) -> tuple[tuple[InvolutionClass, tuple[str, ...]], ...]:
    """Group classes that differ by an ambient diagram automorphism.

    Returns (representative, ids of the whole group) pairs; representatives
    keep the enumeration order.  With triality present this fuses classes
    whose fixed subgroups are abstractly isomorphic but sit on different
    nodes.
    """
    classes = enumerate_involution_classes(rs)
    taus = diagram_automorphisms(rs)
    index = {cls.class_id: cls for cls in classes}
    merged: list[tuple[InvolutionClass, tuple[str, ...]]] = []
    seen: set[str] = set()
    for cls in classes:
        if cls.class_id in seen:
            continue
        group = {cls.class_id}
        frontier = [cls]
        while frontier:
            cur = frontier.pop()
            for tau in taus:
                moved = conjugate_class_by(cur, tau)
                if moved.class_id not in group:
                    group.add(moved.class_id)
                    frontier.append(moved)
        seen |= group
        ordered = tuple(sorted(group, key=lambda cid: index[cid].sort_key()))
        merged.append((index[ordered[0]], ordered))
    return tuple(merged)
