"""Chevalley structure constants and pinned lifts of diagram automorphisms.

Roots are root indices (weyl.root_index), and the decompositions
gamma = alpha + beta of a positive root are the positive pairs of
RootIndex.sums, smallest alpha first.  Signs of the constants N(a, b) are
fixed by declaring the constant of the first pair, the extraspecial pair,
positive.  Every other constant follows from the standard relations among
constants of four roots summing to zero and of three roots summing to zero.
Magnitudes are p + 1 where p is the length of the descending root string.
Root strings (RootIndex.string), root differences, norms and theta0 are
read from root keys (rootdata.root_key), and the relations are solved in
exact integers.

A diagram automorphism theta0 lifts to the algebra fixing the simple root
vectors; on the remaining root vectors it acts by signs c(a).  PinnedSigns
holds theta0 as a root-index permutation, the mask of the theta0-fixed
(imaginary) roots and the mask of those with c = -1, which the involution
enumeration and classification read.  All three are read from the Dynkin
diagram, with no structure constants: on a fixed root c is -1 exactly when
its support holds a node that theta0 swaps with an adjacent node (Kac,
Infinite-Dimensional Lie Algebras, ch. 8).  PinnedSigns.signs, c on every
root, is the checked inductive recursion over the structure constants,
run on first read.  PinnedSigns also decides theta0's clause of the
generic-character test at a chamber (PinnedSigns.complex_wall_blocks),
which every grading of theta0 shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import add
from typing import Iterable

from .rootdata import DiagramAutomorphism, RootSystem, Vector, root_key
from .weyl import RootIndex, root_index


class ChevalleyError(ArithmeticError):
    """A relation among the structure constants or the pinned signs failed."""


def _positive_pairs(ri: RootIndex, gamma: int) -> list[list[int]]:
    """Index pairs [a, b], a < b, of positive roots with root_a + root_b = root_gamma,
    smallest a first as ri.sums lists them: the first is the extraspecial pair."""
    limit = 1 << ri.npos
    return [ri.indices(pair) for pair in ri.sums[gamma] if pair < limit]


def root_norms(rs: RootSystem, ri: RootIndex) -> tuple[int, ...]:
    """Squared length of every root, by root index.

    alpha_i has norm 2 d_i.  A positive root beta of height > 1 pairs
    positively with some alpha_i, and s_i beta is a lower positive root of
    the same norm, since norms are W-invariant; -beta has the norm of beta.
    """
    norms = [0] * ri.npos
    for k, d in zip(ri.simple, rs.lengths):
        norms[k] = 2 * d
    for k, pairings in enumerate(rs.pairings):
        if not norms[k]:
            lower = ri.reflections[pairings.index(max(pairings))][k]
            if not norms[lower]:
                raise ChevalleyError(f"no lower reflection of {rs.roots[k]} has a norm yet")
            norms[k] = norms[lower]
    return tuple(norms) * 2


class StructureConstants:
    """N(a, b) for every pair of roots with a + b a root.

    Roots are root indices (weyl.root_index).  pos[(a, b)] is N(a, b) for
    positive a, b, and norms[k] is the squared length of root k.  The
    difference x - y of two roots is read by key, ri.at.get(key[x] - key[y]);
    every difference a relation asks for lies below the root being solved,
    so its constants are already in pos.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.ri = root_index(rs)
        self.pos: dict[tuple[int, int], int] = {}
        self.norms = root_norms(rs, self.ri)
        self._build()

    def _build(self) -> None:
        ri, roots = self.ri, self.rs.roots
        key, string = ri.key, ri.string
        for gamma in range(ri.npos):
            pairs = _positive_pairs(ri, gamma)
            if not pairs:
                continue
            (mu, nu), *others = pairs
            if sum(roots[mu]) != 1:
                raise ChevalleyError(f"smallest summand of {roots[gamma]} is not simple")
            self._store(mu, nu, string(key[mu], key[nu]) + 1)
            for alpha, beta in others:
                value = self._from_four_term(mu, nu, alpha, beta, gamma)
                expect = string(key[alpha], key[beta]) + 1
                if abs(value) != expect:
                    raise ChevalleyError(
                        f"constant for {roots[alpha]}+{roots[beta]} is {value}, string gives {expect}"
                    )
                self._store(alpha, beta, value)

    def _store(self, a: int, b: int, value: int) -> None:
        """Record N(a, b) = value for positive a, b with a + b a root."""
        self.pos[(a, b)] = value
        self.pos[(b, a)] = -value

    def _from_four_term(self, mu: int, nu: int, alpha: int, beta: int, gamma: int) -> int:
        # For four roots (mu, nu, -alpha, -beta) summing to zero with no two
        # opposite, the pairwise constants satisfy a three-term relation in
        # which each product is weighted by the norm of its pair sum; the
        # weights only cancel when all root lengths agree.  The constant is
        # |gamma|^2 (t1 - t2) / N(mu, nu) with t = num / den.
        num1, den1 = self._weighted(nu, alpha, mu, beta)
        num2, den2 = self._weighted(mu, alpha, nu, beta)
        top = self.norms[gamma] * (num1 * den2 - num2 * den1)
        value, r = divmod(top, den1 * den2 * self.pos[(mu, nu)])
        if r:
            raise ChevalleyError("four-term relation gave a non-integral constant")
        return value

    def _weighted(self, x: int, y: int, u: int, v: int) -> tuple[int, int]:
        """N(x, -y) N(u, -v) / |x - y|^2 for x - y = v - u, as (numerator,
        denominator); 0 when x - y is no root."""
        key = self.ri.key
        delta = self.ri.at.get(key[x] - key[y])
        if delta is None:
            return 0, 1
        return self._mixed(x, y) * self._mixed(u, v), self.norms[delta]

    def _mixed(self, xi: int, eta: int) -> int:
        """N(xi, -eta) for positive xi, eta with xi != eta."""
        key = self.ri.key
        delta = self.ri.at.get(key[xi] - key[eta])
        if delta is None:
            return 0
        norms = self.norms
        if delta < self.ri.npos:  # xi = eta + delta
            value = -norms[delta] * self.pos[(eta, delta)]
            den = norms[xi]
        else:  # eta = xi + (-delta)
            value = norms[delta] * self.pos[(delta - self.ri.npos, xi)]
            den = norms[eta]
        q, r = divmod(value, den)
        if r:
            raise ChevalleyError("string relation gave a non-integral constant")
        return q

    def n(self, a: Vector, b: Vector) -> int:
        """N(a, b) for roots a, b with a + b a root."""
        index = self.ri.index
        if a not in index or b not in index or not self.rs.is_root(tuple(map(add, a, b))):
            raise ChevalleyError(f"{a} and {b} are not two roots whose sum is a root")
        npos = self.ri.npos
        i, j = index[a], index[b]
        if i < npos and j < npos:
            return self.pos[(i, j)]
        if i >= npos and j >= npos:
            return -self.pos[(i - npos, j - npos)]
        if i < npos:
            return self._mixed(i, j - npos)
        return -self._mixed(j, i - npos)


@lru_cache(maxsize=None)
def structure_constants(rs: RootSystem) -> StructureConstants:
    return StructureConstants(rs)


@dataclass(frozen=True)
class PinnedSigns:
    """theta0 and the signs c with theta(X_a) = c(a) X_{theta0 a} for the pinned lift.

    theta[k] is the root index of theta0(root_k), imaginary is the mask of
    the theta0-fixed roots and minus the mask of those among them with
    c = -1, all three read from the diagram.  c on a fixed root space does
    not depend on how the other root vectors are normalized: it is -1
    exactly on the fixed roots whose support holds a node that theta0
    swaps with an adjacent node (Kac, Infinite-Dimensional Lie Algebras,
    ch. 8, the A_2n exception).  That happens only at the middle pair of
    an A_2n component that theta0 flips, whose coefficients are 0 or 1.

    signs[k] is c(root_k) on every root, c(-a) = c(a): the checked
    recursion over the structure constants, run on first read.  c is +1 on
    simple roots, and on everything when theta0 is the identity, which
    skips the structure constants.
    """

    rs: RootSystem
    aut: DiagramAutomorphism
    theta: tuple[int, ...] = field(compare=False)
    imaginary: int = field(compare=False)
    minus: int = field(compare=False)

    @cached_property
    def signs(self) -> tuple[int, ...]:
        """c(a) for all roots, by induction on height, checking consistency throughout.

        c(gamma) = c(mu) c(nu) N(theta0 mu, theta0 nu) / N(mu, nu) for the
        extraspecial pair gamma = mu + nu, and the same identity is checked
        for every other decomposition.  Also checks c(a) c(theta0 a) = 1,
        which makes the lift an involution when theta0 is.
        """
        rs, theta = self.rs, self.theta
        if self.aut.is_identity:
            return (1,) * len(rs.roots)
        ri = root_index(rs)
        n = structure_constants(rs).pos
        signs = [1] * ri.npos
        for gamma in range(ri.npos):
            value = None
            for alpha, beta in _positive_pairs(ri, gamma):
                top = signs[alpha] * signs[beta] * n[(theta[alpha], theta[beta])]
                q, r = divmod(top, n[(alpha, beta)])
                if r or q not in (1, -1):
                    raise ChevalleyError(f"sign at {rs.roots[gamma]} is not a unit")
                if value is None:
                    value = q
                elif value != q:
                    raise ChevalleyError(f"sign at {rs.roots[gamma]} depends on the decomposition")
            if value is not None:
                signs[gamma] = value
        if self.aut.order <= 2:
            for gamma in range(ri.npos):
                if signs[gamma] * signs[theta[gamma]] != 1:
                    raise ChevalleyError(f"pinned lift fails to square to one at {rs.roots[gamma]}")
        return tuple(signs) * 2

    @cached_property
    def theta_table(self) -> bytes:
        """theta as a bytes.translate table: theta followed by range(n, 256)."""
        return bytes(self.theta) + bytes(range(len(self.theta), 256))

    def theta_mask(self, indices: Iterable[int]) -> int:
        """Bitmask of theta0 applied to the given root indices."""
        return root_index(self.rs).mask(map(self.theta.__getitem__, indices))

    def complex_wall_blocks(self, walls: bytes, positive: bytes) -> bool:
        """Whether the theta0-partner of some wall is w-positive but not a wall.

        The theta0 clause of the generic-character test
        (classify.IndexedGrading.admits_generic), shared by every grading of
        theta0.  walls are a chamber's walls and positive its w-positive
        roots, the entries img[:npos] of its image, both as bytes: the
        partners that are no wall are the walls through theta_table with the
        walls deleted, and one of them is w-positive when deleting them
        shortens positive.  It is False when theta0 is inner.
        """
        loose = walls.translate(self.theta_table).translate(None, walls)
        return bool(loose) and len(positive.translate(None, loose)) < len(positive)


@lru_cache(maxsize=None)
def pinned_signs(rs: RootSystem, aut: DiagramAutomorphism) -> PinnedSigns:
    """theta0 on root indices, its fixed roots and the fixed roots with c = -1.

    Nothing here builds structure constants: the signs on every root are
    PinnedSigns.signs, computed when first read.
    """
    n = len(rs.roots)
    if aut.is_identity:
        return PinnedSigns(rs, aut, tuple(range(n)), (1 << n) - 1, 0)
    ri = root_index(rs)
    # theta0 moves coefficient i to node perm[i], so unit i to unit perm[i]
    moved = tuple(ri.units[j - 1] for j in aut.perm)
    theta = tuple(ri.at[root_key(v, moved)] for v in rs.positive_roots)
    theta += tuple(k + ri.npos for k in theta)
    imaginary = ri.mask(k for k in range(ri.npos) if theta[k] == k)
    imaginary |= imaginary << ri.npos
    # adjacent swapped nodes lie in a flipped A_2n, where odd means nonzero
    odd = 0
    for i, j in enumerate(aut.perm, 1):
        if j != i and rs.adjacent(i, j):
            odd |= ri.odd_masks[i - 1]
    return PinnedSigns(rs, aut, theta, imaginary, imaginary & odd)
