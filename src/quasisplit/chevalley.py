"""Chevalley structure constants and pinned lifts of diagram automorphisms.

Roots are root indices (weyl.root_index), and the decompositions
gamma = alpha + beta of a positive root are the positive pairs of
RootIndex.sums, smallest alpha first.  Signs of the constants N(a, b) are
fixed by declaring the constant of the first pair, the extraspecial pair,
positive.  Every other constant follows from the standard relations among
constants of four roots summing to zero and of three roots summing to zero.
Magnitudes are p + 1 where p is the length of the descending root string.

A diagram automorphism theta0 lifts to the algebra fixing the simple root
vectors; on the remaining root vectors it acts by signs c(a) computed
inductively.  PinnedSigns holds theta0 as a root-index permutation and c
per root index, which the involution enumeration and classification read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .rootdata import DiagramAutomorphism, RootSystem, Vector
from .weyl import RootIndex, root_index


class ChevalleyError(ArithmeticError):
    """A relation among the structure constants or the pinned signs failed."""


def _add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def _positive_pairs(ri: RootIndex, gamma: int) -> list[list[int]]:
    """Index pairs [a, b], a < b, of positive roots with root_a + root_b = root_gamma,
    smallest a first as ri.sums lists them: the first is the extraspecial pair."""
    limit = 1 << ri.npos
    return [ri.indices(pair) for pair in ri.sums[gamma] if pair < limit]


def down_string_length(rs: RootSystem, a: Vector, through: Vector) -> int:
    """Number of steps k >= 1 with through - k*a still a root."""
    p = 0
    cur = through
    while True:
        cur = _sub(cur, a)
        if not rs.is_root(cur):
            return p
        p += 1


def coroot_coefficients(rs: RootSystem, a: Vector) -> Vector:
    """a^vee in the simple coroot basis: coefficient i is (d_i / d_a) * a_i.

    Always integral because long-root lengths divide evenly along strings.
    """
    da2 = rs.norm(a)
    out = []
    for i in range(rs.rank):
        num = a[i] * 2 * rs.lengths[i]
        q, r = divmod(num, da2)
        if r:
            raise ChevalleyError(f"coroot of {a} not integral")
        out.append(q)
    return tuple(out)


class StructureConstants:
    """N(a, b) for every pair of roots with a + b a root.

    Roots are root indices (weyl.root_index).  pos[(a, b)] is N(a, b) for
    positive a, b; _diff[(x, y)] is the index of x - y for positive x, y
    when that is a root; _norm[k] is the squared length of root k.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.ri = root_index(rs)
        self.pos: dict[tuple[int, int], int] = {}
        self._diff: dict[tuple[int, int], int] = {}
        self._norm = tuple(map(rs.norm, rs.roots))
        self._build()

    def _build(self) -> None:
        rs = self.rs
        roots = rs.roots
        for gamma in range(self.ri.npos):
            pairs = _positive_pairs(self.ri, gamma)
            if not pairs:
                continue
            (mu, nu), *others = pairs
            if sum(roots[mu]) != 1:
                raise ChevalleyError(f"smallest summand of {roots[gamma]} is not simple")
            self._store(mu, nu, gamma, down_string_length(rs, roots[mu], roots[nu]) + 1)
            for alpha, beta in others:
                value = self._from_four_term(mu, nu, alpha, beta, gamma)
                expect = down_string_length(rs, roots[alpha], roots[beta]) + 1
                if abs(value) != expect:
                    raise ChevalleyError(
                        f"constant for {roots[alpha]}+{roots[beta]} is {value}, string gives {expect}"
                    )
                self._store(alpha, beta, gamma, value)

    def _store(self, a: int, b: int, gamma: int, value: int) -> None:
        """Record N(a, b) = value for positive a + b = gamma."""
        npos = self.ri.npos
        self.pos[(a, b)] = value
        self.pos[(b, a)] = -value
        self._diff[(gamma, a)] = b
        self._diff[(gamma, b)] = a
        self._diff[(a, gamma)] = b + npos
        self._diff[(b, gamma)] = a + npos

    def _from_four_term(self, mu: int, nu: int, alpha: int, beta: int, gamma: int) -> int:
        # For four roots (mu, nu, -alpha, -beta) summing to zero with no two
        # opposite, the pairwise constants satisfy a three-term relation in
        # which each product is weighted by the norm of its pair sum; the
        # weights only cancel when all root lengths agree.
        t1 = self._weighted(nu, alpha, mu, beta)
        t2 = self._weighted(mu, alpha, nu, beta)
        value = self._norm[gamma] * (t1 - t2) / self.pos[(mu, nu)]
        if value.denominator != 1:
            raise ChevalleyError("four-term relation gave a non-integral constant")
        return int(value)

    def _weighted(self, x: int, y: int, u: int, v: int) -> Fraction:
        """N(x, -y) N(u, -v) / |x - y|^2 for x - y = v - u; 0 when x - y is no root."""
        delta = self._diff.get((x, y))
        if delta is None:
            return Fraction(0)
        return Fraction(self._mixed(x, y) * self._mixed(u, v), self._norm[delta])

    def _mixed(self, xi: int, eta: int) -> int:
        """N(xi, -eta) for positive xi, eta with xi != eta."""
        delta = self._diff.get((xi, eta))
        if delta is None:
            return 0
        norm = self._norm
        if delta < self.ri.npos:  # xi = eta + delta
            value = -norm[delta] * self.pos[(eta, delta)]
            den = norm[xi]
        else:  # eta = xi + (-delta)
            value = norm[delta] * self.pos[(delta - self.ri.npos, xi)]
            den = norm[eta]
        q, r = divmod(value, den)
        if r:
            raise ChevalleyError("string relation gave a non-integral constant")
        return q

    def extraspecial_pair(self, gamma: Vector) -> tuple[Vector, Vector]:
        mu, nu = _positive_pairs(self.ri, self.ri.index[gamma])[0]
        return self.rs.roots[mu], self.rs.roots[nu]

    def n(self, a: Vector, b: Vector) -> int:
        """N(a, b) for roots a, b with a + b a root."""
        if not self.rs.is_root(_add(a, b)):
            raise ChevalleyError(f"{a} + {b} is not a root")
        npos = self.ri.npos
        i, j = self.ri.index[a], self.ri.index[b]
        if i < npos and j < npos:
            return self.pos[(i, j)]
        if i >= npos and j >= npos:
            return -self.pos[(i - npos, j - npos)]
        if i < npos:
            return self._mixed(i, j - npos)
        return -self._mixed(j, i - npos)

    def bracket(self, x: dict, y: dict) -> dict:
        """Bracket of algebra elements in the basis {("root", a)} u {("coroot", i)}.

        Coroot entries are 0-based simple coroot coefficients; exact integer
        arithmetic throughout.
        """
        rs = self.rs
        out: dict = {}

        def accumulate(key, value):
            if not value:
                return
            out[key] = out.get(key, 0) + value
            if not out[key]:
                del out[key]

        for kx, cx in x.items():
            for ky, cy in y.items():
                coeff = cx * cy
                if kx[0] == "coroot" and ky[0] == "coroot":
                    continue
                if kx[0] == "coroot":
                    i, b = kx[1], ky[1]
                    accumulate(ky, coeff * rs.pairing(b, i + 1))
                elif ky[0] == "coroot":
                    i, a = ky[1], kx[1]
                    accumulate(kx, -coeff * rs.pairing(a, i + 1))
                else:
                    a, b = kx[1], ky[1]
                    s = _add(a, b)
                    if s == tuple([0] * rs.rank):
                        for i, ci in enumerate(coroot_coefficients(rs, a)):
                            accumulate(("coroot", i), coeff * ci)
                    elif rs.is_root(s):
                        accumulate(("root", s), coeff * self.n(a, b))
        return out


@lru_cache(maxsize=None)
def structure_constants(rs: RootSystem) -> StructureConstants:
    return StructureConstants(rs)


@dataclass(frozen=True)
class PinnedSigns:
    """theta0 and the signs c with theta(X_a) = c(a) X_{theta0 a} for the pinned lift.

    theta[k] is the root index of theta0(root_k) and signs[k] is c(root_k);
    c(-a) = c(a).  c is +1 on simple roots and on everything when theta0 is
    the identity, and the identity case skips the structure constants.
    """

    rs: RootSystem
    aut: DiagramAutomorphism
    theta: tuple[int, ...] = field(compare=False)
    signs: tuple[int, ...] = field(compare=False)

    def c(self, a: Vector) -> int:
        return self.signs[root_index(self.rs).index[a]]


@lru_cache(maxsize=None)
def pinned_signs(rs: RootSystem, aut: DiagramAutomorphism) -> PinnedSigns:
    """Compute c(a) for all positive roots, checking consistency throughout.

    Induction on height: c(gamma) = c(mu) c(nu) N(theta0 mu, theta0 nu) / N(mu, nu)
    for the extraspecial pair gamma = mu + nu, and the same identity is
    checked for every other decomposition.  Also checks c(a) c(theta0 a) = 1,
    which makes the lift an involution when theta0 is.
    """
    ri = root_index(rs)
    theta = tuple(ri.index[aut.on_root(v)] for v in rs.roots)
    if aut.is_identity:
        return PinnedSigns(rs, aut, theta, (1,) * len(rs.roots))
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
    if aut.order <= 2:
        for gamma in range(ri.npos):
            if signs[gamma] * signs[theta[gamma]] != 1:
                raise ChevalleyError(f"pinned lift fails to square to one at {rs.roots[gamma]}")
    return PinnedSigns(rs, aut, theta, tuple(signs) * 2)
