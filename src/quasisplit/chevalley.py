"""Chevalley structure constants and pinned lifts of diagram automorphisms.

Signs of the constants N(a, b) are fixed by choosing, for each positive
non-simple root, the decomposition with the smallest first summand and
declaring its constant positive.  Every other constant follows from the
standard relations among constants of four roots summing to zero and of
three roots summing to zero.  Magnitudes are p + 1 where p is the length of
the descending root string.

A diagram automorphism lifts to the algebra fixing the simple root vectors;
on the remaining root vectors it acts by signs c(a) computed inductively.
Those signs are what the involution enumeration consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .rootdata import DiagramAutomorphism, RootSystem, Vector


class ChevalleyError(ArithmeticError):
    """A relation among the structure constants or the pinned signs failed."""


def _add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def root_order_key(v: Vector) -> tuple[int, Vector]:
    return (sum(v), v)


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
    """N(a, b) for every pair of roots with a + b a root."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._pos: dict[tuple[Vector, Vector], int] = {}
        self._extraspecial: dict[Vector, tuple[Vector, Vector]] = {}
        self._build()

    def _build(self) -> None:
        rs = self.rs
        positives = sorted(rs.positive_roots, key=root_order_key)
        pos_set = set(positives)
        for gamma in positives:
            if sum(gamma) == 1:
                continue
            summands = [a for a in positives if sum(a) < sum(gamma) and _sub(gamma, a) in pos_set]
            summands.sort(key=root_order_key)
            mu = summands[0]
            nu = _sub(gamma, mu)
            if sum(mu) != 1:
                raise ChevalleyError(f"smallest summand of {gamma} is not simple")
            self._extraspecial[gamma] = (mu, nu)
            p = down_string_length(rs, mu, nu)
            self._store(mu, nu, p + 1)
            for alpha in summands:
                beta = _sub(gamma, alpha)
                if (alpha, beta) == (mu, nu) or root_order_key(alpha) > root_order_key(beta):
                    continue
                value = self._from_four_term(mu, nu, alpha, beta)
                expect = down_string_length(rs, alpha, beta) + 1
                if abs(value) != expect:
                    raise ChevalleyError(
                        f"constant for {alpha}+{beta} has magnitude {abs(value)}, string gives {expect}"
                    )
                self._store(alpha, beta, value)

    def _store(self, a: Vector, b: Vector, value: int) -> None:
        self._pos[(a, b)] = value
        self._pos[(b, a)] = -value

    def _from_four_term(self, mu: Vector, nu: Vector, alpha: Vector, beta: Vector) -> int:
        # For four roots (mu, nu, -alpha, -beta) summing to zero with no two
        # opposite, the pairwise constants satisfy a three-term relation in
        # which each product is weighted by the norm of its pair sum; the
        # weights only cancel when all root lengths agree.
        rs = self.rs
        t1 = Fraction(self._mixed(nu, alpha) * self._mixed(mu, beta), rs.norm(_sub(nu, alpha)))
        t2 = Fraction(self._mixed(mu, alpha) * self._mixed(nu, beta), rs.norm(_sub(mu, alpha)))
        value = rs.norm(_add(mu, nu)) * (t1 - t2) / self._pos[(mu, nu)]
        if value.denominator != 1:
            raise ChevalleyError("four-term relation gave a non-integral constant")
        return int(value)

    def _mixed(self, xi: Vector, eta: Vector) -> int:
        """N(xi, -eta) for positive xi, eta with xi != eta."""
        rs = self.rs
        delta = _sub(xi, eta)
        if not rs.is_root(delta):
            return 0
        if sum(delta) > 0:
            value = -rs.norm(delta) * self._pos[(eta, delta)]
            den = rs.norm(xi)
        else:
            delta = _neg(delta)
            value = rs.norm(delta) * self._pos[(delta, xi)]
            den = rs.norm(eta)
        q, r = divmod(value, den)
        if r:
            raise ChevalleyError("string relation gave a non-integral constant")
        return q

    def extraspecial_pair(self, gamma: Vector) -> tuple[Vector, Vector]:
        return self._extraspecial[gamma]

    def n(self, a: Vector, b: Vector) -> int:
        """N(a, b) for roots a, b with a + b a root."""
        s = _add(a, b)
        if not self.rs.is_root(s):
            raise ChevalleyError(f"{a} + {b} is not a root")
        apos = sum(a) > 0
        bpos = sum(b) > 0
        if apos and bpos:
            return self._pos[(a, b)]
        if not apos and not bpos:
            return -self._pos[(_neg(a), _neg(b))]
        if apos:
            return self._mixed(a, _neg(b))
        return -self._mixed(b, _neg(a))

    def bracket(self, x: dict, y: dict) -> dict:
        """Bracket of algebra elements in the basis {("root", a)} u {("coroot", i)}.

        Coroot entries are 0-based simple coroot coefficients.  Used by the
        verification layer; exact integer arithmetic throughout.
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
    """Signs c with theta(X_a) = c(a) X_{theta0 a} for the pinned lift.

    c is +1 on simple roots and on everything when theta0 is the identity.
    The identity case skips the structure constants entirely.
    """

    rs: RootSystem
    aut: DiagramAutomorphism
    _signs: dict = field(compare=False, hash=False)

    def c(self, a: Vector) -> int:
        if sum(a) < 0:
            a = _neg(a)
        if not self._signs:
            return 1
        return self._signs[a]


@lru_cache(maxsize=None)
def pinned_signs(rs: RootSystem, aut: DiagramAutomorphism) -> PinnedSigns:
    """Compute c(a) for all positive roots, checking consistency throughout.

    Induction on height: c(gamma) = c(mu) c(nu) N(theta0 mu, theta0 nu) / N(mu, nu)
    for the chosen decomposition gamma = mu + nu, and the same identity is
    checked for every other decomposition.  Also checks c(a) c(theta0 a) = 1,
    which makes the lift an involution when theta0 is.
    """
    if aut.is_identity:
        return PinnedSigns(rs, aut, {})
    nc = structure_constants(rs)
    signs: dict[Vector, int] = {}
    positives = sorted(rs.positive_roots, key=root_order_key)
    pos_set = set(positives)
    for gamma in positives:
        if sum(gamma) == 1:
            signs[gamma] = 1
            continue
        value = None
        for alpha in positives:
            if sum(alpha) >= sum(gamma):
                break
            beta = _sub(gamma, alpha)
            if beta not in pos_set or root_order_key(alpha) > root_order_key(beta):
                continue
            ratio_num = signs[alpha] * signs[beta] * nc.n(aut.on_root(alpha), aut.on_root(beta))
            base = nc.n(alpha, beta)
            q, r = divmod(ratio_num, base)
            if r or q not in (1, -1):
                raise ChevalleyError(f"sign at {gamma} is not a unit")
            if value is None:
                value = q
            elif value != q:
                raise ChevalleyError(f"sign at {gamma} depends on the decomposition")
        signs[gamma] = value
    if aut.order <= 2:
        for gamma in positives:
            if signs[gamma] * signs[aut.on_root(gamma)] != 1:
                raise ChevalleyError(f"pinned lift fails to square to one at {gamma}")
    return PinnedSigns(rs, aut, signs)
