"""Weyl group machinery: chambers, orbits, and folded subgroups.

The roots of a root system are numbered once (root_index), and each simple
reflection becomes a permutation of those numbers.  A group element w is a
chamber: the bytes of the indices of w(root_k) over all roots k.  The
generators build chambers by left multiplication: the image of s_i w is the
image of w passed through a 256-byte table of s_i (bytes.translate), so
chambers exist for at most 256 roots.  The sets a chamber decides, its walls
and its w-positive roots, are int bitmasks.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from math import isqrt
from operator import add, itemgetter
from random import Random
from typing import Callable, Iterable, Sequence

from .rootdata import RootSystem, Vector

# Exhaustive chamber enumeration is kept under this bound, the order of W(E6),
# the largest group a sweep enumerates; larger groups are sampled.
EXHAUSTIVE_WEYL_BOUND = 51_840
# A byte table numbers at most 256 roots: every simple type of rank <= 11
# and E8 (240 roots) fit, D12 (264 roots) does not.
MAX_TABLE_ROOTS = 256


def reflect(rs: RootSystem, i: int, v: Vector) -> Vector:
    """Simple reflection s_i (1-based) acting on a vector in root coordinates."""
    out = list(v)
    out[i - 1] -= rs.pairing(v, i)
    return tuple(out)


class WeylError(ValueError):
    """A chamber request this module refuses, or a broken internal invariant."""


def _tuple_getter(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """itemgetter that returns a tuple for any number of indices."""
    if len(indices) == 1:
        (k,) = indices
        return lambda seq: (seq[k],)
    if not indices:
        return lambda seq: ()
    return itemgetter(*indices)


class RootIndex:
    """The roots of one root system, numbered by their position in rs.roots.

    reflections[i - 1][k] is the index of s_i(root_k), simple[j] the index of
    alpha_{j+1}; the positive roots are the indices below npos.  A set of
    roots is an int bitmask with bit k for root k.  tables holds the same
    reflections as bytes.translate tables, built on first use; every chamber
    starts at identity_chamber, which refuses more than MAX_TABLE_ROOTS roots.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.index = {v: k for k, v in enumerate(rs.roots)}
        self.npos = len(rs.roots) // 2
        self.simple = tuple(self.index[a] for a in rs.simple_roots)
        self.reflections = tuple(
            tuple(self.index[reflect(rs, i, v)] for v in rs.roots) for i in range(1, rs.rank + 1)
        )
        self.bits = tuple(1 << k for k in range(len(rs.roots)))
        self.walls_of = _tuple_getter(self.simple)

    @cached_property
    def tables(self) -> tuple[bytes, ...]:
        """tables[i - 1]: reflections[i - 1] followed by range(n, 256).

        For a chamber w whose image is held as bytes img,
        img.translate(tables[i - 1]) is the image of s_i w.
        """
        tail = bytes(range(len(self.rs.roots), 256))
        return tuple(bytes(perm) + tail for perm in self.reflections)

    def mask(self, indices: Iterable[int]) -> int:
        """Bitmask of distinct root indices."""
        return sum(map(self.bits.__getitem__, indices))

    @staticmethod
    def indices(mask: int) -> list[int]:
        """Root indices of the bits set in mask, in increasing order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    @cached_property
    def sums(self) -> tuple[tuple[int, ...], ...]:
        """sums[k]: the masks of the root pairs {g, d} with root_g + root_d = root_k.

        Built from the positive triples a + b = c.  Each gives six relations,
        a + b = c, c - a = b, c - b = a and their negatives, and every
        relation among three roots is one of these.  The negative of root k
        is root k + npos.
        """
        roots, npos, bits = self.rs.roots, self.npos, self.bits
        out: list[list[int]] = [[] for _ in roots]
        for a in range(npos):
            alpha = roots[a]
            for b in range(a + 1, npos):
                c = self.index.get(tuple(map(add, alpha, roots[b])))
                if c is None:
                    continue
                na, nb, nc = a + npos, b + npos, c + npos
                out[c].append(bits[a] | bits[b])
                out[b].append(bits[c] | bits[na])
                out[a].append(bits[c] | bits[nb])
                out[nc].append(bits[na] | bits[nb])
                out[nb].append(bits[nc] | bits[a])
                out[na].append(bits[nc] | bits[b])
        return tuple(map(tuple, out))

    def simples(self, members: int) -> list[int]:
        """Indices of the members that are not the sum of two members: the
        simple roots of a positive system given as a mask."""
        sums = self.sums
        return [
            k for k in self.indices(members)
            if not any(members & pair == pair for pair in sums[k])
        ]


@lru_cache(maxsize=None)
def root_index(rs: RootSystem) -> RootIndex:
    return RootIndex(rs)


class Chamber:
    """A Weyl group element w, stored as a permutation of root indices.

    img[k] is the index of w(root_k), held as bytes.  The walls w(alpha_j)
    are the entries at the simple indices, and the w-positive roots
    w(positive roots) are the entries img[:npos].  word is the bytes of one
    reduced-or-not expression, used only for bookkeeping.
    """

    __slots__ = ("ri", "word", "img", "_wall_mask", "_positive_mask")

    def __init__(self, ri: RootIndex, word: bytes, img: bytes):
        self.ri = ri
        self.word = word
        self.img = img
        self._wall_mask = self._positive_mask = None

    def __repr__(self) -> str:
        return f"Chamber(word={tuple(self.word)})"

    @property
    def rs(self) -> RootSystem:
        return self.ri.rs

    @property
    def walls(self) -> tuple[int, ...]:
        """Root indices of w(alpha_1), ..., w(alpha_rank)."""
        return self.ri.walls_of(self.img)

    @property
    def wall_mask(self) -> int:
        if self._wall_mask is None:
            self._wall_mask = self.ri.mask(self.walls)
        return self._wall_mask

    @property
    def positive_mask(self) -> int:
        """Bitmask of w(positive roots), the roots beta with w^{-1} beta > 0."""
        if self._positive_mask is None:
            self._positive_mask = self.ri.mask(self.img[: self.ri.npos])
        return self._positive_mask

    @property
    def images(self) -> tuple[Vector, ...]:
        """w(alpha_j) in simple-root coordinates."""
        return tuple(map(self.rs.roots.__getitem__, self.walls))

    def extend(self, i: int) -> "Chamber":
        """Right multiplication by s_i: w -> w s_i."""
        perm = self.ri.reflections[i - 1]
        return Chamber(self.ri, self.word + bytes((i,)), bytes(map(self.img.__getitem__, perm)))

    def w_positive_roots(self) -> frozenset[Vector]:
        return frozenset(map(self.rs.roots.__getitem__, self.img[: self.ri.npos]))


def identity_chamber(rs: RootSystem) -> Chamber:
    """The chamber of 1, where every chamber generator starts."""
    n = len(rs.roots)
    if n > MAX_TABLE_ROOTS:
        raise WeylError(f"{n} roots exceed the bound {MAX_TABLE_ROOTS} of the chamber tables")
    return Chamber(root_index(rs), b"", bytes(range(n)))


# A sweep needs one group at a time; a larger cache keeps every swept group
# (up to 51 840 chambers each) alive until the process ends.
@lru_cache(maxsize=1)
def all_chambers(rs: RootSystem) -> tuple[Chamber, ...]:
    """Every Weyl group element, breadth-first by length on left multiplication.

    Each v other than 1 is reached once, as s_d w from w = s_d v with s_d
    the first left descent of v, so no set of visited elements is kept and
    each word is the lexicographically first reduced word of its element.
    Images and words are kept as the bytes the tables compute.
    """
    start = identity_chamber(rs)
    ri = start.ri
    order = rs.weyl_group_order()
    if order > EXHAUSTIVE_WEYL_BOUND:
        raise WeylError(f"exhaustive enumeration of {order} chambers refused")
    npos = ri.npos
    # s_i w is one longer than w when alpha_i lies in w(positive roots), and
    # has no left descent s_j with j < i when each s_i(alpha_j) lies there
    # too.  needed holds the indices of those roots; all of them lie in the
    # positive image when deleting them from it leaves rest indices.
    steps = []
    for i, (table, perm) in enumerate(zip(ri.tables, ri.reflections), 1):
        needed = bytes([ri.simple[i - 1], *(perm[k] for k in ri.simple[: i - 1])])
        steps.append((bytes((i,)), table, needed, npos - len(needed)))
    found = [start]
    for ch in found:  # read as it grows, so layer by layer
        positive = ch.img[:npos]
        for letter, table, needed, rest in steps:
            if len(positive.translate(None, needed)) == rest:
                found.append(Chamber(ri, letter + ch.word, ch.img.translate(table)))
    if len(found) != order:
        raise WeylError(f"chamber count {len(found)} != {order}")
    return tuple(found)


def random_chambers(rs: RootSystem, count: int, seed: int) -> list[Chamber]:
    """Chambers from seeded random words; deterministic for fixed arguments.

    Word length is a few times the number of positive roots so the sample
    spreads across the group.  Duplicates are kept; callers want coverage,
    not uniformity.

    The letters are those of Random(seed).randrange(1, rank + 1), one call
    per letter, drawn in bulk.  randrange keeps the top k = rank.bit_length()
    bits of the next 32-bit Mersenne Twister output and draws again while
    they are >= rank; getrandbits(32 * m) is the next m outputs, least
    significant first.  Nothing else draws from this generator, so drawing
    past the last letter changes nothing.
    """
    start = identity_chamber(rs)
    ri = start.ri
    steps = (None, *ri.tables)  # indexed by letter
    rank = rs.rank
    length = max(4, 4 * ri.npos)
    need = count * length
    if need and not rank:
        raise WeylError("no simple reflection to draw letters from")
    k = rank.bit_length()
    shift = 8 - k
    # the top byte of an output gives its letter, or is deleted as a rejection
    letter_of = bytes((b >> shift) + 1 if b >> shift < rank else 0 for b in range(256))
    rejected = bytes(b for b in range(256) if b >> shift >= rank)
    rng = Random(seed)
    letters = b""
    while len(letters) < need:
        missing = need - len(letters)
        # the outputs the missing letters take on average, plus a margin of
        # sqrt(missing); a short draw is topped up by the next one
        m = (missing << k) // rank + isqrt(missing) + 1
        data = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        letters += data[3::4].translate(letter_of, rejected)
    out = []
    for at in range(0, need, length):
        word = letters[at : at + length]
        # s_{word[0]} ... s_{word[-1]}: the rightmost letter acts first
        img = reduce(bytes.translate, map(steps.__getitem__, reversed(word)), start.img)
        out.append(Chamber(ri, word, img))
    return out


def orbit_partition(bits: int, generators: Sequence[tuple[int, list[tuple[int, int]]]]) -> list[list[int]]:
    """Orbits on the bit vectors range(2**bits) of GF(2)-affine maps.

    A generator (flip, columns) sends s to flip ^ A s, where A is the
    identity plus the listed columns: s ^ delta for each (bit, delta) pair
    with s & bit.  Orbits come in order of their smallest member, which is
    listed first.
    """
    seen = bytearray(1 << bits)
    orbits = []
    for start in range(1 << bits):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for s in orbit:
            for flip, columns in generators:
                t = flip ^ s
                for bit, delta in columns:
                    if s & bit:
                        t ^= delta
                if not seen[t]:
                    seen[t] = 1
                    orbit.append(t)
        orbits.append(orbit)
    return orbits


def folded_generators(rs: RootSystem, perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Generators (as words) of the subgroup commuting with a diagram automorphism.

    For each node orbit of the automorphism: a fixed node i gives s_i; a
    swapped non-adjacent pair {i, j} gives s_i s_j; a swapped adjacent pair
    gives s_i s_j s_i.  Orbits of size > 2 (triality) are rejected; the
    involution enumeration never needs them.
    """
    words = []
    seen = set()
    for i in range(1, rs.rank + 1):
        if i in seen:
            continue
        j = perm[i - 1]
        if j == i:
            seen.add(i)
            words.append((i,))
        else:
            if perm[j - 1] != i:
                raise WeylError(f"automorphism {tuple(perm)} is not an involution on nodes")
            seen.update((i, j))
            if rs.adjacent(i, j):
                words.append((i, j, i))
            else:
                words.append((i, j))
    return tuple(words)
