"""Weyl group machinery: chambers, orbits, and folded subgroups.

The roots of a root system are numbered once (root_index) and found by
their packed-int keys (rootdata.root_key), and each simple reflection
becomes a permutation of those numbers, built by key arithmetic.  A group
element w is a chamber: the bytes of the indices of w(root_k) over all
roots k.  The generators build chambers by left multiplication: the image
of s_i w is the image of w passed through a 256-byte table of s_i
(bytes.translate), so chambers exist for at most 256 roots.  The whole
group is walked as a product of parabolic coset representatives: with
W_k = <s_1, ..., s_k>, every element of W_k is u v for one minimal left
coset representative u of W_{k-1} in W_k and one v in W_{k-1}, and the
image of u v is the image of v passed through the image of u.  A sampled
chamber is the product of a random word, composed two letters per
bytes.translate through the tables of the products s_a s_b.  The sets a
chamber decides, its walls and its w-positive roots, are int bitmasks.
"""

from __future__ import annotations

import sys
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, combinations, compress, repeat, starmap
from math import isqrt
from operator import add, itemgetter, neg, or_, sub
from random import Random
from typing import Callable, Iterable, Iterator, Sequence

from .rootdata import KEY_COEFFICIENT_BOUND, RootSystem, Vector, key_units, root_key

# all_chambers keeps every chamber of a group in memory, so it is kept under
# this bound, the order of W(E6).  The imaginary-signs sweep enumerates groups
# up to the same bound and samples larger ones; weyl_images and weyl_blocks
# stream a group of any order.
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

    key[k] is the key of root k (rootdata.root_key) and at maps each key back
    to its index; root k + npos is the negative of root k, and the positive
    roots are the indices below npos.  reflections[i - 1][k] is the index of
    s_i(root_k), simple[j] the index of alpha_{j+1}.  A set of roots is an
    int bitmask with bit k for root k.  tables holds the same reflections as
    bytes.translate tables, built on first use; every chamber starts at
    identity_chamber, which refuses more than MAX_TABLE_ROOTS roots.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        roots = rs.roots
        self.npos = npos = len(roots) // 2
        bound = KEY_COEFFICIENT_BOUND
        if roots and not -bound <= min(map(min, roots)) <= max(map(max, roots)) <= bound:
            raise WeylError(f"a root coefficient lies outside the key bound {bound}")
        self.units = units = key_units(rs.rank)
        self.key = keys = tuple(root_key(v, units) for v in roots)
        self.at = at = dict(zip(keys, range(len(keys))))
        if len(at) != len(keys) or keys[npos:] != tuple(map(neg, keys[:npos])):
            raise WeylError("the roots are not distinct positive roots followed by their negatives")
        if len(rs.pairings) != npos:
            raise WeylError(f"{len(rs.pairings)} coroot pairings for {npos} positive roots")
        try:
            self.simple = tuple(map(at.__getitem__, units))
            self.reflections = tuple(map(self._reflection, units, zip(*rs.pairings)))
        except KeyError:
            raise WeylError("the roots are not closed under the simple reflections") from None
        self.bits = tuple(1 << k for k in range(len(roots)))
        self.walls_of = _tuple_getter(self.simple)

    def _reflection(self, unit: int, pairings: Sequence[int]) -> tuple[int, ...]:
        """The simple reflection with the given key unit, as an index permutation.

        s_i(root_k) = root_k - <root_k, alpha_i^vee> alpha_i, so only the
        positive roots with a nonzero pairing move, and s_i(-root_k) is the
        negative of s_i(root_k).
        """
        keys, at, npos = self.key, self.at, self.npos
        perm = list(range(len(keys)))
        for k, pairing in enumerate(pairings):
            if pairing:
                j = at[keys[k] - pairing * unit]
                perm[k] = j
                perm[k + npos] = j + npos if j < npos else j - npos
        return tuple(perm)

    @cached_property
    def index(self) -> dict[Vector, int]:
        """The index of each root, by its coefficient vector."""
        return {v: k for k, v in enumerate(self.rs.roots)}

    @cached_property
    def odd_masks(self) -> tuple[int, ...]:
        """odd_masks[i - 1]: the mask of the roots with an odd coefficient at node i.

        Positive keys hold nonnegative fields, so the low bit of field i - 1
        (units[i - 1]) is the parity of the coefficient; -root_k has the odd
        nodes of root_k.
        """
        keys, npos = self.key[: self.npos], self.npos
        masks = []
        for unit in self.units:
            positive = self.mask(compress(range(npos), map(unit.__and__, keys)))
            masks.append(positive | positive << npos)
        return tuple(masks)

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
        keys, at, npos, bits = self.key, self.at, self.npos, self.bits
        out: list[list[int]] = [[] for _ in keys]
        # every pair a < b of positive roots is tried at C level; only the
        # pairs whose key sum is a root reach the loop body
        key_sums = starmap(add, combinations(keys[:npos], 2))
        for a, b in compress(combinations(range(npos), 2), map(at.__contains__, key_sums)):
            c = at[keys[a] + keys[b]]
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
        sums, outside = self.sums, ~members
        # a pair lies inside members when no bit of it is outside
        return [k for k in self.indices(members) if all(map(outside.__and__, sums[k]))]

    def string(self, step: int, key: int) -> int:
        """The number of k >= 1 with key - k * step a root key: the steps
        down the string of the root with key step through key.  A root
        string has at most four roots, so the walk stops by itself."""
        at, p = self.at, 0
        key -= step
        while key in at:
            p += 1
            key -= step
        return p

    def cartan(self, indices: Sequence[int]) -> list[list[int]]:
        """The Cartan matrix of the given roots, no two of them opposite.

        Entry [i][j] is <root_j, root_i^vee> = p - q, where the root_i-string
        through root_j runs from root_j - p root_i to root_j + q root_i
        (Humphreys, Introduction to Lie Algebras and Representation Theory,
        9.4), both walked by string.  Both strings of a pair are empty
        unless the sum or the difference of the pair is a root, so only
        those pairs are walked; the diagonal is 2.
        """
        has, string = self.at.__contains__, self.string
        chosen = list(map(self.key.__getitem__, indices))
        n = len(chosen)
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            out[i][i] = 2
        pairs = list(combinations(chosen, 2))
        joined = map(or_, map(has, starmap(add, pairs)), map(has, starmap(sub, pairs)))
        for i, j in compress(combinations(range(n), 2), joined):
            for row, col in ((i, j), (j, i)):
                step, key = chosen[row], chosen[col]
                out[row][col] = string(step, key) - string(-step, key)
        return out


@lru_cache(maxsize=None)
def root_index(rs: RootSystem) -> RootIndex:
    return RootIndex(rs)


class Chamber:
    """A Weyl group element w, stored as a permutation of root indices.

    img[k] is the index of w(root_k), held as bytes.  The walls w(alpha_j)
    are the entries at the simple indices, and the w-positive roots
    w(positive roots) are the entries img[:npos].  word is the bytes of one
    expression s_{word[0]} ... s_{word[-1]} of w, used only for bookkeeping:
    a sampled chamber keeps its drawn word, and a chamber made with word None
    derives its lexicographically first reduced word on first read.
    """

    __slots__ = ("ri", "_word", "img")

    def __init__(self, ri: RootIndex, word: bytes | None, img: bytes):
        self.ri = ri
        self._word = word
        self.img = img

    @property
    def word(self) -> bytes:
        if self._word is None:
            self._word = _first_reduced_word(self.ri, self.img)
        return self._word

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
        return self.ri.mask(self.walls)

    @property
    def positive_mask(self) -> int:
        """Bitmask of w(positive roots), the roots beta with w^{-1} beta > 0."""
        return self.ri.mask(self.img[: self.ri.npos])

    @property
    def images(self) -> tuple[Vector, ...]:
        """w(alpha_j) in simple-root coordinates."""
        return tuple(map(self.rs.roots.__getitem__, self.walls))

    def w_positive_roots(self) -> frozenset[Vector]:
        return frozenset(map(self.rs.roots.__getitem__, self.img[: self.ri.npos]))


def _identity_image(rs: RootSystem) -> bytes:
    """The image of 1; refuses more roots than a byte table holds."""
    n = len(rs.roots)
    if n > MAX_TABLE_ROOTS:
        raise WeylError(f"{n} roots exceed the bound {MAX_TABLE_ROOTS} of the chamber tables")
    return bytes(range(n))


def identity_chamber(rs: RootSystem) -> Chamber:
    """The chamber of 1, where every chamber generator starts."""
    return Chamber(root_index(rs), b"", _identity_image(rs))


def _first_reduced_word(ri: RootIndex, img: bytes) -> bytes:
    """The lexicographically first reduced word of the element with image img.

    Its first letter is the smallest left descent i of w, the first simple
    root alpha_i in w(negative roots) = img[npos:]; the rest is the word of
    s_i w, one shorter.
    """
    npos, tables, simple = ri.npos, ri.tables, ri.simple
    word = bytearray()
    while True:
        negative = img[npos:]
        i = next((i for i, k in enumerate(simple) if k in negative), None)
        if i is None:
            return bytes(word)
        word.append(i + 1)
        img = img.translate(tables[i])


def _coset_tables(ri: RootIndex, k: int) -> list[bytes]:
    """The minimal left coset representatives of W_{k-1} in W_k, as tables.

    W_k = <s_1, ..., s_k>.  u is minimal in u W_{k-1} iff u(alpha_j) > 0
    for every j < k.  Deleting the first letter of a reduced word of such a
    u leaves another one, so all of them are reached from 1 by left
    multiplication through s_1, ..., s_k without leaving the set.  Each is
    returned as its image followed by range(n, 256), so that
    v.translate(table) is the image of u v.
    """
    npos = ri.npos
    lower = _tuple_getter(ri.simple[: k - 1])
    identity = bytes(range(len(ri.key)))
    found, seen = [identity], {identity}
    for u in found:  # read as it grows
        for table in ri.tables[:k]:
            img = u.translate(table)
            if img not in seen and all(map(npos.__gt__, lower(img))):
                seen.add(img)
                found.append(img)
    tail = bytes(range(len(identity), 256))
    return [u + tail for u in found]


def _coset_walk(rs: RootSystem) -> tuple[list[bytes], list[bytes]]:
    """W_{rank-1} as a list of images, and the minimal left coset
    representatives of W_{rank-1} in W as tables.

    W_k = W^k W_{k-1} over the nodes k = 1, ..., rank, where W^k holds the
    minimal left coset representatives and lengths add (Bjorner and Brenti,
    Combinatorics of Coxeter Groups, 2.4).  The coset of a table u is
    v.translate(u) over the listed v, in list order.  Refuses more roots
    than a byte table holds.
    """
    identity = _identity_image(rs)
    ri = root_index(rs)
    rank = len(ri.simple)
    if not rank:
        return [identity], [bytes(range(256))]
    elements = [identity]
    for k in range(1, rank):
        elements = [v.translate(table) for table in _coset_tables(ri, k) for v in elements]
    return elements, _coset_tables(ri, rank)


def weyl_images(rs: RootSystem) -> Iterator[bytes]:
    """Every Weyl group element once, as the bytes of its image.

    W_{rank-1} is built as a list; the last level is streamed, one coset
    after another (_coset_walk).  Refuses more roots than a byte table
    holds before it returns.
    """
    elements, tables = _coset_walk(rs)
    return chain.from_iterable(map(bytes.translate, elements, repeat(table)) for table in tables)


def weyl_blocks(rs: RootSystem) -> Iterator[bytes]:
    """The images of weyl_images, one coset of W_{rank-1} per bytes block.

    A block is the images of its coset joined in weyl_images order, made by
    one bytes.translate of the joined W_{rank-1}; with n roots, chamber c of
    a block is block[c * n:(c + 1) * n] and block[k::n] holds entry k of
    every chamber in it.  Refuses more roots than a byte table holds before
    it returns.
    """
    elements, tables = _coset_walk(rs)
    return map(b"".join(elements).translate, tables)


# Callers read one group at a time; a larger cache keeps every group read
# (up to 51 840 chambers each) alive until the process ends.
@lru_cache(maxsize=1)
def all_chambers(rs: RootSystem) -> tuple[Chamber, ...]:
    """Every Weyl group element, as the chambers of weyl_images, in its order.

    Each chamber derives its word, the lexicographically first reduced word,
    when it is first read.
    """
    ri = identity_chamber(rs).ri
    order = rs.weyl_group_order()
    if order > EXHAUSTIVE_WEYL_BOUND:
        raise WeylError(f"exhaustive enumeration of {order} chambers refused")
    chambers = tuple(map(partial(Chamber, ri, None), weyl_images(rs)))
    if len(chambers) != order:
        raise WeylError(f"chamber count {len(chambers)} != {order}")
    return chambers


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

    Each word is composed two letters per bytes.translate: the letters are
    read as 16-bit codes, one per letter pair (a, b), and each code names
    the table of s_a s_b, built once per call (rank**2 tables).  The word
    length, 4 * npos or 4, is even, so no pair straddles two words and word
    j is codes j * length / 2 up to (j + 1) * length / 2.
    """
    start = identity_chamber(rs)
    ri = start.ri
    tables = ri.tables
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
    # the table of s_a s_b applies s_b first, then s_a, keyed by the code
    # that the letter pair (a, b) reads as in native byte order
    pairs = {
        int.from_bytes(bytes((a, b)), sys.byteorder): tables[b - 1].translate(tables[a - 1])
        for a in range(1, rank + 1)
        for b in range(1, rank + 1)
    }
    codes = memoryview(letters)[:need].cast("H")
    half = length // 2
    out = []
    for at in range(0, need, length):
        # s_{word[0]} ... s_{word[-1]}: the rightmost pair acts first
        pair_steps = map(pairs.__getitem__, reversed(codes[at // 2 : at // 2 + half]))
        out.append(Chamber(ri, letters[at : at + length], reduce(bytes.translate, pair_steps, start.img)))
    return out


def orbit_partition(
    bits: int, generators: Sequence[tuple[int, list[tuple[int, int]]]]
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """Orbits on the bit vectors range(2**bits) of GF(2)-affine maps.

    A generator (flip, columns) sends s to flip ^ A s, where A is the
    identity plus the listed columns: s ^ delta for each (bit, delta) pair,
    bit a single bit, with s & bit.  Returns (labels, firsts, sizes): orbit
    n has smallest member firsts[n] and sizes[n] members, orbits are
    numbered in order of their smallest member, and labels[s] is the number
    of the orbit of s.

    Each generator is applied through two lookup lists, one over the low
    `low` bits and one over the rest: the image of s is
    lo[s & mask] ^ hi[s >> low], and lo carries the flip.
    """
    low = bits // 2
    mask = (1 << low) - 1
    tables = [_affine_halves(bits, low, flip, columns) for flip, columns in generators]
    labels = [-1] * (1 << bits)
    firsts, sizes = [], []
    for start in range(1 << bits):
        if labels[start] >= 0:
            continue
        label = labels[start] = len(firsts)
        orbit = [start]
        for s in orbit:
            a, b = s & mask, s >> low
            for lo, hi in tables:
                t = lo[a] ^ hi[b]
                if labels[t] < 0:
                    labels[t] = label
                    orbit.append(t)
        firsts.append(start)
        sizes.append(len(orbit))
    return tuple(labels), firsts, sizes


def _affine_halves(
    bits: int, low: int, flip: int, columns: Sequence[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """The map s -> flip ^ A s of orbit_partition as two lookup lists.

    lo[x] is the image of x for x < 2**low, and hi[y] is A (y << low) for
    y < 2**(bits - low); the image of s is lo[s & (2**low - 1)] ^ hi[s >> low]
    since A is linear.  Each list doubles once per bit: the images of the
    members with that bit set are those without it, XOR the column of that
    bit.
    """
    images = [1 << j for j in range(bits)]  # A applied to each single bit
    for bit, delta in columns:
        images[bit.bit_length() - 1] ^= delta
    lo, hi = [flip], [0]
    for j, column in enumerate(images):
        half = lo if j < low else hi
        half += [t ^ column for t in half]
    return lo, hi


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
