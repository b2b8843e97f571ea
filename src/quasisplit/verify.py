"""Machine checks for the structural facts the enumeration relies on.

Four named checks, each exhaustive over an explicit scope and reporting
violations rather than raising:

counts            nontrivial inner class totals for the exceptional types,
                  computed twice (full enumeration, and a bare orbit count on
                  sign vectors under simple reflections) and compared against
                  the frozen table.
principal         the class containing the all-minus grading is quasi-split
                  for every simple type in scope, witnessed three ways.
imaginary-signs   at every (class, chamber) pair where a wall-generic
                  character survives, the simple roots of the w-positive
                  imaginary subsystem all carry sign -1.
support           every root has connected support in the diagram.

The imaginary-signs check sweeps one Weyl coset block at a time, in
columns: each wall of every chamber in a block is one bytes column.  The
compact-wall test of a class, and the sign test of an inner class, whose
w-simple imaginary roots are the walls themselves, are table lookups on
the wall columns, with the tables of eight classes packed bitwise into
one, so that one lookup per wall column tests eight classes.  The outer
classes are read in columns too: a chamber of a block is u v with v in the
first block, so the chambers where a root x is w-positive, or a wall, are
a column of the first block indexed by u^-1 x, built once per type, and
the complex-wall clause of each outer theta0, its w-simple imaginary roots
and the sign test of its classes are int operations on those columns.  No
chamber is read one at a time, except that a chamber with a violation gets
lines: its pairs are asked one at a time through
IndexedGrading.admits_generic, the library's pair rule.  It accepts a
fault-injection switch that flips one sign on purpose; a healthy detector
must then produce at least one violation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import and_, or_, xor
from typing import Sequence

from .chevalley import PinnedSigns
from .classify import IndexedGrading, admits_generic_character, indexed_grading, unipotent_image_dim
from .involution import enumerate_involution_classes, find_class
from .rootdata import VALID_RANKS, RootSystem, build_root_system, identity_automorphism, support_connected
from .weyl import (
    EXHAUSTIVE_WEYL_BOUND,
    Chamber,
    RootIndex,
    WeylError,
    identity_chamber,
    random_chambers,
    reflect,
    root_index,
    weyl_blocks,
)

EXPECTED_EXCEPTIONAL_INNER = {"G2": 1, "F4": 2, "E6": 2, "E7": 3, "E8": 2}

DEFAULT_SAMPLES = 2000
DEFAULT_EXHAUSTIVE_CUTOFF = 2000
# Largest --max-rank.  At default samples all checks take about 0.35 s at
# rank 6 on a 2-vCPU VM and 0.5-0.7 s at rank 7 (in-process), but at the
# --samples cap the imaginary-signs sweep takes 2.6-3.3 s and 97 MB at rank 6
# against 5.6-6.6 s and 104 MB at rank 7, which would about double the
# slowest run; random_chambers takes most of the rank-6 run (3.6 of 3.9 s
# under cProfile).
MAX_VERIFY_RANK = 6
# Largest --samples: the sampled sweep at --max-rank 6 takes about 2.2-2.5 s
# at 20 000 samples on a 2-vCPU VM (81 MB), 2.6-3.3 s at 25 000 (97 MB) and
# 3.1-4.4 s at 30 000 (113 MB).
MAX_VERIFY_SAMPLES = 25_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = f"{status} {self.name}"
        if self.details:
            return head + "\n" + "\n".join("  " + d for d in self.details)
        return head


def simple_types_up_to(max_rank: int) -> list[str]:
    return [f"{letter}{n}" for letter, ranks in VALID_RANKS.items() for n in ranks if n <= max_rank]


def transport_orbit_partition(rs: RootSystem) -> list[frozenset]:
    """Sign-vector orbits under simple reflections, built with none of the
    class machinery; the independent route for the counts check."""
    rank = rs.rank
    simples = rs.simple_roots
    gens = []
    for k in range(1, rank + 1):
        masks = [tuple(x % 2 for x in reflect(rs, k, simples[i])) for i in range(rank)]
        gens.append(masks)
    orbits = []
    unseen = set(itertools.product((1, -1), repeat=rank))
    while unseen:
        start = min(unseen)
        orbit = {start}
        queue = [start]
        unseen.discard(start)
        while queue:
            s = queue.pop()
            for masks in gens:
                image = []
                for mask in masks:
                    v = 1
                    for j, m in enumerate(mask):
                        if m:
                            v *= s[j]
                    image.append(v)
                t = tuple(image)
                if t in unseen:
                    unseen.discard(t)
                    orbit.add(t)
                    queue.append(t)
        orbits.append(frozenset(orbit))
    return orbits


def check_counts() -> CheckResult:
    details = []
    ok = True
    for type_str, expected in sorted(EXPECTED_EXCEPTIONAL_INNER.items()):
        rs = build_root_system(type_str)
        classes = [c for c in enumerate_involution_classes(rs) if c.is_inner]
        nontrivial = [c for c in classes if not c.is_trivial]
        route1 = len(nontrivial)
        partition1 = {frozenset(c.orbit) for c in classes}
        partition2 = set(transport_orbit_partition(rs))
        route2 = len(partition2) - 1
        agree = partition1 == partition2
        good = route1 == expected and route2 == expected and agree
        ok = ok and good
        details.append(
            f"{type_str}: enumerated {route1}, transport {route2}, expected {expected},"
            f" partitions {'agree' if agree else 'DIFFER'}"
        )
    return CheckResult("counts", ok, details)


def check_principal(max_rank: int = 8) -> CheckResult:
    details = []
    ok = True
    for type_str in simple_types_up_to(max_rank):
        rs = build_root_system(type_str)
        rep = tuple([-1] * rs.rank)
        cls = find_class(rs, identity_automorphism(rs), rep)
        ch = identity_chamber(rs)
        w1 = cls.quasi_split
        w2 = admits_generic_character(cls, rep, ch)
        dim = unipotent_image_dim(cls, rep, ch)
        good = w1 and w2 and dim == 0
        ok = ok and good
        if not good:
            details.append(
                f"{type_str}: quasi_split={w1} generic={w2} image_dim={dim}"
            )
    if ok:
        details.append(f"all-minus class quasi-split for {len(simple_types_up_to(max_rank))} types")
    return CheckResult("principal", ok, details)


class _TypeSweep:
    """The imaginary-signs sweep of one simple type, one block of chambers at
    a time (scan), every block read in columns.

    base is the first block: W_{rank-1} in an exhaustive sweep, whose first
    chamber is 1 (weyl.weyl_blocks), or all the sampled chambers joined.
    Chamber c of base is v_c, and every later block must be base passed
    through the table of its first chamber u, so that its chamber c is
    u v_c and w^-1 x = v_c^-1(u^-1 x) for w = u v_c (Bjorner and Brenti,
    Combinatorics of Coxeter Groups, 2.4); scan raises WeylError on a block
    that is not.  So the chambers of a block where root x is w-positive, or
    a wall (w^-1 x simple), are one column of base, indexed by u^-1 x and
    built once per type from the inverse images of base: positive[y],
    wall[y] and interior[y] are the sets of chambers c where v_c^-1 y is
    positive, simple, or positive but not simple, each an int (see scan).
    base_walls is the wall columns of base joined, and every the set of all
    its chambers.

    groups holds the classes grouped by their theta0's PinnedSigns, in
    enumeration order, each class as (j, grading) with j its place in that
    order, and with each group the _OuterTheta of its theta0, or None when
    theta0 is inner.  The 0/1 tables of eight classes at a time are packed
    into one 256-byte table for bytes.translate, class j at bit j % 8 of
    pack j // 8: compact[p] marks the compact roots of the classes of pack
    p, and unsigned[p] the roots whose sign is not -1 for its inner classes
    (read from IndexedGrading.signs, so planted signs show), or is None
    when the pack has no inner class.
    """

    def __init__(self, type_str: str, rs: RootSystem, gradings: Sequence[IndexedGrading], base: bytes):
        self.type_str = type_str
        self.ri = ri = root_index(rs)
        self.base = base
        n = len(ri.key)
        self.base_walls = b"".join(base[k::n] for k in ri.simple)
        self.every = int.from_bytes(b"\x01" * (len(base) // n), "little")
        self.groups = []
        for pinned, group in itertools.groupby(enumerate(gradings), lambda jg: jg[1].pinned):
            classes = list(group)
            outer = None if pinned.aut.is_identity else _OuterTheta(ri, pinned, [g for _, g in classes])
            self.groups.append((classes, outer))
        packs = [gradings[p : p + 8] for p in range(0, len(gradings), 8)]
        self.compact = [_packed([_bit_bytes(g.compact, n) for g in pack]) for pack in packs]
        self.unsigned = [
            _packed([bytes(map((-1).__ne__, g.signs)) if g.cls.is_inner else b"" for g in pack])
            if any(g.cls.is_inner for g in pack)
            else None
            for pack in packs
        ]

    @functools.cached_property
    def columns(self) -> tuple[list[int], list[int], list[int]]:
        """(positive, wall, interior), built on first use: a type with no
        outer class never reads them."""
        ri, base = self.ri, self.base
        n = len(ri.key)
        # bytes.maketrans inverts an image: byte y of inverse c is v_c^-1 y
        identity = bytes(range(n))
        inverses = b"".join([bytes.maketrans(base[at : at + n], identity)[:n] for at in range(0, len(base), n)])
        is_positive = b"\x01" * ri.npos + bytes(256 - ri.npos)
        is_simple = bytearray(256)
        for k in ri.simple:
            is_simple[k] = 1
        positive, wall = [], []
        for y in range(n):
            column = inverses[y::n]
            positive.append(int.from_bytes(column.translate(is_positive), "little"))
            wall.append(int.from_bytes(column.translate(is_simple), "little"))
        return positive, wall, list(map(xor, positive, wall))  # every wall is positive

    def scan(self, block: bytes) -> tuple[int, int, int]:
        """(pairs scanned, chambers with a surviving pair, chambers with a
        violating pair) of a block of chambers, the chamber sets as ints.

        The block is the images of m chambers joined.  A set of its chambers
        is m bytes, or an int read from them little-endian, with byte c
        equal to 1 for chamber c.  Entry k of every chamber is the column
        block[k::n].  A wall column passed through a packed table and read
        as an int has bit i of byte c set when class i of the pack marks
        that wall of chamber c, so the OR over the wall columns marks, for
        eight classes at once, the chambers with some wall marked; every,
        the set of all m chambers, keeps bit 0 of each byte, so
        every & ~(hit >> i) is the set of chambers where class i has no
        compact wall.  An inner pair there survives with the walls as its
        w-simple roots.  An outer pair there survives unless theta0's
        complex-wall clause holds, and its w-simple imaginary roots are
        read from the positive columns (_OuterTheta), once per theta0.
        """
        ri, base = self.ri, self.base
        n = len(ri.key)
        m = len(base) // n
        walls = [block[k::n] for k in ri.simple]
        if block is not base:
            if not base.startswith(bytes(range(n))):
                raise WeylError(f"{self.type_str}: the first coset block does not start at 1")
            if len(block) != len(base):
                raise WeylError(f"{self.type_str}: a coset block of {len(block) // n} chambers after one of {m}")
            # an element is determined by its walls, the images of the simple roots
            if b"".join(walls) != self.base_walls.translate(block[:n] + bytes(range(n, 256))):
                raise WeylError(f"{self.type_str}: a coset block is not its first chamber times the first block")

        def marked(table: bytes) -> int:
            marks = map(bytes.translate, walls, itertools.repeat(table))
            return functools.reduce(or_, map(int.from_bytes, marks, itertools.repeat("little")))

        every = self.every
        hits = list(map(marked, self.compact))
        unsigned = [None if table is None else marked(table) for table in self.unsigned]
        scanned = surviving = bad = 0
        columns = None
        for classes, outer in self.groups:
            free = [every & ~(hits[j >> 3] >> (j & 7)) for j, _ in classes]
            if outer is None:
                for (j, _), chambers in zip(classes, free):
                    scanned += chambers.bit_count()
                    surviving |= chambers
                    bad |= chambers & (unsigned[j >> 3] >> (j & 7))
                continue
            if not any(free):
                continue
            if columns is None:
                columns = self.columns
                if block is not base:
                    # chamber c of the block is u v_c, so its columns are those of u^-1 x
                    inverse = bytes.maketrans(block[:n], bytes(range(n)))[:n]
                    columns = [list(map(column.__getitem__, inverse)) for column in columns]
            positive, wall, interior = columns
            blocked = outer.blocked(wall, interior)
            w_simple: dict[int, int] = {}
            for chambers, roots in zip(free, outer.unsigned):
                chambers &= ~blocked
                if chambers:
                    scanned += chambers.bit_count()
                    surviving |= chambers
                    bad |= chambers & outer.any_w_simple(roots, positive, w_simple)
        return scanned, surviving, bad


class _OuterTheta:
    """The column reading of one outer theta0 and its classes (_TypeSweep).

    complex holds the complex roots x and partners their partners theta0 x.
    unsigned[i] holds the imaginary roots whose sign is not -1 for class i
    of the group, read from IndexedGrading.signs so that planted signs
    show, and sums[k], for each of them, the imaginary pairs a + b = k of
    RootIndex.sums as two tuples, the a and the b.
    """

    def __init__(self, ri: RootIndex, pinned: PinnedSigns, gradings: Sequence[IndexedGrading]):
        theta, imaginary = pinned.theta, pinned.imaginary
        self.complex = tuple(x for x, t in enumerate(theta) if t != x)
        self.partners = tuple(map(theta.__getitem__, self.complex))
        roots = ri.indices(imaginary)
        self.unsigned = [tuple(k for k in roots if g.signs[k] != -1) for g in gradings]
        self.sums = {}
        for k in set().union(*self.unsigned):
            pairs = [ri.indices(pair) for pair in ri.sums[k] if not pair & ~imaginary]
            self.sums[k] = (tuple(a for a, _ in pairs), tuple(b for _, b in pairs))

    def blocked(self, wall: Sequence[int], interior: Sequence[int]) -> int:
        """The chambers where theta0's complex-wall clause holds: some wall
        x has its partner theta0 x w-positive but no wall, the clause of
        PinnedSigns.complex_wall_blocks over a block's columns."""
        cells = map(and_, map(wall.__getitem__, self.complex), map(interior.__getitem__, self.partners))
        return functools.reduce(or_, cells, 0)

    def any_w_simple(self, roots: Sequence[int], positive: Sequence[int], known: dict[int, int]) -> int:
        """The chambers where one of roots, all of them in sums, is a
        w-simple imaginary root: w-positive, with no imaginary pair a + b = k
        both w-positive.  Such a pair makes k w-positive, so the chambers
        that have one are a subset of positive[k].  The chambers of each
        root are kept in known, for the other classes of theta0."""
        get, found = positive.__getitem__, 0
        for k in roots:
            chambers = known.get(k)
            if chambers is None:
                heads, tails = self.sums[k]
                pairs = functools.reduce(or_, map(and_, map(get, heads), map(get, tails)), 0)
                chambers = known[k] = positive[k] ^ pairs
            found |= chambers
        return found


_BIT_BYTE = bytes.maketrans(b"01", b"\x00\x01")


def _bit_bytes(mask: int, n: int) -> bytes:
    """The bits of a mask of n roots as n bytes, byte k equal to bit k."""
    return f"{mask:0{n}b}"[::-1].encode().translate(_BIT_BYTE)


def _packed(tables: Sequence[bytes]) -> bytes:
    """Up to eight 0/1 tables as one 256-byte table, bit i from tables[i].

    Read little-endian, a table of 0/1 bytes is the int with bit 8k set for
    each marked k, so shifting it by i moves its marks to bit i of each
    byte, and no two tables share a bit.
    """
    return sum(int.from_bytes(t, "little") << i for i, t in enumerate(tables)).to_bytes(256, "little")


def _violation_lines(type_str: str, gradings: Sequence[IndexedGrading], ch: Chamber, fault: bool) -> list[str]:
    """The violation lines of one chamber, its pairs asked one at a time in
    class order.  With fault the first w-simple imaginary root of its first
    surviving pair has its sign flipped: every pair has one, since theta0
    fixes the highest root and so one of plus or minus it is w-positive
    imaginary."""
    lines = []
    roots = ch.rs.roots
    for g in gradings:
        if not g.admits_generic(ch):
            continue
        for i, k in enumerate(g.ri.simples(g.imaginary & ch.positive_mask)):
            sign = g.signs[k]
            if fault and i == 0:
                sign, fault = -sign, False
            if sign != -1:
                lines.append(f"{type_str} class {g.cls.class_id} word {tuple(ch.word)} root {roots[k]} sign {sign}")
    return lines


def check_imaginary_signs(
    max_rank: int = 6,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    exhaustive: bool = False,
    inject_fault: bool = False,
) -> CheckResult:
    """Sweep (class, chamber) pairs; where a generic character survives, the
    w-simple imaginary roots must all be noncompact.

    Chambers come one Weyl coset block at a time (weyl.weyl_blocks), or as
    one block of the sampled chambers, and each block is read in columns
    (_TypeSweep.scan); an exhaustive sweep that counts other than the group
    order of chambers, or whose blocks are not the first block times their
    first chambers, raises WeylError.  The compact-wall test of a class,
    and for an inner class its sign test, is a table lookup per wall column
    of the block, one lookup for eight classes through their packed tables:
    for an inner pair the w-simple imaginary roots are the walls, since
    w(positive roots) has simple system w(simple roots).  An outer pair is
    read from the columns of the first block, where root x is w-positive
    or a wall, indexed through the inverse of the block's first chamber:
    the complex-wall clause of its theta0 (the clause of
    PinnedSigns.complex_wall_blocks) is an OR over the complex roots, and
    an imaginary root is w-simple where it is w-positive and no imaginary
    pair summing to it (RootIndex.sums) is.  Only the chambers with a
    violation, and the chamber of the first surviving pair when a fault is
    planted, get lines: each is one Chamber, with the first reduced word of
    its element or the drawn word of a sampled one, whose pairs are asked
    one at a time through IndexedGrading.admits_generic and
    RootIndex.simples.

    For an inner pair the sign test only restates that
    IndexedGrading.signs agrees with compact: signs are read from compact,
    every inner root is imaginary, and the pair survives only when no wall
    is compact, so every wall carries sign -1.  The outer pairs, whose
    w-simple imaginary roots come from the imaginary sums, carry the
    independent content.
    """
    violations = []
    scanned = 0
    fault_pending = inject_fault
    details = []
    for type_str in simple_types_up_to(max_rank):
        rs = build_root_system(type_str)
        gradings = [indexed_grading(c, c.canonical_rep) for c in enumerate_involution_classes(rs)]
        order = rs.weyl_group_order()
        if order <= DEFAULT_EXHAUSTIVE_CUTOFF or (exhaustive and order <= EXHAUSTIVE_WEYL_BOUND):
            drawn, blocks = None, iter(weyl_blocks(rs))
            base = next(blocks, b"")
            blocks = itertools.chain([base], blocks)
            details.append(f"{type_str}: exhaustive ({order} chambers), {len(gradings)} classes")
        else:
            drawn = random_chambers(rs, samples, seed)
            base = b"".join(ch.img for ch in drawn)
            blocks = [base]
            details.append(f"{type_str}: sampled ({samples} chambers, seed {seed}), {len(gradings)} classes")
        sweep = _TypeSweep(type_str, rs, gradings, base)
        n = len(rs.roots)
        swept = 0
        for block in blocks:
            m = len(block) // n
            pairs, surviving, bad = sweep.scan(block)
            scanned += pairs
            if fault_pending and surviving:
                bad |= surviving & -surviving  # the chamber of the first surviving pair
            for c in itertools.compress(range(m), bad.to_bytes(m, "little")):
                ch = Chamber(sweep.ri, None, block[c * n : (c + 1) * n]) if drawn is None else drawn[c]
                violations += _violation_lines(type_str, gradings, ch, fault_pending)
                fault_pending = False
            swept += m
        if drawn is None and swept != order:
            raise WeylError(f"{type_str}: swept {swept} chambers of a group of order {order}")
    details.append(f"{scanned} surviving (class, chamber) pairs checked")
    if inject_fault:
        passed = len(violations) >= 1
        details.append(f"fault injection produced {len(violations)} violation(s)")
    else:
        passed = scanned > 0 and not violations
        details.extend(violations[:20])
    return CheckResult("imaginary-signs", passed, details)


def check_support(max_rank: int = 8) -> CheckResult:
    details = []
    ok = True
    total = 0
    for type_str in simple_types_up_to(max_rank):
        rs = build_root_system(type_str)
        for beta in rs.roots:
            _, connected = support_connected(rs, beta)
            total += 1
            if not connected:
                ok = False
                details.append(f"{type_str}: root {beta} has disconnected support")
    details.append(f"{total} roots checked")
    return CheckResult("support", ok, details)


CHECKS = ("counts", "principal", "imaginary-signs", "support")


def run_checks(
    names: list[str],
    max_rank: int = 6,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    exhaustive: bool = False,
    inject_fault: bool = False,
) -> list[CheckResult]:
    results = []
    for name in names:
        if name == "counts":
            results.append(check_counts())
        elif name == "principal":
            results.append(check_principal(max_rank=max(max_rank, 8)))
        elif name == "imaginary-signs":
            results.append(
                check_imaginary_signs(
                    max_rank=max_rank,
                    samples=samples,
                    seed=seed,
                    exhaustive=exhaustive,
                    inject_fault=inject_fault,
                )
            )
        elif name == "support":
            results.append(check_support(max_rank=max(max_rank, 8)))
        else:
            raise ValueError(f"unknown check {name!r}")
    return results
