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
one, so that one lookup per wall column tests eight classes.  Only the
chambers where an outer class may survive are read one at a time,
deciding the complex-wall block of each outer theta0 once, through its
PinnedSigns.  Only a chamber with a violation gets lines: its pairs are
asked one at a time through IndexedGrading.admits_generic, the library's
pair rule.  It accepts a fault-injection switch that flips one sign on
purpose; a healthy detector must then produce at least one violation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import or_
from typing import Sequence

from .classify import IndexedGrading, admits_generic_character, indexed_grading, unipotent_image_dim
from .involution import enumerate_involution_classes, find_class
from .rootdata import VALID_RANKS, RootSystem, build_root_system, identity_automorphism, support_connected
from .weyl import (
    EXHAUSTIVE_WEYL_BOUND,
    Chamber,
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
# Largest --max-rank.  At default samples all checks take about 0.3-0.45 s
# at rank 6 on a 2-vCPU VM and 0.6-0.85 s at rank 7, but at the --samples
# cap the imaginary-signs sweep takes 2.6-3.9 s and 92 MB at rank 6 against
# 5.9-8.3 s and 106 MB at rank 7, which would about double the slowest run;
# random_chambers takes most of the rank-6 run (3.0 of 3.4 s under cProfile).
MAX_VERIFY_RANK = 6
# Largest --samples: the sampled sweep at --max-rank 6 takes about 2.4-2.8 s
# at 20 000 samples on a 2-vCPU VM (77 MB), 2.6-3.9 s at 25 000 (92 MB) and
# 3.7-4.9 s at 30 000 (107 MB).
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
    a time (scan).

    groups holds the classes grouped by their theta0's PinnedSigns, in
    enumeration order, each class as (j, grading) with j its place in that
    order.  The 0/1 tables of eight classes at a time are packed into one
    256-byte table for bytes.translate, class j at bit j % 8 of pack
    j // 8: compact[p] marks the compact roots of the classes of pack p,
    and unsigned[p] the roots whose sign is not -1 for its inner classes
    (read from IndexedGrading.signs, so planted signs show), or is None
    when the pack has no inner class.
    """

    def __init__(self, rs: RootSystem, gradings: Sequence[IndexedGrading]):
        self.ri = root_index(rs)
        self.groups = [
            (pinned, list(group))
            for pinned, group in itertools.groupby(enumerate(gradings), lambda jg: jg[1].pinned)
        ]
        packs = [gradings[p : p + 8] for p in range(0, len(gradings), 8)]
        self.compact = [_packed([_bit_bytes(g.compact, len(rs.roots)) for g in pack]) for pack in packs]
        self.unsigned = [
            _packed([bytes(map((-1).__ne__, g.signs)) if g.cls.is_inner else b"" for g in pack])
            if any(g.cls.is_inner for g in pack)
            else None
            for pack in packs
        ]
        self.outer_simples: dict[int, list[int]] = {}

    def simples(self, g: IndexedGrading, positive_mask: int) -> list[int]:
        """The w-simple imaginary roots of an outer pair, kept per mask."""
        key = g.imaginary & positive_mask
        simples = self.outer_simples.get(key)
        if simples is None:
            simples = self.outer_simples[key] = self.ri.simples(key)
        return simples

    def scan(self, block: bytes) -> tuple[int, int, int]:
        """(pairs scanned, chambers with a surviving pair, chambers with a
        violating pair) of a block of chambers, the chamber sets as ints.

        The block is the images of m chambers joined (weyl.weyl_blocks).  A
        set of its chambers is m bytes, or an int read from them
        little-endian, with byte c equal to 1 for chamber c.  Entry k of
        every chamber is the column block[k::n].  A wall column passed
        through a packed table and read as an int has bit i of byte c set
        when class i of the pack marks that wall of chamber c, so the OR
        over the wall columns marks, for eight classes at once, the chambers
        with some wall marked; every, the set of all m chambers, keeps bit 0
        of each byte, so every & ~(hit >> i) is the set of chambers where
        class i has no compact wall.  An inner pair there survives with the
        walls as its w-simple roots.  The outer classes go chamber by
        chamber over the chambers where one of them has no compact wall,
        deciding the complex-wall block of each outer theta0 once.
        """
        ri = self.ri
        n, npos = len(ri.key), ri.npos
        m = len(block) // n
        columns = [block[k::n] for k in ri.simple]

        def marked(table: bytes) -> int:
            return functools.reduce(or_, [int.from_bytes(col.translate(table), "little") for col in columns])

        every = int.from_bytes(b"\x01" * m, "little")
        hits = list(map(marked, self.compact))
        unsigned = [None if table is None else marked(table) for table in self.unsigned]
        scanned = surviving = bad = candidates = 0
        outer = []
        for pinned, classes in self.groups:
            free = [(j, g, every & ~(hits[j >> 3] >> (j & 7))) for j, g in classes]
            if pinned.aut.is_identity:
                for j, _, chambers in free:
                    scanned += chambers.bit_count()
                    surviving |= chambers
                    bad |= chambers & (unsigned[j >> 3] >> (j & 7))
            else:
                candidates = functools.reduce(or_, [chambers for _, _, chambers in free], candidates)
                outer.append((pinned, [(g, chambers.to_bytes(m, "little")) for _, g, chambers in free]))
        for c in itertools.compress(range(m), candidates.to_bytes(m, "little")):
            chamber = 1 << 8 * c
            img = block[c * n : (c + 1) * n]
            walls, positive, positive_mask = bytes(ri.walls_of(img)), img[:npos], None
            for pinned, classes in outer:
                if pinned.complex_wall_blocks(walls, positive):
                    continue
                for g, free in classes:
                    if not free[c]:
                        continue
                    if positive_mask is None:
                        positive_mask = ri.mask(positive)
                    scanned += 1
                    surviving |= chamber
                    signs = g.signs
                    if any(signs[k] != -1 for k in self.simples(g, positive_mask)):
                        bad |= chamber
        return scanned, surviving, bad


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
    order of chambers raises WeylError.  The compact-wall test of a class,
    and for an inner class its sign test, is a table lookup per wall column
    of the block, one lookup for eight classes through their packed tables:
    for an inner pair the w-simple imaginary roots are the walls, since
    w(positive roots) has simple system w(simple roots).  The outer classes
    go chamber by chamber over the chambers where one of them has no
    compact wall: the complex-wall block (PinnedSigns.complex_wall_blocks)
    is decided once per (chamber, theta0), and the w-simple imaginary roots
    of a surviving pair are RootIndex.simples of the w-positive imaginary
    roots, kept per type by that mask.  Only the chambers with a violation,
    and the chamber of the first surviving pair when a fault is planted,
    get lines: each is one Chamber, with the first reduced word of its
    element or the drawn word of a sampled one, whose pairs are asked one
    at a time through IndexedGrading.admits_generic and RootIndex.simples.

    For an inner pair the sign test only restates that
    IndexedGrading.signs agrees with compact: signs are read from compact,
    every inner root is imaginary, and the pair survives only when no wall
    is compact, so every wall carries sign -1.  The outer pairs, whose
    w-simple imaginary roots come from RootIndex.simples, carry the
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
            drawn, blocks = None, weyl_blocks(rs)
            details.append(f"{type_str}: exhaustive ({order} chambers), {len(gradings)} classes")
        else:
            drawn = random_chambers(rs, samples, seed)
            blocks = [b"".join(ch.img for ch in drawn)]
            details.append(f"{type_str}: sampled ({samples} chambers, seed {seed}), {len(gradings)} classes")
        sweep = _TypeSweep(rs, gradings)
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
