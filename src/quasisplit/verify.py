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

The imaginary-signs check sweeps one chamber at a time.  It reads the
chamber's walls and masks once, decides the complex-wall block of each
outer theta0 once, and leaves one compact-wall test per class; the w-simple
imaginary roots of a surviving inner pair are the walls themselves.  It
accepts a fault-injection switch that flips one sign on purpose; a healthy
detector must then produce at least one violation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .classify import admits_generic_character, indexed_grading, unipotent_image_dim
from .involution import enumerate_involution_classes, find_class
from .rootdata import VALID_RANKS, RootSystem, build_root_system, identity_automorphism, support_connected
from .weyl import (
    EXHAUSTIVE_WEYL_BOUND,
    Chamber,
    all_chambers,
    identity_chamber,
    random_chambers,
    reflect,
    root_index,
)

EXPECTED_EXCEPTIONAL_INNER = {"G2": 1, "F4": 2, "E6": 2, "E7": 3, "E8": 2}

DEFAULT_SAMPLES = 2000
DEFAULT_EXHAUSTIVE_CUTOFF = 2000
# Largest --max-rank.  At default samples all checks take about 0.8 s at
# rank 6 on a 2-vCPU VM and 1.1 s at rank 7, but at the --samples cap the
# imaginary-signs sweep takes 6.2-7.0 s and 89 MB at rank 6 against
# 15.4-16.0 s and 101 MB at rank 7, which would double the slowest run;
# random_chambers takes most of the rank-6 run.
MAX_VERIFY_RANK = 6
# Largest --samples: the sampled sweep at --max-rank 6 takes about 4.4 s at
# 20 000 samples on a 2-vCPU VM, 6.2-7.0 s at 25 000 and 8.8 s at 30 000.
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


def _chambers_for(rs: RootSystem, samples: int, seed: int, exhaustive: bool) -> tuple[Sequence[Chamber], str]:
    order = rs.weyl_group_order()
    if order <= DEFAULT_EXHAUSTIVE_CUTOFF or (exhaustive and order <= EXHAUSTIVE_WEYL_BOUND):
        return all_chambers(rs), f"exhaustive ({order} chambers)"
    return random_chambers(rs, samples, seed), f"sampled ({samples} chambers, seed {seed})"


def check_imaginary_signs(
    max_rank: int = 6,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    exhaustive: bool = False,
    inject_fault: bool = False,
) -> CheckResult:
    """Sweep (class, chamber) pairs; where a generic character survives, the
    w-simple imaginary roots must all be noncompact.

    Chambers come first, then the classes grouped by theta0, in enumeration
    order.  Per chamber the walls and the wall mask are read once, and the
    positive mask only when an outer theta0 is in scope.  Per (chamber,
    theta0) the complex-wall block (IndexedGrading.complex_wall_blocks) is
    decided once, since it does not depend on the grading; per class what is
    left is the compact-wall test.  For a surviving inner pair the w-simple
    imaginary roots are the walls in index order: w(positive roots) has
    simple system w(simple roots).  For a surviving outer pair they are
    RootIndex.simples of the w-positive imaginary roots, kept per type by
    that mask.

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
        chambers, mode = _chambers_for(rs, samples, seed, exhaustive)
        details.append(f"{type_str}: {mode}, {len(gradings)} classes")
        by_theta0 = [
            (aut.is_identity, list(group)) for aut, group in itertools.groupby(gradings, lambda g: g.cls.aut)
        ]
        has_outer = not all(inner for inner, _ in by_theta0)
        outer_simples: dict[int, list[int]] = {}
        ri = root_index(rs)
        walls_of, bit, npos = ri.walls_of, ri.bits.__getitem__, ri.npos
        for ch in chambers:
            img = ch.img
            walls = walls_of(img)
            wall_mask = sum(map(bit, walls))
            positive_mask = sum(map(bit, img[:npos])) if has_outer else 0
            inner_simples = sorted(walls)
            for inner, group in by_theta0:
                if not inner and group[0].complex_wall_blocks(walls, wall_mask, positive_mask):
                    continue
                for g in group:
                    if wall_mask & g.compact:
                        continue
                    scanned += 1
                    if inner:
                        simples = inner_simples
                    else:
                        key = g.imaginary & positive_mask
                        simples = outer_simples.get(key)
                        if simples is None:
                            simples = outer_simples[key] = ri.simples(key)
                    signs = g.signs
                    for i, k in enumerate(simples):
                        sign = signs[k]
                        if fault_pending and i == 0:
                            sign = -sign
                            fault_pending = False
                        if sign != -1:
                            violations.append(
                                f"{type_str} class {g.cls.class_id} word {tuple(ch.word)}"
                                f" root {rs.roots[k]} sign {sign}"
                            )
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
