import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quasisplit.classify import (
    admits_generic_character,
    classify_involution,
    fixed_group_dim,
    indexed_grading,
    k_subsystem,
    root_counts,
    split_rank,
    torus_fixed_dim,
    unipotent_fixed_dim,
    unipotent_image_dim,
)
from quasisplit.involution import enumerate_involution_classes, find_class, trivial_class
from quasisplit.rootdata import build_root_system, identity_automorphism
from quasisplit.verify import simple_types_up_to
from quasisplit.weyl import all_chambers, identity_chamber

from oracles import (
    VectorChamber,
    k_subsystem_by_vectors,
    unipotent_fixed_dim_by_vectors,
    unipotent_fixed_dim_gl,
    unipotent_image_dim_by_vectors,
    unipotent_image_dim_gl,
)


def _classes(type_str):
    return enumerate_involution_classes(build_root_system(type_str))


def _by_id(type_str):
    return {c.class_id: c for c in _classes(type_str)}


def test_su21():
    cls = _by_id("A2")["+-"]
    s = classify_involution(cls)
    assert s.dim_fixed == 4 and s.orbit_size == 3 and s.quasi_split
    assert s.k_type == "A1+T1"
    assert s.split_rank == 1


def test_a3_table():
    table = {c.class_id: classify_involution(c) for c in _classes("A3")}
    assert set(table) == {"+++", "++-", "+-+", "(13):+", "(13):-"}
    assert table["+++"].dim_fixed == 15 and table["+++"].k_type == "A3"
    assert table["++-"].dim_fixed == 9 and table["++-"].k_type == "A2+T1"
    assert table["+-+"].dim_fixed == 7 and table["+-+"].k_type == "A1+A1+T1"
    assert table["+-+"].quasi_split and table["+-+"].split_rank == 2
    assert table["(13):+"].dim_fixed == 10 and not table["(13):+"].quasi_split
    assert table["(13):-"].dim_fixed == 6 and table["(13):-"].split_rank == 3
    assert table["(13):+"].k_type is None


def test_exceptional_tables():
    e6 = {c.class_id: classify_involution(c) for c in _classes("E6")}
    assert e6["+++++-"].dim_fixed == 46 and e6["+++++-"].k_type == "D5+T1"
    assert e6["+++++-"].orbit_size == 27
    assert e6["++++-+"].dim_fixed == 38 and e6["++++-+"].k_type == "A5+A1"
    assert e6["++++-+"].orbit_size == 36 and e6["++++-+"].split_rank == 4
    assert e6["(16)(35):++"].dim_fixed == 52 and not e6["(16)(35):++"].quasi_split
    assert e6["(16)(35):+-"].dim_fixed == 36 and e6["(16)(35):+-"].split_rank == 6
    e7 = {c.class_id: classify_involution(c) for c in _classes("E7") if not c.is_trivial}
    assert {s.dim_fixed for s in e7.values()} == {79, 69, 63}
    assert {s.k_type for s in e7.values()} == {"E6+T1", "D6+A1", "A7"}
    assert [s.split_rank for s in e7.values() if s.quasi_split] == [7]
    e8 = {c.class_id: classify_involution(c) for c in _classes("E8") if not c.is_trivial}
    assert {(s.dim_fixed, s.k_type) for s in e8.values()} == {(136, "E7+A1"), (120, "D8")}
    f4 = {c.class_id: classify_involution(c) for c in _classes("F4") if not c.is_trivial}
    assert {(s.dim_fixed, s.k_type) for s in f4.values()} == {(36, "B4"), (24, "C3+A1")}
    g2 = {c.class_id: classify_involution(c) for c in _classes("G2") if not c.is_trivial}
    assert {(s.dim_fixed, s.k_type, s.split_rank) for s in g2.values()} == {(6, "A1+A1", 2)}


def test_trivial_class_summary():
    cls = trivial_class(build_root_system("B3"))
    s = classify_involution(cls)
    assert s.dim_fixed == s.dim_group == 21
    assert s.k_type == "B3"
    assert s.compact_imaginary == 18 and s.noncompact_imaginary == 0


def test_central_torus_shifts_dimensions():
    plain = classify_involution(_by_id("A1")["-"])
    with_torus = classify_involution(
        {c.class_id: c for c in _classes("A1+T2")}["-"]
    )
    assert with_torus.dim_group == plain.dim_group + 2
    assert with_torus.dim_fixed == plain.dim_fixed + 2
    assert with_torus.dim_torus_fixed == plain.dim_torus_fixed + 2
    # the central torus is theta-fixed, so it never contributes split rank
    assert with_torus.split_rank == plain.split_rank == 1
    assert with_torus.k_type == "T3"


def test_counts_are_orbit_invariant():
    for type_str in ["A2", "A3", "B2", "B3", "G2"]:
        for cls in _classes(type_str):
            expected = root_counts(cls)
            for rep in cls.orbit:
                signs = indexed_grading(cls, rep).signs
                compact = noncompact = cplx = 0
                for k, beta in enumerate(cls.rs.roots):
                    if cls.aut.on_root(beta) == beta:
                        if signs[k] == 1:
                            compact += 1
                        else:
                            noncompact += 1
                    else:
                        cplx += 1
                assert (compact, noncompact, cplx) == expected


def test_eps_rejects_complex_roots():
    # the eps table holds 0 at a complex root, and only there
    cls = _by_id("A3")["(13):+"]
    g = indexed_grading(cls, cls.canonical_rep)
    k = cls.rs.roots.index((1, 0, 0))
    assert g.signs[k] == 0 and not g.imaginary >> k & 1
    assert all((sign == 0) == (g.theta[j] != j) for j, sign in enumerate(g.signs))


def _a3_chamber_permutation(chamber):
    """Recover the S4 permutation of a type A3 chamber from its simple images."""
    rs = chamber.rs

    def root_to_pair(v):
        if sum(v) > 0:
            nodes = [i for i, x in enumerate(v) if x]
            return nodes[0], nodes[-1] + 1
        nodes = [i for i, x in enumerate(v) if x]
        return nodes[-1] + 1, nodes[0]

    oracle = VectorChamber(rs, chamber.word)
    pairs = [root_to_pair(oracle.act(a)) for a in rs.simple_roots]
    perm = [pairs[0][0]]
    for c, d in pairs:
        assert c == perm[-1] or not perm
        perm.append(d)
    return tuple(perm)


def test_unipotent_dims_match_gl4_oracle():
    rs = build_root_system("A3")
    aut = identity_automorphism(rs)
    chambers = all_chambers(rs)
    perms = [_a3_chamber_permutation(ch) for ch in chambers]
    assert sorted(perms) == sorted(itertools.permutations(range(4)))
    for d in itertools.product((1, -1), repeat=4):
        grading = tuple(d[i] * d[i + 1] for i in range(3))
        cls = find_class(rs, aut, grading)
        for ch, perm in zip(chambers, perms):
            assert unipotent_fixed_dim(cls, grading, ch) == unipotent_fixed_dim_gl(d, perm)
            assert unipotent_image_dim(cls, grading, ch) == unipotent_image_dim_gl(d, perm)


@pytest.mark.parametrize("type_str", ["A2", "A3", "B3", "C3", "G2", "D4", "A2+A1"])
def test_unipotent_dims_match_vector_oracle(type_str):
    # every (class, orbit rep, chamber), outer classes included; the oracle
    # reads w-positivity from vector arithmetic and eps root by root
    rs = build_root_system(type_str)
    chambers = all_chambers(rs)
    views = [(o.images, o.w_positive_roots()) for o in (VectorChamber(rs, ch.word) for ch in chambers)]
    for cls in enumerate_involution_classes(rs):
        for rep in cls.orbit:
            for ch, (walls, positive) in zip(chambers, views):
                assert unipotent_fixed_dim(cls, rep, ch) == unipotent_fixed_dim_by_vectors(cls, rep, positive)
                assert unipotent_image_dim(cls, rep, ch) == unipotent_image_dim_by_vectors(
                    cls, rep, walls, positive
                )


def test_k_subsystem_matches_vector_oracle():
    for type_str in simple_types_up_to(8):
        for cls in _classes(type_str):
            if cls.is_inner:
                assert k_subsystem(cls) == k_subsystem_by_vectors(cls), (type_str, cls.class_id)


def test_unipotent_fixed_dim_trivial_class():
    for type_str in ["A2", "B2", "G2"]:
        rs = build_root_system(type_str)
        cls = trivial_class(rs)
        ch = identity_chamber(rs)
        assert unipotent_fixed_dim(cls, cls.canonical_rep, ch) == len(rs.positive_roots)
        assert unipotent_image_dim(cls, cls.canonical_rep, ch) == rs.rank
        assert not admits_generic_character(cls, cls.canonical_rep, ch)


def test_unipotent_fixed_dim_a3_example():
    cls = _by_id("A3")["+-+"]
    ch = identity_chamber(cls.rs)
    assert unipotent_fixed_dim(cls, (1, -1, 1), ch) == 2
    assert unipotent_image_dim(cls, (1, -1, 1), ch) == 2
    assert not admits_generic_character(cls, (1, -1, 1), ch)
    # all-minus rep: every wall is noncompact, yet height-two compact roots
    # keep the fixed unipotent part itself nonzero
    assert unipotent_fixed_dim(cls, (-1, -1, -1), ch) == 2
    assert unipotent_image_dim(cls, (-1, -1, -1), ch) == 0
    assert admits_generic_character(cls, (-1, -1, -1), ch)


@pytest.mark.parametrize("type_str", ["A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"])
def test_quasi_split_iff_zero_image_witness(type_str):
    # scanning (canonical rep, chamber) pairs is exhaustive up to simultaneous
    # conjugation, so the witness search is a complete quasi-splitness test
    rs = build_root_system(type_str)
    chambers = all_chambers(rs)
    for cls in enumerate_involution_classes(rs):
        rep = cls.canonical_rep
        witness = any(unipotent_image_dim(cls, rep, ch) == 0 for ch in chambers)
        generic = any(admits_generic_character(cls, rep, ch) for ch in chambers)
        assert witness == cls.quasi_split
        assert generic == cls.quasi_split


def test_generic_character_differs_from_zero_image_on_outer_class():
    # at the identity chamber the A2 flip has complex walls alpha_1, alpha_2
    # swapped by theta0: the image is one diagonal line, yet a generic
    # character can avoid it
    cls = _by_id("A2")["(12)"]
    ch = identity_chamber(cls.rs)
    assert unipotent_image_dim(cls, (), ch) == 1
    assert admits_generic_character(cls, (), ch)


def test_split_rank_values():
    assert split_rank(_by_id("A3")["++-"]) is None
    assert split_rank(_by_id("A2")["+-"]) == 1
    assert split_rank(_by_id("B2")["-+"]) == 2
    assert split_rank(_by_id("D4")["+-++"]) == 4
    assert split_rank(_by_id("A1")["-"]) == 1


def test_k_subsystem_inner_only():
    with pytest.raises(ValueError):
        k_subsystem(_by_id("A2")["(12)"])


def test_torus_fixed_dim():
    assert torus_fixed_dim(_by_id("A3")["(13):+"]) == 2
    assert torus_fixed_dim(_by_id("A3")["+-+"]) == 3
    assert torus_fixed_dim({c.class_id: c for c in _classes("E6")}["(16)(35):+-"]) == 4


def test_dim_identity_imaginary_plus_complex():
    for type_str in ["A3", "D4", "F4"]:
        for cls in _classes(type_str):
            compact, noncompact, cplx = root_counts(cls)
            assert compact + noncompact + cplx == len(cls.rs.roots)
            assert fixed_group_dim(cls) + (noncompact + cplx // 2) == cls.rs.dim_group() - (
                cls.rs.rank - torus_fixed_dim(cls)
            )


def test_preconditions_survive_optimized_mode():
    # python -O strips assert statements; the classify and chevalley checks
    # must raise all the same
    script = """
from quasisplit.chevalley import ChevalleyError, structure_constants
from quasisplit.classify import indexed_grading, k_subsystem
from quasisplit.involution import enumerate_involution_classes
from quasisplit.rootdata import build_root_system
by_id = {c.class_id: c for c in enumerate_involution_classes(build_root_system("A3"))}
outer, inner = by_id["(13):+"], by_id["+-+"]
calls = [
    lambda: k_subsystem(outer),
    lambda: indexed_grading(inner, (1, 1, 1)),
    lambda: structure_constants(build_root_system("A2")).n((1, 0), (1, 1)),
]
for call in calls:
    try:
        call()
    except (ValueError, ChevalleyError):
        continue
    raise SystemExit("check did not raise")
print("ok")
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
