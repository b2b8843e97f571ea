import ast

import pytest

from quasisplit import verify, weyl
from quasisplit.classify import IndexedGrading
from quasisplit.involution import enumerate_involution_classes
from quasisplit.rootdata import build_root_system
from quasisplit.verify import (
    CheckResult,
    check_counts,
    check_imaginary_signs,
    check_principal,
    check_support,
    run_checks,
    simple_types_up_to,
    transport_orbit_partition,
)
from quasisplit.weyl import WeylError, all_chambers

from oracles import imaginary_signs_by_pairs


def test_simple_types_up_to():
    assert simple_types_up_to(2) == ["A1", "A2", "B2", "G2"]
    assert simple_types_up_to(4) == ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]
    assert "E8" in simple_types_up_to(8) and "E8" not in simple_types_up_to(7)


def test_transport_partition_matches_enumeration():
    for type_str in ["A2", "A3", "B3", "G2", "D4", "F4"]:
        rs = build_root_system(type_str)
        engine = {frozenset(c.orbit) for c in enumerate_involution_classes(rs) if c.is_inner}
        transport = set(transport_orbit_partition(rs))
        assert engine == transport


def test_check_counts_passes():
    result = check_counts()
    assert result.passed
    assert len(result.details) == 5
    assert all("agree" in d for d in result.details)


def test_check_principal_passes():
    result = check_principal(max_rank=8)
    assert result.passed


def test_check_support_passes():
    result = check_support(max_rank=8)
    assert result.passed


def test_check_imaginary_signs_passes_small():
    result = check_imaginary_signs(max_rank=3)
    assert result.passed
    assert any("exhaustive" in d for d in result.details)


def test_exhaustive_sweep_keeps_one_group(monkeypatch):
    # a sweep reads one coset block of one Weyl group at a time: it fills no
    # all_chambers cache entry and builds no Chamber object
    built = []
    init = weyl.Chamber.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(weyl.Chamber, "__init__", counted)
    before = all_chambers.cache_info()
    result = check_imaginary_signs(max_rank=4, exhaustive=True)
    assert result.passed
    assert all(" exhaustive " in d for d in result.details[:-1])
    assert all_chambers.cache_info() == before
    assert built == []


def test_short_walk_is_refused(monkeypatch):
    # a sweep that covered fewer chambers than the group order it reports
    # must not pass: drop the last coset block of A3 (4 blocks of 6)
    def short(rs):
        return list(weyl.weyl_blocks(rs))[:-1]

    monkeypatch.setattr(verify, "weyl_blocks", short)
    monkeypatch.setattr(verify, "simple_types_up_to", lambda max_rank: ["A3"])
    with pytest.raises(WeylError, match="A3: swept 18 chambers of a group of order 24"):
        check_imaginary_signs(max_rank=3)


def test_empty_sweep_fails():
    # a sweep that checked no (class, chamber) pair has shown nothing
    result = check_imaginary_signs(max_rank=0)
    assert not result.passed
    assert result.details == ["0 surviving (class, chamber) pairs checked"]


def test_fault_injection_is_detected():
    clean = check_imaginary_signs(max_rank=2)
    assert clean.passed
    injected = check_imaginary_signs(max_rank=2, inject_fault=True)
    assert injected.passed  # pass = the detector saw the planted violation
    assert any("fault injection produced" in d for d in injected.details)
    # the planted sign flip shows up as exactly one violation
    assert any("produced 1 violation" in d for d in injected.details)


def test_run_checks_dispatch_and_unknown_name():
    results = run_checks(["counts", "support"], max_rank=3)
    assert [r.name for r in results] == ["counts", "support"]
    assert all(r.passed for r in results)
    with pytest.raises(ValueError):
        run_checks(["nonsense"])


def test_check_result_line_format():
    ok = CheckResult("demo", True, ["detail"])
    assert ok.line() == "PASS demo\n  detail"
    bad = CheckResult("demo", False)
    assert bad.line() == "FAIL demo"


def test_sampled_mode_on_higher_rank():
    # rank 5 pulls in W(B5) of order 3840 > the default cutoff, forcing sampling
    result = check_imaginary_signs(max_rank=5, samples=40, seed=1)
    assert result.passed
    assert any("sampled (40 chambers, seed 1)" in d for d in result.details)


def test_violation_lines_print_words_as_tuples(monkeypatch):
    # a real violation: every imaginary root of A1 "-" and A2 "+-" reads
    # sign +1 while the compact masks, and so the surviving pairs, stay
    # as they are.  A1 is swept exhaustively and A2 sampled.
    def flipped(cls, rep):
        g = IndexedGrading(cls, rep)
        if cls.class_id in ("-", "+-"):
            g.signs = tuple(abs(s) for s in g.signs)
        return g

    monkeypatch.setattr(verify, "indexed_grading", flipped)
    monkeypatch.setattr(verify, "simple_types_up_to", lambda max_rank: ["A1", "A2"])
    monkeypatch.setattr(verify, "DEFAULT_EXHAUSTIVE_CUTOFF", 2)
    result = check_imaginary_signs(max_rank=2, samples=1, seed=0)
    assert not result.passed
    assert result.details == [
        "A1: exhaustive (2 chambers), 2 classes",
        "A2: sampled (1 chambers, seed 0), 3 classes",
        "4 surviving (class, chamber) pairs checked",
        "A1 class - word () root (1,) sign 1",
        "A1 class - word (1,) root (-1,) sign 1",
        "A2 class +- word (2, 2, 1, 2, 2, 2, 2, 2, 2, 1, 1, 2) root (0, 1) sign 1",
        "A2 class +- word (2, 2, 1, 2, 2, 2, 2, 2, 2, 1, 1, 2) root (-1, -1) sign 1",
    ]


@pytest.mark.parametrize(
    "kwargs",
    [
        *(dict(max_rank=6, samples=150, seed=seed) for seed in (0, 1, 2, 3, 5)),
        dict(max_rank=5, exhaustive=True),
        dict(max_rank=3, inject_fault=True),
    ],
    ids=["sampled-0", "sampled-1", "sampled-2", "sampled-3", "sampled-5", "exhaustive", "fault"],
)
def test_sweep_matches_the_pair_by_pair_oracle(kwargs):
    # the chamber-first sweep shares masks, the complex-wall block and the
    # w-simple roots; asking each pair on its own must give the same report
    result = check_imaginary_signs(**kwargs)
    assert (result.passed, result.details) == imaginary_signs_by_pairs(**kwargs)


def _plant_a3_outer_fault(monkeypatch):
    # every imaginary root of the quasi-split outer class (13):- of A3 reads
    # sign +1, with its compact mask, and so its surviving pairs, unchanged
    def flipped(cls, rep):
        g = IndexedGrading(cls, rep)
        if cls.class_id == "(13):-":
            g.signs = tuple(abs(s) for s in g.signs)
        return g

    monkeypatch.setattr(verify, "indexed_grading", flipped)
    monkeypatch.setattr(verify, "simple_types_up_to", lambda max_rank: ["A3"])


def test_outer_class_fault_is_caught(monkeypatch):
    _plant_a3_outer_fault(monkeypatch)
    result = check_imaginary_signs(max_rank=3)
    assert not result.passed
    assert result.details[:2] == ["A3: exhaustive (24 chambers), 5 classes", "24 surviving (class, chamber) pairs checked"]
    assert any(line.startswith("A3 class (13):- word ") for line in result.details[2:])
    # the roots named are the w-simple imaginary roots of each chamber
    assert (result.passed, result.details) == imaginary_signs_by_pairs(max_rank=3)


def test_outer_class_fault_on_drawn_chambers(monkeypatch):
    # the same planted signs on sampled chambers: the lines of an outer
    # class name the drawn words, and the report caps them at 20 lines
    _plant_a3_outer_fault(monkeypatch)
    monkeypatch.setattr(verify, "DEFAULT_EXHAUSTIVE_CUTOFF", 2)
    result = check_imaginary_signs(max_rank=3, samples=20, seed=4)
    assert not result.passed
    assert result.details[0] == "A3: sampled (20 chambers, seed 4), 5 classes"
    lines = result.details[2:]
    assert len(lines) == 20 and all(line.startswith("A3 class (13):- word ") for line in lines)
    assert (result.passed, result.details) == imaginary_signs_by_pairs(max_rank=3, samples=20, seed=4)


@pytest.mark.parametrize(
    "type_str, kind",
    [("A4", "inner"), ("A4", "outer"), ("B4", "inner"), ("D4", "inner"), ("D4", "outer")],
    ids=["A4-inner", "A4-outer", "B4-inner", "D4-inner", "D4-outer"],
)
def test_planted_signs_past_the_first_block(type_str, kind, monkeypatch):
    # every class of one kind reads sign +1 on the roots with a negative
    # coefficient at the last node.  The first coset block is W_{rank-1},
    # which keeps that coefficient, so no wall or w-positive root of its
    # chambers has one: every violation falls in the second block or later.
    # D4 has 11 classes, so its class tests span two packed tables
    rs = build_root_system(type_str)

    def planted(cls, rep):
        g = IndexedGrading(cls, rep)
        if cls.is_inner == (kind == "inner"):
            g.signs = tuple(abs(s) if v[-1] < 0 else s for s, v in zip(g.signs, rs.roots))
        return g

    monkeypatch.setattr(verify, "indexed_grading", planted)
    monkeypatch.setattr(verify, "simple_types_up_to", lambda max_rank: [type_str])
    result = check_imaginary_signs(max_rank=4, exhaustive=True)
    assert (result.passed, result.details) == imaginary_signs_by_pairs(max_rank=4, exhaustive=True)
    assert not result.passed
    lines = result.details[2:]
    assert lines and all(line.startswith(f"{type_str} class ") for line in lines)
    by_class = {c.class_id: c for c in enumerate_involution_classes(rs)}
    assert {by_class[line.split()[2]].is_inner for line in lines} == {kind == "inner"}
    block = len(next(weyl.weyl_blocks(rs))) // len(rs.roots)
    assert block < rs.weyl_group_order()
    # all_chambers is the walk in block order, each chamber with the first
    # reduced word that a violation line prints
    position = {ch.word: k for k, ch in enumerate(all_chambers(rs))}
    for line in lines:
        word = ast.literal_eval(line.split(" word ")[1].split(" root ")[0])
        assert position[bytes(word)] >= block
