"""Acceptance sweep: eleven end-to-end criteria, one printed line each.

Each criterion prints PASS/FAIL even under pytest capture so the gate is
visible in plain output; the assertion keeps pytest's verdict aligned with
the printed line.
"""

import itertools
import time

import pytest

from quasisplit.catalog import gl_linear, gl_orthogonal, gl_symplectic, so_gl, so_pair, sp_gl, sp_pair
from quasisplit.chevalley import down_string_length, pinned_signs, structure_constants
from quasisplit.classify import classify_involution, split_rank
from quasisplit.involution import enumerate_involution_classes
from quasisplit.rootdata import build_root_system, diagram_automorphisms
from quasisplit.verify import (
    EXPECTED_EXCEPTIONAL_INNER,
    check_counts,
    check_imaginary_signs,
    check_principal,
    simple_types_up_to,
)
from quasisplit.weyl import root_index

from oracles import jacobi_violations


def report(capsys, ok: bool, line: str) -> None:
    with capsys.disabled():
        print(("PASS " if ok else "FAIL ") + line, flush=True)
    assert ok, line


def test_criterion_01_exceptional_counts(capsys):
    result = check_counts()
    ok = result.passed and EXPECTED_EXCEPTIONAL_INNER == {
        "G2": 1,
        "F4": 2,
        "E6": 2,
        "E7": 3,
        "E8": 2,
    }
    report(
        capsys,
        ok,
        "criterion 1: exceptional nontrivial inner class counts match on two routes"
        f" ({', '.join(f'{t}:{n}' for t, n in sorted(EXPECTED_EXCEPTIONAL_INNER.items()))})",
    )


def test_criterion_02_e6_inner_classes(capsys):
    rs = build_root_system("E6")
    inner = [c for c in enumerate_involution_classes(rs) if c.is_inner and not c.is_trivial]
    summaries = [classify_involution(c) for c in inner]
    dims = sorted(s.dim_fixed for s in summaries)
    qs_dims = [s.dim_fixed for s in summaries if s.quasi_split]
    ok = dims == [38, 46] and qs_dims == [38]
    report(
        capsys,
        ok,
        f"criterion 2: E6 inner fixed dims {dims}, quasi-split at {qs_dims}",
    )


def test_criterion_03_e6_outer_classes(capsys):
    rs = build_root_system("E6")
    outer = [c for c in enumerate_involution_classes(rs) if not c.is_inner]
    summaries = {classify_involution(c).dim_fixed: classify_involution(c) for c in outer}
    dims = sorted(summaries)
    big = summaries.get(52)
    small = summaries.get(36)
    ok = (
        dims == [36, 52]
        and big is not None
        and not big.quasi_split
        and small is not None
        and small.quasi_split
        and rs.dim_group() - 52 < 36
    )
    report(
        capsys,
        ok,
        "criterion 3: E6 outer fixed dims [36, 52]; dim-52 class not quasi-split"
        f" and 78 - 52 = {rs.dim_group() - 52} < 36",
    )


def test_criterion_04_gl_linear_quasi_splitness(capsys):
    cases = 0
    ok = True
    for m in range(1, 8):
        for n in range(1, 8):
            if m + n < 2 or m + n > 8:
                continue
            cases += 1
            if gl_linear(m, n).quasi_split != (abs(m - n) <= 1):
                ok = False
    report(
        capsys,
        ok and cases == 28,
        f"criterion 4: GL block pairs quasi-split iff |m-n| <= 1 across {cases} cases",
    )


def test_criterion_05_gl_twisted_families(capsys):
    sympl = [not gl_symplectic(n).quasi_split for n in (2, 3, 4)]
    orth = []
    for n in range(2, 9):
        fam = gl_orthogonal(n)
        orth.append(fam.quasi_split and fam.split_rank == n)
    ok = all(sympl) and all(orth)
    report(
        capsys,
        ok,
        "criterion 5: transpose-inverse families: symplectic twist never quasi-split"
        " (n=2,3,4), plain transpose split of full rank (n=2..8)",
    )


def test_criterion_06_classical_pair_families(capsys):
    so_ok = True
    so_cases = 0
    for m in range(1, 9):
        for n in range(1, 9):
            if m + n < 3 or m + n > 9:
                continue
            so_cases += 1
            fam = so_pair(m, n)
            if fam.quasi_split != (abs(m - n) <= 2):
                so_ok = False
            if fam.quasi_split and fam.split_rank != min(m, n):
                so_ok = False
    sp_ok = all(
        not sp_pair(m, n).quasi_split
        for m in range(1, 4)
        for n in range(1, 4)
        if m + n <= 4
    )
    sp_gl_ok = all(sp_gl(n).quasi_split for n in (2, 3, 4))
    so_gl_ok = all(not so_gl(n).quasi_split for n in (2, 3, 4))
    ok = so_ok and sp_ok and sp_gl_ok and so_gl_ok
    report(
        capsys,
        ok,
        f"criterion 6: orthogonal pairs quasi-split iff |m-n| <= 2 ({so_cases} cases),"
        " symplectic pairs never, Sp/GL always, SO/GL never",
    )


def test_criterion_07_principal_always_quasi_split(capsys):
    result = check_principal(max_rank=8)
    types = simple_types_up_to(8)
    report(
        capsys,
        result.passed,
        f"criterion 7: all-minus grading class quasi-split with three witnesses"
        f" across {len(types)} simple types of rank <= 8",
    )


def test_criterion_08_imaginary_sign_sweep(capsys):
    t0 = time.perf_counter()
    mid = check_imaginary_signs(max_rank=4, exhaustive=True)
    elapsed_mid = time.perf_counter() - t0
    full = check_imaginary_signs(max_rank=6, samples=2000, seed=0)
    fault = check_imaginary_signs(max_rank=2, inject_fault=True)
    scanned = [d for d in full.details if "surviving" in d]
    ok = mid.passed and full.passed and fault.passed and elapsed_mid < 120.0
    report(
        capsys,
        ok,
        "criterion 8: noncompactness of w-simple imaginary roots holds on every"
        f" surviving pair (rank <= 4 exhaustive in {elapsed_mid:.2f}s; rank <= 6"
        f" sampled at 2000 chambers; {scanned[0].strip() if scanned else '?'});"
        " fault injection detected",
    )


def test_criterion_09_chevalley_properties(capsys):
    jacobi_failures = 0
    jacobi_checked = 0
    pair_checks = 0
    sign_checks = 0
    types = simple_types_up_to(7)
    for type_str in types:
        rs = build_root_system(type_str)
        nc = structure_constants(rs)
        failures, triples = jacobi_violations(nc)
        jacobi_failures += failures
        jacobi_checked += triples
        pos = rs.positive_roots
        pos_set = set(pos)
        for a, b in itertools.combinations(pos, 2):
            s = tuple(x + y for x, y in zip(a, b))
            if s in pos_set:
                pair_checks += 1
                assert nc.n(b, a) == -nc.n(a, b)
                assert abs(nc.n(a, b)) == down_string_length(rs, a, b) + 1
        index = root_index(rs).index
        for aut in diagram_automorphisms(rs):
            if aut.order != 2:
                continue
            signs = pinned_signs(rs, aut).signs  # construction asserts well-definedness
            for beta in pos:
                sign_checks += 1
                assert signs[index[beta]] * signs[index[aut.on_root(beta)]] == 1
    ok = jacobi_failures == 0 and jacobi_checked > 0 and pair_checks > 0 and sign_checks > 0
    report(
        capsys,
        ok,
        f"criterion 9: rank <= 7 Chevalley layer exact ({len(types)} simple types, E7 included):"
        f" {jacobi_failures} Jacobi failures in {jacobi_checked} basis triples with weights"
        f" summing into Phi u {{0}}, {pair_checks} constant magnitude/antisymmetry checks,"
        f" {sign_checks} pinned-sign involution checks",
    )


def test_criterion_10_unique_quasi_split_class(capsys):
    ok = True
    checked = 0
    for type_str in simple_types_up_to(8):
        rs = build_root_system(type_str)
        by_aut: dict = {}
        for cls in enumerate_involution_classes(rs):
            by_aut.setdefault(cls.aut, []).append(cls)
        for aut, group in by_aut.items():
            checked += 1
            if sum(1 for c in group if c.quasi_split) != 1:
                ok = False
    report(
        capsys,
        ok,
        f"criterion 10: exactly one quasi-split class per diagram involution,"
        f" {checked} (type, involution) pairs of rank <= 8",
    )


def test_criterion_11_split_rank_spot_checks(capsys):
    orth_ok = True
    for n in range(2, 9):
        fam = gl_orthogonal(n)
        if split_rank(fam.cls) != n - 1 or fam.split_rank != n:
            orth_ok = False
    e6 = build_root_system("E6")
    e6_qs = [
        c for c in enumerate_involution_classes(e6) if not c.is_inner and c.quasi_split
    ]
    e6_ok = len(e6_qs) == 1 and split_rank(e6_qs[0]) == 6
    a2 = build_root_system("A2")
    a2_qs = [c for c in enumerate_involution_classes(a2) if c.is_inner and c.quasi_split]
    a2_ok = len(a2_qs) == 1 and split_rank(a2_qs[0]) == 1
    ok = orth_ok and e6_ok and a2_ok
    report(
        capsys,
        ok,
        "criterion 11: split ranks: transpose family n-1 adjoint / n with center,"
        " E6 outer quasi-split 6, A2 inner quasi-split 1",
    )
