import pytest

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
from quasisplit.weyl import all_chambers


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


def test_exhaustive_sweep_keeps_one_group():
    # a sweep needs one Weyl group at a time; the cache must not hold the rest
    result = check_imaginary_signs(max_rank=4, exhaustive=True)
    assert result.passed
    assert all_chambers.cache_info().currsize <= 1


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
