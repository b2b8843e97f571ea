"""Tests of the benchmark itself: the gate must catch wrong outputs.

    python3 -m pytest perfbench -q
"""

import time

import calibrate
import gate
import pytest
from runner import Package, run_pass
from tracing import Tracer
from workloads import (
    CONTROL,
    WORKLOADS,
    exhaustive_request,
    generate,
    load_expected,
    request_key,
    sweep_request,
)

EXPECTED = load_expected()
OUTPUTS = EXPECTED["outputs"]


@pytest.fixture(scope="module")
def pkg():
    return Package()


class CorruptingPackage:
    """Delegates to the real package and flips one character of stdout."""

    def __init__(self, pkg):
        self.pkg = pkg

    def clear_caches(self):
        self.pkg.clear_caches()

    def call(self, request):
        code, stdout = self.pkg.call(request)
        return code, stdout[:-2] + ("x" if stdout[-2:-1] != "x" else "y") + stdout[-1:]


@pytest.mark.parametrize("seed", range(12))
def test_every_generated_request_has_a_recorded_answer(seed):
    for workload in WORKLOADS:
        requests = generate(workload, seed, EXPECTED)
        assert requests == generate(workload, seed, EXPECTED)
        for request in requests:
            assert request_key(request) in OUTPUTS, request


def test_recorded_outputs_pass_the_gate(pkg):
    requests = generate("classes", 3, EXPECTED)[:12] + [CONTROL]
    result = run_pass(pkg, requests, OUTPUTS)
    assert result["failures"] == []


def test_corrupted_output_counts_as_failed(pkg):
    requests = generate("classes", 3, EXPECTED)[:12]
    result = run_pass(CorruptingPackage(pkg), requests, OUTPUTS)
    failed_frac = len(result["failures"]) / len(requests)
    assert failed_frac > 0
    assert all("differs from the recorded" in f for f in result["failures"])


def test_wrong_exit_status_counts_as_failed():
    request = ["involutions", "A3"]
    assert "differs" in gate.check(request, 0, "", OUTPUTS)
    assert "exit status" in gate.check(request, 2, "", OUTPUTS)
    assert "exception" in gate.check(request, "exception ValueError: x", "", OUTPUTS)


def test_verify_without_scope_or_pairs_is_not_a_pass():
    request = sweep_request(0)
    empty = "PASS imaginary-signs\n  0 surviving (class, chamber) pairs checked\n"
    assert "scope" in gate.check_verify(request, empty)
    scoped = "PASS imaginary-signs\n" + "".join(
        f"  {t}: sampled (150 chambers, seed 0), 3 classes\n"
        for t in gate.simple_types_up_to(6)
    )
    assert "no (class, chamber) pair" in gate.check_verify(
        request, scoped + "  0 surviving (class, chamber) pairs checked\n"
    )
    assert gate.check_verify(request, scoped + "  5 surviving (class, chamber) pairs checked\n") is None
    assert "did not pass" in gate.check_verify(exhaustive_request(), "FAIL imaginary-signs\n")


def test_fault_injection_must_report_its_violation(pkg):
    code, stdout = pkg.call(CONTROL)
    assert gate.check(CONTROL, code, stdout, OUTPUTS) is None
    silent = stdout.replace("produced 1 violation", "produced 0 violation")
    assert silent != stdout
    assert "planted fault" in gate.check_verify(CONTROL, silent)


def test_incomplete_chamber_enumeration_is_rejected():
    assert gate.check_chambers("23040 distinct chambers, weyl group order 23040\n") is None
    assert gate.check_chambers("23039 distinct chambers, weyl group order 23040\n")


def test_tracing_keeps_outputs_and_restores_bindings(pkg):
    requests = generate("classes", 5, EXPECTED)[:20]
    before = {name: dict(vars(mod)) for name, mod in pkg.modules.items()}
    tracer = Tracer(pkg)
    try:
        traced = run_pass(pkg, requests, OUTPUTS, tracer)
    finally:
        tracer.restore()
    assert traced["failures"] == []
    assert {name: dict(vars(mod)) for name, mod in pkg.modules.items()} == before
    layers = tracer.passes[0]
    assert layers["rootdata.build_ms"] > 0 and layers["cli.self_ms"] > 0
    assert all(v >= 0 for v in layers.values())
    assert tracer.span_count > len(requests)


def test_calibration_scales_each_request_by_the_samples_around_it():
    ref = calibrate.REFERENCE_S
    samples = [(0.0, ref), (0.1, ref), (5.0, 2 * ref), (5.1, 2 * ref)]
    fast, slow = calibrate.calibrated([(0.0, 0.1, 1.0), (5.0, 5.1, 1.0)], samples)
    assert fast == pytest.approx(1.0) and slow == pytest.approx(0.5)


def test_sampler_clock_leaves_out_the_sampler():
    with calibrate.Sampler() as sampler:
        t0, p0 = sampler.clock(), time.perf_counter()
        while time.perf_counter() < p0 + 0.3:
            pass
        t1, p1 = sampler.clock(), time.perf_counter()
    assert len(sampler.samples) >= 3
    assert (p1 - p0) - (t1 - t0) == pytest.approx(sampler.stolen, abs=1e-3)
