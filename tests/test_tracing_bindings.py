"""The names the benchmark's tracer binds must exist on the package.

perfbench/tracing.py wraps package functions by (module, attribute) name and
reads counts from some of their return values; a renamed or deleted
function or result attribute would only break traced benchmark runs.  This
loads the tracer's tables unchanged, resolves every name and runs every
result counter on a real return value.
"""

import importlib
import importlib.util
from pathlib import Path

from quasisplit.rootdata import build_root_system, diagram_automorphisms
from quasisplit.weyl import Chamber

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports its sibling calibrate
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    names = list(tracing.SPANNED) + list(tracing.COUNTED)
    assert names
    for mod, attr in names:
        target = importlib.import_module(f"quasisplit.{mod}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{mod}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"{mod}.{attr}"
    # the tracer's chamber counter reads Chamber.images
    assert isinstance(Chamber.images, property)


def _a3_flip():
    rs = build_root_system("A3")
    return rs, next(a for a in diagram_automorphisms(rs) if not a.is_identity)


# Arguments for each spanned function whose return value a RESULT_COUNTS
# entry reads.
RESULT_SAMPLES = {
    ("rootdata", "diagram_automorphisms"): lambda: (build_root_system("D4"),),
    ("chevalley", "pinned_signs"): _a3_flip,
    ("involution", "enumerate_involution_classes"): lambda: (build_root_system("B3"),),
    ("weyl", "random_chambers"): lambda: (build_root_system("B3"), 5, 0),
    ("verify", "check_imaginary_signs"): lambda: (2,),
}


def test_result_counts_read_real_results(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    spanned_by_metric = {}
    for name, metric in tracing.SPANNED.items():
        spanned_by_metric.setdefault(metric, []).append(name)
    assert tracing.RESULT_COUNTS
    for metric, count in tracing.RESULT_COUNTS.items():
        (name,) = spanned_by_metric[metric]
        mod, attr = name
        fn = getattr(importlib.import_module(f"quasisplit.{mod}"), attr)
        counts = count(fn(*RESULT_SAMPLES[name]()))
        assert any(counts.values()) and set(counts) <= set(tracing.COUNTERS), metric
        assert all(isinstance(v, int) and v >= 0 for v in counts.values()), (metric, counts)
