"""The names the benchmark's tracer binds must exist on the package.

perfbench/tracing.py wraps package functions by (module, attribute) name; a
renamed or deleted function would only break traced benchmark runs.  This
loads the tracer's tables unchanged and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path

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
