"""Per-layer spans and counters, recorded from outside the package.

The public functions listed in ``SPANNED`` are wrapped at every binding
site: module attributes (modules import names directly, e.g.
``verify.random_chambers``), tuples inside module-level dicts (the catalog's
``FAMILIES`` table) and class attributes.  Each span records name, start,
end, parent span and request id; spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover; the request's own self time is ``cli.self_ms``: argparse,
rendering and JSON.  Hot per-root functions are counted, not spanned.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from collections import defaultdict

from calibrate import calibrated

# (module, attribute or Class.method) -> layer metric that gets its self time.
SPANNED = {
    ("rootdata", "build_root_system"): "rootdata.build_ms",
    ("rootdata", "diagram_automorphisms"): "rootdata.automorphisms_ms",
    ("chevalley", "structure_constants"): "chevalley.constants_ms",
    ("chevalley", "pinned_signs"): "chevalley.pinned_ms",
    ("involution", "enumerate_involution_classes"): "involution.enumerate_ms",
    ("involution", "merge_diagram_conjugates"): "involution.merge_ms",
    ("classify", "classify_involution"): "classify.summary_ms",
    ("classify", "fixed_group_dim"): "classify.summary_ms",
    ("classify", "split_rank"): "classify.summary_ms",
    ("catalog", "gl_linear"): "catalog.family_ms",
    ("catalog", "u_pair"): "catalog.family_ms",
    ("catalog", "gl_symplectic"): "catalog.family_ms",
    ("catalog", "gl_orthogonal"): "catalog.family_ms",
    ("catalog", "sp_gl"): "catalog.family_ms",
    ("catalog", "so_gl"): "catalog.family_ms",
    ("catalog", "so_pair"): "catalog.family_ms",
    ("catalog", "sp_pair"): "catalog.family_ms",
    ("catalog", "real_form_label"): "catalog.label_ms",
    ("weyl", "random_chambers"): "weyl.random_ms",
    ("weyl", "all_chambers"): "weyl.all_ms",
    ("weyl", "Chamber.w_positive_roots"): "weyl.w_positive_ms",
    ("verify", "check_imaginary_signs"): "verify.sweep_ms",
}
COUNTED = {
    ("classify", "admits_generic_character"): "classify.generic_calls",
}
REQUEST_SELF = "cli.self_ms"

_SCOPE = re.compile(r"^[A-G]\d+: (?:exhaustive|sampled) \((\d+) chambers")
_PAIRS = re.compile(r"^(\d+) surviving \(class, chamber\) pairs checked$")


# Work counts read from a spanned function's return value, per distinct
# result object of a request (a cache hit returns the same object).
RESULT_COUNTS = {
    "rootdata.automorphisms_ms": lambda auts: {"rootdata.automorphisms_found": len(auts)},
    "chevalley.pinned_ms": lambda signs: {"chevalley.pinned_tables": int(not signs.aut.is_identity)},
    "involution.enumerate_ms": lambda classes: {
        "involution.classes": len(classes),
        "involution.sign_vectors": sum(c.orbit_size for c in classes),
    },
    "weyl.random_ms": lambda chambers: {
        "weyl.chambers_generated": len(chambers),
        "weyl.chambers_distinct": len({ch.images for ch in chambers}),
    },
    "verify.sweep_ms": lambda check: _sweep_counts(check.details),
}
COUNTERS = (
    "rootdata.automorphisms_found", "chevalley.pinned_tables", "involution.classes",
    "involution.sign_vectors", "weyl.chambers_generated", "weyl.chambers_distinct",
    "verify.pairs_scanned", "verify.chambers_swept",
)


def _sweep_counts(details: list[str]) -> dict:
    """Chambers and surviving pairs, parsed from the check's detail lines."""
    chambers = pairs = 0
    for line in details:
        if m := _SCOPE.match(line):
            chambers += int(m.group(1))
        elif m := _PAIRS.match(line):
            pairs += int(m.group(1))
    return {"verify.pairs_scanned": pairs, "verify.chambers_swept": chambers}


def _calibrated_pass_ms(passes: list, samples: list) -> float:
    """Median pass time in calibrated ms."""
    return statistics.median(sum(calibrated(reqs, k)) for reqs, k in zip(passes, samples)) * 1000


class Tracer:
    """Installs the wrappers on construction; ``restore`` takes them off."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list = []
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.request = None
        self.stack: list = []
        self.results: dict = {}
        self.passes: list[dict] = []
        self.pass_requests: list = []
        self.current: dict = defaultdict(float)
        self.clock = time.perf_counter
        self.cache_totals: dict = defaultdict(lambda: [0, 0])
        self._undo: list = []
        for (mod, attr), metric in SPANNED.items():
            self._install(mod, attr, self._span_wrapper, metric)
        for (mod, attr), metric in COUNTED.items():
            self._install(mod, attr, self._count_wrapper, metric)

    @property
    def span_count(self) -> int:
        return len(self.spans)

    # -- wrapping ---------------------------------------------------------

    def _install(self, mod: str, attr: str, make, metric: str) -> None:
        module = self.pkg.modules[mod]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = getattr(cls, meth)
            setattr(cls, meth, make(f"{mod}.{attr}", metric, original))
            self._undo.append((setattr, cls, meth, original))
            return
        original = getattr(module, attr)
        wrapper = make(f"{mod}.{attr}", metric, original)
        for scope in self.pkg.modules.values():
            for key, value in list(vars(scope).items()):
                if value is original:
                    setattr(scope, key, wrapper)
                    self._undo.append((setattr, scope, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and any(x is original for x in v):
                            value[k] = tuple(wrapper if x is original else x for x in v)
                            self._undo.append((dict.__setitem__, value, k, v))

    def restore(self) -> None:
        for setter, target, key, original in reversed(self._undo):
            setter(target, key, original)
        self._undo.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _span_wrapper(self, name: str, metric: str, fn):
        tracer = self
        name_id = self._name_id(name)
        keep = metric in RESULT_COUNTS

        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [span_id, 0.0]
            tracer.stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer.stack.pop()
                parent = tracer.stack[-1]
                parent[1] += end - start
                tracer.spans[span_id] = (name_id, start, end, parent[0], tracer.request)
                tracer.current[metric] += end - start - frame[1]
            if keep:
                tracer.results.setdefault(metric, {})[id(result)] = result
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, metric: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request is not None:
                tracer.current[metric] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- requests and passes ----------------------------------------------

    def begin_pass(self, clock) -> None:
        """Spans of this pass are timed on ``clock`` (the sampler's)."""
        self.clock = clock
        self.pass_requests = []

    def end_pass(self, samples: list) -> None:
        """Sum the pass's requests, times scaled by the calibration samples."""
        factors = calibrated([(start, end, 1.0) for start, end, _ in self.pass_requests], samples)
        totals: dict = defaultdict(float)
        for (_, _, layers), factor in zip(self.pass_requests, factors):
            for key, value in layers.items():
                totals[key] += value * factor if key.endswith("_ms") else value
        self.passes.append(dict(totals))

    def begin_request(self, index: int) -> None:
        self.request = (len(self.passes), index)
        self.current = defaultdict(float)
        span_id = len(self.spans)
        self.spans.append(None)
        self.stack = [[span_id, 0.0]]
        self._request_start = self.clock()

    def end_request(self, cache_counts: dict) -> None:
        end = self.clock()
        span_id, child = self.stack.pop()
        self.spans[span_id] = (self._name_id("request"), self._request_start, end, None, self.request)
        self.current[REQUEST_SELF] += end - self._request_start - child
        self.request = None
        for metric, kept in self.results.items():
            for result in kept.values():
                for key, value in RESULT_COUNTS[metric](result).items():
                    self.current[key] += value
        self.results = {}
        self.pass_requests.append((self._request_start, end, self.current))
        for name, (hits, misses) in cache_counts.items():
            self.cache_totals[name][0] += hits
            self.cache_totals[name][1] += misses

    # -- results ----------------------------------------------------------

    def layer_metrics(self, measured: dict) -> dict:
        """Medians over traced passes, times in calibrated ms (see
        calibrate.py); ratios over all traced passes."""
        keys = sorted({k for p in self.passes for k in p} | set(SPANNED.values())
                      | set(COUNTED.values()) | set(COUNTERS) | {REQUEST_SELF})
        out = {}
        for key in keys:
            values = [p.get(key, 0.0) for p in self.passes]
            scale = 1000.0 if key.endswith("_ms") else 1.0
            out[key] = statistics.median(values) * scale

        def total(key: str) -> float:
            return sum(p.get(key, 0) for p in self.passes)

        generated = total("weyl.chambers_generated")
        out["weyl.distinct_ratio"] = total("weyl.chambers_distinct") / generated if generated else 0.0
        swept = total("verify.chambers_swept")
        out["verify.pairs_per_chamber"] = total("verify.pairs_scanned") / swept if swept else 0.0
        for name, (hits, misses) in sorted(self.cache_totals.items()):
            calls = hits + misses
            out[f"cache.{name}.hit_ratio"] = hits / calls if calls else 0.0
        plain = _calibrated_pass_ms(measured["latencies_s"], measured["kernel_s"])
        traced = _calibrated_pass_ms(measured["traced_latencies_s"], measured["traced_kernel_s"])
        out["trace.pass_ms"] = traced
        out["trace.overhead_frac"] = traced / plain - 1.0
        return out

    def dump(self, path):
        """Write every span as [name, start, end, parent, request]."""
        with open(path, "w") as f:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, f)
        return path
