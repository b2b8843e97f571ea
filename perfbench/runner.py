"""Workload process: runs one workload's requests in a closed loop.

Started by ``run.py`` in a fresh interpreter with a fixed ``PYTHONHASHSEED``.
Each request is one ``quasisplit.cli.main([...])`` call with stdout captured,
issued only after the previous one returned.  Before each request every
``functools`` cache found on the package's modules is cleared, so a request
pays what one CLI process pays.  Prints one JSON object with the raw
measurements on its last stdout line.

    python3 perfbench/runner.py --workload classes --seed 1 --seconds 10 --trace 0
    python3 perfbench/runner.py --probe --workload classes --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import pkgutil
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from calibrate import Sampler, kernel_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CONTROL, generate, load_expected  # noqa: E402


class Package:
    """The package under test, seen only through its public module attributes."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import quasisplit
        import quasisplit.cli

        self.cli = quasisplit.cli
        self.modules = {"quasisplit": quasisplit}
        for info in pkgutil.iter_modules(quasisplit.__path__):
            self.modules[info.name] = importlib.import_module(f"quasisplit.{info.name}")
        # Found by attribute, so caches added to any module later are reset too.
        self.caches = {}
        for mod in self.modules.values():
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    home = value.__module__.removeprefix("quasisplit.")
                    self.caches[f"{home}.{value.__qualname__}"] = value

    def clear_caches(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()

    def cache_counts(self) -> dict:
        return {name: cache.cache_info()[:2] for name, cache in self.caches.items()}

    def call(self, request: list) -> tuple[object, object]:
        """(exit status, stdout) of one request; an exception is its status.

        The library request returns its result in place of stdout; turn it
        into text with ``library_output`` once the request has been timed.
        """
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if request[0] == "lib":
                    return 0, self._library(request)
                code = self.cli.main(list(request))
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
        except Exception as exc:  # a crash is a failed request, not a failed run
            code = f"exception {type(exc).__name__}: {exc}"
        return code, out.getvalue()

    def _library(self, request: list) -> tuple:
        _, name, type_str = request
        if name != "all_chambers":
            raise ValueError(f"unknown library request {name!r}")
        rs = self.modules["rootdata"].build_root_system(type_str)
        return self.modules["weyl"].all_chambers(rs), rs


def library_output(result: tuple) -> str:
    chambers, rs = result
    distinct = len({ch.images for ch in chambers})
    return f"{distinct} distinct chambers, weyl group order {rs.weyl_group_order()}\n"


def run_pass(pkg: Package, requests: list, gate_outputs: dict, tracer=None) -> dict:
    """One closed-loop pass; outputs are checked after the pass is timed.

    Latencies are (start, end, seconds) on the calibration sampler's clock,
    which leaves the sampler's own time out; the pass time is the sum of
    the seconds.
    """
    latencies, results = [], []
    with Sampler() as sampler:
        if tracer is not None:
            tracer.begin_pass(sampler.clock)
        for index, request in enumerate(requests):
            pkg.clear_caches()
            if tracer is not None:
                tracer.begin_request(index)
            t0 = sampler.clock()
            code, stdout = pkg.call(request)
            t1 = sampler.clock()
            latencies.append((t0, t1, t1 - t0))
            if tracer is not None:
                tracer.end_request(pkg.cache_counts())
            if request[0] == "lib" and code == 0:
                stdout = library_output(stdout)
            results.append((code, stdout))
    kernels = sampler.samples or [(sampler.clock(), kernel_seconds())]
    if tracer is not None:
        tracer.end_pass(kernels)
    failures = []
    for request, (code, stdout) in zip(requests, results):
        reason = gate.check(request, code, stdout, gate_outputs)
        if reason:
            failures.append(f"{' '.join(request)}: {reason}")
    return {"wall_s": sum(t for _, _, t in latencies), "latencies": latencies,
            "kernels": kernels, "failures": failures}


def measure(pkg: Package, requests: list, seconds: float, gate_outputs: dict, tracer=None) -> dict:
    """Passes until the measuring time is spent.

    With a tracer, untraced and traced passes alternate, so the traced
    breakdown and the tracing overhead come from the same stretch of time.
    """
    code, stdout = pkg.call(CONTROL)
    control = gate.check(CONTROL, code, stdout, gate_outputs)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(pkg, requests, gate_outputs))
        if tracer is not None:
            traced.append(run_pass(pkg, requests, gate_outputs, tracer))
        cycle = statistics.median(p["wall_s"] for p in plain)
        if traced:
            cycle += statistics.median(p["wall_s"] for p in traced)
        # A pass always runs to its end, so stop before one would overrun.
        if time.perf_counter() - start + cycle > seconds:
            break
    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    if control:
        failures.append(f"{' '.join(CONTROL)}: {control}")
    return {
        "measured_s": time.perf_counter() - start,
        "pass_wall_s": [p["wall_s"] for p in plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "latencies_s": [p["latencies"] for p in plain],
        "kernel_s": [p["kernels"] for p in plain],
        "traced_latencies_s": [p["latencies"] for p in traced],
        "traced_kernel_s": [p["kernels"] for p in traced],
        "attempted": sum(len(p["latencies"]) for p in passes) + 1,
        "failed": len(failures),
        "failures": failures[:20],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="import the CLI, generate the inputs and exit (set-up time)")
    args = parser.parse_args(argv)

    pkg = Package()
    expected = load_expected()
    requests = generate(args.workload, args.seed, expected)
    if args.probe:
        return 0
    tracer = Tracer(pkg) if args.trace else None
    result = measure(pkg, requests, args.seconds, expected["outputs"], tracer)
    result["requests_per_pass"] = len(requests)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layer_metrics(result)
        result["spans"] = tracer.span_count
        result["cache_info"] = dict(sorted(tracer.cache_totals.items()))
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        result["trace_file"] = str(tracer.dump(trace_dir / f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
