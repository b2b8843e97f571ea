"""Benchmark of the quasisplit CLI: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0
    python3 -m pytest perfbench -q      # the benchmark's own tests

Workloads (see ``workloads.py`` and the ``why`` of each in BENCHMARK.json):
``classes``, ``high-rank``, ``sweep`` and ``exhaustive``.  ``all`` runs them
one after another, each in its own workload process.

Requests run in a closed loop in one single-threaded workload process
(``runner.py``, started with a fixed PYTHONHASHSEED): the next request is
issued when the previous one has returned.  Every output is checked against
the answer recorded at the seed commit (``gate.py``); one fault-injected
verify request per run must report its planted violation.  ``failed_frac``
is printed; the JSON result carries it as ``failed`` / ``attempted``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass over
the request list), ``req_ms_p50``/``req_ms_p90`` over every request of the
run (printed with the sample count and how many lie beyond p90),
``peak_rss_mb`` of the workload process and ``setup_s``, the median over
fresh interpreters that import ``quasisplit.cli`` and generate the inputs.
Times are calibrated against a fixed kernel (``calibrate.py``); the
uncalibrated values are printed next to them.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer breakdown of
``tracing.py``; its spans go to ``.perfbench/trace-<workload>-<seed>.json``.
Each run's full record, environment included, goes to
``.perfbench/result-<workload>-<seed>-<trace>.json``.  The last stdout line
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
HASH_SEED = "0"
SETUP_PROBES = 7
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg_start": os.getloadavg()[0],
        "PYTHONHASHSEED": HASH_SEED,
    }


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    return subprocess.run([sys.executable, str(HERE / "runner.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the CLI and build the
    inputs, and the calibration kernel timed before each of them."""
    times, kernels = [], []
    for _ in range(SETUP_PROBES):
        kernels.append(calibrate.kernel_seconds())
        start = time.perf_counter()
        proc = _worker(["--probe", "--workload", workload, "--seed", str(seed)], 60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return times, kernels


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment()}
    if not trace:
        record["setup_s_samples"], record["setup_kernel_s"] = setup_seconds(workload, seed)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = _worker(args, max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    record.update(raw)
    record["metrics"] = end_to_end(record) if not trace else raw["layers"]
    if not trace:
        record["uncalibrated"] = end_to_end(record, calibrated=False)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{workload}-{seed}-{trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    return record


def end_to_end(record: dict, calibrated: bool = True) -> dict:
    """Times in reference seconds: each request is scaled by the calibration
    samples around it (see calibrate.py).
    With ``calibrated=False``, the seconds as the clock read them."""
    factor = calibrate.scale if calibrated else (lambda kernels: 1.0)
    passes = [calibrate.calibrated(reqs, samples) if calibrated else [t for _, _, t in reqs]
              for reqs, samples in zip(record["latencies_s"], record["kernel_s"])]
    walls = [sum(p) for p in passes]
    lat = [t * 1000 for p in passes for t in p]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    setup = [t * factor([k]) for t, k in zip(record["setup_s_samples"], record["setup_kernel_s"])]
    return {
        "wall_s": statistics.median(walls),
        "req_ms_p50": statistics.median(lat),
        "req_ms_p90": p90,
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }


def describe(record: dict, units: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, plus the checks."""
    name = record["workload"]
    lines = [f"[{name}] env {json.dumps(record['env'], sort_keys=True)}"]
    n = sum(map(len, record["latencies_s"]))
    failed_frac = record["failed"] / record["attempted"]
    lines.append(f"[{name}] {len(record['pass_wall_s'])} passes of {record['requests_per_pass']}"
                 f" requests in {record['measured_s']:.1f} s; attempted {record['attempted']},"
                 f" failed {record['failed']}, failed_frac {failed_frac:.4f}")
    lines += [f"[{name}]   FAILED {f}" for f in record["failures"]]
    if record["trace"]:
        layers = record["metrics"]
        for key in sorted(layers):
            lines.append(f"[{name}] {key} {layers[key]:.6g}")
        for cache, (hits, misses) in record["cache_info"].items():
            lines.append(f"[{name}] cache_info {cache} hits {hits} misses {misses}")
        self_ms = {k: v for k, v in layers.items() if k.endswith("_ms") and k != "trace.pass_ms"}
        traced = layers["trace.pass_ms"]
        top = max(self_ms, key=self_ms.get)
        lines.append(f"[{name}] layer self times sum to {sum(self_ms.values()):.1f} ms of a"
                     f" {traced:.1f} ms traced pass; largest {top} ({self_ms[top] / traced:.0%})")
    else:
        lat = [t for p in record["latencies_s"] for _, _, t in p]
        beyond = sum(t > statistics.quantiles(lat, n=10, method="inclusive")[8] for t in lat) if n > 1 else 0
        for key, value in record["metrics"].items():
            note = f"; n={n}, {beyond} beyond p90" if key == "req_ms_p90" else ""
            lines.append(f"[{name}] {key} {value:.6g} {units[key]}"
                         f" (uncalibrated {record['uncalibrated'][key]:.6g}{note})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "quasisplit" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no quasisplit sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    records = []
    for i, workload in enumerate(workloads):
        share = (DEADLINE_S - (time.monotonic() - start)) / (len(workloads) - i)
        record = run_workload(workload, args.seed, args.seconds, args.trace,
                              time.monotonic() + share)
        records.append(record)
        print("\n".join(describe(record, units)), flush=True)

    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for key in wanted:
            value = record["metrics"].get(key)
            if value is None:
                print(f"warning: metric {key} missing on {record['workload']}", file=sys.stderr)
                value = 0.0
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
