"""Record the answer of every request the workload generators can produce.

Run at the commit whose outputs define "correct", from the repository root:

    python3 perfbench/record.py

It writes ``perfbench/expected.json``: for each request, the exit status and
the SHA-256 of stdout, plus the class ids that ``report`` requests draw
from.  Every recorded request must exit 0 and pass the gate's own checks,
so that no workload operation fails at the recorded commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
from runner import Package, library_output  # noqa: E402
from workloads import (  # noqa: E402
    CLASSES_PRODUCTS,
    EXPECTED_PATH,
    SIMPLE_TYPES,
    report_request,
    request_key,
    request_pool,
)


def main() -> int:
    pkg = Package()
    outputs: dict = {}

    def record(request: list) -> str:
        pkg.clear_caches()
        code, stdout = pkg.call(request)
        if request[0] == "lib" and code == 0:
            stdout = library_output(stdout)
        outputs[request_key(request)] = {"exit": code, "sha256": gate.digest(stdout)}
        return stdout

    for request in request_pool():
        record(request)
    class_ids = {}
    for t in SIMPLE_TYPES + sorted({t for row in CLASSES_PRODUCTS for t in row}):
        pkg.clear_caches()
        _, stdout = pkg.call(["involutions", t, "--json"])
        # argparse drops a "--" argument even after the "--" guard, so
        # "report T -- --" cannot name that class: a CLI defect, left out.
        class_ids[t] = [rec["class_id"] or "1" for rec in json.loads(stdout)
                        if rec["class_id"] != "--"]
        for cid in class_ids[t]:
            record(report_request(t, cid))

    bad = [key for key, rec in outputs.items() if rec["exit"] != 0]
    with open(EXPECTED_PATH, "w") as f:
        json.dump({"outputs": outputs, "class_ids": class_ids}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(outputs)} requests to {EXPECTED_PATH}")
    if bad:
        print("requests that do not exit 0:", *bad, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
