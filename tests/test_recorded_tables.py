"""Every recorded `involutions` request replays to its recorded output.

perfbench/expected.json holds the exit status and the SHA-256 of stdout of
every request the benchmark can send, recorded at the commit whose outputs
define "correct".  This runs each recorded `involutions` request (plain,
--json and --merge-diagram-conjugate; every simple type of rank <= 8, the
rank 9-10 types and the products) in-process and compares it through the
benchmark's own gate, loaded unchanged.
"""

import importlib.util
import json
from pathlib import Path

from quasisplit.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_gate(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # gate imports its sibling workloads
    spec = importlib.util.spec_from_file_location("perfbench_gate", PERFBENCH / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorded_involutions_requests_replay(monkeypatch, capsys):
    gate = _load_gate(monkeypatch)
    with open(PERFBENCH / "expected.json") as f:
        outputs = json.load(f)["outputs"]
    requests = [key.split(" ") for key in outputs if key.startswith("involutions ")]
    assert len(requests) == 147
    assert {"--json", "--merge-diagram-conjugate"} <= {flag for r in requests for flag in r[2:]}
    failures = []
    for request in requests:
        try:
            code = main(request)
        except SystemExit as exc:
            code = exc.code
        why = gate.check(request, code, capsys.readouterr().out, outputs)
        if why is not None:
            failures.append((" ".join(request), why))
    assert failures == []
