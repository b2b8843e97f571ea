"""Correctness gate: every output is compared with the one recorded at the
seed commit, and verify outputs must also show that something was checked.

This module never imports the package, so its tests can feed it corrupted
outputs directly.
"""

from __future__ import annotations

import hashlib
import re

from workloads import request_key, simple_types_up_to

_PAIRS = re.compile(r"^  (\d+) surviving \(class, chamber\) pairs checked$", re.M)
_FAULTS = re.compile(r"^  fault injection produced (\d+) violation\(s\)$", re.M)
_CHAMBERS = re.compile(r"^(\d+) distinct chambers, weyl group order (\d+)$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(request: list, code, stdout: str, outputs: dict) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    recorded = outputs.get(request_key(request))
    if recorded is None:
        return "no recorded output for this request"
    if code != recorded["exit"]:
        return f"exit status {code!r}, recorded {recorded['exit']!r}"
    if digest(stdout) != recorded["sha256"]:
        return "stdout differs from the recorded output"
    if request[0] == "verify":
        return check_verify(request, stdout)
    if request[0] == "lib":
        return check_chambers(stdout)
    return None


def check_verify(request: list, stdout: str) -> str | None:
    """A verify verdict counts only with its full scope and a nonzero pair count."""
    max_rank = int(request[request.index("--max-rank") + 1])
    lines = stdout.splitlines()
    if not lines or lines[0] != "PASS imaginary-signs":
        return "verify did not pass"
    scope = [ln.split(":")[0].strip() for ln in lines[1:] if re.match(r"^  [A-G]\d+: ", ln)]
    if scope != simple_types_up_to(max_rank):
        return f"verify scope {scope} is not every simple type of rank <= {max_rank}"
    pairs = _PAIRS.search(stdout)
    if not pairs or int(pairs.group(1)) == 0:
        return "verify checked no (class, chamber) pair"
    if "--inject-fault" in request:
        faults = _FAULTS.search(stdout)
        if not faults or int(faults.group(1)) == 0:
            return "the planted fault was not reported"
    return None


def check_chambers(stdout: str) -> str | None:
    m = _CHAMBERS.match(stdout.strip())
    if not m or m.group(1) != m.group(2):
        return f"chamber enumeration is not the whole Weyl group: {stdout.strip()!r}"
    return None
