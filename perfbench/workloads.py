"""Request lists of the four benchmark workloads, generated from a seed.

Every request is a CLI argument list for ``quasisplit.cli.main``, except the
single library request ``("lib", "all_chambers", "D6")`` of the exhaustive
workload.  Each generator draws only from the fixed pools below, so the set
of requests any seed can produce is finite and ``expected.json`` holds the
recorded answer of every one of them (see ``record.py``).

Nothing here imports the package: class ids for ``report`` requests come
from the recorded outputs, so the program only ever sees the generated
command lines.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = ("classes", "high-rank", "sweep", "exhaustive")

# Every simple type of rank <= 8.
SIMPLE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# Products of total rank <= 8, one drawn per row so that the seed picks the
# components but never the rank profile (which sets the cost of the
# automorphism search).  Rows mix central tori and repeated components.
CLASSES_PRODUCTS = (
    ("A1+A1", "A1+T1+A1", "A1+A1+T2"),
    ("A2+A1", "A1+A1+A1", "G2+A1+T1"),
    ("A2+A2", "B2+B2", "G2+G2", "A3+A1+T2"),
    ("A3+A3", "D4+A2", "B3+B3+T1", "A2+A2+A2"),
    ("A4+A4", "B4+B4", "E6+A2", "C4+C4+T1", "E7+A1", "A7+A1"),
)

# Products of total rank 9 and 10 with repeated components, one drawn per
# row; the products in a row cost within 10% of each other.
HIGH_RANK_FIXED = ("A9", "B9", "C9", "D9", "A10")
HIGH_RANK_PRODUCTS = (
    ("A3+A3+A3", "B3+B3+B3", "B4+B4+A1", "C4+C4+A1"),
    ("A5+A5", "B5+B5", "C5+C5", "D5+D5", "A4+A4+A2"),
)

# Parameters of every catalog family whose engine root system has rank 1-4,
# low-rank fallbacks included.  Such a request costs at most about the
# median classes request, so the seed's draw barely moves req_ms_p50.
FAMILY_PARAMS = {
    "GL-linear": [(m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5],
    "U-pair": [(m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5],
    "GL-symplectic": [(1,), (2,)],
    "GL-orthogonal": [(n,) for n in range(2, 6)],
    "Sp-GL": [(n,) for n in range(1, 5)],
    "SO-GL": [(n,) for n in range(2, 5)],
    "SO-pair": [(m, n) for m in range(1, 9) for n in range(1, 9) if 3 <= m + n <= 9],
    "Sp-pair": [(m, n) for m in range(1, 4) for n in range(1, 4) if m + n <= 4],
}

SWEEP_MAX_RANK = 6
SWEEP_SAMPLES = 150
SWEEP_SEEDS = 32
EXHAUSTIVE_MAX_RANK = 5
ALL_CHAMBERS_TYPE = "D6"
CONTROL = ["verify", "imaginary-signs", "--max-rank", "3", "--inject-fault"]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def has_diagram_automorphism(type_str: str) -> bool:
    parts = [p for p in type_str.split("+") if not p.startswith("T")]
    if len(set(parts)) < len(parts):
        return True
    return any(
        (p[0] == "A" and int(p[1:]) >= 2) or p[0] == "D" or p == "E6" for p in parts
    )


def simple_types_up_to(max_rank: int) -> list[str]:
    """The scope of ``verify``, in the order its detail lines follow."""
    out = [f"A{n}" for n in range(1, max_rank + 1)]
    out += [f"B{n}" for n in range(2, max_rank + 1)]
    out += [f"C{n}" for n in range(3, max_rank + 1)]
    out += [f"D{n}" for n in range(4, max_rank + 1)]
    out += [f"E{n}" for n in (6, 7, 8) if n <= max_rank]
    if max_rank >= 4:
        out.append("F4")
    if max_rank >= 2:
        out.append("G2")
    return out


def report_request(type_str: str, class_id: str) -> list[str]:
    if class_id.startswith("-"):
        return ["report", type_str, "--", class_id]
    return ["report", type_str, class_id]


def sweep_request(seed: int) -> list[str]:
    return [
        "verify", "imaginary-signs", "--max-rank", str(SWEEP_MAX_RANK),
        "--samples", str(SWEEP_SAMPLES), "--seed", str(seed % SWEEP_SEEDS),
    ]


def exhaustive_request() -> list[str]:
    return ["verify", "imaginary-signs", "--max-rank", str(EXHAUSTIVE_MAX_RANK), "--exhaustive"]


def _classes(rng: random.Random, class_ids: dict) -> list:
    types = SIMPLE_TYPES + [rng.choice(row) for row in CLASSES_PRODUCTS]
    requests = []
    for t in types:
        requests.append(["involutions", t])
        requests.append(["involutions", t, "--json"])
        requests.append(report_request(t, rng.choice(class_ids[t])))
        if has_diagram_automorphism(t):
            requests.append(["involutions", t, "--merge-diagram-conjugate"])
    for name in sorted(FAMILY_PARAMS):
        params = rng.choice(FAMILY_PARAMS[name])
        requests.append(["family", name, *map(str, params)])
    return requests


def generate(workload: str, seed: int, expected: dict | None = None) -> list:
    """The request list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classes":
        expected = expected if expected is not None else load_expected()
        return _classes(rng, expected["class_ids"])
    if workload == "high-rank":
        types = list(HIGH_RANK_FIXED) + [rng.choice(row) for row in HIGH_RANK_PRODUCTS]
        return [["involutions", t] for t in types]
    if workload == "sweep":
        return [sweep_request(seed)]
    if workload == "exhaustive":
        return [exhaustive_request(), ["lib", "all_chambers", ALL_CHAMBERS_TYPE]]
    raise ValueError(f"unknown workload {workload!r}; have: {', '.join(WORKLOADS)}")


def request_pool() -> list:
    """Every request any seed can generate, plus the negative control.

    ``report`` requests are left out: their class ids are only known once
    ``involutions T --json`` has been recorded, so ``record.py`` adds them.
    """
    types = SIMPLE_TYPES + sorted({t for row in CLASSES_PRODUCTS for t in row})
    pool = []
    for t in types:
        pool.append(["involutions", t])
        pool.append(["involutions", t, "--json"])
        if has_diagram_automorphism(t):
            pool.append(["involutions", t, "--merge-diagram-conjugate"])
    for name, params in sorted(FAMILY_PARAMS.items()):
        pool.extend(["family", name, *map(str, p)] for p in params)
    pool.extend(["involutions", t] for t in HIGH_RANK_FIXED)
    pool.extend(["involutions", t] for row in HIGH_RANK_PRODUCTS for t in row)
    pool.extend(sweep_request(s) for s in range(SWEEP_SEEDS))
    pool.append(exhaustive_request())
    pool.append(["lib", "all_chambers", ALL_CHAMBERS_TYPE])
    pool.append(CONTROL)
    return pool


def request_key(request: list) -> str:
    return " ".join(request)
