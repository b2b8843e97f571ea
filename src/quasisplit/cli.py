"""Command-line interface.

Subcommands:
  involutions TYPE     list involution classes of a root system
  report TYPE ID       full invariants of one class
  family NAME N [M]    classical symmetric pair through the engine
  verify [CHECK ...]   run structural checks; nonzero exit on violations
  catalog              list the available classical families

Output is byte-deterministic for fixed arguments; --json switches every
subcommand to machine-readable output.  Diagnostics go to stderr.  The
TOOL_THREADS environment variable is validated for forward compatibility but
the implementation is single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import FAMILIES, real_form_label
from .classify import classify_involution, fixed_group_dim
from .involution import enumerate_involution_classes, grading_string, merge_diagram_conjugates
from .rootdata import RootDataError, build_root_system, type_string
from .verify import CHECKS, DEFAULT_SAMPLES, MAX_VERIFY_RANK, MAX_VERIFY_SAMPLES, run_checks


def _check_tool_threads() -> None:
    raw = os.environ.get("TOOL_THREADS")
    if raw is None:
        return
    try:
        _positive_int(raw)
    except argparse.ArgumentTypeError:
        print(f"TOOL_THREADS must be a positive integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(2)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build(type_str: str):
    try:
        return build_root_system(type_str)
    except RootDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _class_record(cls) -> dict:
    record = dict(vars(classify_involution(cls)))
    record["real_form"] = real_form_label(cls)
    return record


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_record(record: dict) -> None:
    for key, value in record.items():
        print(f"{key}: {value}")


def _display_id(cls) -> str:
    return cls.class_id or "1"


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0)) for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(out)


def cmd_involutions(args) -> int:
    rs = _build(args.type)
    if args.merge_diagram_conjugate:
        groups = merge_diagram_conjugates(rs)
        if args.json:
            _print_json([{"representative": _class_record(rep), "members": list(ids)} for rep, ids in groups])
            return 0
        rows = [
            [
                _display_id(rep),
                str(len(ids)),
                "yes" if rep.quasi_split else "no",
                str(fixed_group_dim(rep)),
                real_form_label(rep),
                " ".join(i or "1" for i in ids),
            ]
            for rep, ids in groups
        ]
        print(f"root system {type_string(rs)}: {len(groups)} classes up to diagram conjugacy")
        print(_render_table(["class", "size", "quasi-split", "dim-fixed", "real-form", "members"], rows))
        return 0
    classes = enumerate_involution_classes(rs)
    if args.json:
        _print_json([_class_record(c) for c in classes])
        return 0
    rows = [
        [
            _display_id(cls),
            cls.aut.cycle_string(),
            grading_string(cls.canonical_rep),
            str(cls.orbit_size),
            "yes" if cls.quasi_split else "no",
            str(fixed_group_dim(cls)),
            real_form_label(cls),
        ]
        for cls in classes
    ]
    print(
        f"root system {type_string(rs)}: dim {rs.dim_group()},"
        f" {len(classes)} involution classes"
    )
    print(_render_table(["class", "theta0", "grading", "orbit", "quasi-split", "dim-fixed", "real-form"], rows))
    return 0


def cmd_report(args) -> int:
    if args.class_id == []:
        # argparse drops a class id "--" written after the "--" separator too,
        # leaving an empty list: report A1+A1 -- --
        args.class_id = "--"
    rs = _build(args.type)
    classes = enumerate_involution_classes(rs)
    matches = [c for c in classes if c.class_id == args.class_id or _display_id(c) == args.class_id]
    if not matches:
        ids = ", ".join(_display_id(c) for c in classes)
        print(f"error: no class {args.class_id!r} in {type_string(rs)}; have: {ids}", file=sys.stderr)
        return 2
    record = _class_record(matches[0])
    if args.json:
        _print_json(record)
    else:
        _print_record(record)
    return 0


def cmd_family(args) -> int:
    name = args.name.replace("-", "_")
    if name not in FAMILIES:
        known = ", ".join(sorted(k.replace("_", "-") for k in FAMILIES))
        print(f"error: unknown family {args.name!r}; have: {known}", file=sys.stderr)
        return 2
    builder, arity = FAMILIES[name]
    if len(args.params) != arity:
        print(f"error: family {args.name} takes {arity} parameter(s)", file=sys.stderr)
        return 2
    try:
        fam = builder(*args.params)
    except ValueError:
        print(f"error: parameters {args.params} out of range for {args.name}", file=sys.stderr)
        return 2
    record = {
        "family": fam.family,
        "params": list(fam.params),
        "ambient": fam.ambient,
        "description": fam.description,
        "engine_type": fam.engine_type,
        "engine_class": _display_id(fam.cls),
        "quasi_split": fam.quasi_split,
        "dim_group": fam.dim_group,
        "dim_fixed": fam.dim_fixed,
        "split_rank": fam.split_rank,
        "real_form": real_form_label(fam.cls),
    }
    if args.json:
        _print_json(record)
    else:
        _print_record(record)
    return 0


def cmd_verify(args) -> int:
    names = list(args.checks) or ["all"]
    if "all" in names:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        print(f"error: unknown check(s) {', '.join(unknown)}; have: {', '.join(CHECKS)}, all", file=sys.stderr)
        return 2
    if args.max_rank > MAX_VERIFY_RANK:
        print(f"error: --max-rank {args.max_rank} exceeds the bound {MAX_VERIFY_RANK}", file=sys.stderr)
        return 2
    if args.samples > MAX_VERIFY_SAMPLES:
        print(f"error: --samples {args.samples} exceeds the bound {MAX_VERIFY_SAMPLES}", file=sys.stderr)
        return 2
    results = run_checks(
        names,
        max_rank=args.max_rank,
        samples=args.samples,
        seed=args.seed,
        exhaustive=args.exhaustive,
        inject_fault=args.inject_fault,
    )
    if args.json:
        _print_json([vars(r) for r in results])
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_catalog(args) -> int:
    rows = []
    for name in sorted(FAMILIES):
        builder, arity = FAMILIES[name]
        doc = (builder.__doc__ or "").strip().splitlines()[0]
        rows.append([name.replace("_", "-"), str(arity), doc])
    if args.json:
        _print_json([{"name": r[0], "arity": int(r[1]), "description": r[2]} for r in rows])
        return 0
    print(_render_table(["family", "arity", "description"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasisplit",
        description="involution classes and quasi-split symmetric spaces of reductive groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("involutions", help="list involution classes of a root system")
    p.add_argument("type", help='type string, e.g. "B3", "D4+A1", "A2+T1"')
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--merge-diagram-conjugate",
        action="store_true",
        help="group classes differing by an ambient diagram automorphism",
    )
    p.set_defaults(func=cmd_involutions)

    p = sub.add_parser("report", help="full invariants of one class")
    p.add_argument("type")
    p.add_argument(
        "class_id",
        help='class id as listed, e.g. "+-+" or "(13):-"; write "--" first '
        'for ids starting with "-", as in: report B2 -- -+',
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("family", help="classical symmetric pair through the engine")
    p.add_argument("name", help="family name, e.g. SO-pair (see catalog)")
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="run structural checks")
    p.add_argument("checks", nargs="*", metavar="check",
                   help=f"checks to run: {', '.join(CHECKS)}, all (default: all)")
    p.add_argument("--max-rank", type=_positive_int, default=6,
                   help=f"largest rank of the imaginary-signs sweep, at most {MAX_VERIFY_RANK};"
                   " principal and support always cover rank <= max(this, 8),"
                   " and counts the five exceptional types")
    p.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES,
                   help=f"random chambers per type too large to enumerate, at most {MAX_VERIFY_SAMPLES}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate every chamber where the Weyl group allows it")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip one sign on purpose; the sweep must then report a violation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list the available classical families")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    _check_tool_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
