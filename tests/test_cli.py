import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quasisplit
from quasisplit.chevalley import pinned_signs, structure_constants
from quasisplit.classify import k_subsystem
from quasisplit.cli import _class_record, _render_table, main
from quasisplit.involution import enumerate_involution_classes, merge_diagram_conjugates
from quasisplit.rootdata import build_root_system, diagram_automorphisms
from quasisplit.verify import simple_types_up_to

from oracles import pinned_signs_by_vectors


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_involutions_a2_table(capsys):
    code, out, err = run_cli(capsys, "involutions", "A2")
    assert code == 0 and not err
    assert out == (
        "root system A2: dim 8, 3 involution classes\n"
        "class  theta0  grading  orbit  quasi-split  dim-fixed  real-form\n"
        "++     1       ++       1      no           8          compact\n"
        "+-     1       +-       3      yes          4          su(2,1)\n"
        "(12)   (12)             1      yes          3          sl(3,R)\n"
    )


def test_involutions_output_is_deterministic(capsys):
    first = run_cli(capsys, "involutions", "E6", "--json")
    second = run_cli(capsys, "involutions", "E6", "--json")
    assert first == second
    assert first[0] == 0


def test_involutions_json_schema(capsys):
    code, out, _ = run_cli(capsys, "involutions", "D4", "--json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 11
    keys = {
        "class_id", "theta0", "grading", "orbit_size", "quasi_split", "dim_group",
        "dim_fixed", "dim_torus_fixed", "compact_imaginary", "noncompact_imaginary",
        "complex_roots", "split_rank", "k_type", "real_form", "root_system",
    }
    for rec in records:
        assert set(rec) == keys
    assert sum(r["orbit_size"] for r in records if r["theta0"] == "1") == 16


def test_involutions_merge(capsys):
    code, out, _ = run_cli(capsys, "involutions", "D4", "--merge-diagram-conjugate")
    assert code == 0
    assert "5 classes up to diagram conjugacy" in out
    assert "+++- ++-+ ++--" in out
    assert "(34):+- (13):+- (14):+-" in out


# Every simple type of rank <= 8, and products with central tori.
TABLE_TYPES = simple_types_up_to(8) + ["A1+T1+A1", "G2+A1+T1", "D4+A2", "E6+A2", "A3+A1+T2"]


def _reference_table(type_str: str, merged: bool) -> list[str]:
    """The table's lines, every cell read from the full record of its class."""
    rs = build_root_system(type_str)
    if merged:
        groups = merge_diagram_conjugates(rs)
        rows = []
        for rep, ids in groups:
            rec = _class_record(rep)
            rows.append([
                rec["class_id"] or "1", str(len(ids)), "yes" if rec["quasi_split"] else "no",
                str(rec["dim_fixed"]), rec["real_form"], " ".join(i or "1" for i in ids),
            ])
        head = f"root system {rec['root_system']}: {len(groups)} classes up to diagram conjugacy"
        columns = ["class", "size", "quasi-split", "dim-fixed", "real-form", "members"]
    else:
        classes = enumerate_involution_classes(rs)
        rows = []
        for cls in classes:
            rec = _class_record(cls)
            rows.append([
                rec["class_id"] or "1", rec["theta0"], rec["grading"], str(rec["orbit_size"]),
                "yes" if rec["quasi_split"] else "no", str(rec["dim_fixed"]), rec["real_form"],
            ])
        head = (
            f"root system {rec['root_system']}: dim {rec['dim_group']},"
            f" {len(classes)} involution classes"
        )
        columns = ["class", "theta0", "grading", "orbit", "quasi-split", "dim-fixed", "real-form"]
    return [head, *_render_table(columns, rows).splitlines()]


@pytest.mark.parametrize("type_str", TABLE_TYPES)
def test_tables_match_the_full_class_records(capsys, type_str):
    for flags in ([], ["--merge-diagram-conjugate"]):
        code, out, err = run_cli(capsys, "involutions", type_str, *flags)
        assert code == 0 and not err
        assert out.splitlines() == _reference_table(type_str, merged=bool(flags)), flags


@pytest.mark.parametrize("type_str", TABLE_TYPES)
def test_tables_do_not_type_the_compact_subsystem(capsys, type_str):
    # neither table prints k_type, so neither may compute it; with the cache
    # cleared, every call would count as a miss
    for flags in ([], ["--merge-diagram-conjugate"]):
        k_subsystem.cache_clear()
        assert run_cli(capsys, "involutions", type_str, *flags)[0] == 0
        assert k_subsystem.cache_info().misses == 0, flags
    # --json prints k_type, so the probe does see its computation
    k_subsystem.cache_clear()
    assert run_cli(capsys, "involutions", type_str, "--json")[0] == 0
    assert k_subsystem.cache_info().misses > 0


def _clear_package_caches():
    for info in pkgutil.iter_modules(quasisplit.__path__):
        for value in vars(importlib.import_module(f"quasisplit.{info.name}")).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


OUTER_TYPES = ["A5", "D5", "E6", "A2+A2"]


def test_requests_build_no_structure_constants(capsys):
    # pinned_signs reads theta0's minus mask from the diagram, so no request
    # builds the constants; only reading PinnedSigns.signs does
    requests = [["family", "GL-orthogonal", "6"], ["family", "SO-pair", "5", "5"], ["verify"]]
    for type_str in OUTER_TYPES:
        for flags in ([], ["--json"], ["--merge-diagram-conjugate"]):
            requests.append(["involutions", type_str, *flags])
        for cls in enumerate_involution_classes(build_root_system(type_str)):
            if not cls.is_inner:
                requests.append(["report", type_str, "--", cls.class_id])
    for request in requests:
        _clear_package_caches()
        code, out, err = run_cli(capsys, *request)
        assert code == 0 and out and not err, request
        assert structure_constants.cache_info().misses == 0, request
    for type_str in OUTER_TYPES:
        rs = build_root_system(type_str)
        for aut in diagram_automorphisms(rs):
            if aut.is_identity:
                continue
            _clear_package_caches()
            signs = pinned_signs(rs, aut).signs
            assert structure_constants.cache_info().misses == 1
            assert dict(zip(rs.positive_roots, signs)) == pinned_signs_by_vectors(rs, aut)


def test_zero_root_systems(capsys):
    # no roots at all: every root mask is empty (npos == 0)
    code, out, err = run_cli(capsys, "involutions", "T0")
    assert code == 0 and not err
    assert out == (
        "root system T0: dim 0, 1 involution classes\n"
        "class  theta0  grading  orbit  quasi-split  dim-fixed  real-form\n"
        "1      1                1      yes          0          compact\n"
    )
    code, out, err = run_cli(capsys, "involutions", "T2", "--json")
    assert code == 0 and not err
    assert json.loads(out) == [{
        "class_id": "", "compact_imaginary": 0, "complex_roots": 0, "dim_fixed": 2,
        "dim_group": 2, "dim_torus_fixed": 2, "grading": "", "k_type": "T2",
        "noncompact_imaginary": 0, "orbit_size": 1, "quasi_split": True,
        "real_form": "compact", "root_system": "T2", "split_rank": 0, "theta0": "1",
    }]
    code, out, err = run_cli(capsys, "report", "T2", "1")
    assert code == 0 and not err
    assert out == (
        "root_system: T2\nclass_id: \ntheta0: 1\ngrading: \norbit_size: 1\n"
        "quasi_split: True\ndim_group: 2\ndim_fixed: 2\ndim_torus_fixed: 2\n"
        "compact_imaginary: 0\nnoncompact_imaginary: 0\ncomplex_roots: 0\n"
        "split_rank: 0\nk_type: T2\nreal_form: compact\n"
    )


def test_report_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "report", "E6", "(16)(35):+-")
    assert code == 0
    assert "quasi_split: True" in out
    assert "split_rank: 6" in out
    assert "real_form: e6(6)" in out
    code, out, _ = run_cli(capsys, "report", "A3", "+-+", "--json")
    rec = json.loads(out)
    assert rec["dim_fixed"] == 7 and rec["k_type"] == "A1+A1+T1"
    assert rec["real_form"] == "su(2,2)"


def test_report_trivial_display_id(capsys):
    # the A1+A1 outer swap class has an empty grading string; its id falls back to the cycle form
    code, out, _ = run_cli(capsys, "report", "A4", "(14)(23)", "--json")
    assert code == 0
    assert json.loads(out)["real_form"] == "sl(5,R)"


def test_report_unknown_class(capsys):
    code, _, err = run_cli(capsys, "report", "A2", "+++")
    assert code == 2
    assert "no class" in err and "have:" in err


def test_report_leading_minus_id_via_double_dash(capsys):
    code, out, _ = run_cli(capsys, "report", "B2", "--", "-+")
    assert code == 0
    assert "real_form: so(3,2)" in out


def test_report_double_dash_class_id(capsys):
    # the all-minus class of A1+A1 has id "--", written after the "--" separator
    code, out, err = run_cli(capsys, "report", "A1+A1", "--", "--")
    assert code == 0 and not err
    assert out.startswith("root_system: A1+A1\nclass_id: --\ntheta0: 1\ngrading: --\n")
    code, out, _ = run_cli(capsys, "report", "A1+A1", "--json", "--", "--")
    assert code == 0 and json.loads(out)["class_id"] == "--"


def test_bad_type_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["involutions", "Q7"])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("letter", ["A", "T"])
def test_type_number_past_the_digit_limit_exits_2(capsys, letter):
    # int() refuses strings of more than 4300 digits with a ValueError
    with pytest.raises(SystemExit) as exc:
        main(["involutions", letter + "1" * 5000])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"type component {letter}<5000 digits>" in captured.err and not captured.out


@pytest.mark.parametrize(
    "type_str,bound",
    [
        ("A19", "exceeds the bound 18"),
        ("B10+C9", "exceeds the bound 18"),
        ("D4+D4+D4", "exceeds the bound 655360"),
    ],
)
def test_type_over_a_bound_exits_2_before_enumerating(capsys, type_str, bound):
    from quasisplit.involution import enumerate_involution_classes
    from quasisplit.rootdata import diagram_automorphisms

    before = (diagram_automorphisms.cache_info(), enumerate_involution_classes.cache_info())
    with pytest.raises(SystemExit) as exc:
        main(["involutions", type_str, "--merge-diagram-conjugate"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert bound in captured.err and not captured.out
    assert (diagram_automorphisms.cache_info(), enumerate_involution_classes.cache_info()) == before


def test_involutions_past_the_chamber_table_bound(capsys):
    # D12 has more roots than a chamber byte table holds; involutions never
    # builds chambers, so it is unaffected
    code, out, err = run_cli(capsys, "involutions", "D12")
    assert code == 0 and not err and out


def test_family_text(capsys):
    code, out, _ = run_cli(capsys, "family", "SO-pair", "5", "3")
    assert code == 0
    assert "engine_type: D4" in out
    assert "quasi_split: True" in out
    assert "split_rank: 3" in out
    assert "real_form: so(5,3)" in out


def test_family_json(capsys):
    code, out, _ = run_cli(capsys, "family", "GL-linear", "2", "2", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["dim_group"] == 16 and rec["dim_fixed"] == 8
    assert rec["split_rank"] == 2 and rec["real_form"] == "su(2,2)"


def test_family_underscore_alias(capsys):
    dashed = run_cli(capsys, "family", "Sp-GL", "3")
    underscored = run_cli(capsys, "family", "Sp_GL", "3")
    assert dashed == underscored


def test_family_errors(capsys):
    code, _, err = run_cli(capsys, "family", "No-such", "2")
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(capsys, "family", "SO-pair", "5")
    assert code == 2 and "takes 2 parameter" in err
    code, _, err = run_cli(capsys, "family", "SO-pair", "1", "1")
    assert code == 2 and "out of range" in err


def test_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--json")
    assert code == 0
    names = [r["name"] for r in json.loads(out)]
    assert names == sorted(names)
    assert "SO-pair" in names and "GL-linear" in names


def test_verify_counts_and_support(capsys):
    code, out, _ = run_cli(capsys, "verify", "counts", "support", "--max-rank", "3")
    assert code == 0
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 2 and "unknown check" in err


@pytest.mark.parametrize(
    "flags", [["--max-rank", "0"], ["--samples", "0"], ["--samples", "-1"], ["--max-rank", "x"]]
)
def test_verify_rejects_nonpositive_scope(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "imaginary-signs", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "positive integer" in captured.err and not captured.out


def test_verify_rank_over_the_bound_exits_2(capsys):
    from quasisplit.verify import MAX_VERIFY_RANK

    code, out, err = run_cli(capsys, "verify", "support", "--max-rank", str(MAX_VERIFY_RANK + 1))
    assert code == 2 and not out
    assert f"--max-rank {MAX_VERIFY_RANK + 1} exceeds the bound {MAX_VERIFY_RANK}" in err


def test_verify_samples_over_the_bound_exits_2(capsys):
    from quasisplit.verify import MAX_VERIFY_SAMPLES

    flags = ["--samples", str(MAX_VERIFY_SAMPLES + 1)]
    code, out, err = run_cli(capsys, "verify", "imaginary-signs", *flags)
    assert code == 2 and not out
    assert f"--samples {MAX_VERIFY_SAMPLES + 1} exceeds the bound {MAX_VERIFY_SAMPLES}" in err
    # the bound itself is accepted; every group to rank 2 is enumerated, not sampled
    flags = ["--max-rank", "2", "--samples", str(MAX_VERIFY_SAMPLES)]
    code, out, _ = run_cli(capsys, "verify", "imaginary-signs", *flags)
    assert code == 0 and "PASS imaginary-signs" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "counts", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["name"] == "counts" and payload[0]["passed"]


def test_verify_inject_fault_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "imaginary-signs", "--max-rank", "2", "--inject-fault"
    )
    assert code == 0
    assert "fault injection produced" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    from quasisplit import cli as cli_module
    from quasisplit.verify import CheckResult

    monkeypatch.setattr(
        cli_module, "run_checks", lambda *a, **k: [CheckResult("stub", False, ["boom"])]
    )
    code, out, _ = run_cli(capsys, "verify", "counts")
    assert code == 1
    assert "FAIL stub" in out


def test_tool_threads_validation(capsys, monkeypatch):
    monkeypatch.setenv("TOOL_THREADS", "0")
    with pytest.raises(SystemExit) as exc:
        main(["catalog"])
    assert exc.value.code == 2
    capsys.readouterr()
    monkeypatch.setenv("TOOL_THREADS", "junk")
    with pytest.raises(SystemExit) as exc:
        main(["catalog"])
    assert exc.value.code == 2
    capsys.readouterr()
    # a superscript digit passes str.isdigit but not int()
    monkeypatch.setenv("TOOL_THREADS", "\u00b2")
    with pytest.raises(SystemExit) as exc:
        main(["catalog"])
    assert exc.value.code == 2
    assert "TOOL_THREADS must be a positive integer" in capsys.readouterr().err
    monkeypatch.setenv("TOOL_THREADS", "4")
    assert main(["catalog"]) == 0
    capsys.readouterr()
    # an Arabic-Indic three, which int() reads as 3
    monkeypatch.setenv("TOOL_THREADS", "\u0663")
    assert main(["catalog"]) == 0
    capsys.readouterr()


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "quasisplit.cli", "involutions", "B2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "root system B2" in proc.stdout
    assert "so(3,2)" in proc.stdout


def _run_optimized(*args):
    """The CLI under python -O, which strips assert statements."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-O", "-m", "quasisplit.cli", *args],
        capture_output=True, text=True, timeout=60, env=env,
    )


@pytest.mark.parametrize("params", [["SO-pair", "1", "1"], ["GL-linear", "0", "3"]])
def test_family_guards_survive_optimized_mode(params):
    proc = _run_optimized("family", *params)
    assert proc.returncode == 2
    assert "out of range" in proc.stderr and not proc.stdout


def test_verify_scope_checks_survive_optimized_mode():
    proc = _run_optimized("verify", "imaginary-signs", "--max-rank", "0", "--samples", "-1")
    assert proc.returncode == 2 and not proc.stdout


_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
from quasisplit.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("params", [["SO-pair", str(10**12), str(10**12)], ["GL-linear", "1", str(10**12)]])
def test_family_rank_past_the_bound_exits_2_before_building(params):
    # a grading of length 10**12 would need terabytes; the child process is
    # held to 256 MiB of address space, so building one fails instead of
    # taking the machine's memory
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "family", *params],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 2, proc.stderr
    assert "out of range" in proc.stderr and not proc.stdout
