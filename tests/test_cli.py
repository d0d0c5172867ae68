import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solweights
from solweights.cli import main

# the directory that holds the solweights package, so `python -m solweights`
# resolves in a child process without an installed package
SRC = Path(solweights.__file__).parents[1]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_table_def0(capsys):
    code, out = run_cli(["table-def0"], capsys)
    assert code == 0
    assert out.count("[PASS]") == 13
    assert "[FAIL]" not in out


def test_weights_f0(capsys):
    code, out = run_cli(["--json", "weights", "--system", "F", "--l", "0"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["total"] == 12
    assert all(c["pass"] for c in report["checks"])


def test_weights_h1(capsys):
    code, out = run_cli(["weights", "--system", "H", "--l", "1"], capsys)
    assert code == 0


def test_defect_zero_single_group(capsys):
    code, out = run_cli(["--json", "defect-zero", "--group", "wr(S3,S3)"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["count"] == 1
    assert report["results"]["x_count"] == 1


# class sizes of `defect-zero --json`, in report order
DEFECT_ZERO_CLASS_SIZES = {
    "GL(4,2)": [1, 2520, 105, 210, 1344, 1344, 1680, 1260, 1344, 2880, 3360, 2880, 112, 1120],
    "m324": [1, 6, 27, 9, 18, 6, 18, 36, 18, 27, 54, 6, 2, 18, 54, 6, 18],
    "wr(S3,S3)": [1, 9, 6, 18, 72, 27, 36, 54, 216, 12, 36, 144, 54, 36, 27, 54, 36, 162,
                  108, 8, 108, 72],
}


@pytest.mark.parametrize("spec", DEFECT_ZERO_CLASS_SIZES)
def test_defect_zero_class_order(capsys, spec):
    code, out = run_cli(["--json", "defect-zero", "--group", spec], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["classes"] == [{"size": n, "centralizer_order": results["order"] // n}
                                  for n in DEFECT_ZERO_CLASS_SIZES[spec]]


def test_cohomology_command(capsys):
    code, out = run_cli(["--json", "cohomology", "--group", "m108",
                         "--prime", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["dim"] == 1


def test_lim_commands(capsys):
    for l, criterion in ((0, "b"), (1, "a")):
        code, out = run_cli(["--json", "lim", "--l", str(l)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["criterion"] == criterion


def test_lim_exit_code_follows_verdict(monkeypatch, capsys):
    # lim = 0 and the right criterion, but a failed verification verdict
    from solweights import poset_limits

    monkeypatch.setattr(poset_limits, "verify_lim_A2",
                        lambda l: {"lim_dim": 0, "criterion": "b", "pass": False})
    assert main(["lim", "--l", "0"]) == 1


def test_hasse_dot(capsys):
    code, out = run_cli(["hasse", "--l", "0", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 14


def test_hasse_json_node_count(capsys):
    code, out = run_cli(["hasse", "--l", "1", "--format", "json"], capsys)
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 17


def test_json_determinism_across_runs(capsys):
    reports = []
    for _ in range(2):
        code, out = run_cli(["--json", "defect-zero", "--group", "S6"], capsys)
        assert code == 0
        report = json.loads(out)
        report.pop("timing")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_usage_error_exit_two():
    # there is no --threads option: the program runs in one thread
    for argv in (["no-such-command"], ["--threads", "2", "defect-zero", "--group", "S6"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["weights", "--system", "F", "--l", "-1"],
    ["lim", "--l", "-1"],
    ["hasse", "--l", "-3"],
    ["verify", "quaternion", "--l", "-1"],
    ["verify", "sol", "--l", "x"],
])
def test_bad_level_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "nonnegative integer" in capsys.readouterr().err


def test_verify_sol_reports_skipped_searches(torus_report_l1, spotcheck_report_l1, capsys):
    # the session fixtures fill the memoized reports, so main only reads them
    code, out = run_cli(["--json", "verify", "sol", "--l", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    skipped = report["results"]["skipped"]
    assert skipped and skipped == torus_report_l1["skipped"]
    # the sectional-rank checks follow the torus checks
    sectional = report["checks"][len(torus_report_l1["checks"]):][:4]
    assert [(c["check"], c["l"]) for c in sectional] == [
        ("R0 Frattini quotient rank", 1), ("s(T) = 3", 1), ("s(S/T) = 3 (exhaustive)", 1),
        ("6 <= s(S) <= 6", 1)]


@pytest.mark.parametrize("target, l", [("quaternion", "0"), ("sol", "2")])
def test_verify_level_out_of_range_exit_two(target, l, capsys):
    assert main(["verify", target, "--l", l]) == 2
    assert f"verify {target} requires --l" in capsys.readouterr().err


def test_unknown_group_exit_two(capsys):
    assert main(["defect-zero", "--group", "Q8"]) == 2


@pytest.mark.parametrize("spec", ["GL(1,2)", "GL(0,2)", "C0", "D4", "quat(0)"])
def test_degenerate_group_spec_exit_two(spec, capsys):
    assert main(["defect-zero", "--group", spec]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("group,prime", [("S5", "4"), ("S5", "9"), ("S5", "-3"),
                                         ("A7", "6"), ("S5", "0")])
def test_cohomology_non_prime_exit_two(group, prime, capsys):
    assert main(["cohomology", "--group", group, "--prime", prime]) == 2
    assert "odd prime" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-3", "0", "ten"])
def test_nonpositive_cap_exit_two(monkeypatch, cap, capsys):
    with pytest.raises(SystemExit) as err:
        main(["--cap", cap, "hasse", "--l", "0"])
    assert err.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    monkeypatch.setenv("SOLWEIGHTS_CAP", cap)
    assert main(["hasse", "--l", "0"]) == 2
    assert "positive integer" in capsys.readouterr().err


def test_cap_exceeded_exit_three(capsys):
    # S8 is not cached by any other test, so the tiny cap bites during closure
    assert main(["--cap", "10", "defect-zero", "--group", "S8"]) == 3


@pytest.mark.parametrize("argv,group", [
    (["weights", "--system", "F", "--l", "0"], "A7"),
    (["table-def0"], "GL(4,2)"),
])
def test_cap_stops_descriptor_groups_built_on_first_read(argv, group, capsys):
    # load_tables builds no group; the lowered cap stops the run where the
    # weight count or the table first reads its group
    assert main(["--cap", "1000", "--json", *argv]) == 3
    assert f"closure exceeded cap 1000 while generating {group}" in capsys.readouterr().err


def test_env_cap(monkeypatch, capsys):
    monkeypatch.setenv("SOLWEIGHTS_CAP", "10")
    assert main(["defect-zero", "--group", "S8"]) == 3


def test_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "solweights", "hasse", "--l", "0"],
        capture_output=True, text=True, timeout=120, cwd=SRC)
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph")


def test_cap_bounds_literal_caps_exit_three():
    # a fresh process: in this one the memoized model and reports would be
    # served without any closure running under the cap
    proc = subprocess.run(
        [sys.executable, "-m", "solweights", "--cap", "1000", "verify", "sol", "--l", "0"],
        capture_output=True, text=True, timeout=120, cwd=SRC)
    assert proc.returncode == 3
    assert "closure exceeded cap 1000" in proc.stderr


def test_cap_names_the_l1_closure_that_overran():
    proc = subprocess.run(
        [sys.executable, "-m", "solweights", "verify", "sol", "--l", "1"],
        capture_output=True, text=True, timeout=120, cwd=SRC,
        env={**os.environ, "SOLWEIGHTS_CAP": "1000"})
    assert proc.returncode == 3
    assert "closure exceeded cap 1000 while generating R0" in proc.stderr


def test_lower_cap_reaches_memoized_reports(capsys):
    # the uncapped report is memoized; a later capped call must not reuse it
    assert main(["verify", "quaternion", "--l", "1"]) == 0
    assert main(["--cap", "4", "verify", "quaternion", "--l", "1"]) == 3
