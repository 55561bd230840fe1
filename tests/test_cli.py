import json
import re

import pytest

from orbitmoments.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mk_command(capsys):
    code, out, _ = run_cli(capsys, "mk", "--n", "4", "--k", "2")
    assert code == 0
    assert out.strip() == "10"


def test_dk_command(capsys):
    code, out, _ = run_cli(capsys, "dk", "--n", "5", "--d", "-1")
    assert code == 0
    assert out.strip() == "4"


def test_orbits_command(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--action", "gl2:3", "--k", "1")
    assert code == 0
    assert out.strip() == "2"


def test_orbits_json_includes_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "orbits", "--action", "units:6", "--k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["moment"] == payload["oracle"]


def test_orbits_runs_the_oracle_once_on_generator_only_actions(capsys, monkeypatch):
    from orbitmoments import cli, orbit_engine

    calls = []
    oracle = orbit_engine.orbit_count_oracle

    def counted(action, k, **kwargs):
        calls.append((action.descriptor, k))
        return oracle(action, k, **kwargs)

    monkeypatch.setattr(orbit_engine, "orbit_count_oracle", counted)
    monkeypatch.setattr(cli, "orbit_count_oracle", counted)
    code, out, _ = run_cli(
        capsys, "--format", "json", "orbits", "--action", "glm:6,3", "--k", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert calls == [("glm:6,3", 1)]
    assert payload["oracle"] == payload["moment"] == 4


def test_mk_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "mk", "--n", "30", "--k", "4")
    payload = json.loads(out)
    from fractions import Fraction

    from orbitmoments.closed_forms import mk

    assert Fraction(payload["value_num"], payload["value_den"]) == mk(30, 4)


def test_moment_command_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format",
        "json",
        "moment",
        "--scenario",
        "power",
        "--n",
        "4",
        "--a",
        "1",
        "--k",
        "1",
        "--x",
        "10000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted_num"] == 3
    assert payload["pi_x"] == 1229
    from fractions import Fraction

    emp = Fraction(payload["empirical_num"], payload["empirical_den"])
    assert abs(float(emp) - 3) < 0.1


def test_moment_deterministic_output(capsys):
    args = (
        "moment", "--scenario", "power", "--n", "6", "--a", "1", "--k", "2",
        "--x", "5000",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_torsion_moment_with_filter(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format",
        "json",
        "moment",
        "--scenario",
        "torsion",
        "--curve",
        "cm:-1",
        "--ell",
        "3",
        "--filter",
        "nonsplit",
        "--k",
        "1",
        "--x",
        "3000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted_num"] == 1
    assert payload["scenario"].endswith("nonsplit")


def test_dist_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format",
        "json",
        "dist",
        "--scenario",
        "power",
        "--n",
        "4",
        "--x",
        "10000",
        "--action",
        "units:4",
        "--t",
        "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted"]["2"] == [1, 2]
    assert payload["predicted"]["4"] == [1, 2]
    assert "0.5" in payload["char_samples"]
    last_value, num, den = payload["cdf"][-1]
    assert num == den  # CDF reaches 1 at the largest observed value


def test_power_moment_with_split_filter(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format",
        "json",
        "moment",
        "--scenario",
        "power",
        "--n",
        "4",
        "--a",
        "1",
        "--filter",
        "split",
        "--filter-d",
        "-1",
        "--k",
        "1",
        "--x",
        "2000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"].endswith("split")
    assert payload["predicted_num"] is None


def test_trace_command_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "trace",
        "--scenario",
        "power",
        "--n",
        "6",
        "--a",
        "1",
        "--k",
        "1",
        "--checkpoints",
        "1000,3000",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,pi_x,empirical,predicted,rel_err"
    assert len(lines) == 3


def test_verify_suite_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "gl2-fixed-points")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_reports_seconds_per_suite(capsys, monkeypatch):
    from orbitmoments import cli, verify

    suites = {
        "one": lambda: [verify.CheckResult("a", True)],
        "two": lambda: [verify.CheckResult("b", False, "why")],
    }
    monkeypatch.setattr(verify, "SUITES", suites)
    monkeypatch.setattr(cli, "SUITES", suites)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    lines = out.strip().split("\n")
    assert code == 1
    assert lines[0] == "PASS  a"
    assert re.fullmatch(r"one: \d+\.\d\d s", lines[1])
    assert lines[2] == "FAIL  b  (why)"
    assert re.fullmatch(r"two: \d+\.\d\d s", lines[3])
    assert lines[4:] == ["1/2 checks passed"]


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "no-such-suite")
    assert code == 2
    assert "unknown suite" in err


def test_dist_rejects_a_generator_table_over_budget(capsys):
    code, out, err = run_cli(
        capsys, "dist", "--scenario", "power", "--n", "4", "--x", "1000", "--action", "glm:9999,4"
    )
    assert code == 2
    assert out == ""
    assert "generator table entries, budget is 60000000" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["mk", "--n", "4"])  # missing --k
    assert info.value.code == 2


@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_moment_rejects_nonpositive_threads(capsys, threads):
    argv = ["moment", "--scenario", "power", "--n", "4", "--x", "1000", "--threads", threads]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"argument --threads: must be a positive integer, got {threads}" in capsys.readouterr().err


def test_good_only_with_every_prime_excluded(capsys):
    # x^4 - 1 excludes p = 2, the only prime up to 2
    code, out, err = run_cli(
        capsys, "moment", "--scenario", "power", "--n", "4", "--x", "2", "--good-only"
    )
    assert code == 2
    assert out == ""
    assert "every prime p <= 2 is excluded (p | 4)" in err


def test_invalid_scenario_value(capsys):
    code, _, err = run_cli(
        capsys,
        "moment",
        "--scenario",
        "torsion",
        "--ell",
        "3",
        "--k",
        "1",
        "--x",
        "100",
    )
    assert code == 2
    assert "curve" in err


def test_env_var_sets_format(capsys, monkeypatch):
    monkeypatch.setenv("ORBITMOMENTS_FORMAT", "json")
    code, out, _ = run_cli(capsys, "mk", "--n", "4", "--k", "2")
    assert code == 0
    assert json.loads(out)["value_num"] == 10
