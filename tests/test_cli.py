import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import orbitmoments
from orbitmoments.cli import (
    build_parser,
    distribution_from_json_dict,
    distribution_to_json_dict,
    main,
)
from orbitmoments.local_counts import PowerEquation
from orbitmoments.moment_lab import PowerCounter, TorsionCounter, empirical_distribution


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mk_command(capsys):
    code, out, _ = run_cli(capsys, "mk", "--n", "4", "--k", "2")
    assert code == 0
    assert out.strip() == "10"


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = os.path.dirname(os.path.dirname(os.path.abspath(orbitmoments.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "orbitmoments", "mk", "--n", "4", "--k", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "10\n"), done.stderr


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
    from orbitmoments import cli, orbit_engine, orbit_oracle

    calls = []
    oracle = orbit_oracle.orbit_count_oracle

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


def test_orbits_builds_permutation_rows_for_the_generators_only(capsys, monkeypatch):
    from orbitmoments import orbit_engine

    stacks = []
    apply_matrices = orbit_engine._apply_matrices

    def counted(mats, n):
        stacks.append(len(mats))
        return apply_matrices(mats, n)

    monkeypatch.setattr(orbit_engine, "_apply_matrices", counted)
    code, out, _ = run_cli(
        capsys, "--format", "json", "orbits", "--action", "glm:4,3", "--k", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] == payload["moment"] == 3
    # the row of 3 on Z/4, which gives the unit scaling diag(3, 1, 1), then
    # one call on the transvections and that scaling
    assert stacks == [1, 7]


def test_orbits_on_units_997_agrees_with_its_oracle(capsys):
    # the oracle walks a generating subset of the 996 units, not every unit
    code, out, _ = run_cli(
        capsys, "--format", "json", "orbits", "--action", "units:997", "--k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] == payload["moment"] == 999


def test_orbits_on_units_whose_element_table_is_over_budget(capsys):
    # their permutation tables are past ENTRY_BUDGET, but units and quad
    # keep their element lists: Burnside reads the histogram off the
    # matrices, and the oracle builds rows for a generating subset only
    from orbitmoments.closed_forms import dk, mk
    from orbitmoments.core_arith import divisor_count
    from orbitmoments.residue_algebra import QuadOrderSpec

    cases = {f"quad:89,{d}": dk(89, QuadOrderSpec(d)) for d in (-1, -3, -7)}
    cases["units:10007"] = divisor_count(10007)
    assert list(cases.values()) == [4, 2, 2, 2]
    for descriptor, want in cases.items():
        code, out, _ = run_cli(
            capsys, "--format", "json", "orbits", "--action", descriptor, "--k", "1"
        )
        assert code == 0, descriptor
        payload = json.loads(out)
        assert payload["oracle"] == payload["moment"] == want, descriptor
    # k = 2 has over 10**6 tuples, so only the histogram answers; quad:89,-1
    # is 91**2, (p + 2)**2 at a split prime p
    cases = {"units:10007": (2, mk(10007, 2)), "quad:89,-1": (2, 91**2)}
    # 4,000,000 candidate matrices, within ELEMENT_BUDGET
    cases["quad:2000,-1"] = (1, dk(2000, QuadOrderSpec(-1)))
    assert [want for _, want in cases.values()] == [10009, 8281, 144]
    for descriptor, (k, want) in cases.items():
        code, out, _ = run_cli(capsys, "orbits", "--action", descriptor, "--k", str(k))
        assert (code, out) == (0, f"{want}\n"), descriptor


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


def test_cm_model_typed_by_coefficients_gets_the_cm_prediction(capsys):
    payloads = {}
    for curve in ("-1,0", "cm:-1"):
        code, out, _ = run_cli(
            capsys, "--format", "json", "moment", "--scenario", "torsion",
            f"--curve={curve}", "--ell", "5", "--k", "2", "--x", "3000",
        )
        assert code == 0
        payloads[curve] = json.loads(out)
    typed, preset = payloads["-1,0"], payloads["cm:-1"]
    assert (typed["predicted_num"], typed["predicted_den"]) == (28, 1)
    assert typed["scenario"] == "torsion:curve=-1,0,ell=5"
    assert {**typed, "scenario": None} == {**preset, "scenario": None}


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


def test_dist_has_no_action_option(capsys):
    # the predicted masses come from the counter, so no action can be passed
    with pytest.raises(SystemExit) as info:
        main(["dist", "--scenario", "power", "--n", "4", "--x", "1000", "--action", "units:4"])
    assert info.value.code == 2
    assert "unrecognized arguments: --action units:4" in capsys.readouterr().err


def test_dist_prints_the_gl2_masses_of_17a3(capsys):
    argv = ["dist", "--scenario", "torsion", "--curve", "17a3", "--ell", "3", "--x", "10000"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    predicted = dict(re.findall(r"N_p=(\d+): mass \S+   predicted (\S+)", out))
    assert predicted == {"1": "9/16", "3": "5/12", "9": "1/48"}


def test_dist_text_lists_the_atoms_no_prime_hit(capsys):
    argv = ["dist", "--scenario", "torsion", "--curve", "17a3", "--ell", "3", "--x", "300"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # every prime at N_p = 0 is excluded (2, 3 and 17): torsion counts are never 0
    assert out.splitlines() == [
        "scenario: torsion:curve=17a3,ell=3   x=300  pi(x)=62  excluded=3  filtered=0",
        "path:     stream",
        "  N_p=0: mass 3/62   (3 excluded, 0 filtered)",
        "  N_p=1: mass 33/62   predicted 9/16",
        "  N_p=3: mass 13/31   predicted 5/12",
        "  N_p=9: mass 0   predicted 1/48",
    ]
    # the JSON keeps observed and predicted masses apart, as before
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert out == (
        '{"cdf": [[0, 3, 62], [1, 18, 31], [3, 1, 1]], "char_samples": {}, "excluded": 3, '
        '"filtered": 0, "masses": {"0": [3, 62], "1": [33, 62], "3": [13, 31]}, "path": "stream", '
        '"pi_x": 62, "predicted": {"1": [9, 16], "3": [5, 12], "9": [1, 48]}, '
        '"scenario": "torsion:curve=17a3,ell=3", "x": 300}\n'
    )


def test_dist_names_the_path_that_counted_its_primes(capsys):
    # N_p(x^4 - 1) = gcd(p - 1, 4) is read off p mod 4, so no prime is listed;
    # N_p(x^8 - 3) is not a function of p mod 8, so the sieve streams the primes
    for argv, path in (
        (["--n", "4"], "classes"),
        (["--n", "8", "--a", "3"], "stream"),
    ):
        argv = ["dist", "--scenario", "power", *argv, "--x", "1000000", "--t", "0.25"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.splitlines()[1] == f"path:     {path}", out
        code, out, _ = run_cli(capsys, "--format", "json", *argv)
        payload = json.loads(out)
        assert (code, payload["path"]) == (0, path)
        report = distribution_from_json_dict(payload)
        assert report.path == path
        assert distribution_to_json_dict(report) == payload
        # JSON written before dist named its path reads back as the stream
        del payload["path"]
        assert distribution_from_json_dict(payload).path == "stream"
    counter = PowerCounter(PowerEquation(4, 1))
    dist = empirical_distribution(counter, 10**6, t_values=(0.25,))
    assert distribution_from_json_dict(json.loads(json.dumps(distribution_to_json_dict(dist)))) == dist


def test_dist_of_a_large_prime_exponent_does_not_trial_divide_it(capsys):
    start = time.perf_counter()
    argv = ["dist", "--scenario", "power", "--n", "1000000000000037", "--x", "1000"]
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.2
    assert code == 0
    assert "N_p=1000000000000037: mass 0   predicted 1/1000000000000036" in out


def test_split_filter_by_a_foreign_field_has_no_prediction(capsys):
    # the cosets of a CM image are told apart by its own field only
    base = ["moment", "--scenario", "torsion", "--curve", "cm:-1", "--ell", "5", "--k", "2"]
    base += ["--x", "100000"]
    for filt in ("split", "nonsplit"):
        code, out, _ = run_cli(capsys, *base, "--filter", filt, "--filter-d", "-3")
        assert code == 0, filt
        assert "empirical:" in out and "predicted:" not in out, filt
    for filt, want in (("split", "49/2"), ("nonsplit", "7/2")):
        code, out, _ = run_cli(capsys, *base, "--filter", filt, "--filter-d", "-1")
        assert code == 0, filt
        assert f"predicted: {want}\n" in out, filt


def test_readme_cli_lines_parse(capsys):
    # every orbitmoments line of the README's CLI block names options that exist
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("orbitmoments ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert callable(args.func), line


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


def test_verify_fails_the_rows_of_a_missing_prediction(capsys, monkeypatch):
    # a counter that gives no masses must fail its rows, not crash the report
    monkeypatch.setattr(TorsionCounter, "masses", lambda self: None)
    code, out, _ = run_cli(capsys, "verify", "--suite", "torsion-gl2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL  17a3 ell=3 k=1: within 5% of None  (empirical=")
    assert lines[0].endswith("rel_err=none)")
    assert lines[4].startswith("FAIL  17a3 ell=3 mass at 9: within 5% absolute of None")
    assert lines[-1] == "0/5 checks passed"


VERIFY_CHECK_NAMES = [
    "units(n) moments equal M_k(n) for n<=60, k<=6",
    "semidirect(n) moments equal M_(2k-1)(n) for n<=30, k<=3",
    "gl2(ell) moments match the closed form for ell in {2..13}, k<=4",
    "glm(n,m) orbit count equals d(n) for n<=12, m<=3",
    "quad-unit orbit count equals d_K(n) for n<=20, all nine fields",
    "gl2(2): 3 elements fix exactly 2 points, 1 fixes 4",
    "gl2(3): 20 elements fix exactly 3 points, 1 fixes 9",
    "gl2(5): 114 elements fix exactly 5 points, 1 fixes 25",
    "gl2(7): 328 elements fix exactly 7 points, 1 fixes 49",
    "sum of psi(n/r) over r|n equals n**m for n<=200, m<=3",
    "glm(n,2) orbit of r*e1 has size psi(n/r) for n<=10",
    "M_k divisor sum equals Euler product for n<=2000, k<=8",
    "gl2_moment equals the noncm ell-factor for ell<=13, k<=6",
    "cm_moment two forms agree (ell<=13, k<=6, d_K in {2,4})",
    "k=1 specializations reproduce d(n), 2, and (d_K+2)/2",
    "density partitions and the half-M_k identity hold",
    "power n=4 a=1 k=1: within 2% of 3",
    "power n=4 a=1 k=2: within 2% of 10",
    "power n=6 a=1 k=2: within 2% of 20",
    "power n=3 a=2 k=1: within 2% of 1",
    "power n=8 a=3 k=2: within 2% of 4",
    "product n=6 a=2 k1=k2=1: within 2% of 4",
    "17a3 ell=3 k=1: within 5% of 2",
    "17a3 ell=3 k=2: within 5% of 6",
    "17a3 ell=3 mass at 1: within 5% absolute of 9/16",
    "17a3 ell=3 mass at 3: within 5% absolute of 5/12",
    "17a3 ell=3 mass at 9: within 5% absolute of 1/48",
    "cm:-1 ell=5 k=2: within 5% of 28",
    "cm:-3 ell=7 k=2: within 5% of 45",
    "cm:-1 ell=5 k=1: within 5% of 3",
    "cm:-1 ell=5 inert+ramified part: within 5% of 1",
    "cm:-1 ell=5 split part: within 5% of 2",
    "cm:-1 ell=3 k=1: within 5% of 2",
    "cm:-1 ell=3 inert+ramified part: within 5% of 1",
    "cm:-1 ell=3 split part: within 5% of 1",
    "power n=4 mass at 2: within 1% absolute of 1/2",
    "power n=4 mass at 4: within 1% absolute of 1/2",
    "characteristic function at t=0.1: series within tail bound of atom sum",
    "characteristic function at t=0.5: series within tail bound of atom sum",
    "characteristic function at t=0.9: series within tail bound of atom sum",
    "burnside equals orbit oracle on 534 (action, k) pairs",
]


def test_verify_all_keeps_its_41_checks_in_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    lines = out.splitlines()
    assert [line for line in lines if line.startswith(("PASS", "FAIL"))] == [
        f"PASS  {name}" for name in VERIFY_CHECK_NAMES
    ]
    assert lines[-1] == "41/41 checks passed"


def test_verify_tol_replaces_every_empirical_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "torsion-gl2", "--tol", "0.5")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("PASS")]
    assert rows == [
        f"PASS  {name.replace('5%', '50%')}" for name in VERIFY_CHECK_NAMES[22:27]
    ]
    code, out, _ = run_cli(capsys, "verify", "--suite", "distribution", "--tol", "0.5")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("PASS")]
    assert rows == [
        f"PASS  {name.replace('1%', '50%')}" for name in VERIFY_CHECK_NAMES[35:40]
    ]


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "no-such-suite")
    assert code == 2
    assert "unknown suite" in err


def test_run_suite_takes_one_suite_name(capsys):
    # "all" is the CLI's expansion, one run_suite call per suite, so the
    # library refuses it and offers only the names it accepts; the CLI
    # still offers "all"
    from orbitmoments.verify import SUITES, run_suite

    with pytest.raises(ValueError, match="unknown suite 'all'") as info:
        run_suite("all")
    assert str(info.value).split("choices: ")[1].split(", ") == list(SUITES)
    _, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert err.strip().split("choices: ")[1].split(", ") == [*SUITES, "all"]


def test_verify_fails_a_row_whose_closed_forms_disagree(capsys, monkeypatch):
    # cm_moment raises ArithmeticError when its closed form and its masses
    # part; the rows that call it fail with that message, and the rest run
    from orbitmoments import closed_forms

    real = closed_forms.cm_masses

    def off_at_7(ell, dk_ell, keep_split=None):
        masses = real(ell, dk_ell, keep_split)
        return {v: m * Fraction(999_999, 10**6) for v, m in masses.items()} if ell == 7 else masses

    monkeypatch.setattr(closed_forms, "cm_masses", off_at_7)
    code, out, err = run_cli(capsys, "verify", "--suite", "formula-identities")
    assert (code, err) == (1, "")
    rows = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert rows[:2] == [f"PASS  {name}" for name in VERIFY_CHECK_NAMES[11:13]]
    assert rows[2:4] == [
        f"FAIL  {VERIFY_CHECK_NAMES[13]}  (cm_moment(7, 0, 2): 1 != 999999/1000000)",
        f"FAIL  {VERIFY_CHECK_NAMES[14]}  (cm_moment(7, 1, 2): 2 != 999999/500000)",
    ]
    assert rows[4] == f"PASS  {VERIFY_CHECK_NAMES[15]}"
    assert out.splitlines()[-1] == "3/5 checks passed"


def test_verify_runs_on_past_a_suite_that_raises(capsys, monkeypatch):
    from orbitmoments import cli, verify

    def broken():
        raise ArithmeticError("not a group")

    suites = {"one": broken, "two": lambda: [verify.CheckResult("b", True)]}
    monkeypatch.setattr(verify, "SUITES", suites)
    monkeypatch.setattr(cli, "SUITES", suites)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    lines = out.splitlines()
    assert code == 1
    assert (lines[0], lines[2]) == ("FAIL  one  (not a group)", "PASS  b")
    assert lines[-1] == "1/2 checks passed"


@pytest.mark.parametrize("tol", ["inf", "1e400", "nan", "-1"])
def test_verify_refuses_a_tol_that_is_not_finite_and_nonnegative(capsys, monkeypatch, tol):
    from orbitmoments import verify

    monkeypatch.setattr(verify, "empirical_moment", lambda *args: pytest.fail("streamed"))
    for suite in ("power-moments", "all"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--tol", tol)
        assert (code, out) == (2, "")
        assert "tol must be a finite number >= 0" in err


def test_moment_rejects_a_product_whose_limit_does_not_hold(capsys):
    argv = ["moment", "--scenario", "product", "--n", "8", "--a", "2", "--k", "1", "--x", "1000"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "discriminant of Q(sqrt(a)) must not divide n" in err


def test_power_scenario_uses_the_kummer_rule_of_the_product(capsys):
    # a = 2 divides n = 2, but disc Q(sqrt 2) = 8 does not: the limit is mk(2, k - 1)
    argv = ["moment", "--scenario", "power", "--n", "2", "--a", "2", "--k", "3", "--x", "10000"]
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    report = json.loads(out)
    assert (report["predicted_num"], report["predicted_den"]) == (4, 1)
    # sqrt(2) lies in Q(zeta_8), so x**8 - 2 has no mk limit
    argv = ["moment", "--scenario", "power", "--n", "8", "--a", "2", "--k", "1", "--x", "1000"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "discriminant of Q(sqrt(a)) must not divide n" in err


def test_orbits_counts_semidirect_127_from_its_histogram(capsys):
    # its permutation table would have 258,096,258 entries; none is built
    for k, want in ((1, 2), (2, 16258)):
        code, out, _ = run_cli(capsys, "orbits", "--action", "semidirect:127", "--k", str(k))
        assert code == 0, k
        assert out.strip() == str(want), k


def test_orbits_on_glm_dimension_one_past_the_order_size_clause(capsys):
    # glm:10007,1 is units:10007: it lists its 10,006 elements, whose
    # 100,130,042-entry table the order * size clause would have refused
    code, out, _ = run_cli(capsys, "orbits", "--action", "glm:10007,1", "--k", "2")
    assert code == 0
    assert out.strip() == "10009"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["mk", "--n", "4"])  # missing --k
    assert info.value.code == 2


@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_moment_rejects_nonpositive_threads(capsys, threads):
    # moment has no --threads option left, so any thread count is a usage error
    argv = ["moment", "--scenario", "power", "--n", "4", "--x", "1000", "--threads", threads]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: --threads {threads}" in capsys.readouterr().err


def test_power_moment_accepts_a_large_prime_constant(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "moment", "--scenario", "power", "--n", "8", "--a", str(2**61 - 1), "--x", "1000"
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    assert "pi(x)=168" in out


@pytest.mark.parametrize("a", [str((2**31 - 1) ** 2), "12"])
def test_power_moment_rejects_a_square_factor(capsys, a):
    code, out, err = run_cli(capsys, "moment", "--scenario", "power", "--n", "3", "--a", a, "--x", "1000")
    assert code == 2
    assert out == ""
    assert "a must be square-free" in err


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


def test_env_var_format_outside_choices(capsys, monkeypatch):
    monkeypatch.setenv("ORBITMOMENTS_FORMAT", "xml")
    with pytest.raises(SystemExit) as info:
        main(["mk", "--n", "12", "--k", "2"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ORBITMOMENTS_FORMAT must be one of text, json, human, got 'xml'" in captured.err


@pytest.mark.parametrize("command", ["moment", "trace"])
def test_negative_k_is_refused_before_any_prime_is_streamed(capsys, monkeypatch, command):
    def no_stream(*args):
        raise AssertionError("the prime stream ran")

    monkeypatch.setattr("orbitmoments.moment_lab._accumulate", no_stream)
    bound = ["--x", "100"] if command == "moment" else ["--checkpoints", "100"]
    code, out, err = run_cli(
        capsys, command, "--scenario", "power", "--n", "4", "--k", "-1", *bound
    )
    assert (code, out) == (2, "")
    assert err == "error: k must be >= 0\n"


@pytest.mark.parametrize("text", ["1.5,2", "1,x", "1,2,3"])
def test_curve_that_is_not_two_integers(capsys, text):
    code, out, err = run_cli(
        capsys, "moment", "--scenario", "torsion", f"--curve={text}", "--x", "100"
    )
    assert (code, out) == (2, "")
    assert err == f"error: unknown curve {text!r}: expected a preset name or 'a,b'\n"
