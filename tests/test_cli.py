import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import finevo
from finevo.cli import main
from fuzzlaws import s6k_law

EXAMPLE_LAW = {
    "n": 5,
    "generators": [[2, 3, 4, 1, 5], [2, 5, 5, 2, 4]],
    "weights": ["1/2", "1/2"],
}


@pytest.fixture()
def law_file(tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(EXAMPLE_LAW))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_golden_fields(capsys, law_file):
    code, out, _ = run(capsys, "analyze", "--law", law_file, "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["semigroup"] == {
        "size": 28,
        "kernel_size": 24,
        "m_mu": 3,
        "elements": report["semigroup"]["elements"],
        "kernel": report["semigroup"]["kernel"],
    }
    assert report["rees"]["e"] == "[4,2,2,4,5]"
    assert sorted(report["rees"]["L"]) == ["[1,3,3,1,5]", "[4,2,2,4,5]"]
    assert sorted(report["rees"]["R"]) == ["[2,2,4,4,5]", "[4,2,2,4,5]"]
    assert report["limits"]["p"] == 1
    assert report["limits"]["eta_L"] == {"[4,2,2,4,5]": "2/3", "[1,3,3,1,5]": "1/3"}
    assert report["limits"]["H_equals_G"] is True
    assert report["limits"]["eta_equals_nu"] is True
    assert report["cliques"]["m_mu"] == 3
    assert report["cliques"]["W_mu_size"] == 12
    assert report["cliques"]["W"] == [[2, 4, 5]]
    assert report["invariant_law"]["first_coordinate_marginal"] == [
        "1/9", "2/9", "1/9", "2/9", "1/3",
    ]


def test_analyze_deterministic_bytes(capsys, law_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(capsys, "analyze", "--law", law_file, "--no-timestamp",
               "--out", str(out1))[0] == 0
    assert run(capsys, "analyze", "--law", law_file, "--no-timestamp",
               "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_timestamp_present_by_default(capsys, law_file):
    code, out, _ = run(capsys, "analyze", "--law", law_file)
    assert code == 0
    assert "timestamp" in json.loads(out)
    # the run's blocks follow the timestamp
    code, out, _ = run(capsys, "verify", "--law", law_file, "--replications", "1000")
    assert code == 0
    assert list(json.loads(out))[-5:] == ["seed", "timestamp", "verification", "oracle",
                                         "cesaro"]


def test_text_rendering_carries_the_same_values(capsys, law_file):
    code, out, _ = run(capsys, "analyze", "--law", law_file, "--no-timestamp",
                       "--text")
    assert code == 0
    assert "[4,2,2,4,5]: 2/3" in out
    assert "W_mu_size: 12" in out


def test_weight_sum_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 5,
        "generators": [[2, 3, 4, 1, 5], [2, 5, 5, 2, 4]],
        "weights": ["1/2", "1/3"],
    }))
    code, _, err = run(capsys, "analyze", "--law", str(bad))
    assert code == 3
    assert "sum" in err

    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({
        "n": 5,
        "generators": [[2, 3, 4, 1, 5], [2, 5, 5, 2, 4], [1, 2, 3, 4, 5]],
        "weights": ["1/3", "1/3", "1/3"],
    }))
    assert run(capsys, "analyze", "--law", str(ok))[0] == 0


def test_missing_law_file(capsys, tmp_path, law_file):
    code, _, err = run(capsys, "analyze", "--law", str(tmp_path / "nope.json"))
    assert code == 3
    assert "cannot read" in err
    out = tmp_path / "missing" / "r.json"
    code, _, err = run(capsys, "analyze", "--law", law_file, "--out", str(out))
    assert code == 3
    assert f"cannot write report {out}" in err


def test_malformed_json(capsys, tmp_path, law_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--law", str(bad))
    assert code == 3
    assert "line" in err

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"n": 1, "generators": [[1]], "weights": ["1"], "x": "\xe9"}')
    code, _, err = run(capsys, "analyze", "--law", str(latin1))
    assert code == 3
    assert f"law file {latin1} is not UTF-8 text" in err
    code, _, err = run(capsys, "simulate", "--law", law_file, "--config", str(latin1))
    assert code == 3
    assert f"config {latin1} is not UTF-8 text" in err

    # a misspelt field is refused, not dropped
    misspelt = tmp_path / "misspelt.json"
    misspelt.write_text(json.dumps({"n": 3, "generators": [[2, 3, 1]], "weights": ["1"],
                                    "wieghts": ["1/2"]}))
    code, out, err = run(capsys, "analyze", "--law", str(misspelt))
    assert (code, out) == (3, "")
    assert err == "finevo: error: unknown law fields: ['wieghts']\n"

    array = tmp_path / "array.json"
    array.write_text(json.dumps([EXAMPLE_LAW]))
    code, _, err = run(capsys, "analyze", "--law", str(array))
    assert code == 3
    assert f"law file {array} must be a JSON object" in err

    # a repeated key is refused, not resolved to its last value
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"n": 6, "n": 5, "generators": [[2, 3, 4, 1, 5], [2, 5, 5, 2, 4]], '
                        '"weights": ["1/2", "1/2"]}')
    code, out, err = run(capsys, "analyze", "--law", str(repeated), "--no-timestamp")
    assert (code, out) == (3, "")
    assert err == f"finevo: error: law file {repeated} repeats the key 'n'\n"
    repeated.write_text('{"Lambda_W": {"(2,4,5)": "1"}, "Lambda_W": {"(2,4,5)": "1"}}')
    code, out, err = run(capsys, "simulate", "--law", law_file, "--config", str(repeated))
    assert (code, out) == (3, "")
    assert err == f"finevo: error: config {repeated} repeats the key 'Lambda_W'\n"


@pytest.mark.parametrize("command", ["analyze --law", "simulate --config"])
def test_json_past_the_parser_limits_exits_3(capsys, tmp_path, command):
    """Nesting past the parser's depth and an integer past Python's digit
    limit on int parsing are input errors of one line, not tracebacks.
    Releases without that limit parse the number, and the law's or the
    config's own checks refuse the file: its generator is not on n points,
    or a config has no field n."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long = tmp_path / "long.json"
    long.write_text('{"n": ' + "9" * 5_000 + ', "generators": [[1]], "weights": ["1"]}')
    what = "law file" if command.startswith("analyze") else "config"
    for path, messages in ((deep, [f"{what} {deep} cannot be parsed: maximum recursion"]),
                           (long, [f"{what} {long} cannot be parsed: ",
                                   "generator [1] has domain 1, expected 9999",
                                   "unknown config fields: ['generators', 'n', 'weights']"])):
        code, out, err = run(capsys, *command.split(), str(path), "--no-timestamp")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert any(err.startswith(f"finevo: error: {m}") for m in messages), err


def test_closure_cap_exceeded(capsys, law_file, tmp_path):
    code, _, err = run(capsys, "analyze", "--law", law_file, "--cap", "4")
    assert code == 3
    assert "cap" in err

    # the 7-cycle has 7 elements but 7! = 5040 stable tuples, which the cap
    # bounds as well
    cycle = tmp_path / "cycle7.json"
    cycle.write_text(json.dumps({"n": 7, "generators": [[2, 3, 4, 5, 6, 7, 1]],
                                 "weights": ["1"]}))
    code, out, _ = run(capsys, "analyze", "--law", str(cycle), "--cap", "5040")
    assert (code, json.loads(out)["cliques"]["W_mu_size"]) == (0, 5040)
    code, out, err = run(capsys, "analyze", "--law", str(cycle), "--cap", "5039")
    assert (code, out) == (3, "")
    assert "W_mu has 5040 tuples, over the element cap (5039)" in err


@pytest.mark.parametrize("command", ["analyze", "simulate", "verify"])
@pytest.mark.parametrize("cap, message", [
    ("0", "must be at least 1, got 0"),
    ("-5", "must be at least 1, got -5"),
    ("ten", "invalid int value: 'ten'"),
])
def test_cap_below_1_is_a_usage_error(capsys, law_file, command, cap, message):
    with pytest.raises(SystemExit) as exc:
        main([command, "--law", law_file, "--cap", cap])
    err = capsys.readouterr().err
    assert exc.value.code == 3
    assert err.endswith(f"finevo {command}: error: argument --cap: {message}\n")
    assert "element cap" not in err


def test_huge_rank_law_exits_3(capsys, tmp_path):
    # |W_mu| = 2000! is counted only until it passes the cap, never in full
    path = tmp_path / "id2000.json"
    path.write_text(json.dumps({"n": 2000, "generators": [list(range(1, 2001))],
                                "weights": ["1"]}))
    code, out, err = run(capsys, "analyze", "--law", str(path), "--no-timestamp")
    assert (code, out) == (3, "")
    assert err == ("finevo: error: W_mu has at least 3628800 tuples, over the element cap "
                   "(1000000); raise the cap to analyze this law\n")


def test_identity_law_analysis(capsys, tmp_path):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({
        "n": 3, "generators": [[1, 2, 3]], "weights": ["1"],
    }))
    code, out, _ = run(capsys, "analyze", "--law", str(path), "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["semigroup"]["size"] == 1
    assert report["semigroup"]["kernel_size"] == 1
    assert report["limits"]["p"] == 1
    assert report["rees"]["G"] == ["[1,2,3]"]
    assert report["limits"]["H"] == ["[1,2,3]"]


def test_simulate_runs_and_reports(capsys, law_file):
    code, out, _ = run(
        capsys, "simulate", "--law", law_file, "--replications", "2000",
        "--seed", "42", "--k-min", "-40", "--k-max", "0", "--no-timestamp",
    )
    assert code == 0
    report = json.loads(out)
    checks = report["verification"]["checks"]
    assert any(c["name"].startswith("path recursion") for c in checks)
    assert any(c["name"] == "U^H_k uniform on H" for c in checks)
    assert any("mono-particle" in c["name"] for c in checks)
    stat = [c for c in checks if c["kind"] == "statistical"]
    assert all({"statistic", "df", "p_value", "alpha"} <= set(c) for c in stat)
    assert report["verification"]["passed"] is True
    assert report["seed"] == 42


def test_simulate_replication_validation(capsys, law_file, monkeypatch):
    code, _, err = run(capsys, "simulate", "--law", law_file,
                       "--replications", "0")
    assert code == 3
    assert "replications" in err

    # the one-replication path of a long window draws all its uniforms at
    # once; a small bound stands in for the real one
    from finevo import simulate

    monkeypatch.setattr(simulate, "MAX_BATCH_DRAWS", 102)
    code, out, err = run(capsys, "simulate", "--law", law_file, "--k-min", "-100",
                         "--no-timestamp")
    assert (code, out) == (3, "")
    assert "replications x draws = 1 x 103 exceeds the batch limit of 102 draws" in err


def test_simulate_nonstationary_config(capsys, tmp_path):
    law_path = tmp_path / "law6.json"
    law_path.write_text(json.dumps({
        "n": 6,
        "generators": [[2, 3, 1, 5, 6, 4], [5, 6, 4, 2, 3, 1]],
        "weights": ["1/2", "1/2"],
    }))
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "law_file": str(law_path),
        "mode": "nonstationary",
        "k_min": -30,
        "k_max": 0,
        "replications": 2000,
        "seed": 42,
        "alpha": 0.001,
        "window": 3,
        "family": {
            "c": ["1/2", "1/3", "1/6"],
            "Lambda_W": [
                {"(1,2,3,4,5,6)": "1"},
                {"(1,2,3,4,5,6)": "1/2", "(1,2,3,4,6,5)": "1/2"},
                {"(1,2,3,4,6,5)": "1"},
            ],
        },
    }))
    code, out, _ = run(capsys, "simulate", "--config", str(config),
                       "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["verification"]["checks"]]
    assert "(Y_C, Z_W) joint = c_i Lambda_W^i" in names


def test_simulate_rejects_unknown_config_fields(capsys, tmp_path, law_file):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"law_file": law_file, "bogus": 1}))
    code, _, err = run(capsys, "simulate", "--config", str(config))
    assert code == 3
    assert "bogus" in err


@pytest.mark.parametrize("fields, message", [
    ({"replications": "100"}, "replications must be an integer, got '100'"),
    ({"replications": True}, "replications must be an integer, got True"),
    ({"replications": 1500.0}, "replications must be an integer, got 1500.0"),
    ({"window": 2.5}, "window must be an integer, got 2.5"),
    ({"k_min": -3.0}, "k_min must be an integer, got -3.0"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"alpha": None}, "alpha must be a number in (0, 1), got None"),
    ({"alpha": True}, "alpha must be a number in (0, 1), got True"),
    ({"mode": "bogus"}, "mode must be stationary or nonstationary, got 'bogus'"),
    ({"Lambda_W": [1]}, "Lambda_W must be a JSON object, got [1]"),
    ({"law_file": 5}, "law_file must be a path, got 5"),
    ({"mode": "nonstationary", "family": {"c": ["1"], "Lambda_W": [1]}},
     "bad family config"),
    ([1], "must be a JSON object"),
    # a field of the other mode is refused, not ignored
    ({"family": {"c": ["1/2", "1/2"], "Lambda_W": []}},
     "family is a field of the other mode; stationary runs take no family"),
    ({"mode": "nonstationary", "Lambda_W": {"(2,4,5)": "1"},
      "family": {"c": ["1"], "Lambda_W": [{"(2,4,5)": "1"}]}},
     "Lambda_W is a field of the other mode; nonstationary runs take no Lambda_W"),
    # two literals of one tuple are refused, not merged
    ({"Lambda_W": {"(2,4,5)": "1/2", "(2, 4, 5)": "1/2"}},
     "Lambda_W names the tuple (2, 4, 5) twice: '(2,4,5)' and '(2, 4, 5)'"),
    ({"mode": "nonstationary",
      "family": {"c": ["1"], "Lambda_W": [{"(2,4,5)": "1/2", "( 2,4,5)": "1/2"}]}},
     "Lambda_W names the tuple (2, 4, 5) twice: '(2,4,5)' and '( 2,4,5)'"),
    # the family is checked field by field, like the config around it
    ({"mode": "nonstationary",
      "family": {"c": ["1"], "Lambda_W": [{"(2,4,5)": "1"}], "extra": 5}},
     "bad family config: unknown fields ['extra']"),
    ({"mode": "nonstationary", "family": [1, 2]},
     "bad family config: must be a JSON object, got [1, 2]"),
    ({"mode": "nonstationary", "family": {"c": {"a": 1}, "Lambda_W": [{"(2,4,5)": "1"}]}},
     "bad family config: c must be a list, got {'a': 1}"),
    ({"mode": "nonstationary", "family": {"c": ["1"]}},
     "bad family config: Lambda_W must be a list of JSON objects, got None"),
    ({"mode": "nonstationary"}, "nonstationary mode needs a family in the config"),
    ({"mode": "nonstationary", "family": {"c": ["1/2"], "Lambda_W": [{"(2,4,5)": "1"}]}},
     "family coefficients must sum to 1"),
    ({"mode": "nonstationary",
      "family": {"c": ["3/2", "-1/2"], "Lambda_W": [{"(2,4,5)": "1"}] * 2}},
     "family coefficients must be nonnegative"),
    ({"mode": "nonstationary", "family": {"c": ["1"], "Lambda_W": [{"(2,4,5)": "1/2"}]}},
     "weights sum to 1/2, expected 1"),
    ({"Lambda_W": {"(2,4,5)": "-1"}}, "negative weight -1 at (2, 4, 5)"),
    # fewer replications than the statistical checks take
    ({"replications": 999}, "replications must be >= 1000"),
    # the seed range, like every field, is checked before the analysis
    ({"seed": -1}, "seed must be a 64-bit unsigned integer, got -1"),
    ({"seed": 2**64}, "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
    # Lambda_W keys that are not tuple literals, and a zero window
    ({"Lambda_W": {"2,4,5": "1"}}, "bad tuple literal '2,4,5'"),
    ({"Lambda_W": {"(2,x,5)": "1"}}, "bad tuple literal '(2,x,5)'"),
    ({"window": 0}, "window must be >= 1"),
])
def test_config_values_of_the_wrong_type_exit_3(capsys, tmp_path, monkeypatch, law_file,
                                                fields, message):
    from finevo import cli

    # every field is checked before the law is analyzed
    def no_analysis(*args, **kwargs):
        raise AssertionError("the config was checked after the analysis")

    monkeypatch.setattr(cli, "analyze_law", no_analysis)
    config = tmp_path / "sim.json"
    if isinstance(fields, dict):
        fields = {"law_file": law_file, **fields}
    config.write_text(json.dumps(fields))
    code, out, err = run(capsys, "simulate", "--config", str(config), "--no-timestamp")
    assert (code, out) == (3, "")
    assert message in err


def test_a_family_of_the_wrong_length_exits_3_after_the_analysis(capsys, tmp_path, law_file):
    # the family's length is checked against p, which only the analysis gives
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "law_file": law_file, "mode": "nonstationary",
        "family": {"c": ["1/2", "1/2"], "Lambda_W": [{"(2,4,5)": "1"}] * 2}}))
    code, out, err = run(capsys, "simulate", "--config", str(config), "--no-timestamp")
    assert (code, out) == (3, "")
    assert err == "finevo: error: family needs exactly p = 1 coefficients and laws\n"


def test_verify_includes_oracle_and_cesaro(capsys, law_file):
    code, out, _ = run(
        capsys, "verify", "--law", law_file, "--replications", "2000",
        "--k-min", "-40", "--no-timestamp",
    )
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["converged"] is True
    assert report["oracle"]["p_est"] == 1
    assert report["oracle"]["eta_sup_error"] < 1e-9
    assert report["cesaro"]["n"] == 10_000
    names = [c["name"] for c in report["verification"]["checks"]]
    assert "oracle period matches exact p" in names


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("alpha", ["0.001", "0.999"])
def test_verify_reports_an_unconverged_oracle_as_null(capsys, law_file, monkeypatch,
                                                      alpha):
    # a float oracle that never settles has no sup errors: the report holds
    # JSON null for them, never the non-JSON constant NaN. At alpha = 0.999
    # statistical checks fail too, and the exact failure sets the exit code.
    from finevo import cli, limits

    monkeypatch.setattr(cli, "float_limit_oracle",
                        lambda a: limits.float_limit_oracle(a, max_iter=3))
    code, out, _ = run(capsys, "verify", "--law", law_file, "--replications", "1000",
                       "--alpha", alpha, "--no-timestamp")
    report = json.loads(out, parse_constant=_refuse)
    assert code == 2
    assert report["oracle"] == {"converged": False, "p_est": 0, "iterations": 3,
                                "eta_sup_error": None, "nu_sup_error": None}
    assert report["cesaro"]["sup_error_vs_nu"] > 0
    failed = [(c["kind"], c["name"]) for c in report["verification"]["checks"]
              if not c["passed"]]
    assert [name for kind, name in failed if kind == "exact"] == [
        "float limit oracle converged"]
    assert any(kind == "statistical" for kind, _ in failed) == (alpha == "0.999")


def test_verify_takes_its_law_from_the_config(capsys, tmp_path, law_file):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"law_file": law_file, "replications": 1000}))
    outs = []
    for law in ([], ["--law", law_file]):
        code, out, _ = run(capsys, "verify", "--config", str(config), *law,
                           "--no-timestamp")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_reports_an_infinite_statistic_as_null(capsys, law_file, monkeypatch):
    # samples outside the support make a goodness-of-fit statistic infinite:
    # the report holds JSON null for it, never the non-JSON constant Infinity
    from finevo import simulate

    def outside(counts, probs, alpha, name):
        nums, den = probs
        return chi_square_gof([*counts, 1], ([*nums, 0], den), alpha, name)

    chi_square_gof = simulate.chi_square_gof
    monkeypatch.setattr(simulate, "chi_square_gof", outside)
    code, out, _ = run(capsys, "verify", "--law", law_file, "--replications", "1000",
                       "--no-timestamp")
    report = json.loads(out, parse_constant=_refuse)
    assert code == 1
    failed = [c for c in report["verification"]["checks"] if not c["passed"]]
    assert failed and all(c["kind"] == "statistical" and c["statistic"] is None
                          and c["p_value"] == 0.0
                          and c["note"] == "observed 1 samples outside the support"
                          for c in failed)


def test_verify_builds_the_closure_once(capsys, law_file, monkeypatch):
    # the float pass reuses the analysis' closure
    from finevo import analysis, semigroup

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return semigroup.generate(*args, **kwargs)

    monkeypatch.setattr(analysis, "generate", counting)
    code, _, _ = run(capsys, "verify", "--law", law_file, "--replications", "1000",
                     "--no-timestamp")
    assert (code, len(calls)) == (0, 1)


def test_example_command_golden(capsys):
    code, out, _ = run(capsys, "example", "--replications", "2000",
                       "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["limits"]["eta_equals_nu"] is True
    assert report["limits"]["H_equals_G"] is True
    assert report["invariant_law"]["first_coordinate_marginal"] == [
        "1/9", "2/9", "1/9", "2/9", "1/3",
    ]
    assert report["seed"] == 42
    assert report["verification"]["passed"] is True


def test_example_deterministic(capsys):
    _, out1, _ = run(capsys, "example", "--replications", "1000",
                     "--no-timestamp")
    _, out2, _ = run(capsys, "example", "--replications", "1000",
                     "--no-timestamp")
    assert out1 == out2


def test_bad_cli_usage_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # --law is required
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def test_the_cached_parser_runs_a_handler_rebound_after_its_build(capsys, law_file,
                                                                  monkeypatch):
    """A timing harness rebinds ``cli.cmd_*`` after import, as
    ``perfbench/spans.py`` does; the parser built before must run the new one."""
    from finevo import cli

    assert run(capsys, "analyze", "--law", law_file, "--no-timestamp")[0] == 0
    calls = []
    original = cli.cmd_analyze

    def wrapped(args):
        calls.append(args.law)
        return original(args)

    monkeypatch.setattr(cli, "cmd_analyze", wrapped)
    code, out, _ = run(capsys, "analyze", "--law", law_file, "--no-timestamp")
    assert (code, calls) == (0, [law_file])
    assert json.loads(out)["semigroup"]["size"] == 28


def _exit_output(capsys, parse, argv) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_the_cached_parser_prints_what_a_fresh_one_does(capsys, law_file):
    """Every --help text and an unknown flag's usage error, from the parser
    that ``main`` has used for each command, equal those of a fresh build."""
    from finevo.cli import build_parser

    run(capsys, "analyze", "--law", law_file, "--no-timestamp")
    for command in ("simulate", "verify"):
        run(capsys, command, "--law", law_file, "--replications", "1000",
            "--k-min", "-5", "--no-timestamp")
    run(capsys, "example", "--replications", "1000", "--no-timestamp")
    fresh = build_parser.__wrapped__()
    assert fresh is not build_parser()
    argvs = [["--help"], *([command, "--help"] for command in
                           ("analyze", "simulate", "verify", "example")),
             ["analyze", "--law", law_file, "--frobnicate"]]
    for argv in argvs:
        cached = _exit_output(capsys, main, argv)
        assert cached == _exit_output(capsys, fresh.parse_args, argv)
        assert cached[0] == (3 if "--frobnicate" in argv else 0)
        assert cached[1 if cached[0] == 0 else 2]


def test_report_json_round_trips_losslessly(capsys, law_file):
    code, out, _ = run(capsys, "analyze", "--law", law_file, "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report


def test_statistical_failure_exits_1(capsys, law_file):
    # at alpha = 0.999 honest p-values fall below the bar
    code, out, _ = run(
        capsys, "simulate", "--law", law_file, "--replications", "2000",
        "--alpha", "0.999", "--k-min", "-20", "--no-timestamp",
    )
    assert code == 1
    report = json.loads(out)
    assert report["verification"]["passed"] is False
    assert any(
        c["kind"] == "statistical" and not c["passed"]
        for c in report["verification"]["checks"]
    )


def test_structural_inconsistency_exits_2(capsys, law_file, monkeypatch):
    from finevo import cli
    from finevo.errors import StructuralInconsistencyError

    def boom(law, cap):
        raise StructuralInconsistencyError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "analyze_law", boom)
    code, _, err = run(capsys, "analyze", "--law", law_file)
    assert code == 2
    assert "forced" in err


@pytest.mark.parametrize("law, message", [
    ({"n": 2, "generators": [[True, 2], [2, 2]], "weights": ["1/2", "1/2"]},
     "image entry True"),
    ({"n": True, "generators": [[1]], "weights": ["1"]},
     "n must be a positive integer, got True"),
    ({"n": "2", "generators": [[1, 2]], "weights": ["1"]},
     "n must be a positive integer, got '2'"),
    ({"n": 2, "generators": [[1, 2]], "weights": [True]},
     "expected an exact rational, got bool"),
    ({"n": 1, "generators": [5], "weights": ["1"]},
     "generator 5 must be a list of images"),
    ({"n": 1, "generators": [None], "weights": ["1"]},
     "generator None must be a list of images"),
    ({"n": 2, "generators": [[1, 2], [2, 1]], "weights": ["1", "0"]},
     "weight '0' must be positive"),
])
def test_law_parser_rejects_booleans_and_non_integer_n(capsys, tmp_path, law, message):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    code, out, err = run(capsys, "analyze", "--law", str(path), "--no-timestamp")
    assert code == 3
    assert out == ""
    assert message in err


HUGE_EXPONENT = "1e-100000000"


@pytest.mark.parametrize("flag, doc", [
    ("--law", dict(EXAMPLE_LAW, weights=[HUGE_EXPONENT, "1/2"])),
    ("--config", {"mode": "nonstationary",
                  "family": {"c": [HUGE_EXPONENT], "Lambda_W": [{"(2,4,5)": "1"}]}}),
    ("--config", {"Lambda_W": {"(2,4,5)": HUGE_EXPONENT}}),
])
def test_exponent_literals_exit_3_at_once(capsys, tmp_path, law_file, flag, doc):
    # Fraction(HUGE_EXPONENT) alone would build a 332-million-bit denominator
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc if flag == "--law" else {"law_file": law_file, **doc}))
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", flag, str(path), "--no-timestamp")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err == f"finevo: error: rational literal {HUGE_EXPONENT!r} is in exponent notation\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


P3_H2_LAW = {
    "n": 6,
    "generators": [[2, 3, 1, 5, 6, 4], [5, 6, 4, 2, 3, 1]],
    "weights": ["1/2", "1/2"],
}

# Exit code and SHA-256 of stdout. The example and nonstationary digests come
# from the scalar per-replication sampler that preceded the lock-step one, the
# analyze and verify digests from the Rees decomposition that was completed in
# two steps, the rank3 and A5 digests from stationary solves over every state
# of Ke and eK, and the n300 digest from the closure of Transformation
# objects; the reports must stay byte-identical. p3_h2 has p = 3 and H != G,
# rank3 has |L| = 2, |G| = 6 and |R| = 6, A5 is a 60-element group, S5 a
# 120-element one (wider than 64 lags, so verify's float pass keeps 121
# powers), r7g2 has 5,040 stable tuples, n300 (the transposition (1 2)
# and the constant map to 1) has images above 255, and s6k has a
# 4,320-element kernel, where assemble_limits checks idempotence without a
# product of kernel vectors.
# In c-order the order of C by index differs from its order in G, and its
# "(Y_C, Z_W) independent of N-window" table is 6x8, so the order in which
# that statistic sums its rows shows in its last bits. example-window64 has
# an N-window of 64 maps, far beyond any integer code of |gens|^64 windows.
# p3_h2-stationary-25000 draws 6 uniforms per row in three chunks (10,922,
# 10,922 and 3,156 rows); its "(Y_C, Z_W) independent of N-window" check
# fails at seed 42 (p = 0.00046 against alpha = 0.001), hence exit 1.
PINNED_REPORTS = {
    "example-2000": (
        ["example", "--replications", "2000", "--seed", "42", "--no-timestamp"], 0,
        "9ce028909dd6362bf3ac0c964f963444776a9bcfba785b696a1e23199ed0a5ea"),
    "p3_h2-nonstationary-2000": (
        ["simulate", "--config", "{config}", "--no-timestamp"], 0,
        "06abbf4a020d91b279f0f97a6a7df44f24219ea838933804f560a08e19dc2d03"),
    "p3_h2-stationary-lambda-2000": (
        ["simulate", "--config", "{stationary}", "--replications", "2000", "--seed", "42",
         "--no-timestamp"], 0,
        "80c6f123983a9b263dfb7796e10196e5df002ff4ae7b0f31293b21dffaa2f0ba"),
    "p3_h2-stationary-25000": (
        ["simulate", "--law", "{p3_h2}", "--replications", "25000", "--seed", "42",
         "--no-timestamp"], 1,
        "3f2e48d76aae8291fa4689bf3c0bf7ddc33e677ac6c74f681d347ffc5640764b"),
    "cyclic3-analyze": (
        ["analyze", "--law", "{cyclic3}", "--no-timestamp"], 0,
        "9b84c147051ec12010f81352dcd8ef75ffcb0e85dd11a7e54666a82028d46497"),
    "p3_h2-analyze": (
        ["analyze", "--law", "{p3_h2}", "--no-timestamp"], 0,
        "ae74cc2a1962730dbc9873d93cd28c4f73df5794d7dc277532802b66353bd495"),
    "p3_h2-verify-2000": (
        ["verify", "--law", "{p3_h2}", "--replications", "2000", "--seed", "42",
         "--no-timestamp"], 0,
        "40d73e32a3835460993c724506d2b78543dd33be0b8bf32da84c844738a1a223"),
    "rank3-verify-2000": (
        ["verify", "--law", "{rank3}", "--replications", "2000", "--seed", "42",
         "--no-timestamp"], 0,
        "1ea71cc1f3662bdb61dd149962e1278369a821cabd322c374d4cb5e27b5b9222"),
    "s4-verify-2000": (
        ["verify", "--law", "{s4}", "--replications", "2000", "--seed", "42",
         "--no-timestamp"], 0,
        "f38ef577acb57b0c9fe22517f0e003068d3341f4c9f65d4713fcdc49ac4fcfa9"),
    "s5-verify-2000": (
        ["verify", "--law", "{s5}", "--replications", "2000", "--seed", "42",
         "--no-timestamp"], 0,
        "55840106de2ba875df75fc77f67fbf86fb628bcb307e8a6f201b8aa29dda4442"),
    "a5-analyze": (
        ["analyze", "--law", "{a5}", "--no-timestamp"], 0,
        "e7023540c479fd9b7da55e95dd09fa93325527d517f8d0b26c53d5059efeae3d"),
    "n300-analyze": (
        ["analyze", "--law", "{n300}", "--no-timestamp"], 0,
        "78db73c4042193d08bf43e7a5bdfddb3dc748793d50632d49b68ac8c46a1739b"),
    "c-order-simulate-2000": (
        ["simulate", "--law", "{c_order}", "--replications", "2000", "--seed", "42",
         "--no-timestamp"], 0,
        "7bf2a43ce2f6302043f55be1fe49b8bfbc638d276e34db4b6bcf28c5c33f6768"),
    "r7g2-verify-2000": (
        ["verify", "--law", "{r7g2}", "--replications", "2000", "--seed", "42",
         "--no-timestamp"], 0,
        "63bc7ecde66dfc522e161b1f23d8013c7af93b1f07d633395604f9f97c13c3ec"),
    "s6k-analyze": (
        ["analyze", "--law", "{s6k}", "--no-timestamp"], 0,
        "e8dc92a8123b4d305c2040efeea00b7ea96b3a8f1c7a23abfc37b13297c2e694"),
    "example-window64-1000": (
        ["simulate", "--law", "{example}", "--window", "64", "--replications", "1000",
         "--seed", "42", "--no-timestamp"], 0,
        "aecaec14a849412eed4d6f414bce1285bb61025e5b3f694e4e903d76016867cb"),
}
EXAMPLE_MAX_SEED_2000_SHA = "6e316e25221281a48b36bc9b1826a8be44268c00bb0eb7d7a2c699a1ee6ce9be"


@pytest.mark.parametrize("argv, code, sha", PINNED_REPORTS.values(), ids=PINNED_REPORTS)
def test_pinned_report_bytes(capsys, tmp_path, argv, code, sha):
    files = {"example": EXAMPLE_LAW,
             "c_order": {"n": 4, "generators": [[4, 1, 1, 3], [4, 2, 1, 3]],
                         "weights": ["4/5", "1/5"]},
             "cyclic3": {"n": 3, "generators": [[2, 3, 1]], "weights": ["1"]},
             "p3_h2": P3_H2_LAW,
             "rank3": {"n": 6, "generators": [[2, 3, 4, 5, 6, 1], [3, 2, 1, 4, 5, 6],
                                              [1, 1, 3, 3, 5, 5]],
                       "weights": ["2/7", "2/7", "3/7"]},
             "a5": {"n": 5, "generators": [[2, 3, 1, 4, 5], [2, 3, 4, 5, 1]],
                    "weights": ["3/7", "4/7"]},
             "s4": {"n": 4, "generators": [[2, 3, 4, 1], [2, 1, 3, 4]],
                    "weights": ["1/2", "1/2"]},
             "s5": {"n": 5, "generators": [[2, 3, 4, 5, 1], [2, 1, 3, 4, 5]],
                    "weights": ["1/2", "1/2"]},
             "r7g2": {"n": 8, "generators": [[1, 2, 3, 4, 5, 6, 7, 7],
                                             [2, 1, 3, 4, 5, 6, 7, 8]],
                      "weights": ["1/2", "1/2"]},
             "n300": {"n": 300, "generators": [[2, 1, *range(3, 301)], [1] * 300],
                      "weights": ["1/2", "1/2"]},
             "s6k": s6k_law().to_dict()}
    paths = {name: str(tmp_path / f"{name}.json")
             for name in (*files, "config", "stationary")}
    files["config"] = {
        "law_file": paths["p3_h2"], "mode": "nonstationary", "k_min": -40,
        "k_max": 0, "replications": 2000, "seed": 42, "alpha": 0.001, "window": 3,
        "family": {
            "c": ["1/2", "1/3", "1/6"],
            "Lambda_W": [
                {"(1,2,3,4,5,6)": "1"},
                {"(1,2,3,4,5,6)": "1/2", "(1,2,3,4,6,5)": "1/2"},
                {"(1,2,3,4,6,5)": "1"},
            ],
        },
    }
    # a stationary run from a non-uniform Lambda_W
    files["stationary"] = {
        "law_file": paths["p3_h2"],
        "Lambda_W": {"(1,2,3,4,5,6)": "1/3", "(1,2,3,4,6,5)": "2/3"},
    }
    for name, obj in files.items():
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    got_code, out, _ = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (got_code, _sha256(out)) == (code, sha)


def test_seed_range(capsys, law_file):
    # analyze only echoes the seed, but refuses one that example refuses
    for seed in ("-1", str(2**64)):
        for argv in (["example", "--replications", "1000"], ["analyze", "--law", law_file]):
            code, out, err = run(capsys, *argv, "--seed", seed, "--no-timestamp")
            assert (code, out) == (3, "")
            assert err == f"finevo: error: seed must be a 64-bit unsigned integer, got {seed}\n"
    code, out, _ = run(capsys, "analyze", "--law", law_file, "--no-timestamp")
    assert code == 0 and "seed" not in json.loads(out)
    # seed ^ r stays below 2^64 for every replication index
    code, out, _ = run(capsys, "example", "--replications", "2000", "--seed",
                       str(2**64 - 1), "--no-timestamp")
    assert (code, _sha256(out)) == (0, EXAMPLE_MAX_SEED_2000_SHA)


def test_example_checks_its_config_like_simulate(capsys):
    # the statistical checks take at least 1000 replications, so fewer are
    # refused with the config, before the analysis
    for replications in ("-5", "0", "999"):
        code, out, err = run(capsys, "example", "--replications", replications,
                             "--no-timestamp")
        assert (code, out) == (3, "")
        assert err == "finevo: error: replications must be >= 1000\n"


def _package_env() -> dict:
    src = str(Path(finevo.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_cli_import_leaves_scipy_stats_out():
    # the p-values need only scipy.special, a much smaller import
    for code in ("import sys, finevo.cli",
                 "import sys, finevo.stats as s; s._chi_square('x', 1.0, 1, 0.5)"):
        code += "; sys.exit('scipy.stats' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=_package_env()).returncode == 0


def test_closed_stdout_exits_3(law_file):
    # a reader that leaves before the report is written, as `| head -c 100`
    # does on a long report, is an output error and not a traceback
    proc = subprocess.Popen([sys.executable, "-m", "finevo", "analyze", "--law", law_file,
                             "--no-timestamp"], env=_package_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 3
    assert err == "finevo: error: cannot write report to stdout: [Errno 32] Broken pipe\n"
