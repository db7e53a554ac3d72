import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import weyltasep

from weyltasep import cli, closedform, walk
from weyltasep.cli import main
from weyltasep.ratio import R, fmt_ratio

from oracles import dist_from_json_obj


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_limdir_closed_text(capsys):
    code, out = run(capsys, "limdir", "--kind", "d", "--n", "4", "--method", "closed")
    assert code == 0
    assert out.strip() == "0, 5/58, 19/116, 1/4"


def test_limdir_lam_json(capsys):
    code, out = run(
        capsys,
        "limdir", "--kind", "b", "--n", "3", "--method", "lam", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients"] == ["1/15", "1/5", "1/3"]
    assert obj["version"]
    assert "seed" in obj and "parameters" in obj


@pytest.mark.parametrize("kind", ["c", "bcheck"])
@pytest.mark.parametrize("argv", [["limdir", "--method", "lam"], ["corr"]], ids=["lam", "corr"])
def test_c_and_bcheck_run_through_the_chain(capsys, argv, kind):
    code, out = run(capsys, *argv, "--kind", kind, "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["parameters"]["kind"] == kind


def test_partition_value(capsys):
    code, out = run(capsys, "partition", "--model", "b", "--n", "4", "--n0", "1")
    assert code == 0
    assert out.strip() == "56"


def test_partition_decimal(capsys):
    code, out = run(
        capsys,
        "partition", "--model", "semiperm", "--n", "3", "--n0", "1",
        "--alpha", "2/3", "--beta", "3/5", "--decimal", "3",
    )
    assert code == 0
    text = out.strip()
    assert text == "793/36 (22.028)"  # exact value plus decimal companion


def test_decimal_companion_of_a_value_past_every_float(capsys):
    # z_b(600, 1) has 720 digits; the companion is the integer itself
    code, out = run(capsys, "partition", "--model", "b", "--n", "600", "--n0", "1",
                    "--decimal", "2")
    assert code == 0
    z = str(closedform.z_b(600, 1))
    assert len(z) > 308 and out == f"{z} ({z}.00)\n"


def test_decimal_companion_digits_are_the_rationals(capsys):
    code, out = run(capsys, "limdir", "--kind", "b", "--n", "3", "--method", "lam",
                    "--decimal", "30")
    assert code == 0
    assert out.split(", ")[1] == "1/5 (0.2" + "0" * 29 + ")"
    assert out.split(", ")[2] == "1/3 (0." + "3" * 30 + ")\n"


@pytest.mark.parametrize(
    "val, digits, companion",
    [(R(1, 8), 2, "0.12"), (R(3, 8), 2, "0.38"), (R(3, 20), 1, "0.2"), (R(1, 20), 1, "0.0"),
     (R(-1, 100000), 3, "-0.000"), (R(-5, 2), 1, "-2.5"), (R(7), 2, "7.00"),
     (R(793, 36), 3, "22.028")],
)
def test_decimal_companion_rounds_half_to_even(val, digits, companion):
    assert cli._exact(val, digits) == f"{fmt_ratio(val)} ({companion})"


def test_stationary_json_roundtrip(capsys):
    code, out = run(
        capsys,
        "stationary", "--model", "dstar", "--n", "3", "--n0", "1",
        "--alpha", "1/2", "--alpha-star", "1/2", "--beta", "1/2",
        "--beta-star", "1/2",
    )
    assert code == 0
    obj = json.loads(out)
    dist = dist_from_json_obj(obj["dist"])
    assert len(dist) == 5
    assert obj["parameters"]["model"] == "dstar"


@pytest.mark.parametrize(
    "rates",
    [[], ["--alpha", "9/10", "--alpha-star", "1/5", "--beta", "2/5", "--beta-star", "7/9"],
     ["--alpha-star", "0"], ["--alpha-star", "0", "--beta-star", "0"]],
    ids=["default", "point2", "alpha-star-zero", "both-stars-zero"],
)
def test_stationary_dstar_prints_the_same_law_with_no_guess(capsys, monkeypatch, rates):
    # A guess that cannot be formed counts as none, and the kernel is solved.
    tried = []

    def no_guess(*args):
        tried.append(args)
        raise weyltasep.errors.NotIrreducible("no configurations in the restricted class")

    cases = ((3, 0), (4, 1), (5, 2), (6, 3), (6, 6))
    for n, n0 in cases:
        argv = ["stationary", "--model", "dstar", "--n", str(n), "--n0", str(n0), *rates]
        with monkeypatch.context() as patch:
            patch.setattr(weyltasep.tworow, "top_row_law", no_guess)
            solved = run(capsys, *argv)
        assert run(capsys, *argv) == solved, argv
    assert len(tried) == len(cases)


def test_corr_csv(capsys):
    code, out = run(
        capsys, "corr", "--kind", "b", "--n", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,p"
    assert len(lines) > 4


@pytest.mark.parametrize(
    "argv",
    [
        ["stationary", "--model", "multi", "--kind", "b", "--n", "2"],
        ["stationary", "--model", "two", "--kind", "d", "--n", "3", "--n0", "1"],
        ["stationary", "--model", "dstar", "--n", "3", "--n0", "1"],
        ["stationary", "--model", "semiperm", "--n", "2", "--alpha", "1/2", "--beta", "1/3"],
        ["stationary", "--model", "tworow", "--n", "3", "--n0", "1"],
        ["corr", "--kind", "ccheck", "--n", "3", "--decimal", "4"],
    ],
    ids=["multi", "two", "dstar", "semiperm", "tworow", "corr"],
)
def test_csv_rows_are_as_wide_as_the_header(capsys, argv):
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
    _, json_out = run(capsys, *argv)
    obj = json.loads(json_out)
    cells = obj.get("dist") or obj["cells"]
    assert rows == [list(cells[0])] + [[str(v) for v in cell.values()] for cell in cells]


def test_closed_stdout_exits_1_without_a_traceback():
    src = os.path.dirname(os.path.dirname(os.path.abspath(weyltasep.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "weyltasep.cli", "corr", "--kind", "b", "--n", "2",
             "--format", "csv"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_verify_suite_exit_codes(capsys):
    code, out = run(capsys, "verify", "--suite", "identities")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])


def test_verify_flags_reach_the_suites_that_read_them(capsys):
    for argv, name, detail in (
        (["--suite", "lumping", "--n-max", "2"], "k-coloring-lumpings", {"n_max": 2}),
        (["--suite", "identities", "--k-max", "0"], "half-rate-specials", {"k_max": 0}),
    ):
        code, out = run(capsys, "verify", *argv)
        assert code == 0
        (check,) = [c for c in json.loads(out)["checks"] if c["name"] == name]
        assert check == {"name": name, "pass": True, **detail}
    code, out = run(capsys, "verify", "--suite", "conjecture-b", "--n-max", "2")
    assert code == 0 and json.loads(out)["n"] == 2


def test_verify_conjecture_flagged(capsys):
    code, out = run(capsys, "verify", "--suite", "conjecture-b")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "conjecture verification"
    assert all(c.get("conjecture") for c in report["checks"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["limdir", "--kind", "q", "--n", "3"])
    assert exc.value.code == 2


def test_walk_json(capsys):
    code, out = run(
        capsys,
        "walk", "--kind", "b", "--n", "2", "--steps", "20000",
        "--trials", "2", "--seed", "4",
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) >= {
        "direction_estimate",
        "cosine_vs_closed_form",
        "acceptance_rate",
        "chambers",
    }
    assert obj["cosine_vs_closed_form"] > 0.99


def _no_walk(*args, **kwargs):
    raise AssertionError("a walk ran before the flags were checked")


SEEDED_WALK = ["--kind", "b", "--n", "2", "--steps", "2000", "--trials", "2", "--seed", "4"]


def test_limdir_walk_text_is_one_line(capsys):
    code, out = run(capsys, "limdir", "--method", "walk", *SEEDED_WALK)
    assert code == 0
    assert out == "0.340285, 0.940322\n"


@pytest.mark.parametrize("fmt", ["json"])
def test_limdir_walk_honours_format(capsys, fmt):
    code, out = run(capsys, "limdir", "--method", "walk", *SEEDED_WALK, "--format", fmt)
    assert code == 0
    obj = json.loads(out)
    walk_obj = json.loads(run(capsys, "walk", *SEEDED_WALK)[1])
    assert set(obj) == {"version", "seed", "parameters", "direction_estimate",
                        "cosine_vs_closed_form", "acceptance_rate"}
    for key in ("seed", "direction_estimate", "cosine_vs_closed_form", "acceptance_rate"):
        assert obj[key] == walk_obj[key]
    assert obj["parameters"] == dict(walk_obj["parameters"], method="walk")
    assert obj["direction_estimate"] == [0.3402852506130951, 0.9403222576410617]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["limdir", "--method", "walk", "--format", "csv"],
         "invalid choice: 'csv' (choose from 'text', 'json')"),
        (["limdir", "--method", "walk", "--decimal", "3"],
         "--decimal does not apply to --method walk"),
        (["limdir", "--method", "walk", "--decimal", "0"], "expected a positive integer, got '0'"),
        (["walk", "--format", "csv"], "invalid choice: 'csv' (choose from 'json')"),
        (["walk", "--format", "text"], "invalid choice: 'text' (choose from 'json')"),
    ],
    ids=["limdir-walk-csv", "limdir-walk-decimal", "limdir-walk-decimal-0", "walk-csv",
         "walk-text"],
)
def test_walk_flags_that_would_do_nothing_are_usage_errors(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "estimate_direction", _no_walk)
    with pytest.raises(SystemExit) as exc:
        main([*argv, *SEEDED_WALK])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"weyltasep {argv[0]}: error: ")
    assert captured.err.count("\n") == 1 and message in captured.err


def test_walk_weights_beyond_a_byte_are_one_line(capsys, monkeypatch):
    monkeypatch.setattr(walk, "fundamental_point", _no_walk)
    with pytest.raises(SystemExit) as exc:
        main(["walk", "--kind", "b", "--n", "129", "--steps", "10", "--trials", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == ("weyltasep walk: error: walk proposals are drawn from bytes, so the step "
                   "weights must total at most 256; those of B129 total 258\n")


def test_env_var_seed(capsys, monkeypatch):
    monkeypatch.setenv("WEYLTASEP_SEED", "123")
    calls = []

    def short_walk(kind, n, steps, trials, seed):
        calls.append((steps, trials, seed))
        return walk.estimate_direction(kind, n, 100, 1, seed)

    monkeypatch.setattr(cli, "estimate_direction", short_walk)
    for argv in (["walk"], ["limdir", "--method", "walk"]):
        assert main([*argv, "--kind", "b", "--n", "2"]) == 0
    assert calls == [(100_000, 10, 123)] * 2  # limdir takes the walk defaults


def test_bad_env_var_seed_is_read_only_by_walks(capsys, monkeypatch):
    monkeypatch.setenv("WEYLTASEP_SEED", "abc")
    monkeypatch.setattr(cli, "estimate_direction", _no_walk)
    for argv in (["walk"], ["limdir", "--method", "walk"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--kind", "b", "--n", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"weyltasep {argv[0]}: error: ")
        assert captured.err.count("\n") == 1
        assert "WEYLTASEP_SEED must be an integer, got 'abc'" in captured.err
    # subcommands that take no seed, and walks given --seed, ignore it
    code, out = run(capsys, "limdir", "--kind", "b", "--n", "3")
    assert (code, out) == (0, "1/15, 1/5, 1/3\n")
    calls = []
    monkeypatch.setattr(cli, "estimate_direction",
                        lambda kind, n, steps, trials, seed: calls.append(seed) or
                        walk.estimate_direction(kind, n, 100, 1, seed))
    for argv in (["walk"], ["limdir", "--method", "walk"]):
        assert main([*argv, "--kind", "b", "--n", "2", "--seed", "7"]) == 0
    assert calls == [7, 7]


@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "--kind", "b", "--n", "2", "--steps", "0"],
        ["walk", "--kind", "b", "--n", "2", "--trials", "0"],
        ["limdir", "--kind", "b", "--n", "2", "--method", "walk", "--steps", "0"],
    ],
    ids=["walk-steps", "walk-trials", "limdir-steps"],
)
def test_zero_counts_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "positive integer" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["walk", "--kind", "d", "--n", "2", "--steps", "10", "--trials", "1"], "linearly dependent"),
        (["stationary", "--model", "two", "--kind", "b", "--n", "3", "--n0", "5"], "n0 <= n"),
        (["limdir", "--kind", "d", "--n", "1"], "rank >= 2"),
        (["partition", "--model", "semiperm", "--n", "3", "--alpha", "3/0"], "3/0"),
        (["stationary", "--model", "semiperm", "--n", "2", "--alpha", "abc"], "abc"),
        (["stationary", "--model", "multi", "--n", "3"], "--model multi needs --kind"),
        (["stationary", "--model", "semiperm", "--n", "2", "--alpha", "5"], "state (-1, -1)"),
        (["partition", "--model", "semiperm", "--n", "3", "--n0", "4", "--alpha", "1/2",
          "--beta", "1/3"], "bad zero count 4"),
        (["partition", "--model", "semiperm", "--n", "0", "--n0", "0", "--alpha", "1", "--beta", "1"],
         "semipermeable process needs rank n >= 1, got 0"),
        (["partition", "--model", "semiperm", "--n", "-1", "--alpha", "1", "--beta", "1"],
         "semipermeable process needs rank n >= 1, got -1"),
        (["stationary", "--model", "semiperm", "--n", "0", "--alpha", "1", "--beta", "1"],
         "semipermeable process needs rank n >= 1, got 0"),
        (["stationary", "--model", "semiperm", "--n", "-1", "--alpha", "1", "--beta", "1"],
         "semipermeable process needs rank n >= 1, got -1"),
        (["partition", "--model", "d", "--n", "1"], "D two-species process needs rank n >= 2, got 1"),
        (["partition", "--model", "b", "--n", "-2"],
         "B two-species process needs rank n >= 2, got -2"),
        (["partition", "--model", "tworow", "--n", "0"], "bad sizes n=0, n0=0"),
        (["corr", "--kind", "ccheck", "--n", "1"], "correlations need rank n >= 2, got 1"),
        (["corr", "--kind", "c", "--n", "1"], "correlations need rank n >= 2, got 1"),
        (["stationary", "--model", "dstar", "--n", "3", "--decimal", "3"],
         "unrecognized arguments: --decimal 3"),
        (["walk", "--kind", "b", "--n", "2", "--decimal", "3"], "unrecognized arguments: --decimal 3"),
        (["verify", "--suite", "lumping", "--n-max", "-3"], "needs n_max >= 2, got -3"),
        (["verify", "--suite", "lumping", "--n-max", "1"], "needs n_max >= 2, got 1"),
        (["verify", "--suite", "conjecture-b", "--n-max", "1"], "needs n >= 2, got 1"),
        (["verify", "--suite", "identities", "--k-max", "-2"], "needs k_max >= 0, got -2"),
        (["verify", "--suite", "tables", "--n-max", "7"], "--n-max does not apply to --suite tables"),
        (["verify", "--suite", "tworow", "--k-max", "3"], "--k-max does not apply to --suite tworow"),
        (["verify", "--suite", "identities", "--n-max", "3"],
         "--n-max does not apply to --suite identities"),
        (["verify", "--suite", "lumping", "--k-max", "3"],
         "--k-max does not apply to --suite lumping"),
        (["walk", "--kind", "b", "--n", "2", "--steps", "10", "--trials", "2",
          "--svg", "/nonexistent/dir/x.svg"], "cannot write --svg /nonexistent/dir/x.svg"),
        (["limdir", "--kind", "b", "--n", "3", "--steps", "5"],
         "--steps does not apply to --method closed"),
        (["limdir", "--kind", "b", "--n", "3", "--method", "lam", "--trials", "3"],
         "--trials does not apply to --method lam"),
        (["limdir", "--kind", "b", "--n", "3", "--method", "closed", "--seed", "0"],
         "--seed does not apply to --method closed"),
        (["verify", "--suite", "tables", "--format", "csv"],
         "invalid choice: 'csv' (choose from 'json')"),
        (["limdir", "--kind", "b", "--n", "3", "--decimal", "-3"],
         "argument --decimal: expected a positive integer, got '-3'"),
        (["corr", "--kind", "b", "--n", "2", "--decimal", "-1"],
         "argument --decimal: expected a positive integer, got '-1'"),
        (["corr", "--kind", "b", "--n", "2", "--decimal", "0"],
         "argument --decimal: expected a positive integer, got '0'"),
        (["stationary", "--model", "dstar", "--n", "2", "--n0", "1"], "2 closed classes"),
        (["stationary", "--model", "dstar", "--n", "3", "--n0", "2", "--alpha-star", "0",
          "--beta-star", "0"], "2 closed classes"),
    ],
    ids=["d2-walk", "n0-above-n", "d1-limdir", "alpha-zero-denominator", "alpha-not-rational",
         "missing-kind", "semiperm-oversized-rate", "semiperm-partition-n0-above-n",
         "partition-semiperm-rank-0", "partition-semiperm-negative-rank",
         "stationary-semiperm-rank-0", "stationary-semiperm-negative-rank",
         "partition-d-rank-1", "partition-b-negative-rank", "partition-tworow-rank-0",
         "corr-ccheck-rank-1",
         "corr-c-rank-1",
         "stationary-decimal", "walk-decimal", "verify-lumping-negative-n-max",
         "verify-lumping-n-max-1", "verify-conjecture-b-n-max-1", "verify-negative-k-max",
         "verify-tables-n-max", "verify-tworow-k-max", "verify-identities-n-max",
         "verify-lumping-k-max", "walk-svg-unwritable", "limdir-closed-steps",
         "limdir-lam-trials", "limdir-closed-seed", "verify-csv", "limdir-negative-decimal",
         "corr-negative-decimal", "corr-zero-decimal", "dstar-two-closed-classes",
         "dstar-no-product-form"],
)
def test_bad_input_is_one_line_and_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"weyltasep {argv[0]}: error: ")
    assert captured.err.count("\n") == 1 and message in captured.err


def test_walk_svg_off_rank_2_rejected_before_any_work(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "estimate_direction", _no_walk)
    path = tmp_path / "walk.svg"
    with pytest.raises(SystemExit) as exc:
        main(["walk", "--kind", "b", "--n", "3", "--steps", "10", "--trials", "1",
              "--svg", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "weyltasep walk: error: --svg needs --n 2 (SVG dumps are rank 2 only)\n"
    assert not path.exists()


@pytest.mark.parametrize("target", ["missing/walk.svg", "."], ids=["no-directory", "directory"])
def test_walk_svg_unwritable_rejected_before_any_work(capsys, monkeypatch, tmp_path, target):
    monkeypatch.setattr(cli, "estimate_direction", _no_walk)
    path = str(tmp_path / target)
    with pytest.raises(SystemExit) as exc:
        main(["walk", "--kind", "b", "--n", "2", "--steps", "10", "--trials", "1",
              "--svg", path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"weyltasep walk: error: cannot write --svg {path}: ")
    assert captured.err.count("\n") == 1


def test_decimal_companion_in_json(capsys):
    code, out = run(capsys, "partition", "--model", "b", "--n", "4", "--n0", "1",
                    "--format", "json", "--decimal", "3")
    assert code == 0 and json.loads(out)["partition"] == "56 (56.000)"
    code, out = run(capsys, "limdir", "--kind", "b", "--n", "3", "--method", "lam",
                    "--format", "json", "--decimal", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients"] == ["1/15 (0.0667)", "1/5 (0.2000)", "1/3 (0.3333)"]
    assert obj["normalized"] == ["1/9 (0.1111)", "1/3 (0.3333)", "5/9 (0.5556)"]


# A valid value of each optional flag of cli.READS.
VALUES = {"kind": "b", "n0": "1", "alpha": "1/2", "alpha_star": "1/3", "beta": "2/3",
          "beta_star": "1/4", "decimal": "3", "steps": "10", "trials": "1", "seed": "3",
          "svg": "walk.svg", "n_max": "3", "k_max": "2"}
MODES = [(command, mode) for command, modes in cli.READS.items() for mode in modes]


def _option(flag):
    return "--" + flag.replace("_", "-")


def _base_argv(command, mode):
    """The command with its mode, its rank and, where the mode reads it, --kind."""
    argv = [command]
    if mode is not None:
        argv += [_option(cli.MODE[command]), mode]
    if command != "verify":
        argv += ["--n", "2"]
    if "kind" in cli.READS[command][mode]:
        argv += ["--kind", "b"]
    return argv


def test_the_table_names_every_suite_and_mode():
    assert set(cli.READS) == set(cli.COMMANDS)
    assert set(cli.READS["verify"]) == set(weyltasep.verify.SUITES)
    for command, modes in cli.READS.items():
        assert (None in modes) == (command not in cli.MODE)
        assert all(flag in VALUES for reads in modes.values() for flag in reads)


@pytest.mark.parametrize(
    "command,mode,flag",
    [(command, mode, flag) for command, mode in MODES
     for flag in sorted(set().union(*cli.READS[command].values()) - set(cli.READS[command][mode]))],
    ids=lambda v: str(v),
)
def test_a_flag_the_mode_does_not_read_is_a_usage_error(capsys, monkeypatch, command, mode, flag):
    monkeypatch.setattr(cli, "exact_stationary", _no_walk)
    monkeypatch.setattr(cli, "estimate_direction", _no_walk)
    with pytest.raises(SystemExit) as exc:
        main([*_base_argv(command, mode), _option(flag), VALUES[flag]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"weyltasep {command}: error: {_option(flag)} does not apply to "
                            f"{_option(cli.MODE[command])} {mode}\n")


@pytest.mark.parametrize("command,mode", MODES, ids=lambda v: str(v))
def test_the_flags_a_mode_reads_reach_its_command(monkeypatch, tmp_path, command, mode):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WEYLTASEP_SEED", raising=False)
    seen = []
    help_text, formats, _ = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command,
                        (help_text, formats, lambda args: seen.append(vars(args)) or 0))
    reads = cli.READS[command][mode]
    given = [arg for flag in reads if flag != "kind" for arg in (_option(flag), VALUES[flag])]
    assert main(_base_argv(command, mode) + given) == 0
    assert main(_base_argv(command, mode)) == 0
    for flag in set().union(*cli.READS[command].values()):
        if flag in reads:  # the seed of a walk comes from the unset WEYLTASEP_SEED
            assert str(seen[0][flag]) == VALUES[flag]
            assert seen[1][flag] == {"kind": "b", "seed": 0}.get(flag, cli.DEFAULTS.get(flag))
        else:
            assert seen[0][flag] == seen[1][flag] == cli.DEFAULTS.get(flag)
    assert seen[0]["format"] == seen[1]["format"] == formats[0]


def readme_examples():
    """The weyltasep commands of README's "Command line" block, each with its `# -> ` output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            examples.append([shlex.split(command), None])
        if comment.strip().startswith("->"):
            examples[-1][1] = comment.strip()[2:].strip()
    return examples


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) >= 10
    for argv, expected in examples:
        assert argv[0] == "weyltasep"
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if expected is not None:
            assert out == expected + "\n", argv
    assert (tmp_path / "walk.svg").read_text().startswith("<svg")
