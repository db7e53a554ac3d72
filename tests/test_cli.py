import json

import pytest

from weyltasep import cli, walk
from weyltasep.cli import main

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


def test_corr_csv(capsys):
    code, out = run(
        capsys, "corr", "--kind", "b", "--n", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,p"
    assert len(lines) > 4


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
        (["limdir", "--method", "walk", "--format", "csv"], "writes text or json, not csv"),
        (["limdir", "--method", "walk", "--decimal", "3"], "--decimal does not apply"),
        (["limdir", "--method", "walk", "--decimal", "0"], "--decimal does not apply"),
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
    parser = cli.make_parser()
    args = parser.parse_args(["walk", "--kind", "b", "--n", "2"])
    assert args.seed == 123
    calls = []

    def short_walk(kind, n, steps, trials, seed):
        calls.append((steps, trials, seed))
        return walk.estimate_direction(kind, n, 100, 1, seed)

    monkeypatch.setattr(cli, "estimate_direction", short_walk)
    for argv in (["walk"], ["limdir", "--method", "walk"]):
        assert main([*argv, "--kind", "b", "--n", "2"]) == 0
    assert calls == [(100_000, 10, 123)] * 2  # limdir takes the walk defaults


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
        (["stationary", "--model", "multi", "--n", "3"], "needs --kind"),
        (["stationary", "--model", "semiperm", "--n", "2", "--alpha", "5"], "state (-1, -1)"),
        (["partition", "--model", "semiperm", "--n", "3", "--n0", "4", "--alpha", "1/2",
          "--beta", "1/3"], "bad zero count 4"),
        (["stationary", "--model", "dstar", "--n", "3", "--decimal", "3"],
         "unrecognized arguments: --decimal 3"),
        (["walk", "--kind", "b", "--n", "2", "--decimal", "3"], "unrecognized arguments: --decimal 3"),
        (["verify", "--suite", "lumping", "--n-max", "-3"], "needs n_max >= 2, got -3"),
        (["verify", "--suite", "lumping", "--n-max", "1"], "needs n_max >= 2, got 1"),
        (["verify", "--suite", "conjecture-b", "--n-max", "1"], "needs n >= 2, got 1"),
        (["verify", "--suite", "identities", "--k-max", "-2"], "needs k_max >= 0, got -2"),
        (["verify", "--suite", "tables", "--n-max", "7"], "suite tables does not read --n-max"),
        (["verify", "--suite", "tworow", "--k-max", "3"], "suite tworow does not read --k-max"),
        (["verify", "--suite", "identities", "--n-max", "3"],
         "suite identities does not read --n-max"),
        (["verify", "--suite", "lumping", "--k-max", "3"], "suite lumping does not read --k-max"),
        (["walk", "--kind", "b", "--n", "2", "--steps", "10", "--trials", "2",
          "--svg", "/nonexistent/dir/x.svg"], "cannot write --svg /nonexistent/dir/x.svg"),
        (["limdir", "--kind", "b", "--n", "3", "--steps", "5"],
         "--steps applies only to --method walk"),
        (["limdir", "--kind", "b", "--n", "3", "--method", "lam", "--trials", "3"],
         "--trials applies only to --method walk"),
        (["limdir", "--kind", "b", "--n", "3", "--method", "closed", "--seed", "0"],
         "--seed applies only to --method walk"),
    ],
    ids=["d2-walk", "n0-above-n", "d1-limdir", "alpha-zero-denominator", "alpha-not-rational",
         "missing-kind", "semiperm-oversized-rate", "semiperm-partition-n0-above-n",
         "stationary-decimal", "walk-decimal", "verify-lumping-negative-n-max",
         "verify-lumping-n-max-1", "verify-conjecture-b-n-max-1", "verify-negative-k-max",
         "verify-tables-n-max", "verify-tworow-k-max", "verify-identities-n-max",
         "verify-lumping-k-max", "walk-svg-unwritable", "limdir-closed-steps",
         "limdir-lam-trials", "limdir-closed-seed"],
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
