"""End-to-end acceptance checks.

Each test prints one PASS line when its criterion holds; every comparison
is exact unless the criterion is explicitly a Monte Carlo one.
"""
import hashlib
import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import oracles
import weyltasep.closedform as cf
from weyltasep.cli import main
from weyltasep.markov import exact_stationary
from weyltasep.models import build_multi
from weyltasep.ratio import R, ZERO, parse_ratio
from weyltasep.verify import (
    TABLE_B_PAIRS_N4,
    suite_conjecture_b,
    suite_identities,
    suite_lumping,
    suite_tables,
    suite_tworow,
)
from weyltasep.walk import estimate_direction
from weyltasep.weyl import WeylKind


def _passed(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def _checks(report):
    return {c["name"]: c for c in report["checks"]}


# Each suite at the sizes `verify.run_suite` uses by default, built once per module.
@pytest.fixture(scope="module")
def identities_report():
    return suite_identities()


@pytest.fixture(scope="module")
def tworow_report():
    return suite_tworow()


@pytest.fixture(scope="module")
def lumping_report():
    return suite_lumping()


@pytest.fixture(scope="module")
def conjecture_b_report():
    return suite_conjecture_b()


@pytest.fixture(scope="module")
def tables_report():
    return suite_tables()


def test_criterion_01_pair_correlation_table_rank4():
    t0 = time.time()
    kernel = build_multi(WeylKind("B", 4), 4)
    assert len(kernel) == 384
    pi = exact_stationary(kernel)
    corr = {}
    for w, p in pi.items():
        corr[(w[-2], w[-1])] = corr.get((w[-2], w[-1]), ZERO) + p
    elapsed = time.time() - t0
    for i, cells in TABLE_B_PAIRS_N4.items():
        for j, text in zip((-4, -3, -2, -1), cells):
            assert corr.get((i, j), ZERO) == parse_ratio(text), (i, j)
            assert corr.get((i, -j), ZERO) == parse_ratio(text), (i, -j)
    assert corr.get((-3, -2)) == R(19, 448)
    assert corr.get((2, -3)) == R(3, 56)
    assert corr.get((3, -4)) == R(13, 224)
    assert elapsed < 10.0
    _passed(1, f"384-state pair table reproduced exactly in {elapsed:.2f}s")


def test_criterion_02_last_site_densities_and_direction_ccheck():
    for n in range(1, 5):
        dens = oracles.last_site_density("Ccheck", n)
        for i in range(1, n + 1):
            assert dens.get(i, ZERO) == R(2 * i + 1, 2 * n * (2 * n + 1))
    for n in range(2, 5):
        lam = cf.limdir_exact_lam(WeylKind("Ccheck", n), n)
        pattern = cf.DirectionVector(tuple(R(2 * i + 1) for i in range(1, n + 1)))
        assert lam.proportional_to(pattern)
    _passed(2, "Ccheck last-site densities and direction (3,5,...,2n+1), n<=4")


def test_criterion_03_direction_b():
    for n in range(2, 5):
        lam = cf.limdir_exact_lam(WeylKind("B", n), n)
        closed = tuple(R(2 * k - 1, n * (2 * n - 1)) for k in range(1, n + 1))
        assert lam.coeffs == closed
        pattern = cf.DirectionVector(tuple(R(2 * k - 1) for k in range(1, n + 1)))
        assert lam.proportional_to(pattern)
    _passed(3, "B direction equals ((2k-1)/(n(2n-1)))_k exactly, n<=4")


def test_criterion_04_direction_d_table(tables_report):
    assert _checks(tables_report)["directions-d"]["pass"]
    for n in range(2, 5):
        lam = cf.limdir_exact_lam(WeylKind("D", n), n)
        assert lam.coeffs == cf.limdir_closed(WeylKind("D", n), n).coeffs
    _passed(4, "D direction table rows n=2..6 and exact equality n<=4")


def test_criterion_05_direction_c_and_bcheck_tables(tables_report):
    checks = _checks(tables_report)
    assert checks["directions-c"]["pass"]
    assert checks["directions-bcheck"]["pass"]
    for n in range(1, 6):
        d = cf.limdir_closed(WeylKind("D", n + 1), n + 1).coeffs
        c = cf.limdir_closed(WeylKind("C", n), n).coeffs
        assert d[1:] == c
    _passed(5, "C and Bcheck direction tables; D/C coincidence n<=5")


def test_criterion_06_partition_functions(tworow_report):
    # suite_tworow compares the two-row weight sums with z_b and z_d for
    # n <= 8 (4 z_d at n0 = 0) and with the ballot numbers for n <= 6
    checks = _checks(tworow_report)
    assert checks["partition-b"]["pass"] and checks["partition-b"]["n_max"] == 8
    assert checks["partition-d"]["pass"] and checks["partition-d"]["n_max"] == 8
    assert checks["partition-semipermeable"]["pass"]
    _passed(6, "two-row weight sums match all partition formulas, n<=8")


def test_criterion_07_two_row_core(tworow_report):
    report = tworow_report
    names = {c["name"]: c["pass"] for c in report["checks"]}
    assert names["wall-map-bijective"]
    assert names["transfer-identity"]
    assert names["product-form-vs-solve"]
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]
    _passed(7, "wall-map bijection (n<=6), transfer identity, product form")


def test_criterion_08_lumping_tower(lumping_report):
    report = lumping_report
    assert _checks(report)["k-coloring-lumpings"]["n_max"] == 4
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]
    _passed(8, "colorings, star collapses and projections verified, n<=4")


def test_criterion_09_identity_suite(identities_report):
    report = identities_report
    checks = _checks(report)
    assert checks["half-rate-specials"]["k_max"] == 12
    assert checks["motzkin-paths-vs-double-sum"]["k_max"] == 8
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]
    _passed(9, "ballot/path identities and generating function to order 12")


def test_criterion_10_correlation_sums():
    for fam, nmax in (("B", 4), ("D", 4)):
        for n in range((3 if fam == "D" else 2), nmax + 1):
            for i in list(range(-n, 0)) + list(range(1, n + 1)):
                closed = cf.multi_sums(fam, n, i)
                exact = oracles.hook_sums_exact(fam, n, i)
                assert (closed.row, closed.col) == (exact.row, exact.col), (fam, n, i)
                if i > 0:
                    assert (closed.hd, closed.hu) == (exact.hd, exact.hu), (fam, n, i)
    for n in range(2, 5):
        exact_first = oracles.first_site_density("B", n)
        for k in range(-n, n + 1):
            if k:
                assert exact_first.get(k, ZERO) == cf.b_first_site(n, k)
        dens = oracles.last_site_density("B", n)
        assert all(dens[k] == R(1, 2 * n) for k in range(-n, n + 1) if k != 0)
    _passed(10, "row/column/hook sums, first-site law, uniform last site, n<=4")


def test_criterion_11_conjectured_pair_values_rank4(conjecture_b_report):
    report = conjecture_b_report
    assert report["n"] == 4
    assert report["status"] == "conjecture verification"
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]
    cases = {c["name"]: c["pairs"] for c in report["checks"]}
    assert set(cases) == {f"case-{k}" for k in range(1, 6)}
    _passed(11, "all five conjectured case families verified exactly at n=4")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_cli_cases():
    """(key, argv) of each CLI output whose digest tests/golden_verify.json holds."""
    for kind in ("b", "c", "bcheck", "ccheck", "d"):
        for n in (2, 3, 4):
            size = ["--kind", kind, "--n", str(n)]
            yield f"corr-{kind}-{n}", ["corr", *size]
            yield f"limdir-lam-{kind}-{n}", ["limdir", "--method", "lam", *size]
            yield f"stationary-multi-{kind}-{n}", ["stationary", "--model", "multi", *size]
            for n0 in range(n + 1):
                yield (f"stationary-two-{kind}-{n}-{n0}",
                       ["stationary", "--model", "two", *size, "--n0", str(n0)])
        # The closed forms up to rank 8, and the highest-root direction and the
        # final-pair correlations at rank 5.
        for n in range(2 if kind == "d" else 1, 9):
            yield (f"limdir-closed-{kind}-{n}",
                   ["limdir", "--method", "closed", "--kind", kind, "--n", str(n)])
        yield f"limdir-lam-{kind}-5", ["limdir", "--method", "lam", "--kind", kind, "--n", "5"]
        yield f"corr-{kind}-5", ["corr", "--kind", kind, "--n", "5"]
        if kind in ("b", "d"):
            yield (f"stationary-multi-{kind}-5",
                   ["stationary", "--model", "multi", "--kind", kind, "--n", "5"])
    # Two-row laws at the default rates and with a zero starred rate (the
    # closed-class restriction), and two-row partition sums past the listing.
    zero_star = ["--alpha", "2/3", "--alpha-star", "0", "--beta", "1/2", "--beta-star", "5/11"]
    for n in range(1, 6):
        for n0 in range(n + 1):
            size = ["--model", "tworow", "--n", str(n), "--n0", str(n0)]
            yield f"stationary-tworow-{n}-{n0}", ["stationary", *size]
            yield f"stationary-tworow-zero-star-{n}-{n0}", ["stationary", *size, *zero_star]
    rates = ["--alpha", "2/3", "--alpha-star", "3/7", "--beta", "1/2", "--beta-star", "5/11"]
    for n in range(1, 9):
        for n0 in range(n + 1):
            yield (f"partition-tworow-{n}-{n0}",
                   ["partition", "--model", "tworow", "--n", str(n), "--n0", str(n0), *rates])
    # The D*-TASEP and the semipermeable laws (D* at n = 2, n0 = 1 has two
    # closed classes), and the B, D and semipermeable partition functions.
    semiperm = ["--alpha", "2/3", "--beta", "3/5"]
    rates_p2 = ["--alpha", "9/10", "--alpha-star", "1/5", "--beta", "2/5", "--beta-star", "7/9"]
    yield ("stationary-dstar-half-3-1",  # the README example
           ["stationary", "--model", "dstar", "--n", "3", "--n0", "1",
            "--alpha", "1/2", "--alpha-star", "1/2", "--beta", "1/2", "--beta-star", "1/2"])
    for n in range(1, 9):
        for n0 in range(n + 1):
            size = ["--n", str(n), "--n0", str(n0)]
            if 3 <= n <= 5:
                yield f"stationary-dstar-{n}-{n0}", ["stationary", "--model", "dstar", *size, *rates]
            if 6 <= n:  # at verify.PARAM_POINTS[2], where (6, 1), (7, 2) and (8, 3) solve in decimal
                yield (f"stationary-dstar-p2-{n}-{n0}",
                       ["stationary", "--model", "dstar", *size, *rates_p2])
            if n <= 7:
                yield (f"stationary-semiperm-{n}-{n0}",
                       ["stationary", "--model", "semiperm", *size, *semiperm])
            if n >= 2:
                yield f"partition-b-{n}-{n0}", ["partition", "--model", "b", *size]
                yield f"partition-d-{n}-{n0}", ["partition", "--model", "d", *size]
            yield (f"partition-semiperm-{n}-{n0}",
                   ["partition", "--model", "semiperm", *size, *semiperm])


def test_default_verify_reports_match_golden_digests(
    identities_report, tworow_report, lumping_report, conjecture_b_report, tables_report
):
    # tests/golden_verify.json holds the sha256 of json.dumps(report, sort_keys=True)
    # for each default report, and of the JSON that the CLI prints for each case of
    # _golden_cli_cases (keys "corr-b-2", "limdir-lam-d-4", "stationary-two-b-3-1",
    # ...); an intended change to one of them edits that file.
    reports = {
        "identities": identities_report,
        "tworow": tworow_report,
        "lumping": lumping_report,
        "conjecture-b": conjecture_b_report,
        "tables": tables_report,
    }
    digests = {name: _sha256(json.dumps(report, sort_keys=True))
               for name, report in reports.items()}
    for key, argv in _golden_cli_cases():
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([*argv, "--format", "json"]) == 0, key
        digests[key] = _sha256(out.getvalue())
    assert digests == json.loads((Path(__file__).parent / "golden_verify.json").read_text())


@pytest.mark.parametrize("n", [5, 6])
def test_criterion_11b_conjectured_pair_values_at_rank(n):
    report = suite_conjecture_b(n=n)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]
    _passed("11b", f"conjectured case families verified exactly at n={n}")


def test_criterion_12_alcove_walk_directions():
    t0 = time.time()
    for family, n in (("B", 2), ("B", 3), ("Ccheck", 2), ("D", 3)):
        kind = WeylKind(family, n)
        est = estimate_direction(kind, n, steps=1_000_000, trials=10, seed=2024)
        assert est.cosine_vs_closed_form >= 0.999, (family, n, est)
        rerun = estimate_direction(kind, n, steps=1000, trials=2, seed=7)
        again = estimate_direction(kind, n, steps=1000, trials=2, seed=7)
        assert rerun.direction == again.direction
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _passed(12, f"four walk configurations at cosine >= 0.999 in {elapsed:.0f}s")
