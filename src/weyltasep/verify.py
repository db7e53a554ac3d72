"""Self-contained verification suites run by the command line and the tests.

Each suite returns a JSON-serializable report: the suite name, an overall
pass flag, and one entry per check.  All comparisons are exact unless a
check is explicitly about floating-point proximity.
"""
from __future__ import annotations

import math
from operator import itemgetter

from . import closedform as cf
from . import tworow as tr
from .errors import RangeError
from .lumping import cut_coloring, project_distribution, star_lift, verify_lumping
from .markov import exact_stationary
from .models import (DStarParams, STAR, STAR_RATES, build_cut_chain, build_dstar, build_multi,
                     star_chain)
from .ratio import R, ZERO, fmt_ratio, parse_ratio
from .weyl import WeylKind

# Reference data reproduced by `verify --suite tables`.
# Final-pair probabilities (i at the next-to-last site, -j at the last) of
# the rank-4 B multispecies chain; columns j = 4, 3, 2, 1.
TABLE_B_PAIRS_N4 = {
    -4: ("0", "1/32", "1/64", "1/64"),
    -3: ("1/224", "0", "19/448", "1/64"),
    -2: ("2/224", "1/224", "0", "11/224"),
    -1: ("3/224", "2/224", "1/224", "0"),
    1: ("4/224", "3/224", "1/32", "0"),
    2: ("5/224", "3/56", "0", "1/224"),
    3: ("13/224", "0", "1/112", "3/224"),
    4: ("0", "3/224", "5/224", "3/112"),
}

# Limiting-direction coefficients c_1..c_n per family and rank.
TABLE_D_CI = {
    2: ("1/2", "1/2"),
    3: ("0", "1/6", "1/3"),
    4: ("0", "5/58", "19/116", "1/4"),
    5: ("0", "7/130", "147/1495", "17/115", "1/5"),
    6: ("0", "21/562", "1077/16298", "381/3886", "53/402", "1/6"),
}
TABLE_BCHECK_CI = {
    2: ("1/10", "2/5"),
    3: ("1/22", "13/77", "2/7"),
    4: ("5/186", "326/3441", "52/333", "2/9"),
}
TABLE_C_CI = {
    1: ("1/2",),
    2: ("1/6", "1/3"),
    3: ("5/58", "19/116", "1/4"),
    4: ("7/130", "147/1495", "17/115", "1/5"),
}

PARAM_POINTS = (
    DStarParams(R(2, 3), R(3, 7), R(1, 2), R(5, 11)),
    DStarParams(R(1, 2), R(1, 2), R(1, 2), R(1, 2)),
    DStarParams(R(9, 10), R(1, 5), R(2, 5), R(7, 9)),
)


def _check(checks: list, name: str, ok: bool, **details):
    entry = {"name": name, "pass": bool(ok)}
    entry.update(details)
    checks.append(entry)
    return ok


def _at_least(suite: str, **sizes) -> None:
    """Raise RangeError unless every size, given as (value, minimum), reaches it.

    A smaller size leaves some check looping over nothing, which would pass.
    """
    for name, (value, low) in sizes.items():
        if value < low:
            raise RangeError(f"the {suite} suite needs {name} >= {low}, got {value}")


def _report(suite: str, checks: list) -> dict:
    return {"suite": suite, "pass": all(c["pass"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------


def suite_identities(a_max: int = 10, k_max: int = 12, motzkin_k: int = 8) -> dict:
    _at_least("identities", a_max=(a_max, 1), k_max=(k_max, 0), motzkin_k=(motzkin_k, 0))
    checks: list = []

    rows = [[cf.ballot(n, k) for k in range(n + 1)] for n in range(5)]
    _check(
        checks,
        "ballot-triangle",
        rows == [[1], [1, 1], [1, 2, 2], [1, 3, 5, 5], [1, 4, 9, 14, 14]],
    )
    ok = all(
        cf.ballot(n, k) == cf.ballot(n - 1, k) + cf.ballot(n, k - 1)
        for n in range(1, 13)
        for k in range(1, n)
    )
    _check(checks, "ballot-recurrence", ok)
    _check(
        checks,
        "catalan",
        all(cf.catalan(n) == cf.ballot(n, n - 1) for n in range(1, 13))
        and cf.catalan(3) == 5,
    )

    ok = all(
        sum(cf.ballot0(a - i, b - i) * cf.ballot0(i, i - j) for i in range(j, b + 1))
        == cf.ballot(a + 1, b - j)
        for a in range(a_max + 1)
        for b in range(a + 1)
        for j in range(b + 1)
    )
    _check(checks, "ballot-product-sum", ok)

    ok = True
    for n in range(1, a_max + 1):
        for b in range(n + 1):
            for d in range(b + 1):
                for a in range(b - d + 1):
                    lhs = sum(
                        cf.ballot0(i + d, i)
                        * cf.comb0(2 * n - 2 * i - d - a, n - b - i)
                        for i in range(n - b + 1)
                    )
                    if lhs != cf.comb0(2 * n - a + 1, n - b):
                        ok = False
    _check(checks, "ballot-binomial-sum", ok)

    points = ((R(2, 3), R(5, 7)), (R(1, 2), R(1, 2)), (R(7, 5), R(3, 11)))
    ok = all(
        cf.v_poly(k, a, b) == cf.enumerate_bicolored_motzkin(k, a, b)
        for k in range(motzkin_k + 1)
        for a, b in points
    )
    _check(checks, "motzkin-paths-vs-double-sum", ok, k_max=motzkin_k)

    half = R(1, 2)
    ok = all(
        cf.m_poly(k, half) == math.comb(2 * k + 1, k)
        and cf.v_poly(k, half, half) == 4**k
        for k in range(k_max + 1)
    )
    _check(checks, "half-rate-specials", ok, k_max=k_max)

    ok = all(
        tr.count_segment(k, n0) == cf.ballot(k + n0 + 1, k - n0)
        for k in range(10)
        for n0 in range(k + 1)
    )
    _check(checks, "segment-counts", ok)

    ok = True
    for n0 in (2, 3):
        series = cf.z_d_generating_series(n0, 12)
        for n in range(n0, 13):
            if series[n] != cf.z_d(n, n0):
                ok = False
    _check(checks, "partition-generating-function", ok, order=12)

    eps = R(1, 10**6)
    z0 = cf.z_semiperm(4, 1, 1, 1)
    zp = cf.z_semiperm(4, 1, 1 + eps, 1)
    zm = cf.z_semiperm(4, 1, 1 - eps, 1)
    ok = abs(float(zp) - float(z0)) < 1e-3 and abs(float(zm) - float(z0)) < 1e-3
    _check(checks, "partition-branch-continuity", ok)

    return _report("identities", checks)


# ---------------------------------------------------------------------------


def suite_tworow(
    bij_n_max: int = 6,
    bij_n0_max: int = 2,
    stationary_cases=((3, 1), (4, 0), (4, 1), (4, 2), (5, 1)),
    partition_n_max: int = 8,
) -> dict:
    _at_least("tworow", bij_n_max=(bij_n_max, 3), bij_n0_max=(bij_n0_max, 0),
              partition_n_max=(partition_n_max, 3))
    if not stationary_cases:
        raise RangeError("the tworow suite needs at least one stationary case")
    checks: list = []

    listed_31 = {
        ((0, 1, STAR), (0, -1, STAR)),
        ((0, -1, STAR), (0, 1, STAR)),
        ((STAR, 0, STAR), (STAR, 0, STAR)),
        ((STAR, 1, 0), (STAR, -1, 0)),
        ((STAR, -1, 0), (STAR, 1, 0)),
    }
    _check(checks, "config-set-3-1", set(tr.enumerate_configs(3, 1)) == listed_31)
    listed_40 = {
        ((STAR, -1, -1, STAR), (STAR, 1, 1, STAR)),
        ((STAR, -1, 1, STAR), (STAR, 1, -1, STAR)),
        ((STAR, 1, -1, STAR), (STAR, 1, -1, STAR)),
        ((STAR, 1, -1, STAR), (STAR, -1, 1, STAR)),
        ((STAR, 1, 1, STAR), (STAR, -1, -1, STAR)),
    }
    _check(checks, "config-set-4-0", set(tr.enumerate_configs(4, 0)) == listed_40)
    bad = ((STAR, 1, 1, STAR), (STAR, 1, 1, STAR))
    _check(checks, "unbalanced-rejected", not tr.validate(bad))

    # One pass over the wall-map table: bijectivity, and the transfer identity's
    # label classes (q depends only on the labels); no rule fires at n = 2.
    ok = True
    classes = set()
    for n in range(2, bij_n_max + 1):
        for n0 in range(0, min(n, bij_n0_max) + 1):
            maps = tr._wall_maps(n, n0)
            ok &= len({(t, j) for row in maps for t, _, j in row}) == len(maps) * (n - 1)
            labels = tr._space(n, n0)[1]
            for k, row in enumerate(maps):
                for t, rule, j in row:
                    if rule is not None:
                        classes.add((rule, labels[k], maps[t][j - 1][1], labels[t]))
    _check(checks, "wall-map-bijective", ok, n_max=bij_n_max, n0_max=bij_n0_max)

    labs = {lab for c in classes for lab in c[1::2]}  # rate x numerator over one L per point
    nums = {p: tr._label_powers(labs, p)[0] for p in PARAM_POINTS}
    ok = all(tr.rate_of(rule, p) * nums[p][lab] == tr.rate_of(back, p) * nums[p][back_lab]
             for p in PARAM_POINTS for rule, lab, back, back_lab in classes)
    _check(checks, "transfer-identity", ok, points=len(PARAM_POINTS))

    ok = True
    for n, n0 in stationary_cases:
        for params in PARAM_POINTS:
            ker = tr.kernel(n, n0, params)
            if exact_stationary(ker) != tr.stationary(n, n0, params)[0]:
                ok = False
    _check(checks, "product-form-vs-solve", ok, cases=list(map(list, stationary_cases)))

    ok = True
    for n in range(3, 6):
        for n0 in range(0, min(n, 3) + 1):
            for params in PARAM_POINTS:
                # The law comes back only if it passes the certificate on the
                # starred kernel; otherwise that kernel is solved and compared.
                top = tr.top_row_law(n, n0, params)
                if top != exact_stationary(build_dstar(n, n0, params), guess=top):
                    ok = False
    _check(checks, "top-row-projection", ok)

    okb = okd = okc = True
    for n in range(2, partition_n_max + 1):
        for n0 in range(0, n + 1):
            okb &= tr.partition_sum(n + 1, n0, STAR_RATES["B"]) == cf.z_b(n, n0)
            # The zero-free partition constant counts each starred state
            # once per sign choice at the two borders.
            zd = tr.partition_sum(n, n0, STAR_RATES["D"])
            okd &= (zd if n0 else 4 * zd) == cf.z_d(n, n0)
    for n in range(1, partition_n_max - 1):
        for n0 in range(0, n + 1):
            zc = tr.partition_sum(n + 2, n0, STAR_RATES["Ccheck"])
            okc &= zc == cf.ballot(n + n0 + 1, n - n0)
    _check(checks, "partition-b", okb, n_max=partition_n_max)
    _check(checks, "partition-d", okd, n_max=partition_n_max)
    _check(checks, "partition-semipermeable", okc)

    return _report("tworow", checks)


# ---------------------------------------------------------------------------


def suite_lumping(n_max: int = 4) -> dict:
    _at_least("lumping", n_max=(n_max, 2))
    checks: list = []

    ok = True
    for fam in ("Ccheck", "B", "D"):
        for n in range(2, n_max + 1):
            kind = WeylKind(fam, n)
            big = build_multi(kind, n)
            for k in range(1, n + 1):
                small = build_cut_chain(kind, (k,))
                ok &= verify_lumping(big, lambda w, k=k: cut_coloring(w, (k,)), small)
    _check(checks, "k-coloring-lumpings", ok, n_max=n_max)

    # Each one-cut chain lumps onto its starred chain; Ccheck's lift is one-to-one.
    for name, fam, ranks in (("doubly-starred-embedding", "Ccheck", range(1, n_max + 1)),
                             ("last-site-star-collapse", "B", range(2, n_max + 1)),
                             ("both-ends-star-collapse", "D", range(3, n_max + 2))):
        ok = True
        for n in ranks:
            kind = WeylKind(fam, n)
            for n0 in range(n + 1):
                one, star = build_cut_chain(kind, (n0 + 1,)), star_chain(kind, n0)
                ok &= verify_lumping(one, lambda w: star_lift(w, kind), star)
                ok &= fam != "Ccheck" or len(star) == len(one)
        _check(checks, name, ok)

    ok = True
    for n, n0 in ((3, 1), (4, 1), (4, 2)):
        params = PARAM_POINTS[0]
        ok &= verify_lumping(tr.kernel(n, n0, params), itemgetter(0),
                             build_dstar(n, n0, params))
    _check(checks, "two-row-to-starred", ok)

    c3, d3 = WeylKind("Ccheck", 3), WeylKind("D", 3)
    colour = lambda w: cut_coloring(w, (2,))
    proj = project_distribution(exact_stationary(build_multi(c3, 3)), colour)
    ok = proj == exact_stationary(build_cut_chain(c3, (2,)))
    proj = project_distribution(exact_stationary(build_multi(d3, 3)),
                                lambda w: star_lift(colour(w), d3))
    ok &= proj == exact_stationary(star_chain(d3, 1))
    _check(checks, "projection-commutes", ok)

    return _report("lumping", checks)


# ---------------------------------------------------------------------------


def suite_conjecture_b(n: int = 4) -> dict:
    _at_least("conjecture-b", n=(n, 2))
    checks: list = []
    corr = cf.pair_correlations(WeylKind("B", n))
    by_case: dict[int, list] = {}
    for i, j, cv in cf.conjecture_b_pairs(n):
        by_case.setdefault(cv.case, []).append(
            corr.get((i, j), ZERO) == cv.value
        )
    for case in sorted(by_case):
        _check(
            checks,
            f"case-{case}",
            all(by_case[case]),
            pairs=len(by_case[case]),
            conjecture=True,
        )
    report = _report("conjecture-b", checks)
    report["n"] = n
    report["status"] = "conjecture verification"
    return report


# ---------------------------------------------------------------------------


def suite_tables() -> dict:
    checks: list = []

    corr = cf.pair_correlations(WeylKind("B", 4))
    ok = True
    for i, cells in TABLE_B_PAIRS_N4.items():
        for col, text in zip((-4, -3, -2, -1), cells):
            if corr.get((i, col), ZERO) != parse_ratio(text):
                ok = False
    _check(checks, "pair-table-rank-4", ok)
    ok = all(
        corr.get((i, j), ZERO) == corr.get((i, -j), ZERO)
        for i in range(-4, 5)
        for j in range(1, 5)
        if i != 0
    )
    _check(checks, "mirrored-columns", ok)

    for name, table, fam in (
        ("directions-d", TABLE_D_CI, "D"),
        ("directions-bcheck", TABLE_BCHECK_CI, "Bcheck"),
        ("directions-c", TABLE_C_CI, "C"),
    ):
        ok = True
        for n, row in table.items():
            got = cf.limdir_closed(WeylKind(fam, n), n).coeffs
            if tuple(fmt_ratio(c) for c in got) != row:
                ok = False
        _check(checks, name, ok)

    return _report("tables", checks)


SUITES = {
    "identities": suite_identities,
    "tworow": suite_tworow,
    "lumping": suite_lumping,
    "conjecture-b": suite_conjecture_b,
    "tables": suite_tables,
}


def run_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
