import hashlib
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weyltasep.errors import (
    InvalidConfig,
    InvalidCounts,
    InvalidWall,
    NotIrreducible,
    ZeroParameter,
)
from weyltasep.lumping import project_distribution
from weyltasep.markov import exact_stationary
from weyltasep.models import DStarParams, STAR, STAR_RATES, build_dstar
from weyltasep.ratio import R, ZERO
from weyltasep.verify import PARAM_POINTS, suite_tworow
import weyltasep.tworow as tr
from weyltasep.tworow import (
    count_segment,
    enumerate_configs,
    label_counts,
    q_weight,
    tstar_bar,
    validate,
)


def cfg(*cols):
    return tuple(t for t, _ in cols), tuple(b for _, b in cols)


Z = (0, 0)
S = (STAR, STAR)
U = (1, 1)
DN = (-1, -1)
RISE = (-1, 1)
FALL = (1, -1)

POINTS = [
    DStarParams(R(2, 3), R(3, 7), R(1, 2), R(5, 11)),
    DStarParams(R(1, 2), R(1, 2), R(1, 2), R(1, 2)),
    DStarParams(R(9, 10), R(1, 5), R(2, 5), R(7, 9)),
]


def test_listed_configuration_sets():
    got = set(enumerate_configs(3, 1))
    assert got == {
        cfg(Z, FALL, S),
        cfg(Z, RISE, S),
        cfg(S, Z, S),
        cfg(S, FALL, Z),
        cfg(S, RISE, Z),
    }
    got = set(enumerate_configs(4, 0))
    assert got == {
        cfg(S, RISE, RISE, S),
        cfg(S, RISE, FALL, S),
        cfg(S, U, DN, S),
        cfg(S, FALL, RISE, S),
        cfg(S, FALL, FALL, S),
    }


def test_validity():
    assert not validate(cfg(S, U, U, S))  # unbalanced
    assert not validate(cfg(S, DN, U, S))  # dips below the axis
    assert not validate(cfg(Z, S, Z))  # star inside
    assert not validate(cfg(U, DN))  # borders must be 0/*
    assert not validate(((0, 1), (0, -1)))  # 0 must pair with 0
    assert validate(cfg(Z, U, DN, Z))
    assert len(enumerate_configs(2, 2)) == 1


def test_label_counts_examples():
    assert label_counts(cfg(Z, Z, Z)) == tr.LabelCounts(0, 0, 0, 0)
    # adjacent up/down stretch inside stars: the up-step still carries a
    # label (the product-form stationary law forces it)
    assert label_counts(cfg(S, U, DN, S)) == tr.LabelCounts(1, 0, 1, 1)
    # level steps at the axis
    assert label_counts(cfg(S, RISE, Z)) == tr.LabelCounts(1, 0, 1, 0)
    assert label_counts(cfg(Z, FALL, S)) == tr.LabelCounts(0, 1, 0, 1)
    # a z' blocks later y labels
    assert label_counts(cfg(S, FALL, RISE, S)) == tr.LabelCounts(0, 1, 1, 1)
    # interior of a block is never labelled
    assert label_counts(cfg(S, U, RISE, DN, S)) == tr.LabelCounts(1, 0, 1, 1)
    with pytest.raises(InvalidConfig):
        label_counts(cfg(U, DN))


@pytest.mark.parametrize("n", range(1, 9))
def test_labels_match_zero_position_oracle(n):
    for n0 in range(n + 1):
        configs, labels = tr._space(n, n0)
        assert len(configs) == len(labels)
        for c, lab in zip(configs, labels):
            expected = repr(oracles.tworow_labels(c))
            assert repr(label_counts(c)) == repr(lab) == expected, c


ENTRIES = st.sampled_from((-1, 0, 1, STAR, 2))


@st.composite
def two_rows(draw):
    """Rows of length 1..8: a listed configuration, maybe with entries changed, or random rows."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        n0 = draw(st.integers(0, n))
        rows = [list(row) for row in draw(st.sampled_from(enumerate_configs(n, n0)))]
        for _ in range(draw(st.integers(0, 2))):
            rows[draw(st.integers(0, 1))][draw(st.integers(0, n - 1))] = draw(ENTRIES)
        return tuple(rows[0]), tuple(rows[1])
    row = st.lists(ENTRIES, min_size=n, max_size=n).map(tuple)
    return draw(row), draw(row)


@settings(max_examples=300, deadline=None)
@given(two_rows())
def test_validate_and_labels_agree_with_oracles(c):
    top = c[0]
    listed = c in enumerate_configs(len(top), top.count(0))
    assert validate(c) == oracles.tworow_valid(c) == listed
    if listed:
        assert repr(label_counts(c)) == repr(oracles.tworow_labels(c))
    else:
        with pytest.raises(InvalidConfig):
            label_counts(c)


def test_q_weight_examples():
    p_all1 = DStarParams(1, 1, 1, 1)
    assert q_weight(label_counts(cfg(Z, Z)), p_all1) == 1
    p = DStarParams(R(1, 2), 1, 1, 1)
    assert q_weight(label_counts(cfg(S, RISE, Z)), p) == 2
    p = DStarParams(R(1, 2), R(1, 3), R(1, 5), R(1, 7))
    assert q_weight(label_counts(cfg(S, RISE, Z)), p) == 6  # one y (2) and the left star (3)
    # a vanishing non-starred rate under a label is a hard error
    from types import SimpleNamespace

    broken = SimpleNamespace(alpha=R(1), alpha_star=R(1), beta=ZERO, beta_star=R(1))
    with pytest.raises(ZeroParameter):
        q_weight(label_counts(cfg(Z, FALL, S)), broken)


def test_q_weight_ignores_zero_starred_rates():
    p = DStarParams(1, 0, 1, 0)
    assert q_weight(label_counts(cfg(S, Z, S)), p) == 1
    lab = label_counts(cfg(S, RISE, FALL, S))  # one y, one z and both stars
    assert q_weight(lab, DStarParams(R(1, 2), 0, R(1, 3), 0)) == 6
    assert q_weight(lab, DStarParams(R(1, 2), 1, R(1, 3), 1)) == 6


def _zero_rate(name):
    """Rates the DStarParams check refuses: alpha or beta zero."""
    from types import SimpleNamespace

    rates = dict(alpha=R(1, 2), alpha_star=R(1, 3), beta=R(2, 5), beta_star=R(3, 4))
    return SimpleNamespace(**{**rates, name: ZERO})


@pytest.mark.parametrize("name, lab", [("alpha", tr.LabelCounts(1, 0, 1, 0)),
                                       ("beta", tr.LabelCounts(0, 2, 0, 1))])
def test_zero_rate_under_a_label_raises(name, lab):
    params = _zero_rate(name)
    with pytest.raises(ZeroParameter):
        q_weight(lab, params)
    with pytest.raises(ZeroParameter):
        oracles.label_weight(lab, params)
    # (3, 1) holds y and z labels; width 2 and the all-zero space hold none
    for solve in (tr.stationary, tr.partition_sum):
        with pytest.raises(ZeroParameter):
            solve(3, 1, params)
    for n, n0 in ((2, 0), (2, 1), (4, 4)):
        law, z = tr.stationary(n, n0, params)
        assert z == tr.partition_sum(n, n0, params) == oracles.tworow_stationary(n, n0, params)[1]
        assert sum(law.values()) == 1


def test_q_weight_matches_label_loop_oracle():
    labs = {lab for n in range(1, 8) for n0 in range(n + 1)
            for lab, _ in tr._label_histogram(n, n0)}
    for params in ORACLE_POINTS:
        for lab in labs:
            assert q_weight(lab, params) == oracles.label_weight(lab, params), (lab, params)


def test_wall_map_examples():
    # left border creation of a star column
    assert tstar_bar(cfg(Z, RISE, S), 1)[0] == cfg(S, Z, S)
    # no matching rule holds the configuration
    assert tstar_bar(cfg(S, RISE, Z), 2)[0] == cfg(S, RISE, Z)
    with pytest.raises(InvalidWall):
        tstar_bar(cfg(S, Z, S), 3)
    with pytest.raises(InvalidConfig):
        tstar_bar(cfg(U, DN), 1)
    # bulk relocation: the pair crosses a run and lands as a column
    assert tstar_bar(cfg(S, U, DN, Z), 2)[0] == cfg(S, RISE, FALL, Z)
    assert tstar_bar(cfg(S, U, DN, S), 2)[0] == cfg(S, RISE, FALL, S)


def test_extended_wall_map_regression():
    # the full map on the five 3-column single-zero configurations
    a1, a2 = cfg(Z, FALL, S), cfg(Z, RISE, S)
    b = cfg(S, Z, S)
    c1, c2 = cfg(S, FALL, Z), cfg(S, RISE, Z)
    expected = {
        (a1, 1): (a1, 1),
        (a1, 2): (a2, 1),
        (a2, 1): (b, 1),
        (a2, 2): (a2, 2),
        (b, 1): (a1, 2),
        (b, 2): (c2, 1),
        (c1, 1): (c1, 1),
        (c1, 2): (b, 2),
        (c2, 1): (c1, 2),
        (c2, 2): (c2, 2),
    }
    for (c, i), out in expected.items():
        assert tstar_bar(c, i) == out
    assert len(set(expected.values())) == 10


@pytest.mark.parametrize("n", range(2, 7))
def test_wall_map_is_a_bijection(n):
    for n0 in range(0, min(n, 2) + 1):
        cfgs = enumerate_configs(n, n0)
        seen = set()
        for c in cfgs:
            for i in range(1, n):
                out = tstar_bar(c, i)
                assert validate(out[0])
                seen.add(out)
        assert len(seen) == len(cfgs) * (n - 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_wall_map_is_a_bijection_at_random_sizes(size):
    n, n0 = size
    cfgs = enumerate_configs(n, n0)
    image = {tstar_bar(c, i) for c in cfgs for i in range(1, n)}
    assert image == {(c, i) for c in cfgs for i in range(1, n)}


@pytest.mark.parametrize("params", POINTS)
def test_transfer_identity(params):
    for n in range(3, 7):
        for n0 in range(0, min(n, 2) + 1):
            for c in enumerate_configs(n, n0):
                qc = q_weight(label_counts(c), params)
                for i in range(1, n):
                    c2, rule, j = tr._apply(c, i)
                    if rule is None:
                        continue
                    _, back, _ = tr._apply(c2, j)
                    assert tr.rate_of(rule, params) * qc == tr.rate_of(
                        back, params
                    ) * q_weight(label_counts(c2), params)


def test_wall_maps_match_apply():
    for n in range(1, 8):
        for n0 in range(n + 1):
            configs = enumerate_configs(n, n0)
            maps = tr._wall_maps(n, n0)
            assert len(maps) == len(configs)
            for c, row in zip(configs, maps):
                assert [(configs[t], rule, j) for t, rule, j in row] == [
                    tr._apply(c, i) for i in range(1, n)
                ]


@pytest.mark.parametrize("n,n0", [(3, 1), (5, 1), (7, 1), (7, 2)])
def test_kernel_matches_apply_oracle(n, n0):
    for params in PARAM_POINTS:
        ker, ref = tr.kernel(n, n0, params), oracles.tworow_kernel(n, n0, params)
        assert ker.states == ref.states
        assert all(oracles.kernel_row(ker, c) == oracles.kernel_row(ref, c) for c in ker.states)


def _transfer_identity_passes():
    report = suite_tworow(stationary_cases=((3, 1),), partition_n_max=3)
    return next(c["pass"] for c in report["checks"] if c["name"] == "transfer-identity")


@pytest.mark.parametrize("rule,key", [("L1", "alpha_star"), ("R2", "beta"), ("B1", "alpha")])
def test_transfer_identity_check_catches_a_wrong_rate(monkeypatch, rule, key):
    # the suite checks the identity once per label class; one wrong rate must trip it
    monkeypatch.setitem(tr._RATE_KEY, rule, key)
    assert not _transfer_identity_passes()
    monkeypatch.undo()
    assert _transfer_identity_passes()


@pytest.mark.parametrize("n,n0", [(3, 1), (4, 0), (4, 1), (4, 2), (5, 1)])
def test_product_form_equals_exact_solve(n, n0):
    for params in POINTS:
        dist, z = tr.stationary(n, n0, params)
        assert sum(dist.values(), ZERO) == 1
        assert exact_stationary(tr.kernel(n, n0, params)) == dist


def test_restricted_class_stationary():
    # both starred rates zero: the law is uniform over the doubly starred
    # zero-free configurations when the boundary rates are 1
    params = DStarParams(1, 0, 1, 0)
    dist, z = tr.stationary(3, 0, params)
    live = {c: p for c, p in dist.items() if p > 0}
    assert set(live) == {cfg(S, RISE, S), cfg(S, FALL, S)}
    assert all(p == R(1, 2) for p in live.values())
    assert z == 2
    assert exact_stationary(tr.kernel(3, 0, params)) == dist


@pytest.mark.parametrize("n", range(1, 7))
def test_one_configuration_space_is_a_point_mass(n):
    # The all-zero configuration has no border star, yet it is the whole
    # space: a one-state chain, whatever the starred rates.
    (only,) = tr.enumerate_configs(n, n)
    for params in (DStarParams(1, 0, R(1, 2), R(1, 2)), DStarParams(R(1, 2), R(1, 3), 1, 0),
                   DStarParams(1, 0, 1, 0), POINTS[0]):
        dist, z = tr.stationary(n, n, params)
        assert dict(dist) == {only: 1} and z == 1 == tr.partition_sum(n, n, params)
        assert exact_stationary(tr.kernel(n, n, params)) == dist


def test_kernel_rows_sum_to_one():
    ker = tr.kernel(4, 1, POINTS[0])
    for row in ker.rows:
        assert sum(row.values()) == ker.den


@pytest.mark.parametrize("n,n0", [(3, 1), (4, 2), (5, 3), (5, 1)])
def test_top_row_projection_matches_starred_chain(n, n0):
    for params in POINTS:
        top = project_distribution(tr.stationary(n, n0, params)[0], itemgetter(0))
        assert top == exact_stationary(build_dstar(n, n0, params))


def _law_or_message(solve):
    try:
        return solve()
    except NotIrreducible as exc:  # an empty restricted class
        return str(exc)


@pytest.mark.parametrize("params", [*POINTS, *STAR_RATES.values()],
                         ids=[*(f"point{i}" for i in range(len(POINTS))), *STAR_RATES])
def test_top_row_law_is_the_projected_two_row_law(params):
    for n in range(1, 8):
        for n0 in range(n + 1):
            projected = _law_or_message(
                lambda: project_distribution(tr.stationary(n, n0, params)[0], itemgetter(0)))
            assert _law_or_message(lambda: tr.top_row_law(n, n0, params)) == projected, (n, n0)


def _guessed_and_solved(n, n0, params):
    ker = build_dstar(n, n0, params)
    guess = tr.top_row_law(n, n0, params)
    return ker, exact_stationary(ker, guess=guess), exact_stationary(ker)


@pytest.mark.parametrize("params", POINTS, ids=[f"point{i}" for i in range(len(POINTS))])
def test_the_top_row_law_certifies_the_starred_chain(params, solver_runs):
    for n in range(2, 6):
        for n0 in range(n + 1):
            if (n, n0) == (2, 1):  # two closed classes, with or without the guess
                continue
            solver_runs.clear()
            ker, guessed, solved = _guessed_and_solved(n, n0, params)
            assert guessed == solved and list(guessed) == list(ker.states), (n, n0)
            assert len(solver_runs) == 1, (n, n0)  # only the call without a guess solved


def test_the_top_row_law_certifies_a_starred_chain_that_solves_in_decimal(solver_runs):
    ker, guessed, solved = _guessed_and_solved(8, 3, POINTS[2])
    assert guessed == solved and solver_runs == [len(ker)]


@pytest.mark.slow
def test_the_top_row_law_certifies_the_starred_chain_at_9_sites(solver_runs):
    # Eliminating this chain takes a float pass and a decimal pass, about 12 s.
    ker = build_dstar(9, 3, POINTS[2])
    guess = tr.top_row_law(9, 3, POINTS[2])
    assert exact_stationary(ker, guess=guess) == guess and solver_runs == []


def test_point_mass_projection():
    from weyltasep.markov import Dist

    c = cfg(S, Z, S)
    assert project_distribution(Dist({c: R(1)}), itemgetter(0)) == Dist({c[0]: R(1)})


def test_count_segment():
    from weyltasep.closedform import ballot, catalan

    assert count_segment(2, 2) == 1
    assert count_segment(3, 1) == 14
    for k in range(0, 8):
        assert count_segment(k, 0) == catalan(k + 1)
    for k in range(0, 10):
        for n0 in range(k + 1):
            assert count_segment(k, n0) == ballot(k + n0 + 1, k - n0)


# sha256 of repr(tuple(enumerate_configs(n, n0))), taken when the space was
# still enumerated per call and sorted by models.state_sort_key.
CONFIG_ORDER_SHA256 = {
    (1, 0): "d0c5fdd840a5e8d836a6e02a46d58b80b410af0cddb568bbddc6250a88f8d78b",
    (1, 1): "b211071526ec7b0b8860c23e9b98553b5563d313895c2db09ea72f24f852e1dd",
    (2, 0): "8e6a530e6dfaeaa424755657260f0c4ef9c002e52562b89ebbba24f5e3b899f8",
    (2, 1): "05f6232811b6f106f382fe47171721f8940118885a90cbde112a3295d9dc8301",
    (2, 2): "a5641309cd01157911b7742f5784c557f01f21b6d9112071f0ad9150e53a5e7e",
    (3, 0): "aea2ffa09d7ffee9a07807eb9399ceddd848d0ec786549cf2c330529d07c6e98",
    (3, 1): "2d709c127679e4a25810e73951f43e425110b402f2d79f7388be33b1bd03d5d2",
    (3, 2): "6ee8113882233032497450b9e75c68ffb5a17d3a917979fb2a1318776dac5936",
    (3, 3): "77290a1df4e69ef966bb071d277a3eccd7195a1dde780aeefa8c464d19833f13",
    (4, 0): "91b321a333c0b50316d6b43c9d4c5e170c0c79e3e52c988b2eaca063756c2d37",
    (4, 1): "7f53c46bf9b5b88959da242a1c5eba2f976b7a7771194787f7e30a3e48c87665",
    (4, 2): "ed52755605318014ea3e36234d98c86471fcbf405a74762ed51ac66bd8db5f8b",
    (4, 3): "bbfd38cedcca0d5ab8c29beb25cd9a2459176ae6193e47b6dc85c1a92a11e86d",
    (4, 4): "485b9d98ef0035ed38fcd5c34319d732785c131b56c759299176e22d5f2d3a7c",
    (5, 0): "9889ba76a9a161208a082581336328fb57101a70317ec16ded16a73ceb2ac233",
    (5, 1): "31a6dc3b3bbbedafa747f81dc8936a6be80b2dd30e6df764ce6cf1288022593d",
    (5, 2): "778203c991d3e6b89c79175cef230fd094a3092cc82d4a265805a3cac7f7abf0",
    (5, 3): "051400e66eaa1873eca75820a2a8bb1e3c8b168aa6e476b25c474a1ea4acbc01",
    (5, 4): "773d3eedd70095eba955e4ecd990ddebbb80509a80120597acffe6e006d0cdf6",
    (5, 5): "3c4dc3d70601886af419dc0d89882d28811545ea1c359c4fa6c3ddd392657c95",
    (6, 0): "b2955d0b6c03b83d38f9374e0eb9f847a9deee2a25a161cd4f778370abb0b127",
    (6, 1): "8e0aebebcb02f97279a42ba3802762cc8ef7b6111761c887d9a81beba05369cb",
    (6, 2): "1d2fcb5f8f3e6eb5ecb4677bef26fb386ea483e5ddd5d391e38d815f688a8fb9",
    (6, 3): "6ee349e7f4de3a8f90bdb79fef2eccd140d2752c36831d14d16c1357af56a292",
    (6, 4): "f269496b5faa11fe287ce804cc30a5d4bf60a3f259aa513cffefd8ed8a781a82",
    (6, 5): "2a19e0abd495867ad22af01905494f7c99ef5b468cbb76e4e008b7898ce0b6f4",
    (6, 6): "93a46ae8657c1b83a7579c9276a72681d041c26b14b433608cb3c62ed3402ad1",
    (7, 0): "122db8bb8b60161e56d5f7b8600473c5e27116f2ac8857862f8e3f6b6eadd050",
    (7, 1): "cc4a37d2a3032cba7ad04f9806245f6583ab4113928ec9a24338b3039958ba08",
    (7, 2): "5afb4beeee309aada90be9795eed5c4db1b30b45751909ce546d5a79e460dce7",
    (7, 3): "c642f49db91b35ca358e5cc29de63ccc1397bd59a70a98c3f1b370a604619800",
    (7, 4): "e3b817c960fb8956e569847b019531888a603b681432cacaaeeef9631dbda9ca",
    (7, 5): "23e10dccb8ce6a557e8115c4bcf50bfecf538400625fab82f4ee936d5b47065c",
    (7, 6): "15b62eaa5c32df1cd40a25b8782059bc2e348f9e37d4eba53d357187e5ea4f8a",
    (7, 7): "01d63ad6df402cf045cdcabb306c8280d40e2dac23f7beb87be7d5a3a572dca2",
    (8, 0): "1f094d23f10b74651610774555c43945e4b9f63c0017f8e68587741e4be3c61a",
    (8, 1): "560863e88dd3d2f824354cc27b1b9c646ce8669a2e5bd8e3e28a64dff194a70d",
    (8, 2): "f981ff7b8b90e5f01ce4e2a7bee9ce008b210661b3c25b3285f6e96280b90073",
    (8, 3): "80b5993935acdc7a034d930490de75b0203cfeb1be95744cf5f837586b5e950c",
    (8, 4): "e3640fac724a7c9461ad3303cfd0222fa3352b320e26cf301513d72b1508204f",
    (8, 5): "a90099aea3b25d40d6c38d769f9cb66ff81edb04d2b446e4341e6c1b997aefd3",
    (8, 6): "20b4c7c7e3b69ccf0e2c5d497a4164dd5f7bea02c17822de47f4ecab203c0877",
    (8, 7): "453e56554ccc09ca32a0736aad4a8756daf0048c55d974a08d72a4ce082d1dfd",
    (8, 8): "23ac42f4049969caf43fbcba60e445fd752f3445adec4bf1760330d9ecfcf7db",
}


# sha256 of repr(tr._wall_maps(n, n0)) and of repr(tr._label_histogram(n, n0)),
# taken when the j1/j2 wall search and the column rule were still written out
# at each of their call sites; the table and the histogram order must not move.
MAPS_AND_HISTOGRAM_SHA256 = {
    (1, 0): ("6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8",
             "50787991bdd467986827779526c67d6624a72850e5b25a801dbfa18e2034c65d"),
    (1, 1): ("6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8",
             "64ea3ca18cc83ef44867d0969fa21af830ce18da90554f96c938e0385a3a1b62"),
    (2, 0): ("9fab708787fcf840558d552d7fedcaa0252ed057828d9976d32884d3e99e45eb",
             "50787991bdd467986827779526c67d6624a72850e5b25a801dbfa18e2034c65d"),
    (2, 1): ("1364ffc5e18a001ab2b3cde1ac0ff81e4e56be6087631d521a1a98c9f5b610a8",
             "8776280988682a5141aa0acecf0099e52e155bbcc65a3272f19ef8e284733fc8"),
    (2, 2): ("9fab708787fcf840558d552d7fedcaa0252ed057828d9976d32884d3e99e45eb",
             "64ea3ca18cc83ef44867d0969fa21af830ce18da90554f96c938e0385a3a1b62"),
    (3, 0): ("8c8153803053038879d900dfdbab81ac9a03660e894d6fd11b9e31c53914dc90",
             "7aafdcf1619500f71bc292d957efc7afdad7acf4878cda5e28dbf1c369cf0830"),
    (3, 1): ("9f181de834361b34ec88c694d31df7185cd22a0b00033b6a8081f04c782cacbd",
             "8fd21ab46f8ef8970c367225639ce299377dca25cd428e83d05f0b7c9aab1893"),
    (3, 2): ("49e7e4cd41371f336d605870525d9e8952c02cd215cfc703d8428659eaa5d5f1",
             "26aab752a38094d1d788b3271e24e9f9232ea7f2f3710d1840c51a7ff52e40c9"),
    (3, 3): ("7514e6a07d7f1f22fa2a81dcf91de4c76e397721dcf20f4237a7bac0b04a7719",
             "64ea3ca18cc83ef44867d0969fa21af830ce18da90554f96c938e0385a3a1b62"),
    (4, 0): ("cdee8ac26071dc3e3a7b8be70345561295fff379d61930501e40906e1cca09a4",
             "3724ecfc1cc6a778dde7e391cb9c06361dea0908429387e060edec543b486f5b"),
    (4, 1): ("4c22cc7c09b7a7099c54774e58e2c3dbbaa7adf525d7cbf089af53fbac40f166",
             "587875c49d0f9ab9cb3b886c2f520ea27b3ab03d9f47b9c4257a08a87b14ebc6"),
    (4, 2): ("5498d0a2da5d887149df606825274243a8e58dcd13cbed951a658b532b5d0b2d",
             "1e7574fc9cb67af01c3f581ccc29c16f8a3c941e485c339a6f4ede1efecff1b0"),
    (4, 3): ("dd785622470a758af3086b8f19a2cf8a4c737cc64771bc20f9ed509c6f3b2cbe",
             "8c7b3accf08c3454e9a4f974652e34b33bdfb5e388a4a50364362896f47d0fcb"),
    (4, 4): ("9eb049c7ffb262e0d61e668a217326e66ef0eed6f0df71ae392510a70c2a500e",
             "64ea3ca18cc83ef44867d0969fa21af830ce18da90554f96c938e0385a3a1b62"),
    (5, 0): ("ad04a9cac246c2d78c8b10630232071a905f45bd3bd46d4038c7318c45746456",
             "c35720082cc44161614517aa7f57dfac031442d61bb6fef152628cd5f0dd6b10"),
    (5, 1): ("0460660e9025e7a05b241e5c50f477f2ad036b8428ae325994520cdaf574a23d",
             "46997c8c9dd7ecb549f8d2bc2a46df1f08185511ad609f5df73fbcaa5b685d68"),
    (5, 2): ("18d85deffe2d2cbcd22e14945fcb418c1f553fa6e97ffda68aa33e397526c54c",
             "a7ab7e4a3071827a67d9957754575c1bb48510967820d2aaf3e7036184aa8f95"),
    (5, 3): ("0f7db0b57fab0ed4c0e48362bdce84b3dce350fd52aa6e8652bd26b776b56816",
             "6308c456518bd276152afa3637fcc43749ed456b51eea8c033deadddd4a2cde4"),
    (5, 4): ("3be39fb161aac7fef8d267ea2253247e6a1aa980eb79340478dd79806c9c50cb",
             "1e3a518930cbaa6cff180a60672eb98af451124084e9022911848fc15d2f77fd"),
    (5, 5): ("27438410e7190a9ff3012e23aa20713c6ed8a8a4df47f177345ca91ae9232232",
             "64ea3ca18cc83ef44867d0969fa21af830ce18da90554f96c938e0385a3a1b62"),
    (6, 0): ("9b2857f7cdbe39932a2902c69e5b8b0a1bf444f05c0e3f9f57b400ecaeb6d897",
             "6f14fe3e6b1544139637a696a7b72ddea7023ed590e1402a1aebc459b5c64e17"),
    (6, 1): ("17e7fd6778a7cec0a8101358c74da8b8ad9e8e9f6084eb278d1fd25000c8a2d9",
             "b6d8edd5dfa09d9c58f97d861ef01ca50f99be944c9a800af4acaa97262d0794"),
    (6, 2): ("ed372f8f08de6dc2958d33bfe6245ce52aad08e8355cdf1d26868b10a2c49453",
             "d2eb64946823a96414862a8758708a7d45cb36a79086a49f7dda561d387866bd"),
    (6, 3): ("1c6431a8c517ba5a89d838f864ab997b219efe464ecc56bde24e68d120b608d0",
             "fbcc2d6ae777d9fbfe9a12d143ef1bd434c3ba9fdca73eb9731300e3d832b74f"),
    (6, 4): ("5369b146e0b4b9ba3906d132de4522dcab2029843ccf96c94529116aa9cc51e4",
             "de34882e97dede7aebaf3f3acd7ea49981f7a7c5531741d991a7d8c34d17bba7"),
    (6, 5): ("09350874fef4d03a609e3e7ddcb5bd00c5de36dcd4aceaf84931a2b5fbfdaaaf",
             "775921451e7e460b9b9de9c398fc658203cf3a4191cf5b09224b9af7fc16281a"),
    (6, 6): ("fdeb2a011d1bd6dd2522a00694db8ffbe784d18cc6fe6fda868311199fa985a0",
             "64ea3ca18cc83ef44867d0969fa21af830ce18da90554f96c938e0385a3a1b62"),
    (7, 0): ("36df793d61549d519e99c82dbed019f80872d865258d9ad2a1fc01f53415d028",
             "efbb1e4b3d8bc1ef76e639d008532e1d7064b13093f378efc712d1e1d4e7a54e"),
    (7, 1): ("8ce381f10cf56459ecffa8454fea928e33ab750740a36446855702bc58b6d41a",
             "3416a742e733b5cef1cc5be2bcbef2cc86967fad1f38368f39283b3c12d70f8f"),
    (7, 2): ("03a74f8715d6907df6378e1dd6949f7052895c467de515c206655b658c4ab221",
             "fc079677ebc9469c01daf890f194069f0286941cb307459604e4809dc9463080"),
    (7, 3): ("2489da0d6e6397b362160b38222828086d41d4d9ab9ca3a2af92778424956310",
             "a404dc83e8e607c1af6cab9c31e70cfdc6d8f84797f54895c5fdff8a3600cba8"),
    (7, 4): ("922b01ee1f0c5c17d063e875402f7cf74e1d34e3ec57dec20688212837d8a90b",
             "ddea0b507b14bf140f01b90cf957589c20c2cc75c4b6bb646860197f0774b419"),
    (7, 5): ("ab2362ddc1c61e3d3b1d074004f1bae69a7e7e2d16c62ca7d9ff0bb52caefb4c",
             "c76f4c46011af2ba5d4e9e1919babd173705cb74586a8ae3f190e4759a89f396"),
    (7, 6): ("e73e4fc7abb01c16b9ee3739ded336a457b75d249e62823ef7a48509d1e56bd8",
             "bcabf8f0b0d2ffa057983a731ab7ea9edf499b4e05c9685ba6b88a69422e7b00"),
    (7, 7): ("9f1998972e89fc094c720f591900005b6703f8ca88acc9ed5ffbefe1fde8b55c",
             "64ea3ca18cc83ef44867d0969fa21af830ce18da90554f96c938e0385a3a1b62"),
    (8, 0): ("b4533042257e36a4168e326495f190d10a21d6e25add7b4d0606b198eb8aa024",
             "99984fadb190168fed36cbe84ec18170cb3608dd71d53c21bc79db3ae34bce77"),
    (8, 1): ("d5e2cdc3d1da26d033962b1a5c4bd21ffb5c929e2101b4ac2118a62b9e25995d",
             "2ec7066d118b5261603fcc862bcfe961a30b2bed0227d6f886d999b2b0ece8ea"),
    (8, 2): ("8309e55512f2413d1bf811c57d53c1713a2df631b335b9f280840f24555ad8f7",
             "fe720233323988882e18d5945b03a6179652966a0822366125902baaa968115d"),
    (8, 3): ("16f898c70ee53efb0d617b8dbf19cc11b887f8c11c957754e0caf3ca0dd10c2a",
             "8d48020f3975e0d7d9448968a11b45d10a86a51c8d4095f7fcf26d46a81bba7c"),
    (8, 4): ("8f1278f12503fb27791075822399c87e8d25ebd10b6749c10d80b11818b63840",
             "fe8ffa554c55a7506cc21106957d0d3be3dcf68ce3c8c16661f5caaf91037e5b"),
    (8, 5): ("3a56a7313a059566fa90cd2c087771e7e614dbc73112fccc4ecc37d7189cb917",
             "3833260d069e67404aeb0f187c78c40966eff99be71b58a6393f2c9d1eeea7ee"),
    (8, 6): ("74735dec5410bdc51ccd894ec8582925d1b1a6ec725a84af4ce6d731a718048d",
             "98a09151c126cc42dd6605abebed5346526936bbef85825c6dd7ce719c0b88bd"),
    (8, 7): ("eb8cda8fc22b7f0e302b3a4ca5d9c0c58f9e49a09af9cb4604b8362dc4096de7",
             "2c66b7ccceb6da7c4608a02e5d76eccc5ec93bc78e583547f2216b2671cbb273"),
    (8, 8): ("9021ea65450ae9d7b937f257278f9eeb828152eb28eb7da3f2a07ca06c849384",
             "64ea3ca18cc83ef44867d0969fa21af830ce18da90554f96c938e0385a3a1b62"),
}


# sha256 of repr(tr._label_histogram(n, n0)) at the widths past the table
# above, taken when the histogram was still counted by one transfer per
# (n, n0): counting every zero count of a width in one transfer must keep
# each slice's items and their order.
WIDE_HISTOGRAM_SHA256 = {
    (9, 0): "38d4e62f62a76b2765b98c507fb4465ceb467ba4ee7bb8649ce1becc60874ca6",
    (9, 1): "a5146f31b54ecda1a25d09cb88f1040043432623eaa045b943d2f1b83450c646",
    (9, 2): "25a9e048cad832cd0bf7b50ebaa4899936554c6cfdebed54eaf399157bc87784",
    (9, 3): "8ecdc96a1a002e0fc12a54985a214f61e093134dfb6b2e2ce6aeea6aff21d0a7",
    (9, 4): "33a1dd43ea412c8cdbc073dc364bb91ed01ac78a486b09e7dec7d93820b4b7ed",
    (9, 5): "3e6bc8c05673b3b7691f8e9e686ea3634133b28913081b788455e4d38936413e",
    (9, 6): "c70dcb5e597f109435b3e29f5076c9606b6c808d7feab43bc18e343f09a91a47",
    (9, 7): "4a29d5beb32d8b27ce8e7e9214ea6804c993b1c333414184f3793c58550d19d1",
    (9, 8): "f4923c0ff29a601a5764604b77d99fdd1c7da9c0e0bf94f26b2677f4ae794d2c",
    (9, 9): "64ea3ca18cc83ef44867d0969fa21af830ce18da90554f96c938e0385a3a1b62",
    (10, 0): "c8ffeac6bfb394b790ad83b114f0af49c2c0a29e9fed598509fa91ae5bb0aa34",
    (10, 1): "023a4696d165995b09a0fe805cc4fe395e272695f082c3178563ba37103121ac",
    (10, 2): "f435f30cc88a0835d41e5dd0ec902eb42b7d49871b82ff16603ae3941e076cd4",
    (10, 3): "787f1aae8fadc8e4c112f9fd546b608b79da130a42af48af6e8a3e23e55add6c",
    (10, 4): "406571a4e4ac7a17e1673298c592ccfaee2c60a69171ec6d7510c96de5995e48",
    (10, 5): "821e27f381678a3f4e6623ef4bcfa3c74fb16e6d7a0239b293635e05d50ee177",
    (10, 6): "7df6737eb7e01976bfa0eeb05cd9d3d193ebb1bff93e53040def3654c7bd4fb9",
    (10, 7): "d6e154690c9f6b20586fb17b91afba8617d116ca800b235a9a5422b73f71e5a6",
    (10, 8): "8ae0bbd03576695c48348f94efc381f444bb54b95d2170e8667ca28555927135",
    (10, 9): "4995b79ac1e19d5672df963f7338eb6364d795d97a273be750b5aa21c1f486df",
    (10, 10): "64ea3ca18cc83ef44867d0969fa21af830ce18da90554f96c938e0385a3a1b62",
}


def _sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_enumeration_order_is_pinned():
    for n in range(1, 9):
        for n0 in range(n + 1):
            configs = enumerate_configs(n, n0)
            assert isinstance(configs, tuple)
            assert _sha256(configs) == CONFIG_ORDER_SHA256[n, n0], (n, n0)
            maps, hist = _sha256(tr._wall_maps(n, n0)), _sha256(tr._label_histogram(n, n0))
            assert (maps, hist) == MAPS_AND_HISTOGRAM_SHA256[n, n0], (n, n0)
    for (n, n0), digest in WIDE_HISTOGRAM_SHA256.items():
        assert _sha256(tr._label_histogram(n, n0)) == digest, (n, n0)


# PARAM_POINTS plus the B, D and semipermeable specialisations of verify.
ORACLE_POINTS = PARAM_POINTS + (
    DStarParams(1, 0, R(1, 2), R(1, 2)),
    DStarParams(*(R(1, 2),) * 4),
    DStarParams(1, 0, 1, 0),
)


@pytest.mark.parametrize("n", range(1, 8))
def test_stationary_matches_per_configuration_oracle(n):
    for n0 in range(n + 1):
        for params in ORACLE_POINTS:
            expected = oracles.tworow_stationary(n, n0, params)
            if expected is None:
                with pytest.raises(NotIrreducible):
                    tr.stationary(n, n0, params)
                continue
            probs, z = expected
            dist, got_z = tr.stationary(n, n0, params)
            assert list(dist.items()) == list(probs.items())
            assert got_z == z == tr.partition_sum(n, n0, params)


@pytest.mark.parametrize("n", range(1, 10))
def test_label_histogram_matches_enumeration_oracle(n):
    for n0 in range(n + 1):
        assert dict(tr._label_histogram(n, n0)) == oracles.tworow_label_histogram(n, n0)


def test_label_histogram_rejects_bad_sizes():
    for n, n0 in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(InvalidCounts, match=f"^bad sizes n={n}, n0={n0}$"):
            tr.partition_sum(n, n0, POINTS[0])


RATES = st.fractions(min_value=0, max_value=1, max_denominator=9)


@st.composite
def dstar_params(draw):
    alpha = draw(RATES.filter(lambda x: x > 0))
    beta = draw(RATES.filter(lambda x: x > 0))
    alpha_star = draw(st.one_of(st.just(Fraction(0)), RATES))
    beta_star = draw(st.one_of(st.just(Fraction(0)), RATES))
    return DStarParams(alpha, alpha_star, beta, beta_star)


def _law_or_error(solve):
    try:
        return solve()
    except NotIrreducible:
        return NotIrreducible


# n >= 3: with two columns no wall map fires.  n0 = n is the one-state
# chain of the all-zero configuration.
@settings(max_examples=100, deadline=None)
@given(st.integers(3, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       dstar_params())
def test_product_form_equals_exact_solve_at_random_rates(size, params):
    n, n0 = size
    product = _law_or_error(lambda: tr.stationary(n, n0, params)[0])
    solved = _law_or_error(lambda: exact_stationary(tr.kernel(n, n0, params)))
    assert product == solved
