import hashlib
from fractions import Fraction

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
from weyltasep.markov import exact_stationary
from weyltasep.models import DStarParams, STAR, build_dstar
from weyltasep.ratio import R, ZERO
from weyltasep.verify import PARAM_POINTS, suite_tworow
import weyltasep.tworow as tr
from weyltasep.tworow import (
    count_segment,
    enumerate_configs,
    label_counts,
    project_top_row,
    q_weight,
    tstar,
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
    assert validate(c) == listed
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


def test_wall_map_examples():
    # left border creation of a star column
    assert tstar(cfg(Z, RISE, S), 1) == cfg(S, Z, S)
    # no matching rule holds the configuration
    assert tstar(cfg(S, RISE, Z), 2) == cfg(S, RISE, Z)
    with pytest.raises(InvalidWall):
        tstar(cfg(S, Z, S), 3)
    with pytest.raises(InvalidConfig):
        tstar(cfg(U, DN), 1)
    # bulk relocation: the pair crosses a run and lands as a column
    assert tstar(cfg(S, U, DN, Z), 2) == cfg(S, RISE, FALL, Z)
    assert tstar(cfg(S, U, DN, S), 2) == cfg(S, RISE, FALL, S)


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
        assert all(ker.row(c) == ref.row(c) for c in ker.states)


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
        top = project_top_row(tr.stationary(n, n0, params)[0])
        assert top == exact_stationary(build_dstar(n, n0, params))


def test_point_mass_projection():
    from weyltasep.markov import Dist

    c = cfg(S, Z, S)
    assert project_top_row(Dist({c: R(1)})) == Dist({c[0]: R(1)})


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


def test_enumeration_order_is_pinned():
    for n in range(1, 9):
        for n0 in range(n + 1):
            configs = enumerate_configs(n, n0)
            assert isinstance(configs, tuple)
            digest = hashlib.sha256(repr(configs).encode()).hexdigest()
            assert digest == CONFIG_ORDER_SHA256[n, n0], (n, n0)


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
        with pytest.raises(InvalidCounts):
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
