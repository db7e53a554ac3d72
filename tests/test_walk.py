import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import weyltasep
from weyltasep import walk
from weyltasep.errors import NonGenericPoint, UnsupportedRange
from weyltasep.walk import (
    CHUNK,
    WalkState,
    _advance,
    _byte_table,
    _proposals,
    _run_trials,
    _walk_tables,
    chamber_label,
    derive_stream,
    dominant_representative,
    estimate_direction,
    fundamental_point,
    initial_state,
    run_walk,
    separation_count,
    svg_trajectory,
)
from weyltasep.weyl import (
    WeylKind,
    act,
    apply_generator,
    identity_window,
    kac_weights,
    root_data,
)

B2 = WeylKind("B", 2)


def test_fundamental_point_inequalities():
    x = fundamental_point(B2, 2)
    assert 0 < x[0] < x[1] and x[0] + x[1] < 1
    assert separation_count(x, B2, 2) == 0


@pytest.mark.parametrize(
    "family,n",
    [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("Ccheck", 2), ("D", 3), ("D", 4)],
)
def test_fundamental_point_generic(family, n):
    kind = WeylKind(family, n)
    x = fundamental_point(kind, n)
    for alpha in root_data(kind).positive_roots:
        pairing = sum(Fraction(c) * v for c, v in zip(alpha, x))
        assert pairing.denominator != 1
    assert separation_count(x, kind, n) == 0


def test_separation_after_one_reflection():
    x = fundamental_point(B2, 2)
    # reflect in the affine wall of the highest root (level one)
    s = sum(x)
    y = (x[0] + (1 - s), x[1] + (1 - s))
    assert separation_count(y, B2, 2) == 1


def test_separation_rejects_wall_points():
    with pytest.raises(NonGenericPoint):
        separation_count((Fraction(1, 2), Fraction(1, 2)), B2, 2)


def test_replay_eight_step_word():
    st = initial_state(B2, 2)
    for g in (2, 0, 1, 0, 2, 0, 2, 1):
        assert _advance(st, (g,)) == 1
    assert separation_count(st.point(), B2, 2) == 8


def test_first_proposals_all_accepted_then_repeats_rejected():
    for g in (0, 1, 2):
        st = initial_state(B2, 2)
        assert _advance(st, (g,)) == 1
        assert _advance(st, (g,)) == 0  # held: the same wall cannot be recrossed


@pytest.mark.parametrize("family,n", [("B", 2), ("C", 2), ("Ccheck", 2), ("D", 3)])
def test_crossings_equal_separation_count(family, n):
    kind = WeylKind(family, n)
    s = run_walk(kind, n, 10_000, seed=3)
    assert s.crossings == s.accepted
    assert separation_count(s.final_point, kind, n) == s.accepted


# D2 is excluded: its walk is unsupported (linearly dependent roots).
WALK_SPECS = st.sampled_from([(f, n) for f in ("B", "C", "D", "Bcheck", "Ccheck")
                              for n in range(2, 6) if (f, n) != ("D", 2)])


@settings(max_examples=40, deadline=None)
@given(WALK_SPECS, st.integers(0, 2**31 - 1), st.integers(1, 2000))
def test_crossings_equal_separation_count_at_random_kinds_and_seeds(spec, seed, steps):
    family, n = spec
    kind = WeylKind(family, n)
    s = run_walk(kind, n, steps, seed=seed)
    assert s.accepted == s.crossings == separation_count(s.final_point, kind, n)


def test_run_walk_deterministic():
    a = run_walk(B2, 2, 5000, seed=9)
    b = run_walk(B2, 2, 5000, seed=9)
    assert a == b
    c = run_walk(B2, 2, 5000, seed=10)
    assert a.final_point != c.final_point


def test_dominant_representative():
    assert dominant_representative((Fraction(3), Fraction(-1)), B2) == (1, 3)
    d3 = WeylKind("D", 3)
    rep = dominant_representative((Fraction(2), Fraction(-1), Fraction(5)), d3)
    assert rep == (-1, 2, 5)  # odd sign count keeps one negative entry
    assert chamber_label((Fraction(3), Fraction(-1)), B2) == (2, -1)


def _sorted_dominant(x, kind):
    """The dominant image by a sort on |x|, with the D parity fixed on the smallest entry."""
    out = [abs(v) for v in sorted(x, key=abs)]
    if kind.root_family == "D" and sum(1 for v in x if v < 0) % 2:
        out[0] = -out[0]
    return tuple(out)


@st.composite
def generic_points(draw):
    """A family, a rank, and a point with distinct nonzero |x_j| in random order and signs."""
    family = draw(st.sampled_from(("B", "C", "D", "Bcheck", "Ccheck")))
    n = draw(st.integers(2, 6))
    # distinct numerators over one denominator: drawing unique Fractions is slow
    den = draw(st.integers(1, 20))
    nums = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n, unique=True))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return WeylKind(family, n), tuple(Fraction(s * k, den) for s, k in zip(signs, nums))


@settings(max_examples=200, deadline=None)
@given(generic_points())
def test_dominant_representative_matches_the_sort(case):
    kind, x = case
    assert dominant_representative(x, kind) == _sorted_dominant(x, kind)


def test_estimate_direction_small():
    est = estimate_direction(B2, 2, steps=50_000, trials=5, seed=11, processes=1)
    assert est.cosine_vs_closed_form > 0.999
    assert sum(est.chamber_counts.values()) == est.trials
    for processes in (2, 3):  # 5 trials do not split evenly over either
        again = estimate_direction(B2, 2, steps=50_000, trials=5, seed=11, processes=processes)
        assert again == est  # the process count cannot change any field


def test_svg_dump(tmp_path):
    path = tmp_path / "walk.svg"
    svg_trajectory(B2, 2, 500, seed=1, path=str(path))
    text = path.read_text()
    assert text.startswith("<svg") and "polyline" in text
    with pytest.raises(ValueError):
        svg_trajectory(WeylKind("B", 3), 3, 10, seed=1, path=str(path))


WALK_KINDS = [
    (family, n)
    for family in ("B", "C", "Bcheck", "Ccheck", "D")
    for n in range(3 if family == "D" else 1, 7)
]


def _separation_or_error(count, x, kind, n):
    try:
        return count(x, kind, n)
    except NonGenericPoint as exc:
        return "NonGenericPoint", str(exc)


# small denominators put many points on a wall, so both outcomes are drawn
COORDS = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 5, 6, 7, 10, 14]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(WALK_KINDS), st.data())
def test_integer_separation_count_matches_fraction_oracle(spec, data):
    family, n = spec
    kind = WeylKind(family, n)
    x = tuple(data.draw(st.lists(COORDS, min_size=n, max_size=n)))
    assert _separation_or_error(separation_count, x, kind, n) == _separation_or_error(
        oracles.separation_count, x, kind, n)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@pytest.mark.parametrize("family,n", WALK_KINDS)
def test_ascent_table_matches_geometry(family, n):
    """The cached ascent table against the walls of a reference alcove walk.

    The reference keeps the window w and the point x (scaled by d) and
    reflects x in the crossed hyperplane; wall g of the current alcove is
    the image of the fundamental wall g under x -> w.x + (x - w.x0).
    """
    kind = WeylKind(family, n)
    base = fundamental_point(kind, n)
    d = math.lcm(*(v.denominator for v in base))
    x0 = [int(v * d) for v in base]
    rs = root_data(kind)
    walls = rs.simple_roots + (rs.theta,)
    w, x = identity_window(n), list(x0)

    def wall(g):
        beta = act(w, walls[g])
        shift = [a - b for a, b in zip(x, act(w, x0))]
        return beta, d * (g == n) + _dot(beta, shift)

    def status():
        out = []
        for g in range(n + 1):
            beta, lev = wall(g)
            out.append((_dot(beta, x0) > lev) == (_dot(beta, x) > lev))
        return out

    state = initial_state(kind, n)
    rng = random.Random(n)
    crossings = 0
    for _ in range(2000):
        expected = status()
        assert state.asc == expected
        g = rng.randrange(n + 1)
        accepted = _advance(state, (g,))
        assert (accepted == 1) == expected[g]
        crossings += accepted
        if expected[g]:
            beta, lev = wall(g)
            k = 2 * (_dot(beta, x) - lev) // _dot(beta, beta)
            x = [a - k * b for a, b in zip(x, beta)]
            w = oracles.wprod(w, apply_generator(identity_window(n), g, kind))
    assert state.asc == status()
    assert state.point() == tuple(Fraction(v, d) for v in x)
    assert crossings == separation_count(state.point(), kind, n)


# Seeded outputs of the walk, taken before the ascent-table walk replaced the
# point-tracking loop, on the float-CDF proposal stream that the byte table
# replaced: fed that stream, the geometry must reproduce them exactly.
GOLDEN_WALKS = [
    ("B", 2, 1, 8201, ("1651/2", "-14749/6")),
    ("B", 2, 2026, 8159, ("-1669/2", "-14645/6")),
    ("C", 3, 1, 7816, ("6721/8", "2199/4", "2309/8")),
    ("C", 3, 2026, 7780, ("-2497/8", "-2161/4", "-6653/8")),
    ("Ccheck", 2, 1, 8528, ("5821/6", "-4940/3")),
    ("Ccheck", 2, 2026, 8681, ("-2966/3", "10057/6")),
    ("Bcheck", 4, 1, 7647, ("6449/10", "2807/10", "-2214/5", "151/2")),
    ("Bcheck", 4, 2026, 7678, ("-2801/10", "-2291/5", "-847/10", "-1273/2")),
    ("D", 4, 1, 7703, ("4161/5", "2797/10", "7/2", "538")),
    ("D", 4, 2026, 7770, ("-2847/10", "-2739/5", "17/2", "-834")),
    ("B", 6, 1, 7386,
     ("-211/7", "-1193/14", "1986/7", "-1797/14", "-351/2", "-3263/14")),
    ("B", 6, 2026, 7175,
     ("2525/14", "-351/14", "-1595/7", "-927/14", "-891/7", "545/2")),
]


@pytest.mark.parametrize("family,n,seed,accepted,point", GOLDEN_WALKS)
def test_run_walk_golden(family, n, seed, accepted, point):
    kind = WeylKind(family, n)
    state = initial_state(kind, n)
    assert _advance(state, oracles.float_cdf_proposals(kind, n, 20_000, seed)) == accepted
    assert state.point() == tuple(Fraction(v) for v in point)


# The same walks on the byte-table stream: the stream derivation, the byte
# table and the geometry must reproduce them exactly.
GOLDEN_BYTE_WALKS = [
    ("B", 2, 1, 8319, ("5185/6", "-4969/2")),
    ("B", 2, 2026, 8309, ("15001/6", "1619/2")),
    ("C", 3, 1, 7690, ("-2101/4", "-6683/8", "2297/8")),
    ("C", 3, 2026, 7639, ("6499/8", "-1111/4", "-4415/8")),
    ("Ccheck", 2, 1, 8683, ("-5033/3", "5917/6")),
    ("Ccheck", 2, 2026, 8789, ("-5071/3", "6083/6")),
    ("Bcheck", 4, 1, 7522, ("-4597/10", "567/2", "396/5", "-6129/10")),
    ("Bcheck", 4, 2026, 7590, ("1359/5", "177/2", "6319/10", "-4527/10")),
    ("D", 4, 1, 7756, ("-8343/10", "8", "-2711/5", "581/2")),
    ("D", 4, 2026, 7698, ("-7/2", "8273/10", "-1359/5", "548")),
    ("B", 6, 1, 7155,
     ("3911/14", "-540/7", "-421/14", "-233/2", "3161/14", "-1202/7")),
    ("B", 6, 2026, 7140,
     ("345/2", "-353/14", "-1527/7", "-1107/14", "-926/7", "-3859/14")),
]


@pytest.mark.parametrize("family,n,seed,accepted,point", GOLDEN_BYTE_WALKS)
def test_run_walk_golden_byte_stream(family, n, seed, accepted, point):
    s = run_walk(WeylKind(family, n), n, 20_000, seed=seed)
    assert s.accepted == s.crossings == accepted
    assert s.final_point == tuple(Fraction(v) for v in point)


def test_estimate_direction_golden():
    est = estimate_direction(WeylKind("B", 3), 3, 20_000, 3, seed=5, processes=1)
    assert est.direction == (
        0.16709470242200378, 0.5092459528084418, 0.8442439931505136
    )


SEEDS = (0, 1, 2, 7, 1_000_003, -1, -1_000_003, 2**64 + 5, -(2**70), 3**50)


def test_derive_stream_separates_seed_trial_pairs():
    # seed * 1000003 + trial, the former derivation, sent (0, 1000003) and (1, 0) together
    pairs = [(s, t) for s in SEEDS for t in (0, 1, 2, 9, 1_000_003, 2**64)]
    assert (0, 1_000_003) in pairs and (1, 0) in pairs
    streams = {derive_stream(s, t) for s, t in pairs}
    assert len(streams) == len(pairs)
    firsts = {tuple(islice(_proposals(B2, 2, 64, s, t), 64)) for s, t in pairs}
    assert len(firsts) == len(pairs)


@pytest.mark.parametrize("seed,trial", [(0, 0), (7, 3), (-5, 1), (2**65, 2)])
def test_trial_job_is_run_walk_of_its_seed_and_trial(seed, trial):
    d4 = WeylKind("D", 4)
    job = _run_trials(d4, 4, 3000, seed, trial + 2, processes=2)[trial]
    assert job == run_walk(d4, 4, 3000, seed=seed, trial=trial)
    assert (job.seed, job.trial) == (seed, trial)


@pytest.mark.parametrize("family", ["B", "C", "D", "Bcheck", "Ccheck"])
def test_byte_table_gives_each_generator_its_kac_share(family):
    for n in range(2 if family == "D" else 1, 11):
        kind = WeylKind(family, n)
        weights = kac_weights(kind).weights
        total = sum(weights)
        keep = 256 // total * total
        table, delete = _byte_table(kind)
        assert delete == bytes(range(keep, 256))
        counts = Counter(table[b] for b in range(keep))
        assert counts == {g: a * keep // total for g, a in enumerate(weights)}
        if (family, n) != ("D", 2):
            assert _walk_tables(kind, n)[4:] == (table, delete)


@pytest.mark.parametrize("steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_proposals_are_exactly_steps_long_and_prefixes(steps):
    kind = WeylKind("Ccheck", 3)  # T = 4 divides 256: no byte is rejected
    full = list(_proposals(kind, 3, 3 * CHUNK + 5, 11))
    got = list(_proposals(kind, 3, steps, 11))
    assert got == full[:steps]
    d5 = WeylKind("D", 5)  # T = 8: no byte rejected either; B5 (T = 10) rejects 6 in 256
    b5 = WeylKind("B", 5)
    for kind, n in ((d5, 5), (b5, 5)):
        got = list(_proposals(kind, n, steps, 3, 1))
        assert len(got) == steps and set(got) <= set(range(n + 1))
        assert got == list(_proposals(kind, n, 3 * CHUNK + 5, 3, 1))[:steps]


def test_long_walk_draws_chunks_lazily():
    assert CHUNK <= 1 << 16
    head = list(islice(_proposals(B2, 2, 10**8, 4), 1000))
    assert head == list(_proposals(B2, 2, 1000, 4))


def test_proposal_frequencies_follow_the_kac_labels():
    kind = WeylKind("B", 3)  # weights 2, 2, 1, 1 of T = 6; keep = 252
    counts = Counter(_proposals(kind, 3, 60_000, 8))
    for g, a in enumerate(kac_weights(kind).weights):
        assert abs(counts[g] / 60_000 - a / 6) < 0.01


@pytest.mark.parametrize("family,n", [("B", 129), ("C", 129), ("D", 130), ("Bcheck", 129),
                                      ("Ccheck", 256)])
def test_weights_beyond_a_byte_rejected_before_any_geometry(monkeypatch, family, n):
    def no_geometry(*args):
        raise AssertionError("fundamental_point ran")

    monkeypatch.setattr(walk, "fundamental_point", no_geometry)
    monkeypatch.setattr(walk, "run_walk", no_geometry)
    kind = WeylKind(family, n)
    with pytest.raises(UnsupportedRange, match="at most 256"):
        run_walk(kind, n, 10)
    with pytest.raises(UnsupportedRange, match="at most 256"):
        estimate_direction(kind, n, 10, 2)


def test_estimate_direction_warms_the_tables_before_forking():
    _walk_tables.cache_clear()
    estimate_direction(B2, 2, 100, 2, seed=1, processes=2)
    assert _walk_tables.cache_info().currsize == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WALK_KINDS), st.integers(0, 2**31 - 1), st.integers(1, 5000))
def test_packed_walk_matches_two_list_oracle(spec, seed, steps):
    family, n = spec
    kind = WeylKind(family, n)
    s = run_walk(kind, n, steps, seed=seed)
    accepted, _, _, point = oracles.two_list_walk(kind, n, _proposals(kind, n, steps, seed))
    assert (s.accepted, s.final_point, s.crossings) == (accepted, point, accepted)


def test_packed_state_decodes_far_from_the_base_point():
    # seed 2 takes y to about +225000 and -75000 (scaled by d = 6) in 300k steps
    state = initial_state(B2, 2)
    crossings = _advance(state, _proposals(B2, 2, 300_000, 2))
    accepted, winv, y, point = oracles.two_list_walk(B2, 2, _proposals(B2, 2, 300_000, 2))
    assert min(y) < -50_000 and max(y) > 50_000
    assert state.decode() == (winv, y)
    assert (crossings, state.point()) == (accepted, point)


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 3), ("D", 6), ("Bcheck", 6)])
def test_decode_inverts_packing(family, n):
    kind = WeylKind(family, n)
    m = _walk_tables(kind, n)[1]
    for y in (-10**40, -10**6 - 1, -1, 0, 1, 10**6 + 1, 10**40):
        winv = [a * (-1) ** a for a in range(1, n + 1)]
        ys = [y + i for i in range(n)]
        state = WalkState(kind, n, [m * b + a for a, b in zip(winv, ys)], [True] * (n + 1))
        assert state.decode() == (winv, ys)


@pytest.mark.parametrize(
    "steps,trials,processes",
    [pytest.param(0, 2, 1, id="0-2"), pytest.param(-5, 2, 1, id="-5-2"),
     pytest.param(100, 0, 1, id="100-0"), pytest.param(100, 2, 0, id="processes-0"),
     pytest.param(100, 2, -1, id="processes--1")],
)
def test_walk_counts_must_be_positive(steps, trials, processes):
    with pytest.raises(ValueError):
        estimate_direction(B2, 2, steps, trials, processes=processes)
    if steps <= 0:
        with pytest.raises(ValueError):
            run_walk(B2, 2, steps)


def test_d2_walk_is_unsupported():
    # theta = alpha_0 for D2, so the n+1 walls of its alcove are dependent
    d2 = WeylKind("D", 2)
    with pytest.raises(UnsupportedRange):
        run_walk(d2, 2, 10)
    with pytest.raises(UnsupportedRange):
        estimate_direction(d2, 2, 10, 2)


class NeedsTwoArguments(Exception):
    """Pickles, but unpickling calls NeedsTwoArguments(message) and fails."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize(
    "trial,exc,raised,message",
    [(1, ValueError("boom"), ValueError, "^boom$"),
     (0, ValueError("boom"), ValueError, "^boom$"),
     (1, NeedsTwoArguments(1, 2), RuntimeError, re.escape("NeedsTwoArguments('1 and 2')"))],
    ids=["worker", "caller", "worker-unpicklable"],
)
def test_trial_exception_reaches_the_caller(monkeypatch, trial, exc, raised, message):
    def fails(kind, n, steps, seed, t):
        if t == trial:
            raise exc
        return run_walk(kind, n, steps, seed, t)

    monkeypatch.setattr(walk, "run_walk", fails)
    with pytest.raises(raised, match=message):
        estimate_direction(B2, 2, 100, 4, processes=2)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def _where(kind, n, steps, seed, trial):
    """Stands in for run_walk: the trial and the CPUs it ran on."""
    return trial, os.sched_getaffinity(0)


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="the OS sets no CPU affinity")


@needs_affinity
@pytest.mark.parametrize("trials,processes", [(4, 2), (5, 3), (7, 4)])
def test_each_share_runs_on_one_cpu_of_the_callers_set(monkeypatch, trials, processes):
    allowed = os.sched_getaffinity(0)
    monkeypatch.setattr(walk, "run_walk", _where)
    got = _run_trials(B2, 2, 100, 0, trials, processes)
    assert [t for t, _ in got] == list(range(trials))
    shares = min(trials, processes)
    cpu_of = {}
    for t, cpus in got:
        assert len(cpus) == 1 and cpus <= allowed
        assert cpu_of.setdefault(t % shares, cpus) == cpus  # one CPU per share
    assert os.sched_getaffinity(0) == allowed


@needs_affinity
def test_shares_zero_and_one_run_on_different_cpus(monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than 2 CPUs allowed")
    monkeypatch.setattr(walk, "run_walk", _where)
    (_, first), (_, second) = _run_trials(B2, 2, 100, 0, 2, 2)
    assert first != second


def _no_fork():
    raise AssertionError("forked a walk worker")


@needs_affinity
def test_a_caller_on_one_cpu_runs_every_share_there_and_forks_nothing_by_default(monkeypatch):
    before = os.sched_getaffinity(0)
    cpu = min(before)
    os.sched_setaffinity(0, {cpu})
    try:
        with monkeypatch.context() as m:
            m.setattr(walk, "run_walk", _where)
            assert [cpus for _, cpus in _run_trials(B2, 2, 100, 0, 4, 2)] == [{cpu}] * 4
        serial = estimate_direction(B2, 2, 2000, 3, seed=4, processes=1)
        monkeypatch.setattr(os, "fork", _no_fork)
        assert estimate_direction(B2, 2, 2000, 3, seed=4) == serial
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, before)


def test_default_process_count_without_affinity(monkeypatch):
    # where the OS has no affinity set, the default is one process per CPU
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert estimate_direction(B2, 2, 2000, 3, seed=4) == estimate_direction(
        B2, 2, 2000, 3, seed=4, processes=1)


@needs_affinity
@pytest.mark.parametrize("failing", [None, 0, 1], ids=["success", "caller", "worker"])
def test_the_callers_affinity_comes_back(monkeypatch, failing):
    def fails(kind, n, steps, seed, t):
        if t == failing:
            raise ValueError("boom")
        return run_walk(kind, n, steps, seed, t)

    before = os.sched_getaffinity(0)
    monkeypatch.setattr(walk, "run_walk", fails)
    if failing is None:
        estimate_direction(B2, 2, 100, 4, processes=2)
    else:
        with pytest.raises(ValueError, match="^boom$"):
            estimate_direction(B2, 2, 100, 4, processes=2)
    assert os.sched_getaffinity(0) == before


@pytest.mark.parametrize("how", ["refused", "missing"])
def test_pinning_is_best_effort(monkeypatch, how):
    want = _run_trials(B2, 2, 500, 3, 5, 3)

    def refuses(pid, cpus):
        raise OSError(22, "Invalid argument")

    if how == "refused":
        monkeypatch.setattr(os, "sched_setaffinity", refuses)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert _run_trials(B2, 2, 500, 3, 5, 3) == want


DEAD_WORKER = """
import atexit
import os
from weyltasep import walk
from weyltasep.weyl import WeylKind

atexit.register(print, "atexit")
before = os.sched_getaffinity(0)
print("buffered")  # stdout is a pipe: this line is still in the buffer at the forks
walk.estimate_direction(WeylKind("B", 2), 2, 100, 3, processes=3)
run_walk = walk.run_walk

def dies(kind, n, steps, seed, trial):
    if trial == 1:
        os._exit(3)
    return run_walk(kind, n, steps, seed, trial)

walk.run_walk = dies
try:
    walk.estimate_direction(WeylKind("B", 2), 2, 100, 4, processes=2)
except RuntimeError as exc:
    print(exc)
print("affinity kept" if os.sched_getaffinity(0) == before else "affinity lost")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def test_dead_worker_raises_instead_of_hanging():
    # in a subprocess with a timeout, so that a hang fails this test instead of stalling the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(weyltasep.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", DEAD_WORKER], env=env, capture_output=True,
                         text=True, check=True, timeout=30)
    buffered, dead, *rest = out.stdout.splitlines()
    # no worker flushed the inherited buffer or ran the atexit handler
    assert buffered == "buffered" and rest == ["affinity kept", "no child left", "atexit"]
    assert re.fullmatch(r"walk worker \d+ ended without a result \(exit status 3\)", dead)
