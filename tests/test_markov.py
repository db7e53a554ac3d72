from decimal import ROUND_FLOOR, Inexact, getcontext, localcontext
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import weyltasep.markov as markov
from weyltasep import tworow
from weyltasep.closedform import DirectionVector, limdir_closed, semiperm_density
from weyltasep.errors import InvalidRates, NotIrreducible
from weyltasep.markov import (
    Dist,
    Kernel,
    build_kernel,
    closed_class,
    exact_stationary,
)
from weyltasep.models import (DStarParams, build_cut_chain, build_dstar, build_multi,
                              build_semipermeable)
from weyltasep.ratio import R, ZERO
from weyltasep.verify import PARAM_POINTS
from weyltasep.weyl import WeylKind, inverse_act_theta, theta_raises

from oracles import (
    closed_classes,
    dist_from_json_obj,
    exact_lumping,
    fraction_certificate,
    fraction_gth,
    fraction_kernel,
    full_chain_law,
    is_exactly_lumpable,
    kernel_prob,
    kernel_row,
    power_iteration,
    reversal_bijection,
    table_two_species_kernel,
    with_candidate,
)


def test_kernel_row_sums_enforced():
    with pytest.raises(ValueError):
        Kernel(("a", "b"), ({0: R(1, 2)}, {1: R(1)}))
    k = Kernel(("a", "b"), ({0: R(1, 2), 1: R(1, 2)}, {1: R(1)}))
    assert kernel_prob(k, "a", "b") == R(1, 2)


def test_build_kernel_holds_leftover_mass():
    k = build_kernel(("a", "b"), lambda k: [(1, 0)] if k == 0 else [], [R(1, 3)])
    assert kernel_prob(k, "a", "a") == R(2, 3)
    assert kernel_prob(k, "b", "b") == R(1)


def test_one_state_chain():
    k = build_kernel(("x",), lambda k: [], [])
    assert closed_classes(k) == [frozenset({"x"})]
    assert exact_stationary(k)["x"] == R(1)


def test_doubly_stochastic_two_state():
    k = Kernel(
        ("a", "b"),
        ({0: R(1, 3), 1: R(2, 3)}, {0: R(2, 3), 1: R(1, 3)}),
    )
    pi = exact_stationary(k)
    assert pi["a"] == pi["b"] == R(1, 2)


def test_exact_stationary_multispecies_small():
    kind = WeylKind("Ccheck", 2)
    ker = build_multi(kind, 2)
    assert len(ker) == 8
    pi = exact_stationary(ker)
    assert sum(pi.values(), R(0)) == 1
    assert all(p > 0 for p in pi.values())
    approx = power_iteration(ker, sweeps=3000)
    for s, p in pi.items():
        assert abs(float(p) - approx[s]) < 1e-12


def test_not_irreducible_raises():
    # the zero-free D-type two-species chain on every sign word conserves sign parity
    ker = table_two_species_kernel("D", 3, 0)
    assert len(closed_classes(ker)) == 2
    with pytest.raises(NotIrreducible):
        exact_stationary(ker)


def test_transient_states_get_zero():
    k = build_kernel(("t", "a", "b"), [[(1, 0), (2, 0)], [(2, 0)], [(1, 0)]].__getitem__, [R(1, 2)])
    pi = exact_stationary(k)
    assert pi["t"] == 0 and pi["a"] == pi["b"] == R(1, 2)


def test_starred_chain_closed_classes():
    # with both starred rates zero, the closed class keeps stars at both ends
    ker = build_dstar(3, 1, DStarParams(1, 0, 1, 0))
    (closed,) = closed_classes(ker)
    assert all(s[0] == "*" and s[-1] == "*" for s in closed)
    # with only the left starred rate zero, stars persist at the first site
    ker = build_dstar(3, 1, DStarParams(1, 0, 1, R(1, 2)))
    (closed,) = closed_classes(ker)
    assert all(s[0] == "*" for s in closed)


def test_dist_json_roundtrip():
    d = Dist({(1, -2): R(1, 3), (2, 1): R(2, 3)})
    obj = d.to_json_obj()
    back = dist_from_json_obj(obj)
    assert back == d
    assert all("/" in e["p"] or e["p"].isdigit() for e in obj)


def test_symmetry_invariance_of_stationary():
    # a kernel automorphism carries the stationary law to itself
    ker = build_cut_chain(WeylKind("Ccheck", 4), (3,))
    pi = exact_stationary(ker)
    assert Dist({reversal_bijection(s): p for s, p in pi.items()}) == pi


def test_restrict_to_closed_class_matches_direct_kernel():
    # only the left starred rate vanishes: states without a first-site star are transient
    ker = build_dstar(3, 1, DStarParams(1, 0, 1, R(1, 2)))
    (cls,) = closed_classes(ker)
    sub = ker.restrict(cls)
    states = [s for s in ker.states if s in cls]
    direct = fraction_kernel(states, lambda s: kernel_row(ker, s).items())
    assert len(sub) < len(ker) and sub.den == ker.den
    assert sub.states == direct.states
    assert all(kernel_row(sub, s) == kernel_row(direct, s) for s in states)
    pi = exact_stationary(ker)
    assert exact_stationary(sub) == Dist({s: p for s, p in pi.items() if s in cls})


def test_rank5_d_law_gives_closed_form_direction():
    # the 1920-state law, solved once per test run for every test that reads it
    kind = WeylKind("D", 5)
    pi = full_chain_law("D", 5)
    assert len(pi) == 1920
    psi = [R(0)] * 5
    for w, p in pi.items():
        if p and theta_raises(w, kind):
            for j, c in enumerate(inverse_act_theta(w, kind)):
                psi[j] += p * c
    assert DirectionVector(tuple(psi)).proportional_to(limdir_closed(kind, 5))


# --- kernels from Fraction rows ----------------------------------------------


@st.composite
def fraction_row_kernels(draw):
    """(rows, Kernel(states, rows)) for random Fraction rows, some with zero entries."""
    n = draw(st.integers(1, 8))
    rows = []
    for i in range(n):
        targets = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
        row = dict(_draw_row(draw, targets))
        row[i] = row.get(i, Fraction(0)) + 1 - sum(row.values(), Fraction(0))
        row.setdefault(draw(st.integers(0, n - 1)), Fraction(0))
        rows.append(row)
    return rows, Kernel([f"s{i}" for i in range(n)], rows)


@settings(max_examples=200, deadline=None)
@given(fraction_row_kernels())
def test_kernel_holds_fraction_rows_as_integers_over_one_denominator(case):
    rows, kernel = case
    assert kernel.den == lcm(*(p.denominator for row in rows for p in row.values() if p))
    assert all(sum(row.values()) == kernel.den for row in kernel.rows)
    names = kernel.states
    for s, row in zip(names, rows):
        assert kernel_row(kernel, s) == {names[j]: p for j, p in row.items() if p}
        assert all(kernel_prob(kernel, s, names[j]) == p for j, p in row.items())
    for cls in closed_classes(kernel):
        sub = kernel.restrict(cls)
        assert sub.den == kernel.den
        assert all(kernel_row(sub, s) == kernel_row(kernel, s) for s in sub.states)


# --- both passes against the Fraction elimination -------------------------


def _oracle_law(kernel) -> Dist:
    (cls,) = closed_classes(kernel)
    members = sorted(kernel.index[s] for s in cls)
    return Dist({kernel.states[i]: p for i, p in fraction_gth(kernel, members).items()})


def _draw_row(draw, targets) -> list:
    """Positive rational weights on the targets; the leftover mass holds."""
    weights = [Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 30))) for _ in targets]
    scale = sum(weights) + Fraction(draw(st.integers(0, 30)), draw(st.integers(1, 30)))
    return [(t, w / scale) for t, w in zip(targets, weights)]


def _index_kernel(moves: dict):
    """build_kernel over sorted(moves), every (target, p) move an edge of its own."""
    states = sorted(moves)
    pos = {s: k for k, s in enumerate(states)}
    probs, rows = [], []
    for s in states:
        rows.append([(pos[t], len(probs) + e) for e, (t, _) in enumerate(moves[s])])
        probs.extend(p for _, p in moves[s])
    return build_kernel(states, rows.__getitem__, probs)


@st.composite
def sparse_moves(draw):
    n = draw(st.integers(1, 12))
    cyclic = draw(st.booleans())
    moves = {}
    for i in range(n):
        targets = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
        if cyclic and (i + 1) % n not in targets:
            targets.append((i + 1) % n)
        moves[i] = _draw_row(draw, targets)
    return moves


def sparse_chains():
    return sparse_moves().map(_index_kernel)


def _doubled(moves: dict) -> dict:
    """Each state s as (s, 0) and (s, 1), each move to t split evenly over (t, 0) and (t, 1)."""
    return {(s, c): [((t, d), p / 2) for t, p in row for d in (0, 1)]
            for s, row in moves.items() for c in (0, 1)}


def doubled_chains():
    """Sparse chains with a planted symmetry: {(s, 0), (s, 1)} lumps exactly."""
    return sparse_moves().map(_doubled).map(_index_kernel)


@st.composite
def two_closed_classes(draw):
    moves = {}
    for tag in "ab":
        m = draw(st.integers(1, 5))
        for i in range(m):
            extra = draw(st.lists(st.integers(0, m - 1), max_size=2, unique=True))
            targets = dict.fromkeys([(i + 1) % m] + extra)
            moves[(tag, i)] = _draw_row(draw, [(tag, j) for j in targets])
    for i in range(draw(st.integers(0, 2))):
        extra = draw(st.lists(st.sampled_from(sorted(moves)), max_size=2, unique=True))
        targets = dict.fromkeys([(draw(st.sampled_from("ab")), 0)] + extra)
        moves[("t", i)] = _draw_row(draw, list(targets))
    return _index_kernel(moves)


def _float_pass_fails(monkeypatch):
    """Make the float elimination report an underflow, so the decimal pass runs."""
    eliminate = markov._eliminate

    def spy(rows, den, members, num):
        return None if num is markov._float else eliminate(rows, den, members, num)

    monkeypatch.setattr(markov, "_eliminate", spy)


@settings(max_examples=200, deadline=None)
@given(sparse_chains())
def test_decimal_fallback_matches_fraction_oracle(kernel):
    """Both passes, the float one and the decimal fallback, give the oracle's law."""
    for force_fallback in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if force_fallback:
                _float_pass_fails(mp)
            if len(closed_classes(kernel)) != 1:
                with pytest.raises(NotIrreducible):
                    exact_stationary(kernel)
                continue
            assert exact_stationary(kernel) == _oracle_law(kernel)


def _blocks(members, block) -> set[frozenset]:
    """The partition markov._lumped found, as sets of state indices."""
    parts: dict[int, set] = {}
    for i, b in zip(members, block):
        parts.setdefault(b, set()).add(i)
    return {frozenset(p) for p in parts.values()}


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_chains(), doubled_chains()))
def test_lumping_is_the_coarsest_exact_one_and_lifts_the_law(kernel):
    for cls in closed_classes(kernel):
        members = sorted(kernel.index[s] for s in cls)
        rows, den, solved, block, size = markov._lumped(kernel, members)
        parts = _blocks(members, block)
        assert parts == exact_lumping(kernel, members)
        assert sorted(map(len, parts)) == sorted(size)
        assert is_exactly_lumpable(kernel, parts)
        if isinstance(kernel.states[0], tuple) and len(cls) > 1:
            # the planted pairs lump exactly, so the coarsest partition keeps each together
            block_of = {kernel.states[i]: p for p in parts for i in p}
            assert all(block_of[(s, c)] is block_of[(s, 1 - c)] for s, c in cls)
        if len(parts) == len(members):
            # a discrete partition: the target is the class itself, its rows not copied
            assert rows is kernel.rows and den == kernel.den and solved is members
            continue
        assert list(solved) == list(range(len(size)))
        assert all(a > 0 for b in solved for a in rows[b].values())
        assert all(sum(rows[b].values()) == den for b in solved)
        # the quotient's law split evenly over each block, in Fractions
        law = fraction_gth(SimpleNamespace(rows=rows, den=den), list(solved))
        lifted = {i: law[b] / size[b] for i, b in zip(members, block)}
        assert lifted == fraction_gth(kernel, members)
    if len(closed_classes(kernel)) == 1:
        assert exact_stationary(kernel) == _oracle_law(kernel)


@pytest.mark.parametrize("family, n, blocks", [("B", 3, 24), ("D", 4, 24)])
def test_decimal_pass_solves_the_quotient(precisions, monkeypatch, family, n, blocks):
    kernel = build_multi(WeylKind(family, n), n)
    float_law = exact_stationary(kernel)
    quotients = []
    lumped = markov._lumped

    def spy(ker, members):
        found = lumped(ker, members)
        quotients.append(len(found[2]))
        return found

    _float_pass_fails(monkeypatch)
    monkeypatch.setattr(markov, "_lumped", spy)
    assert exact_stationary(kernel) == float_law
    assert quotients == [blocks]
    assert precisions == [32]


@settings(max_examples=50, deadline=None)
@given(two_closed_classes())
def test_two_closed_classes_raise(kernel):
    assert len(closed_classes(kernel)) == 2
    with pytest.raises(NotIrreducible):
        exact_stationary(kernel)


def _disjoint_union(kernels) -> Kernel:
    """The kernels side by side, state s of the k-th renamed (k, s)."""
    states, rows = [], []
    for k, ker in enumerate(kernels):
        offset = len(states)
        states += [(k, s) for s in ker.states]
        rows += [{offset + j: Fraction(a, ker.den) for j, a in row.items()} for row in ker.rows]
    return Kernel(states, rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(sparse_chains(), two_closed_classes()), max_size=3)
       .map(_disjoint_union))
def test_closed_class_matches_reachability_oracle(kernel):
    # no kernel (no closed class), one, or several side by side, with
    # transient states and self-loops
    closed = closed_classes(kernel)
    if len(closed) == 1:
        assert closed_class(kernel) == tuple(s for s in kernel.states if s in closed[0])
    else:
        with pytest.raises(NotIrreducible, match=f"^{len(closed)} closed classes$"):
            closed_class(kernel)


@pytest.fixture
def precisions(monkeypatch):
    """The decimal precisions at which exact_stationary runs the elimination, in order."""
    calls = []
    eliminate = markov._eliminate

    def spy(rows, den, members, num):
        if num is markov._decimal:
            calls.append(getcontext().prec)
        return eliminate(rows, den, members, num)

    monkeypatch.setattr(markov, "_eliminate", spy)
    return calls


def test_large_denominators_need_more_than_one_precision(precisions):
    a, b, c = (1 << 80) + 13, (1 << 79) + 7, (1 << 81) + 27
    k = Kernel(
        ("x", "y", "z"),
        (
            {0: 1 - R(1, a), 1: R(1, a)},
            {1: 1 - R(1, b) - R(1, c), 2: R(1, b), 0: R(1, c)},
            {2: 1 - R(3, a), 0: R(3, a)},
        ),
    )
    pi = exact_stationary(k)
    assert pi == _oracle_law(k)
    assert max(p.denominator for p in pi.values()).bit_length() > 61
    assert precisions == [32, 64, 128]


def test_denominator_with_a_61_bit_prime_factor_is_solved(precisions):
    p = (1 << 61) - 1
    k = Kernel(("a", "b"), ({0: 1 - R(1, 3 * p), 1: R(1, 3 * p)}, {0: R(1, 2), 1: R(1, 2)}))
    pi = exact_stationary(k)
    assert pi == _oracle_law(k)
    assert pi["b"] == R(2, 3 * p + 2)
    assert precisions == [32]
    # the fallback builds its own context: the caller's rounding and traps stay out
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 5, ROUND_FLOOR
        ctx.traps[Inexact] = True
        assert exact_stationary(k) == pi
    assert precisions == [32, 32]


def test_failed_certificate_doubles_the_precision(precisions, monkeypatch):
    recover = markov._recover

    def off_by_one_at_32_digits(xs, rel_err):
        nums, den = recover(xs, rel_err)
        if getcontext().prec == 32:
            nums = [nums[0] + 1, *nums[1:]]
        return nums, den

    certificates = []
    certify = markov._is_stationary

    def spy(kernel, pi_idx):
        certificates.append(certify(kernel, pi_idx))
        return certificates[-1]

    _float_pass_fails(monkeypatch)
    monkeypatch.setattr(markov, "_recover", off_by_one_at_32_digits)
    monkeypatch.setattr(markov, "_is_stationary", spy)
    # B3's 24-block quotient has its tree-theorem rung past 32 digits, so a
    # law that fails at 32 digits is retried at 64
    ker = build_multi(WeylKind("B", 3), 3)
    pi = exact_stationary(ker)
    assert pi == _oracle_law(ker)
    assert certificates == [False, True]
    assert precisions == [32, 64]


def test_the_ladder_ends_at_the_tree_theorem_rung(precisions, monkeypatch):
    # D4's quotient has 24 blocks and a tree-theorem bound B of 38 digits, so
    # (24 + 16) * 10**(1-p) * B**2 < 1/4 first holds at a rung of 128 digits;
    # a certificate that refuses every law is a fault there, not a hang
    monkeypatch.setattr(markov, "_is_stationary", lambda kernel, pi_idx: False)
    with pytest.raises(RuntimeError, match="^no law of the 24 solved states passed "
                                           "the certificate at 128 digits$"):
        exact_stationary(build_multi(WeylKind("D", 4), 4))
    assert precisions == [32, 64, 128]


@pytest.mark.parametrize("n, n0, alpha, beta, rungs",
                         [(6, 0, R(2, 3), R(3, 5), [32]), (7, 0, R(9, 10), R(7, 9), [32, 64])])
def test_semipermeable_laws_climb_the_ladder(precisions, n, n0, alpha, beta, rungs):
    # the floats cannot pin these laws, so the decimal pass reads them off
    pi = exact_stationary(build_semipermeable(n, n0, alpha, beta))
    assert precisions == rungs
    for j in range(1, n + 1):
        density = sum((p for w, p in pi.items() if w[j - 1] == 1), ZERO)
        assert density == semiperm_density(n, n0, j, alpha, beta)


def test_underflowing_rate_falls_back_to_decimal(precisions):
    # 2**-1100 is 0.0 as a double, so the float pivot of state "a" is zero;
    # the law's denominator 2**1100 + 2 has 332 digits
    tiny = R(1, 2**1100)
    k = Kernel(("a", "b"), ({0: 1 - tiny, 1: tiny}, {0: R(1, 2), 1: R(1, 2)}))
    pi = exact_stationary(k)
    assert pi == Dist({"a": 1 - 2 * tiny / (1 + 2 * tiny), "b": 2 * tiny / (1 + 2 * tiny)})
    assert pi == _oracle_law(k)
    assert precisions == [32, 64, 128, 256, 512]


@pytest.mark.parametrize(
    "build, sizes",
    [
        (lambda: build_multi(WeylKind("B", 3), 3), (48, 24)),
        (lambda: build_multi(WeylKind("Ccheck", 3), 3), (48, 24)),
        (lambda: build_multi(WeylKind("D", 3), 3), (24, 5)),
        # with no candidate, or its product form would be certified unsolved
        (lambda: with_candidate(tworow.kernel(6, 2, PARAM_POINTS[0])), (165, 165)),
        (lambda: build_multi(WeylKind("B", 4), 4), (384, 192)),
        (lambda: build_multi(WeylKind("Ccheck", 4), 4), (384, 192)),
        (lambda: build_multi(WeylKind("D", 4), 4), (192, 24)),
    ],
    ids=["B3", "Ccheck3", "D3", "tworow-6-2", "B4", "Ccheck4", "D4"],
)
def test_small_laws_never_reach_the_fallback(precisions, monkeypatch, build, sizes):
    # the float pass solves the coarsest exact lumping (sizes: chain, states
    # eliminated) and certifies the lifted law once, on the kernel passed in
    kernel = build()
    solved, certified = [], []
    eliminate, certify = markov._eliminate, markov._is_stationary

    def eliminate_spy(rows, den, members, num):
        solved.append(len(members))
        return eliminate(rows, den, members, num)

    def certify_spy(ker, pi_idx):
        certified.append(ker)
        return certify(ker, pi_idx)

    monkeypatch.setattr(markov, "_eliminate", eliminate_spy)
    monkeypatch.setattr(markov, "_is_stationary", certify_spy)
    pi = exact_stationary(kernel)
    assert precisions == []
    assert (len(kernel), *solved) == sizes
    assert certified == [kernel]
    assert certify(kernel, {kernel.index[s]: p for s, p in pi.items() if p})


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: build_multi(WeylKind("B", 4), 4), id="B4"),
        pytest.param(lambda: build_multi(WeylKind("Ccheck", 4), 4), id="Ccheck4"),
        pytest.param(lambda: build_multi(WeylKind("D", 4), 4), id="D4"),
        pytest.param(lambda: tworow.kernel(7, 1, PARAM_POINTS[0]), id="tworow-7-1"),
        pytest.param(lambda: tworow.kernel(7, 2, PARAM_POINTS[0]), id="tworow-7-2"),
        pytest.param(lambda: tworow.kernel(7, 2, PARAM_POINTS[2]), id="tworow-7-2-p2"),
        pytest.param(lambda: build_multi(WeylKind("D", 5), 5), id="D5"),
        pytest.param(lambda: build_multi(WeylKind("B", 5), 5), id="B5", marks=pytest.mark.slow),
    ],
)
def test_float_elimination_keeps_an_eighth_of_its_error_bound(build):
    # The pivot order is not the exact fewest-links one, so a worse order could
    # grow the float error; every entry of the target's float law must stay
    # within an eighth of the bound (k + 16) 2^-52 that exact_stationary reads
    # it with, relative to the exact target law.
    kernel = build()
    members = [kernel.index[s] for s in closed_class(kernel)]
    rows, den, solved, block, size = markov._lumped(kernel, members)
    xs = markov._eliminate(rows, den, solved, markov._float)
    pi = exact_stationary(kernel)
    exact = {b: pi[kernel.states[i]] * size[b] for i, b in zip(members, block)}
    bound = Fraction((len(solved) + 16) * 2.0**-52 / 8)
    assert all(abs(Fraction(x) - exact[b]) <= bound * exact[b] for b, x in zip(solved, xs))


# --- recovering rationals from perturbed floats ------------------------------


@st.composite
def weight_laws(draw, min_bits, max_bits, max_smallest):
    """pi = w / sum(w) for positive integer weights whose sum has min_bits to max_bits bits.

    The smallest weight is at most max_smallest (and max_bits is at least
    10, so the sum stays below 2**max_bits).  The chain laws here have
    smallest weight 1 (B/C/D) or below 2**9 (two-row): one float of 53 bits
    cannot pin a fraction whose numerator and denominator have more bits
    than that together, so the recovery reads the common denominator off
    the smallest entries.
    """
    total = draw(st.integers(1 << (min_bits - 1), (1 << max_bits) - 1))
    size = draw(st.integers(1, 12))
    smallest = draw(st.integers(1, max_smallest))
    weights = [smallest] + [draw(st.integers(smallest, max(smallest, total // size)))
                            for _ in range(size - 1)]
    weights.append(max(smallest, total - sum(weights)))
    draw(st.randoms()).shuffle(weights)
    z = sum(weights)
    return [Fraction(w, z) for w in weights]


def _perturbed(law, data):
    """Each entry as a float within a relative 2**-50 of it."""
    eps = [data.draw(st.integers(-(1 << 20), 1 << 20)) for _ in law]
    return [float(p * (1 + Fraction(e, 1 << 70))) for p, e in zip(law, eps)]


@settings(max_examples=200, deadline=None)
@given(weight_laws(1, 40, 64), st.data())
def test_recovery_returns_laws_up_to_2_40_exactly(law, data):
    found = markov._recover(_perturbed(law, data), 2.0**-49)
    assert found is not None
    nums, den = found
    assert [Fraction(a, den) for a in nums] == law


@settings(max_examples=100, deadline=None)
@given(weight_laws(48, 80, 1), st.data())
def test_recovery_gives_up_past_the_limit(law, data):
    # The smallest entry is 1/Z with Z >= 2**47, the limit on L for the
    # bound 2**-49 (L * 2**-49 < 1/4).  The nearest fraction to it whose
    # denominator q keeps q**2 * err <= 1/2 is 1/Z itself, or 1/q with q
    # near sqrt(2**48 * Z), or 0/1: the first two are past the limit, and
    # the last leaves the entry no integer.
    assert markov._recover(_perturbed(law, data), 2.0**-49) is None


# --- the integer certificate against the Fraction one ------------------------


@st.composite
def laws_to_certify(draw):
    """A small chain with the law of one closed class, maybe perturbed.

    The law is a dict over state indices as the solver hands it to the
    certificate.  Perturbations: mass moved between two states (the sum
    stays 1), one entry changed, the whole law scaled, or an explicit zero
    added outside the support (the law stays stationary).
    """
    kernel = draw(st.one_of(sparse_chains(), fraction_row_kernels().map(lambda case: case[1])))
    members = sorted(kernel.index[s] for s in draw(st.sampled_from(closed_classes(kernel))))
    pi = fraction_gth(kernel, members)
    how = draw(st.sampled_from(["none", "move", "change", "scale", "zero"]))
    delta = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 50)))
    a, b = draw(st.integers(0, len(kernel) - 1)), draw(st.integers(0, len(kernel) - 1))
    if how == "move":
        pi[a] = pi.get(a, 0) - delta
        pi[b] = pi.get(b, 0) + delta
    elif how == "change":
        pi[a] = pi.get(a, 0) + delta
    elif how == "scale":
        pi = {i: p * (1 + delta) for i, p in pi.items()}
    elif how == "zero" and a not in pi:
        pi[a] = Fraction(0)
    return kernel, pi, how


@settings(max_examples=300, deadline=None)
@given(laws_to_certify())
def test_integer_certificate_matches_fraction_oracle(case):
    kernel, pi, how = case
    verdict = markov._is_stationary(kernel, pi)
    assert verdict == fraction_certificate(kernel, pi)
    if how in ("none", "zero"):
        assert verdict
    if how in ("change", "scale"):
        assert not verdict


# Values are given as each of these types; int carries only the
# integer-valued cases, the others carry halves and quarters exactly too.
TYPES = [Fraction, int, str, float]
NON_INT = [Fraction, str, float]


def _typed(conv, values):
    return {k: conv(Fraction(v)) for k, v in values.items()}


@pytest.mark.parametrize("conv", TYPES)
@pytest.mark.parametrize(
    "row, match",
    [({0: 2}, "outside"), ({0: -1, 1: 2}, "outside"), ({0: 1, 1: 1}, "does not sum"),
     ({0: 0}, "does not sum")],
)
def test_kernel_rejects_bad_rows_of_every_type(conv, row, match):
    with pytest.raises(ValueError, match=match):
        Kernel(("a", "b"), (_typed(conv, row), {1: conv(Fraction(1))}))


@pytest.mark.parametrize("conv", NON_INT)
@pytest.mark.parametrize(
    "row, match",
    [({0: "3/2"}, "outside"), ({0: "-1/2", 1: "3/2"}, "outside"), ({0: "1/2"}, "does not sum"),
     ({0: "1/2", 1: "3/4"}, "does not sum")],
)
def test_kernel_rejects_bad_fractional_rows(conv, row, match):
    with pytest.raises(ValueError, match=match):
        Kernel(("a", "b"), (_typed(conv, row), {1: conv(Fraction(1))}))


@pytest.mark.parametrize("conv", TYPES)
def test_build_kernel_rejects_bad_moves_of_every_type(conv):
    one, neg = conv(Fraction(1)), conv(Fraction(-1))
    with pytest.raises(InvalidRates, match=r"state 'a' carry 2 > 1"):
        build_kernel(("a", "b"), lambda k: [(1, 0), (0, 0)] if k == 0 else [], [one])
    with pytest.raises(ValueError, match="negative"):
        build_kernel(("a", "b"), lambda k: [(1, 0)] if k == 0 else [], [neg])
    # An edge above 1 is an error only in a row whose moves carry it.
    big = build_kernel(("a", "b"), lambda k: [(1, 0)] if k == 0 else [], [one, conv(2)])
    assert kernel_prob(big, "a", "b") == 1 == kernel_prob(big, "b", "b")


def test_build_kernel_rejects_duplicate_states_before_any_row():
    built = []

    def moves(k):
        built.append(k)
        return []

    with pytest.raises(ValueError, match="duplicate"):
        build_kernel(("a", "b", "a"), moves, [])
    assert built == []


@pytest.mark.parametrize("conv", NON_INT)
def test_build_kernel_folds_duplicate_fractional_moves(conv):
    half, quarter = conv(Fraction(1, 2)), conv(Fraction(1, 4))
    with pytest.raises(InvalidRates):
        build_kernel(("a", "b"), lambda k: [(1, 0), (0, 0), (1, 0)] if k == 0 else [], [half])
    for edges in ((0, 0), (0, 1)):
        folded = build_kernel(
            ("a", "b"), lambda k: [(1, e) for e in edges] if k == 0 else [], [quarter, quarter]
        )
        assert list(kernel_row(folded, "a").items()) == [("b", R(1, 2)), ("a", R(1, 2))]


@pytest.mark.parametrize("conv", TYPES)
def test_dist_rejects_negative_values_and_bad_sums_of_every_type(conv):
    with pytest.raises(ValueError, match="negative"):
        Dist(_typed(conv, {"a": -1, "b": 2}))
    with pytest.raises(ValueError, match="sum"):
        Dist(_typed(conv, {"a": 1, "b": 1}))
    with pytest.raises(ValueError, match="sum"):
        Dist(_typed(conv, {"a": 0}))
    if conv is not int:
        with pytest.raises(ValueError, match="negative"):
            Dist(_typed(conv, {"a": "-1/2", "b": "3/2"}))
        with pytest.raises(ValueError, match="sum"):
            Dist(_typed(conv, {"a": "1/2", "b": "1/4"}))
        assert Dist(_typed(conv, {"a": "1/2", "b": "1/2"})) == Dist({"a": R(1, 2), "b": R(1, 2)})


def test_fractions_are_stored_as_given():
    p, q = R(1, 3), R(2, 3)
    d = Dist({"a": p, "b": q})
    assert d["a"] is p and d["b"] is q


# --- guesses carried as kernel candidates: certified, never trusted ----------


def test_a_certified_guess_is_returned_in_kernel_order_without_a_solve(solver_runs):
    ker = build_multi(WeylKind("B", 3), 3)
    law = exact_stationary(ker)
    assert solver_runs == [len(ker)]
    shuffled = dict(reversed(list(law.items())))
    guessed = exact_stationary(with_candidate(ker, lambda: shuffled))
    assert guessed == law and list(guessed) == list(ker.states)
    assert solver_runs == [len(ker)]


def test_a_guess_with_one_entry_moved_falls_back_to_the_solve(solver_runs):
    ker = build_multi(WeylKind("B", 3), 3)
    law = exact_stationary(ker)
    s, t = ker.states[:2]
    moved = dict(law)
    moved[s] -= law[s] / 2
    moved[t] += law[s] / 2
    assert moved != dict(law) and sum(moved.values()) == 1
    assert exact_stationary(with_candidate(ker, lambda: moved)) == law
    assert solver_runs == [len(ker)] * 2


def test_a_guess_naming_a_state_the_kernel_lacks_falls_back(solver_runs):
    ker = build_cut_chain(WeylKind("D", 3), (2,))
    law = exact_stationary(ker)
    for foreign in ((9, 9, 9), "x"):
        assert exact_stationary(with_candidate(ker, lambda: {**law, foreign: ZERO})) == law
    assert solver_runs == [len(ker)] * 3


def test_a_guess_does_not_change_the_closed_class_error():
    ker = build_dstar(2, 1, PARAM_POINTS[0])
    guess = tworow.top_row_law(2, 1, PARAM_POINTS[0])
    assert set(guess) == set(ker.states)
    for candidate in (None, lambda: guess, ker.candidate):
        with pytest.raises(NotIrreducible, match="^2 closed classes$"):
            exact_stationary(with_candidate(ker, candidate))


def test_a_candidate_that_cannot_be_formed_counts_as_none(solver_runs):
    ker = build_multi(WeylKind("B", 3), 3)
    law = exact_stationary(ker)

    def unformed():
        raise NotIrreducible("no configurations in the restricted class")

    assert exact_stationary(with_candidate(ker, unformed)) == law
    assert solver_runs == [len(ker)] * 2


def test_a_restricted_kernel_carries_no_candidate():
    ker = build_dstar(5, 1, PARAM_POINTS[0])
    assert ker.candidate is not None
    assert ker.restrict(ker.states).candidate is None
