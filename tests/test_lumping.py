import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyltasep.lumping import (
    cut_coloring,
    project_distribution,
    star_lift,
    verify_lumping,
)
from weyltasep.errors import InvalidCounts
from weyltasep.markov import Dist, Kernel, exact_stationary
from weyltasep.models import (
    STAR,
    STAR_RATES,
    build_cut_chain,
    build_dstar,
    build_multi,
    cut_states,
    star_chain,
)
from weyltasep.ratio import R
from weyltasep.verify import suite_lumping
from weyltasep.weyl import FAMILIES, WeylKind

from oracles import closed_classes, kernel_prob, kernel_row, signed_permutations


def test_cut_coloring_examples():
    assert cut_coloring((1, 2, 3), (1,)) == (1, 1, 1)
    assert cut_coloring((2, -3, 1), (2,)) == (1, -1, 0)
    assert cut_coloring((-1, 2), (2,)) == (0, 1)
    assert cut_coloring((3, -1, -4, 2), (2, 4)) == (1, 0, -2, 1)
    assert cut_coloring((3, -1, 2), (1, 2, 3)) == (3, -1, 2)
    assert cut_coloring((3, -1, 2), (4,)) == (0, 0, 0)


@given(st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_cut_coloring_counts(seed):
    # colour s > 0 holds the letters c_s..c_{s+1}-1, colour 0 those below c_1
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 6)
    w = rng.choice(list(signed_permutations(n)))
    cuts = tuple(sorted(rng.sample(range(1, n + 2), rng.randint(1, n + 1))))
    image = cut_coloring(w, cuts)
    bounds = (1, *cuts, n + 1)
    assert [sum(abs(x) == s for x in image) for s in range(len(cuts) + 1)] == [
        b - a for a, b in zip(bounds, bounds[1:])
    ]
    assert all(x * y > 0 for x, y in zip(image, w) if x)
    assert image in cut_states(WeylKind("B", n), cuts)


def test_star_rates_are_pinned():
    half = R(1, 2)
    assert {f: (p.alpha, p.alpha_star, p.beta, p.beta_star) for f, p in STAR_RATES.items()} == {
        "Ccheck": (1, 0, 1, 0),
        "C": (half, 0, half, 0),
        "B": (1, 0, half, half),
        "Bcheck": (half, 0, half, half),
        "D": (half, half, half, half),
    }


def test_star_lift_examples():
    # a zero starred rate adds a fixed star; a nonzero one collapses a border +-1
    assert star_lift((1, 0, -1), WeylKind("B", 3)) == (STAR, 1, 0, STAR)
    assert star_lift((1, 0, -1), WeylKind("Bcheck", 3)) == (STAR, 1, 0, STAR)
    assert star_lift((0, 1, 0), WeylKind("D", 3)) == (0, 1, 0)
    assert star_lift((-1, 0, 1), WeylKind("D", 3)) == (STAR, 0, STAR)
    assert star_lift((-1, 0, 1), WeylKind("Ccheck", 3)) == (STAR, -1, 0, 1, STAR)
    assert star_lift((1,), WeylKind("C", 1)) == (STAR, 1, STAR)
    assert star_lift((-1,), WeylKind("B", 1)) == (STAR, STAR)


@pytest.mark.parametrize("family", FAMILIES)
def test_star_lift_rejects_a_word_of_the_wrong_length(family):
    kind = WeylKind(family, 3)
    for word in ((1, 0), (1, 0, 0, -1)):
        with pytest.raises(InvalidCounts):
            star_lift(word, kind)


@pytest.mark.parametrize("family", FAMILIES)
def test_star_lift_carries_the_one_cut_law(family):
    # every n0: the lift of the one-cut law is the law of the starred chain;
    # the kernels of Ccheck, B and D lump too, those of C and Bcheck only at n0 = n
    # or onto a single starred state
    for n in range(3 if family == "D" else 1, 5):
        kind = WeylKind(family, n)
        for n0 in range(n + 1):
            one, star = build_cut_chain(kind, (n0 + 1,)), star_chain(kind, n0)
            lift = lambda w: star_lift(w, kind)
            assert project_distribution(exact_stationary(one), lift) == exact_stationary(star)
            lumps = family in ("Ccheck", "B", "D") or n0 == n or len(star) == 1
            assert verify_lumping(one, lift, star) is lumps, (n, n0)


def test_verify_lumping_identity_map():
    ker = build_cut_chain(WeylKind("B", 3), (2,))
    assert verify_lumping(ker, lambda s: s, ker) is True


# The B and Ccheck two-species chains at n = 3, n0 = 1 under the identity map:
# (state, target, B's probability, Ccheck's) for every entry where they differ.
B_VS_CCHECK_VIOLATIONS = [
    ("(-1, -1, 0)", "(1, -1, 0)", "1/3", "1/4"),
    ("(-1, -1, 0)", "(-1, -1, 0)", "2/3", "3/4"),
    ("(-1, 0, -1)", "(1, 0, -1)", "1/3", "1/4"),
    ("(-1, 0, -1)", "(-1, -1, 0)", "1/6", "1/4"),
    ("(-1, 0, 1)", "(1, 0, 1)", "1/3", "1/4"),
    ("(-1, 0, 1)", "(-1, 0, -1)", "0", "1/4"),
    ("(-1, 0, 1)", "(-1, -1, 0)", "1/6", "0"),
    ("(-1, 1, 0)", "(1, 1, 0)", "1/3", "1/4"),
    ("(-1, 1, 0)", "(-1, 1, 0)", "1/3", "1/2"),
    ("(-1, 1, 0)", "(-1, 0, 1)", "1/6", "1/4"),
    ("(-1, 1, 0)", "(-1, 0, -1)", "1/6", "0"),
    ("(0, -1, -1)", "(0, -1, -1)", "2/3", "3/4"),
    ("(0, -1, -1)", "(-1, 0, -1)", "1/3", "1/4"),
    ("(0, -1, 1)", "(0, -1, -1)", "0", "1/4"),
    ("(0, -1, 1)", "(-1, 0, 1)", "1/3", "1/4"),
    ("(0, -1, 1)", "(0, -1, 1)", "2/3", "1/2"),
    ("(0, 1, -1)", "(0, 1, -1)", "5/6", "3/4"),
    ("(0, 1, -1)", "(0, -1, 1)", "1/6", "1/4"),
    ("(0, 1, 1)", "(0, -1, -1)", "1/6", "0"),
    ("(0, 1, 1)", "(0, 1, -1)", "0", "1/4"),
    ("(0, 1, 1)", "(0, 1, 1)", "5/6", "3/4"),
    ("(1, -1, 0)", "(1, -1, 0)", "2/3", "3/4"),
    ("(1, -1, 0)", "(-1, 1, 0)", "1/3", "1/4"),
    ("(1, 0, -1)", "(1, -1, 0)", "1/6", "1/4"),
    ("(1, 0, -1)", "(0, 1, -1)", "1/3", "1/4"),
    ("(1, 0, 1)", "(1, 0, -1)", "0", "1/4"),
    ("(1, 0, 1)", "(1, -1, 0)", "1/6", "0"),
    ("(1, 0, 1)", "(0, 1, 1)", "1/3", "1/4"),
    ("(1, 1, 0)", "(1, 0, 1)", "1/6", "1/4"),
    ("(1, 1, 0)", "(1, 1, 0)", "2/3", "3/4"),
    ("(1, 1, 0)", "(1, 0, -1)", "1/6", "0"),
]


def test_verify_lumping_detects_violation():
    big = build_cut_chain(WeylKind("B", 3), (2,))
    small = build_cut_chain(WeylKind("Ccheck", 3), (2,))
    assert verify_lumping(big, lambda s: s, small) is False
    pairs = ((s, t, kernel_prob(big, s, t), kernel_prob(small, s, t))
             for s in small.states for t in small.states)
    differ = {(repr(s), repr(t)): (str(p), str(q)) for s, t, p, q in pairs if p != q}
    assert differ == {(s, t): (agg, sm) for s, t, agg, sm in B_VS_CCHECK_VIOLATIONS}
    # Ccheck's kernel fails with any one of B's differing rows put in, and
    # passes with none.
    bad_rows = {small.index[s] for s in big.states if kernel_row(big, s) != kernel_row(small, s)}
    for bad in (None, *bad_rows):
        rows = [kernel_row(big if i == bad else small, u) for i, u in enumerate(small.states)]
        patched = Kernel(small.states, [{small.index[t]: p for t, p in row.items()}
                                        for row in rows])
        assert verify_lumping(patched, lambda s: s, small) is (bad is None), bad


def test_verify_lumping_image_mismatch():
    big = build_cut_chain(WeylKind("B", 3), (2,))
    assert verify_lumping(big, lambda s: "b", Kernel(("a",), ({0: 1},))) is False
    assert verify_lumping(big, lambda s: "a", Kernel(("a",), ({0: 1},))) is True


def test_multi_to_two_species_lumping_rank3():
    big = build_multi(WeylKind("B", 3), 3)
    small = build_cut_chain(WeylKind("B", 3), (2,))
    assert verify_lumping(big, lambda w: cut_coloring(w, (2,)), small) is True


def test_two_species_into_starred_chain():
    b3 = WeylKind("B", 3)
    bb = build_cut_chain(b3, (2,))
    dst = build_dstar(4, 1, STAR_RATES["B"])
    (closed,) = closed_classes(dst)
    sub = dst.restrict(closed)
    assert star_chain(b3, 1).states == sub.states
    assert verify_lumping(bb, lambda w: star_lift(w, b3), sub) is True


def test_project_point_mass():
    d = Dist({(1, 2): R(1)})
    assert project_distribution(d, lambda s: "x") == Dist({"x": R(1)})


@given(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(0, 4)),
                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_project_distribution_adds_each_class_exactly(cells):
    # weights num/den normalised by their total give mixed denominators; the
    # third entry of each cell names its class, so the map is many-to-one
    weights = [R(num, den) for num, den, _ in cells]
    total = sum(weights)
    dist = Dist({s: w / total for s, w in enumerate(weights)})
    state_map = lambda s: cells[s][2]
    proj = project_distribution(dist, state_map)
    oracle: dict = {}
    for s, p in dist.items():
        oracle[state_map(s)] = oracle.get(state_map(s), R(0)) + p
    assert dict(proj) == oracle
    assert list(proj) == list(dict.fromkeys(cls for *_, cls in cells))


def test_projection_matches_small_stationary():
    big = build_multi(WeylKind("Ccheck", 3), 3)
    small = build_cut_chain(WeylKind("Ccheck", 3), (2,))
    proj = project_distribution(exact_stationary(big), lambda w: cut_coloring(w, (2,)))
    assert proj == exact_stationary(small)


def test_composite_projection_to_starred_chain():
    d3 = WeylKind("D", 3)
    dm = build_multi(d3, 3)
    dst = build_dstar(3, 1, STAR_RATES["D"])
    proj = project_distribution(
        exact_stationary(dm),
        lambda w: star_lift(cut_coloring(w, (2,)), d3),
    )
    assert proj == exact_stationary(dst)


def test_full_lumping_suite():
    report = suite_lumping(n_max=4)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]


@pytest.mark.parametrize("family", FAMILIES)
def test_cut_chains_lump_from_the_full_chain(family):
    # every one- and two-cut chain up to rank 4 has one closed class and is
    # an exact lumping of the full chain; up to rank 3 it also carries the
    # full chain's law
    for n in range(2, 5):
        kind = WeylKind(family, n)
        big = build_multi(kind, n)
        pi = exact_stationary(big) if n <= 3 else None
        for cuts in itertools.chain(*(itertools.combinations(range(1, n + 2), r) for r in (1, 2))):
            small = build_cut_chain(kind, cuts)
            assert len(closed_classes(small)) == 1, (n, cuts)
            colour = lambda w, cuts=cuts: cut_coloring(w, cuts)
            assert verify_lumping(big, colour, small) is True, (n, cuts)
            if pi is not None:
                assert project_distribution(pi, colour) == exact_stationary(small), (n, cuts)
