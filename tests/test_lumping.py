from hypothesis import given, settings
from hypothesis import strategies as st

from weyltasep.lumping import (
    k_coloring,
    project_distribution,
    star_collapse,
    verify_lumping,
)
from weyltasep.markov import Dist, Kernel, communicating_classes, exact_stationary
from weyltasep.models import DStarParams, STAR, build_dstar, build_multi, build_two_species
from weyltasep.ratio import R
from weyltasep.verify import suite_lumping
from weyltasep.weyl import WeylKind, signed_permutations


def test_k_coloring_examples():
    assert k_coloring((1, 2, 3), 1) == (1, 1, 1)
    assert k_coloring((2, -3, 1), 2) == (1, -1, 0)
    assert k_coloring((-1, 2), 2) == (0, 1)


@given(st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_k_coloring_zero_count(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 6)
    w = rng.choice(list(signed_permutations(n)))
    k = rng.randint(1, n)
    image = k_coloring(w, k)
    assert image.count(0) == k - 1
    assert all(x in (-1, 0, 1) for x in image)


def test_star_collapse_examples():
    assert star_collapse((1, 0, -1), "last_site") == (STAR, 1, 0, STAR)
    assert star_collapse((0, 1, 0), "both_ends") == (0, 1, 0)
    assert star_collapse((-1, 0, 1), "both_ends") == (STAR, 0, STAR)


def test_verify_lumping_identity_map():
    ker = build_two_species(WeylKind("B", 3), 3, 1)
    rep = verify_lumping(ker, lambda s: s, ker)
    assert rep.passed and rep.violations == []
    assert rep.to_json_obj() == {"pass": True, "violations": []}


# The B and Ccheck two-species chains at n = 3, n0 = 1 under the identity map:
# (state, target, aggregated, small) per violation, in report order.
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
    big = build_two_species(WeylKind("B", 3), 3, 1)
    small = build_two_species(WeylKind("Ccheck", 3), 3, 1)
    rep = verify_lumping(big, lambda s: s, small)
    assert not rep.passed and rep.violations
    assert rep.violations == [
        {"kind": "row-mismatch", "state": s, "image": s, "target": t,
         "aggregated": agg, "small": sm}
        for s, t, agg, sm in B_VS_CCHECK_VIOLATIONS
    ]


def test_verify_lumping_image_mismatch():
    big = build_two_species(WeylKind("B", 3), 3, 1)
    rep = verify_lumping(big, lambda s: "b", Kernel(("a",), ({0: 1},)))
    assert rep.to_json_obj() == {
        "pass": False,
        "violations": [{"kind": "image-mismatch", "extra": ["'b'"], "missing": ["'a'"]}],
    }


def test_multi_to_two_species_lumping_rank3():
    big = build_multi(WeylKind("B", 3), 3)
    small = build_two_species(WeylKind("B", 3), 3, 1)
    rep = verify_lumping(big, lambda w: k_coloring(w, 2), small)
    assert rep.passed


def test_two_species_into_starred_chain():
    bb = build_two_species(WeylKind("B", 3), 3, 1)
    dst = build_dstar(4, 1, DStarParams(1, 0, R(1, 2), R(1, 2)))
    closed = [c for c in communicating_classes(dst) if c.closed]
    sub = dst.restrict(closed[0].states)
    rep = verify_lumping(bb, lambda w: star_collapse(w, "last_site"), sub)
    assert rep.passed


def test_project_point_mass():
    d = Dist({(1, 2): R(1)})
    assert project_distribution(d, lambda s: "x") == Dist({"x": R(1)})


def test_projection_matches_small_stationary():
    big = build_multi(WeylKind("Ccheck", 3), 3)
    small = build_two_species(WeylKind("Ccheck", 3), 3, 1)
    proj = project_distribution(exact_stationary(big), lambda w: k_coloring(w, 2))
    assert proj == exact_stationary(small)


def test_composite_projection_to_starred_chain():
    dm = build_multi(WeylKind("D", 3), 3)
    dst = build_dstar(3, 1, DStarParams(R(1, 2), R(1, 2), R(1, 2), R(1, 2)))
    proj = project_distribution(
        exact_stationary(dm),
        lambda w: star_collapse(k_coloring(w, 2), "both_ends"),
    )
    assert proj == exact_stationary(dst)


def test_full_lumping_suite():
    report = suite_lumping(n_max=4)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]
