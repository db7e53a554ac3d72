import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyltasep import closedform, models, walk
from weyltasep.errors import InvalidRank
from weyltasep.weyl import (
    WeylKind,
    alcove_walls,
    inverse_act_theta,
    kac_weights,
    reflect,
    reflection,
    root_data,
    theta_raises,
)

from oracles import (
    act, apply_generator, bfs_word_lengths, dense_roots, inverse, length, signed_permutations,
    wprod
)

B = lambda n: WeylKind("B", n)
C = lambda n: WeylKind("C", n)
D = lambda n: WeylKind("D", n)
CCHECK = lambda n: WeylKind("Ccheck", n)


def test_kind_validation():
    with pytest.raises(InvalidRank):
        WeylKind("D", 1)
    with pytest.raises(InvalidRank):
        WeylKind("B", 0)
    with pytest.raises(InvalidRank):
        WeylKind("E", 6)


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the rank check")


# The four calls that still take a rank beside the kind, each with the first
# work it would do: a different rank raises before it.
ECHOES = {
    "run_walk": (lambda: walk.run_walk(WeylKind("B", 3), 5, 100, 1), [(walk, "_walk_tables")]),
    "estimate_direction": (
        lambda: walk.estimate_direction(WeylKind("B", 3), 2, 100, 2, processes=2),
        [(walk, "_walk_tables"), (os, "fork")]),
    "build_multi": (lambda: models.build_multi(WeylKind("B", 3), 2),
                    [(models, "build_cut_chain")]),
    "limdir_closed": (lambda: closedform.limdir_closed(WeylKind("D", 3), 2),
                      [(closedform, "DirectionVector")]),
}


@pytest.mark.parametrize("name", ECHOES)
def test_a_second_rank_must_be_the_kinds(monkeypatch, name):
    call, work = ECHOES[name]
    for module, attr in work:
        monkeypatch.setattr(module, attr, _no_work)
    with pytest.raises(InvalidRank, match=r"^n = \d is not the rank of [BD]3$"):
        call()


def test_root_data_examples():
    assert root_data(B(2)).theta == (0, 1, 1, 1)  # e1 + e2
    c1 = root_data(C(1))
    assert c1.positive_roots == ((0, 2, 0, 0),) and c1.theta == (0, 2, 0, 0)  # 2e1
    assert root_data(D(3)).simple_roots[0] == (0, 1, 1, 1)
    # brute enumeration: pairs +-e_i +- e_j with i < j
    count = sum(1 for _ in itertools.combinations(range(3), 2)) * 2
    assert len(root_data(D(3)).positive_roots) == count == 6


def test_simple_roots_are_positive():
    for kind in (B(3), C(3), D(3), B(1), C(2), D(4)):
        rs = root_data(kind)
        for alpha in rs.simple_roots:
            assert alpha in rs.positive_roots
        assert rs.theta in rs.positive_roots


@pytest.mark.parametrize("family", ["B", "C", "Bcheck", "Ccheck", "D"])
def test_dense_roots_are_the_pairings_expanded(family):
    def expand(alpha, n):
        i0, c0, i1, c1 = alpha
        v = [0] * n
        v[i0] += c0
        v[i1] += c1
        return tuple(v)

    for n in range(2 if family == "D" else 1, 13):
        kind = WeylKind(family, n)
        rs, dense = root_data(kind), dense_roots(kind)
        assert tuple(expand(a, n) for a in rs.positive_roots) == dense.positive_roots
        assert tuple(expand(a, n) for a in rs.simple_roots) == dense.simple_roots
        assert expand(rs.theta, n) == dense.theta


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        (B, 4, (2, 2, 2, 1, 1)),
        (CCHECK, 3, (1, 1, 1, 1)),
        (D, 3, (1, 1, 1, 1)),
        (C, 3, (1, 2, 2, 1)),
        (D, 5, (1, 1, 2, 2, 1, 1)),
    ],
)
def test_kac_weights(kind, n, expected):
    kw = kac_weights(kind(n))
    assert kw.weights == expected
    assert kw.total == sum(expected)


def test_kac_weights_decompose_theta():
    # the highest root equals the weighted sum of simple roots
    for kind in (B(3), B(4), C(2), C(4), D(3), D(4), D(5)):
        rs = dense_roots(kind)
        a = kac_weights(kind).weights
        vec = [0] * kind.n
        for coeff, alpha in zip(a, rs.simple_roots):
            for i, c in enumerate(alpha):
                vec[i] += coeff * c
        assert tuple(vec) == rs.theta


def test_act_examples():
    assert act((1, 2, 3), (5, 7, 11)) == (5, 7, 11)
    assert act((-1,), (1,)) == (-1,)
    assert act((2, 1), (1, 0)) == (0, 1)
    with pytest.raises(ValueError):
        act((1, 2), (1, 0, 0))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_act_composition(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    perms = list(signed_permutations(n))
    a, b = rng.choice(perms), rng.choice(perms)
    v = tuple(rng.randint(-4, 4) for _ in range(n))
    assert act(wprod(a, b), v) == act(a, act(b, v))
    assert act(wprod(a, inverse(a)), v) == v


def test_inverse_act_theta():
    assert inverse_act_theta((1, 2, 3), B(3)) == (0, 1, 1)
    assert inverse_act_theta((1, -3, 2), B(3)) == (0, 1, -1)
    assert inverse_act_theta((2, 1), C(2)) == (2, 0)


def test_inverse_act_theta_vs_action():
    for kind in (B(3), C(3), D(3)):
        theta = dense_roots(kind).theta
        for w in signed_permutations(3, even_only=kind.family == "D"):
            assert inverse_act_theta(w, kind) == act(inverse(w), theta)


def test_apply_generator_examples():
    def wall(kind, g):
        return alcove_walls(kind)[g]

    assert reflect((1, 2), wall(B(2), 1)) == (2, 1)
    assert reflect((1, 2), wall(B(2), 0)) == (-1, 2)
    assert reflect((1, 2, 3), wall(B(3), 3)) == (1, -3, -2)
    assert reflect((1, 2), wall(C(2), 2)) == (1, -2)
    assert reflect((1, 2, 3), wall(D(3), 0)) == (-2, -1, 3)


def test_reflection_reads_the_wall_pairing():
    # a one-term wall negates its entry, whatever its coefficient
    assert reflection((2, 2, 0, 0)) == reflection((2, -1, 0, 0)) == (2, 2, -1)
    # e_j - e_i swaps two entries, e_i + e_j swaps and negates them
    assert reflection((0, -1, 1, 1)) == reflection((0, 1, 1, -1)) == (0, 1, 1)
    assert reflection((0, 1, 1, 1)) == reflection((0, -1, 1, -1)) == (0, 1, -1)


@pytest.mark.parametrize("family", ["B", "C", "Bcheck", "Ccheck", "D"])
def test_reflect_matches_the_generator_branches(family):
    for n in range(2 if family == "D" else 1, 6):
        kind = WeylKind(family, n)
        walls = alcove_walls(kind)
        for w in signed_permutations(n):
            for g, wall in enumerate(walls):
                assert reflect(w, wall) == apply_generator(w, g, kind)


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_generators_are_involutions(family):
    for n in range(2 if family == "D" else 1, 5):
        walls = alcove_walls(WeylKind(family, n))
        for w in signed_permutations(n, even_only=family == "D"):
            for wall in walls:
                assert reflect(reflect(w, wall), wall) == w


def test_d_generators_preserve_parity():
    for n in (2, 3, 4):
        walls = alcove_walls(D(n))
        for w in signed_permutations(n, even_only=True):
            for wall in walls:
                v = reflect(w, wall)
                assert sum(1 for x in v if x < 0) % 2 == 0


def test_length_examples():
    assert length((1, 2, 3), B(3)) == 0
    assert length((-1,), B(1)) == 1
    assert length((2, 1), C(2)) == 1


@pytest.mark.parametrize("family,nmax", [("B", 3), ("C", 3), ("D", 4)])
def test_length_matches_word_length(family, nmax):
    for n in range(2 if family == "D" else 1, nmax + 1):
        kind = WeylKind(family, n)
        words = bfs_word_lengths(kind)
        for w, expected in words.items():
            assert length(w, kind) == expected


def test_length_word_length_rank4_spotcheck():
    kind = B(4)
    words = bfs_word_lengths(kind)
    rng = random.Random(1)
    sample = rng.sample(sorted(words), 60)
    for w in sample:
        assert length(w, kind) == words[w]


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_simple_generators_change_length_by_one(family):
    for n in range(2 if family == "D" else 1, 4):
        kind = WeylKind(family, n)
        for w in signed_permutations(n, even_only=family == "D"):
            lw = length(w, kind)
            for g in range(n):
                assert abs(length(apply_generator(w, g, kind), kind) - lw) == 1


def test_theta_raises_examples():
    assert theta_raises((1, 2), B(2)) is True
    assert theta_raises((1, -2), B(2)) is False
    assert theta_raises((-1, 2), B(2)) is True


@pytest.mark.parametrize("family", ["B", "C", "Ccheck", "D"])
def test_theta_raises_matches_length(family):
    for n in range(2 if family == "D" else 1, 5):
        kind = WeylKind(family, n)
        for w in signed_permutations(n, even_only=family == "D"):
            by_length = length(apply_generator(w, n, kind), kind) > length(w, kind)
            assert theta_raises(w, kind) == by_length
