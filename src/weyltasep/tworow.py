"""The two-row lattice model behind the starred two-species process.

A configuration is a pair of rows over {-1, 0, 1, "*"} subject to:

* 0 and "*" occur in the top row exactly where they occur in the bottom row
  (0-columns and *-columns);
* the first and last columns are 0- or *-columns, and *-columns appear
  nowhere else;
* balance: between consecutive 0-columns (and between the ends and their
  nearest 0-column) there are equally many (1/1)- and (-1/-1)-columns;
* positivity: every prefix contains at least as many (1/1)- as
  (-1/-1)-columns.

Reading (1/1) as an up-step, (-1/-1) as a down-step and the mixed columns
as level steps, each stretch between 0-columns is a nonnegative lattice
path returning to height zero.  The wall maps move a conserved {1, -1}
particle pair left or right along these paths; extended with a wall output
they form a bijection of (configurations x walls), which yields the
product-form stationary law computed by :func:`stationary`.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InvalidConfig,
    InvalidCounts,
    InvalidWall,
    NotIrreducible,
    ZeroParameter,
)
from .markov import Dist, Kernel, build_kernel
from .models import STAR, DStarParams
from .ratio import ONE, R, ZERO, exact_sum

Config = tuple[tuple, tuple]  # (top row, bottom row)

# Column symbols used by the enumerator: (top, bottom) pairs.
COL_ZERO = (0, 0)
COL_STAR = (STAR, STAR)
COL_UP = (1, 1)
COL_DOWN = (-1, -1)
COL_RISE = (-1, 1)  # level step, bottom particle positive
COL_FALL = (1, -1)  # level step, bottom particle negative
MID_COLS = (COL_ZERO, COL_UP, COL_DOWN, COL_RISE, COL_FALL)


def validate(c: Config) -> bool:
    """Whether the pair of rows is a valid configuration."""
    top, bot = c
    n = len(top)
    if n == 0 or len(bot) != n:
        return False
    height = 0
    for k in range(n):
        t, b = top[k], bot[k]
        if t == STAR or b == STAR:
            if (t, b) != COL_STAR or k not in (0, n - 1):
                return False
            continue
        if t == 0 or b == 0:
            if (t, b) != COL_ZERO or height != 0:
                return False
            continue
        if t not in (-1, 1) or b not in (-1, 1):
            return False
        if k in (0, n - 1):
            return False
        if (t, b) == COL_UP:
            height += 1
        elif (t, b) == COL_DOWN:
            height -= 1
            if height < 0:
                return False
    return height == 0


# Sort rank of a row entry: -1 < 0 < 1 < "*", the order of models.state_sort_key.
_RANK = {-1: -1, 0: 0, 1: 1, STAR: 2}


def _config_rank(c: Config) -> tuple:
    return tuple(map(_RANK.__getitem__, c[0] + c[1]))


def _columns(n: int, n0: int, pos: int, height: int, zeros: int):
    """The columns allowed at position pos, each with the height and 0-count after it.

    Choices that cannot return to height zero, or cannot place the
    remaining zeros, in the columns left are pruned.
    """
    left = n - pos - 1
    for col in (COL_ZERO, COL_STAR) if pos in (0, n - 1) else MID_COLS:
        nz, nh = zeros, height
        if col == COL_ZERO:
            if height != 0 or zeros == n0:
                continue
            nz += 1
        elif col == COL_UP:
            nh += 1
        elif col == COL_DOWN:
            if height == 0:
                continue
            nh -= 1
        if nh <= left and n0 - nz <= left:
            yield col, nh, nz


def _check_sizes(n: int, n0: int) -> None:
    if n < 1 or not 0 <= n0 <= n:
        raise InvalidCounts(f"bad sizes n={n}, n0={n0}")


@lru_cache(maxsize=None)
def enumerate_configs(n: int, n0: int) -> tuple[Config, ...]:
    """All valid configurations with n columns and n0 zero-columns.

    Sorted by top row, then bottom row, with "*" above 1.  The space is
    enumerated once per (n, n0) and shared, hence an immutable tuple.
    """
    _check_sizes(n, n0)
    out: list[Config] = []
    cols: list[tuple] = []

    def rec(pos: int, height: int, zeros: int):
        if pos == n:
            out.append(tuple(zip(*cols)))
            return
        for col, nh, nz in _columns(n, n0, pos, height, zeros):
            cols.append(col)
            rec(pos + 1, nh, nz)
            cols.pop()

    rec(0, 0, 0)
    out.sort(key=_config_rank)
    return tuple(out)


@dataclass(frozen=True)
class LabelCounts:
    n_y: int
    n_z: int
    n_ystar: int
    n_zstar: int


def label_counts(c: Config) -> LabelCounts:
    """Count the weight-carrying labels of a configuration.

    Scanning left to right with the lattice-path height: a bottom -1 on a
    level step at height zero is labelled z when it lies right of the
    rightmost 0-column and z' when left of the leftmost one (both when
    there are no 0-columns); a bottom 1 at height zero (level step or foot
    of an up-step) left of the leftmost 0-column is labelled y unless some
    z' lies to its left.  Star columns at the borders carry their own
    flags.  Columns inside an up/down matched stretch are never labelled.
    """
    if not validate(c):
        raise InvalidConfig(f"invalid configuration {c!r}")
    return _labels(c)


def _labels(c: Config) -> LabelCounts:
    """:func:`label_counts` of a configuration known to be valid."""
    top, bot = c
    n = len(top)
    zpos = [k for k in range(n) if top[k] == 0]
    leftmost0 = zpos[0] if zpos else None
    rightmost0 = zpos[-1] if zpos else None
    height = 0
    n_y = n_z = 0
    seen_zprime = False
    for k in range(n):
        col = (top[k], bot[k])
        if col in (COL_STAR, COL_ZERO):
            continue
        left_of_zeros = leftmost0 is None or k < leftmost0
        if col == COL_UP:
            if height == 0 and left_of_zeros and not seen_zprime:
                n_y += 1
            height += 1
        elif col == COL_DOWN:
            height -= 1
        elif col == COL_RISE:
            if height == 0 and left_of_zeros and not seen_zprime:
                n_y += 1
        else:  # COL_FALL
            if height == 0:
                if rightmost0 is None or k > rightmost0:
                    n_z += 1
                if left_of_zeros:
                    seen_zprime = True
    return LabelCounts(
        n_y, n_z, int(top[0] == STAR), int(top[-1] == STAR)
    )


def q_weight(c: Config, params: DStarParams):
    """Product of inverse boundary rates over the configuration's labels.

    A starred factor whose rate is zero is skipped (those configurations
    only arise inside the corresponding restricted class, where the flag
    is constant); a zero rate on a y or z label is an error.
    """
    return _label_weight(label_counts(c), params)


def _label_weight(lab: LabelCounts, params: DStarParams):
    q = ONE
    for count, rate, starred in (
        (lab.n_y, params.alpha, False),
        (lab.n_ystar, params.alpha_star, True),
        (lab.n_z, params.beta, False),
        (lab.n_zstar, params.beta_star, True),
    ):
        if count == 0:
            continue
        if rate == 0:
            if starred:
                continue
            raise ZeroParameter("zero rate on a labelled column")
        q = q / rate**count
    return q


def _j1(top, i: int) -> int:
    """Leftmost wall whose right-side run of top -1 entries reaches wall i-1."""
    w = i - 1
    while w - 1 >= 1 and top[w - 1] == -1:
        w -= 1
    return w


def _j2(top, i: int) -> int:
    """Rightmost wall whose left-side run of top 1 entries starts at wall i+1."""
    n = len(top)
    w = i + 1
    while w + 1 <= n - 1 and top[w] == 1:
        w += 1
    return w


def _left_insert(c: Config, remove: int, j1: int) -> Config:
    top = list(c[0])
    bot = list(c[1])
    top.pop(remove)
    bot.pop(remove)
    top.insert(j1, -1)
    bot.insert(j1, 1)
    return tuple(top), tuple(bot)


def _right_insert(c: Config, rm_top: int, rm_bot: int, j2: int) -> Config:
    blocker = c[0][j2]  # top entry just right of wall j2, in original indexing
    top = list(c[0])
    bot = list(c[1])
    top.pop(rm_top)
    bot.pop(rm_bot)
    top.insert(j2 - 1, 1)
    if blocker == -1:
        bot.insert(j2, -1)
    else:
        bot.insert(j2 - 1, -1)
    return tuple(top), tuple(bot)


def _apply(c: Config, i: int):
    """One wall map: returns (new config, rule name or None, output wall)."""
    top, bot = c
    n = len(top)
    if not 1 <= i <= n - 1:
        raise InvalidWall(f"wall {i} outside 1..{n - 1}")
    if n == 2:
        return c, None, i
    at, ab = top[i - 1], bot[i - 1]
    bt, bb = top[i], bot[i]
    if i == 1:
        if at == STAR and (bt, bb) == COL_RISE:
            j2 = _j2(top, i)
            return _right_insert(c, 1, 1, j2), "L1", j2
        if at == STAR and bt == 0:
            j2 = _j2(top, i)
            return _right_insert(c, 0, 0, j2), "L2", j2
        if at == 0 and (bt, bb) == COL_RISE:
            ntop, nbot = list(top), list(bot)
            ntop[0] = nbot[0] = STAR
            ntop[1] = nbot[1] = 0
            return (tuple(ntop), tuple(nbot)), "L3", 1
        return c, None, i
    if i == n - 1:
        if bt == STAR and (at, ab) == COL_FALL:
            j1 = _j1(top, i)
            return _left_insert(c, i - 1, j1), "R1", j1
        if bt == STAR and at == 0:
            j1 = _j1(top, i)
            return _left_insert(c, i, j1), "R2", j1
        if (at, ab) == COL_FALL and bt == 0:
            ntop, nbot = list(top), list(bot)
            ntop[i - 1] = nbot[i - 1] = 0
            ntop[i] = nbot[i] = STAR
            return (tuple(ntop), tuple(nbot)), "R3", n - 1
        return c, None, i
    if (bt, bb) == COL_RISE and (at == 1 or at == 0):
        j1 = _j1(top, i)
        return _left_insert(c, i, j1), "B1", j1
    if at == 1 and (bt, bb) == COL_DOWN:
        j2 = _j2(top, i)
        return _right_insert(c, i - 1, i, j2), "B2", j2
    if (at, ab) == COL_FALL and bt == 0:
        j2 = _j2(top, i)
        return _right_insert(c, i - 1, i - 1, j2), "B2", j2
    return c, None, i


def tstar(c: Config, i: int) -> Config:
    """The wall-i transition target (the configuration itself if no rule fires)."""
    if not validate(c):
        raise InvalidConfig(f"invalid configuration {c!r}")
    return _apply(c, i)[0]


def tstar_bar(c: Config, i: int) -> tuple[Config, int]:
    """The extended wall map (configuration, wall) -> (configuration, wall).

    This map is a bijection of the product space; the output wall depends
    on the rule that fired.
    """
    if not validate(c):
        raise InvalidConfig(f"invalid configuration {c!r}")
    c2, _, j = _apply(c, i)
    return c2, j


_RATE_KEY = {
    "B1": None,
    "B2": None,
    "L3": None,
    "R3": None,
    "L1": "alpha",
    "L2": "alpha_star",
    "R1": "beta",
    "R2": "beta_star",
}


def rate_of(rule: str | None, params: DStarParams):
    if rule is None:
        return ZERO
    key = _RATE_KEY[rule]
    return ONE if key is None else getattr(params, key)


def kernel(n: int, n0: int, params: DStarParams) -> Kernel:
    """The two-row chain: a uniform wall choice, then the wall map at its rate."""
    states = enumerate_configs(n, n0)
    if not states:
        raise InvalidCounts(f"empty configuration space n={n}, n0={n0}")
    edge = R(1, n - 1) if n >= 2 else ONE
    probs = {rule: edge * rate_of(rule, params) for rule in _RATE_KEY}

    def moves(c):
        for i in range(1, len(c[0])):
            c2, rule, _ = _apply(c, i)
            if rule is None or c2 == c:
                continue
            p = probs[rule]
            if p:
                yield c2, p

    return build_kernel(states, moves)


def _in_class(lab: LabelCounts, params: DStarParams) -> bool:
    """Whether the closed class holds the label vector: a zero starred rate needs that star."""
    return bool((lab.n_ystar or params.alpha_star) and (lab.n_zstar or params.beta_star))


def _class_weights(counts, params: DStarParams):
    """The weight q of each label vector of a histogram, and Z = sum of multiplicity x q."""
    weights = {lab: _label_weight(lab, params) for lab in counts}
    z = exact_sum(m * weights[lab] for lab, m in counts.items())
    return weights, z


def stationary(n: int, n0: int, params: DStarParams) -> tuple[Dist, object]:
    """Product-form stationary law and its normalizing constant.

    A configuration's weight is the label product of :func:`q_weight`, so
    it depends only on its :class:`LabelCounts`: the weight q and the
    probability q/Z are evaluated once per distinct label vector, and Z is
    the sum of q times the number of configurations carrying it.  When a
    starred rate vanishes the law lives on the class of configurations
    whose matching border is a *-column, and other configurations get
    probability zero.  A space of one configuration (n0 = n) is a single
    closed class whatever the rates: its law is the point mass, Z = 1.
    """
    configs = enumerate_configs(n, n0)
    labels = {c: _labels(c) for c in configs}
    if len(configs) != 1:
        labels = {c: lab for c, lab in labels.items() if _in_class(lab, params)}
    if not labels:
        raise NotIrreducible("no configurations in the restricted class")
    weights, z = _class_weights(Counter(labels.values()), params)
    law = {lab: w / z for lab, w in weights.items()}
    probs = dict.fromkeys(configs, ZERO)
    for c, lab in labels.items():
        probs[c] = law[lab]
    return Dist(probs), z


@lru_cache(maxsize=None)
def _label_histogram(n: int, n0: int) -> tuple[tuple[LabelCounts, int], ...]:
    """Each label vector of the (n, n0) space with the number of configurations carrying it.

    A transfer over the columns of :func:`_columns` that counts partial
    configurations per state of the :func:`_labels` scan: height, zeros,
    0-column seen, z' seen (dropped after a 0-column), n_y, falls at height
    zero since the last 0-column (n_z at the end), the border star flags.
    """
    _check_sizes(n, n0)
    states = {(0, 0, False, False, 0, 0, False, False): 1}
    for pos in range(n):
        nxt: dict = {}
        for (h, zeros, seen0, zprime, ny, falls, left, right), m in states.items():
            for col, nh, nz in _columns(n, n0, pos, h, zeros):
                if col == COL_ZERO:
                    key = (nh, nz, True, False, ny, 0, left, right)
                elif col == COL_STAR:
                    key = (nh, nz, seen0, zprime, ny, falls, left or pos == 0, pos == n - 1)
                elif h:  # inside a matched up/down stretch: no label
                    key = (nh, nz, seen0, zprime, ny, falls, left, right)
                elif col == COL_FALL:
                    key = (nh, nz, seen0, zprime or not seen0, ny, falls + 1, left, right)
                else:  # an up-step or a rise on the axis: y left of every 0-column and z'
                    key = (nh, nz, seen0, zprime, ny + (not seen0 and not zprime), falls,
                           left, right)
                nxt[key] = nxt.get(key, 0) + m
        states = nxt
    hist: dict = {}
    for (_, _, _, _, ny, falls, left, right), m in states.items():
        lab = LabelCounts(ny, falls, int(left), int(right))
        hist[lab] = hist.get(lab, 0) + m
    return tuple(hist.items())


def partition_sum(n: int, n0: int, params: DStarParams):
    """The normalizing constant Z of :func:`stationary`, without listing configurations.

    Z sums multiplicity x q over :func:`_label_histogram`, restricted to the
    closed class as in :func:`stationary`.
    """
    hist = dict(_label_histogram(n, n0))
    if sum(hist.values()) != 1:
        hist = {lab: m for lab, m in hist.items() if _in_class(lab, params)}
    if not hist:
        raise NotIrreducible("no configurations in the restricted class")
    return _class_weights(hist, params)[1]


def project_top_row(dist: Dist) -> Dist:
    """Push a configuration law to its top rows (the starred process states)."""
    probs: dict = {}
    for c, p in dist.items():
        probs[c[0]] = probs.get(c[0], ZERO) + p
    return Dist(probs)


@lru_cache(maxsize=None)
def count_segment(k: int, n0: int) -> int:
    """Number of star-free k-column stretches with n0 zero-columns.

    Counted by the same recursion that the enumerator uses (heights stay
    nonnegative, return to zero at every 0-column and at the end); the
    closed ballot form is checked against this count in the tests.
    """
    if k < 0 or n0 < 0 or n0 > k:
        raise InvalidCounts(f"bad segment sizes k={k}, n0={n0}")

    @lru_cache(maxsize=None)
    def ways(pos: int, height: int, zeros: int) -> int:
        if pos == k:
            return int(height == 0 and zeros == n0)
        total = 0
        if height == 0 and zeros < n0:
            total += ways(pos + 1, 0, zeros + 1)
        total += ways(pos + 1, height + 1, zeros)  # up
        if height > 0:
            total += ways(pos + 1, height - 1, zeros)  # down
        total += 2 * ways(pos + 1, height, zeros)  # two level colors
        return total

    return ways(0, 0, 0)
