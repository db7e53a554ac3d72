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
product-form stationary law computed by :func:`stationary`, and its top
rows the starred chain's law (:func:`top_row_law`).  :func:`kernel` and
``models.build_dstar`` carry these laws as candidates, so the solver
certifies them instead of eliminating.  The maps are tabulated once per
(n, n0), shared by :func:`kernel` and the checks.

Each rule is written once: the scan step (:func:`_scan`, over the column
set of each position) says which columns may follow and how they are
labelled, :func:`_class_weights` holds the closed class for the law and Z
(weights as integer numerators over one denominator, summed over label
histograms counted by one transfer per width), and the insert helpers find
the wall where a moved pair lands.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    InvalidConfig,
    InvalidCounts,
    InvalidWall,
    NotIrreducible,
    ZeroParameter,
)
from .markov import Dist, Kernel, build_kernel
from .models import STAR, DStarParams, state_sort_key
from .ratio import ONE, R, ZERO, inverse_powers

Config = tuple[tuple, tuple]  # (top row, bottom row)

# Column symbols used by the enumerator: (top, bottom) pairs.
COL_ZERO = (0, 0)
COL_STAR = (STAR, STAR)
COL_UP = (1, 1)
COL_DOWN = (-1, -1)
COL_RISE = (-1, 1)  # level step, bottom particle positive
COL_FALL = (1, -1)  # level step, bottom particle negative
BORDER_COLS = (COL_ZERO, COL_STAR)
MID_COLS = (COL_ZERO, COL_UP, COL_DOWN, COL_RISE, COL_FALL)


def _columns(pos: int, n: int) -> tuple:
    """The columns that position pos of n may hold: 0/* at the borders, the rest inside."""
    return BORDER_COLS if pos in (0, n - 1) else MID_COLS


class LabelCounts(NamedTuple):
    """The label counts of a configuration, also the exponents of its inverse rates."""

    n_y: int
    n_z: int
    n_ystar: int
    n_zstar: int


# Scan state before the first column: height, zeros, 0-column seen, z' seen,
# n_y, falls at height zero since the last 0-column, left and right star.
_START = (0, 0, False, False, 0, 0, False, False)


def _scan(state: tuple, col: tuple, pos: int, n: int) -> tuple | None:
    """The scan state after column col at position pos of n: the column and label rule.

    None when the column cannot follow: a 0-column above the axis, or a
    down-step on it.  Scanning left to right with the lattice-path height:
    a fall at height zero is labelled z when no 0-column lies right of it
    (the falls since the last 0-column) and z' when none lies left of it; an
    up-step or a rise at height zero is labelled y when neither a 0-column
    nor a z' lies left of it.  Star columns at the borders set their own
    flags.  Columns inside an up/down matched stretch are never labelled.
    """
    height, zeros, seen0, zprime, ny, falls, left, right = state
    if col == COL_ZERO:
        return None if height else (0, zeros + 1, True, False, ny, 0, left, right)
    if col == COL_STAR:
        return height, zeros, seen0, zprime, ny, falls, left or pos == 0, pos == n - 1
    if height:
        height += (col == COL_UP) - (col == COL_DOWN)
        return height, zeros, seen0, zprime, ny, falls, left, right
    if col == COL_DOWN:
        return None
    if col == COL_FALL:
        return 0, zeros, seen0, zprime or not seen0, ny, falls + 1, left, right
    # an up-step or a rise on the axis
    ny += not (seen0 or zprime)
    return int(col == COL_UP), zeros, seen0, zprime, ny, falls, left, right


def _label_vector(state: tuple) -> LabelCounts:
    return LabelCounts(state[4], state[5], int(state[6]), int(state[7]))


def _scan_config(c: Config) -> tuple | None:
    """The final scan state of a pair of rows, or None when it is not a configuration."""
    top, bot = c
    n = len(top)
    if n == 0 or len(bot) != n:
        return None
    state = _START
    for pos, col in enumerate(zip(top, bot)):
        if col not in _columns(pos, n) or (state := _scan(state, col, pos, n)) is None:
            return None
    return None if state[0] else state


def validate(c: Config) -> bool:
    """Whether the pair of rows is a valid configuration."""
    return _scan_config(c) is not None


def _transfer(n: int, n0: int | None, start, grow) -> dict:
    """Every column sequence of the (n, n0) space, walked one column at a time.

    ``start`` is the value of the empty prefix and ``grow(value, col)`` the
    value of the prefixes extended by a column; values of prefixes that
    reach the same scan state are added up.  Returns the value per final
    scan state.  Columns that cannot return to height zero in the columns
    left are dropped; with n0 given, so are those past the n0 zeros or that
    cannot place the remaining zeros.  n0=None walks every zero count at
    once (state[1]), keeping each n0's states in its own walk's order,
    since every prefix of a viable state is viable.
    """
    if n < 1 or n0 is not None and not 0 <= n0 <= n:
        raise InvalidCounts(f"bad sizes n={n}, n0={n0}")
    values = {_START: start}
    for pos in range(n):
        left, cols = n - pos - 1, _columns(pos, n)
        nxt: dict = {}
        for state, value in values.items():
            for col in cols:
                after = _scan(state, col, pos, n)
                if after is None or after[0] > left or (
                        n0 is not None and not 0 <= n0 - after[1] <= left):
                    continue
                grown = grow(value, col)
                if after in nxt:
                    nxt[after] += grown
                else:
                    nxt[after] = grown
        values = nxt
    return values


@lru_cache(maxsize=None)
def _space(n: int, n0: int) -> tuple[tuple[Config, ...], tuple[LabelCounts, ...]]:
    """The configurations of :func:`enumerate_configs` and, aligned, their label vectors."""
    finals = _transfer(n, n0, [()], lambda prefixes, col: [p + (col,) for p in prefixes])
    out = []
    for state, prefixes in finals.items():
        lab = _label_vector(state)
        out += [(tuple(zip(*cols)), lab) for cols in prefixes]
    out.sort(key=lambda item: state_sort_key(item[0][0] + item[0][1]))
    return tuple(c for c, _ in out), tuple(lab for _, lab in out)


def enumerate_configs(n: int, n0: int) -> tuple[Config, ...]:
    """All valid configurations with n columns and n0 zero-columns.

    Sorted by top row, then bottom row, with "*" above 1.  The space is
    enumerated once per (n, n0) and shared, hence an immutable tuple.
    """
    return _space(n, n0)[0]


def label_counts(c: Config) -> LabelCounts:
    """Count the weight-carrying labels of a configuration, by the scan of :func:`_scan`."""
    state = _scan_config(c)
    if state is None:
        raise InvalidConfig(f"invalid configuration {c!r}")
    return _label_vector(state)


def _label_powers(labs, params: DStarParams) -> tuple[dict, int]:
    """The weight of each label vector as nums[lab] / L over one integer L.

    A starred factor whose rate is zero is skipped (those configurations
    only arise inside the corresponding restricted class, where the flag
    is constant); a zero rate on a y or z label is an error.
    """
    rates = (params.alpha, params.beta, params.alpha_star or ONE, params.beta_star or ONE)
    try:
        return inverse_powers(labs, rates)
    except ZeroDivisionError:
        raise ZeroParameter("zero rate on a labelled column") from None


def q_weight(lab: LabelCounts, params: DStarParams):
    """Product of inverse boundary rates over a label vector, by :func:`_label_powers`."""
    nums, den = _label_powers((lab,), params)
    return R(nums[lab], den)


def _left_insert(c: Config, i: int, remove: int, rule: str):
    """Column remove out and a (-1/1) column in at wall j1: (config, rule, j1).

    j1 is the leftmost wall whose right-side run of top -1 entries reaches wall i-1.
    """
    top, bot = list(c[0]), list(c[1])
    j1 = i - 1
    while j1 > 1 and top[j1 - 1] == -1:
        j1 -= 1
    top.pop(remove)
    bot.pop(remove)
    top.insert(j1, -1)
    bot.insert(j1, 1)
    return (tuple(top), tuple(bot)), rule, j1


def _right_insert(c: Config, i: int, rm_top: int, rm_bot: int, rule: str):
    """A top 1 and a bottom -1 taken out and put back at wall j2: (config, rule, j2).

    j2 is the rightmost wall whose left-side run of top 1 entries starts at
    wall i+1; the bottom -1 goes right of the wall when a top -1 blocks it.
    """
    top, bot = list(c[0]), list(c[1])
    j2 = i + 1
    while j2 < len(top) - 1 and top[j2] == 1:
        j2 += 1
    blocked = top[j2] == -1
    top.pop(rm_top)
    bot.pop(rm_bot)
    top.insert(j2 - 1, 1)
    bot.insert(j2 if blocked else j2 - 1, -1)
    return (tuple(top), tuple(bot)), rule, j2


def _replace_pair(c: Config, i: int, left: tuple, right: tuple, rule: str):
    """Columns i-1 and i set to left and right, the wall staying i: (config, rule, i)."""
    top, bot = c
    return ((top[:i - 1] + (left[0], right[0]) + top[i + 1:],
             bot[:i - 1] + (left[1], right[1]) + bot[i + 1:]), rule, i)


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
            return _right_insert(c, i, 1, 1, "L1")
        if at == STAR and bt == 0:
            return _right_insert(c, i, 0, 0, "L2")
        if at == 0 and (bt, bb) == COL_RISE:
            return _replace_pair(c, i, COL_STAR, COL_ZERO, "L3")
        return c, None, i
    if i == n - 1:
        if bt == STAR and (at, ab) == COL_FALL:
            return _left_insert(c, i, i - 1, "R1")
        if bt == STAR and at == 0:
            return _left_insert(c, i, i, "R2")
        if (at, ab) == COL_FALL and bt == 0:
            return _replace_pair(c, i, COL_ZERO, COL_STAR, "R3")
        return c, None, i
    if (bt, bb) == COL_RISE and (at == 1 or at == 0):
        return _left_insert(c, i, i, "B1")
    if at == 1 and (bt, bb) == COL_DOWN:
        return _right_insert(c, i, i - 1, i, "B2")
    if (at, ab) == COL_FALL and bt == 0:
        return _right_insert(c, i, i - 1, i - 1, "B2")
    return c, None, i


def tstar_bar(c: Config, i: int) -> tuple[Config, int]:
    """The extended wall map (configuration, wall) -> (configuration, wall).

    This map is a bijection of the product space; the output wall depends
    on the rule that fired.  Its configuration part is the paper's map T*_i,
    the wall-i transition target (the configuration itself if no rule
    fires); :func:`kernel` moves by its table, and the tests solve that
    kernel exactly against :func:`stationary`.
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


@lru_cache(maxsize=None)
def _wall_maps(n: int, n0: int) -> tuple[tuple[tuple[int, str | None, int], ...], ...]:
    """Each wall map of the (n, n0) space as (target index, rule or None, output wall).

    Row k lists walls 1..n-1 of configuration k of :func:`enumerate_configs`.
    """
    configs = enumerate_configs(n, n0)
    index = {c: k for k, c in enumerate(configs)}
    maps = []
    for k, c in enumerate(configs):
        row = []
        for i in range(1, n):
            c2, rule, j = _apply(c, i)
            row.append((k if rule is None else index[c2], rule, j))
        maps.append(tuple(row))
    return tuple(maps)


def kernel(n: int, n0: int, params: DStarParams) -> Kernel:
    """The two-row chain: a uniform wall choice, then the wall map at its rate.

    Its candidate law is the product form of :func:`stationary`.
    """
    states = enumerate_configs(n, n0)
    if not states:
        raise InvalidCounts(f"empty configuration space n={n}, n0={n0}")
    edge = R(1, n - 1) if n >= 2 else ONE
    probs = [edge * rate_of(rule, params) for rule in _RATE_KEY]
    edge_of = {rule: e for e, rule in enumerate(_RATE_KEY)}
    maps = _wall_maps(n, n0)

    def moves(k):  # a wall with no rule maps configuration k to itself
        return [(t, edge_of[rule]) for t, rule, _ in maps[k] if t != k]

    return build_kernel(states, moves, probs, lambda: stationary(n, n0, params)[0])


def _in_class(lab: LabelCounts, params: DStarParams) -> bool:
    """Whether the closed class holds the label vector: a zero starred rate needs that star."""
    return bool((lab.n_ystar or params.alpha_star) and (lab.n_zstar or params.beta_star))


def _class_weights(hist: dict, params: DStarParams) -> tuple[dict, int, int]:
    """(nums, L, total): q = nums[lab] / L on the closed class, Z = total / L.

    hist maps each label vector of a space to its number of configurations.
    A space of one configuration is its own class; otherwise the class is
    the label vectors of :func:`_in_class`, and an empty class raises.
    """
    if sum(hist.values()) != 1:
        hist = {lab: m for lab, m in hist.items() if _in_class(lab, params)}
    if not hist:
        raise NotIrreducible("no configurations in the restricted class")
    nums, den = _label_powers(hist, params)
    return nums, den, sum(m * nums[lab] for lab, m in hist.items())


def stationary(n: int, n0: int, params: DStarParams) -> tuple[Dist, object]:
    """Product-form stationary law and its normalizing constant.

    A configuration's weight is the label product of :func:`q_weight`, so
    it depends only on its :class:`LabelCounts`: the probability q/Z is
    built once per distinct label vector, as an integer numerator over the
    integer total of :func:`_class_weights`.  When a starred rate vanishes
    the law lives on the class of configurations whose matching border is
    a *-column, and other configurations get probability zero.  A space of
    one configuration (n0 = n) is a single closed class whatever the rates:
    its law is the point mass, Z = 1.
    """
    configs, labels = _space(n, n0)
    nums, den, total = _class_weights(Counter(labels), params)
    law = {lab: R(a, total) for lab, a in nums.items()}
    return Dist({c: law.get(lab, ZERO) for c, lab in zip(configs, labels)}), R(total, den)


def top_row_law(n: int, n0: int, params: DStarParams) -> Dist:
    """The top-row law of :func:`stationary`: the starred chain's law on n sites, n0 zeros.

    Each top row gets the integer numerators of its configurations, over
    the closed class and the total of :func:`_class_weights`, added up
    before one Fraction is built; it equals
    ``lumping.project_distribution(stationary(n, n0, params)[0], itemgetter(0))``.
    """
    configs, labels = _space(n, n0)
    nums, _, total = _class_weights(Counter(labels), params)
    tops: dict = {}
    get = tops.get
    for (top, _), lab in zip(configs, labels):
        tops[top] = get(top, 0) + nums.get(lab, 0)
    return Dist({top: R(a, total) for top, a in tops.items()})


@lru_cache(maxsize=None)
def _label_histograms(n: int) -> tuple[tuple[tuple[LabelCounts, int], ...], ...]:
    """The label histogram of every (n, n0) space, indexed by n0.

    The counting use of :func:`_transfer`, once per width over every zero
    count: partial configurations are counted per scan state, and no
    configuration is listed.
    """
    hists: list[dict] = [{} for _ in range(n + 1)]
    for state, m in _transfer(n, None, 1, lambda m, col: m).items():
        hist, lab = hists[state[1]], _label_vector(state)
        hist[lab] = hist.get(lab, 0) + m
    return tuple(tuple(hist.items()) for hist in hists)


def _label_histogram(n: int, n0: int) -> tuple[tuple[LabelCounts, int], ...]:
    """Each label vector of the (n, n0) space with the number of configurations carrying it."""
    if n < 1 or not 0 <= n0 <= n:
        raise InvalidCounts(f"bad sizes n={n}, n0={n0}")
    return _label_histograms(n)[n0]


def partition_sum(n: int, n0: int, params: DStarParams):
    """The normalizing constant Z of :func:`stationary`, without listing configurations.

    Z sums multiplicity x q over :func:`_label_histogram`, restricted to the
    closed class as in :func:`stationary`.
    """
    _, den, total = _class_weights(dict(_label_histogram(n, n0)), params)
    return R(total, den)


@lru_cache(maxsize=None)
def count_segment(k: int, n0: int) -> int:
    """Number of star-free k-column stretches with n0 zero-columns.

    Counted by its own recursion over the columns (heights stay
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
