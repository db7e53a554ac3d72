"""Exact finite Markov chains: sparse kernels, the closed class, stationary laws.

A kernel stores each row as positive integers over one denominator `den`,
the holding mass included, summing to den.  A law is solved for only on a
kernel with exactly one closed communicating class (:func:`closed_class`),
and transient states get probability zero.

A caller that knows a candidate law (a product form, say) passes it as a
guess.  The guess is certified, never trusted: it is returned only when it
passes the exact certificate below on the kernel passed in, and that law is
the only one that can pass it, since one closed class leaves one invariant
vector up to scale.  A certified guess skips the lumping and every
elimination pass; a guess that fails costs the certificate and nothing else.

Otherwise the solver lumps the class first: splitter refinement finds its
coarsest exactly lumpable partition, in which every state of a block gets
the same column sum from every block, and the quotient (or the class
itself, when the partition is discrete) is the one target solved.  The elimination is
the subtraction-free scheme of Grassmann, Taksar and Heyman with a
fill-reducing order, written once for any number type.  It runs first in
floats, whose small relative error lets the target's exact law be read off
by building up a common denominator from the smallest entries; when that
fails it runs in `decimal` at 32, 64, 128, ... digits, up to the rung at
which the Markov chain tree theorem says the reading cannot miss, and past
that it raises.  The law read off is split evenly over each block, which
is the stationary law of an exact lumping (Buchholz 1994), and returned
only after it passes the exact certificate on the kernel passed in: it
sums to 1 and pi . P = pi over the rationals.  So a lumping can cost time
but cannot make a law wrong.  At rank 4 every B/C/D cut chain of more
than one state lumps, by 1.1 to 8 times (the full chains by 2, D's by 8);
the two-row kernels at generic rates mostly stay discrete.

The bookkeeping around the solver is exact but avoids one Fraction
operation per entry: a kernel built from moves adds integer edge weights
over one denominator, the sum of a law adds integer numerators per
denominator (:func:`weyltasep.ratio.exact_sum`), and the certificate
scales pi to integers and reads the kernel's integer rows as they are.
"""
from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from math import floor, inf, isqrt, lcm, prod
from sys import float_info
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import InvalidRates, NotIrreducible
from .ratio import R, ZERO, exact_sum, fmt_ratio

State = Hashable


def _rational(p) -> R:
    """p as a Fraction; a Fraction is returned as it is, not converted again."""
    return p if isinstance(p, R) else R(p)


def _index(states: tuple) -> dict:
    """State -> position; raises ValueError when a state repeats."""
    index = {s: i for i, s in enumerate(states)}
    if len(index) != len(states):
        raise ValueError("duplicate states")
    return index


class Kernel:
    """A finite row-stochastic matrix over exact rationals, as integers over one denominator.

    rows[i] maps column j to a positive integer, entry (i, j) is
    rows[i][j] / den, and every row sums to den.  Given rows of anything
    Fraction accepts, zero entries are dropped, den is the lcm of the
    entries' denominators, and every entry must lie in [0, 1] and every
    row must sum to 1 exactly.
    """

    def __init__(self, states: Sequence[State], rows: Sequence[Mapping[int, object]]):
        self.states = tuple(states)
        self.index = _index(self.states)
        rows = [{j: p for j, p in zip(row, map(_rational, row.values())) if p} for row in rows]
        den = self.den = lcm(*{p.denominator for row in rows for p in row.values()})
        self.rows = tuple({j: p.numerator * (den // p.denominator) for j, p in row.items()}
                          for row in rows)
        for i, row in enumerate(self.rows):
            if not all(0 < a <= den for a in row.values()):
                raise ValueError(f"probability outside [0,1] in row {i}")
            if sum(row.values()) != den:
                raise ValueError(f"row {i} does not sum to 1")

    @classmethod
    def _from_checked(cls, states: tuple, index: dict, rows: list, den: int) -> "Kernel":
        """A kernel from rows already known to be valid: positive integers summing to den."""
        kernel = cls.__new__(cls)
        kernel.states, kernel.index, kernel.rows, kernel.den = states, index, tuple(rows), den
        return kernel

    def __len__(self) -> int:
        return len(self.states)

    def restrict(self, keep: Iterable[State]) -> "Kernel":
        """Sub-kernel on a closed set of states (rows must not leave it), over the same den."""
        keep_set = set(keep)
        states = tuple(s for s in self.states if s in keep_set)
        new_index = {self.index[s]: k for k, s in enumerate(states)}
        rows = []
        for s in states:
            row = self.rows[self.index[s]]
            if any(j not in new_index for j in row):
                raise ValueError(f"state {s!r} has transitions leaving the set")
            rows.append({new_index[j]: a for j, a in row.items()})
        return Kernel._from_checked(states, _index(states), rows, self.den)


def build_kernel(
    states: Sequence[State],
    moves: Callable[[int], Iterable[tuple[int, int]]],
    probs: Sequence[object],
) -> Kernel:
    """Assemble a kernel from index moves; leftover mass holds.

    moves(k) yields (target index, edge) for the state at index k, and a
    move has probability probs[edge].  The edge probabilities are brought
    to one denominator den once; each row adds integer weights per target,
    and den minus the total holds.  Raises ValueError for a repeated state
    or a negative edge probability, and InvalidRates when the moves out of
    a state carry more than 1.
    """
    states = tuple(states)
    index = _index(states)
    probs = list(map(_rational, probs))
    for e, p in enumerate(probs):
        if p < 0:
            raise ValueError(f"edge {e} has negative probability {fmt_ratio(p)}")
    den = lcm(*(p.denominator for p in probs))
    weights = [p.numerator * (den // p.denominator) for p in probs]
    rows = []
    for k in range(len(states)):
        row: dict[int, int] = {}
        get = row.get
        for j, e in moves(k):
            if weights[e]:
                row[j] = get(j, 0) + weights[e]
        total = sum(row.values())
        if total > den:
            carry = fmt_ratio(R(total, den))
            raise InvalidRates(f"moves out of state {states[k]!r} carry {carry} > 1")
        if total < den:
            row[k] = get(k, 0) + den - total
        rows.append(row)
    return Kernel._from_checked(states, index, rows, den)


def closed_class(kernel: Kernel) -> tuple:
    """The states of the kernel's one closed communicating class, in kernel order.

    Kosaraju's two searches: the finish order of a search over the reversed
    digraph, then forward searches over unassigned states from the latest
    finished first.  Each forward search collects one class, sink classes
    first, so a class is closed exactly when its search reaches no class
    found before it.  Raises NotIrreducible unless exactly one is closed.
    """
    rows = kernel.rows
    back: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            back[j].append(i)
    seen = [False] * len(rows)
    order = []
    for root in range(len(rows)):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(back[root]))]
        while work:
            v, preds = work[-1]
            for u in preds:
                if not seen[u]:
                    seen[u] = True
                    work.append((u, iter(back[u])))
                    break
            else:
                work.pop()
                order.append(v)
    found = [-1] * len(rows)
    closed = []
    for root in reversed(order):
        if found[root] >= 0:
            continue
        found[root] = root
        members, stack, leaves = [root], [root], False
        while stack:
            for j in rows[stack.pop()]:
                if found[j] < 0:
                    found[j] = root
                    members.append(j)
                    stack.append(j)
                elif found[j] != root:
                    leaves = True
        if not leaves:
            closed.append(members)
    if len(closed) != 1:
        raise NotIrreducible(f"{len(closed)} closed classes")
    return tuple(kernel.states[i] for i in sorted(closed[0]))


class Dist(Mapping):
    """A probability vector over states, exact and summing to 1.

    Values may be given as anything Fraction accepts; Fractions are kept
    as they are.  No value may be negative and the values must sum to 1
    exactly (checked with :func:`weyltasep.ratio.exact_sum`).
    """

    def __init__(self, probs: Mapping[State, object]):
        self._p = {s: _rational(p) for s, p in probs.items()}
        if any(p.numerator < 0 for p in self._p.values()):
            raise ValueError("negative probability")
        if exact_sum(self._p.values()) != 1:
            raise ValueError("probabilities do not sum to 1")

    def __getitem__(self, s):
        return self._p.get(s, ZERO)

    def __iter__(self):
        return iter(self._p)

    def __len__(self):
        return len(self._p)

    def __eq__(self, other):
        if not isinstance(other, Dist):
            return NotImplemented
        keys = set(self._p) | set(other._p)
        return all(self[k] == other[k] for k in keys)

    def to_json_obj(self) -> list:
        return [{"state": _state_json(s), "p": fmt_ratio(p)} for s, p in self._p.items()]


def _state_json(s):
    if isinstance(s, tuple):
        return [_state_json(x) for x in s]
    return s


def exact_stationary(kernel: Kernel, guess: Mapping[State, object] | None = None) -> Dist:
    """The unique stationary distribution, exactly.

    Requires a unique closed communicating class; transient states get
    probability zero.  A guess, mapping states to anything Fraction
    accepts (states it leaves out get zero), is certified, never trusted:
    when every state it names is the kernel's and it passes the exact
    certificate (sum 1 and pi . P = pi) on this kernel, it is returned over
    the kernel's states in kernel order, and nothing below runs.  Any other
    guess is dropped, and the law is solved for as with none.

    The target is the class's quotient by its coarsest exact lumping, or
    the class itself (:func:`_lumped`).  Each pass runs one law step: the target's elimination (:func:`_eliminate`), its law
    read off as numerators nums over one L (:func:`_recover`), the exact
    lift pi_i = nums[b] / (L size[b]) to each state of block b, and the
    exact certificate (sum 1 and pi . P = pi) on the kernel passed in.
    The first pass runs in floats.  When it fails -- a pivot underflows, no
    common denominator below the error bound fits, or the law fails the
    certificate -- the step runs in `decimal` with 32 significant digits
    and an exponent range no rate leaves, and the precision doubles until
    a law passes.  With k solved states and S_v their off-diagonal integer
    row sums, the target's law has a common denominator of at most
    B = k prod_v S_v (Markov chain tree theorem), and the reading cannot
    miss once rel_err * B**2 < 1/4; a law that still fails at that rung is
    a solver fault, and RuntimeError is raised.
    """
    members = [kernel.index[s] for s in closed_class(kernel)]
    if guess is not None and all(s in kernel.index for s in guess):
        pi_idx = {kernel.index[s]: _rational(p) for s, p in guess.items()}
        if _is_stationary(kernel, pi_idx):
            return Dist({s: pi_idx.get(i, ZERO) for i, s in enumerate(kernel.states)})
    rows, den, solved, block, size = _lumped(kernel, members)

    def law(num, rel_err) -> dict[int, R] | None:
        """The law by state index, solved in the numbers num makes, if it passes the certificate."""
        xs = _eliminate(rows, den, solved, num)
        # An entry whose error bound leaves the normal range of floats cannot
        # be read; such a law goes to the decimal pass.
        if xs is None or (num is _float and min(xs) * rel_err < float_info.min):
            return None
        found = _recover(xs, rel_err)
        if found is None:
            return None
        nums, big_l = found
        pi_idx = {i: R(nums[b], big_l * size[b]) for i, b in zip(members, block)}
        return pi_idx if _is_stationary(kernel, pi_idx) else None

    # The float law's relative error grows about linearly with the number
    # of eliminations, so the bound counts the solved states.  On the B/C/D
    # full and cut chains of 192 to 3840 states (24 to 1920 solved) the
    # error stays 22 to 190 times below it, and on the two-row (7, n0)
    # chains, which mostly do not lump, 12 to 76 times.
    k = len(solved)
    pi_idx = law(_float, (k + 16) * 2.0**-52)
    prec = 32
    while pi_idx is None:
        # A fresh context, not a copy of the caller's: the error bound
        # assumes rounding to nearest, and no inexact result may trap.
        context = Context(prec=prec, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX)
        with localcontext(context):
            pi_idx = law(_decimal, (k + 16) * Decimal(10) ** (1 - prec))
        # 10**(prec-1) > 4 (k + 16) B**2 says rel_err * B**2 < 1/4 at this rung.
        if pi_idx is None and 10 ** (prec - 1) > 4 * (k + 16) * (
                k * prod(den - rows[v].get(v, 0) for v in solved))**2:
            raise RuntimeError(f"no law of the {k} solved states passed the certificate "
                               f"at {prec} digits")
        prec *= 2
    return Dist({s: pi_idx.get(i, ZERO) for i, s in enumerate(kernel.states)})


def _lumped(kernel: Kernel, members: list[int]) -> tuple:
    """The target to solve for the closed class `members`: its coarsest exact lumping.

    The partition is the coarsest one in which, for every two blocks B'
    and B, each state j of B gets the same column sum
    sum_{i in B'} rows[i][j] from B'.  It is found by splitter refinement
    (Valmari and Franceschinis 2010): the whole class starts as the one
    block and the one splitter; a splitter's column sums split every block
    they are not constant on, the largest part keeps the block's number
    (and its place in the queue, if it had one), and the other parts join
    the queue.  The sums from a block that left the queue are then those
    of the block it was split from minus those of the queued parts, so
    the queue empties on a stable partition, and each state is read in
    O(log n) splitters.  A one-state splitter's sums are its row, a
    one-state block is never split, and the refinement stops when every
    block has one state.

    Returns (rows, den, solved, block, size): the target's integer rows
    over den, read at the states in solved, and for member k its block
    block[k], of size[block[k]] states.  The target is the quotient on the
    block numbers, whose row B' is
    sum_{i in B'} sum_{j in B} rows[i][j] / (|B'| den) over den times the
    lcm of the block sizes, or, for a discrete partition, the class itself:
    the kernel's own rows (not copied), den and members.
    """
    rows = kernel.rows
    where = [0] * len(rows)  # a member's block; transient states are never read
    blocks = [set(members)]
    queue = [0]
    while queue and len(blocks) < len(members):
        splitter = blocks[queue.pop()]
        if len(splitter) == 1:
            (i,) = splitter
            weight = rows[i]
        else:
            weight = {}
            get = weight.get
            for i in splitter:
                for j, a in rows[i].items():
                    weight[j] = get(j, 0) + a
        touched: dict[int, list[int]] = {}
        for j in weight:
            b = where[j]
            if len(blocks[b]) > 1:
                touched.setdefault(b, []).append(j)
        for b, hit in touched.items():
            groups: dict[int, set[int]] = {}
            for j in hit:
                groups.setdefault(weight[j], set()).add(j)
            block = blocks[b]
            if len(hit) < len(block):
                block.difference_update(hit)
                parts = [block, *groups.values()]
            elif len(groups) > 1:
                parts = list(groups.values())
            else:
                continue
            parts.sort(key=len)
            blocks[b] = parts.pop()
            for part in parts:
                for j in part:
                    where[j] = len(blocks)
                queue.append(len(blocks))
                blocks.append(part)
    if len(blocks) == len(members):
        return rows, kernel.den, members, range(len(members)), [1] * len(members)
    size = [len(part) for part in blocks]
    big_l = lcm(*size)
    quotient = []
    for part in blocks:
        row: dict[int, int] = {}
        get = row.get
        for i in part:
            for j, a in rows[i].items():
                b = where[j]
                row[b] = get(b, 0) + a
        scale = big_l // len(part)
        quotient.append({b: a * scale for b, a in row.items()})
    return quotient, kernel.den * big_l, range(len(blocks)), [where[i] for i in members], size


def _float(a: int, den: int) -> float:
    """a / den rounded to the nearest float."""
    return a / den


def _decimal(a: int, den: int) -> Decimal:
    """a / den rounded to the precision of the current decimal context."""
    return Decimal(a) / den


def _eliminate(rows: Sequence[Mapping[int, int]], den: int, members: Sequence[int],
               num: Callable) -> list | None:
    """The stationary law on `members`, in that order, in the numbers num makes.

    rows[i] maps column j to a positive integer over den, and `members` is
    a closed class: no row out of it leaves it.

    num(a, den) turns each entry a / den into a number: a float, or a
    Decimal of the current context.  Censors states one at a time, greedily
    taking the state with the fewest in-degree x out-degree off-diagonal
    links among those left, the lowest index among equals.  The costs sit in
    buckets, cost -> states, and after each step every predecessor and
    successor whose cost changed moves to its new bucket, so each pick is
    exact.  This is the elimination of Grassmann, Taksar and Heyman:
    censoring k adds out[i][k] / S_k * out[k][j] to out[i][j] for every
    predecessor i and successor j != i, where S_k is k's off-diagonal row
    sum.  Nothing is subtracted, so each entry has a small relative error at
    any working precision (O'Cinneide 1993).  Returns None when an S_k or the
    final total is zero or not finite (a float rate that underflows).
    """
    out = {i: {j: num(a, den) for j, a in rows[i].items() if j != i} for i in members}
    inn: dict[int, set[int]] = {i: set() for i in members}
    for i, row in out.items():
        for j in row:
            inn[j].add(i)
    cost = {i: len(inn[i]) * len(out[i]) for i in members}
    buckets: dict[int, set[int]] = {}
    for i, c in cost.items():
        buckets.setdefault(c, set()).add(i)
    zero = num(0, 1)
    steps = []
    finite = True
    while len(out) > 1:
        low = min(buckets)
        bucket = buckets[low]
        k = min(bucket)
        bucket.discard(k)
        if not bucket:
            del buckets[low]
        del cost[k]
        preds = list(inn.pop(k))
        succs = out.pop(k)
        total = sum(succs.values())
        if 0 < total < inf:
            inv = 1 / total
        else:
            finite, inv = False, zero
        items = list(succs.items())
        factors = []
        for i in preds:
            row = out[i]
            f = row.pop(k) * inv
            factors.append(f)
            get = row.get
            for j, x in items:
                row[j] = get(j, zero) + f * x
            row.pop(i, None)
        for j in succs:
            col = inn[j]
            col.discard(k)
            col.update(preds)
            col.discard(j)
        steps.append((k, preds, factors))
        for i in {*preds, *succs}:
            was, now = cost[i], len(inn[i]) * len(out[i])
            if now != was:
                bucket = buckets[was]
                bucket.discard(i)
                if not bucket:
                    del buckets[was]
                buckets.setdefault(now, set()).add(i)
                cost[i] = now
    (root,) = out
    pi = {root: num(1, 1)}
    for k, preds, factors in reversed(steps):
        pi[k] = sum(pi[i] * f for i, f in zip(preds, factors))
    total = sum(pi.values())
    if not (finite and 0 < total < inf):
        return None
    return [pi[i] / total for i in members]


def _recover(xs: Sequence, rel_err) -> tuple[list[int], int] | None:
    """The rationals that the numbers xs stand for, as numerators over one L, or None.

    xs are floats or Decimals, and rel_err is of the same type.  Each xs[k]
    is taken to be within the relative error rel_err of the rational
    a[k] / L it stands for.  The entries are read smallest first, keeping
    L (at first 1): when xs[k] * L is within its error bound of an integer,
    that integer is the numerator; otherwise the fractional part of
    xs[k] * L is replaced by the nearest fraction whose denominator q keeps
    q**2 * err < 1/2, and L grows by the factor q.  That fraction is unique,
    so an entry whose own new factor q meets the bound is recovered
    exactly.  Returns None when L * rel_err reaches 1/4, past which the
    largest entries no longer tell integers apart, or when an entry is not
    an integer over the updated L.  The error bounds must be representable:
    with floats, no entry's bound may leave the normal range.
    """
    den = 1
    found = []
    for k in sorted(range(len(xs)), key=xs.__getitem__):
        x = xs[k]
        y = x * den
        err = rel_err * y
        a = round(y)
        if abs(y - a) > err:
            frac = R(y - floor(y))
            den *= frac.limit_denominator(isqrt(int(1 / (2 * err)))).denominator
            if den * rel_err >= 0.25:
                return None
            y = x * den
            a = round(y)
            if abs(y - a) > rel_err * y:
                return None
        found.append((k, a, den))
    nums = [0] * len(xs)
    for k, a, d in found:
        nums[k] = a * (den // d)
    return nums, den


def _is_stationary(kernel: Kernel, pi_idx: Mapping[int, object]) -> bool:
    """Exact certificate: pi sums to 1 and pi . P = pi (pi is 0 off pi_idx).

    Checked in integers.  With L the lcm of pi's denominators, a = L pi is
    integral, and sum(a) == L says pi sums to 1.  With K the kernel's den,
    K P is its integer rows, and pi . P = pi reads
    sum_i a_i (K q_ij) == a_j K for every j.
    """
    big_l = lcm(*{p.denominator for p in pi_idx.values()})
    a = {i: p.numerator * (big_l // p.denominator) for i, p in pi_idx.items()}
    if sum(a.values()) != big_l:
        return False
    flow: dict[int, int] = {}
    get = flow.get
    for i, a_i in a.items():
        for j, q in kernel.rows[i].items():
            flow[j] = get(j, 0) + a_i * q
    big_k = kernel.den
    return all(get(j, 0) == a.get(j, 0) * big_k for j in flow.keys() | a.keys())
