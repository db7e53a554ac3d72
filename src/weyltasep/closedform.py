"""Closed formulas: ballot machinery, partition functions, correlations,
and the limiting directions of the reduced alcove walks.

Everything here evaluates exactly over the rationals.  Each closed form has
an independent exact route in the test-suite (stationary solves of the
matching chains, brute-force path enumeration, or the two-row model).

The chain-side quantities read cut-chain laws, each solved once by
elimination and cached (``_cut_law``); the 2^n n! multispecies chain is not
solved here.  ``pair_correlations`` reads the two-cut chains.  One reader of
the highest-root wall serves both exact direction routes: it takes the laws
of the n one-cut chains, from that cache in ``limdir_exact_lam`` and off the
two-row product form in Bcheck's closed form.

Colouring every letter below a cut as 0 lumps a multispecies chain onto the
two-species chain with that many zeros, so a quantity of species i is the
difference of two-species quantities at the zero counts |i| - 1 and |i|.
The D hook sums are read that way off ``d_pair_table``, and C's direction
off the semipermeable last-site density at rates 1/2 (the difference that
``ccheck_last_density`` takes at rate 1).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

from .errors import InvalidRank, RangeError, UnsupportedRange, ZeroParameter
from .lumping import star_lift
from .markov import Dist, exact_stationary
from .models import build_cut_chain, cut_states, star_rates
from .ratio import ONE, R, ZERO, exact_sum, inverse_power_sum
from .tworow import top_row_law
from .weyl import WeylKind, alcove_walls, check_rank


def comb0(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def ballot(n: int, k: int) -> int:
    """Ballot number: binom(n+k, n) - binom(n+k, n+1), for 0 <= k <= n."""
    if n == -1 and k == 0:
        return 1
    if not 0 <= k <= n:
        raise RangeError(f"ballot index k={k} outside 0..{n}")
    return comb(n + k, n) - comb0(n + k, n + 1)


def ballot0(n: int, k: int) -> int:
    """Ballot number extended by zero outside its triangle (and B(-1,0)=1)."""
    if n == -1 and k == 0:
        return 1
    if n < 0 or k < 0 or k > n:
        return 0
    return ballot(n, k)


def catalan(n: int) -> int:
    if n < 0:
        raise RangeError("negative Catalan index")
    return ballot(n, n)


def m_poly(k: int, beta):
    """Sum of ballot(k, k-i) * beta^(-i) over i = 0..k."""
    beta = R(beta)
    if beta == 0:
        raise ZeroParameter("beta must be nonzero")
    return inverse_power_sum((((i,), ballot(k, k - i)) for i in range(k + 1)), (beta,))


def v_poly(k: int, alpha, beta):
    """Double ballot sum: sum of ballot(k-1, k-i-j) alpha^-i beta^-j."""
    alpha, beta = R(alpha), R(beta)
    if alpha == 0 or beta == 0:
        raise ZeroParameter("alpha and beta must be nonzero")
    return inverse_power_sum(
        (((i, j), ballot0(k - 1, k - i - j)) for i in range(k + 1) for j in range(k - i + 1)),
        (alpha, beta),
    )


def enumerate_bicolored_motzkin(k: int, alpha, beta):
    """Generating function of weighted bicolored Motzkin paths, by path counts.

    Steps: up, down, and two colors of level step.  A second-color level
    step on the axis weighs 1/beta; up-steps from the axis and first-color
    level steps on the axis weigh 1/alpha, except that alpha-weights to the
    right of any beta-weight are not counted.  The number m of k-step
    paths of weight alpha^-i beta^-j is counted once per k
    (:func:`_motzkin_exponents`); the sum of m/(alpha^i beta^j) is then
    evaluated at the given rates.  Independent of the ballot numbers, so
    an oracle for :func:`v_poly`.
    """
    alpha, beta = R(alpha), R(beta)
    if alpha == 0 or beta == 0:
        raise ZeroParameter("alpha and beta must be nonzero")
    return inverse_power_sum(_motzkin_exponents(k), (alpha, beta))


@lru_cache(maxsize=None)
def _motzkin_exponents(k: int) -> tuple:
    """Histogram ((i, j), m) of the weights of the k-step paths.

    A transfer over the steps that keeps the number of path prefixes per
    state (height h, alpha-weighted steps i, beta-weighted steps j); a
    path ends at height zero.
    """
    states = {(0, 0, 0): 1}
    for _ in range(k):
        nxt: dict = {}
        for (h, i, j), m in states.items():
            a = int(h == 0 and not j)  # 1/alpha on the axis, left of every 1/beta
            targets = [(h + 1, i + a, j), (h, i + a, j), (h, i, j + (h == 0))]
            if h:
                targets.append((h - 1, i, j))
            for key in targets:
                nxt[key] = nxt.get(key, 0) + m
        states = nxt
    return tuple(sorted(((i, j), m) for (h, i, j), m in states.items() if h == 0))


def z_semiperm(n: int, n0: int, alpha, beta):
    """Partition function of the semipermeable two-species process."""
    if n < 1:
        raise InvalidRank(f"the semipermeable process needs rank n >= 1, got {n}")
    return _z_semiperm(n, n0, alpha, beta)


def _z_semiperm(n: int, n0: int, alpha, beta):
    """:func:`z_semiperm` without the rank check: the empty stretch n = 0 has Z = 1."""
    alpha, beta = R(alpha), R(beta)
    if alpha <= 0 or beta <= 0:
        raise ZeroParameter("alpha and beta must be positive")
    if not 0 <= n0 <= n:
        raise RangeError("negative zero count" if n0 < 0 else f"bad zero count {n0}")
    if alpha == beta:
        return inverse_power_sum(
            (((k,), (k + 1) * ballot0(n + n0 - 1, n - n0 - k)) for k in range(n - n0 + 1)),
            (alpha,),
        )
    # Unequal-rates branch; the k+1 exponent makes it the analytic
    # continuation of the equal-rates branch (their beta -> alpha limits
    # agree), which the exact kernels confirm.
    terms = []
    for k in range(n - n0 + 1):
        c = ballot0(n + n0 - 1, n - n0 - k)
        terms += [((0, k + 1), c), ((k + 1, 0), -c)]  # c (beta^-(k+1) - alpha^-(k+1))
    return inverse_power_sum(terms, (alpha, beta)) / (1 / beta - 1 / alpha)


def semiperm_density(n: int, n0: int, j: int, alpha, beta):
    """Probability that site j holds a 1 in the semipermeable process."""
    if not 1 <= j <= n or not 0 <= n0 <= n:
        raise RangeError(f"bad indices j={j}, n={n}, n0={n0}")
    alpha, beta = R(alpha), R(beta)
    zn = z_semiperm(n, n0, alpha, beta)
    total = ZERO
    for i in range(min(n - j, n - n0)):  # fewer than n0 sites hold no configuration
        total += catalan(i) * z_semiperm(n - i - 1, n0, alpha, beta) / zn
    tail = inverse_power_sum(
        (((k + 1,), ballot0(n - j - 1, n - j - k)) for k in range(n - j + 1)), (beta,)
    )
    if j - 1 >= n0:
        total += _z_semiperm(j - 1, n0, alpha, beta) / zn * tail
    return total


def ccheck_last_density(n: int, i: int):
    """Probability of species i at the last site of the Ccheck chain.

    Computed as a difference of semipermeable densities at adjacent zero
    counts; equals (2i+1)/(2n(2n+1)).
    """
    if not 1 <= i <= n:
        raise RangeError(f"species {i} outside 1..{n}")
    return semiperm_density(n, i - 1, n, 1, 1) - semiperm_density(n, i, n, 1, 1)


def _check_two_species(family: str, n: int, n0: int) -> None:
    """The ranges of the B and D two-species chains: n >= 2 and 0 <= n0 <= n."""
    if n < 2:
        raise InvalidRank(f"the {family} two-species process needs rank n >= 2, got {n}")
    if not 0 <= n0 <= n:
        raise RangeError(f"bad zero count {n0}")


def z_b(n: int, n0: int) -> int:
    """Partition function of the B-type two-species process."""
    _check_two_species("B", n, n0)
    return comb(2 * n, n - n0)


def b_pair_table(n: int, n0: int) -> dict:
    """Final-pair probabilities of the B-type two-species process, by value pair.

    A formula of the paper; the tests check each cell against the exact chain.
    """
    z = z_b(n, n0)
    raw = {
        (-1, -1): comb0(2 * n - 2, n - n0 - 2),
        (-1, 0): ballot0(n + n0 - 1, n - n0 - 1) if n0 >= 1 else 0,
        (-1, 1): comb0(2 * n - 2, n - n0 - 2),
        (0, -1): ballot0(n + n0 - 2, n - n0 - 1),
        (0, 0): ballot0(n + n0 - 3, n - n0),
        (0, 1): ballot0(n + n0 - 2, n - n0 - 1),
        (1, -1): 2 * comb0(2 * n - 3, n - n0 - 2),
        (1, 0): ballot0(n + n0 - 2, n - n0 - 1),
        (1, 1): 2 * comb0(2 * n - 3, n - n0 - 2),
    }
    return {ij: R(v, z) for ij, v in raw.items()}


def z_d(n: int, n0: int) -> int:
    """Partition function of the D-type two-species process.

    For n >= 3 and n0 >= 1 it is the least common denominator L of the
    exact law of the one-cut chain (n0 + 1,).  It follows other
    normalizations elsewhere, as measured against those laws: z_d(n, 0) =
    4^n = 2^(n+1) * L, and z_d(2, 1) = 2 * L.
    """
    _check_two_species("D", n, n0)
    if n0 == 0:
        return 4**n
    return sum(
        comb(2 * j, j) * comb0(2 * n - 2 * j - 2, n - j - n0)
        for j in range(n - n0 + 1)
    )


def d_pair_table(n: int, n0: int) -> dict:
    """Final-pair probabilities of the D-type two-species process (n >= 3, n0 >= 1).

    The +-1 column is shared: a 1 and a -1 at the last site are equally
    likely.  The (0,0) and (-1,0) cells vanish/adjust at n0 = 1, where a
    double-zero ending does not exist.  Rank 2 is refused: there the cells
    contradict the exact D2 chain.  A formula of the paper; the tests check
    each cell against the exact chain.
    """
    if n < 3:
        raise RangeError("needs n >= 3")
    if not 1 <= n0 <= n:
        raise RangeError("the pair table needs n0 >= 1")
    z = z_d(n, n0)
    # total weight of the words ending (-1, +-1) and (1, +-1), one sign each
    minus_pm = sum(
        comb0(2 * j - 2, j) * comb0(2 * n - 2 * j - 2, n - j - n0)
        for j in range(2, n - n0 + 1)
    )
    plus_pm = sum(
        comb(2 * j, j) * comb0(2 * n - 2 * j - 4, n - j - n0 - 1)
        for j in range(1, n - n0)
    )
    zero_pm = comb0(2 * n - 4, n - n0 - 1)
    # A (0, 0) ending needs two zeros; the binomial alone misses that at n0=1.
    zero_zero = comb0(2 * n - 4, n - n0) if n0 >= 2 else 0
    raw = {
        (-1, -1): minus_pm,
        (-1, 1): minus_pm,
        # Column-0 complement: <0 at last> carries weight comb(2n-2, n-n0).
        (-1, 0): comb0(2 * n - 2, n - n0) - zero_zero - zero_pm,
        (0, -1): zero_pm,
        (0, 1): zero_pm,
        (0, 0): zero_zero,
        (1, -1): plus_pm,
        (1, 1): plus_pm,
        (1, 0): zero_pm,
    }
    return {ij: R(v, z) for ij, v in raw.items()}


@dataclass(frozen=True)
class HookSums:
    row: object
    col: object
    hd: object | None  # down-hook, defined for positive species
    hu: object | None  # up-hook


def multi_sums(kind: WeylKind, i: int) -> HookSums:
    """Closed row/column/hook sums of final-pair correlations, families B, D.

    Over the final pairs (x, y): row = P(x = i), col = P(y = i) and, for
    i > 0, hd and hu sum P(i, -j) + P(j, -i) and P(-j, i) + P(-i, j) over
    j > i.  B's are explicit polynomials of the paper.  D's are read off
    ``d_pair_table`` at the zero counts |i| - 1 and |i|: col from the
    marginal of a last -1, row from that of a next-to-last sign(i), hd and
    hu from the cells (1, 1) and (-1, 1).  The tests check both against
    the exact chain.
    """
    n = kind.n
    if i == 0 or abs(i) > n:
        raise RangeError(f"species {i} outside +-1..{n}")
    if kind.family == "B":
        if n < 2:
            raise RangeError("needs n >= 2")
        col = R(1, 2 * n)
        if i <= -2:
            row = R(1, 2 * n)
        elif i == -1:
            row = R(n - 1, 2 * n * (2 * n - 1))
        else:
            row = R(
                n * n + 2 * n * (2 * i - 1) - 3 * i * i - i + 1,
                2 * n * (2 * n - 1) * (n - 1),
            )
        if i < 0:
            return HookSums(row, col, None, None)
        hd = R((n - i) * (n + 3 * i - 1), 2 * n * (2 * n - 1) * (n - 1))
        hu = R(n - i, n * (2 * n - 1))
        return HookSums(row, col, hd, hu)
    if kind.family == "D":
        if n < 3:
            raise RangeError("needs n >= 3")
        return _multi_sums_d(n, i)
    raise UnsupportedRange(f"no closed hook sums for family {kind.family}")


# The pair table at zero count 0: the zero-free D chain is uniform on its
# 2^(n-1) even-sign words, so each final sign pair has probability 1/4.
_D_QUARTERS = {pair: R(1, 4) for pair in product((-1, 1), repeat=2)}


def _multi_sums_d(n: int, i: int) -> HookSums:
    m, sign = abs(i), 1 if i > 0 else -1
    tables = (_D_QUARTERS if m == 1 else d_pair_table(n, m - 1), d_pair_table(n, m))

    def step(cells: list):
        # the marginal over these cells at zero count m - 1 minus that at m
        upper, lower = (exact_sum(t.get(c, ZERO) for c in cells) for t in tables)
        return upper - lower

    col = step([(x, -1) for x in (-1, 0, 1)])
    row = step([(sign, y) for y in (-1, 0, 1)])
    if i < 0:
        return HookSums(row, col, None, None)
    return HookSums(row, col, step([(1, 1)]), step([(-1, 1)]))


def b_first_site(n: int, k: int):
    """Probability of species k at the first site of the B multispecies chain.

    A formula of the paper; the acceptance tests check it against the exact chain.
    """
    if n < 2 or k == 0 or abs(k) > n:
        raise RangeError(f"bad arguments n={n}, k={k}")
    if k < 0:
        return R(2 * (-k) - 1, 2 * n * (2 * n - 1))
    if k == 1:
        return R(n * n + n - 1, 2 * n * (2 * n - 1))
    return R(1, 2 * n)


# ---------------------------------------------------------------------------
# Exact chain-side quantities.


@lru_cache(maxsize=None)
def _cut_law(kind: WeylKind, cuts: tuple) -> Dist:
    """Exact law of ``build_cut_chain(kind, cuts)``, solved once per sorted cut tuple."""
    return exact_stationary(build_cut_chain(kind, cuts))


def pair_correlations(kind: WeylKind) -> dict:
    """Exact final-pair probabilities of the multispecies chain, zero cells left out.

    T(s, t), the law of the signs of the final pair (x, y) on |x| >= s and
    |y| >= t, is read off the two-cut chain (a, b) for s, t in {a, b}, as
    colour k means |x| >= cuts[k - 1]; past n it is zero.  P(x = i, y = j)
    is the sum of (-1)^(e + d) T(|i| + e, |j| + d) over e, d in {0, 1}.
    """
    n = kind.n
    if n < 2:
        raise InvalidRank(f"final-pair correlations need rank n >= 2, got {n}")
    tails: dict = {}  # (s, t, x > 0, y > 0) -> T(s, t) at those signs
    for cuts in combinations(range(1, n + 1), 2):
        terms: dict = {}
        for (*_, x, y), p in _cut_law(kind, cuts).items():
            for s, t in product(cuts[:abs(x)], cuts[:abs(y)]):
                terms.setdefault((s, t, x > 0, y > 0), []).append(p)
        # T(a, a) and T(b, b) come from several chains, all lumpings of one law
        tails.update((key, exact_sum(ps)) for key, ps in terms.items())
    out: dict = {}
    for a, b in permutations(range(1, n + 1), 2):
        for sx, sy in product((False, True), repeat=2):
            # T(a, b), T(a, b + 1), T(a + 1, b), T(a + 1, b + 1)
            t = [tails.get((a + e, b + d, sx, sy), ZERO) for e in (0, 1) for d in (0, 1)]
            p = t[0] - t[1] - t[2] + t[3]
            if p:
                out[(a if sx else -a, b if sy else -b)] = p
    return out


# ---------------------------------------------------------------------------
# Limiting directions.


@dataclass(frozen=True)
class DirectionVector:
    """A direction in R^n, defined up to positive scaling."""

    coeffs: tuple

    def normalized(self) -> "DirectionVector":
        total = sum(self.coeffs, ZERO)
        if total == 0:
            raise ZeroDivisionError("zero direction")
        return DirectionVector(tuple(c / total for c in self.coeffs))

    def proportional_to(self, other: "DirectionVector") -> bool:
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            return False
        pairs = [(x, y) for x, y in zip(a, b)]
        if any((x == 0) != (y == 0) for x, y in pairs):
            return False
        nz = [(x, y) for x, y in pairs if x != 0]
        if not nz:
            return True
        x0, y0 = nz[0]
        if (x0 > 0) != (y0 > 0):
            return False
        return all(x * y0 == y * x0 for x, y in nz)

    def cosine(self, other: "DirectionVector") -> float:
        import math

        a = [float(x) for x in self.coeffs]
        b = [float(x) for x in other.coeffs]
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        return dot / (na * nb)


def _tail_direction(kind: WeylKind, law_of) -> DirectionVector:
    """The highest-root direction from the laws of the one-cut chains.

    law_of(i) is the law of the one-cut chain (i,), i = 1..n.  Each word u
    that the highest-root generator raises adds pi(u) * (-c_t * sign u[t])
    over the sites t of the -theta wall of ``weyl.alcove_walls``.  As u[t]
    is -1, 0 or 1, that term is -pi(u) times the wall pairing s, and u is
    raised when s < 0 (:func:`weyl.theta_raises`).  The sum is the tail
    T_i = psi_i + ... + psi_n of the stationary-weighted highest-root sum:
    where both wall sites hold letters >= i of opposite signs their two
    terms cancel, and otherwise the coloured test equals the true one.
    Then psi_i = T_i - T_{i+1}.
    """
    i0, c0, i1, c1 = alcove_walls(kind)[kind.n]
    tails = []
    for i in range(1, kind.n + 1):
        pairings = ((p, c0 * u[i0] + c1 * u[i1]) for u, p in law_of(i).items())
        tails.append(exact_sum(-p * s for p, s in pairings if s < 0))
    tails.append(ZERO)
    return DirectionVector(tuple(a - b for a, b in zip(tails, tails[1:])))


def limdir_exact_lam(kind: WeylKind) -> DirectionVector:
    """Limiting direction from the stationary-weighted highest-root sum.

    The sum is read off the exact laws of the n one-cut chains, each solved
    by elimination (independent of the two-row product form).
    """
    return _tail_direction(kind, lambda i: _cut_law(kind, (i,)))


def _lifted_law(kind: WeylKind, n0: int) -> dict:
    """The law of the one-cut chain (n0 + 1,) read off the starred product form.

    Each word u takes the probability of its lift ``lumping.star_lift(u, kind)``
    in the top-row law of the two-row model at ``models.STAR_RATES``
    (``tworow.top_row_law``); a border * splits evenly between the words it
    identifies.
    """
    words = cut_states(kind, (n0 + 1,))
    lifts = [star_lift(u, kind) for u in words]
    top, share = top_row_law(len(lifts[0]), n0, star_rates(kind)), Counter(lifts)
    return {u: top[v] / share[v] for u, v in zip(words, lifts)}


def limdir_closed(kind: WeylKind, n: int) -> DirectionVector:
    """Closed-form limiting direction for any of the five families; n must be kind's rank."""
    check_rank(kind, n)
    fam = kind.family
    if fam == "Ccheck":
        return DirectionVector(
            tuple(R(2 * i + 1, 2 * n * (2 * n + 1)) for i in range(1, n + 1))
        )
    if fam == "B":
        return DirectionVector(
            tuple(R(2 * k - 1, n * (2 * n - 1)) for k in range(1, n + 1))
        )
    if fam == "D":
        if n == 2:
            return DirectionVector((R(1, 2), R(1, 2)))
        coeffs = [ZERO]
        for i in range(2, n + 1):
            first = R(i - 1, n + i - 2) * comb0(2 * n - 3, n - i) / z_d(n, i)
            second = R(i - 2, n + i - 3) * comb0(2 * n - 3, n - i + 1) / z_d(n, i - 1)
            coeffs.append(first - second)
        return DirectionVector(tuple(coeffs))
    if fam == "C":
        # the semipermeable last-site difference of ccheck_last_density, at rates 1/2
        half = R(1, 2)
        return DirectionVector(tuple(
            semiperm_density(n, i - 1, n, half, half) - semiperm_density(n, i, n, half, half)
            for i in range(1, n + 1)
        ))
    if fam == "Bcheck":
        return _tail_direction(kind, lambda i: _lifted_law(kind, i - 1))
    raise UnsupportedRange(f"unknown family {fam}")


# ---------------------------------------------------------------------------
# Conjectured two-point correlations for the B multispecies chain.


@dataclass(frozen=True)
class ConjectureValue:
    value: object
    case: int


def conjecture_b_value(n: int, i: int, j: int) -> ConjectureValue:
    """Conjectured probability of species (i, j) at the last two sites.

    Five case families cover pairs with a negative second species; outside
    them a RangeError is raised.
    """
    if n < 2 or i == 0 or j == 0 or abs(i) > n or abs(j) > n:
        raise RangeError(f"bad species pair ({i}, {j})")
    a, b = abs(i), abs(j)
    if i < 0 and j < 0:
        if 3 <= a <= n and 1 <= b <= a - 2:
            return ConjectureValue(R(1, 4 * n * n), 1)
        if a == b + 1 and 1 <= b <= n - 1:
            return ConjectureValue(
                R(1, 4 * n * n) + R(n * n - b * b, 4 * n * n * (2 * n - 1)), 2
            )
        if 1 <= a <= n - 1 and a + 1 <= b <= n:
            return ConjectureValue(R(b - a, 2 * n * n * (2 * n - 1)), 3)
    if i > 0 and j < 0:
        if 1 <= a <= n - 2 and a + 2 <= b <= n:
            return ConjectureValue(R(a + b - 1, 2 * n * n * (2 * n - 1)), 3)
        if b == a + 1 and 1 <= a <= n - 1:
            return ConjectureValue(
                R(a * (n * n - a * a + 2 * n - 2), 2 * n * n * (2 * n - 1) * (n - 1)),
                4,
            )
        if 2 <= a <= n and 1 <= b <= a - 1:
            return ConjectureValue(
                R(3 * (a - b) * (a + b - 1), 4 * n * n * (2 * n - 1) * (n - 1)), 5
            )
    raise RangeError(f"pair ({i}, {j}) outside the conjectured case ranges")


def conjecture_b_pairs(n: int):
    """All (i, j) pairs covered by some conjectured case."""
    out = []
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            if i == 0 or j == 0:
                continue
            try:
                cv = conjecture_b_value(n, i, j)
            except RangeError:
                continue
            out.append((i, j, cv))
    return out


# ---------------------------------------------------------------------------
# Formal power series check for the D-type partition functions.


def _series_mul(a: list, b: list, order: int) -> list:
    out = [ZERO] * (order + 1)
    for i, x in enumerate(a):
        if x == 0 or i > order:
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            out[i + j] += x * y
    return out


def z_d_generating_series(n0: int, order: int) -> list:
    """Coefficients of t^n0/(1-4t) * C(t)^(2 n0 - 2) up to t^order.

    C(t) is the Catalan generating function; the coefficient of t^n should
    match z_d(n, n0).
    """
    if n0 < 1:
        raise RangeError("series defined for n0 >= 1")
    cat = [R(catalan(k)) for k in range(order + 1)]
    geo = [R(4) ** k for k in range(order + 1)]  # 1/(1-4t)
    series = [ONE] + [ZERO] * order
    for _ in range(2 * n0 - 2):
        series = _series_mul(series, cat, order)
    series = _series_mul(series, geo, order)
    out = [ZERO] * (order + 1)
    for k, c in enumerate(series):
        if k + n0 <= order:
            out[k + n0] = c
    return out
