"""Reduced random walks on the alcoves of the affine arrangement.

The walk starts at a generic interior point of the fundamental alcove and
repeatedly proposes a reflection in a wall of the current alcove, weighted
by the family's step weights.  A proposal is accepted only if it crosses a
hyperplane never crossed before (the separation count from the base point
grows by one); otherwise the walk holds.  All geometry is exact: points
live on a fixed denominator lattice, so the hot loop is integer-only.

The step weights are the Kac labels a_g, small integers with total
T <= 2(n + 1).  Proposals come from random bytes: a byte b below
keep = (256 // T) * T names the generator owning bucket b % T, where g owns
a_g of the T buckets, and the bytes from keep up are rejected.  So g is
drawn with probability exactly a_g / T, and `bytes.translate` turns a chunk
of random bytes into a chunk of proposals in C.  Trial t of a walk seeded s
draws from one PRNG, seeded once with a digest of (s, t).

`estimate_direction` runs its trials over P processes, by default one per
CPU the caller may run on: the caller forks P - 1 workers, runs one share
of the trials itself and reads the others' summaries back over pipes, so
the result does not depend on P.  Share k runs on CPU k (mod the number of
allowed CPUs) of the caller's affinity set alone, and the caller gets its
own set back when the ensemble ends.  Left unpinned, a worker forked on a
busy CPU tends to share it with the caller for a short share's whole life,
so two processes ran about as fast as one.  A worker's exception is raised
again in the caller, and a worker that dies without a result raises a
RuntimeError instead of leaving the caller waiting.

The current alcove is u(A0) for an element u of the affine Weyl group, and
the state keeps u as its inverse window together with y = u^{-1}(x0), the
base point x0 seen from the fundamental alcove A0, packed in one list
z = m*y + winv that one signed swap moves (see `WalkState`).  Proposing g
crosses a new hyperplane exactly when y lies on x0's side of the wall g of
A0, and an ascent table caches that answer for every g.  A held proposal
is one table lookup.  An accepted one reflects z by s_g, clears g, whose
wall y has just crossed, and recomputes the table at the other Dynkin
neighbours of g only.  The window, y and the point x = u(x0) are decoded
only when they are asked for.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .closedform import DirectionVector, limdir_closed
from .errors import NonGenericPoint, UnsupportedRange
from .ratio import R
from .weyl import (
    WeylKind, alcove_walls, apply_generator, identity_window, kac_weights, root_data
)


@lru_cache(maxsize=None)
def fundamental_point(kind: WeylKind, n: int) -> tuple:
    """Barycenter of the fundamental alcove, as exact fractions.

    The alcove is the simplex cut out by the simple-root half-spaces and
    the affine wall of the highest root; the barycenter of its vertices is
    generic for every family considered here.
    """
    kind = WeylKind(kind.family, n)
    rs = root_data(kind)
    rows = [list(a) for a in rs.simple_roots] + [list(rs.theta)]
    rhs = [0] * n + [1]
    vertices = []
    for drop in range(n + 1):
        sub = [rows[i] for i in range(n + 1) if i != drop]
        b = [rhs[i] for i in range(n + 1) if i != drop]
        vertices.append(_solve_exact(sub, b))
    bary = tuple(
        sum((v[j] for v in vertices), R(0)) / (n + 1) for j in range(n)
    )
    for alpha in rs.positive_roots:
        pairing = sum(R(c) * x for c, x in zip(alpha, bary))
        if pairing.denominator == 1:
            raise NonGenericPoint(f"barycenter meets a wall of root {alpha}")
    return bary


def _solve_exact(rows, rhs):
    n = len(rows)
    a = [[R(x) for x in row] + [R(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise UnsupportedRange("the alcove walls are linearly dependent (as for D2)")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


def separation_count(x, kind: WeylKind, n: int) -> int:
    """Number of affine hyperplanes separating x from the fundamental point.

    Counts, over every positive root, the integers lying strictly between
    the root pairings at the two points.  Both points are scaled by the lcm
    D of their denominators, so a pairing P stands for P/D: it lies on a wall
    when D divides it, and its floor is P // D.
    """
    kind = WeylKind(kind.family, n)
    base = fundamental_point(kind, n)
    x = [R(v) for v in x]
    den = math.lcm(*(v.denominator for v in (*base, *x)))
    xs = [v.numerator * (den // v.denominator) for v in x]
    bs = [v.numerator * (den // v.denominator) for v in base]
    total = 0
    for alpha in root_data(kind).positive_roots:
        px = sum(c * v for c, v in zip(alpha, xs))
        if px % den == 0:
            raise NonGenericPoint(f"point lies on a wall of root {alpha}")
        total += abs(px // den - sum(c * v for c, v in zip(alpha, bs)) // den)
    return total


def _byte_table(kind: WeylKind) -> tuple:
    """Translation table and delete set that turn random bytes into proposals.

    With the step weights a_g summing to T and keep = (256 // T) * T, a
    byte b < keep maps to the generator owning bucket b % T, where g owns
    a_g consecutive buckets; the bytes keep..255 are deleted.  Each kept
    byte is uniform on [0, keep), so g is drawn with probability a_g / T.
    """
    weights = kac_weights(kind).weights
    total = sum(weights)
    if total > 256:
        raise UnsupportedRange(
            f"walk proposals are drawn from bytes, so the step weights must total "
            f"at most 256; those of {kind.family}{kind.n} total {total}"
        )
    keep = 256 // total * total
    owner = [g for g, a in enumerate(weights) for _ in range(a)]
    table = bytes(owner[b % total] for b in range(keep)) + bytes(256 - keep)
    return table, bytes(range(keep, 256))


@lru_cache(maxsize=None)
def _walk_tables(kind: WeylKind, n: int):
    """Scale d, packing modulus m, scaled base point x0, moves and byte table.

    The byte table (`_byte_table`) comes first: a family whose step weights
    do not fit in a byte fails before any geometry is computed.

    moves[g] = (p, q, s, tp, tq, refresh).  Right multiplication by s_g maps
    entries p, q of the packed list z to s times each other (p == q negates
    one entry); the affine generator then adds its shift, tp at p and tq at
    q (zero for the finite generators).  refresh holds (h, i0, c0, i1, c1,
    lev) for every Dynkin neighbour h != g of g, with wall h oriented to
    x0's side at level l: h is an ascent iff c0*y[i0] + c1*y[i1] > l, that
    is iff c0*z[i0] + c1*z[i1] > lev = m*l + m//2.
    """
    kind = WeylKind(kind.family, n)
    table, delete = _byte_table(kind)
    rs = root_data(kind)
    base = fundamental_point(kind, n)
    d = math.lcm(*(v.denominator for v in base))
    x0 = tuple(int(v * d) for v in base)
    walls = rs.simple_roots + (rs.theta,)
    # for a window w, |c0*w[i0] + c1*w[i1]| <= (|c0| + |c1|)*n = m//2 < m - m//2
    m = 2 * n * max(abs(c0) + abs(c1) for _, c0, _, c1 in alcove_walls(kind)) + 1
    # x0 is generic, so y never lies on a wall and '>' needs no tie rule
    ascent = []
    for g, (i0, c0, i1, c1) in enumerate(alcove_walls(kind)):
        lev = -d if g == n else 0  # wall n is <-theta, y> = -d
        side = 1 if c0 * x0[i0] + c1 * x0[i1] > lev else -1
        ascent.append((g, i0, side * c0, i1, side * c1, m * side * lev + m // 2))
    theta_norm = sum(c * c for c in rs.theta)
    tau = tuple(m * d * (2 * c // theta_norm) for c in rs.theta)  # integral for B, C, D
    moves = []
    for g, alpha in enumerate(walls):
        # s_g is a signed transposition of two entries or one sign change
        win = apply_generator(identity_window(n), g, kind)
        supp = [i for i in range(n) if win[i] != i + 1]
        p, q = supp[0], supp[-1]
        # the affine shift tau is a multiple of theta, so it lives on p and q
        tp, tq = (tau[p], tau[q]) if g == n else (0, 0)
        refresh = tuple(
            ascent[h] for h, beta in enumerate(walls)
            if h != g and sum(a * b for a, b in zip(alpha, beta))
        )
        moves.append((p, q, 1 if win[p] > 0 else -1, tp, tq, refresh))
    return d, m, x0, tuple(moves), table, delete


@dataclass
class WalkState:
    """The current alcove u(A0), as u's inverse window and y = u^{-1}(x0).

    Both sit in one list z[i] = m*y[i] + winv[i], y scaled by d, since s_g
    moves them by the same signed swap.  m (4n + 1 here) is odd and m//2
    bounds |c0*winv[i0] + c1*winv[i1]| on every wall, so z decodes uniquely
    and a wall test on z reads the sign of its y part.  asc[g] caches whether
    proposing g would cross a new hyperplane: whether y lies on x0's side of
    the fundamental wall g.  Accepting g puts y across wall g: asc[g] = False.
    """

    kind: WeylKind
    n: int
    z: list
    asc: list

    def decode(self) -> tuple:
        """The inverse window and y, read off z."""
        h = _walk_tables(self.kind, self.n)[1] // 2
        pairs = [divmod(v + h, 2 * h + 1) for v in self.z]
        return [r - h for _, r in pairs], [q for q, _ in pairs]

    def point(self) -> tuple:
        """The current point u(x0) = x0 + w(x0 - y), with w the window."""
        d, _, x0 = _walk_tables(self.kind, self.n)[:3]
        winv, y = self.decode()
        x = list(x0)
        for i, a in enumerate(winv):
            if a > 0:
                x[a - 1] += x0[i] - y[i]
            else:
                x[-a - 1] -= x0[i] - y[i]
        return tuple(R(v, d) for v in x)


def initial_state(kind: WeylKind, n: int) -> WalkState:
    _, m, x0 = _walk_tables(kind, n)[:3]
    # x0 lies on its own side of every wall: every generator is an ascent
    z = [m * v + i for i, v in enumerate(x0, start=1)]
    return WalkState(WeylKind(kind.family, n), n, z, [True] * (n + 1))


def _advance(state: WalkState, proposals) -> int:
    """Run the proposed generators in order; returns how many were accepted.

    A held proposal costs one table lookup.  An accepted one moves the state,
    clears g and refreshes the ascent table at the other Dynkin neighbours of
    g only: for h with s_g s_h = s_h s_g, u s_g (alpha_h) = u (alpha_h), so h
    keeps its status.
    """
    moves = _walk_tables(state.kind, state.n)[3]
    z, asc = state.z, state.asc
    accepted = 0
    for g in proposals:
        if asc[g]:
            p, q, s, tp, tq, refresh = moves[g]
            z[p], z[q] = s * z[q] + tp, s * z[p] + tq
            for h, i0, c0, i1, c1, lev in refresh:
                asc[h] = c0 * z[i0] + c1 * z[i1] > lev
            asc[g] = False
            accepted += 1
    return accepted


def derive_stream(seed: int, trial: int) -> int:
    """PRNG seed of trial `trial` of a walk seeded `seed`: a blake2b digest.

    Every pair of ints, negative and wider than 64 bits included, has its
    own key, so distinct pairs give distinct streams.
    """
    from hashlib import blake2b  # loads OpenSSL; only walks need it

    key = f"{seed},{trial}".encode()
    return int.from_bytes(blake2b(key, digest_size=16).digest(), "little")


CHUNK = 1 << 14  # random bytes drawn at a time, so no walk holds a large buffer


def _proposals(kind: WeylKind, n: int, steps: int, seed: int, trial: int = 0):
    """The `steps` generators proposed by trial `trial` of a walk seeded `seed`.

    CHUNK random bytes at a time go through the byte table (`_byte_table`);
    the chunks are chained and the last one is cut at `steps` values, so a
    shorter walk proposes a prefix of what a longer one proposes.
    """
    table, delete = _walk_tables(kind, n)[4:]
    bits = random.Random(derive_stream(seed, trial)).getrandbits

    def chunks(left):
        while left > 0:
            block = bits(8 * CHUNK).to_bytes(CHUNK, "little").translate(table, delete)
            yield block[:left]
            left -= len(block)

    return chain.from_iterable(chunks(steps))


def chamber_label(x, kind: WeylKind) -> tuple:
    """Window of the finite chamber containing x (parity-fixed for D)."""
    order = sorted(range(len(x)), key=lambda j: abs(x[j]))
    label = [0] * len(x)
    for rank, j in enumerate(order, start=1):
        label[j] = rank if x[j] >= 0 else -rank
    if kind.root_family == "D" and sum(1 for v in label if v < 0) % 2:
        j = order[0]
        label[j] = -label[j]
    return tuple(label)


def dominant_representative(x, kind: WeylKind) -> tuple:
    """Image of x in the closed dominant chamber of the finite group.

    sign(a_j) * x_j goes to place |a_j|, where a = chamber_label(x, kind), so
    for D an odd number of negative coordinates leaves the smallest one negative.
    """
    out = [None] * len(x)
    for v, a in zip(x, chamber_label(x, kind)):
        out[abs(a) - 1] = v if a > 0 else -v
    return tuple(out)


@dataclass(frozen=True)
class WalkSummary:
    final_point: tuple
    accepted: int
    steps: int
    crossings: int
    chamber: tuple
    seed: int
    trial: int


def run_walk(
    kind: WeylKind, n: int, steps: int, seed: int = 0, trial: int = 0
) -> WalkSummary:
    """Simulate trial `trial` of a walk seeded `seed`; deterministic in both."""
    if steps <= 0:
        raise ValueError("steps must be positive")
    kind = WeylKind(kind.family, n)
    state = initial_state(kind, n)
    accepted = _advance(state, _proposals(kind, n, steps, seed, trial))
    pt = state.point()
    cross = separation_count(pt, kind, n)
    return WalkSummary(pt, accepted, steps, cross, chamber_label(pt, kind), seed, trial)


def _allowed_cpus() -> list | None:
    """The CPUs this process may run on, in order; None where the OS does not say."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def _pin(cpus) -> None:
    """Run this process on `cpus` only, if the OS lets it; otherwise do nothing."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


def _run_trials(kind: WeylKind, n: int, steps: int, seed: int, trials: int,
                processes: int) -> list:
    """run_walk of trials 0..trials-1, in trial order, over min(processes, trials) processes.

    With P processes the caller forks P - 1 children, and child k runs trials
    k, k + P, ... while the caller runs share 0.  Share k runs pinned to the
    CPU allowed[k % len(allowed)], where allowed lists the caller's affinity
    set in order: each child pins itself right after the fork, and the
    caller pins itself for share 0 and puts back its whole set on every
    path.  On 2 CPUs this made ten 25k-step B6 trials over 2 processes take
    about 40 ms instead of about 60 ms, as long as over 1 process.  Pinning
    is best effort: where the OS cannot pin, the shares run unpinned, and
    no result depends on it.  Each child pickles its
    summaries, or the exception it raised, to its own pipe and leaves by
    os._exit, so it neither flushes the stdio it inherited nor runs atexit
    handlers.  A child's exception is raised again here; one that does not
    survive pickling comes back as a RuntimeError carrying its repr.  A child
    that ends without writing raises a RuntimeError with its exit status.
    Every child is reaped on every path; when the caller's share or another
    child fails, the children still running are killed first.
    """
    shares = min(processes, trials)

    def share(k):
        return [run_walk(kind, n, steps, seed, t) for t in range(k, trials, shares)]

    if shares == 1:
        return share(0)
    import pickle  # only parallel walks need these
    import signal

    allowed = _allowed_cpus()
    children = []  # (pid, read end of its pipe) of child k at index k - 1
    try:
        for k in range(1, shares):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # child k: keep only its own write end
                status = 1
                try:
                    if allowed:
                        _pin({allowed[k % len(allowed)]})
                    os.close(r)
                    for _, pipe in children:
                        pipe.close()
                    try:
                        data = pickle.dumps(share(k))
                    except BaseException as exc:  # forwarded to the caller
                        try:
                            data = pickle.dumps(exc)
                            pickle.loads(data)  # fails for some custom __init__ signatures
                        except Exception:
                            data = pickle.dumps(RuntimeError(f"walk worker raised {exc!r}"))
                    with open(w, "wb") as out:
                        out.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, open(r, "rb")))
        if allowed:
            _pin({allowed[0]})
        results = [share(0)]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if not data:
                how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                raise RuntimeError(f"walk worker {pid} ended without a result ({how})")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            results.append(result)
    finally:
        if allowed:
            _pin(allowed)
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [results[t % shares][t // shares] for t in range(trials)]


@dataclass(frozen=True)
class DirectionEstimate:
    direction: tuple  # unit vector of floats
    cosine_vs_closed_form: float
    acceptance_rate: float
    chamber_counts: dict
    steps: int
    trials: int
    seed: int


def estimate_direction(
    kind: WeylKind,
    n: int,
    steps: int,
    trials: int,
    seed: int = 0,
    processes: int | None = None,
) -> DirectionEstimate:
    """Mean final direction over independent trials, against the closed form.

    Trial t runs as run_walk(kind, n, steps, seed, t).  The trials are shared
    among `processes` processes, the caller and forked workers, and the
    result does not depend on the process count.  By default there is one
    process per CPU in the caller's affinity set (os.cpu_count() where the
    OS has no such set), at most one per trial, so a caller confined to one
    CPU forks nothing.
    """
    if steps <= 0 or trials <= 0:
        raise ValueError("steps and trials must be positive")
    if processes is not None and processes <= 0:
        raise ValueError("processes must be positive")
    kind = WeylKind(kind.family, n)
    # weights beyond a byte or a degenerate alcove fail here, before any fork;
    # the forked workers inherit the tables
    _walk_tables(kind, n)
    if processes is None:
        cpus = _allowed_cpus()
        processes = min(trials, len(cpus) if cpus else os.cpu_count() or 1)
    summaries = _run_trials(kind, n, steps, seed, trials, processes)
    mean = [0.0] * n
    accepted = 0
    chambers: dict = {}
    for s in summaries:
        vec = [float(v) for v in dominant_representative(s.final_point, kind)]
        norm = math.sqrt(sum(v * v for v in vec))
        for j in range(n):
            mean[j] += vec[j] / norm / trials
        accepted += s.accepted
        chambers[s.chamber] = chambers.get(s.chamber, 0) + 1
    norm = math.sqrt(sum(v * v for v in mean))
    unit = tuple(v / norm for v in mean)
    closed = limdir_closed(kind, n)
    cos = DirectionVector(tuple(R(round(v * 10**12), 10**12) for v in unit)).cosine(
        closed
    )
    return DirectionEstimate(
        unit, cos, accepted / (steps * trials), chambers, steps, trials, seed
    )


def svg_trajectory(kind: WeylKind, n: int, steps: int, seed: int, path: str) -> None:
    """Dump a rank-2 walk as a simple SVG polyline."""
    if n != 2:
        raise ValueError("SVG dump is only available for rank 2")
    kind = WeylKind(kind.family, n)
    state = initial_state(kind, n)
    pts = [tuple(map(float, state.point()))]
    for g in _proposals(kind, n, steps, seed):
        if _advance(state, (g,)):
            pts.append(tuple(map(float, state.point())))
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    lo = min(min(xs), min(ys)) - 1
    hi = max(max(xs), max(ys)) + 1
    span = hi - lo
    scale = 600.0 / span

    def sx(v):
        return (v - lo) * scale

    def sy(v):
        return 600.0 - (v - lo) * scale

    grid = []
    for k in range(math.floor(lo), math.ceil(hi) + 1):
        g1 = (k - lo) * scale
        grid.append(
            f'<line x1="{g1:.1f}" y1="0" x2="{g1:.1f}" y2="600" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
        grid.append(
            f'<line x1="0" y1="{600 - g1:.1f}" x2="600" y2="{600 - g1:.1f}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
    poly = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in pts)
    with open(path, "w") as fh:
        fh.write(
            '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
            'viewBox="0 0 600 600">\n'
        )
        fh.write("".join(grid))
        fh.write(
            f'<polyline points="{poly}" fill="none" stroke="#c90" '
            'stroke-width="1.5"/>\n'
        )
        fh.write(
            f'<circle cx="{sx(pts[0][0]):.2f}" cy="{sy(pts[0][1]):.2f}" r="3" '
            'fill="#06c"/>\n'
        )
        fh.write("</svg>\n")
