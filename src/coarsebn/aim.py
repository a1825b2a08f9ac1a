"""Alternating adjusting-imputation and maximization.

The fitter searches the space of hard data completions instead of the
exponentially large mechanism space.  Each case is first replicated z
times so that point completions of replicas can express fractional mass in
units of 1/z.  One fit iteration is: a sweep that moves single replicas to
the one-coordinate neighbor minimizing KL(P_c || P_theta), followed by a
maximum-likelihood refit of theta on the completed counts.  The surrogate
score KL(P_c, P_theta) never increases across iterations; a terminal score
of zero certifies a global optimum of the sat-profile likelihood.

AIM needs log P(x) only at the states replicas occupy or can move to.
`AimState`, the whole fit (the completion, held once as counts and key
member lists, theta and the score), gives each such state a row and
caches the row's CPT cells (`network.state_cells`) when it is first read.
It reads each theta once, in `AimState.refit`: one gather gives log P for
every row, every row's count terms are computed from its count, and the
score is the occupied rows' terms added up.  The constructor refits at
theta0 once it has grouped its keys; the M step counts the completion
with one bincount over the occupied rows' cells and refits at the new
theta.  log(c/zn) is computed at a count c when a fit first reads it
(`AimState.log_q`), as most counts up to zn are never read.

`ai_sweep` only decides: it makes the moves of the per-replica
definition, float for float, per (pattern, completion) key, from the last
refit's terms, deciding a key again only when an accepted move has changed
a count its decision reads.  A move recomputes two states' terms from
their counts, so no score drifts.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .data import Dataset
from .errors import BudgetError, DataError
from .inference import BoundDataset, MemberTable, bind
from .network import (
    ENUM_BUDGET,
    Network,
    cell_probs,
    family_counts,
    indexable,
    params_from_family_counts,
    smooth,
    start_network,
    state_cells,
    unravel_rows,
)
from .util import check_int, check_tol

LOG_PROB_FLOOR = 1e-300


def log_probs(net: Network, cells: np.ndarray) -> np.ndarray:
    """log max(P(x), LOG_PROB_FLOOR) for each row of `state_cells`."""
    return np.log(np.maximum(cell_probs(net, cells), LOG_PROB_FLOOR))


@dataclass
class AimOptions:
    z: int = 5                      # replicas per original case
    tol: float = 1e-6               # stop when surrogate improves less than this
    max_iters: int = 200
    seed: int | None = None


@dataclass
class AimResult:
    network: Network                    # final unsmoothed estimate
    smoothed: Network
    row_counts: list[np.ndarray]        # completion counts in original-case units
    trace: list[tuple[int, float, float]]   # iteration, score, sat lower bound
    init_fallbacks: int                 # replicas seeded uniformly on zero evidence
    converged: bool

    @property
    def score(self) -> float:
        """The terminal KL(P_c || P_theta)."""
        return self.trace[-1][1]


class AimState:
    """One fit in the space of data completions: the replicas' completion,
    held once as the counts of the occupied states (`counts`) and the moving
    replicas grouped by key (pattern, state), theta and the score, with the
    states the fit reads.

    Built from theta0, the bound dataset, z, the replica layout and a start
    assignment (replica -> flat joint index): replica j is a replica of
    case `rep_case[j]`, laid out by `replica_cases`; `moves[m]` lists the
    (stride, card) of pattern m's missing axes, and `net` holds theta,
    theta0 until the first M step.  The constructor counts the assignment
    and groups its keys, keeping no copy of it, and refits at theta0.

    Every state a fit reads has a row: `states[r]` is its flat index,
    `cells[r]` its `state_cells` row (built when the row is first read)
    and `lp[r]` its log P at the last refit's theta.  Rows are added for
    the occupied states, complete cases' included, and for the states the
    keys read.

    A replica's decision reads only the counts at its state and at that
    state's neighbours under its pattern's `moves`, so replicas of one key
    decide alike until one of those counts changes.  `readers[r]` lists the
    keys whose decision reads row r's count, `members[k]` key k's replicas
    in ascending order, `key_row[k]` the row of its state and `nbr_rows[k]`
    those of its neighbours.  `ai_sweep` keeps the keys in step with the
    moves it makes, and `add` appends the keys and rows it first reaches.

    `left[r]`, `was[r]` and `arrived[r]` hold row r's count terms T(n-1),
    T(n) and T(n+1), where n is the state's count and T(c) = (c/zn)(log(c/zn)
    - log P), T(0) = 0.0.  `refit` fills them for every row, a sweep keeps
    them current for the rows it moves replicas between, and `score` and
    `full_score` add up the occupied rows' `was`.  A key empty at the start
    of a sweep holds only replicas that sweep has decided already, so it
    is not decided again in that sweep, and the rows `add` appends have
    no terms until the next refit.
    """

    def __init__(
        self,
        theta0: Network,
        bound: BoundDataset,
        z: int,
        rep_case: np.ndarray,
        assign: list[int],
    ):
        self.z = z
        self.rep_case = rep_case  # also read by perfbench's candidate-visit counter
        self.zn = len(rep_case)
        self.case_pattern = bound.case_pattern  # every weight > 0: indexes `bound.rows` too
        strides, cards = theta0.ravel_strides, theta0.cards
        self.moves = [
            [(strides[i], cards[i]) for i, hole in enumerate(h) if hole]
            for h in (bound.rows < 0).tolist()
        ]
        self.counts = dict(Counter(assign))
        self._moves = 0  # accepted moves, read by perfbench's move counter
        self.log_q = LogQ(self.zn)
        self.states: list[int] = []
        self.row: dict[int, int] = {}
        self.cells = np.zeros((0, len(theta0.nodes)), dtype=np.int64)
        self.readers: list[list[int]] = []
        self.key: list[tuple[int, int]] = []     # per key id, (pattern, state)
        self.of: dict[tuple[int, int], int] = {}
        self.members: list[list[int]] = []
        self.key_row: list[int] = []
        self.nbr_rows: list[list[int]] = []
        self.queued: list[bool] = []
        self.group(assign)
        self.refit(theta0)

    @cached_property  # no fit reads it; perfbench's candidate-visit counter does
    def case_moves(self) -> list[list[tuple[int, int]]]:  # per case, its pattern's moves
        return list(map(self.moves.__getitem__, self.case_pattern.tolist()))

    def refit(self, net: Network) -> None:
        """Read theta `net` once: give every occupied state a row, gather
        log P of every row, fill every row's count terms under the counts
        and set the score."""
        self.rows_of(self.counts)
        self.net = net
        self.lp = log_probs(net, self.row_cells()).tolist()
        rows = len(self.states)
        self.left, self.was, self.arrived = [0.0] * rows, [0.0] * rows, [0.0] * rows
        counts = self.counts
        for r, x in enumerate(self.states):
            self.set_terms(r, counts.get(x, 0))
        self.score = self.full_score()

    def full_score(self) -> float:
        """KL(P_c || P_theta): the occupied rows' terms T(n), added in the
        counts' order (a loop, as builtin sum compensates from Python 3.12)."""
        was = self.was
        total = 0.0
        for r in self.rows_of(self.counts):
            total += was[r]
        return total

    def _row_of(self, x: int) -> int:
        r = self.row.get(x)
        if r is None:
            r = self.row[x] = len(self.states)
            self.states.append(x)
            self.readers.append([])
        return r

    def rows_of(self, states) -> list[int]:
        """The row of each state, added where it has none."""
        row = self.row
        return [row[x] if x in row else self._row_of(x) for x in states]

    def row_cells(self) -> np.ndarray:
        """Every row's `state_cells` row, each built once."""
        done = len(self.cells)
        if done < len(self.states):
            net = self.net  # read for its nodes alone, which every theta shares
            new = state_cells(net, unravel_rows(net, self.states[done:]))
            self.cells = np.concatenate([self.cells, new])
        return self.cells

    def group(self, assign: list[int]) -> None:
        """Register a key per (pattern, state) of the moving replicas,
        replica j at state assign[j]."""
        rep_pattern = self.case_pattern[self.rep_case]
        moving = np.array([bool(m) for m in self.moves], dtype=bool)
        reps = np.flatnonzero(moving[rep_pattern])
        pats = rep_pattern[reps]
        xs = np.asarray(assign, dtype=np.int64)[reps]
        order = np.lexsort((xs, pats))      # stable, so replicas ascend within a key
        reps, pats, xs = reps[order], pats[order], xs[order]
        starts = np.flatnonzero((np.diff(pats, prepend=-1) != 0) | (np.diff(xs, prepend=-1) != 0))
        cuts = starts.tolist() + [len(reps)]
        flat = reps.tolist()
        for m, x, a, b in zip(pats[starts].tolist(), xs[starts].tolist(), cuts, cuts[1:]):
            self.add(m, x, flat[a:b])

    def add(self, m: int, x: int, members: list[int]) -> None:
        """Register key (m, x) holding `members`."""
        k = self.of[m, x] = len(self.key)
        self.key.append((m, x))
        self.members.append(members)
        self.queued.append(False)
        nbrs = [
            self._row_of(x + (s - d) * stride)
            for stride, card in self.moves[m] for d in [(x // stride) % card]
            for s in range(card) if s != d
        ]
        self.key_row.append(self._row_of(x))
        self.nbr_rows.append(nbrs)
        for r in [self.key_row[k], *nbrs]:
            self.readers[r].append(k)

    def set_terms(self, r: int, n: int) -> None:
        """Row r's terms once its state holds n replicas."""
        log_q, zn, lp = self.log_q, self.zn, self.lp[r]
        self.left[r] = (n - 1) / zn * (log_q[n - 1] - lp) if n > 1 else 0.0
        self.was[r] = n / zn * (log_q[n] - lp) if n else 0.0
        self.arrived[r] = (n + 1) / zn * (log_q[n + 1] - lp)


class LogQ(dict):
    """math.log(c / zn) at each count c, computed when a fit first reads it."""

    def __init__(self, zn: int):
        self.zn = zn

    def __missing__(self, c: int) -> float:
        value = self[c] = math.log(c / self.zn)
        return value


def replica_cases(bound: BoundDataset, z: int) -> np.ndarray:
    """Each replica's case, case by case: k*z replicas for a weight within
    1e-9 of an integer k >= 1 (else DataError naming the first other
    weight), and at most ENUM_BUDGET in all (else BudgetError)."""
    w = bound.case_weights
    units = np.round(w)
    bad = np.flatnonzero((units < 1) | (np.abs(w - units) > 1e-9))
    if len(bad):
        raise DataError(
            "replication needs positive integer case weights; "
            f"got weight {float(w[bad[0]])!r}"
        )
    if z * bound.total > ENUM_BUDGET:
        raise BudgetError(f"{z * bound.total:g} replicas exceed the budget {ENUM_BUDGET}")
    return np.repeat(np.arange(len(w)), units.astype(np.int64) * z)


def ai_sweep(state: AimState) -> AimState:
    """One pass over replicas in fixed order, adopting KL-improving moves.

    Each replica takes the move that lowers KL(P_c || P_theta) the most
    (the first on exact ties) or stays put.  A move from x to y changes
    only the count terms of x and y, so its delta is the new terms of both
    minus the old, summed in that order.

    The decisions are made per key (pattern, state), in replica order,
    from the count terms of the last `AimState.refit`.  The sweep queues
    every occupied key at its first replica and pops the queue in replica
    order.  A key that stays put is not decided again until a move changes
    a count it reads: a move x -> y recomputes the terms of x and y from
    their new counts and queues each reader of x and y at its first
    replica after the mover (a key still queued already waits there).  So
    every decision sees the counts the replica loop would show it, and the
    moves and counts are that loop's.  The sweep leaves `state.score` as
    it was.  The rows it adds have no terms until a refit, which `aim_fit`
    always makes between sweeps, in the M step.
    """
    counts, members = state.counts, state.members
    queued = state.queued = [bool(reps) for reps in members]
    queue = [(reps[0], k) for k, reps in enumerate(members) if reps]
    heapq.heapify(queue)
    left, was, arrived = state.left, state.was, state.arrived
    states, readers = state.states, state.readers
    key_row, nbr_rows = state.key_row, state.nbr_rows
    while queue:
        j, k = heapq.heappop(queue)
        queued[k] = False
        x = key_row[k]
        t_left = left[x]
        t_from = was[x]
        best_delta = 0.0
        best = -1
        for y in nbr_rows[k]:
            # (left at x) + (arrived at y) - (was at x) - (was at y)
            delta = ((t_left + arrived[y]) - t_from) - was[y]
            if delta < best_delta:
                best_delta = delta
                best = y
        if best < 0:
            continue
        m, cur = state.key[k]
        to = states[best]
        reps = members[k]
        del reps[bisect_left(reps, j)]
        to_key = state.of.get((m, to))
        if to_key is None:
            state.add(m, to, [j])
        else:
            insort(members[to_key], j)
        counts[cur] -= 1
        if counts[cur] == 0:
            del counts[cur]
        counts[to] = counts.get(to, 0) + 1
        state.set_terms(x, counts.get(cur, 0))
        state.set_terms(best, counts[to])
        state._moves += 1
        for r in chain(readers[x], readers[best]):
            reps = members[r]
            if not queued[r] and reps and reps[-1] > j:
                queued[r] = True
                heapq.heappush(queue, (reps[bisect_right(reps, j)], r))
    return state


def m_step(state: AimState) -> tuple[Network, list[np.ndarray]]:
    """Fit theta by ML on the completed counts (in original-case units),
    one bincount over the occupied rows' cells in the counts' order, and
    `AimState.refit` the state at it."""
    structure = state.net  # read for its nodes alone
    rows = state.rows_of(state.counts)
    cnt = np.fromiter(state.counts.values(), dtype=np.float64, count=len(rows))
    counts = family_counts(structure, state.row_cells()[rows], cnt / state.z)
    net, row_counts = params_from_family_counts(structure, counts)
    state.refit(net)
    return net, row_counts


def initial_completion(
    theta0: Network,
    table: MemberTable,
    rep_pattern: np.ndarray,
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """Seed each replica with the flat joint index of a member of its pattern.

    Replica j belongs to pattern rep_pattern[j] of `table`; its missing
    coordinates are drawn jointly from the conditional distribution under
    theta0, independently per replica, so replication can express
    fractional mass immediately.  Replicas whose observation has zero
    probability under theta0 fall back to a uniform draw; their indices
    are returned alongside.

    The draws are those of one `rng.choice` per pattern, in pattern order,
    bit for bit: an enumerated pattern takes one `rng.random` for its
    replicas and picks by `searchsorted` on the inverse CDF `rng.choice`
    builds from its members' P(x); a tree pattern draws by
    `table.tree_sample`.
    """
    missing = table.rows < 0
    strides = np.array(theta0.ravel_strides, dtype=np.int64)
    out = (np.maximum(table.rows, 0) @ strides)[rep_pattern]
    # replicas pattern after pattern; a radix sort when patterns fit 16 bits
    order = np.argsort(rep_pattern.astype(np.min_scalar_type(len(missing))), kind="stable")
    ends = np.cumsum(np.bincount(rep_pattern, minlength=len(missing))).tolist()
    p_slot = table.member_probs(theta0)[0]
    slots = dict(zip(table.enumerated, zip(table.starts.tolist(), table.stops.tolist())))
    fallbacks: list[int] = []
    for k in np.flatnonzero(missing.any(axis=1)).tolist():
        idxs = order[ends[k - 1] if k else 0 : ends[k]]
        if k not in slots:
            picks = table.tree_sample(theta0, k, len(idxs), rng)
        else:
            start, stop = slots[k]
            p = p_slot[start:stop]
            p_u = p.sum()
            picks = None  # where P(U) = 0
            if p_u > 0:
                cdf = (p / p_u).cumsum()
                cdf /= cdf[-1]
                at = start + cdf.searchsorted(rng.random(len(idxs)), side="right")
                picks = table.uniq[table.loc[at]]
        if picks is None:
            fallbacks.extend(idxs.tolist())
            picks = out[idxs] + sum(
                rng.integers(0, theta0.cards[i], size=len(idxs)) * strides[i]
                for i in np.flatnonzero(missing[k]).tolist()
            )
        out[idxs] = picks
    return out.tolist(), fallbacks


def start(
    theta0: Network, bound: BoundDataset, z: int, rng: np.random.Generator
) -> tuple[AimState, list[int]]:
    """A fit's first state, its replicas drawn by `initial_completion`, and
    the replicas that fell back to a uniform draw."""
    rep_case = replica_cases(bound, z)
    assign, fallbacks = initial_completion(theta0, bound.table, bound.case_pattern[rep_case], rng)
    return AimState(theta0, bound, z, rep_case, assign), fallbacks


def aim_fit(
    structure: Network,
    theta0: Network,
    data: Dataset | BoundDataset,
    opts: AimOptions | None = None,
) -> AimResult:
    """Run the alternating fit until the surrogate improvement drops below tol.

    theta0 must be valid and on the structure's nodes (`start_network`).
    Cases are replicated z times per unit of weight by `replica_cases`,
    which refuses a weight not within 1e-9 of an integer >= 1.
    `data` may come bound already (`inference.bind`), as an experiment run
    binds it once for EM and this fit.  Returns both the raw final
    parameters and their smoothed version, the per-iteration surrogate
    trace, and the terminal score.
    """
    opts = opts or AimOptions()
    check_int("z", opts.z, 1)
    check_int("max_iters", opts.max_iters, 1)
    check_tol(opts.tol)
    if opts.seed is not None:
        check_int("seed", opts.seed, 0)
    theta0 = start_network(structure, theta0)
    if not indexable(structure):
        raise BudgetError("joint space too large to index")

    bound = bind(structure, data)
    state, fallbacks = start(theta0, bound, opts.z, np.random.default_rng(opts.seed))

    entropy = bound.entropy
    trace: list[tuple[int, float, float]] = []
    score_prev = state.score
    converged = False
    net = state.net
    row_counts: list[np.ndarray] = []
    for it in range(1, opts.max_iters + 1):
        ai_sweep(state)
        net, row_counts = m_step(state)
        score = state.score
        trace.append((it, score, -entropy - score))
        if score_prev - score < opts.tol:
            converged = True
            break
        score_prev = score

    return AimResult(
        network=net,
        smoothed=smooth(net, row_counts),
        row_counts=row_counts,
        trace=trace,
        init_fallbacks=len(fallbacks),
        converged=converged,
    )
