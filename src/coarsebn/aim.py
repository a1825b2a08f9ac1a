"""Alternating adjusting-imputation and maximization.

The fitter searches the space of hard data completions instead of the
exponentially large mechanism space.  Each case is first replicated z
times so that point completions of replicas can express fractional mass in
units of 1/z.  One fit iteration is: a sweep that moves single replicas to
the one-coordinate neighbor minimizing KL(P_c || P_theta), followed by a
maximum-likelihood refit of theta on the completed counts.  The surrogate
score KL(P_c, P_theta) never increases across iterations; a terminal score
of zero certifies a global optimum of the sat-profile likelihood.

`ai_sweep` makes the moves of the per-replica definition, float for float,
re-making no decision whose inputs are unchanged since the last move.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import BudgetError, DataError
from .inference import BoundDataset, EliminationQueries, MemberTable
from .network import (
    Network,
    params_from_family_counts,
    smooth,
    validate_network,
)

LOG_PROB_FLOOR = 1e-300
SCORE_REFRESH_EVERY = 1000


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
    score: float                        # terminal KL(P_c || P_theta)
    init_fallbacks: int                 # replicas seeded uniformly on zero evidence
    converged: bool


@dataclass
class AimState:
    """Owned state of one fit: replicas, counts, current theta, score."""

    structure: Network
    net: Network
    z: int
    zn: int
    rep_case: np.ndarray                 # replica -> case id
    case_moves: list[list[tuple[int, int]]]  # per case: (stride, card) of missing axes
    assign: list[int]                    # replica -> flat joint index
    counts: dict[int, int]
    table: MemberTable | EliminationQueries = field(repr=False)  # the cases' patterns
    logp: Callable[[int], float] = field(repr=False, default=None)
    score: float = float("inf")
    _moves: int = 0

    def full_score(self) -> float:
        total = 0.0
        for r, n in self.counts.items():
            q = n / self.zn
            total += q * (math.log(q) - self.logp(r))
        return total

    @cached_property
    def _sweep_plan(self) -> tuple[list[tuple[int, int]], list[tuple], dict]:
        """Moving replicas as (replica, move-set id), the move sets (a case's
        (stride, card) pairs) and a neighbour cache by (id, state), per fit."""
        ids: dict[tuple, int] = {}
        case_set = [ids.setdefault(tuple(m), len(ids)) if m else -1 for m in self.case_moves]
        reps = enumerate(case_set[c] for c in self.rep_case.tolist())
        return [(j, m) for j, m in reps if m >= 0], list(ids), {}


def ai_sweep(state: AimState) -> AimState:
    """One pass over replicas in fixed order, adopting KL-improving moves.

    Each replica takes the move that lowers KL(P_c || P_theta) the most
    (the first on exact ties) or stays put.  A move from x to y changes
    only the count terms of x and y, so its delta is the new terms of both
    minus the old, summed in that order.
    The decision reads only `logp` and the counts at the replica's state x
    and its neighbours, so once a replica at x with move set M stays put,
    later replicas at (M, x) are skipped until a move is accepted.  The
    score is recomputed every SCORE_REFRESH_EVERY moves to bound drift.
    """
    counts = state.counts
    zn = state.zn
    logp = state.logp
    assign = state.assign
    log = math.log
    active, move_sets, neighbours = state._sweep_plan
    settled: set[tuple[int, int]] = set()   # (move set, state) that stay put
    for j, m in active:
        cur = assign[j]
        key = (m, cur)
        if key in settled:
            continue
        nbrs = neighbours.get(key)
        if nbrs is None:
            nbrs = neighbours[key] = [
                cur + (s - d) * stride
                for stride, card in move_sets[m] for d in [(cur // stride) % card]
                for s in range(card) if s != d
            ]
        # (left at x) + (arrived at y) - (was at x) - (was at y)
        n_from = counts[cur]
        lf = logp(cur)
        q = (n_from - 1) / zn
        t_left = q * (log(q) - lf) if n_from > 1 else 0.0
        q = n_from / zn
        t_from = q * (log(q) - lf)
        best_delta = 0.0
        best_to = -1
        for to in nbrs:
            n_to = counts.get(to, 0)
            lt = logp(to)
            q = (n_to + 1) / zn
            delta = (t_left + q * (log(q) - lt)) - t_from
            if n_to:
                q = n_to / zn
                delta -= q * (log(q) - lt)
            if delta < best_delta:
                best_delta = delta
                best_to = to
        if best_to < 0:
            settled.add(key)
            continue
        settled.clear()
        counts[cur] -= 1
        if counts[cur] == 0:
            del counts[cur]
        counts[best_to] = counts.get(best_to, 0) + 1
        assign[j] = best_to
        state.score += best_delta
        state._moves += 1
        if state._moves % SCORE_REFRESH_EVERY == 0:
            state.score = state.full_score()
    return state


def m_step(state: AimState) -> tuple[Network, list[np.ndarray]]:
    """Refit theta by ML on the completed counts (in original-case units)."""
    structure = state.structure
    n = len(state.counts)
    idx = np.fromiter(state.counts.keys(), dtype=np.int64, count=n)
    cnt = np.fromiter(state.counts.values(), dtype=np.float64, count=n)
    weights = cnt / state.z
    counts = state.table.family_counts(structure, idx, weights)
    net, row_counts = params_from_family_counts(structure, counts)
    state.net = net
    state.logp = state.table.log_evaluator(net, LOG_PROB_FLOOR)
    state.score = state.full_score()
    return net, row_counts


def initial_completion(
    theta0: Network,
    table: MemberTable | EliminationQueries,
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
    """
    strides, cards = theta0.ravel_strides, theta0.cards
    draw = table.sampler(theta0)
    out = np.zeros(len(rep_pattern), dtype=np.int64)
    fallbacks: list[int] = []
    order = np.argsort(rep_pattern, kind="stable")
    sizes = np.bincount(rep_pattern, minlength=len(table.bounds))
    groups = np.split(order, np.cumsum(sizes)[:-1])
    for k, (bound, idxs) in enumerate(zip(table.bounds, groups)):
        missing = [i for i, v in enumerate(bound) if v is None]
        base = sum(strides[i] * v for i, v in enumerate(bound) if v is not None)
        if not missing:
            out[idxs] = base
            continue
        picks = draw(k, len(idxs), rng)
        if picks is None:
            fallbacks.extend(idxs.tolist())
            picks = base + sum(
                rng.integers(0, cards[i], size=len(idxs)) * strides[i] for i in missing
            )
        out[idxs] = picks
    return out.tolist(), fallbacks


def aim_fit(
    structure: Network,
    theta0: Network,
    data: Dataset,
    opts: AimOptions | None = None,
) -> AimResult:
    """Run the alternating fit until the surrogate improvement drops below tol.

    Case weights must be positive integers (replication needs unit cases).
    Returns both the raw final parameters and their smoothed version, the
    per-iteration surrogate trace, and the terminal score.
    """
    opts = opts or AimOptions()
    if opts.z < 1:
        raise DataError("z must be a positive integer")
    if opts.max_iters < 1:
        raise DataError("max_iters must be a positive integer")
    if not opts.tol >= 0:
        raise DataError(f"tol must be a non-negative number; got {opts.tol!r}")
    diags = validate_network(theta0)
    if diags:
        raise DataError("theta0 invalid: " + "; ".join(diags))
    if structure.n_assignments >= 1 << 62:
        raise BudgetError("joint space too large to index")

    bound = BoundDataset(structure, data)
    pattern_id = {p: k for k, p in enumerate(bound.patterns)}
    case_pattern = []
    case_reps = []
    for pattern, w in data.cases:
        if w <= 0 or abs(w - round(w)) > 1e-9:
            raise DataError(
                "replication needs positive integer case weights; "
                f"got weight {w!r}"
            )
        case_pattern.append(pattern_id[pattern])
        case_reps.append(int(round(w)) * opts.z)
    zn = sum(case_reps)
    rep_case = np.repeat(np.arange(len(case_pattern)), case_reps)
    table = bound.table

    rng = np.random.default_rng(opts.seed)
    rep_pattern = np.repeat(case_pattern, case_reps)
    assign, fallbacks = initial_completion(theta0, table, rep_pattern, rng)
    counts = dict(Counter(assign))

    strides, cards = structure.ravel_strides, structure.cards
    moves = [
        [(strides[i], cards[i]) for i, v in enumerate(b) if v is None] for b in table.bounds
    ]
    case_moves = [moves[k] for k in case_pattern]

    state = AimState(
        structure=structure,
        net=structure.with_cpts(theta0.cpts),
        z=opts.z,
        zn=zn,
        rep_case=rep_case,
        case_moves=case_moves,
        assign=assign,
        counts=counts,
        table=table,
    )
    state.logp = state.table.log_evaluator(state.net, LOG_PROB_FLOOR)
    state.score = state.full_score()

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
        score=trace[-1][1],
        init_fallbacks=len(fallbacks),
        converged=converged,
    )
