"""Alternating adjusting-imputation and maximization.

The fitter searches the space of hard data completions instead of the
exponentially large mechanism space.  Each case is first replicated z
times so that point completions of replicas can express fractional mass in
units of 1/z.  One fit iteration is: a sweep that moves single replicas to
the one-coordinate neighbor minimizing KL(P_c || P_theta) (computed
incrementally, only the two affected terms are touched), followed by a
maximum-likelihood refit of theta on the completed counts.  The surrogate
score KL(P_c, P_theta) never increases across iterations; a terminal score
of zero certifies a global optimum of the sat-profile likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .data import Dataset, PatternDistribution, bind_pattern
from .errors import BudgetError, DataError
from .inference import EliminationQueries, MemberTable, pattern_table
from .network import (
    Assignment,
    Network,
    family_counts_from_rows,
    params_from_family_counts,
    smooth,
    unravel_rows,
    validate_network,
)

LOG_PROB_FLOOR = 1e-300
SCORE_REFRESH_EVERY = 1000


@dataclass
class AimOptions:
    z: int = 5                      # replicas per original case
    tol: float = 1e-6               # stop when surrogate improves less than this
    max_iters: int = 200
    sweeps_per_ai_step: int = 1
    init_completion: str = "posterior_draw"   # or "uniform_draw"
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


def incremental_kl_delta(
    counts: Mapping, zn: int, logp: Callable, frm, to
) -> float:
    """Change in KL(P_c || P_theta) from moving one replica frm -> to.

    Only the two affected count terms are recomputed.  `counts` maps
    occupied states to replica counts; `logp` must already be floored.
    """
    n_from = counts.get(frm, 0)
    if n_from < 1:
        raise DataError("no replica currently occupies the source state")
    if frm == to:
        return 0.0
    n_to = counts.get(to, 0)
    lf = logp(frm)
    lt = logp(to)

    def term(n: int, lp: float) -> float:
        if n == 0:
            return 0.0
        q = n / zn
        return q * (math.log(q) - lp)

    return (
        term(n_from - 1, lf)
        + term(n_to + 1, lt)
        - term(n_from, lf)
        - term(n_to, lt)
    )


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


def ai_sweep(state: AimState) -> AimState:
    """One pass over replicas in fixed order, adopting KL-improving moves.

    Exact ties keep the current assignment; the running score is refreshed
    from scratch every thousand accepted moves to bound float drift.
    """
    counts = state.counts
    zn = state.zn
    logp = state.logp
    for j in range(zn):
        moves = state.case_moves[state.rep_case[j]]
        if not moves:
            continue
        cur = state.assign[j]
        best_delta = 0.0
        best_to = -1
        for stride, card in moves:
            d = (cur // stride) % card
            base = cur - d * stride
            for s in range(card):
                if s == d:
                    continue
                to = base + s * stride
                delta = incremental_kl_delta(counts, zn, logp, cur, to)
                if delta < best_delta:
                    best_delta = delta
                    best_to = to
        if best_to >= 0:
            counts[cur] -= 1
            if counts[cur] == 0:
                del counts[cur]
            counts[best_to] = counts.get(best_to, 0) + 1
            state.assign[j] = best_to
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
    counts = family_counts_from_rows(structure, unravel_rows(structure, idx), weights)
    net, row_counts = params_from_family_counts(structure, counts)
    state.net = net
    state.logp = state.table.log_evaluator(net, LOG_PROB_FLOOR)
    state.score = state.full_score()
    return net, row_counts


def initial_completion(
    theta0: Network,
    replicated_cases: Sequence[Sequence[Optional[int]]],
    policy: str,
    rng: np.random.Generator,
) -> tuple[list[Assignment], list[int]]:
    """Seed one full assignment per replica.

    posterior_draw samples the missing coordinates jointly from the
    conditional distribution under theta0; replicas of the same case draw
    independently so replication can express fractional mass immediately.
    Replicas whose observation has zero probability under theta0 fall back
    to a uniform draw; their indices are returned alongside.
    """
    if policy not in ("posterior_draw", "uniform_draw"):
        raise DataError(f"unknown completion policy {policy!r}")
    cards = theta0.cards
    out: list[Assignment] = [None] * len(replicated_cases)  # type: ignore
    fallbacks: list[int] = []

    groups: dict[tuple, list[int]] = {}
    for j, bound in enumerate(replicated_cases):
        groups.setdefault(tuple(bound), []).append(j)
    if policy == "posterior_draw":
        draw = pattern_table(theta0, list(groups)).sampler(theta0)

    for k, (bound, idxs) in enumerate(groups.items()):
        missing = [i for i, v in enumerate(bound) if v is None]
        if not missing:
            for j in idxs:
                out[j] = bound
            continue
        picks = draw(k, len(idxs), rng) if policy == "posterior_draw" else None
        if picks is not None:
            for j, x in zip(idxs, picks):
                out[j] = x
            continue
        if policy == "posterior_draw":
            fallbacks.extend(idxs)
        draws = {i: rng.integers(0, cards[i], size=len(idxs)) for i in missing}
        for t, j in enumerate(idxs):
            out[j] = tuple(
                bound[i] if bound[i] is not None else int(draws[i][t])
                for i in range(len(bound))
            )
    return out, fallbacks


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
    diags = validate_network(theta0)
    if diags:
        raise DataError("theta0 invalid: " + "; ".join(diags))
    if structure.n_assignments >= 1 << 62:
        raise BudgetError("joint space too large to index")

    case_bounds = []
    case_reps = []
    for pattern, w in data.cases:
        if w <= 0 or abs(w - round(w)) > 1e-9:
            raise DataError(
                "replication needs positive integer case weights; "
                f"got weight {w!r}"
            )
        case_bounds.append(bind_pattern(structure, data.variables, pattern))
        case_reps.append(int(round(w)) * opts.z)
    zn = sum(case_reps)
    rep_case = np.repeat(np.arange(len(case_bounds)), case_reps)

    rng = np.random.default_rng(opts.seed)
    rep_patterns = [case_bounds[c] for c in rep_case]
    completion, fallbacks = initial_completion(
        theta0, rep_patterns, opts.init_completion, rng
    )

    assign = [structure.ravel(x) for x in completion]
    counts: dict[int, int] = {}
    for r in assign:
        counts[r] = counts.get(r, 0) + 1

    case_moves = []
    for bound in case_bounds:
        case_moves.append(
            [
                (structure.ravel_strides[i], structure.cards[i])
                for i, v in enumerate(bound)
                if v is None
            ]
        )

    state = AimState(
        structure=structure,
        net=structure.with_cpts(theta0.cpts),
        z=opts.z,
        zn=zn,
        rep_case=rep_case,
        case_moves=case_moves,
        assign=assign,
        counts=counts,
        table=pattern_table(structure, list(dict.fromkeys(case_bounds))),
    )
    state.logp = state.table.log_evaluator(state.net, LOG_PROB_FLOOR)
    state.score = state.full_score()

    entropy = PatternDistribution.from_dataset(data).entropy
    trace: list[tuple[int, float, float]] = []
    score_prev = state.score
    converged = False
    net = state.net
    row_counts: list[np.ndarray] = []
    for it in range(1, opts.max_iters + 1):
        for _ in range(opts.sweeps_per_ai_step):
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
