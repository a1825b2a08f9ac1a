"""Log-likelihoods for incomplete data under different missingness models.

Three quantities per (network, dataset) pair:

* face value: each case contributes log P(X in U), ignoring how the data
  came to be incomplete;
* car profile: face value plus a theta-independent normalizer obtained by
  maximizing the pattern probabilities over mechanisms that treat every
  state inside a pattern identically;
* sat profile: the maximum over completely unrestricted mechanisms.  Per
  unit weight it equals -H(m) - min_c KL(P_c || P_theta), where m is the
  empirical pattern distribution and c ranges over data completions; the
  inner minimum is a convex program solved here by SQUAREM-accelerated
  multiplicative updates with a Frank-Wolfe gap certificate, so the
  returned value is always a valid lower bound and is within `tol` of the
  true value at convergence.

The sat updates and the car normalizer's iterative scaling are both
monotone fixed-point maps, accelerated by one shared SQUAREM step
(Varadhan & Roland 2008); each stops only on its own certificate.
Multiplicative updates shrink a member that the optimum leaves empty only
geometrically, so between SQUAREM cycles each solver also takes a support
step (after Groeneboom, Jongbloed & Wellner 2008): first when a point's gap
falls below 1e-2, then each time the gap has fallen fourfold, every member
the optimality conditions mark as empty and that holds less than a small
share of its scale goes back to a toehold of 1e-12 of that scale.  The sat
profile marks a slot whose g = log(p_c / P) exceeds its pattern's minimum
by more than the gap, below 2e-4 of the pattern's mass m(U); the car
normalizer marks a member with r(x) < 1 - gap, below 1e-3 of the largest
member.  The reset point costs one map evaluation and is kept only if its
loss is no higher, so the loss still never rises from cycle to cycle, and
every value stays a certified bound within tol.

Each report takes a dataset, or one already bound to a network of the
same structure (`BoundDataset`), which groups and binds the patterns once
and builds at most one pattern table.  The sat and car profiles need
every pattern enumerated, and refuse a dataset above their budgets
(`DENSE_TABLE_BUDGET`, `CAR_MEMBER_BUDGET`).  The lr statistic binds once
and passes that bound dataset to the sat solve and the car profile, so
the face value, the car normalizer and the sat solve all read one table;
its two candidate networks must therefore share one structure.

All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import Completion, CoarsePattern, Dataset
from .errors import DataError, NumericalError, ZeroSupportError
from .inference import DENSE_TABLE_BUDGET, BoundDataset, bind, face_value_sum
from .network import Network, unravel_rows

CAR_MEMBER_BUDGET = 4 << 20
CAR_TOL = 1e-10


@dataclass
class LikelihoodReport:
    kind: str  # "face_value" | "sat_profile" | "car_profile"
    per_case_average: float
    total: float
    certificate: Completion | dict[CoarsePattern, float] | None = None


def face_value_loglik(net: Network, data: Dataset | BoundDataset) -> LikelihoodReport:
    """Sum of case weights times log P(X in U); -inf is a value, not an error."""
    bound = bind(net, data)
    ll, excluded = face_value_sum(bound.weights, bound.table.pattern_probs(net))
    total = ll if excluded == 0 else float("-inf")
    return LikelihoodReport("face_value", total / bound.total, total)


class _Point(NamedTuple):
    """One map evaluation at a point: the loss there (which the map never
    raises), the point's stopping certificate, the point's image, and the
    per-coordinate quantity whose optimality conditions a support step
    reads (g for the sat profile, r for the car normalizer)."""

    loss: float
    gap: float
    image: np.ndarray
    kkt: np.ndarray | None = None


_CYCLE_EVALS = 4
# The support step's schedule, reset shares and toehold (see the module
# docstring), measured against first steps 1e-1 to 1e-3, schedules 1.5- to
# 10-fold, shares 3e-3 to 1e-4 and toeholds 1e-8 to 1e-16.  `lr_statistic`
# over the 25 asia_rows inputs of perfbench makes 5,735 map evaluations
# (9,945 with no support step), and a sat solve warmed from another theta
# stays cheaper than a cold one.  The sat share is the smaller because a
# sat member the optimum needs at a small share of its pattern, on a state
# that other patterns fill, regrows from the toehold only at the rate by
# which its g trails the pattern's mean: at a share of 1e-3, 5 of 1,000
# small random datasets (DAGs of 1-5 nodes, 20-400 cases) took 3 to 8
# times the evaluations of the loop with no support step, and another 75
# times; at 2e-4 none of the 1,000 took more than 1.6 times.
_SUPPORT_FIRST = 1e-2
_SUPPORT_EVERY = 4.0
_SAT_EMPTY_SHARE = 2e-4
_CAR_EMPTY_SHARE = 1e-3
_TOEHOLD = 1e-12
# The sat map keeps every feasible slot at least this large, so no member
# underflows to an exact zero it could never leave.
_SAT_FLOOR = 1e-300


def _squarem_cycle(
    evaluate: Callable[[np.ndarray], _Point], x: np.ndarray, at_x: _Point, tol: float
) -> tuple[np.ndarray, _Point, int]:
    """One SQUAREM-3 cycle (Varadhan & Roland 2008) from x, at_x = evaluate(x).

    With x1 = F(x), x2 = F(x1), r = x1 - x and v = x2 - x1 - r, the cycle
    jumps to x - 2a r + a^2 v, where a = min(-|r|/|v|, -1).  While the jump
    would change the sign of an entry of x2 (make a positive entry
    non-positive, or an underflowed zero non-zero), a is halved towards -1,
    down to -2; if even that fails, the cycle ends at x2, the plain double
    step (a = -1).  Otherwise it evaluates F(jump) and keeps it if its loss
    is no worse than x2's, so the loss never rises from cycle to cycle.  A
    rejected F(jump) still ends the solve if its own gap is within tol:
    every image of the map is a feasible point, so its certificate holds.

    Returns the next point, its evaluation and the number of evaluations
    made (at most _CYCLE_EVALS), stopping early at x1 or x2 if its gap is
    within tol.
    """
    x1 = at_x.image
    at_x1 = evaluate(x1)
    if at_x1.gap <= tol:
        return x1, at_x1, 1
    x2 = at_x1.image
    at_x2 = evaluate(x2)
    if at_x2.gap <= tol:
        return x2, at_x2, 2
    r = x1 - x
    v = x2 - x1 - r
    vv = float(v @ v)
    a = min(-math.sqrt(float(r @ r) / vv), -1.0) if vv > 0 else -1.0
    sign = np.sign(x2)
    while a < -1.0:
        jump = x - 2.0 * a * r + (a * a) * v
        if np.array_equal(np.sign(jump), sign):
            break
        a = (a - 1.0) / 2.0 if a < -2.0 else -1.0
    else:
        return x2, at_x2, 2
    landed = evaluate(jump).image
    at_landed = evaluate(landed)
    if at_landed.loss <= at_x2.loss or at_landed.gap <= tol:
        return landed, at_landed, 4
    return x2, at_x2, 4


def _fixed_point(
    evaluate: Callable[[np.ndarray], _Point],
    x: np.ndarray,
    tol: float,
    max_evals: int,
    name: str,
    support: Callable[[np.ndarray, _Point], np.ndarray | None] | None = None,
) -> tuple[np.ndarray, _Point]:
    """SQUAREM cycles from x until a point's gap is within tol.

    Between cycles, once the gap is below _SUPPORT_FIRST and then each time
    it has fallen _SUPPORT_EVERY-fold, `support(x, at_x)` may return x with
    its empty members reset to their toehold.  That point costs one
    evaluation and replaces x only if its loss is no higher.

    Returns that point and its evaluation.  Raises NumericalError at a NaN
    gap, which is not convergence, and rather than start a cycle or a reset
    evaluation that could pass max_evals map evaluations.
    """
    at_x = evaluate(x)
    evals = 1
    due = _SUPPORT_FIRST
    while not at_x.gap <= tol:
        if math.isnan(at_x.gap):
            raise NumericalError(f"{name} reached a NaN gap")
        reset = None
        if support is not None and at_x.gap < due:
            due = at_x.gap / _SUPPORT_EVERY
            reset = support(x, at_x)
        if evals + (_CYCLE_EVALS if reset is None else 1) > max_evals:
            raise NumericalError(
                f"{name} stalled at gap {at_x.gap:.3g} > tol {tol:.3g}"
            )
        if reset is None:
            x, at_x, made = _squarem_cycle(evaluate, x, at_x, tol)
            evals += made
            continue
        at_reset = evaluate(reset)
        evals += 1
        if at_reset.loss <= at_x.loss:
            x, at_x = reset, at_reset
    return x, at_x


def _reset(
    x: np.ndarray, empty: np.ndarray, scale: np.ndarray | float, share: float
) -> np.ndarray | None:
    """x with the members `empty` marks that hold less than `share` of
    `scale` and more than their toehold put back at the toehold, or None
    if there are none."""
    toehold = _TOEHOLD * scale
    empty = empty & (x > toehold) & (x < share * scale)
    return np.where(empty, toehold, x) if empty.any() else None


class SatProfileProblem:
    """Reusable pattern structure for the sat-profile inner minimization.

    Building the member table once lets a caller evaluate the profile
    value at many parameter settings (grids, per-iteration bounds) without
    re-binding the dataset.  Patterns of zero weight carry no mass and are
    left out.  `data` may also be a dataset already bound to `net`, whose
    member table is then shared.  A dataset whose members total more than
    DENSE_TABLE_BUDGET is refused.
    """

    def __init__(self, net: Network, data: Dataset | BoundDataset):
        self.bound = bind(net, data)
        self.table = self.bound.member_table(DENSE_TABLE_BUDGET)

    # ------------------------------------------------------------------

    def solve(
        self,
        net: Network,
        tol: float = 1e-8,
        init: np.ndarray | None = None,
        max_iters: int = 200_000,
    ) -> tuple[float, np.ndarray, float, float]:
        """Minimize KL(P_c || P_theta) over completions.

        Returns (per-unit log-likelihood value, per-slot mass w, achieved
        KL, final gap).  w sums to m within each pattern; the certificate
        completion is w / m.  max_iters bounds the map evaluations.
        """
        if not tol >= 0:
            raise DataError(f"tol must be a non-negative number; got {tol!r}")
        table, m = self.table, self.bound.m
        p_slot = table.probs(net)[table.loc]
        live = p_slot > 0
        n_live = np.add.reduceat(live.astype(np.int64), table.starts)
        if np.any(n_live <= 0):
            # Some pattern has zero probability under every completion.
            return float("-inf"), np.zeros(table.n_slots), float("inf"), 0.0

        if init is not None:
            init = np.asarray(init, dtype=np.float64)
            if init.shape != (table.n_slots,):
                raise DataError("bad initial completion shape")
            if not np.isfinite(init).all():
                raise DataError("initial completion has non-finite entries")
        # The iteration runs on the slots the model allows.
        slots = np.flatnonzero(live)
        loc, p = table.loc[slots], p_slot[slots]
        log_p = np.log(p)
        starts = np.cumsum(n_live) - n_live
        pat = table.pat_of_slot[slots]
        n_loc = len(table.uniq)
        w = np.ones(len(slots))
        if init is not None:
            # Half the caller's start and half the uniform one, per pattern:
            # a warm start whose support was shaped by a different theta
            # leaves no feasible slot so small that regrowing it costs more
            # than a cold start.
            w0 = np.maximum(init[slots], 0.0)
            total = np.add.reduceat(w0, starts)[pat]
            w = np.divide(w0, total, out=np.zeros(len(slots)), where=total > 0)
            w += 1.0 / n_live[pat]

        def renormalised(w: np.ndarray) -> np.ndarray:
            return w * (m / np.add.reduceat(w, starts))[pat]

        def evaluate(w: np.ndarray) -> _Point:
            # p_c at each slot's state; KL = sum_x p_c log(p_c / P) = sum of w * g
            p_c = np.maximum(np.bincount(loc, weights=w, minlength=n_loc)[loc], 1e-300)
            g = np.log(p_c) - log_p
            kl = float(w @ g)
            gap = kl - float(m @ np.minimum.reduceat(g, starts))
            # p / p_c first: w * p can underflow where p is tiny
            image = renormalised(np.maximum(w * (p / p_c), _SAT_FLOOR))
            return _Point(kl, gap, image, g)

        def support(w: np.ndarray, at_w: _Point) -> np.ndarray | None:
            # At an optimum g is smallest on every slot with mass; a slot
            # whose g exceeds its pattern's minimum by more than the gap is
            # marked empty.
            g = at_w.kkt
            empty = g - np.minimum.reduceat(g, starts)[pat] > at_w.gap
            reset = _reset(w, empty, m[pat], _SAT_EMPTY_SHARE)
            return None if reset is None else renormalised(reset)

        w, at_w = _fixed_point(
            evaluate, renormalised(w), tol, max_iters, "sat-profile solver", support
        )
        full = np.zeros(table.n_slots)
        full[slots] = w
        return -self.bound.entropy - at_w.loss, full, at_w.loss, at_w.gap

    def certificate_completion(self, w: np.ndarray) -> Completion:
        """Per-case completion distributions from a per-slot mass vector.

        A case of zero weight gets an empty distribution.
        """
        table, bound = self.table, self.bound
        per_pattern: dict[CoarsePattern, dict] = {}
        for pi, pattern in enumerate(bound.patterns):
            sel = slice(table.starts[pi], table.stops[pi])
            mass = w[sel] / bound.m[pi]
            live = mass > 0
            rows = unravel_rows(bound.net, table.uniq[table.loc[sel]][live]).tolist()
            per_pattern[pattern] = dict(zip(map(tuple, rows), mass[live].tolist()))
        dists = [per_pattern.get(pattern, {}) for pattern in bound.distinct]
        return Completion(tuple(map(dists.__getitem__, bound.case_pattern.tolist())))


def exact_sat_profile_loglik(
    net: Network,
    data: Dataset | BoundDataset,
    tol: float = 1e-8,
) -> LikelihoodReport:
    """Sat-profile log-likelihood with the optimal completion as certificate."""
    problem = SatProfileProblem(net, data)
    value, w, _, _ = problem.solve(net, tol=tol)
    cert = problem.certificate_completion(w) if math.isfinite(value) else None
    return LikelihoodReport("sat_profile", value, value * problem.bound.total, cert)


def car_normalizer(
    net: Network, data: Dataset | BoundDataset, tol: float = CAR_TOL
) -> tuple[float, dict[CoarsePattern, float]]:
    """Per-unit log of the best pattern-lambda product under the car constraint.

    Maximizes sum_U m(U) log lambda_U subject to, for every joint state x,
    sum over observed patterns containing x of lambda_U <= 1 (slack mass
    sits on unobserved self-patterns).  Solved through the dual: iterative
    scaling of a distribution q on the patterns' members, with
    lambda_U = m(U)/q(U) at the fixed point.  The returned certificate is
    always feasible; a pattern of zero weight gets lambda 0.
    """
    if not tol >= 0:
        raise DataError(f"tol must be a non-negative number; got {tol!r}")
    bound = bind(net, data)
    m = bound.m
    table = bound.member_table(CAR_MEMBER_BUDGET)
    loc, starts, pat_of_slot = table.loc, table.starts, table.pat_of_slot
    n = len(table.uniq)

    def evaluate(q: np.ndarray) -> _Point:
        q_u = np.add.reduceat(q[loc], starts)
        r = np.bincount(loc, weights=(m / q_u)[pat_of_slot], minlength=n)
        step = q * r
        return _Point(-float(m @ np.log(q_u)), float(r.max()) - 1.0, step / step.sum(), r)

    def support(q: np.ndarray, at_q: _Point) -> np.ndarray | None:
        # At the optimum r = 1 on every member with mass and r <= 1
        # elsewhere; a member with r < 1 - gap is marked empty.
        reset = _reset(q, at_q.kkt < 1.0 - at_q.gap, float(q.max()), _CAR_EMPTY_SHARE)
        return None if reset is None else reset / reset.sum()

    q, at_q = _fixed_point(
        evaluate, np.full(n, 1.0 / n), tol / 2, 500_000, "car normalizer", support
    )
    lam = m / np.add.reduceat(q[loc], starts)
    lam = np.minimum(lam / max(1.0, 1.0 + at_q.gap), 1.0)
    log_f = float(np.dot(m, np.log(lam)))
    return log_f, dict.fromkeys(bound.distinct, 0.0) | dict(zip(bound.patterns, lam.tolist()))


def car_profile_loglik(net: Network, data: Dataset | BoundDataset) -> LikelihoodReport:
    """Face value plus the theta-independent car normalizer."""
    bound = bind(net, data)
    fv = face_value_loglik(net, bound)
    log_f, lam = car_normalizer(net, bound)
    per_case = fv.per_case_average + log_f
    return LikelihoodReport("car_profile", per_case, per_case * bound.total, lam)


def lr_statistic(net_sat: Network, net_car: Network, data: Dataset | BoundDataset) -> float:
    """Per-unit gap between the sat optimum and the car optimum.

    The caller supplies candidate optimizers for each side, which must share
    one structure: the dataset is bound once, and the sat solve, the face
    value and the car normalizer all read one member table.  A materially
    negative gap means the candidates were not optimal, which is reported
    rather than clamped away; so is a candidate under which an observed
    pattern has probability zero (ZeroSupportError).
    """
    if net_car.nodes != net_sat.nodes:
        raise DataError("the sat and car candidates must share one structure")
    bound = bind(net_sat, data)
    problem = SatProfileProblem(net_sat, bound)
    car = car_profile_loglik(net_car, bound).per_case_average
    sat, _, _, _ = problem.solve(net_sat)
    zero = [side for side, value in (("sat", sat), ("car", car)) if not math.isfinite(value)]
    if zero:
        raise ZeroSupportError(
            f"an observed pattern has probability zero under the {' and '.join(zero)} "
            f"candidate{'s' * (len(zero) > 1)} (sat {sat:.6g}, car {car:.6g} per case)"
        )
    stat = sat - car
    if stat < -1e-9:
        raise NumericalError(
            f"sat candidate scores {-stat:.3g} below the car candidate; "
            "pass converged optima"
        )
    return max(stat, 0.0)
