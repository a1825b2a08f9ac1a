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
  inner minimum is a convex program solved here by multiplicative updates
  with a Frank-Wolfe gap certificate, so the returned value is always a
  valid lower bound and is within `tol` of the true value at convergence.

All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    Completion,
    CoarsePattern,
    Dataset,
    PatternDistribution,
    bind_pattern,
    evidence_of,
)
from .errors import BudgetError, DataError, NumericalError
from .inference import MemberTable, evidence_probability
from .network import ENUM_BUDGET, Network

SAT_AMBIGUITY_BUDGET = 100_000
CAR_MEMBER_BUDGET = 4 << 20


@dataclass
class LikelihoodReport:
    kind: str  # "face_value" | "sat_profile" | "car_profile"
    per_case_average: float
    total: float
    certificate: Completion | dict[CoarsePattern, float] | None = None


def face_value_loglik(net: Network, data: Dataset) -> LikelihoodReport:
    """Sum of case weights times log P(X in U); -inf is a value, not an error."""
    total = 0.0
    for pattern, w in data.grouped().items():
        if w == 0:
            continue
        p = evidence_probability(net, evidence_of(pattern, data.variables))
        if p <= 0.0:
            total = float("-inf")
            break
        total += w * math.log(p)
    weight = data.total_weight
    return LikelihoodReport("face_value", total / weight, total)


class SatProfileProblem(MemberTable):
    """Reusable pattern structure for the sat-profile inner minimization.

    Building the member table once lets a caller evaluate the profile
    value at many parameter settings (grids, per-iteration bounds) without
    re-binding the dataset.
    """

    def __init__(self, net: Network, data: Dataset):
        self.data = data
        grouped = data.grouped()
        total = data.total_weight
        self.patterns = list(grouped)
        self.m = np.array([grouped[p] / total for p in self.patterns])
        self.entropy = PatternDistribution.from_dataset(data).entropy
        bounds = [bind_pattern(net, data.variables, p) for p in self.patterns]
        super().__init__(net, bounds, SAT_AMBIGUITY_BUDGET)

    # ------------------------------------------------------------------

    def _member_probs(self, net: Network) -> np.ndarray:
        if tuple(net.cards) != tuple(self.net.cards):
            raise DataError("network does not match the bound dataset")
        return self.probs(net)

    def solve(
        self,
        net: Network,
        tol: float = 1e-8,
        init: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        max_iters: int = 200_000,
    ) -> tuple[float, np.ndarray, float, float]:
        """Minimize KL(P_c || P_theta) over completions.

        Returns (per-unit log-likelihood value, per-slot mass w, achieved
        KL, final gap).  w sums to m within each pattern; the certificate
        completion is w / m.
        """
        p_loc = self._member_probs(net)
        p_slot = p_loc[self.loc]

        alive = np.add.reduceat((p_slot > 0).astype(float), self.starts)
        if np.any(alive <= 0):
            # Some pattern has zero probability under every completion.
            return float("-inf"), np.zeros(self.n_slots), float("inf"), 0.0

        if init is not None:
            w = np.asarray(init, dtype=np.float64).copy()
            if w.shape != (self.n_slots,):
                raise DataError("bad initial completion shape")
        elif rng is not None:
            w = rng.random(self.n_slots)
        else:
            w = np.ones(self.n_slots)
        # Keep a toehold on every state the model allows, so a warm start
        # whose support was shaped by a different theta cannot lock the
        # solver out of newly feasible states.
        w = np.where(p_slot > 0, np.maximum(w, 1e-12), w)
        sums = np.add.reduceat(w, self.starts)
        w = w * (self.m / sums)[self.pat_of_slot]

        kl = float("inf")
        gap = float("inf")
        for _ in range(max_iters):
            p_c = np.bincount(self.loc, weights=w, minlength=len(self.uniq))
            pos = p_c > 0
            if np.any(pos & (p_loc <= 0)):
                kl = float("inf")
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    g_loc = np.where(pos, np.log(p_c) - np.log(p_loc), 0.0)
                kl = float(np.dot(p_c[pos], g_loc[pos]))
            with np.errstate(divide="ignore", invalid="ignore"):
                g_slot = np.where(
                    p_slot > 0,
                    np.log(np.maximum(p_c[self.loc], 1e-300)) - np.log(p_slot),
                    np.inf,
                )
            if math.isfinite(kl):
                mins = np.minimum.reduceat(g_slot, self.starts)
                gap = kl - float(np.dot(self.m, mins))
                if gap <= tol:
                    break
            denom = p_c[self.loc]
            w = np.where(w > 0, w * np.where(denom > 0, p_slot / np.maximum(denom, 1e-300), 0.0), 0.0)
            sums = np.add.reduceat(w, self.starts)
            if np.any(sums <= 0):
                return float("-inf"), w, float("inf"), 0.0
            w = w * (self.m / sums)[self.pat_of_slot]
        else:
            raise NumericalError(
                f"sat-profile solver stalled at gap {gap:.3g} > tol {tol:.3g}"
            )
        return -self.entropy - kl, w, kl, gap

    def certificate_completion(self, w: np.ndarray) -> Completion:
        """Per-case completion distributions from a per-slot mass vector."""
        per_pattern: dict[CoarsePattern, dict] = {}
        for pi, pattern in enumerate(self.patterns):
            sel = self.pat_of_slot == pi
            mass = w[sel] / self.m[pi]
            states = self.uniq[self.loc[sel]]
            per_pattern[pattern] = {
                self.net.unravel(int(r)): float(v)
                for r, v in zip(states, mass)
                if v > 0
            }
        return Completion(
            tuple(per_pattern[pattern] for pattern, _ in self.data.cases)
        )


def exact_sat_profile_loglik(
    net: Network,
    data: Dataset,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> LikelihoodReport:
    """Sat-profile log-likelihood with the optimal completion as certificate."""
    problem = SatProfileProblem(net, data)
    value, w, _, _ = problem.solve(net, tol=tol, rng=rng)
    cert = problem.certificate_completion(w) if math.isfinite(value) else None
    weight = data.total_weight
    return LikelihoodReport("sat_profile", value, value * weight, cert)


def car_normalizer(
    net: Network, data: Dataset, tol: float = 1e-10
) -> tuple[float, dict[CoarsePattern, float]]:
    """Per-unit log of the best pattern-lambda product under the car constraint.

    Maximizes sum_U m(U) log lambda_U subject to, for every joint state x,
    sum over observed patterns containing x of lambda_U <= 1 (slack mass
    sits on unobserved self-patterns).  Solved through the dual: iterative
    scaling of a distribution q on the joint space, with lambda_U = m(U)/q(U)
    at the fixed point.  The returned certificate is always feasible.
    """
    if net.n_assignments > ENUM_BUDGET:
        raise BudgetError(
            f"state space {net.n_assignments} exceeds the car budget"
        )
    grouped = data.grouped()
    total = data.total_weight
    patterns = list(grouped)
    m = np.array([grouped[p] / total for p in patterns])
    table = MemberTable(
        net, [bind_pattern(net, data.variables, p) for p in patterns], CAR_MEMBER_BUDGET
    )
    flat = table.uniq[table.loc]
    starts, pat_of_slot = table.starts, table.pat_of_slot

    n = int(net.n_assignments)
    q = np.full(n, 1.0 / n)
    max_iters = 500_000
    for _ in range(max_iters):
        q_u = np.add.reduceat(q[flat], starts)
        ratio = m / q_u
        r = np.zeros(n)
        np.add.at(r, flat, ratio[pat_of_slot])
        gap = float(r.max()) - 1.0
        if gap <= tol / 2:
            break
        q = q * r
        q /= q.sum()
    else:
        raise NumericalError(f"car normalizer stalled at gap {gap:.3g}")

    lam = m / q_u
    scale = max(1.0, float(r.max()))
    lam = np.minimum(lam / scale, 1.0)
    log_f = float(np.dot(m, np.log(lam)))
    return log_f, {p: float(l) for p, l in zip(patterns, lam)}


def car_profile_loglik(net: Network, data: Dataset) -> LikelihoodReport:
    """Face value plus the theta-independent car normalizer."""
    fv = face_value_loglik(net, data)
    log_f, lam = car_normalizer(net, data)
    per_case = fv.per_case_average + log_f
    return LikelihoodReport(
        "car_profile", per_case, per_case * data.total_weight, lam
    )


def lr_statistic(net_sat: Network, net_car: Network, data: Dataset) -> float:
    """Per-unit gap between the sat optimum and the car optimum.

    The caller supplies candidate optimizers for each side.  A materially
    negative gap means the candidates were not optimal, which is reported
    rather than clamped away.
    """
    sat = exact_sat_profile_loglik(net_sat, data).per_case_average
    car = car_profile_loglik(net_car, data).per_case_average
    stat = sat - car
    if stat < -1e-9:
        raise NumericalError(
            f"sat candidate scores {-stat:.3g} below the car candidate; "
            "pass converged optima"
        )
    return max(stat, 0.0)
