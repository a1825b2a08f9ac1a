"""Estimate quality relative to a ground-truth network.

The divergence KL(P_truth || P_estimate) is computed two ways: by direct
enumeration of the joint space, and decomposed over CPT rows weighted by
the truth's parent-configuration probabilities.  The two agree exactly
whenever the networks share a structure, and the decomposition also works
on joint spaces far too large to enumerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DataError
from .inference import full_joint_table, joint_marginal
from .network import ENUM_BUDGET, Network, smooth


@dataclass
class EvalReport:
    method: str
    ce: float
    mse: float
    pct_missing: float | None = None


def _same_domains(a: Network, b: Network) -> bool:
    return len(a.nodes) == len(b.nodes) and all(
        sa.name == sb.name and sa.states == sb.states
        for sa, sb in zip(a.nodes, b.nodes)
    )


def same_structure(a: Network, b: Network) -> bool:
    return _same_domains(a, b) and all(
        sa.parents == sb.parents for sa, sb in zip(a.nodes, b.nodes)
    )


def kl_enumerate(truth: Network, estimate: Network) -> float:
    """KL(P_truth || P_estimate) by summing over the whole joint space.

    Zero truth mass contributes nothing; truth mass on an estimate zero
    yields +inf (the reason final estimates get smoothed first).
    """
    if not _same_domains(truth, estimate):
        raise DataError("networks have different nodes or state sets")
    if truth.n_assignments > ENUM_BUDGET:
        raise BudgetError("joint space too large to enumerate; use the decomposition")
    pt = full_joint_table(truth).reshape(-1)
    pe = full_joint_table(estimate).reshape(-1)
    pos = pt > 0
    if np.any(pe[pos] <= 0):
        return float("inf")
    return float(np.dot(pt[pos], np.log(pt[pos]) - np.log(pe[pos])))


def _row_kl(t: np.ndarray, e: np.ndarray) -> float:
    pos = t > 0
    if np.any(e[pos] <= 0):
        return float("inf")
    return float(np.dot(t[pos], np.log(t[pos]) - np.log(e[pos])))


def kl_decomposed(truth: Network, estimate: Network) -> float:
    """Same divergence, as truth-weighted per-row divergences.

    Valid for identical structures; parent-configuration probabilities come
    from variable elimination, so no full-space enumeration is needed.
    """
    if not same_structure(truth, estimate):
        raise DataError("networks must share the same structure")
    total = 0.0
    for i, spec in enumerate(truth.nodes):
        if spec.parents:
            w = joint_marginal(truth, list(spec.parents)).reshape(-1)
        else:
            w = np.array([1.0])
        for r in range(truth.cpts[i].shape[0]):
            if w[r] == 0.0:
                continue
            term = _row_kl(truth.cpts[i][r], estimate.cpts[i][r])
            if math.isinf(term):
                return float("inf")
            total += w[r] * term
    return total


def mse(truth: Network, estimate: Network) -> float:
    """Mean squared difference over all CPT entries, flattened equally."""
    if not same_structure(truth, estimate):
        raise DataError("networks must share the same structure")
    num = 0.0
    den = 0
    for t, e in zip(truth.cpts, estimate.cpts):
        num += float(((e - t) ** 2).sum())
        den += t.size
    return num / den


def evaluate(
    truth: Network,
    raw_estimate: Network,
    row_counts,
    method: str = "",
    pct_missing: float | None = None,
) -> EvalReport:
    """Smooth the raw estimate, then score it against the truth."""
    est = smooth(raw_estimate, row_counts)
    if same_structure(truth, est):
        ce = kl_decomposed(truth, est)
    else:
        ce = kl_enumerate(truth, est)
        est_mse = float("nan")
        return EvalReport(method, ce, est_mse, pct_missing)
    return EvalReport(method, ce, mse(truth, est), pct_missing)
