"""Estimate quality relative to a ground-truth network.

The divergence KL(P_truth || P_estimate) is computed two ways: by direct
enumeration of the joint space, and decomposed over CPT rows weighted by
the truth's parent-configuration probabilities.  The two agree exactly
whenever the networks share a structure, and the decomposition also works
on joint spaces far too large to enumerate: its weights are the truth's
`Network.parent_weights`, one calibration per truth network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DataError
from .inference import full_joint_table
from .network import ENUM_BUDGET, Network, row_totals


@dataclass
class EvalReport:
    ce: float
    mse: float


def _same_domains(a: Network, b: Network) -> bool:
    return len(a.nodes) == len(b.nodes) and all(
        sa.name == sb.name and sa.states == sb.states
        for sa, sb in zip(a.nodes, b.nodes)
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


def kl_decomposed(truth: Network, estimate: Network) -> float:
    """Same divergence, as truth-weighted per-row divergences.

    Valid for identical structures; parent-configuration probabilities are
    the truth's family marginals summed over the child, all from one
    clique-tree calibration (`Network.parent_weights`), so no full-space
    enumeration is needed.  Rows of parent weight exactly zero are skipped.
    The rows' divergences are one bincount over theta; each node's rows
    are then one dot, in node order.
    """
    if truth.nodes != estimate.nodes:
        raise DataError("networks must share the same structure")
    w = truth.parent_weights
    t, e = truth.theta, estimate.theta
    live = (w[truth.entry_rows[0]] != 0.0) & (t > 0)
    if np.any(e[live] <= 0):
        return float("inf")
    log_t = np.log(t, out=np.zeros_like(t), where=live)
    log_e = np.log(e, out=np.zeros_like(e), where=live)
    row_kl = row_totals(truth, t * (log_t - log_e))
    return sum(float(w[rows] @ row_kl[rows]) for rows in truth.node_rows)


def mse(truth: Network, estimate: Network) -> float:
    """Mean squared difference over all CPT entries, flattened equally."""
    if truth.nodes != estimate.nodes:
        raise DataError("networks must share the same structure")
    num = 0.0
    den = 0
    for t, e in zip(truth.cpts, estimate.cpts):
        num += float(((e - t) ** 2).sum())
        den += t.size
    return num / den


def evaluate(truth: Network, estimate: Network) -> EvalReport:
    """Score a (smoothed) estimate against the truth: on a shared structure
    the decomposed KL and the MSE, else the enumerated KL alone."""
    if truth.nodes == estimate.nodes:
        return EvalReport(kl_decomposed(truth, estimate), mse(truth, estimate))
    return EvalReport(kl_enumerate(truth, estimate), float("nan"))
