"""Estimate quality relative to a ground-truth network.

The divergence KL(P_truth || P_estimate) is computed two ways: by direct
enumeration of the joint space, and decomposed over CPT rows weighted by
the truth's parent-configuration probabilities.  The two agree exactly
whenever the networks share a structure, and the decomposition also works
on joint spaces far too large to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetError, DataError
from .inference import full_joint_table
from .network import ENUM_BUDGET, Network


@dataclass
class EvalReport:
    ce: float
    mse: float


class Truth:
    """A ground-truth network and its parent-configuration weights, from
    one calibration of its structure's clique tree made on first use, so
    that every estimate scored against one `Truth` shares it."""

    def __init__(self, net: Network):
        self.net = net

    @cached_property
    def parent_weights(self) -> np.ndarray:
        """P(parent configuration) of each CPT row, node after node."""
        _, fams = self.net.clique_tree.calibrate(self.net, np.full((1, len(self.net.nodes)), -1))
        return np.concatenate([fam[0].sum(axis=1) for fam in fams])


def _truth(truth: Network | Truth) -> Truth:
    return truth if isinstance(truth, Truth) else Truth(truth)


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


def kl_decomposed(truth: Network | Truth, estimate: Network) -> float:
    """Same divergence, as truth-weighted per-row divergences.

    Valid for identical structures; parent-configuration probabilities are
    the truth's family marginals summed over the child, all from one
    clique-tree calibration (`Truth.parent_weights`), so no full-space
    enumeration is needed.  Rows of parent weight exactly zero are skipped.
    The rows take one pass over theta; each node's is one dot, in node order.
    """
    truth = _truth(truth)
    if not same_structure(truth.net, estimate):
        raise DataError("networks must share the same structure")
    w = truth.parent_weights
    row_kl = np.empty(len(w))
    for rows, cells in truth.net.card_rows.values():
        t, e = truth.net.theta[cells], estimate.theta[cells]
        live = (w[rows] != 0.0)[:, None] & (t > 0)
        if np.any(e[live] <= 0):
            return float("inf")
        log_t = np.log(t, out=np.zeros_like(t), where=live)
        log_e = np.log(e, out=np.zeros_like(e), where=live)
        row_kl[rows] = (t * (log_t - log_e)).sum(axis=1)
    total = 0.0
    for rows in truth.net.node_rows:
        total += float(w[rows] @ row_kl[rows])
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


def evaluate(truth: Network | Truth, estimate: Network) -> EvalReport:
    """Score a (smoothed) estimate against the truth; pass a `Truth` to
    score several estimates from one calibration."""
    truth = _truth(truth)
    if same_structure(truth.net, estimate):
        return EvalReport(kl_decomposed(truth, estimate), mse(truth.net, estimate))
    return EvalReport(kl_enumerate(truth.net, estimate), float("nan"))
