"""Conservative inference: estimates from random completions.

Every completion of the data yields a legitimate complete-data estimate;
sampling completions and fitting each one gives an ensemble whose
component-wise envelope is an inner approximation of the full set
estimate.  Exact bounds are available for single-variable marginals,
where the extreme completions are obvious.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError
from .inference import BoundDataset, bind
from .network import Network, ml_estimate, smooth
from .util import check_int, stable_child_seed


def random_completion(
    net: Network, data: Dataset | BoundDataset, rng: np.random.Generator
) -> np.ndarray:
    """Fill every missing coordinate uniformly; returns one row per case."""
    bound = bind(net, data)
    rows = bound.distinct_rows[bound.case_pattern]
    for i in range(len(net.nodes)):
        hole = rows[:, i] < 0
        if hole.any():
            rows[hole, i] = rng.integers(0, net.cards[i], size=int(hole.sum()))
    return rows


@dataclass
class ConservativeResult:
    estimates: list[Network]          # smoothed, one per completion
    lower: list[np.ndarray]           # per node, cpt-shaped envelope
    upper: list[np.ndarray]
    midpoint: list[np.ndarray]


def conservative_ensemble(
    structure: Network, data: Dataset | BoundDataset, n_completions: int = 10, seed: int = 0
) -> ConservativeResult:
    """Fit one smoothed estimate per random completion and envelope them.

    Per-index child seeds make the ensemble independent of execution order,
    and growing n_completions only appends new members.  The reported
    intervals are component-wise minima and maxima over the sampled
    estimates: an inner approximation of the true set estimate.
    """
    check_int("n_completions", n_completions, 1)
    bound = bind(structure, data)
    estimates = []
    for r in range(n_completions):
        rng = np.random.default_rng(stable_child_seed(seed, r))
        rows = random_completion(structure, bound, rng)
        raw, row_counts = ml_estimate(structure, (rows, bound.case_weights))
        estimates.append(smooth(raw, row_counts))
    stack = np.stack([est.theta for est in estimates])
    lo, hi = stack.min(axis=0), stack.max(axis=0)
    envelope = [list(structure.with_theta(v).cpts) for v in (lo, hi, (lo + hi) / 2.0)]
    return ConservativeResult(estimates, *envelope)


def marginal_bounds(
    data: Dataset, variable: str, state: str, net: Network | None = None
) -> tuple[float, float, float]:
    """Exact bounds on P(variable = state) over all data completions.

    Low counts only cases observed at the state; high adds every case where
    the variable is missing.  Returns (low, high, midpoint).
    """
    if variable not in data.variables:
        raise DataError(f"unknown variable {variable!r}")
    if net is not None:
        net.state_index(variable, state)  # validates the label
    col = data.variables.index(variable)
    total = data.total_weight
    if total <= 0:
        raise DataError("total weight must be positive")
    # per pattern: observed at the state (0), missing (1) or neither; added in case order
    kind = np.array([0 if p[col] == state else 1 if p[col] is None else 2 for p in data.distinct])
    known, missing, _ = np.bincount(kind[data.case_pattern], data.case_weights, 3).tolist()
    low = known / total
    high = (known + missing) / total
    return low, high, (low + high) / 2.0
