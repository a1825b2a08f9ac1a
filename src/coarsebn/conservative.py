"""Conservative inference: the estimates of every completion of the data.

Each case picks its completion on its own, and an estimate is monotone in
each case's choice, so its range over all completions has a closed form
(Ramoni & Sebastiani 2001; Zaffalon 2002): per CPT entry
(`conservative_intervals`) and per single-variable marginal
(`marginal_bounds`).
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import DataError
from .inference import BoundDataset, bind
from .network import Network


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


def conservative_intervals(
    structure: Network, data: Dataset | BoundDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Each CPT entry's exact range, over every completion of the data, of
    the smoothed ML estimate (n(x, pa) + 1) / (n(pa) + card), as two
    arrays (low, high) laid out as theta.

    For entry (r, s), a case sitting in row r at another state gives the
    least estimate, one leaving row r the next and one at (r, s) the
    greatest, whatever the other cases do; so each end takes every case's
    extreme move.  Low: only the cases that must sit at (r, s) count for
    it.  High: only the cases that must sit in row r elsewhere count
    against it.
    """
    bound = bind(structure, data)
    ends = structure.family_cells[1]
    low, high = np.empty(ends[-1]), np.empty(ends[-1])
    for i, card in enumerate(structure.cards):
        # the family's pattern weights, a missing value as one more state
        family = [*structure.parent_index[i], i]
        radix = np.array(structure.cards)[family] + 1
        rows = bound.rows[:, family]
        cells = np.ravel_multi_index(np.where(rows < 0, radix - 1, rows).T, radix)
        w = np.bincount(cells, bound.weights, radix.prod()).reshape(radix)
        fixed = w[tuple(slice(c - 1) for c in radix)].reshape(-1, card)  # fully observed
        for axis, c in enumerate(radix[:-1]):  # a missing parent can take any row
            w = w.take(range(c - 1), axis) + w.take([c - 1], axis)
        w = w.reshape(-1, card + 1)  # (row, state or missing) of the cases that may sit in it
        at, can = w[:, :card], w[:, :card] + w[:, card:]
        fixed_row, in_row = fixed.sum(axis=1, keepdims=True), w.sum(axis=1, keepdims=True)
        low[ends[i]:ends[i + 1]] = ((fixed + 1) / (fixed + in_row - at + card)).ravel()
        high[ends[i]:ends[i + 1]] = ((can + 1) / (can + fixed_row - fixed + card)).ravel()
    return low, high


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
