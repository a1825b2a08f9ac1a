"""Expectation maximization on the face-value likelihood.

Doubles as the comparison baseline and as the default initializer for the
adjusting-imputation fitter.  The E step takes, per distinct observation
pattern, its probability and expected family counts from the dataset's
pattern table (`BoundDataset.table`): a pattern whose members fit the
table is summed over them, and the other patterns share one batched
calibration of the clique tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, ZeroSupportError
from .inference import BoundDataset, bind, face_value_sum
from .network import (
    Network,
    params_from_family_counts,
    randomize_parameters,
    smooth,
    start_network,
    uniform_cpts,
)
from .util import check_int


@dataclass
class EmOptions:
    tol: float = 1e-6          # minimum per-unit-weight log-likelihood gain
    max_iters: int = 200
    init: str | Network = "uniform"   # "uniform" | "random" | explicit network
    seed: int | None = None


@dataclass
class EmResult:
    network: Network                   # final unsmoothed estimate
    smoothed: Network
    row_counts: list[np.ndarray]       # expected parent-config counts
    trace: list[tuple[int, float, float]]  # iteration, ll per unit, excluded weight
    converged: bool

    @property
    def loglik_per_unit(self) -> float:
        return self.trace[-1][1]


def _init_network(structure: Network, opts: EmOptions) -> Network:
    if isinstance(opts.init, Network):
        return start_network(structure, opts.init)
    if opts.init == "uniform":
        return uniform_cpts(structure)
    if opts.init == "random":
        rng = np.random.default_rng(opts.seed)
        return randomize_parameters(uniform_cpts(structure), rng)
    raise DataError(f"unknown init {opts.init!r}")


def em_fit(
    structure: Network, data: Dataset | BoundDataset, opts: EmOptions | None = None
) -> EmResult:
    """Fit parameters by EM; the face-value log-likelihood never decreases.

    Observation patterns with zero probability under the current iterate
    are left out of that iteration's expected counts; their total weight is
    recorded in the trace, whose log-likelihood is then -inf.  The fit has
    converged once the excluded weight stays put and the log-likelihood of
    the other patterns gains less than tol per unit weight.  Fractional
    case weights are fine, and `data` may come bound already
    (`inference.bind`).
    """
    opts = opts or EmOptions()
    check_int("max_iters", opts.max_iters, 1)
    if not opts.tol >= 0:
        raise DataError(f"tol must be a non-negative number; got {opts.tol!r}")
    if opts.seed is not None:
        check_int("seed", opts.seed, 0)
    net = _init_network(structure, opts)
    bound = bind(structure, data)
    total_w = bound.total
    weights = bound.weights
    table = bound.table

    trace: list[tuple[int, float, float]] = []
    prev: tuple[float, float] | None = None
    converged = False
    for it in range(1, opts.max_iters + 1):
        p_u, counts = table.expected_counts(net, weights)
        ll, excluded = face_value_sum(weights, p_u)
        if not (p_u > 0.0).any():
            raise ZeroSupportError("every observation has zero probability")
        trace.append((it, ll / total_w if excluded == 0 else float("-inf"), excluded))
        if prev is not None and excluded == prev[1] and ll - prev[0] < opts.tol * total_w:
            converged = True
            break
        if it == opts.max_iters:
            break
        prev = (ll, excluded)
        net, _ = params_from_family_counts(structure, counts)

    row_counts = params_from_family_counts(structure, counts)[1]
    return EmResult(net, smooth(net, row_counts), row_counts, trace, converged)
