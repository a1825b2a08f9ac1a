"""The three workloads: their input tables, timed units and output checks.

asia_rows    One unit is one `run_experiment` run of the paper's headline
             row: asia.net, coarsening 2:0.1:0.05, n=1000, z=5.  Generate
             the data, fit EM, fit AIM from the EM estimate, evaluate both.
             The AIM sweep takes most of a unit; EM and inference take the
             dense-table path.
large_dag    The same pipeline on a seeded random binary DAG whose joint
             space exceeds DENSE_TABLE_BUDGET, so every dense/VE fork takes
             variable elimination.  EM's family posteriors take most of a
             unit; the AIM sweep almost none.  EM is capped at a few
             iterations: uncapped it needs 12-47 on such DAGs, and its
             per-iteration cost is what an inference change moves.  Cases
             are few enough that a run holds over 30 units, so the tail
             percentile lies above the median.
lik_reports  The `lik --which lr` computation, `lr_statistic` (sat profile
             at the AIM estimate plus car profile at the EM estimate), on
             asia_rows datasets whose fits are made during set-up.  No
             fitting is timed; the sat solver, face value (many small VE
             evidence queries) and the car normalizer share a unit.  The
             sat value and solver gap the checks need are computed once per
             dataset during set-up.

Each workload runs a fixed table of inputs drawn from TABLE_SEED: the
datasets, and for large_dag the DAG's structure and CPTs.  On asia a unit
costs 0.04 to 2.5 s depending on the dataset, and the divergences vary by
more than their mean, so drawing a fresh table per benchmark seed would put
that spread into every figure; the seed orders the units instead (see
run.py).

Every unit's output is checked against the paper's invariants (ROADMAP
aim 3); a violation or a CoarseBNError fails the unit, not the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from coarsebn import aim, cli, coarsen, em, likelihoods
from coarsebn.coarsen import CoarseningSpec
from coarsebn.inference import DENSE_TABLE_BUDGET
from coarsebn.netformat import read_network
from coarsebn.network import Network, NodeSpec, randomize_parameters, validate_network
from coarsebn.util import fixture_path

from tracing import rebind, unbind

TABLE_SEED = 2024
# One pass over each default table on a quiet 2-vCPU Intel Xeon, Python
# 3.11, numpy 2.4; run.py turns --seconds into a pass count with these.
# asia_rows costs 0.03 to 2 s a unit, so its sorted unit times fall into one
# cluster per input, one unit per pass.  25 inputs in 3 passes (at 20 s) put
# both the median (rank 38 of 75) and the tail (rank 65, ten units beyond)
# on the middle run of an input.  In 5 passes the tail would be the slowest
# of an input's five runs, and follow the machine's worst moment.
PASS_S = {"asia_rows": 6.9, "large_dag": 1.5, "lik_reports": 0.42}
COARSENING = "2:0.1:0.05"
Z = 5
DAG_NODES = 17
DAG_MAX_PARENTS = 2
SAT_TOL = 1e-8          # the `lik` default
MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    asia_runs: int = 25
    asia_cases: int = 1000
    dag_runs: int = 3
    dag_cases: int = 75
    dag_em_iters: int = 2
    lik_datasets: int = 9


class CheckFailed(Exception):
    """A unit's output violates one of the invariants."""


@dataclass(frozen=True)
class Outcome:
    """A unit's result figures; repeats of one input must match exactly."""

    aim_score: float
    ce_aim: float
    ce_em: float
    sat: float
    sat_gap: float
    lr: float | None = None


class Recorder:
    """Keeps the dataset and fits of the latest pipeline run for the checks.

    `run_experiment` returns only its summary row, so the dataset, EM and
    AIM results are taken from the calls it makes.  It is installed for the
    whole run, traced or not, and times nothing.
    """

    def __init__(self, modules):
        self.last: dict[str, Any] = {}
        self._undo: list = []
        for module, attr, key in (
            (coarsen, "generate_dataset", "data"),
            (em, "em_fit", "em"),
            (aim, "aim_fit", "aim"),
        ):
            fn = getattr(module, attr)
            self._undo += rebind(fn, self._keep(fn, key), modules)

    def _keep(self, fn, key):
        def keep(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.last[key] = out
            return out

        return keep

    def close(self) -> None:
        unbind(self._undo)


@dataclass
class Workload:
    setup: Callable[[], list]               # builds the input table
    unit: Callable[[Any], Any]              # the timed call
    check: Callable[[Any, Any], Outcome]    # raises CheckFailed
    signature: Callable[[list], Any]        # compared across set-ups
    pass_s: float                           # seconds per pass over the default table


def random_dag(rng: np.random.Generator, n_nodes: int, max_parents: int) -> Network:
    """Binary DAG: node i draws 0..max_parents parents among nodes < i."""
    specs, shells = [], []
    for i in range(n_nodes):
        k = int(rng.integers(0, min(max_parents, i) + 1))
        parents = sorted(int(j) for j in rng.choice(i, size=k, replace=False)) if k else []
        specs.append(NodeSpec(f"X{i:02d}", ("s0", "s1"), tuple(f"X{j:02d}" for j in parents)))
        shells.append(np.full((2**k, 2), 0.5))
    net = randomize_parameters(Network(f"dag{n_nodes}", tuple(specs), tuple(shells)), rng)
    if net.n_assignments <= DENSE_TABLE_BUDGET:
        raise ValueError(
            f"{n_nodes} binary nodes give {net.n_assignments} states, within the "
            f"dense budget {DENSE_TABLE_BUDGET}; large_dag must take the VE path"
        )
    return net


def _valid(net: Network) -> Network:
    diags = validate_network(net)
    if diags:
        raise ValueError("; ".join(diags))
    return net


def asia_table(sizes: Sizes) -> list[cli.ExperimentConfig]:
    net = _valid(read_network(fixture_path("asia.net")))
    spec = CoarseningSpec.parse(COARSENING)
    return [
        cli.ExperimentConfig(
            net=net, coarsening=spec, n=sizes.asia_cases, z=Z, runs=1, seed=TABLE_SEED + i
        )
        for i in range(sizes.asia_runs)
    ]


def dag_table(sizes: Sizes) -> list[cli.ExperimentConfig]:
    net = _valid(random_dag(np.random.default_rng(TABLE_SEED), DAG_NODES, DAG_MAX_PARENTS))
    spec = CoarseningSpec.parse(COARSENING)
    em_opts = em.EmOptions(init="uniform", max_iters=sizes.dag_em_iters)
    return [
        cli.ExperimentConfig(
            net=net, coarsening=spec, n=sizes.dag_cases, z=Z, runs=1,
            seed=TABLE_SEED + i, em_opts=em_opts,
        )
        for i in range(sizes.dag_runs)
    ]


def sat_profile(net: Network, data) -> tuple[float, float]:
    """The `lik --which sat` value per case and the solver's final gap."""
    problem = likelihoods.SatProfileProblem(net, data)
    value, _, _, gap = problem.solve(net, tol=SAT_TOL)
    return value, gap


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_fits(em_res, aim_res, sat: float, gap: float) -> None:
    """The EM, AIM and sat-solver invariants of ROADMAP aim 3."""
    lls = [ll for _, ll, _ in em_res.trace]
    _check(all(b >= a - MONOTONE_TOL for a, b in zip(lls, lls[1:])),
           f"EM face-value log-likelihood decreased: {lls}")
    scores = [s for _, s, _ in aim_res.trace]
    _check(all(b <= a + MONOTONE_TOL for a, b in zip(scores, scores[1:])),
           f"AIM surrogate increased: {scores}")
    _check(gap <= SAT_TOL, f"sat gap {gap:.3g} above tolerance {SAT_TOL:g}")
    bound = aim_res.trace[-1][2]
    _check(bound <= sat + MONOTONE_TOL,
           f"AIM lower bound {bound!r} above the sat profile {sat!r}")


@dataclass
class Pipeline:
    """One pipeline run's outputs: its summary row, dataset and fits."""

    row: dict
    data: Any
    em_res: Any
    aim_res: Any


def run_pipeline(cfg: cli.ExperimentConfig, recorder: Recorder) -> Pipeline:
    recorder.last.clear()
    rows, failures = cli.run_experiment(cfg)
    if failures:
        raise CheckFailed("; ".join(failures))
    data, _ = recorder.last["data"]
    return Pipeline(rows[0], data, recorder.last["em"], recorder.last["aim"])


def check_pipeline(cfg, run: Pipeline) -> Outcome:
    sat, gap = sat_profile(run.aim_res.network, run.data)
    check_fits(run.em_res, run.aim_res, sat, gap)
    return Outcome(run.row["score"], run.row["ce_final_aim"], run.row["ce_final_em"], sat, gap)


@dataclass
class LikInput:
    """A fitted dataset and the sat profile at its AIM estimate."""

    fit: Pipeline
    sat: float
    sat_gap: float


def lik_input(cfg: cli.ExperimentConfig, recorder: Recorder) -> LikInput:
    fit = run_pipeline(cfg, recorder)
    return LikInput(fit, *sat_profile(fit.aim_res.network, fit.data))


def lik_unit(inp: LikInput) -> float:
    """`lik --which lr`: a sat-car gap below -1e-9 raises NumericalError."""
    fit = inp.fit
    return likelihoods.lr_statistic(fit.aim_res.network, fit.em_res.network, fit.data)


def check_lik(inp: LikInput, lr: float) -> Outcome:
    fit = inp.fit
    check_fits(fit.em_res, fit.aim_res, inp.sat, inp.sat_gap)
    _check(lr >= 0.0, f"lr statistic {lr!r} below zero")
    row = fit.row
    return Outcome(
        row["score"], row["ce_final_aim"], row["ce_final_em"], inp.sat, inp.sat_gap, lr
    )


def _table_signature(cfgs) -> tuple:
    return tuple(
        (cfg.seed, cfg.n, tuple(t.tobytes() for t in cfg.net.cpts)) for cfg in cfgs
    )


def build(name: str, recorder: Recorder, sizes: Sizes = Sizes()) -> Workload:
    tables = {"asia_rows": asia_table, "large_dag": dag_table}
    if name in tables:
        return Workload(
            lambda: tables[name](sizes),
            lambda cfg: run_pipeline(cfg, recorder),
            check_pipeline,
            _table_signature,
            PASS_S[name],
        )
    if name == "lik_reports":
        def setup() -> list[LikInput]:
            return [lik_input(cfg, recorder) for cfg in asia_table(sizes)[: sizes.lik_datasets]]

        return Workload(
            setup, lik_unit, check_lik,
            lambda inps: tuple((tuple(sorted(i.fit.row.items())), i.sat) for i in inps),
            PASS_S[name],
        )
    raise ValueError(f"unknown workload {name!r}")
