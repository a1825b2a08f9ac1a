#!/usr/bin/env python3
"""SHA-256 digests of every AIM sweep and fit of the benchmark's inputs,
and of the likelihood solvers on the lik_reports inputs.

Runs `run_experiment` on each input of the asia_rows and large_dag tables
(perfbench/workloads.py, imported by path as perfbench/run.py does) and
hashes, in order:
  - after every `ai_sweep`: each occupied key (pattern, state) with its
    replicas, in key order, the counts in their dict order, the score
    `full_score` adds up from the occupied states' count terms, each
    computed from its count (as float hex), and the move count;
  - every EM and AIM result: the CPT bytes of its raw and smoothed network,
    and the AIM trace;
  - every summary row.
A second line hashes, for each lik_reports input (the first
`Sizes.lik_datasets` asia_rows inputs), the sat value and gap of
`SatProfileProblem(aim.network, data).solve(aim.network,
tol=likelihoods.SAT_TOL)` (1e-8, the `lik` default) and
`lr_statistic(aim.network, em.network, data)`, as float hex.
A third line hashes every dataset `generate_dataset` makes for those
inputs: its cases, its missing fraction (as float hex) and the generator's
`bit_generator.state` after the call.
A fourth line covers the clique-tree path, which the fits above reach only
through `Network.parent_weights`: for each input, the dataset is bound to
the network with `inference.DENSE_TABLE_BUDGET` patched to 0, so every
pattern takes the tree, and at the EM estimate it hashes the table's
`pattern_probs`, its `expected_counts`, the `initial_completion` draws of
one replica per case (seeded by the input's position) with the
generator's `bit_generator.state` after them, and the EM estimate's
`parent_weights`.
A fifth line lists, for each lik_reports input, the map evaluations at
every level that `lr_statistic` makes in the sat solver and in the car
normalizer, as plain integers, so a change in solver work shows as
plainly as a changed result.
A sixth line covers rows of 3 to 5 entries, which the binary asia and
large_dag networks lack: on a seeded 6-node DAG of 3- to 5-state nodes
(`WIDE`) it hashes the random truth, the dataset drawn from it, EM from a
random start and AIM from EM (raw and smoothed CPT bytes, row counts,
traces, score), `validate_network` of EM's estimate with its rows
stretched and one entry NaN, and `evaluate` of both smoothed estimates
(the decomposed divergence), as bytes and float hex.
A seventh line hashes the low and high bytes of `conservative_intervals`
on each input's dataset, with the input's network as the structure, and
on the `WIDE` DAG's dataset.
Two versions of the package that print the same digests make the same
datasets, draws, moves, counts, scores, estimates, solver values, tree
answers and conservative intervals, bit for bit, with the same solver
work.  `fit_digest.expected`, beside this script, holds the seven lines
of the current package: the script compares its lines with those, names
each line that differs on stderr, with the Python and numpy versions it
ran under, and exits 1 if any does.
A change that alters the digests on purpose updates that file.

    python3 scripts/fit_digest.py
"""

import hashlib
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().with_name("fit_digest.expected")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from coarsebn import aim, cli, em, inference, likelihoods  # noqa: E402
from coarsebn.coarsen import CoarseningSpec, build_coarsening_network  # noqa: E402
from coarsebn.conservative import conservative_intervals  # noqa: E402
from coarsebn.evaluate import evaluate  # noqa: E402
from coarsebn.network import (  # noqa: E402
    Network, NodeSpec, randomize_parameters, uniform_cpts, validate_network,
)

# (name, states, parents): every row has 3 to 5 entries
WIDE = (("A", 3, ()), ("B", 5, ("A",)), ("C", 4, ("A",)), ("D", 5, ("C", "B")),
        ("E", 3, ("D",)), ("F", 4, ("E", "C")))
WIDE_SEED = 11


def tree_parts(net, data, seed: int):
    """The tree path's answers for `data` at `net`, as bytes."""
    budget = inference.DENSE_TABLE_BUDGET
    inference.DENSE_TABLE_BUDGET = 0  # read when the table is built
    try:
        bound = inference.BoundDataset(net, data)
        table = bound.table
    finally:
        inference.DENSE_TABLE_BUDGET = budget
    assert not table.enumerated and len(bound.patterns) == len(bound.distinct)
    p_u, counts = table.expected_counts(net, bound.weights)
    rng = np.random.default_rng(seed)
    assign, fallbacks = aim.initial_completion(net, table, bound.case_pattern, rng)
    return (
        table.pattern_probs(net).tobytes(), p_u.tobytes(), counts.tobytes(),
        np.asarray(assign, dtype=np.int64).tobytes(), repr((fallbacks, rng.bit_generator.state)),
        net.parent_weights.tobytes(),
    )


def wide_inputs():
    """The `WIDE` DAG's random truth and the dataset drawn from it."""
    rng = np.random.default_rng(WIDE_SEED)
    specs = tuple(NodeSpec(n, tuple(f"s{j}" for j in range(c)), ps) for n, c, ps in WIDE)
    truth = randomize_parameters(uniform_cpts(Network("wide", specs, ())), rng)
    mech = build_coarsening_network(truth, CoarseningSpec.parse("2:0.1:0.05"), rng)
    return truth, cli.generate_dataset(mech, 300, rng)[0]


def wide_parts(truth, data):
    """Fits, checks and scores on the `WIDE` DAG, as bytes."""
    em_res = em.em_fit(truth, data, em.EmOptions(init="random", seed=WIDE_SEED))
    aim_res = aim.aim_fit(truth, em_res.network, data, aim.AimOptions(z=3, seed=WIDE_SEED))
    stretched = em_res.network.theta * 1.5 - 0.1
    stretched[7] = np.nan
    parts = [truth.theta.tobytes(), repr(data.cases)]
    for res in (em_res, aim_res):
        parts += [res.network.theta.tobytes(), res.smoothed.theta.tobytes(),
                  np.hstack(res.row_counts).tobytes(), repr(res.trace)]
        report = evaluate(truth, res.smoothed)
        parts.append(repr((report.ce.hex(), report.mse.hex())))
    parts += [aim_res.score.hex(), repr(validate_network(truth.with_theta(stretched)))]
    return parts


def main() -> int:
    digest, lik_digest, data_digest = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    tree_digest, conservative_digest = hashlib.sha256(), hashlib.sha256()

    def put_intervals(net, data) -> None:
        for end in conservative_intervals(net, data):
            conservative_digest.update(end.tobytes())

    sweeps = fits = datasets = 0
    last = {}

    def put(*parts) -> None:
        for part in parts:
            digest.update(part if isinstance(part, bytes) else repr(part).encode())

    def put_networks(res) -> None:
        for net in (res.network, res.smoothed):
            for cpt in net.cpts:
                put(np.ascontiguousarray(cpt, dtype=np.float64).tobytes())

    sweep, em_fit, aim_fit, generate = aim.ai_sweep, em.em_fit, aim.aim_fit, cli.generate_dataset
    fixed_point = likelihoods._fixed_point
    solver_evals = {"sat": [], "car": []}

    def counted_fixed_point(evaluate, x, tol, max_evals, name, support):
        evals = solver_evals[name[:3]]
        evals.append(0)

        def counted(x, *level):  # every level, image alone included
            evals[-1] += 1
            return evaluate(x, *level)

        return fixed_point(counted, x, tol, max_evals, name, support)

    def traced_generate(augmented, n, rng):
        nonlocal datasets
        data, pct_missing = generate(augmented, n, rng)
        datasets += 1
        last["data"] = data
        state = rng.bit_generator.state
        data_digest.update(repr((data.cases, pct_missing.hex(), state)).encode())
        return data, pct_missing

    def traced_sweep(state):
        nonlocal sweeps
        sweep(state)
        sweeps += 1
        put([(key, reps) for key, reps in zip(state.key, state.members) if reps],
            list(state.counts.items()), state.full_score().hex(), state._moves)
        return state

    def traced_em(*args, **kwargs):
        nonlocal fits
        res = em_fit(*args, **kwargs)
        fits += 1
        last["em"] = res
        put_networks(res)
        put([(it, ll.hex(), ex.hex()) for it, ll, ex in res.trace])
        return res

    def traced_aim(*args, **kwargs):
        nonlocal fits
        res = aim_fit(*args, **kwargs)
        fits += 1
        last["aim"] = res
        put_networks(res)
        put([(it, s.hex(), b.hex()) for it, s, b in res.trace])
        return res

    aim.ai_sweep, em.em_fit, aim.aim_fit = traced_sweep, traced_em, traced_aim
    cli.generate_dataset = traced_generate
    try:
        sizes = workloads.Sizes()
        for i, cfg in enumerate(workloads.asia_table(sizes) + workloads.dag_table(sizes)):
            rows, failures = cli.run_experiment(cfg)
            if failures:
                print("; ".join(failures), file=sys.stderr)
                return 1
            put([(k, v.hex() if isinstance(v, float) else v) for k, v in rows[0].items()])
            put_intervals(cfg.net, last["data"])
            for part in tree_parts(last["em"].network, last["data"], i):
                tree_digest.update(part if isinstance(part, bytes) else part.encode())
            if i < sizes.lik_datasets:
                net, data = last["aim"].network, last["data"]
                problem = likelihoods.SatProfileProblem(net, data)
                value, _, _, gap = problem.solve(net, tol=likelihoods.SAT_TOL)
                likelihoods._fixed_point = counted_fixed_point
                try:
                    lr = likelihoods.lr_statistic(net, last["em"].network, data)
                finally:
                    likelihoods._fixed_point = fixed_point
                lik_digest.update(repr((value.hex(), gap.hex(), lr.hex())).encode())
    finally:
        aim.ai_sweep, em.em_fit, aim.aim_fit = sweep, em_fit, aim_fit
        cli.generate_dataset = generate
    truth, data = wide_inputs()
    put_intervals(truth, data)
    wide = hashlib.sha256("".join(map(repr, wide_parts(truth, data))).encode()).hexdigest()
    lines = [
        f"{digest.hexdigest()}  ({sweeps} sweeps, {fits} fits)",
        f"{lik_digest.hexdigest()}  ({sizes.lik_datasets} lik inputs)",
        f"{data_digest.hexdigest()}  ({datasets} datasets)",
        f"{tree_digest.hexdigest()}  ({i + 1} tree inputs)",
        "  ".join(f"{name} {' '.join(map(str, evals))}" for name, evals in solver_evals.items())
        + f"  ({sum(map(sum, solver_evals.values()))} lr map evaluations)",
        f"{wide}  (wide rows)",
        f"{conservative_digest.hexdigest()}  ({i + 2} conservative inputs)",
    ]
    print("\n".join(lines))
    expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    differs = [n for n in range(max(len(lines), len(expected)))
               if lines[n : n + 1] != expected[n : n + 1]]
    for n in differs:
        got = lines[n] if n < len(lines) else "(none)"
        want = expected[n] if n < len(expected) else "(none)"
        print(f"line {n + 1} differs: expected {want}, got {got}", file=sys.stderr)
    if differs:
        print(f"ran under Python {platform.python_version()}, numpy {np.__version__}",
              file=sys.stderr)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
