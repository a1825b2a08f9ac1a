#!/usr/bin/env python3
"""SHA-256 digests of every AIM sweep and fit of the benchmark's inputs,
and of the likelihood solvers on the lik_reports inputs.

Runs `run_experiment` on each input of the asia_rows and large_dag tables
(perfbench/workloads.py, imported by path as perfbench/run.py does) and
hashes, in order:
  - after every `ai_sweep`: the replica completions `assign`, the counts
    in their dict order, the running score (as float hex) and the move count;
  - every EM and AIM result: the CPT bytes of its raw and smoothed network,
    and the AIM trace;
  - every summary row.
A second line hashes, for each lik_reports input (the first
`Sizes.lik_datasets` asia_rows inputs), the sat value and gap of
`SatProfileProblem(aim.network, data).solve(aim.network, tol=1e-8)` and
`lr_statistic(aim.network, em.network, data)`, as float hex.
A third line hashes every dataset `generate_dataset` makes for those
inputs: its cases, its missing fraction (as float hex) and the generator's
`bit_generator.state` after the call.
Two versions of the package that print the same digests make the same
datasets, draws, moves, counts, scores, estimates and solver values, bit
for bit.

    python3 scripts/fit_digest.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from coarsebn import aim, cli, em, likelihoods  # noqa: E402


def main() -> int:
    digest, lik_digest, data_digest = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
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

    def traced_generate(augmented, n, rng):
        nonlocal datasets
        data, pct_missing = generate(augmented, n, rng)
        datasets += 1
        state = rng.bit_generator.state
        data_digest.update(repr((data.cases, pct_missing.hex(), state)).encode())
        return data, pct_missing

    def traced_sweep(state):
        nonlocal sweeps
        sweep(state)
        sweeps += 1
        put(np.asarray(state.assign, dtype=np.int64).tobytes(),
            list(state.counts.items()), state.score.hex(), state._moves)
        return state

    def traced_em(*args, **kwargs):
        nonlocal fits
        res = em_fit(*args, **kwargs)
        fits += 1
        last["em"], last["data"] = res, args[1].data
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
            if i < sizes.lik_datasets:
                net, data = last["aim"].network, last["data"]
                value, _, _, gap = likelihoods.SatProfileProblem(net, data).solve(net, tol=1e-8)
                lr = likelihoods.lr_statistic(net, last["em"].network, data)
                lik_digest.update(repr((value.hex(), gap.hex(), lr.hex())).encode())
    finally:
        aim.ai_sweep, em.em_fit, aim.aim_fit = sweep, em_fit, aim_fit
        cli.generate_dataset = generate
    print(f"{digest.hexdigest()}  ({sweeps} sweeps, {fits} fits)")
    print(f"{lik_digest.hexdigest()}  ({sizes.lik_datasets} lik inputs)")
    print(f"{data_digest.hexdigest()}  ({datasets} datasets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
