#!/usr/bin/env python3
"""Conservative starting points vs adjusting-imputation refits.

For each generated incomplete dataset, fit one smoothed estimate per random
completion (a point of the conservative set estimate, whose per-entry range
`coarsebn.conservative.conservative_intervals` gives), then run the
adjusting-imputation procedure from each of those estimates and compare the
divergence to the truth before and after.  Shrinking values mean the
likelihood carries real information beyond the bare set estimate.

    python3 scripts/compare_conservative.py --datasets 4 --completions 10
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from coarsebn.aim import AimOptions, aim_fit
from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from coarsebn.conservative import random_completion
from coarsebn.evaluate import evaluate
from coarsebn.inference import BoundDataset
from coarsebn.netformat import read_network
from coarsebn.network import ml_estimate, smooth
from coarsebn.util import fixture_path, stable_child_seed


def count(text: str) -> int:
    """A count argument: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1; got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--net", default="asia.net", help="bundled fixture name")
    parser.add_argument("--coarsening", default="2:0.1:0.05")
    parser.add_argument("--n", type=count, default=1000)
    parser.add_argument("--datasets", type=count, default=4)
    parser.add_argument("--completions", type=count, default=10)
    parser.add_argument("--z", type=count, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="results/conservative_vs_aim.csv")
    args = parser.parse_args(argv)

    truth = read_network(fixture_path(args.net))
    spec = CoarseningSpec.parse(args.coarsening)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    rows = []
    for d in range(args.datasets):
        rng = np.random.default_rng(stable_child_seed(args.seed, d))
        mech = build_coarsening_network(truth, spec, rng)
        data, pct = generate_dataset(mech, args.n, rng)
        bound = BoundDataset(truth, data)
        for r in range(args.completions):
            crng = np.random.default_rng(stable_child_seed(args.seed, d, r))
            completed = random_completion(truth, bound, crng)
            start_raw, start_counts = ml_estimate(truth, (completed, bound.case_weights))
            ce_start = evaluate(truth, smooth(start_raw, start_counts)).ce
            refit = aim_fit(
                truth,
                start_raw,
                bound,
                AimOptions(z=args.z, seed=stable_child_seed(args.seed, d, r, "aim")),
            )
            ce_refit = evaluate(truth, refit.smoothed).ce
            rows.append(
                {
                    "dataset": d,
                    "pct_missing": pct,
                    "completion": r,
                    "ce_conservative": ce_start,
                    "ce_aim": ce_refit,
                    "score": refit.score,
                }
            )
        done = [x for x in rows if x["dataset"] == d]
        print(
            f"dataset {d} ({pct:.1%} missing): "
            f"mean ce {np.mean([x['ce_conservative'] for x in done]):.3f} -> "
            f"{np.mean([x['ce_aim'] for x in done]):.3f}"
        )

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
