#!/usr/bin/env python3
"""Reproduce the desk-scale comparison rows: EM vs adjusting imputation.

Each row generates `runs` incomplete datasets, fits EM from uniform rows,
refits with the adjusting-imputation procedure initialized at the EM
estimate, and scores both against the generating network.  Results land in
results/<row>.csv with a trailing mean±std summary row.

    python3 scripts/run_table_rows.py --rows basic asia_base --runs 20
"""

import argparse
import sys
from pathlib import Path

from coarsebn.cli import ExperimentConfig, run_experiment, write_experiment_csv
from coarsebn.coarsen import CoarseningSpec
from coarsebn.netformat import read_network
from coarsebn.util import fixture_path

ROWS = {
    # name: (network fixture, coarsening or None, fixed mechanism, n, z)
    "basic": ("basic.net", None, "basic_mech.net", 1000, 10),
    "asia_base": ("asia.net", "2:0.1:0.05", None, 1000, 5),
    "asia_n500": ("asia.net", "2:0.1:0.05", None, 500, 5),
    "asia_n2000": ("asia.net", "2:0.1:0.05", None, 2000, 5),
    "asia_mp0": ("asia.net", "0:0.1:0.05", None, 1000, 5),
    "asia_mp8": ("asia.net", "8:0.1:0.05", None, 1000, 5),
    "asia_z1": ("asia.net", "2:0.1:0.05", None, 1000, 1),
    "asia_z10": ("asia.net", "2:0.1:0.05", None, 1000, 10),
    "asia_mar": ("asia.net", "2:0.1:0.00", None, 1000, 5),
    "alarm_like": ("alarm_like.net", "2:0.1:0.05", None, 1000, 5),
}


def count(text: str) -> int:
    """A count argument: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1; got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", nargs="+", default=["basic", "asia_base"],
                        choices=sorted(ROWS), help="which rows to run")
    parser.add_argument("--runs", type=count, default=20)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.rows:
        net_file, coarsening, mech_file, n, z = ROWS[name]
        cfg = ExperimentConfig(
            net=read_network(fixture_path(net_file)),
            coarsening=CoarseningSpec.parse(coarsening) if coarsening else None,
            mechanism=read_network(fixture_path(mech_file)) if mech_file else None,
            n=n,
            z=z,
            runs=args.runs,
            seed=args.seed,
        )
        rows, failures = run_experiment(cfg)
        out = out_dir / f"{name}.csv"
        write_experiment_csv(str(out), rows)
        summary = rows and {
            k: sum(r[k] for r in rows) / len(rows)
            for k in ("pct_missing", "ce_diff", "mse_diff", "score")
        }
        print(f"{name}: {len(rows)} runs -> {out}")
        if summary:
            print(
                f"  mean pct_missing {summary['pct_missing']:.3f}  "
                f"ce_diff {summary['ce_diff']:+.4f}  "
                f"mse_diff {summary['mse_diff']:+.5f}  "
                f"score {summary['score']:.4f}"
            )
        for f in failures:
            print(f"  FAILED {f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
