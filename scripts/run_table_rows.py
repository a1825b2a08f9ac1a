#!/usr/bin/env python3
"""Reproduce the desk-scale comparison rows: EM vs adjusting imputation.

Each row is one `coarsebn experiment` run: it generates `runs` incomplete
datasets, fits EM from uniform rows, refits with the adjusting-imputation
procedure initialized at the EM estimate, and scores both against the
generating network.  Results land in results/<row>.csv with a trailing
mean±std summary row, and the command's summary is printed per row.

    python3 scripts/run_table_rows.py --rows basic asia_base --runs 20
"""

import argparse
from pathlib import Path

from coarsebn import cli
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


def row_argv(name: str, runs: int, seed: int, out_dir: Path) -> list[str]:
    """The `coarsebn experiment` arguments of one row."""
    net_file, coarsening, mech_file, n, z = ROWS[name]
    if coarsening:
        source = ["--coarsening", coarsening]
    else:
        source = ["--mechanism", str(fixture_path(mech_file))]
    return [
        "experiment", "--net", str(fixture_path(net_file)), *source,
        "--n", str(n), "--z", str(z), "--runs", str(runs), "--seed", str(seed),
        "--out", str(out_dir / f"{name}.csv"),
    ]


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
    codes = [0]
    for name in args.rows:
        print(f"{name}: {out_dir / f'{name}.csv'}", flush=True)
        codes.append(cli.main(row_argv(name, args.runs, args.seed, out_dir)))
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
