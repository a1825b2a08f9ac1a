"""Command-line harness: data generation, learning, evaluation, likelihood
reports, and the seeded batch experiment.

Exit codes: 0 success, 1 usage, 2 data/format problem, 3 numerical failure
or out of memory.
Machine-readable CSV columns carry 17 significant digits; the console gets
6-digit summaries.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import aim as aim_mod
from . import em as em_mod
from .coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from .conservative import conservative_intervals
from .data import read_dataset, write_dataset
from .errors import CoarseBNError, DataError, FormatError, NumericalError
from .evaluate import evaluate
from .inference import BoundDataset
from .likelihoods import (
    SAT_TOL,
    LikelihoodReport,
    SatProfileProblem,
    car_profile_loglik,
    face_value_loglik,
    lr_statistic,
)
from .netformat import read_network, write_network
from .network import Network, randomize_parameters, row_totals, smooth, start_network
from .util import check_int, fmt17, stable_child_seed

EXPERIMENT_HEADER = [
    "run",
    "pct_missing",
    "ce_final_em",
    "ce_final_aim",
    "ce_diff",
    "mse_diff",
    "score",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer; got {text!r}")
    return int(text)


# ----------------------------------------------------------------------
# experiment


@dataclass
class ExperimentConfig:
    net: Network
    coarsening: CoarseningSpec | None
    n: int
    z: int
    runs: int
    seed: int
    mechanism: Network | None = None   # fixed mechanism instead of random ones
    em_opts: em_mod.EmOptions | None = None


def run_experiment(cfg: ExperimentConfig) -> tuple[list[dict], list[str]]:
    """Generate, fit, and score `runs` incomplete datasets.

    Per run: derive a child seed; build a coarsening mechanism (or use the
    fixed one); sample n cases and bind them to the network once; fit EM
    from uniform rows; fit the adjusting imputation procedure initialized
    at the EM estimate; evaluate both smoothed estimates against the truth,
    whose parent-configuration weights are calibrated once per network.
    Failures are recorded and the remaining runs continue.
    """
    if (cfg.coarsening is None) == (cfg.mechanism is None):
        raise FormatError("need one of a coarsening spec and a fixed mechanism")
    for name in ("n", "z", "runs"):
        check_int(name, getattr(cfg, name), 1)
    rows = []
    failures = []
    for r in range(cfg.runs):
        rng = np.random.default_rng(stable_child_seed(cfg.seed, r))
        try:
            mech = cfg.mechanism or build_coarsening_network(cfg.net, cfg.coarsening, rng)
            data, pct_missing = generate_dataset(mech, cfg.n, rng)
            bound = BoundDataset(cfg.net, data)
            em_res = em_mod.em_fit(cfg.net, bound, cfg.em_opts or em_mod.EmOptions())
            aim_opts = aim_mod.AimOptions(z=cfg.z, seed=stable_child_seed(cfg.seed, r, "aim"))
            aim_res = aim_mod.aim_fit(cfg.net, em_res.network, bound, aim_opts)
            rep_em = evaluate(cfg.net, em_res.smoothed)
            rep_aim = evaluate(cfg.net, aim_res.smoothed)
            rows.append(
                {
                    "run": r,
                    "pct_missing": pct_missing,
                    "ce_final_em": rep_em.ce,
                    "ce_final_aim": rep_aim.ce,
                    "ce_diff": rep_aim.ce - rep_em.ce,
                    "mse_diff": rep_aim.mse - rep_em.mse,
                    "score": aim_res.score,
                }
            )
        except CoarseBNError as exc:
            failures.append(f"run {r}: {exc}")
    return rows, failures


def _summary_cells(rows: list[dict]) -> dict[str, str]:
    cells = {"run": "summary"}
    for col in EXPERIMENT_HEADER[1:]:
        vals = [row[col] for row in rows if math.isfinite(row[col])]
        if not vals:
            cells[col] = ""
            continue
        mean = float(np.mean(vals))
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        cells[col] = f"{mean:.6g}±{std:.6g}"
    return cells


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ----------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args) -> int:
    net = read_network(args.net)
    spec = CoarseningSpec.parse(args.coarsening)
    rng = np.random.default_rng(args.seed)
    mech = build_coarsening_network(net, spec, rng)
    data, frac = generate_dataset(mech, args.n, rng)
    write_dataset(data, args.out)
    if args.emit_mechanism:
        write_network(mech, args.emit_mechanism)
    print(f"cases {args.n}")
    print(f"missing_fraction {frac:.6g}")
    return 0


def _cmd_randomize(args) -> int:
    net = read_network(args.net)
    rng = np.random.default_rng(args.seed)
    write_network(randomize_parameters(net, rng), args.out)
    return 0


def _write_trace(path: str, header: list[str], rows) -> None:
    _write_csv(path, header, ([row[0]] + [fmt17(v) for v in row[1:]] for row in rows))


def _write_counts(path: str, net: Network, row_counts) -> None:
    _write_csv(
        path,
        ["node", "row", "count"],
        (
            [spec.name, r, fmt17(k)]
            for spec, counts in zip(net.nodes, row_counts)
            for r, k in enumerate(counts)
        ),
    )


def _read_counts(path: str, net: Network) -> list[np.ndarray]:
    by_node = {spec.name: np.zeros(rows) for spec, rows in zip(net.nodes, net.n_rows)}
    seen = set()
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["node", "row", "count"]:
            raise FormatError(f"{path}: expected header node,row,count")
        for cells in reader:
            if not cells:
                continue
            where = f"{path}, line {reader.line_num}"
            if len(cells) != 3:
                raise FormatError(f"{where}: expected node,row,count, got {len(cells)} cells")
            name, row, count = cells
            if name not in by_node:
                raise FormatError(f"{where}: unknown node {name!r}")
            try:
                r, value = int(row), float(count)
            except ValueError:
                raise FormatError(f"{where}: row must be an integer, count a number") from None
            if not 0 <= value < math.inf:
                raise FormatError(f"{where}: count must be a finite non-negative number")
            if not 0 <= r < len(by_node[name]):
                raise FormatError(f"{where}: row {r} out of range for node {name!r}")
            if (name, r) in seen:
                raise FormatError(f"{where}: row {r} of node {name!r} given twice")
            seen.add((name, r))
            by_node[name][r] = value
    return [by_node[spec.name] for spec in net.nodes]


def _given(args, **options: str) -> dict:
    """The value of each option (keyword=dest) given, by library keyword; an
    option left out is not passed on, so the library's default holds."""
    return {key: vars(args)[dest] for key, dest in options.items() if vars(args)[dest] is not None}


def _cmd_learn(args) -> int:
    if args.seed is None and args.method != "conservative":
        raise UsageError("--method em and aim need --seed")
    if args.init == "em" and args.method != "aim":
        raise UsageError("--init em is only meaningful for --method aim")
    structure = read_network(args.net_structure)
    data = read_dataset(args.data)
    if args.init is not None and args.init.startswith("net:"):
        args.init = read_network(args.init[4:])

    if args.method == "conservative":
        low, high = conservative_intervals(structure, data)
        mid = (low + high) / 2.0
        # the midpoints, renormalized into valid rows (exact already for binary rows)
        totals = row_totals(structure, mid)[structure.entry_rows[0]]
        write_network(structure.with_theta(mid / totals), args.out)
        if args.trace:
            cells = (
                [spec.name, r, label]
                for spec, rows in zip(structure.nodes, structure.n_rows)
                for r in range(rows)
                for label in spec.states
            )
            _write_csv(
                args.trace,
                ["node", "row", "state", "low", "mid", "high"],
                (cell + [fmt17(v) for v in ends] for cell, ends in zip(cells, zip(low, mid, high))),
            )
        print(f"method conservative entries {len(mid)}")
        return 0

    fit = _given(args, tol="tol", max_iters="max_iters")
    if args.method == "em":
        opts = em_mod.EmOptions(**fit, **_given(args, init="init"), seed=args.seed)
        res = em_mod.em_fit(structure, data, opts)
        header = ["iteration", "loglik_per_unit", "excluded_weight"]
        summary = f"loglik_per_unit {res.loglik_per_unit:.6g}"
    else:  # aim, from the EM estimate unless --init says otherwise
        init = "em" if args.init is None else args.init
        if init == "em":  # one binding for both fits
            data = BoundDataset(structure, data)
            init = em_mod.em_fit(structure, data, em_mod.EmOptions()).network
        # a random start draws from a child seed, apart from aim_fit's own draws
        theta0 = start_network(structure, init, stable_child_seed(args.seed, "init"))
        opts = aim_mod.AimOptions(**fit, **_given(args, z="z"), seed=args.seed)
        res = aim_mod.aim_fit(structure, theta0, data, opts)
        header = ["iteration", "score", "sat_lower_bound"]
        summary = f"score {res.score:.6g}"

    write_network(res.network if args.unsmoothed else res.smoothed, args.out)
    if args.trace:
        _write_trace(args.trace, header, res.trace)
    if args.counts_out:
        _write_counts(args.counts_out, res.network, res.row_counts)
    if not res.converged:
        print(f"{args.method} did not converge in --max-iters {opts.max_iters}", file=sys.stderr)
    print(f"method {args.method} iterations {len(res.trace)} {summary}")
    return 0


def _cmd_eval(args) -> int:
    truth = read_network(args.truth)
    estimate = read_network(args.estimate)
    if args.counts:
        counts = _read_counts(args.counts, estimate)
        estimate = smooth(estimate, counts)
    report = evaluate(truth, estimate)
    pct = ""
    if args.data:
        data = read_dataset(args.data)
        if not data.cases:
            raise DataError("total weight must be positive")
        holes = np.array([p.count(None) for p in data.distinct])[data.case_pattern]
        share = data.case_weights * holes / len(data.variables)
        pct = fmt17(np.cumsum(share)[-1] / data.total_weight)  # added in case order
    print(f"ce {report.ce:.6g}")
    print(f"mse {report.mse:.6g}")
    if args.out:
        row = [args.method_tag, fmt17(report.ce), fmt17(report.mse), pct]
        _write_csv(args.out, ["method", "ce", "mse", "pct_missing"], [row])
    return 0


def _cmd_lik(args) -> int:
    net = read_network(args.net)
    data = read_dataset(args.data)
    if args.which == "fv":
        rep = face_value_loglik(net, data)
    elif args.which == "sat":  # the value alone: the certificate is never printed
        problem = SatProfileProblem(net, data)
        value = problem.solve(net, **_given(args, tol="tol"))[0]
        rep = LikelihoodReport("sat_profile", value, value * problem.bound.total)
    elif args.which == "car":
        rep = car_profile_loglik(net, data)
    else:
        other = read_network(args.net_car) if args.net_car else net
        stat = lr_statistic(net, other, data)
        rep = LikelihoodReport("lr_statistic", stat, stat * data.total_weight)
    if args.which == "lr":
        print(f"lr_statistic {rep.per_case_average:.6g}")
    else:
        print(f"kind {rep.kind}")
        print(f"per_case_average {rep.per_case_average:.6g}")
        print(f"total {rep.total:.6g}")
    if args.out:
        row = [rep.kind, fmt17(rep.per_case_average), fmt17(rep.total)]
        _write_csv(args.out, ["kind", "per_case_average", "total"], [row])
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        net=read_network(args.net),
        coarsening=None if args.coarsening is None else CoarseningSpec.parse(args.coarsening),
        n=args.n, z=args.z, runs=args.runs, seed=args.seed,
        mechanism=None if args.mechanism is None else read_network(args.mechanism),
    )
    rows, failures = run_experiment(cfg)
    cells = [[row["run"]] + [fmt17(row[c]) for c in EXPERIMENT_HEADER[1:]] for row in rows]
    if rows:  # the summary row, also printed
        summary = _summary_cells(rows)
        cells.append([summary[c] for c in EXPERIMENT_HEADER])
    _write_csv(args.out, EXPERIMENT_HEADER, cells)
    if rows:
        for col in EXPERIMENT_HEADER[1:]:
            print(f"{col} {summary[col]}")
    print(f"runs {len(rows)} failed {len(failures)}")
    for f in failures:
        print(f, file=sys.stderr)
    return 0


# Which method reads which option: per subcommand, the option that picks
# the method and, per group of options, the methods that read them.
READERS = {
    "learn": ("--method", {
        ("--z",): ("aim",),
        ("--tol", "--max-iters", "--init"): ("em", "aim"),
        ("--counts-out", "--unsmoothed"): ("em", "aim"),
        ("--seed",): ("em", "aim"),
    }),
    "lik": ("--which", {("--tol",): ("sat",), ("--net-car",): ("lr",)}),
}


def _check_readers(args) -> None:
    """UsageError when an option of `READERS` is given to a method that does
    not read it; run before any file is read."""
    selector, groups = READERS.get(args.command, ("", {}))
    for flags, readers in groups.items():
        given = [getattr(args, f[2:].replace("-", "_")) is not None for f in flags]
        if any(given) and getattr(args, selector[2:]) not in readers:
            *head, last = flags
            subject = f"{', '.join(head)} and {last} apply" if head else f"{last} applies"
            raise UsageError(f"{subject} to {selector} {' and '.join(readers)} only")


def build_parser() -> _Parser:
    parser = _Parser(prog="coarsebn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample an incomplete dataset")
    p.add_argument("--net", required=True)
    p.add_argument("--coarsening", required=True, help="mp:mu:sigma")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-mechanism")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("learn", help="fit parameters from incomplete data")
    p.add_argument("--net-structure", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=["aim", "em", "conservative"])
    p.add_argument("--init", help="em | uniform | random | net:G")
    p.add_argument("--z", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--counts-out")
    p.add_argument("--unsmoothed", action="store_true", default=None,
                   help="write the raw estimate instead of the smoothed one")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("eval", help="score an estimate against the truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--counts", help="row counts CSV; smooth before scoring")
    p.add_argument("--method-tag", default="estimate")
    p.add_argument("--data", help="dataset for the pct_missing column")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("lik", help="likelihood reports")
    p.add_argument("--net", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--which", required=True, choices=["fv", "sat", "car", "lr"])
    p.add_argument("--net-car", help="car-side candidate for --which lr")
    p.add_argument("--tol", type=float, help=f"sat solver tolerance (default {SAT_TOL:g})")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lik)

    p = sub.add_parser("experiment", help="seeded batch comparison")
    p.add_argument("--net", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--coarsening", help="mp:mu:sigma")
    source.add_argument("--mechanism", help="fixed mechanism network file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("randomize", help="replace all CPT rows by random ones")
    p.add_argument("--net", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_randomize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_readers(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except (CoarseBNError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
