"""Command-line harness: data generation, learning, evaluation, likelihood
reports, and the seeded batch experiment.

Exit codes: 0 success, 1 usage, 2 data/format problem, 3 numerical failure.
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
from .conservative import conservative_ensemble
from .data import read_dataset, write_dataset
from .errors import CoarseBNError, DataError, FormatError, NumericalError
from .evaluate import Truth, evaluate
from .inference import BoundDataset
from .likelihoods import (
    LikelihoodReport,
    SatProfileProblem,
    car_profile_loglik,
    face_value_loglik,
    lr_statistic,
)
from .netformat import read_network, write_network
from .network import Network, randomize_parameters, smooth, start_network
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
    whose parent-configuration weights are calibrated once per call.
    Failures are recorded and the remaining runs continue.
    """
    if cfg.coarsening is None and cfg.mechanism is None:
        raise FormatError("need a coarsening spec or a fixed mechanism")
    for name in ("n", "z", "runs"):
        check_int(name, getattr(cfg, name), 1)
    rows = []
    failures = []
    truth = Truth(cfg.net)
    for r in range(cfg.runs):
        rng = np.random.default_rng(stable_child_seed(cfg.seed, r))
        try:
            mech = (
                cfg.mechanism
                if cfg.mechanism is not None
                else build_coarsening_network(cfg.net, cfg.coarsening, rng)
            )
            data, pct_missing = generate_dataset(mech, cfg.n, rng)
            bound = BoundDataset(cfg.net, data)
            em_res = em_mod.em_fit(
                cfg.net, bound, cfg.em_opts or em_mod.EmOptions(init="uniform")
            )
            aim_res = aim_mod.aim_fit(
                cfg.net,
                em_res.network,
                bound,
                aim_mod.AimOptions(z=cfg.z, seed=stable_child_seed(cfg.seed, r, "aim")),
            )
            rep_em = evaluate(truth, em_res.smoothed)
            rep_aim = evaluate(truth, aim_res.smoothed)
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


def write_experiment_csv(path: str, rows: list[dict]) -> None:
    cells = [[row["run"]] + [fmt17(row[c]) for c in EXPERIMENT_HEADER[1:]] for row in rows]
    if rows:
        summary = _summary_cells(rows)
        cells.append([summary[c] for c in EXPERIMENT_HEADER])
    _write_csv(path, EXPERIMENT_HEADER, cells)


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
    by_node = {spec.name: np.zeros(net.cpts[i].shape[0]) for i, spec in enumerate(net.nodes)}
    with open(path, encoding="utf-8", newline="") as fh:
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
            by_node[name][r] = value
    return [by_node[spec.name] for spec in net.nodes]


def _cmd_learn(args) -> int:
    init = args.init
    if init is None:  # aim starts from the EM estimate
        init = "em" if args.method == "aim" else "uniform"
    if init == "em" and args.method != "aim":
        raise UsageError("--init em is only meaningful for --method aim")
    if args.method == "conservative" and (args.counts_out or args.unsmoothed):
        raise UsageError("--counts-out and --unsmoothed apply to --method em and aim only")
    structure = read_network(args.net_structure)
    data = read_dataset(args.data)
    init = read_network(init[4:]) if init.startswith("net:") else init

    if args.method == "conservative":
        res = conservative_ensemble(structure, data, args.restarts, args.seed)
        # Midpoints of the envelope, renormalized into valid rows (exact
        # already for binary rows).
        cpts = [mid / mid.sum(axis=1, keepdims=True) for mid in res.midpoint]
        write_network(Network(structure.name, structure.nodes, cpts), args.out)
        if args.trace:
            _write_csv(
                args.trace,
                ["node", "row", "state", "low", "mid", "high"],
                (
                    [spec.name, r, label]
                    + [fmt17(t[i][r, s]) for t in (res.lower, res.midpoint, res.upper)]
                    for i, spec in enumerate(structure.nodes)
                    for r in range(res.lower[i].shape[0])
                    for s, label in enumerate(spec.states)
                ),
            )
        print(f"method conservative completions {args.restarts}")
        return 0

    if args.method == "em":
        res = em_mod.em_fit(
            structure,
            data,
            em_mod.EmOptions(
                tol=args.tol, max_iters=args.max_iters, init=init, seed=args.seed
            ),
        )
        header = ["iteration", "loglik_per_unit", "excluded_weight"]
        summary = f"loglik_per_unit {res.loglik_per_unit:.6g}"
    elif args.method == "aim":
        if init == "em":
            init = em_mod.em_fit(structure, data, em_mod.EmOptions(init="uniform")).network
        theta0 = start_network(structure, init, args.seed)
        res = aim_mod.aim_fit(
            structure,
            theta0,
            data,
            aim_mod.AimOptions(
                z=args.z, tol=args.tol, max_iters=args.max_iters, seed=args.seed
            ),
        )
        header = ["iteration", "score", "sat_lower_bound"]
        summary = f"score {res.score:.6g}"
    else:
        raise UsageError(f"unknown method {args.method!r}")

    write_network(res.network if args.unsmoothed else res.smoothed, args.out)
    if args.trace:
        _write_trace(args.trace, header, res.trace)
    if args.counts_out:
        _write_counts(args.counts_out, res.network, res.row_counts)
    if not res.converged:
        print(f"{args.method} did not converge in --max-iters {args.max_iters}", file=sys.stderr)
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
        _write_csv(
            args.out,
            ["method", "ce", "mse", "pct_missing"],
            [[args.method_tag, fmt17(report.ce), fmt17(report.mse), pct]],
        )
    return 0


def _cmd_lik(args) -> int:
    if args.tol is not None and args.which != "sat":
        raise UsageError("--tol applies to --which sat only")
    if args.net_car is not None and args.which != "lr":
        raise UsageError("--net-car applies to --which lr only")
    net = read_network(args.net)
    data = read_dataset(args.data)
    if args.which == "fv":
        rep = face_value_loglik(net, data)
    elif args.which == "sat":  # the value alone: the certificate is never printed
        problem = SatProfileProblem(net, data)
        value = (problem.solve(net) if args.tol is None else problem.solve(net, tol=args.tol))[0]
        rep = LikelihoodReport("sat_profile", value, value * problem.bound.total)
    elif args.which == "car":
        rep = car_profile_loglik(net, data)
    elif args.which == "lr":
        other = read_network(args.net_car) if args.net_car else net
        stat = lr_statistic(net, other, data)
        print(f"lr_statistic {stat:.6g}")
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown --which {args.which!r}")
    print(f"kind {rep.kind}")
    print(f"per_case_average {rep.per_case_average:.6g}")
    print(f"total {rep.total:.6g}")
    if args.out:
        _write_csv(
            args.out,
            ["kind", "per_case_average", "total"],
            [[rep.kind, fmt17(rep.per_case_average), fmt17(rep.total)]],
        )
    return 0


def _cmd_experiment(args) -> int:
    net = read_network(args.net)
    if args.coarsening is None and args.mechanism is None:
        raise UsageError("provide --coarsening mp:mu:sigma or --mechanism M.net")
    cfg = ExperimentConfig(
        net=net,
        coarsening=CoarseningSpec.parse(args.coarsening) if args.coarsening else None,
        n=args.n,
        z=args.z,
        runs=args.runs,
        seed=args.seed,
        mechanism=read_network(args.mechanism) if args.mechanism else None,
    )
    rows, failures = run_experiment(cfg)
    write_experiment_csv(args.out, rows)
    if rows:
        summary = _summary_cells(rows)
        for col in EXPERIMENT_HEADER[1:]:
            print(f"{col} {summary[col]}")
    print(f"runs {len(rows)} failed {len(failures)}")
    for f in failures:
        print(f, file=sys.stderr)
    return 0


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
    p.add_argument("--init", default=None, help="em | uniform | random | net:G")
    p.add_argument("--z", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--counts-out")
    p.add_argument("--unsmoothed", action="store_true",
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
    p.add_argument("--tol", type=float, help="sat solver tolerance (default 1e-8)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lik)

    p = sub.add_parser("experiment", help="seeded batch comparison")
    p.add_argument("--net", required=True)
    p.add_argument("--coarsening", help="mp:mu:sigma")
    p.add_argument("--mechanism", help="fixed mechanism network file")
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
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (CoarseBNError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
