#!/usr/bin/env python3
"""coarsebn benchmark: experiment-row throughput and likelihood-report latency.

    python3 perfbench/run.py --workload asia_rows --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): asia_rows, large_dag, lik_reports.  Each runs
in this one process and thread as a closed loop: a unit starts when the
previous one has finished (after a garbage collection, so that no unit pays
for its predecessors' garbage).  The loop runs whole passes over the
workload's input table, in an order drawn from --seed.  --seconds sets the
number of passes: --seconds over the time one pass took on the machine the
benchmark was defined on (Workload.pass_s), and at least two, so that every
input runs twice and the repeat must reproduce the first result exactly.
A stop on elapsed time would let the machine's momentary speed change the
unit count, and with it which input the tail percentile falls on.

Set-up is repeated at least SETUP_REPEATS times and for at least
SETUP_MIN_S seconds, and its median reported.

The end-to-end times are given at a fixed machine speed.  On a shared host
this machine's speed drifts by a third from minute to minute, which would
swamp any program change; so every REF_EVERY_S, between units, the run
times `reference`, a fixed piece of interpreter and small-numpy work.
Unit times are scaled by REF_S over the mean reference time of the timed
loop, and set-up time by REF_S over that of set-up.  The unscaled figures
and the mean reference times are kept in the detail record.

--trace 0 times whole units with no timing wrappers installed and prints
the end-to-end metrics.  --trace 1 alternates an untraced pass with a
traced pass over the same units and prints the per-layer metrics, per
traced unit: time in each module's public entry points (total and self),
call and iteration counts, and the tracing overhead (traced against
untraced unit time).  Spans go to .perfbench_out/spans-<workload>-<seed>.json,
and every result, with the machine it ran on, the tail percentile used,
the unit count and each unit's time, to
.perfbench_out/<workload>-<seed>-trace<t>.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The package is imported from ./src of this checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WORKLOADS = ("asia_rows", "large_dag", "lik_reports")
SETUP_MIN_S = 1.0  # a millisecond set-up is repeated until this much has run
REF_EVERY_S = 0.25  # seconds between two samples of the reference kernel
REF_S = 0.006       # its mean time on the 2-vCPU Intel Xeon the benchmark was defined on

END_TO_END = {
    "units_per_s": "1/s",
    "unit_s.p50": "s",
    "unit_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "aim_score.mean": "nat",
    "ce_aim.mean": "nat",
    "ce_em.mean": "nat",
    "sat_nll.mean": "nat/case",
}

# (module, function, span name); a span name may cover several functions.
SPANS = [
    ("coarsebn.coarsen", "build_coarsening_network", "coarsen.generate"),
    ("coarsebn.coarsen", "generate_dataset", "coarsen.generate"),
    ("coarsebn.em", "em_fit", "em.fit"),
    ("coarsebn.aim", "aim_fit", "aim.fit"),
    ("coarsebn.aim", "initial_completion", "aim.init"),
    ("coarsebn.aim", "ai_sweep", "aim.sweep"),
    ("coarsebn.aim", "m_step", "aim.mstep"),
    ("coarsebn.inference", "posterior_family_marginals", "inference.family_posterior"),
    ("coarsebn.inference", "evidence_probability", "inference.evidence"),
    ("coarsebn.inference", "full_joint_table", "inference.joint_table"),
    ("coarsebn.likelihoods", "exact_sat_profile_loglik", "likelihoods.sat"),
    ("coarsebn.likelihoods", "car_normalizer", "likelihoods.car"),
    ("coarsebn.likelihoods", "face_value_loglik", "likelihoods.fv"),
    ("coarsebn.evaluate", "evaluate", "evaluate"),
]
COUNTED_SPANS = ("inference.family_posterior", "inference.evidence", "inference.joint_table")
COUNTS = ("em.iters", "aim.iters", "aim.sweeps", "aim.moves", "aim.candidate_visits")


def span_metric(span: str) -> str:
    return span + ("_s" if "." in span else ".s")


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in dict.fromkeys(name for _, _, name in SPANS):
        units[span_metric(span)] = "s/unit"
        units[span + ".self_s"] = "s/unit"
    for span in COUNTED_SPANS:
        units[span + "_calls"] = "count/unit"
    for name in COUNTS:
        units[name] = "count/unit"
    units["em.iter_s"] = "s"
    units["aim.accept_ratio"] = "ratio"
    units["likelihoods.sat_gap"] = "nat/case"
    units["trace.unit_s"] = "s/unit"
    units["trace.overhead_share"] = "share"
    return units


PER_LAYER = per_layer_units()


def import_package():
    """Import coarsebn from ./src of this checkout, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import coarsebn

    where = Path(coarsebn.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"coarsebn imported from {where}, not from {src}")
    return coarsebn


def machine_info() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten units beyond it.

    Nearest-rank.  Below twenty units no percentile at or above the median
    qualifies, and the median is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return statistics.median(ordered), 50


def reference() -> int:
    """A fixed piece of work like the package's: dict counting in an
    interpreted loop, with a small numpy reduction every fiftieth step."""
    import numpy as np

    counts: dict[int, int] = {}
    row = np.arange(64, dtype=np.float64)
    acc = 0.0
    for i in range(20_000):
        key = i * 7919 % 1021
        counts[key] = counts.get(key, 0) + 1
        if i % 50 == 0:
            acc += float(np.log1p(row).sum())
    return len(counts) + int(acc)


class Speed:
    """Samples the reference kernel's time, at most every REF_EVERY_S."""

    def __init__(self):
        reference()  # warm-up, not recorded
        self.samples: list[float] = []
        self.next = 0.0

    def sample(self, n: int = 1) -> None:
        if perf_counter() < self.next:
            return
        for _ in range(n):
            t0 = perf_counter()
            reference()
            self.samples.append(perf_counter() - t0)
        self.next = perf_counter() + REF_EVERY_S

    def mean(self) -> float:
        return statistics.fmean(self.samples)


class Runner:
    """Runs and checks units; keeps their times and first outcomes."""

    def __init__(self, workload, inputs, errors, speed: Speed):
        self.workload = workload
        self.speed = speed
        self.inputs = inputs
        self.errors = errors            # exception types that fail a unit
        self.first: dict[int, object] = {}
        self.times: list[float] = []
        self.ids: list[int] = []
        self.traced: list[bool] = []
        self.gaps: list[float] = []
        self.failures: list[str] = []

    def run(self, i: int, tracer=None) -> None:
        unit = self.workload.unit
        if tracer is not None:
            tracer.unit = len(self.times)
        err = None
        gc.collect()  # no unit pays for its predecessors' garbage
        t0 = perf_counter()
        try:
            out = unit(self.inputs[i])
        except self.errors as exc:
            err = exc
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.unit = None
        self.times.append(dt)
        self.ids.append(i)
        self.traced.append(tracer is not None)
        if err is None:
            try:
                outcome = self.workload.check(self.inputs[i], out)
            except self.errors as exc:
                err = exc
        if err is None and self.first.setdefault(i, outcome) != outcome:
            err = f"not deterministic: {outcome} after {self.first[i]}"
        if err is None:
            self.gaps.append(outcome.sat_gap)
        else:
            self.failures.append(f"input {i}: {err!r}")
        self.speed.sample()


def end_to_end(
    runner: Runner, setup_s: float, setup_speed: Speed, failed: int, attempted: int
) -> tuple[dict, dict]:
    scale = REF_S / runner.speed.mean()
    raw = runner.times
    times = [t * scale for t in raw]
    p_tail, pct = tail(times)
    first = list(runner.first.values())

    def mean(field):
        vals = [getattr(o, field) for o in first]
        return statistics.fmean(vals) if vals else 0.0

    values = {
        "units_per_s": (len(times) - len(runner.failures)) / sum(times),
        "unit_s.p50": statistics.median(times),
        "unit_s.tail": p_tail,
        "setup_s": setup_s * REF_S / setup_speed.mean(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1.0 - failed / attempted,
        "aim_score.mean": mean("aim_score"),
        "ce_aim.mean": mean("ce_aim"),
        "ce_em.mean": mean("ce_em"),
        "sat_nll.mean": -mean("sat"),
    }
    extra = {
        "units": len(runner.times),
        "tail_percentile": pct,
        "failed_share": failed / attempted,
        "inputs": len(runner.inputs),
        "ref_s": runner.speed.mean(),
        "ref_samples": len(runner.speed.samples),
        "raw_units_per_s": (len(raw) - len(runner.failures)) / sum(raw),
        "raw_p50": statistics.median(raw),
        "raw_tail": tail(raw)[0],
        "raw_setup_s": setup_s,
        "setup_ref_s": setup_speed.mean(),
        "unit_times": list(zip(runner.ids, runner.times)),
    }
    return values, extra


def trace_hooks():
    import numpy as np

    def sweep_before(args):
        return args[0]._moves

    def sweep_after(tracer, args, state, moves_before):
        tracer.counts["aim.moves"] += state._moves - moves_before
        has_move = np.fromiter((bool(m) for m in state.case_moves), bool, len(state.case_moves))
        tracer.counts["aim.candidate_visits"] += int(has_move[state.rep_case].sum())

    def count_iters(key):
        def after(tracer, args, result, _):
            tracer.counts[key] += len(result.trace)

        return after

    return {
        "aim.sweep": (sweep_before, sweep_after),
        "em.fit": (None, count_iters("em.iters")),
        "aim.fit": (None, count_iters("aim.iters")),
    }


def per_layer(runner: Runner, tracer) -> dict:
    n = sum(runner.traced)
    total, self_s, calls = tracer.totals()
    counts = tracer.counts
    counts["aim.sweeps"] = calls["aim.sweep"]
    values = {}
    for span in dict.fromkeys(name for _, _, name in SPANS):
        values[span_metric(span)] = total[span] / n
        values[span + ".self_s"] = self_s[span] / n
    for span in COUNTED_SPANS:
        values[span + "_calls"] = calls[span] / n
    for name in COUNTS:
        values[name] = counts[name] / n
    values["em.iter_s"] = total["em.fit"] / counts["em.iters"] if counts["em.iters"] else 0.0
    visits = counts["aim.candidate_visits"]
    values["aim.accept_ratio"] = counts["aim.moves"] / visits if visits else 0.0
    values["likelihoods.sat_gap"] = max(runner.gaps, default=0.0)
    traced_s = sum(t for t, tr in zip(runner.times, runner.traced) if tr)
    values["trace.unit_s"] = traced_s / n
    values["trace.overhead_share"] = traced_s / (sum(runner.times) - traced_s) - 1.0
    return values


def measure(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, run and check one workload; return the full result record."""
    import numpy as np

    from coarsebn.errors import CoarseBNError

    import tracing
    import workloads

    recorder = workloads.Recorder(tracing.package_modules())
    try:
        wl = workloads.build(workload_name, recorder, sizes or workloads.Sizes())
        # Set-up is scaled by the machine's speed during set-up: for
        # lik_reports it lasts a quarter of the run.
        setup_speed = Speed()
        setup_times, setup_failures, inputs = [], 0, None
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            setup_speed.sample(3)
            t0 = perf_counter()
            table = wl.setup()
            setup_times.append(perf_counter() - t0)
            setup_speed.sample(3)
            if inputs is None:
                inputs = table
            elif wl.signature(table) != wl.signature(inputs):
                setup_failures += 1
        order = np.random.default_rng(seed).permutation(len(inputs)).tolist()
        runner = Runner(wl, inputs, (CoarseBNError, workloads.CheckFailed), Speed())

        if not trace:
            for _ in range(max(2, round(seconds / wl.pass_s))):
                for i in order:
                    runner.run(i)
            attempted = len(runner.times) + setup_failures
            failed = len(runner.failures) + setup_failures
            metrics, extra = end_to_end(
                runner, statistics.median(setup_times), setup_speed, failed, attempted
            )
            units = END_TO_END
        else:
            modules = tracing.package_modules()
            targets = [(sys.modules[m], f, s) for m, f, s in SPANS]
            tracer = tracing.Tracer(targets, modules, trace_hooks())
            for _ in range(max(1, round(seconds / (2 * wl.pass_s)))):
                for i in order:
                    runner.run(i)
                with tracer.installed():
                    for i in order:
                        runner.run(i, tracer)
            attempted = len(runner.times) + setup_failures
            failed = len(runner.failures) + setup_failures
            metrics = per_layer(runner, tracer)
            extra = {"traced_units": sum(runner.traced), "inputs": len(inputs)}
            units = PER_LAYER
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / f"spans-{workload_name}-{seed}.json")
    finally:
        recorder.close()

    return {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_info(),
        "detail": extra,
        "failures": runner.failures + ["set-up not deterministic"] * setup_failures,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import coarsebn from this checkout: {exc}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("machine " + " ".join(f"{k}={v}" for k, v in record["machine"].items()))
    print("detail " + " ".join(
        f"{k}={v}" for k, v in record["detail"].items() if k != "unit_times"
    ))
    for line in record["failures"]:
        print("FAILED " + line)
    for name, m in record["result"]["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
