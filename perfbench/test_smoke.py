"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench

Runs every workload in both modes on tiny inputs and checks that each
metric BENCHMARK.json names is emitted with its unit and that every unit
passes its output checks.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import run

run.import_package()

import workloads  # noqa: E402  (needs the package path set above)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.Sizes(
    asia_runs=2, asia_cases=200, dag_runs=1, dag_cases=30, dag_em_iters=1, lik_datasets=1
)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_emitted_and_checks_pass(workload, trace):
    record = run.measure(workload, seed=0, seconds=0.0, trace=bool(trace), sizes=TINY)
    result = record["result"]
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = BENCHMARK["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_manifest_lists_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


def test_checks_reject_broken_invariants():
    em_res = SimpleNamespace(trace=[(1, -3.0, 0.0), (2, -2.5, 0.0)])
    aim_res = SimpleNamespace(trace=[(1, 0.02, -2.9), (2, 0.01, -2.8)])
    workloads.check_fits(em_res, aim_res, sat=-2.8, gap=0.0)
    bad = [
        (SimpleNamespace(trace=em_res.trace[::-1]), aim_res, -2.8, 0.0),
        (em_res, SimpleNamespace(trace=[(1, 0.01, -2.8), (2, 0.02, -2.9)]), -2.8, 0.0),
        (em_res, aim_res, -2.8, 1e-6),
        (em_res, aim_res, -2.9, 0.0),
    ]
    for args in bad:
        with pytest.raises(workloads.CheckFailed):
            workloads.check_fits(*args)


def test_random_dag_must_exceed_dense_budget():
    cap = workloads.DAG_MAX_PARENTS
    net = workloads.random_dag(np.random.default_rng(0), workloads.DAG_NODES, cap)
    assert net.n_assignments > workloads.DENSE_TABLE_BUDGET
    assert all(len(spec.parents) <= cap for spec in net.nodes)
    with pytest.raises(ValueError):
        workloads.random_dag(np.random.default_rng(0), 16, cap)


def test_tail_keeps_ten_units_beyond():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90)
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50)
