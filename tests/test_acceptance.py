"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is designed to finish well inside ten minutes.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import brute_evidence_probability, with_tables
from coarsebn.aim import AimOptions, aim_fit
from coarsebn.cli import ExperimentConfig, run_experiment
from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from coarsebn.conservative import marginal_bounds
from coarsebn.em import EmOptions, em_fit
from coarsebn.evaluate import kl_decomposed, kl_enumerate
from coarsebn.inference import evidence_probability
from coarsebn.likelihoods import (
    SatProfileProblem,
    car_profile_loglik,
    exact_sat_profile_loglik,
)
from coarsebn.network import Network, NodeSpec, randomize_parameters
from coarsebn.util import fixture_path

BASIC = str(fixture_path("basic.net"))
MECH = str(fixture_path("basic_mech.net"))
COARSE = str(fixture_path("basic_coarse.csv"))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "coarsebn", *args], capture_output=True, text=True
    )


def parsed(stdout, key):
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == key:
            return float(parts[1])
    raise AssertionError(f"{key!r} missing from output:\n{stdout}")


def test_criterion_1_sat_value_and_certificate(basic_net, basic_data):
    t0 = time.perf_counter()
    rep = exact_sat_profile_loglik(basic_net, basic_data, tol=1e-10)
    elapsed = time.perf_counter() - t0
    assert rep.per_case_average == pytest.approx(-1.1059, abs=5e-4)
    assert rep.certificate.per_case[0][(0, 0)] == pytest.approx(1 / 9, abs=1e-4)
    assert elapsed < 1.0
    out = run_cli("lik", "--net", BASIC, "--data", COARSE, "--which", "sat")
    assert out.returncode == 0
    assert parsed(out.stdout, "per_case_average") == pytest.approx(-1.1059, abs=5e-4)
    print(f"\nACCEPTANCE 1 PASS  sat per-case {rep.per_case_average:.6g} "
          f"(target -1.1059±5e-4), certificate 1/9, {elapsed:.3f}s")


def test_criterion_2_car_value_at_em_optimum(basic_net, basic_data):
    t0 = time.perf_counter()
    em = em_fit(basic_net, basic_data, EmOptions(tol=1e-10))
    theta_b = em.network.cpts[1][0, 0]
    car = car_profile_loglik(em.network, basic_data)
    elapsed = time.perf_counter() - t0
    assert theta_b == pytest.approx(0.2727, abs=1e-3)
    assert car.per_case_average == pytest.approx(-1.1779, abs=5e-4)
    assert elapsed < 1.0
    # same check through the CLI surface
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        est = Path(tmp) / "em.net"
        out = run_cli(
            "learn", "--net-structure", BASIC, "--data", COARSE, "--method", "em",
            "--tol", "1e-10", "--seed", "0", "--out", str(est), "--unsmoothed",
        )
        assert out.returncode == 0
        out = run_cli("lik", "--net", str(est), "--data", COARSE, "--which", "car")
        assert parsed(out.stdout, "per_case_average") == pytest.approx(
            -1.1779, abs=5e-4
        )
    print(f"\nACCEPTANCE 2 PASS  em theta_B {theta_b:.6g} (0.2727±1e-3), "
          f"car {car.per_case_average:.6g} (-1.1779±5e-4), {elapsed:.3f}s")


def test_criterion_3_conservative_bounds(basic_data):
    t0 = time.perf_counter()
    low, high, mid = marginal_bounds(basic_data, "B", "t")
    low_a, high_a, _ = marginal_bounds(basic_data, "A", "t")
    elapsed = time.perf_counter() - t0
    assert low == pytest.approx(0.15, abs=1e-12)
    assert high == pytest.approx(0.6, abs=1e-12)
    assert mid == pytest.approx(0.375, abs=1e-12)
    assert low_a == pytest.approx(0.5, abs=1e-12)
    assert high_a == pytest.approx(0.5, abs=1e-12)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 PASS  B bounds [{low:.6g},{high:.6g}] mid {mid:.6g}, "
          f"A [{low_a:.6g},{high_a:.6g}], {elapsed:.4f}s")


def test_criterion_4_theoretical_ce_gap(basic_net):
    theta1 = with_tables(
        basic_net, [np.array([[0.5, 0.5]]), np.array([[0.15 / 0.55, 0.4 / 0.55]])]
    )
    ce1 = kl_enumerate(basic_net, theta1)
    ce0 = kl_enumerate(basic_net, basic_net)
    assert ce1 == pytest.approx(0.0142, abs=5e-4)
    assert ce0 == 0.0
    diff = ce0 - ce1
    assert diff == pytest.approx(-0.014, abs=1e-3)
    print(f"\nACCEPTANCE 4 PASS  ce(truth,theta1) {ce1:.6g} (0.0142±5e-4), "
          f"analytic ce_diff {diff:.6g} (-0.014±1e-3)")


def test_criterion_5_basic_experiment_row(basic_net, basic_mech):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        net=basic_net, coarsening=None, n=1000, z=10, runs=20, seed=2024,
        mechanism=basic_mech,
    )
    rows, failures = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert not failures
    mean_ce_diff = float(np.mean([r["ce_diff"] for r in rows]))
    mean_score = float(np.mean([r["score"] for r in rows]))
    assert -0.026 <= mean_ce_diff <= -0.006
    assert mean_score < 1e-3
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 5 PASS  mean ce_diff {mean_ce_diff:.6g} in [-0.026,-0.006], "
          f"mean score {mean_score:.3g} < 1e-3, {elapsed:.1f}s < 120s")


def test_criterion_6_monotonicity_suites(basic_net, asia_net):
    checked_aim = checked_em = 0
    for k in range(50):
        truth = basic_net if k % 2 == 0 else asia_net
        rng = np.random.default_rng(5000 + k)
        truth = randomize_parameters(truth, rng)
        spec = CoarseningSpec(k % 3, 0.15, 0.05 if k % 5 else 0.0)
        mech = build_coarsening_network(truth, spec, rng)
        data, _ = generate_dataset(mech, 120, rng)
        em = em_fit(truth, data, EmOptions(max_iters=12))
        lls = [t[1] for t in em.trace if math.isfinite(t[1])]
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-9
        checked_em += len(lls) - 1
        aim = aim_fit(
            truth, em.network, data, AimOptions(z=2, max_iters=12, seed=k)
        )
        scores = [t[1] for t in aim.trace]
        for a, b in zip(scores, scores[1:]):
            assert b <= a + 1e-9
        checked_aim += len(scores) - 1
    print(f"\nACCEPTANCE 6 PASS  50 randomized instances, "
          f"{checked_em} em steps nondecreasing, {checked_aim} aim steps nonincreasing")


def test_criterion_7_oracle_equivalences(basic_net, asia_net):
    # (a) sat profile vs brute-force lambda grid on one-variable instances
    from test_likelihoods import ONE_VAR_DATA, lambda_grid_sat, one_var_net

    worst_a = 0.0
    for p1 in np.linspace(0.0, 1.0, 101):
        expect = lambda_grid_sat(float(p1))
        got = exact_sat_profile_loglik(one_var_net(float(p1)), ONE_VAR_DATA)
        if math.isinf(expect):
            assert math.isinf(got.per_case_average)
        else:
            worst_a = max(worst_a, abs(got.per_case_average - expect))
    assert worst_a < 1e-3

    # (b) decomposed vs enumerated divergence on asia
    est = randomize_parameters(asia_net, np.random.default_rng(3))
    gap_b = abs(kl_decomposed(asia_net, est) - kl_enumerate(asia_net, est))
    assert gap_b < 1e-9

    # (c) incremental KL deltas vs full recomputation over 1e4 chained moves
    from conftest import incremental_kl_delta
    from conftest import joint_probability
    from test_aim import full_kl

    rng = np.random.default_rng(17)
    net = randomize_parameters(asia_net, rng)
    zn = 3000
    counts = {}
    for _ in range(zn):
        key = tuple(int(rng.integers(0, 2)) for _ in net.nodes)
        counts[key] = counts.get(key, 0) + 1
    cache = {}

    def logp(x):
        if x not in cache:
            cache[x] = math.log(max(joint_probability(net, x), 1e-300))
        return cache[x]

    running = full_kl(counts, zn, logp)
    worst_c = 0.0
    for step in range(1, 10_001):
        occupied = list(counts)
        frm = occupied[int(rng.integers(0, len(occupied)))]
        i = int(rng.integers(0, len(net.nodes)))
        to = frm[:i] + (1 - frm[i],) + frm[i + 1 :]
        running += incremental_kl_delta(counts, zn, logp, frm, to)
        counts[frm] -= 1
        if counts[frm] == 0:
            del counts[frm]
        counts[to] = counts.get(to, 0) + 1
        if step % 1000 == 0:
            worst_c = max(worst_c, abs(running - full_kl(counts, zn, logp)))
            running = full_kl(counts, zn, logp)
    worst_c = max(worst_c, abs(running - full_kl(counts, zn, logp)))
    assert worst_c < 1e-12

    # (d) evidence probability vs completion-sum enumeration
    worst_d = 0.0
    rng = np.random.default_rng(23)
    for net in (basic_net, asia_net, randomize_parameters(asia_net, rng)):
        names = [s.name for s in net.nodes]
        for trial in range(40):
            ev = {}
            for i, name in enumerate(names):
                draw = rng.integers(0, 3)
                if draw < 2:
                    ev[name] = net.nodes[i].states[int(draw)]
            got = evidence_probability(net, ev)
            expect = brute_evidence_probability(net, ev)
            worst_d = max(worst_d, abs(got - expect))
    assert worst_d < 1e-12

    print(f"\nACCEPTANCE 7 PASS  (a) grid gap {worst_a:.2g}<1e-3  "
          f"(b) decomp gap {gap_b:.2g}<1e-9  (c) chain drift {worst_c:.2g}<1e-12  "
          f"(d) evidence gap {worst_d:.2g}<1e-12")


def saturated_net(theta_a, theta_bt, theta_bf):
    """Fully connected model on the two-variable space: 4 free joint states."""
    return Network(
        "saturated",
        (NodeSpec("A", ("t", "f")), NodeSpec("B", ("t", "f"), ("A",))),
        (
            np.array([[theta_a, 1 - theta_a]]),
            np.array([[theta_bt, 1 - theta_bt], [theta_bf, 1 - theta_bf]]),
        ),
    )


def test_criterion_8_saturated_car_optimum_is_sat_optimum(basic_data):
    structure = saturated_net(0.5, 0.5, 0.5)
    em = em_fit(structure, basic_data, EmOptions(tol=1e-12, max_iters=500))
    opt_value = exact_sat_profile_loglik(em.network, basic_data, tol=1e-8)

    # grid over the two conditionals; theta_A is pinned by fully observed A
    problem = SatProfileProblem(structure, basic_data)
    grid = np.linspace(0.0, 1.0, 201)
    best = -math.inf
    warm = None
    for bt in grid:
        for bf in grid:
            value, warm, _, _ = problem.solve(
                saturated_net(0.5, float(bt), float(bf)), tol=1e-6, init=warm
            )
            if value > best:
                best = value
    assert opt_value.per_case_average == pytest.approx(best, abs=1e-4)
    print(f"\nACCEPTANCE 8 PASS  car/fv optimum sat value "
          f"{opt_value.per_case_average:.6g} matches 201^2-grid max {best:.6g} (tol 1e-4)")


def test_criterion_9_asia_base_score_band(asia_net):
    # the largest reproduction attempted at desk scale; the published
    # large-network rows (alarm-sized joint spaces, hundred-run ensembles)
    # and the scatter-plot figures are explicitly out of scope here
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        net=asia_net,
        coarsening=CoarseningSpec.parse("2:0.1:0.05"),
        n=1000,
        z=5,
        runs=20,
        seed=777,
    )
    rows, failures = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert not failures
    mean_score = float(np.mean([r["score"] for r in rows]))
    assert 0.011 - 0.01 <= mean_score <= 0.011 + 0.01
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 9 PASS  asia mean terminal score {mean_score:.4g} "
          f"in 0.011±0.01 over 20 seeds, {elapsed:.1f}s < 600s; "
          f"larger-network rows and figure ensembles are out of scope")
