import builtins
import importlib
import math

import numpy as np
import pytest

from conftest import with_tables
from coarsebn.errors import DataError
from coarsebn.evaluate import evaluate, kl_decomposed, kl_enumerate, mse
from coarsebn.netformat import read_network
from coarsebn.network import (
    Network, NodeSpec, randomize_parameters, row_totals, smooth, uniform_cpts,
)
from coarsebn.util import fixture_path

THETA1_B = 0.15 / 0.55


def theta1_net(basic_net):
    return with_tables(
        basic_net, [np.array([[0.5, 0.5]]), np.array([[THETA1_B, 1 - THETA1_B]])]
    )


def binary_kl(p, q):
    return p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))


class TestKlEnumerate:
    def test_identical_zero(self, asia_net):
        assert kl_enumerate(asia_net, asia_net) == 0.0

    def test_basic_against_face_value_optimum(self, basic_net):
        expect = binary_kl(0.2, THETA1_B)
        got = kl_enumerate(basic_net, theta1_net(basic_net))
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.0142, abs=5e-4)

    def test_truth_mass_on_estimate_zero_is_inf(self, basic_net):
        dead = with_tables(
            basic_net, [np.array([[1.0, 0.0]]), basic_net.cpts[1]]
        )
        assert kl_enumerate(basic_net, dead) == math.inf

    def test_mismatched_domains_rejected(self, basic_net, asia_net):
        with pytest.raises(DataError):
            kl_enumerate(basic_net, asia_net)


class TestKlDecomposed:
    def test_equals_enumeration_on_asia(self, asia_net):
        est = randomize_parameters(asia_net, np.random.default_rng(0))
        a = kl_enumerate(asia_net, est)
        b = kl_decomposed(asia_net, est)
        assert b == pytest.approx(a, abs=1e-9)

    def test_equals_enumeration_random_truths(self, asia_net):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            truth = randomize_parameters(asia_net, rng)
            est = randomize_parameters(asia_net, rng)
            assert kl_decomposed(truth, est) == pytest.approx(
                kl_enumerate(truth, est), abs=1e-9
            )

    def test_identical_zero(self, asia_net):
        assert kl_decomposed(asia_net, asia_net) == 0.0

    def test_basic_value(self, basic_net):
        assert kl_decomposed(basic_net, theta1_net(basic_net)) == pytest.approx(
            binary_kl(0.2, THETA1_B), rel=1e-12
        )

    def test_nodes_added_left_to_right_on_any_interpreter(self, asia_net, monkeypatch):
        # builtin sum compensates floats from Python 3.12, so the per-node
        # divergences are added by a left-to-right fold in node order; on
        # this pair the fold and the exactly rounded sum differ in the last bit
        def no_float_sum(items, start=0):
            items = list(items)
            if any(isinstance(v, float) for v in items):
                raise AssertionError("builtin sum over floats")
            return builtins.sum(items, start)

        # the module, which the package's function `evaluate` shadows
        module = importlib.import_module("coarsebn.evaluate")
        monkeypatch.setattr(module, "sum", no_float_sum, raising=False)
        rng = np.random.default_rng(5)
        truth = randomize_parameters(asia_net, rng)
        est = randomize_parameters(asia_net, rng)
        w, t, e = truth.parent_weights, truth.theta, est.theta
        row_kl = row_totals(truth, t * (np.log(t) - np.log(e)))
        terms = [float(w[rows] @ row_kl[rows]) for rows in truth.node_rows]
        fold = 0.0
        for v in terms:
            fold += v
        assert fold != math.fsum(terms)
        assert kl_decomposed(truth, est) == fold

    def test_structure_mismatch_rejected(self, basic_net):
        from coarsebn.network import Network, NodeSpec

        linked = Network(
            "linked",
            (
                NodeSpec("A", ("t", "f")),
                NodeSpec("B", ("t", "f"), ("A",)),
            ),
            (np.array([[0.5, 0.5]]), np.array([[0.2, 0.8], [0.2, 0.8]])),
        )
        with pytest.raises(DataError):
            kl_decomposed(basic_net, linked)


class TestMse:
    def test_identical_zero(self, asia_net):
        assert mse(asia_net, asia_net) == 0.0

    def test_basic_value(self, basic_net):
        # ((0.2727-0.2)^2 + (0.7273-0.8)^2 + 0 + 0) / 4
        d = THETA1_B - 0.2
        expect = 2 * d * d / 4
        assert mse(basic_net, theta1_net(basic_net)) == pytest.approx(
            expect, rel=1e-12
        )
        assert mse(basic_net, theta1_net(basic_net)) == pytest.approx(
            0.00264, abs=5e-5
        )

    def test_bounded_by_one(self, asia_net):
        a = randomize_parameters(asia_net, np.random.default_rng(1))
        b = randomize_parameters(asia_net, np.random.default_rng(2))
        assert 0.0 <= mse(a, b) <= 1.0

    def test_structure_mismatch_rejected(self, basic_net):
        a, b = basic_net.nodes
        linked = Network("linked", (a, NodeSpec(b.name, b.states, (a.name,))),
                         (basic_net.cpts[0], np.full((2, 2), 0.5)))
        with pytest.raises(DataError, match="^networks must share the same structure$"):
            mse(basic_net, linked)


class TestEvaluate:
    def test_huge_counts_vanishing_smoothing(self, asia_net):
        counts = [np.full(t.shape[0], 1e9) for t in asia_net.cpts]
        rep = evaluate(asia_net, smooth(asia_net, counts))
        assert rep.ce < 1e-4

    def test_zero_counts_scores_uniform_net(self, asia_net):
        counts = [np.zeros(t.shape[0]) for t in asia_net.cpts]
        rep = evaluate(asia_net, smooth(asia_net, counts))
        expect = kl_enumerate(asia_net, uniform_cpts(asia_net))
        assert rep.ce == pytest.approx(expect, rel=1e-9)

    def test_deterministic(self, asia_net):
        est = randomize_parameters(asia_net, np.random.default_rng(5))
        counts = [np.full(t.shape[0], 7.0) for t in asia_net.cpts]
        a = evaluate(asia_net, smooth(est, counts))
        b = evaluate(asia_net, smooth(est, counts))
        assert (a.ce, a.mse) == (b.ce, b.mse)

    def test_em_pipeline_ce_close_to_analytic_gap(self, basic_net, basic_mech):
        # end to end: sample from the fixed mechanism, fit EM, smooth, score
        from coarsebn.cli import ExperimentConfig, run_experiment

        cfg = ExperimentConfig(
            net=basic_net,
            coarsening=None,
            n=1000,
            z=5,
            runs=6,
            seed=123,
            mechanism=basic_mech,
        )
        rows, failures = run_experiment(cfg)
        assert not failures
        mean_em_ce = float(np.mean([r["ce_final_em"] for r in rows]))
        assert abs(mean_em_ce - binary_kl(0.2, THETA1_B)) < 0.004

    def test_experiment_calibrates_the_truth_once(self, monkeypatch):
        # both estimates of every run, over two experiments on one network,
        # are scored from one calibration of the truth, and each score is the
        # float evaluate gives the estimate alone.  A fresh network: the
        # session's asia_net may already hold its parent weights.
        from coarsebn import aim, cli, em, inference
        from coarsebn.coarsen import CoarseningSpec

        truth = read_network(fixture_path("asia.net"))
        fits = []
        for mod, name in ((em, "em_fit"), (aim, "aim_fit")):
            fit = getattr(mod, name)
            monkeypatch.setattr(
                mod, name, lambda *a, fit=fit, **k: fits.append(fit(*a, **k)) or fits[-1]
            )
        calibrations = []
        calibrate = inference.CliqueTree.calibrate

        def counting(self, net, bounds):
            calibrations.append(net)
            return calibrate(self, net, bounds)

        monkeypatch.setattr(inference.CliqueTree, "calibrate", counting)
        cfg = cli.ExperimentConfig(
            net=truth, coarsening=CoarseningSpec.parse("2:0.1:0.05"),
            n=300, z=3, runs=3, seed=5,
        )
        rows, failures = cli.run_experiment(cfg)
        assert not failures and len(rows) == 3
        assert calibrations == [truth]
        again, failures = cli.run_experiment(cfg)
        assert not failures and again == rows
        assert calibrations == [truth]
        monkeypatch.undo()
        for row, em_res, aim_res in zip(rows, fits[::2], fits[1::2]):
            rep_em = evaluate(truth, em_res.smoothed)
            rep_aim = evaluate(truth, aim_res.smoothed)
            assert row["ce_final_em"] == rep_em.ce and row["ce_final_aim"] == rep_aim.ce
            assert row["ce_diff"] == rep_aim.ce - rep_em.ce
            assert row["mse_diff"] == rep_aim.mse - rep_em.mse
