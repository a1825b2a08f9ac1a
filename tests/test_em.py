import math

import numpy as np
import pytest

from conftest import asia_data, bind_pattern, grouped, tree_table

from coarsebn import inference
from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from coarsebn.data import Dataset
from coarsebn.em import EmOptions, em_fit
from coarsebn.errors import DataError, ZeroSupportError
from coarsebn.likelihoods import face_value_loglik
from coarsebn.netformat import read_network
from coarsebn.network import Network, NodeSpec, ml_estimate, sample
from coarsebn.util import fixture_path


class TestEmFit:
    def test_complete_data_equals_ml(self, asia_net):
        rows = sample(asia_net, 400, np.random.default_rng(0))
        labels = [
            tuple(asia_net.nodes[i].states[rows[r, i]] for i in range(rows.shape[1]))
            for r in range(rows.shape[0])
        ]
        data = Dataset(
            tuple(s.name for s in asia_net.nodes),
            tuple((p, 1.0) for p in labels),
        )
        res = em_fit(asia_net, data)
        direct, _ = ml_estimate(asia_net, (rows, np.ones(rows.shape[0])))
        for a, b in zip(res.network.cpts, direct.cpts):
            assert np.allclose(a, b, atol=1e-12)
        assert len(res.trace) <= 3

    def test_fixture_reaches_face_value_optimum(self, basic_net, basic_data):
        res = em_fit(basic_net, basic_data, EmOptions(tol=1e-10))
        assert res.network.cpts[1][0, 0] == pytest.approx(0.2727, abs=1e-3)
        assert res.network.cpts[0][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert res.converged

    def test_closed_form_optimum_is_fixed_point(self, basic_net, basic_data):
        # theta_B = 0.15/0.55 maximizes 0.15 log t + 0.4 log(1-t); one EM
        # pass from it must stay put
        theta_star = basic_net.with_cpts(
            [np.array([[0.5, 0.5]]), np.array([[0.15 / 0.55, 0.4 / 0.55]])]
        )
        res = em_fit(basic_net, basic_data, EmOptions(init=theta_star, max_iters=2))
        assert res.network.cpts[1][0, 0] == pytest.approx(0.15 / 0.55, abs=1e-6)

    def test_monotone_ascent(self, asia_net):
        rng = np.random.default_rng(6)
        aug = build_coarsening_network(asia_net, CoarseningSpec(2, 0.15, 0.05), rng)
        data, _ = generate_dataset(aug, 300, rng)
        res = em_fit(asia_net, data, EmOptions(max_iters=40))
        lls = [t[1] for t in res.trace]
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-9

    def test_trace_matches_face_value_loglik(self, basic_net, basic_data):
        res = em_fit(basic_net, basic_data, EmOptions(max_iters=5))
        rep = face_value_loglik(res.network, basic_data)
        assert res.trace[-1][1] == pytest.approx(rep.per_case_average, abs=1e-12)

    def test_fixed_point_after_convergence(self, asia_net):
        rng = np.random.default_rng(9)
        aug = build_coarsening_network(asia_net, CoarseningSpec(1, 0.1, 0.03), rng)
        data, _ = generate_dataset(aug, 300, rng)
        tol = 1e-9
        res = em_fit(asia_net, data, EmOptions(tol=tol, max_iters=500))
        assert res.converged
        again = em_fit(
            asia_net, data, EmOptions(init=res.network, max_iters=2)
        )
        for a, b in zip(res.network.cpts, again.network.cpts):
            assert np.max(np.abs(a - b)) < 10 * math.sqrt(tol)

    def test_dense_and_ve_paths_agree(self, basic_net, basic_data, monkeypatch):
        dense = em_fit(basic_net, basic_data, EmOptions(max_iters=7))
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", 0)
        sparse = em_fit(basic_net, basic_data, EmOptions(max_iters=7))
        for a, b in zip(dense.network.cpts, sparse.network.cpts):
            assert np.allclose(a, b, atol=1e-12)
        for ta, tb in zip(dense.trace, sparse.trace):
            assert ta[1] == pytest.approx(tb[1], abs=1e-12)

    def test_tree_e_step_runs_one_calibration_per_step(self, monkeypatch):
        # a structure read here, whose clique tree no other test compiled
        asia_net = read_network(fixture_path("asia.net"))
        rng = np.random.default_rng(17)
        aug = build_coarsening_network(asia_net, CoarseningSpec(2, 0.1, 0.05), rng)
        data, _ = generate_dataset(aug, 80, rng)
        calls = {"calibrate": 0, "collect": 0, "compile": 0}
        batches = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                if key == "calibrate":
                    batches.append(len(args[2]))
                return fn(*args, **kwargs)

            return wrapper

        tree = inference.CliqueTree
        monkeypatch.setattr(tree, "calibrate", counted("calibrate", tree.calibrate))
        monkeypatch.setattr(tree, "_collect", counted("collect", tree._collect))
        monkeypatch.setattr(tree, "__init__", counted("compile", tree.__init__))
        dense = em_fit(asia_net, data, EmOptions(max_iters=2))
        assert calls == {"calibrate": 0, "collect": 0, "compile": 0}
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", 0)
        res = em_fit(asia_net, data, EmOptions(max_iters=2))
        assert len(res.trace) == 2
        k = len(grouped(data))
        # one calibration per E step, of every pattern at once
        assert calls == {"calibrate": 2, "collect": 2, "compile": 1}
        assert batches == [k, k]
        # the structure's tree is compiled once, whatever fits use it
        em_fit(asia_net, data, EmOptions(max_iters=1))
        assert calls == {"calibrate": 3, "collect": 3, "compile": 1}
        for a, b in zip(dense.network.cpts, res.network.cpts):
            assert np.allclose(a, b, atol=1e-12)

    def test_ve_e_step_matches_its_definition(self, asia_net):
        # P(U) is evidence_probability's float and the counts are the
        # weighted sums of posterior_family_marginals, bit for bit;
        # tub=yes, either=no is impossible and adds nothing
        from coarsebn.network import randomize_parameters

        cpts = list(randomize_parameters(asia_net, np.random.default_rng(3)).cpts)
        cpts[asia_net.node_index["either"]] = asia_net.cpts[asia_net.node_index["either"]]
        net = asia_net.with_cpts(cpts)
        names = tuple(s.name for s in asia_net.nodes)
        patterns = [
            (None, "yes", None, None, None, "no", None, None),
            (None, None, "no", None, "yes", None, None, "yes"),
            ("no", None, None, None, None, None, "yes", None),
        ]
        bounds = [bind_pattern(net, names, p) for p in patterns]
        weights = np.array([2.0, 3.5, 1.0])
        queries = tree_table(net, bounds)
        p_u, counts = queries.expected_counts(net, weights)
        want = [np.zeros(c.shape) for c in net.cpts]
        for k, pattern in enumerate(patterns):
            ev = {n: v for n, v in zip(names, pattern) if v is not None}
            assert p_u[k] == inference.evidence_probability(net, ev)
            if p_u[k] == 0.0:
                continue
            fams = inference.posterior_family_marginals(net, ev)
            for i, spec in enumerate(net.nodes):
                want[i] += weights[k] * fams[spec.name]
        assert p_u[0] == 0.0 and p_u[1] > 0.0 and p_u[2] > 0.0
        assert np.array_equal(counts, np.concatenate([b.ravel() for b in want]))

    def test_zero_iterations_rejected(self, basic_net, basic_data):
        with pytest.raises(DataError, match="max_iters"):
            em_fit(basic_net, basic_data, EmOptions(max_iters=0))

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_negative_or_nan_tol_rejected(self, basic_net, basic_data, tol):
        with pytest.raises(DataError, match="tol must be a non-negative number"):
            em_fit(basic_net, basic_data, EmOptions(tol=tol))

    @pytest.mark.parametrize("init", ["uniform", "random"])
    def test_negative_seed_rejected(self, basic_net, basic_data, init):
        with pytest.raises(DataError, match="seed must be a non-negative integer"):
            em_fit(basic_net, basic_data, EmOptions(init=init, seed=-1))

    @pytest.mark.parametrize("option", ["max_iters", "seed"])
    def test_non_integer_option_rejected(self, basic_net, basic_data, option):
        with pytest.raises(DataError, match=f"{option} must be a .*integer; got 2.5"):
            em_fit(basic_net, basic_data, EmOptions(init="random", **{option: 2.5}))

    def test_empty_dataset_rejected(self, basic_net):
        with pytest.raises(DataError, match="total weight must be positive"):
            em_fit(basic_net, Dataset(("A", "B"), ()))

    def test_dataset_bound_to_another_structure_refused(self, asia_net, basic_net, basic_data):
        bound = inference.BoundDataset(basic_net, basic_data)
        with pytest.raises(DataError, match="structure differs"):
            em_fit(asia_net, bound)

    def test_bound_dataset_fits_as_the_dataset(self, asia_net):
        data = asia_data(asia_net, n=200, seed=45)
        a = em_fit(asia_net, data)
        b = em_fit(asia_net, inference.BoundDataset(asia_net, data))
        assert a.trace == b.trace
        for x, y in zip(a.network.cpts + a.smoothed.cpts, b.network.cpts + b.smoothed.cpts):
            assert np.array_equal(x, y)

    def test_zero_tol_allowed(self, basic_net, basic_data):
        res = em_fit(basic_net, basic_data, EmOptions(tol=0.0, max_iters=5))
        assert len(res.trace) >= 2

    def test_mar_agreement_with_aim(self, basic_net):
        from coarsebn.aim import AimOptions, aim_fit

        rng = np.random.default_rng(15)
        aug = build_coarsening_network(basic_net, CoarseningSpec(0, 0.2, 0.0), rng)
        data, _ = generate_dataset(aug, 10_000, rng)
        em = em_fit(basic_net, data)
        aim = aim_fit(basic_net, em.network, data, AimOptions(z=10, seed=1))
        for a, b in zip(em.network.cpts, aim.network.cpts):
            assert np.max(np.abs(a - b)) < 0.02

    def test_all_zero_evidence_raises(self, basic_net):
        dead = basic_net.with_cpts(
            [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])]
        )
        data = Dataset(("A", "B"), ((("f", "f"), 1.0),))
        with pytest.raises(ZeroSupportError):
            em_fit(basic_net, data, EmOptions(init=dead))

    def test_tiny_total_weight_fits_like_the_unscaled_data(self, basic_net, basic_data):
        # "every observation has zero probability" is decided from P(U),
        # with no absolute slack on the excluded weight
        tiny = Dataset(basic_data.variables, tuple((p, w * 1e-13) for p, w in basic_data.cases))
        want, got = em_fit(basic_net, basic_data), em_fit(basic_net, tiny)
        assert got.converged and len(got.trace) == len(want.trace)
        for (it, ll, excluded), (it0, ll0, excluded0) in zip(got.trace, want.trace):
            assert it == it0 and excluded == excluded0 == 0.0
            assert ll == pytest.approx(ll0, abs=1e-9)

    def test_converges_with_excluded_weight(self, basic_net):
        # A=f is impossible from the start and stays so; the other ten
        # units still converge, and the trace keeps the exclusion visible
        init = basic_net.with_cpts([np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])])
        data = Dataset(
            ("A", "B"),
            (
                (("t", None), 6.0),
                (("t", "t"), 2.0),
                (("t", "f"), 2.0),
                (("f", "t"), 1.0),
            ),
        )
        res = em_fit(basic_net, data, EmOptions(init=init))
        assert res.converged
        assert len(res.trace) < 200
        assert all(ll == float("-inf") and ex == 1.0 for _, ll, ex in res.trace)
        assert res.network.cpts[1][0, 0] == pytest.approx(0.5, abs=1e-5)

    def test_init_of_another_structure_refused(self, basic_net, basic_data):
        # same nodes and states, but B has a parent: its CPT has two rows
        nodes = (basic_net.nodes[0], NodeSpec("B", basic_net.nodes[1].states, ("A",)))
        other = Network("other", nodes, (np.array([[0.5, 0.5]]), np.full((2, 2), 0.5)))
        with pytest.raises(DataError, match="does not match the structure"):
            em_fit(basic_net, basic_data, EmOptions(init=other))

    def test_random_init_deterministic(self, basic_net, basic_data):
        a = em_fit(basic_net, basic_data, EmOptions(init="random", seed=5))
        b = em_fit(basic_net, basic_data, EmOptions(init="random", seed=5))
        for x, y in zip(a.network.cpts, b.network.cpts):
            assert np.array_equal(x, y)

    def test_smoothed_output_uses_expected_counts(self, basic_net, basic_data):
        from coarsebn.network import smooth

        res = em_fit(basic_net, basic_data)
        manual = smooth(res.network, res.row_counts)
        for a, b in zip(res.smoothed.cpts, manual.cpts):
            assert np.array_equal(a, b)
