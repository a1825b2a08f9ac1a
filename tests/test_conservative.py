import numpy as np
import pytest

from conftest import asia_data, bind_pattern, grouped
from coarsebn import inference
from coarsebn.conservative import (
    conservative_ensemble,
    marginal_bounds,
    random_completion,
)
from coarsebn.data import Dataset
from coarsebn.errors import DataError
from coarsebn.network import ml_estimate, smooth
from coarsebn.util import stable_child_seed


def per_case_completion(net, data, rng):
    """Oracle: random_completion binding every case on its own."""
    k = len(net.nodes)
    rows = np.zeros((len(data.cases), k), dtype=np.int64)
    missing_mask = np.zeros((len(data.cases), k), dtype=bool)
    for r, (pattern, _) in enumerate(data.cases):
        for i, v in enumerate(bind_pattern(net, data.variables, pattern)):
            if v is None:
                missing_mask[r, i] = True
            else:
                rows[r, i] = v
    for i in range(k):
        hole = missing_mask[:, i]
        n_hole = int(hole.sum())
        if n_hole:
            rows[hole, i] = rng.integers(0, net.cards[i], size=n_hole)
    return rows


class TestRandomCompletion:
    def test_rows_equal_per_case_binding(self, asia_net, basic_net, basic_data, monkeypatch):
        asia = asia_data(asia_net, n=1000, seed=46)
        # a zero-weight case still gets its row; the header lacks node B
        zero = Dataset(("A",), ((("t",), 1.0), ((None,), 0.0), (("f",), 2.0)))
        binds = []
        binder = inference._bind

        def counting_binder(net, variables, patterns):
            binds.append(list(patterns))
            return binder(net, variables, patterns)

        monkeypatch.setattr(inference, "_bind", counting_binder)
        for net, data in [(asia_net, asia), (basic_net, basic_data), (basic_net, zero)]:
            binds.clear()
            for seed in range(3):
                got = random_completion(net, data, np.random.default_rng(seed))
                want = per_case_completion(net, data, np.random.default_rng(seed))
                assert got.dtype == want.dtype and np.array_equal(got, want)
            # one binding per call, of each distinct pattern once
            assert binds == 3 * [list(grouped(data))]


    def test_complete_data_identity(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "f"), 1.0), (("f", "t"), 1.0)))
        rows = random_completion(basic_net, d, np.random.default_rng(0))
        assert rows.tolist() == [[0, 1], [1, 0]]

    def test_uniform_fill_fraction(self, basic_net):
        d = Dataset(("A", "B"), tuple((("t", None), 1.0) for _ in range(20_000)))
        rows = random_completion(basic_net, d, np.random.default_rng(1))
        frac = (rows[:, 1] == 0).mean()
        assert abs(frac - 0.5) < 0.01

    def test_same_seed_identical(self, asia_net):
        pattern = tuple(None if i % 2 else "no" for i in range(len(asia_net.nodes)))
        d = Dataset(
            tuple(s.name for s in asia_net.nodes),
            tuple((pattern, 1.0) for _ in range(50)),
        )
        a = random_completion(asia_net, d, np.random.default_rng(3))
        b = random_completion(asia_net, d, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestConservativeEnsemble:
    def test_complete_data_zero_width(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "t"), 2.0), (("f", "f"), 2.0)))
        res = conservative_ensemble(basic_net, d, 8, seed=0)
        for lo, hi in zip(res.lower, res.upper):
            assert np.allclose(lo, hi)

    def test_fixture_envelope_inside_exact_bounds(self, basic_net, basic_data_n2000):
        res = conservative_ensemble(basic_net, basic_data_n2000, 50, seed=4)
        theta_b = [est.cpts[1][0, 0] for est in res.estimates]
        # exact completion extremes for P(B=t) are 0.15 and 0.6; smoothing
        # displaces each estimate by at most m/(k+m)
        slack = 2.0 / 2002.0
        assert min(theta_b) >= 0.15 - slack
        assert max(theta_b) <= 0.6 + slack
        theta_a = [est.cpts[0][0, 0] for est in res.estimates]
        assert all(abs(v - 0.5) < 1e-3 for v in theta_a)
        # random completions cannot reach the extremes
        assert max(theta_b) - min(theta_b) < 0.45

    def test_envelope_monotone_in_r(self, basic_net, basic_data_n2000):
        small = conservative_ensemble(basic_net, basic_data_n2000, 10, seed=9)
        big = conservative_ensemble(basic_net, basic_data_n2000, 11, seed=9)
        # stable per-index seeds: the first 10 estimates coincide
        for a, b in zip(small.estimates, big.estimates):
            for ta, tb in zip(a.cpts, b.cpts):
                assert np.array_equal(ta, tb)
        for i in range(len(basic_net.nodes)):
            assert np.all(big.lower[i] <= small.lower[i] + 1e-15)
            assert np.all(big.upper[i] >= small.upper[i] - 1e-15)

    def test_midpoint_is_interval_center(self, basic_net, basic_data_n2000):
        res = conservative_ensemble(basic_net, basic_data_n2000, 5, seed=2)
        for lo, hi, mid in zip(res.lower, res.upper, res.midpoint):
            assert np.allclose(mid, (lo + hi) / 2)

    @pytest.mark.parametrize("n_completions", [2.5, 0])
    def test_non_integer_or_zero_completions_rejected(self, basic_net, basic_data, n_completions):
        with pytest.raises(DataError, match="n_completions must be a positive integer"):
            conservative_ensemble(basic_net, basic_data, n_completions, 1)

    def test_one_binding_per_ensemble(self, asia_net, monkeypatch):
        # every completion reads one bound dataset, with the estimates each
        # completion bound on its own gives
        data = asia_data(asia_net, n=200, seed=45)
        weights = np.array([w for _, w in data.cases])
        want = []
        for r in range(5):
            rows = random_completion(asia_net, data, np.random.default_rng(stable_child_seed(7, r)))
            want.append(smooth(*ml_estimate(asia_net, (rows, weights))))
        built = []
        init = inference.BoundDataset.__init__
        monkeypatch.setattr(
            inference.BoundDataset, "__init__", lambda self, *args: built.append(1) or init(self, *args)
        )
        res = conservative_ensemble(asia_net, data, 5, 7)
        assert len(built) == 1
        for got, est in zip(res.estimates, want, strict=True):
            for a, b in zip(got.cpts, est.cpts):
                assert np.array_equal(a, b)

    def test_bound_dataset_gives_the_plain_datasets_ensemble(self, asia_net):
        data = asia_data(asia_net, n=200, seed=45)
        plain = conservative_ensemble(asia_net, data, 3, 7)
        bound = conservative_ensemble(asia_net, inference.BoundDataset(asia_net, data), 3, 7)
        for got, want in zip(bound.estimates, plain.estimates, strict=True):
            assert np.array_equal(got.theta, want.theta)
        for field in ("lower", "upper", "midpoint"):
            for a, b in zip(getattr(bound, field), getattr(plain, field), strict=True):
                assert np.array_equal(a, b)


class TestMarginalBounds:
    def test_fixture_bounds_for_b(self, basic_data):
        low, high, mid = marginal_bounds(basic_data, "B", "t")
        assert low == pytest.approx(0.15, abs=1e-12)
        assert high == pytest.approx(0.6, abs=1e-12)
        assert mid == pytest.approx(0.375, abs=1e-12)

    def test_fixture_bounds_for_a(self, basic_data):
        low, high, mid = marginal_bounds(basic_data, "A", "t")
        assert low == pytest.approx(0.5, abs=1e-12)
        assert high == pytest.approx(0.5, abs=1e-12)

    def test_complete_data_zero_width(self):
        d = Dataset(("X",), ((("a",), 3.0), (("b",), 1.0)))
        low, high, _ = marginal_bounds(d, "X", "a")
        assert low == high == pytest.approx(0.75)

    def test_width_equals_missing_fraction(self, basic_data):
        low, high, _ = marginal_bounds(basic_data, "B", "t")
        missing = sum(w for p, w in basic_data.cases if p[1] is None)
        assert high - low == pytest.approx(missing / basic_data.total_weight)

    def test_unknown_variable_rejected(self, basic_data):
        with pytest.raises(DataError):
            marginal_bounds(basic_data, "Z", "t")

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="total weight must be positive"):
            marginal_bounds(Dataset(("A",), ()), "A", "a")

    def test_unknown_state_rejected_with_net(self, basic_net, basic_data):
        with pytest.raises(DataError):
            marginal_bounds(basic_data, "B", "zzz", net=basic_net)

    def test_ensemble_root_marginals_inside_bounds(self, basic_net, basic_data_n2000):
        low, high, _ = marginal_bounds(basic_data_n2000, "B", "t")
        res = conservative_ensemble(basic_net, basic_data_n2000, 20, seed=6)
        slack = 2.0 / 2002.0  # smoothing displacement m/(k+m)
        for est in res.estimates:
            v = est.cpts[1][0, 0]
            assert low - slack <= v <= high + slack
