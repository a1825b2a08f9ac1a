import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import asia_data, bind_pattern, conservative_oracle, grouped
from coarsebn import inference
from coarsebn.conservative import conservative_intervals, marginal_bounds, random_completion
from coarsebn.data import Dataset
from coarsebn.errors import DataError
from coarsebn.network import Network, NodeSpec, ml_estimate, sample, smooth, uniform_cpts


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


@st.composite
def small_problems(draw):
    """1 to 3 nodes of 2 or 3 states, parents among the earlier nodes in
    any order, and 1 to 6 cases of integer or fractional weight with at
    most 4096 completions in all."""
    specs = []
    for i, card in enumerate(draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))):
        parents = draw(st.permutations(range(i)).flatmap(lambda p: st.sampled_from(
            [p[:k] for k in range(len(p) + 1)])))
        specs.append(NodeSpec(f"v{i}", tuple(f"s{j}" for j in range(card)),
                              tuple(f"v{p}" for p in parents)))
    net = uniform_cpts(Network("small", specs, ()))
    cases, completions = [], 1
    for _ in range(draw(st.integers(1, 6))):
        pattern = []
        for card in net.cards:
            value, hidden = draw(st.integers(0, card - 1)), draw(st.booleans())
            hidden = hidden and completions * card <= 4096
            completions *= card if hidden else 1
            pattern.append(None if hidden else f"s{value}")
        weight = draw(st.integers(1, 3) | st.floats(0.125, 3.0))
        cases.append((tuple(pattern), float(weight)))
    return net, Dataset(tuple(spec.name for spec in specs), tuple(cases))


def completion_estimates(net, data, seeds):
    """The smoothed ML estimate of one random completion per seed."""
    weights = np.array([w for _, w in data.cases])
    for seed in seeds:
        rows = random_completion(net, data, np.random.default_rng(seed))
        yield smooth(*ml_estimate(net, (rows, weights))).theta


class TestConservativeIntervals:
    def test_basic_equals_every_completion_oracle(self, basic_net, basic_data):
        low, high = conservative_intervals(basic_net, basic_data)
        want_low, want_high = conservative_oracle(basic_net, basic_data)
        assert np.allclose(low, want_low, rtol=0, atol=1e-12)
        assert np.allclose(high, want_high, rtol=0, atol=1e-12)

    @given(problem=small_problems())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_small_problems_equal_every_completion_oracle(self, problem):
        net, data = problem
        low, high = conservative_intervals(net, data)
        want_low, want_high = conservative_oracle(net, data)
        assert np.allclose(low, want_low, rtol=0, atol=1e-12)
        assert np.allclose(high, want_high, rtol=0, atol=1e-12)

    def test_random_completions_inside(self, asia_net, basic_net, basic_data_n2000):
        for net, data in [(asia_net, asia_data(asia_net, n=200, seed=45)),
                          (basic_net, basic_data_n2000)]:
            low, high = conservative_intervals(net, data)
            assert np.all(low <= high)
            for theta in completion_estimates(net, data, range(20)):
                assert np.all(low - 1e-12 <= theta) and np.all(theta <= high + 1e-12)

    def test_complete_data_zero_width(self, asia_net):
        rows = sample(asia_net, 50, np.random.default_rng(3))
        data = Dataset(
            tuple(spec.name for spec in asia_net.nodes),
            tuple((tuple(spec.states[v] for spec, v in zip(asia_net.nodes, row)), 1.5)
                  for row in rows.tolist()),
        )
        low, high = conservative_intervals(asia_net, data)
        [theta] = completion_estimates(asia_net, data, [0])
        assert np.allclose(low, theta, rtol=0, atol=1e-15)
        assert np.allclose(high, theta, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "data_name", ["basic_data", "basic_data_n2000"], ids=["fixture", "n2000"]
    )
    def test_root_matches_marginal_bounds(self, basic_net, data_name, request):
        # a root's interval is `marginal_bounds`' with the pseudo-counts added
        data = request.getfixturevalue(data_name)
        low, high = conservative_intervals(basic_net, data)
        total = data.total_weight
        for i, spec in enumerate(basic_net.nodes):  # both nodes are roots
            for s, state in enumerate(spec.states):
                m_low, m_high, _ = marginal_bounds(data, spec.name, state)
                at = 2 * i + s
                assert low[at] == pytest.approx((m_low * total + 1) / (total + 2), abs=1e-12)
                assert high[at] == pytest.approx((m_high * total + 1) / (total + 2), abs=1e-12)

    def test_one_binding_per_call(self, asia_net, monkeypatch):
        data = asia_data(asia_net, n=200, seed=45)
        bound = inference.BoundDataset(asia_net, data)
        built = []
        init = inference.BoundDataset.__init__
        monkeypatch.setattr(
            inference.BoundDataset, "__init__", lambda self, *args: built.append(1) or init(self, *args)
        )
        conservative_intervals(asia_net, data)
        assert len(built) == 1
        conservative_intervals(asia_net, bound)  # an already bound dataset is not bound again
        assert len(built) == 1

    def test_bound_dataset_gives_the_same_intervals(self, asia_net):
        data = asia_data(asia_net, n=200, seed=45)
        plain = conservative_intervals(asia_net, data)
        got = conservative_intervals(asia_net, inference.BoundDataset(asia_net, data))
        for a, b in zip(got, plain, strict=True):
            assert a.shape == asia_net.theta.shape and np.array_equal(a, b)


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
