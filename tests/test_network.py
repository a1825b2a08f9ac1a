import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsebn.aim import aim_fit
from coarsebn.data import Dataset
from coarsebn.em import EmOptions, em_fit
from coarsebn.errors import DataError
from coarsebn.network import (
    ROW_SUM_TOL,
    Network,
    NodeSpec,
    joint_probability,
    ml_estimate,
    parent_rows,
    randomize_parameters,
    sample,
    smooth,
    uniform_cpts,
    validate_network,
)


def enumerate_assignments(net):
    """All full assignments in C order (last node varying fastest)."""
    return np.ndindex(*net.cards)


def log_joint_rows(net, rows):
    """log P(x) for each assignment row; -inf where some factor is zero."""
    logp = np.zeros(rows.shape[0])
    with np.errstate(divide="ignore"):
        for i in range(len(net.nodes)):
            logp += np.log(net.cpts[i][parent_rows(net, rows, i), rows[:, i]])
    return logp


class TestValidate:
    def test_basic_fixture_is_clean(self, basic_net):
        assert validate_network(basic_net) == []

    def test_bad_row_sum_reported(self):
        net = Network(
            "bad",
            (NodeSpec("A", ("t", "f")),),
            (np.array([[0.3, 0.6]]),),
        )
        diags = validate_network(net)
        assert len(diags) == 1
        assert "row 0 sum 0.9" in diags[0]

    def test_two_cycle_reported(self):
        net = Network(
            "cyc",
            (
                NodeSpec("A", ("t", "f"), ("B",)),
                NodeSpec("B", ("t", "f"), ("A",)),
            ),
            (np.eye(2), np.eye(2)),
        )
        assert any("cycle" in d for d in validate_network(net))

    def test_unknown_parent_and_single_state(self):
        net = Network(
            "bad",
            (NodeSpec("A", ("t",), ("Q",)),),
            (np.array([[1.0]]),),
        )
        diags = validate_network(net)
        assert any("unknown parent" in d for d in diags)
        assert any("at least 2 states" in d for d in diags)

    def test_nan_entry_refused_by_the_fitters(self):
        # every comparison with NaN is False, so the range and sum checks pass it
        net = Network("x", (NodeSpec("A", ("t", "f")),), ([[float("nan"), 1.0]],))
        assert validate_network(net) == ["node A: row 0 has non-finite entries"]
        data = Dataset(("A",), ((("t",), 1.0), ((None,), 1.0)))
        with pytest.raises(DataError, match="initial network invalid: .*non-finite"):
            em_fit(net, data, EmOptions(init=net))
        with pytest.raises(DataError, match="theta0 invalid: .*non-finite"):
            aim_fit(net, net, data)


def per_row_validate(net):
    """Oracle: validate_network with every CPT row checked on its own."""
    diags = []
    seen = set()
    for spec in net.nodes:
        if spec.name in seen:
            diags.append(f"duplicate node name {spec.name!r}")
        seen.add(spec.name)
        if len(spec.states) < 2:
            diags.append(f"node {spec.name}: needs at least 2 states")
        if len(set(spec.states)) != len(spec.states):
            diags.append(f"node {spec.name}: duplicate state labels")
        for p in spec.parents:
            if p not in seen and p not in {s.name for s in net.nodes}:
                diags.append(f"node {spec.name}: unknown parent {p!r}")
        if spec.name in spec.parents:
            diags.append(f"node {spec.name}: is its own parent")
        if len(set(spec.parents)) != len(spec.parents):
            diags.append(f"node {spec.name}: duplicate parents")
    names = {s.name for s in net.nodes}
    pending = {
        s.name: {p for p in s.parents if p in names and p != s.name} for s in net.nodes
    }
    while pending:
        free = sorted(n for n, ps in pending.items() if not ps)
        if not free:
            diags.append("parent relation has a cycle among: " + ", ".join(sorted(pending)))
            break
        for n in free:
            del pending[n]
        for ps in pending.values():
            ps.difference_update(free)
    if len(net.cpts) != len(net.nodes):
        diags.append(f"{len(net.cpts)} CPTs for {len(net.nodes)} nodes")
        return diags
    if diags and any(
        "cycle" in d or "unknown parent" in d or "duplicate node" in d for d in diags
    ):
        return diags
    for i, spec in enumerate(net.nodes):
        table = net.cpts[i]
        expect = (net.n_rows[i], len(spec.states))
        if table.shape != expect:
            diags.append(f"node {spec.name}: cpt shape {table.shape} != expected {expect}")
            continue
        for r in range(table.shape[0]):
            row = table[r]
            if not np.all(np.isfinite(row)):
                diags.append(f"node {spec.name}: row {r} has non-finite entries")
                continue
            if np.any(row < -1e-12) or np.any(row > 1 + 1e-12):
                diags.append(f"node {spec.name}: row {r} has entries outside [0,1]")
            s = float(row.sum())
            if abs(s - 1.0) > ROW_SUM_TOL:
                diags.append(f"node {spec.name}: row {r} sum {s:.12g} != 1")
    return diags


def two_node_net(a_rows, b_rows, b_parents=("A",), a_parents=()):
    nodes = (
        NodeSpec("A", ("t", "f"), a_parents),
        NodeSpec("B", ("t", "f", "u"), b_parents),
    )
    return Network("crafted", nodes, (np.array(a_rows), np.array(b_rows)))


GOOD_B = [[0.2, 0.3, 0.5], [0.6, 0.4, 0.0]]
CRAFTED = {
    "negative entry": two_node_net([[-0.1, 1.1]], GOOD_B),
    "entry above 1": two_node_net([[0.5, 0.5]], [[1.2, -0.1, -0.1], [0.6, 0.4, 0.0]]),
    "bad row sum": two_node_net([[0.3, 0.6]], GOOD_B),
    "several bad rows": two_node_net(
        [[0.5, 0.6]], [[-0.5, 0.2, 0.1], [0.6, 0.4, 1.0 + 2e-9]]
    ),
    "within tolerance": two_node_net(
        [[-1e-13, 1.0 + 1e-13]], [[0.2, 0.3, 0.5 + 5e-10], [0.6, 0.4, 0.0]]
    ),
    "wrong shape": two_node_net([[0.5, 0.5]], [[0.2, 0.3, 0.5]]),
    "non-finite entries": two_node_net(
        [[float("nan"), 1.0]], [[float("inf"), 0.0, 0.0], [0.6, 0.4, 0.0]]
    ),
    "cycle": two_node_net([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], GOOD_B, a_parents=("B",)),
}


class TestValidateRows:
    """The vectorised row checks write the per-row diagnostics, in order."""

    @pytest.mark.parametrize("case", sorted(CRAFTED))
    def test_crafted_networks_match_per_row_checks(self, case):
        net = CRAFTED[case]
        expect = per_row_validate(net)
        assert validate_network(net) == expect
        assert (expect == []) == (case == "within tolerance")

    def test_several_bad_rows_listed_in_order(self):
        assert validate_network(CRAFTED["several bad rows"]) == [
            "node A: row 0 sum 1.1 != 1",
            "node B: row 0 has entries outside [0,1]",
            "node B: row 0 sum -0.2 != 1",
            "node B: row 1 has entries outside [0,1]",
            "node B: row 1 sum 2.000000002 != 1",
        ]

    def test_clean_networks_match(self, asia_net):
        for seed in range(3):
            net = randomize_parameters(asia_net, np.random.default_rng(seed))
            assert validate_network(net) == per_row_validate(net) == []


class TestJointProbability:
    def test_basic_product(self, basic_net):
        # hand product: 0.5 * 0.2
        assert joint_probability(basic_net, (0, 0)) == pytest.approx(0.1, abs=1e-15)

    def test_normalization(self, basic_net, asia_net):
        for net in (basic_net, asia_net):
            total = sum(joint_probability(net, x) for x in enumerate_assignments(net))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_asia_matches_independent_lookup(self, asia_net):
        # oracle: per-node lookup recomputed here without parent_row
        rng = np.random.default_rng(1)
        name_to_i = {s.name: i for i, s in enumerate(asia_net.nodes)}
        for _ in range(20):
            x = tuple(int(rng.integers(0, c)) for c in asia_net.cards)
            expect = 1.0
            for i, spec in enumerate(asia_net.nodes):
                row = 0
                for p in spec.parents:
                    row = row * len(asia_net.nodes[name_to_i[p]].states) + x[name_to_i[p]]
                expect *= asia_net.cpts[i][row, x[i]]
            assert joint_probability(asia_net, x) == pytest.approx(expect, rel=1e-14)

    def test_dimension_mismatch(self, basic_net):
        with pytest.raises(DataError):
            joint_probability(basic_net, (0, 0, 0))


class TestSample:
    def test_empty(self, basic_net):
        assert sample(basic_net, 0, np.random.default_rng(0)).shape == (0, 2)

    def test_empirical_marginal(self, basic_net):
        rows = sample(basic_net, 100_000, np.random.default_rng(42))
        # 99% binomial bound: 2.58*sqrt(0.2*0.8/1e5) ~ 0.0033 < 0.005
        assert abs((rows[:, 1] == 0).mean() - 0.2) < 0.005

    def test_deterministic(self, asia_net):
        a = sample(asia_net, 500, np.random.default_rng(9))
        b = sample(asia_net, 500, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestRandomize:
    def test_rows_normalized_and_structure_kept(self, basic_net):
        out = randomize_parameters(basic_net, np.random.default_rng(0))
        assert out.nodes == basic_net.nodes
        assert validate_network(out) == []

    def test_deterministic(self, asia_net):
        a = randomize_parameters(asia_net, np.random.default_rng(3))
        b = randomize_parameters(asia_net, np.random.default_rng(3))
        for ta, tb in zip(a.cpts, b.cpts):
            assert np.array_equal(ta, tb)

    def test_mean_first_entry_symmetric(self, basic_net):
        rng = np.random.default_rng(7)
        vals = [
            randomize_parameters(basic_net, rng).cpts[0][0, 0] for _ in range(10_000)
        ]
        assert abs(float(np.mean(vals)) - 0.5) < 0.02


class TestMlEstimate:
    def test_exact_weights_recover_basic(self, basic_net):
        data = [
            ((0, 0), 0.1),
            ((0, 1), 0.4),
            ((1, 0), 0.1),
            ((1, 1), 0.4),
        ]
        fitted, counts = ml_estimate(basic_net, data)
        assert fitted.cpts[0][0, 0] == pytest.approx(0.5, abs=1e-15)
        assert fitted.cpts[1][0, 0] == pytest.approx(0.2, abs=1e-15)
        assert counts[0][0] == pytest.approx(1.0)

    def test_single_case_point_mass_and_uniform_elsewhere(self, asia_net):
        x = tuple(0 for _ in asia_net.nodes)
        fitted, _ = ml_estimate(asia_net, [(x, 1.0)])
        for i, spec in enumerate(asia_net.nodes):
            seen_row = asia_net.parent_row(i, x)
            assert fitted.cpts[i][seen_row, 0] == 1.0
            for r in range(fitted.cpts[i].shape[0]):
                if r != seen_row:
                    assert np.allclose(fitted.cpts[i][r], 0.5)

    def test_consistency_on_asia(self, asia_net):
        from coarsebn.evaluate import kl_enumerate

        rows = sample(asia_net, 100_000, np.random.default_rng(5))
        fitted, _ = ml_estimate(asia_net, (rows, np.ones(rows.shape[0])))
        assert kl_enumerate(asia_net, fitted) < 0.01

    @pytest.mark.parametrize("which", ["basic", "asia"])
    def test_ml_maximizes_weighted_loglik(self, which, basic_net, asia_net):
        net = basic_net if which == "basic" else asia_net
        rows = sample(net, 2000, np.random.default_rng(11))
        weights = np.ones(rows.shape[0])
        fitted, _ = ml_estimate(net, (rows, weights))
        base = float(weights @ log_joint_rows(fitted, rows))
        for i in range(len(net.nodes)):
            for r in range(fitted.cpts[i].shape[0]):
                for s in range(fitted.cpts[i].shape[1]):
                    for eps in (1e-4, -1e-4):
                        cpts = [t.copy() for t in fitted.cpts]
                        row = cpts[i][r].copy()
                        if row[s] + eps < 0 or row[s] + eps > 1:
                            continue
                        row[s] += eps
                        cpts[i][r] = row / row.sum()
                        pert = fitted.with_cpts(cpts)
                        val = float(weights @ log_joint_rows(pert, rows))
                        assert val <= base + 1e-12


class TestSmooth:
    def test_zero_count_row_goes_uniform(self, basic_net):
        net = basic_net.with_cpts([np.array([[1.0, 0.0]]), basic_net.cpts[1]])
        out = smooth(net, [np.array([0.0]), np.array([0.0])])
        assert np.allclose(out.cpts[0][0], [0.5, 0.5])

    def test_direct_formula_k998(self, basic_net):
        net = basic_net.with_cpts([np.array([[0.2, 0.8]]), basic_net.cpts[1]])
        out = smooth(net, [np.array([998.0]), np.array([0.0])])
        assert out.cpts[0][0, 0] == pytest.approx(0.2006, abs=1e-12)
        assert out.cpts[0][0, 1] == pytest.approx(0.7994, abs=1e-12)

    def test_direct_formula_k10(self, basic_net):
        net = basic_net.with_cpts([np.array([[1.0, 0.0]]), basic_net.cpts[1]])
        out = smooth(net, [np.array([10.0]), np.array([0.0])])
        assert out.cpts[0][0, 0] == pytest.approx(11.0 / 12.0, abs=1e-15)
        assert out.cpts[0][0, 1] == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_twice_differs_from_once_but_sums_hold(self, basic_net):
        once = smooth(basic_net, [np.array([10.0]), np.array([10.0])])
        twice = smooth(once, [np.array([10.0]), np.array([10.0])])
        assert not np.allclose(once.cpts[1], twice.cpts[1])
        for net in (once, twice):
            for t in net.cpts:
                assert np.allclose(t.sum(axis=1), 1.0, atol=1e-15)

    @given(
        row=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6
        ).filter(lambda r: sum(r) > 1e-9),
        k=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalization_preserved_and_interior(self, row, k):
        arr = np.array(row) / sum(row)
        net = Network(
            "h",
            (NodeSpec("X", tuple(f"s{i}" for i in range(len(row)))),),
            (arr.reshape(1, -1),),
        )
        out = smooth(net, [np.array([k])])
        assert out.cpts[0].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.cpts[0] > 0)
        assert np.all(out.cpts[0] < 1)


def test_uniform_cpts(asia_net):
    net = uniform_cpts(asia_net)
    assert validate_network(net) == []
    assert all(np.allclose(t, 1.0 / t.shape[1]) for t in net.cpts)
