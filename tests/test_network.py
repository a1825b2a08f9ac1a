import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    asia_data,
    declaration_pass_order,
    kahn_cycle_diags,
    per_node_randomize,
    TRI_NET,
    joint_probability,
    joint_probs,
    parent_row,
    per_node_family_counts,
    per_node_kl,
    per_node_params,
    per_node_sample,
    per_node_smooth,
    random_dag,
    row_major_sample,
    unravel,
    with_tables,
)
from coarsebn import network as network_mod
from coarsebn.aim import aim_fit
from coarsebn.data import Dataset
from coarsebn.em import EmOptions, em_fit
from coarsebn.errors import DataError
from coarsebn.evaluate import kl_decomposed
from coarsebn.inference import full_joint_table
from coarsebn.netformat import parse_network, read_network
from coarsebn.network import (
    ROW_SUM_TOL,
    Network,
    NodeSpec,
    cell_probs,
    family_counts,
    ml_estimate,
    params_from_family_counts,
    parent_rows,
    randomize_parameters,
    sample,
    smooth,
    start_network,
    state_cells,
    uniform_cpts,
    unravel_rows,
    validate_network,
)
from coarsebn.util import fixture_path


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
        with pytest.raises(DataError, match="initial network invalid: .*non-finite"):
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
    diags += kahn_cycle_diags(net)
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


@st.composite
def tangled_networks(draw):
    """Small binary networks whose parents may be unknown, the node itself or
    a name declared twice: cycles, nodes below them, and clean DAGs."""
    names = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=6))
    parents = st.lists(st.sampled_from("ABCDEQ"), max_size=3)
    specs = tuple(NodeSpec(n, ("t", "f"), tuple(draw(parents))) for n in names)
    return Network("tangled", specs, tuple(np.full((1, 2), 0.5) for _ in specs))


def outcome(f, net):
    try:
        return f(net)
    except (DataError, KeyError) as exc:
        return type(exc)


class TestPlacement:
    """One placement gives `topo_order` and the cycle diagnostic, as the
    order's own loop and Kahn's loop on node names gave them."""

    @given(net=tangled_networks())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_old_loops(self, net):
        diags = validate_network(net)
        assert diags == per_row_validate(net)
        assert [d for d in diags if "cycle" in d] == kahn_cycle_diags(net)
        got = outcome(lambda n: n.topo_order, net)
        assert got == outcome(declaration_pass_order, net)

    def test_last_duplicate_stands(self):
        # the first A sits below the B-C cycle, the A declared last does not
        nodes = [("A", ("B",)), ("B", ("C",)), ("C", ("B",)), ("A", ())]
        net = Network("dup", tuple(NodeSpec(n, ("t", "f"), ps) for n, ps in nodes),
                      tuple(np.full((1, 2), 0.5) for _ in nodes))
        cycle = ["parent relation has a cycle among: B, C"]
        assert kahn_cycle_diags(net) == cycle
        assert [d for d in validate_network(net) if "cycle" in d] == cycle

    def test_unknown_parent_is_a_data_error(self):
        # callers that skip validate_network get the diagnostic it lists,
        # naming the node and its parent, not a bare KeyError
        nodes = (NodeSpec("B", ("t", "f")), NodeSpec("A", ("t", "f"), ("B", "Z")))
        net = Network("orphan", nodes, tuple(np.full((1, 2), 0.5) for _ in nodes))
        message = "node A: unknown parent 'Z'"
        assert message in validate_network(net)
        with pytest.raises(DataError, match=f"^{message}$"):
            net.topo_order
        with pytest.raises(DataError, match=f"^{message}$"):
            sample(net, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("which", ["asia", "tri", "dag17", "alarm_like"])
    def test_fixture_orders(self, which, asia_net):
        net = oracle_net(which, asia_net)
        assert net.topo_order == declaration_pass_order(net)


class TestStartNetwork:
    """EM and AI&M check their start network in one place."""

    @pytest.mark.parametrize("which", ["18 roots", "asia unparented"])
    def test_other_structure_refused_by_both_fitters(self, which, asia_net):
        if which == "18 roots":  # as many cells as asia
            nodes = tuple(NodeSpec(f"R{i}", ("t", "f")) for i in range(18))
            assert 2 * len(nodes) == len(asia_net.theta) == 36
        else:
            nodes = tuple(NodeSpec(s.name, s.states) for s in asia_net.nodes)
        other = Network(which, nodes, tuple(np.full((1, 2), 0.5) for _ in nodes))
        assert validate_network(other) == []
        data = asia_data(asia_net, n=40)
        match = "^initial network does not match the structure$"
        with pytest.raises(DataError, match=match):
            aim_fit(asia_net, other, data)
        with pytest.raises(DataError, match=match):
            em_fit(asia_net, data, EmOptions(init=other))

    def test_named_starts(self, asia_net):
        # "uniform" and "random" (one draw from the seed) for both fitters;
        # any other name is refused
        assert start_network(asia_net, "uniform").theta.tobytes() == (
            uniform_cpts(asia_net).theta.tobytes()
        )
        drawn = randomize_parameters(asia_net, np.random.default_rng(4))
        assert start_network(asia_net, "random", 4).theta.tobytes() == drawn.theta.tobytes()
        with pytest.raises(DataError, match="^unknown init 'bogus'$"):
            start_network(asia_net, "bogus")


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


class TestJointProbs:
    def test_every_asia_state_bit_for_bit(self, asia_net):
        # one gather of the states' cells, multiplied in node order as
        # joint_probability and the dense joint table do, so every value is
        # the same float
        cells = state_cells(asia_net, unravel_rows(asia_net, np.arange(256)))
        assert cells.dtype == np.int64 and cells.shape == (256, 8)
        for net in (asia_net, randomize_parameters(asia_net, np.random.default_rng(6))):
            p = cell_probs(net, cells)
            assert p.tolist() == [joint_probability(net, unravel(net, r)) for r in range(256)]
            assert np.array_equal(p, full_joint_table(net).reshape(-1))
            assert np.array_equal(p, joint_probs(net, np.arange(256)))

    def test_empty_batch(self, asia_net):
        cells = state_cells(asia_net, unravel_rows(asia_net, []))
        assert cells.shape == (0, 8)
        assert cell_probs(asia_net, cells).shape == (0,)


class TestUnravelRows:
    def test_every_asia_state(self, asia_net):
        rows = unravel_rows(asia_net, np.arange(256))
        assert rows.dtype == np.int64 and rows.shape == (256, 8)
        assert rows.tolist() == [list(unravel(asia_net, r)) for r in range(256)]

    def test_largest_alarm_like_index(self):
        net = read_network(fixture_path("alarm_like.net"))
        last = net.n_assignments - 1
        rows = unravel_rows(net, [last, last // 3, 0])
        assert rows.tolist() == [list(unravel(net, r)) for r in (last, last // 3, 0)]
        assert rows[0].tolist() == [c - 1 for c in net.cards]


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

    @pytest.mark.parametrize("which", ["asia", "alarm_like", "short_rows"])
    @pytest.mark.parametrize("n", [0, 1, 2000])
    def test_equals_row_major_sampling(self, which, n, asia_net):
        # node-major sampling draws the states of the row-major loop and
        # leaves the generator where it did; on rows summing to 0.7 about a
        # third of the uniforms pass every cumulative sum and take the last
        # state, as the old capped count gave it
        if which == "alarm_like":
            net = read_network(fixture_path("alarm_like.net"))
        else:
            net = asia_net
        if which == "short_rows":
            net = Network("short", net.nodes, tuple(0.7 * cpt for cpt in net.cpts))
        got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = sample(net, n, got_rng)
        want = row_major_sample(net, n, want_rng)
        assert got.shape == want.shape == (n, len(net.nodes))
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


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

    @pytest.mark.parametrize("which", ["asia", "tri", "dag17", "alarm_like"])
    def test_equals_per_node_draws(self, which, asia_net):
        net = oracle_net(which, asia_net)
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = randomize_parameters(net, got_rng)
        assert got.theta.tobytes() == per_node_randomize(net, want_rng).theta.tobytes()
        assert got_rng.random() == want_rng.random()

    def test_mean_first_entry_symmetric(self, basic_net):
        rng = np.random.default_rng(7)
        vals = [
            randomize_parameters(basic_net, rng).cpts[0][0, 0] for _ in range(10_000)
        ]
        assert abs(float(np.mean(vals)) - 0.5) < 0.02


class TestRefusals:
    def test_state_index_of_unknown_node(self, basic_net):
        with pytest.raises(DataError, match="^unknown node 'Z'$"):
            basic_net.state_index("Z", "t")

    def test_cpt_count_mismatch(self, basic_net):
        net = Network("short", basic_net.nodes, basic_net.cpts[:1])
        assert validate_network(net) == ["1 CPTs for 2 nodes"]

    @pytest.mark.parametrize("weights, what", [
        ([-1.0, 2.0], "^weights must be nonnegative$"),
        ([0.0, 0.0], "^total weight must be positive$"),
    ])
    def test_ml_estimate_weights(self, basic_net, weights, what):
        with pytest.raises(DataError, match=what):
            ml_estimate(basic_net, (np.array([(0, 0), (1, 1)]), np.array(weights)))

    @pytest.mark.parametrize("rows, weights, what", [
        ([(1, -1), (0, 0)], [1.0, 1.0], "^need one row of 2 state indices per weight$"),
        ([(2, 0)], [1.0], "^need one row of 2 state indices per weight$"),
        ([(0, 0, 0)], [1.0], "^need one row of 2 state indices per weight$"),
        ([(0, 0)], [1.0, 1.0], "^need one row of 2 state indices per weight$"),
        ([(0.5, 0)], [1.0], "^need one row of 2 state indices per weight$"),
        ([(0, 0), (1, 1)], [float("nan"), 1.0], "^weights must be finite$"),
        ([(0, 0), (1, 1)], [float("inf"), 1.0], "^weights must be finite$"),
    ])
    def test_ml_estimate_malformed_rows(self, basic_net, rows, weights, what):
        # negative or too large states, wrong widths and non-finite weights
        # once counted into other cells or gave NaN rows
        with pytest.raises(DataError, match=what):
            ml_estimate(basic_net, (np.array(rows), np.array(weights)))

    @pytest.mark.parametrize("counts, what", [
        ([[1.0, 2.0], [0.0]], r"^row counts per node \(2, 1\) for CPT rows per node \(1, 1\)$"),
        ([[-1.0], [0.0]], "^row counts must be nonnegative$"),
        ([[float("nan")], [0.0]], "^row counts must be finite$"),
        ([[1.0], [float("inf")]], "^row counts must be finite$"),
    ])
    def test_smooth_row_counts(self, basic_net, counts, what):
        with pytest.raises(DataError, match=what):
            smooth(basic_net, [np.array(c) for c in counts])


class TestMlEstimate:
    def test_exact_weights_recover_basic(self, basic_net):
        rows = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
        fitted, counts = ml_estimate(basic_net, (rows, np.array([0.1, 0.4, 0.1, 0.4])))
        assert fitted.cpts[0][0, 0] == pytest.approx(0.5, abs=1e-15)
        assert fitted.cpts[1][0, 0] == pytest.approx(0.2, abs=1e-15)
        assert counts[0][0] == pytest.approx(1.0)

    def test_single_case_point_mass_and_uniform_elsewhere(self, asia_net):
        x = tuple(0 for _ in asia_net.nodes)
        fitted, _ = ml_estimate(asia_net, (np.array([x]), np.ones(1)))
        for i, spec in enumerate(asia_net.nodes):
            seen_row = parent_row(asia_net, i, x)
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
                        pert = with_tables(fitted, cpts)
                        val = float(weights @ log_joint_rows(pert, rows))
                        assert val <= base + 1e-12


def oracle_net(which, asia_net):
    if which == "asia":
        return asia_net
    if which == "tri":
        return parse_network(TRI_NET)
    if which == "dag17":
        return random_dag(17, 3, cards=(2, 5))
    return read_network(fixture_path("alarm_like.net"))


ORACLE_NETS = ["asia", "tri", "dag17", "alarm_like"]


def flat(tables):
    return flat_array(tables).tobytes()


def flat_array(tables):
    return np.concatenate([np.ravel(t) for t in tables])


class TestFamilyCounts:
    """The M step's one bincount and its refit over theta give the per-node
    results bit for bit; alarm_like's rows have 2, 3 and 4 entries."""

    @pytest.mark.parametrize("which", ORACLE_NETS)
    def test_matches_per_node_oracle(self, which, asia_net):
        net = oracle_net(which, asia_net)
        rng = np.random.default_rng(12)
        rows = sample(net, 400, rng)    # repeated rows: cells sum in row order
        parent = next(p for ps in net.parent_index for p in ps)
        rows = rows[rows[:, parent] != 0]   # some parent rows left empty
        weights = rng.random(len(rows)) * rng.integers(0, 4, size=len(rows))
        counts = family_counts(net, state_cells(net, rows), weights)
        want = per_node_family_counts(net, rows, weights)
        assert counts.tobytes() == flat(want)
        fitted, row_counts = params_from_family_counts(net, counts)
        cpts, want_rows = per_node_params(want)
        assert any((k == 0).any() for k in want_rows)   # some rows go uniform
        assert fitted.theta.tobytes() == flat(cpts)
        assert [c.tobytes() for c in fitted.cpts] == [c.tobytes() for c in cpts]
        assert [k.tobytes() for k in row_counts] == [k.tobytes() for k in want_rows]


class TestPerNodeOracles:
    """Smoothing, the decomposed divergence and sampling give what the
    per-node code gave, bit for bit."""

    @pytest.mark.parametrize("which", ORACLE_NETS)
    def test_smooth(self, which, asia_net):
        net = randomize_parameters(oracle_net(which, asia_net), np.random.default_rng(4))
        rng = np.random.default_rng(5)
        row_counts = [rng.integers(0, 3, size=r) * rng.random(r) * 50 for r in net.n_rows]
        assert smooth(net, row_counts).theta.tobytes() == flat(per_node_smooth(net, row_counts))

    @pytest.mark.parametrize("which", ORACLE_NETS)
    def test_kl_decomposed(self, which, asia_net):
        truth = oracle_net(which, asia_net)
        rng = np.random.default_rng(6)
        rows = sample(truth, 300, rng)
        raw, row_counts = ml_estimate(truth, (rows, np.ones(len(rows))))
        estimates = [randomize_parameters(truth, rng), smooth(raw, row_counts), raw]
        cpts = [c.copy() for c in truth.cpts]
        parent = next(p for ps in truth.parent_index for p in ps)
        cpts[parent][:, 0] = 0.0    # its children's rows at state 0 weigh 0
        cpts[parent] /= cpts[parent].sum(axis=1, keepdims=True)
        for t in (truth, with_tables(truth, cpts)):
            for est in estimates:
                assert kl_decomposed(t, est).hex() == per_node_kl(t, est).hex()
        assert kl_decomposed(truth, truth) == per_node_kl(truth, truth) == 0.0
        assert np.isfinite(kl_decomposed(truth, estimates[1]))

    @pytest.mark.parametrize("which", ORACLE_NETS)
    @pytest.mark.parametrize("n", [0, 1, 250])
    def test_sample(self, which, n, asia_net):
        net = oracle_net(which, asia_net)
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        assert sample(net, n, got_rng).tobytes() == per_node_sample(net, n, want_rng).tobytes()
        assert got_rng.random() == want_rng.random()


def wide_net():
    """A 9-state node between a 3-state parent and a binary child."""
    nodes = (NodeSpec("P", ("a", "b", "c")),
             NodeSpec("W", tuple(f"s{j}" for j in range(9)), ("P",)),
             NodeSpec("C", ("t", "f"), ("W",)))
    tables = [np.ones(shape) for shape in [(1, 3), (3, 9), (9, 2)]]
    return randomize_parameters(with_tables(Network("wide", nodes, ()), tables),
                                np.random.default_rng(8))


def node_tables(net, values):
    """`values`, laid out as theta, as per-node (rows, states) tables."""
    ends = net.family_cells[1]
    return [values[a:b].reshape(r, c) for a, b, r, c in zip(ends, ends[1:], net.n_rows, net.cards)]


def sequential_sums(table):
    """Each row's entries added left to right."""
    return np.cumsum(table, axis=1)[:, -1]


def row_passes(net, counts):
    """The refit's theta and row totals, smoothing, a random draw and the
    decomposed divergence, each beside its per-node oracle's."""
    fitted, k = params_from_family_counts(net, counts)
    cpts, want_k = per_node_params(node_tables(net, counts))
    estimate = smooth(fitted, k)
    return [
        (fitted.theta, flat_array(cpts)),
        (np.concatenate(k), np.concatenate(want_k)),
        (smooth(net, k).theta, flat_array(per_node_smooth(net, k))),
        (randomize_parameters(net, np.random.default_rng(3)).theta,
         per_node_randomize(net, np.random.default_rng(3)).theta),
        (np.array([kl_decomposed(net, estimate)]), np.array([per_node_kl(net, estimate)])),
    ]


class TestRowSums:
    """A row's entries are added in order, one bincount over theta.  numpy's
    own row sums agree on rows of up to 7 entries and are pairwise from 8,
    so on the 9-state node the per-node oracles hold to 1e-15 relative."""

    def test_nine_states_within_1e15_of_per_node(self):
        net = wide_net()
        rng = np.random.default_rng(9)
        counts = rng.random(len(net.theta)) * rng.integers(0, 3, size=len(net.theta)) * 40
        counts[12:21] = 0.0   # W's second row goes uniform
        for got, want in row_passes(net, counts):
            assert np.allclose(got, want, rtol=1e-15, atol=0)
        k = params_from_family_counts(net, counts)[1]
        assert [t.tobytes() for t in k] == [
            sequential_sums(t).tobytes() for t in node_tables(net, counts)]
        draws = np.random.default_rng(3).uniform(size=len(net.theta))[3:30].reshape(3, 9)
        drawn = randomize_parameters(net, np.random.default_rng(3))
        assert drawn.theta[3:30].tobytes() == (draws / sequential_sums(draws)[:, None]).tobytes()

    def test_nine_state_rows_checked_as_per_row(self):
        theta = wide_net().theta.copy()
        theta[3:6] += [0.2, -0.3, float("nan")]
        theta[14] = 1.5
        theta[21] += 1e-8
        bad = wide_net().with_theta(theta)
        diags = validate_network(bad)
        assert diags == per_row_validate(bad)
        assert [d.split(" has")[0].split(" sum")[0] for d in diags] == [
            "node W: row 0", "node W: row 1", "node W: row 1", "node W: row 2"]

    def test_up_to_seven_states_equal_per_node(self):
        net = random_dag(12, 21, cards=(2, 8), max_parents=2)
        assert max(net.cards) == 7 and min(net.cards) == 2
        rng = np.random.default_rng(10)
        counts = rng.random(len(net.theta)) * rng.integers(0, 2, size=len(net.theta))
        for got, want in row_passes(net, counts):
            assert got.tobytes() == want.tobytes()
        assert validate_network(net) == per_row_validate(net) == []


class TestTheta:
    """One read-only parameter vector per network, every CPT a view of it."""

    def test_theta_and_views_are_read_only(self, asia_net):
        net = randomize_parameters(asia_net, np.random.default_rng(1))
        for one in (asia_net, net, smooth(net, [np.ones(r) for r in net.n_rows])):
            assert not one.theta.flags.writeable
            assert one.theta.tobytes() == flat(one.cpts)
            for cpt in one.cpts:
                assert np.shares_memory(cpt, one.theta) and not cpt.flags.writeable
            with pytest.raises(ValueError):
                one.theta[0] = 0.5
            with pytest.raises(ValueError):
                one.cpts[0][0, 0] = 0.5

    def test_constructor_copies_its_tables(self):
        a, b = np.array([[0.3, 0.7]]), np.array([0.6, 0.4])
        net = Network("two", (NodeSpec("A", ("t", "f")), NodeSpec("B", ("t", "f"))), (a, b))
        a[0, 0], b[0] = 0.9, 0.1
        assert net.theta.tolist() == [0.3, 0.7, 0.6, 0.4]
        assert net.cpts[1].shape == (1, 2)
        assert validate_network(net) == []

    def test_with_theta_builds_a_new_theta(self, asia_net):
        other = randomize_parameters(asia_net, np.random.default_rng(2))
        net = asia_net.with_theta(other.theta)
        assert net.theta is not other.theta and net.theta is not asia_net.theta
        assert not np.shares_memory(net.theta, other.theta)
        assert net.theta.tobytes() == other.theta.tobytes()
        assert [c.shape for c in net.cpts] == [c.shape for c in asia_net.cpts]
        with pytest.raises(DataError):
            asia_net.with_theta(other.theta[1:])

    def test_with_theta_views_theta_when_read(self, asia_net):
        net = asia_net.with_theta(randomize_parameters(asia_net, np.random.default_rng(5)).theta)
        assert "cpts" not in vars(net)
        assert [c.shape for c in net.cpts] == list(zip(net.n_rows, net.cards))
        assert flat(net.cpts) == net.theta.tobytes()
        assert all(np.shares_memory(c, net.theta) for c in net.cpts)
        with pytest.raises(ValueError):
            net.cpts[3][0, 0] = 0.5
        assert net.cpts is net.cpts

    def test_structure_lookups_carry_over(self, asia_net):
        # every cached lookup depends on the nodes alone: a refit through
        # with_theta holds the same objects, equal to those a fresh network
        # computes
        names = ["node_index", "cards", "parent_index", "row_strides", "n_rows",
                 "n_assignments", "ravel_strides", "family_cells", "node_rows",
                 "entry_rows", "topo_order", "clique_tree"]
        # a new cached property must be added here, and must not read the CPTs
        assert network_mod._KEPT == set(names) | {"name", "nodes"}
        before = {k: getattr(asia_net, k) for k in names}
        net = asia_net.with_theta(randomize_parameters(asia_net, np.random.default_rng(3)).theta)
        fresh = Network("fresh", asia_net.nodes, net.cpts)
        for k in names:
            assert getattr(net, k) is before[k]
            a, b = getattr(net, k), getattr(fresh, k)
            if k in ("family_cells", "entry_rows"):
                assert all(np.array_equal(x, y) for x, y in zip(a, b))
            elif k == "clique_tree":  # the same compiled steps and slots
                kept = ("_shapes", "_root", "_collect_steps", "_distribute_steps",
                        "_family_slots", "_chunk")
                assert all(getattr(a, f) == getattr(b, f) for f in kept)
                assert all(np.array_equal(x, y) for x, y in zip(a._masks, b._masks))
            else:
                assert a == b
        assert [np.array_equal(a, b) for a, b in zip(net.cpts, asia_net.cpts)] == [False] * 8


class TestSmooth:
    def test_zero_count_row_goes_uniform(self, basic_net):
        net = with_tables(basic_net, [np.array([[1.0, 0.0]]), basic_net.cpts[1]])
        out = smooth(net, [np.array([0.0]), np.array([0.0])])
        assert np.allclose(out.cpts[0][0], [0.5, 0.5])

    def test_direct_formula_k998(self, basic_net):
        net = with_tables(basic_net, [np.array([[0.2, 0.8]]), basic_net.cpts[1]])
        out = smooth(net, [np.array([998.0]), np.array([0.0])])
        assert out.cpts[0][0, 0] == pytest.approx(0.2006, abs=1e-12)
        assert out.cpts[0][0, 1] == pytest.approx(0.7994, abs=1e-12)

    def test_direct_formula_k10(self, basic_net):
        net = with_tables(basic_net, [np.array([[1.0, 0.0]]), basic_net.cpts[1]])
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
