import itertools

import numpy as np
import pytest

from conftest import (
    asia_data,
    brute_evidence_probability,
    brute_family_posteriors,
    dataset_of,
    joint_marginal,
    member_table,
    ve_evidence_probability,
    ve_family_posteriors,
)
from coarsebn import data as data_mod
from coarsebn import inference, network
from coarsebn.aim import AimOptions, aim_fit
from coarsebn.em import EmOptions, em_fit
from coarsebn.errors import BudgetError, DataError, ZeroSupportError
from coarsebn.evaluate import kl_decomposed, kl_enumerate
from coarsebn.inference import (
    BoundDataset,
    CliqueTree,
    EliminationQueries,
    MemberTable,
    evidence_probability,
    full_joint_table,
    posterior_family_marginals,
)
from coarsebn.likelihoods import car_normalizer, car_profile_loglik, face_value_loglik
from coarsebn.network import (
    Network,
    NodeSpec,
    family_counts_from_rows,
    joint_probability,
    parent_rows,
    randomize_parameters,
    unravel_rows,
)


def all_patterns(net, max_missing):
    """Every evidence dict with up to max_missing hidden variables."""
    names = [s.name for s in net.nodes]
    full = {s.name: s.states[0] for s in net.nodes}
    for k in range(max_missing + 1):
        for hidden in itertools.combinations(names, k):
            ev = {n: v for n, v in full.items() if n not in hidden}
            yield ev


class TestEvidenceProbability:
    def test_basic_marginal(self, basic_net):
        # row U_1 of the example table: P(A=t) with B hidden
        assert evidence_probability(basic_net, {"A": "t"}) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_fully_observed_equals_joint(self, asia_net):
        ev = {s.name: s.states[1] for s in asia_net.nodes}
        x = tuple(1 for _ in asia_net.nodes)
        assert evidence_probability(asia_net, ev) == pytest.approx(
            joint_probability(asia_net, x), rel=1e-12
        )

    def test_asia_three_missing_matches_enumeration(self, asia_net):
        ev = {
            "asia": "no",
            "smoke": "yes",
            "bronc": "yes",
            "xray": "no",
            "dysp": "yes",
        }
        assert evidence_probability(asia_net, ev) == pytest.approx(
            brute_evidence_probability(asia_net, ev), abs=1e-12
        )

    def test_matches_enumeration_everywhere(self, basic_net, asia_net):
        rng = np.random.default_rng(0)
        for net in (basic_net, randomize_parameters(asia_net, rng)):
            for ev in all_patterns(net, 2):
                assert evidence_probability(net, ev) == pytest.approx(
                    brute_evidence_probability(net, ev), abs=1e-12
                )

    def test_unknown_state_label(self, basic_net):
        with pytest.raises(DataError):
            evidence_probability(basic_net, {"A": "zzz"})


class TestPosteriorFamilyMarginals:
    def test_fully_observed_point_mass(self, asia_net):
        ev = {s.name: s.states[0] for s in asia_net.nodes}
        x = tuple(0 for _ in asia_net.nodes)
        fams = posterior_family_marginals(asia_net, ev)
        for i, spec in enumerate(asia_net.nodes):
            expect = np.zeros_like(np.asarray(asia_net.cpts[i]))
            expect[asia_net.parent_row(i, x), 0] = 1.0
            assert np.allclose(fams[spec.name], expect)

    def test_basic_independent_posterior(self, basic_net):
        fams = posterior_family_marginals(basic_net, {"A": "t"})
        # B independent of A: posterior over B stays its prior (Bayes by hand)
        assert fams["B"][0, 0] == pytest.approx(0.2, abs=1e-15)

    def test_asia_two_missing_matches_enumeration(self, asia_net):
        ev = {
            "asia": "no",
            "smoke": "yes",
            "lung": "no",
            "bronc": "yes",
            "xray": "no",
            "dysp": "yes",
        }
        expect, _ = brute_family_posteriors(asia_net, ev)
        fams = posterior_family_marginals(asia_net, ev)
        for name in expect:
            assert np.allclose(fams[name], expect[name], atol=1e-12)

    def test_each_table_is_a_distribution(self, asia_net):
        fams = posterior_family_marginals(asia_net, {"xray": "yes"})
        for table in fams.values():
            assert table.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(table >= -1e-15)

    def test_overlapping_families_marginalize_consistently(self, asia_net):
        # either's node marginal from its own family and from xray's family
        fams = posterior_family_marginals(asia_net, {"dysp": "yes"})
        i_either = [s.name for s in asia_net.nodes].index("either")
        own = fams["either"].sum(axis=0)
        # xray family is (either, xray): rows indexed by either's state
        via_child = fams["xray"].sum(axis=1)
        assert np.allclose(own, via_child, atol=1e-12)

    def test_zero_evidence_raises(self, asia_net):
        # truth makes either='no' impossible with tub='yes'
        with pytest.raises(ZeroSupportError):
            posterior_family_marginals(asia_net, {"tub": "yes", "either": "no"})


class TestJointMarginal:
    def test_no_evidence_parent_marginal(self, asia_net):
        out = joint_marginal(asia_net, ["tub", "lung"])
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        table = full_joint_table(asia_net)
        expect = table.sum(axis=(0, 2, 4, 5, 6, 7))
        assert np.allclose(out, expect, atol=1e-12)

    def test_query_order_respected(self, asia_net):
        ab = joint_marginal(asia_net, ["tub", "lung"])
        ba = joint_marginal(asia_net, ["lung", "tub"])
        assert np.allclose(ab, ba.T, atol=1e-15)

    def test_observed_query_variable_embedded(self, asia_net):
        out = joint_marginal(asia_net, ["smoke", "lung"], {"smoke": "yes"})
        assert np.all(out[1] == 0)
        assert out[0].sum() == pytest.approx(0.5, abs=1e-12)


def random_dag(n, seed, cards=(2, 5), max_parents=3, window=None):
    """A random DAG with randomized CPTs: per node, up to max_parents parents
    among the earlier nodes (the last `window` of them, if given), listed in
    random order; nodes are declared in a shuffled order."""
    rng = np.random.default_rng(seed)
    card = rng.integers(*cards, size=n)
    specs, tables = [], []
    for i in range(n):
        pool = np.arange(i) if window is None else np.arange(max(0, i - window), i)
        k = int(rng.integers(0, min(max_parents, len(pool)) + 1))
        parents = rng.choice(pool, size=k, replace=False).tolist()
        states = tuple(f"s{j}" for j in range(card[i]))
        specs.append(NodeSpec(f"v{i}", states, tuple(f"v{p}" for p in parents)))
        rows = int(np.prod([card[p] for p in parents]))
        tables.append(np.full((rows, card[i]), 1.0 / card[i]))
    order = rng.permutation(n)
    net = Network(f"dag{seed}", tuple(specs[i] for i in order), tuple(tables[i] for i in order))
    return randomize_parameters(net, rng)


def random_evidence(net, rng, observed):
    """Evidence on `observed` randomly chosen nodes, at random states."""
    pick = rng.choice(len(net.nodes), size=observed, replace=False)
    return {
        net.nodes[i].name: net.nodes[i].states[int(rng.integers(net.cards[i]))]
        for i in pick
    }


def assert_tree_matches_oracles(net, evidence, brute=True):
    p_tree = evidence_probability(net, evidence)
    assert p_tree == pytest.approx(ve_evidence_probability(net, evidence), abs=1e-12)
    if brute:
        assert p_tree == pytest.approx(brute_evidence_probability(net, evidence), abs=1e-12)
    if p_tree == 0.0:
        return
    fams = posterior_family_marginals(net, evidence)
    oracles = [ve_family_posteriors(net, evidence)]
    if brute:
        oracles.append(brute_family_posteriors(net, evidence)[0])
    for oracle in oracles:
        assert fams.keys() == oracle.keys()
        for name, table in fams.items():
            assert table.shape == oracle[name].shape
            assert np.allclose(table, oracle[name], atol=1e-12, rtol=0)


class TestCliqueTree:
    def test_asia_patterns(self, asia_net):
        net = randomize_parameters(asia_net, np.random.default_rng(10))
        for ev in all_patterns(net, 3):
            assert_tree_matches_oracles(net, ev)

    def test_two_components(self, basic_net):
        assert len(CliqueTree(basic_net)._roots) == 2
        for ev in all_patterns(basic_net, 2):
            assert_tree_matches_oracles(basic_net, ev)
        fams = posterior_family_marginals(basic_net, {"B": "f"})
        assert fams["A"].tolist() == [[0.5, 0.5]]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dags(self, seed):
        net = random_dag(7, seed)
        rng = np.random.default_rng(100 + seed)
        for observed in (0, 2, 4, 7):
            assert_tree_matches_oracles(net, random_evidence(net, rng, observed))

    def test_one_node(self):
        net = Network("one", (NodeSpec("X", ("a", "b", "c")),), (np.array([[0.2, 0.3, 0.5]]),))
        p, fams = CliqueTree(net).calibrate(net, [None])
        assert p == 1.0 and fams[0].tolist() == [[0.2, 0.3, 0.5]]
        assert evidence_probability(net, {"X": "b"}) == 0.3
        assert posterior_family_marginals(net, {"X": "c"})["X"].tolist() == [[0.0, 0.0, 1.0]]

    def test_evidence_on_every_node(self, asia_net):
        net = randomize_parameters(asia_net, np.random.default_rng(11))
        for x in itertools.product(range(2), repeat=len(net.nodes)):
            ev = {s.name: s.states[v] for s, v in zip(net.nodes, x)}
            assert evidence_probability(net, ev) == pytest.approx(
                joint_probability(net, x), rel=1e-12
            )

    def test_zero_support_in_expected_counts(self, asia_net):
        # either is tub OR lung in the truth: tub=yes, either=no is impossible
        # (posterior_family_marginals raises on it: test_zero_evidence_raises)
        bound = inference._bound_of(asia_net, {"tub": "yes", "either": "no"})
        p_u, counts = EliminationQueries([bound]).expected_counts(asia_net, np.ones(1))
        assert p_u.tolist() == [0.0]
        assert all(not c.any() for c in counts)

    def test_impossible_parent_rows_are_exact_zeros(self):
        nodes = (
            NodeSpec("A", ("t", "f")),
            NodeSpec("B", ("t", "f")),
            NodeSpec("C", ("t", "f"), ("A", "B")),
        )
        c_rows = [[0.2, 0.8], [0.6, 0.4], [0.5, 0.5], [0.9, 0.1]]
        truth = Network("z", nodes, ([[1.0, 0.0]], [[0.3, 0.7]], c_rows))
        _, fams = CliqueTree(truth).calibrate(truth, [None] * 3)
        assert fams[2].sum(axis=1)[2:].tolist() == [0.0, 0.0]
        # the estimate's zero sits in a row the truth never reaches
        estimate = truth.with_cpts(truth.cpts[:2] + (np.array(c_rows[:2] + [[1.0, 0.0]] * 2),))
        assert kl_decomposed(truth, estimate) == pytest.approx(
            kl_enumerate(truth, estimate), abs=1e-15
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_kl_decomposed_matches_enumeration(self, seed):
        truth = random_dag(8, seed)
        estimate = randomize_parameters(truth, np.random.default_rng(50 + seed))
        assert kl_decomposed(truth, estimate) == pytest.approx(
            kl_enumerate(truth, estimate), rel=1e-10
        )

    def test_more_nodes_than_einsum_letters(self):
        net = random_dag(60, 3, cards=(2, 4), max_parents=2, window=4)
        assert len(net.nodes) > 52
        rng = np.random.default_rng(4)
        for observed in (0, 20, 60):
            assert_tree_matches_oracles(net, random_evidence(net, rng, observed), brute=False)

    def test_star_wider_than_one_einsum(self):
        # the hub's clique holds its family, one leaf's, and 69 leaf messages
        hub = NodeSpec("hub", ("a", "b", "c"))
        leaves = tuple(NodeSpec(f"leaf{i:02d}", ("t", "f"), ("hub",)) for i in range(70))
        tables = (np.full((1, 3), 1 / 3),) + tuple(np.full((3, 2), 0.5) for _ in leaves)
        net = Network("star", (hub,) + leaves, tables)
        truth = randomize_parameters(net, np.random.default_rng(5))
        estimate = randomize_parameters(net, np.random.default_rng(6))
        tree = CliqueTree(truth)
        steps = tree._collect_steps + tree._distribute_steps
        assert max(len(ins) for _, ins in steps) <= inference.EINSUM_OPERANDS
        rng = np.random.default_rng(7)
        for observed in (0, 35, 71):
            assert_tree_matches_oracles(truth, random_evidence(truth, rng, observed), brute=False)
        weights = [f.sum(axis=1) for f in ve_family_posteriors(truth, {}).values()]
        expected = sum(
            w @ (t * np.log(t / e)).sum(axis=1)
            for w, t, e in zip(weights, truth.cpts, estimate.cpts)
        )
        assert kl_decomposed(truth, estimate) == pytest.approx(expected, rel=1e-12)

    def test_clique_over_budget_refused(self, asia_net, monkeypatch):
        CliqueTree(asia_net)
        monkeypatch.setattr(inference, "ENUM_BUDGET", 4)  # either | tub, lung has 8 cells
        with pytest.raises(BudgetError, match="clique of 8 cells exceeds the budget 4"):
            CliqueTree(asia_net)
        with pytest.raises(BudgetError, match="clique"):
            evidence_probability(asia_net, {})

    def test_queries_refuse_another_structure(self, asia_net):
        queries = EliminationQueries(TestMemberTable.BOUNDS)
        queries.pattern_probs(asia_net)
        nodes = list(asia_net.nodes)
        nodes[asia_net.node_index["either"]] = NodeSpec("either", ("yes", "no"), ("lung", "bronc"))
        rewired = Network("rewired", tuple(nodes), asia_net.cpts)
        with pytest.raises(DataError, match="structure"):
            queries.pattern_probs(rewired)


class TestMemberTable:
    BOUNDS = [
        (None, 0, None, 1, None, None, 0, None),
        (0, None, None, None, None, None, None, 1),
        (1, 1, 0, 0, 1, 0, 1, 0),
    ]

    def test_probs_repeat_joint_table_bit_for_bit(self, asia_net):
        net = randomize_parameters(asia_net, np.random.default_rng(4))
        table = member_table(net, [(None,) * 8] + self.BOUNDS)
        assert table.n_slots == 256 + 32 + 64 + 1
        assert np.array_equal(table.uniq, np.arange(256))
        assert np.array_equal(table.probs(net), full_joint_table(net).reshape(-1))

    def test_elimination_agrees_with_table(self, asia_net):
        net = randomize_parameters(asia_net, np.random.default_rng(5))
        weights = np.array([3.0, 1.5, 0.5])
        table = member_table(net, self.BOUNDS)
        ve = EliminationQueries(self.BOUNDS)
        p_t, counts_t = table.expected_counts(net, weights)
        p_v, counts_v = ve.expected_counts(net, weights)
        assert np.allclose(p_t, p_v, rtol=1e-12, atol=0)
        for a, b in zip(counts_t, counts_v):
            assert np.allclose(a, b, atol=1e-12)
        assert sum(c.sum() for c in counts_t) == pytest.approx(5.0 * len(net.nodes))
        lt = table.log_evaluator(net, 1e-300)
        lv = ve.log_evaluator(net, 1e-300)
        for r in table.uniq.tolist():
            assert lt(r) == pytest.approx(lv(r), abs=1e-12)

    def test_budget_counts_members_before_enumerating(self, asia_net, monkeypatch):
        bound = BoundDataset(asia_net, dataset_of(asia_net, self.BOUNDS))
        monkeypatch.setattr(
            inference, "member_flat_indices", lambda *a: pytest.fail("enumerated")
        )
        with pytest.raises(BudgetError, match="97 pattern members exceed"):
            bound.member_table(80)

    def test_members_counted_once_per_pattern(self, asia_net, monkeypatch):
        calls = []
        built = []
        member_count = data_mod.member_count
        init = MemberTable.__init__

        def counting(net, bound):
            calls.append(bound)
            return member_count(net, bound)

        def building(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(inference, "member_count", counting)
        monkeypatch.setattr(data_mod, "member_count", counting)
        monkeypatch.setattr(MemberTable, "__init__", building)
        data = asia_data(asia_net, n=1000, seed=31)
        k = len(data.grouped())
        runs = [
            lambda: em_fit(asia_net, data, EmOptions(max_iters=3)),
            lambda: aim_fit(asia_net, asia_net, data, AimOptions(z=1, seed=0, max_iters=1)),
            lambda: face_value_loglik(asia_net, data),
            lambda: car_profile_loglik(asia_net, data),
        ]
        for run in runs:
            calls.clear()
            built.clear()
            run()
            assert len(calls) == k and len(built) == 1
        bounds = [(None,) * 8] + self.BOUNDS
        calls.clear()
        table = BoundDataset(asia_net, dataset_of(asia_net, bounds)).member_table(1000)
        assert calls == bounds
        monkeypatch.undo()
        flat = np.concatenate([data_mod.member_flat_indices(asia_net, b) for b in bounds])
        uniq, loc = np.unique(flat, return_inverse=True)
        assert np.array_equal(table.uniq, uniq) and np.array_equal(table.loc, loc)
        assert table.starts.tolist() == [0, 256, 288, 352]
        assert table.stops.tolist() == [256, 288, 352, 353]

    def test_pattern_over_enum_budget_refused(self):
        nodes = tuple(NodeSpec(f"v{i}", ("a", "b")) for i in range(21))
        net = Network("wide21", nodes, tuple(np.full((1, 2), 0.5) for _ in nodes))
        with pytest.raises(BudgetError, match="case has too many completions"):
            member_table(net, [(None,) * 21])

    def test_joint_space_beyond_int64_refused(self):
        nodes = tuple(NodeSpec(f"v{i}", ("a", "b")) for i in range(64))
        net = Network("wide64", nodes, tuple(np.full((1, 2), 0.5) for _ in nodes))
        bound = BoundDataset(net, dataset_of(net, [(None,) + (0,) * 63]))
        with pytest.raises(BudgetError, match="too large to index"):
            bound.member_table(1000)
        assert isinstance(bound.table, EliminationQueries)

    def test_queries_refuse_another_structure(self, asia_net):
        table = member_table(asia_net, self.BOUNDS)
        nodes = list(asia_net.nodes)
        either = asia_net.node_index["either"]
        nodes[either] = NodeSpec("either", ("yes", "no"), ("lung", "bronc"))  # was tub
        rewired = Network("rewired", tuple(nodes), asia_net.cpts)
        flat, w = table.uniq[:2], np.ones(2)
        queries = [
            lambda net: table.probs(net),
            lambda net: table.pattern_probs(net),
            lambda net: table.expected_counts(net, np.ones(3)),
            lambda net: table.family_counts(net, flat, w),
            lambda net: table.log_evaluator(net, 1e-300),
            lambda net: table.sampler(net),
        ]
        same = randomize_parameters(asia_net, np.random.default_rng(8))
        for query in queries:
            query(same)
            with pytest.raises(DataError, match="structure"):
                query(rewired)


# The member-table queries as they were before the table compiled its CPT
# cells: every call recomputes the members' rows and parent rows.


def reference_probs(table, net):
    rows = unravel_rows(table.net, table.uniq)
    p = np.ones(len(table.uniq))
    for i in range(len(net.nodes)):
        p = p * net.cpts[i][parent_rows(net, rows, i), rows[:, i]]
    return p


def reference_expected_counts(table, net, weights):
    p_slot = reference_probs(table, net)[table.loc]
    p_u = np.add.reduceat(p_slot, table.starts)
    scale = np.divide(weights, p_u, out=np.zeros_like(p_u), where=p_u > 0)
    rows = unravel_rows(table.net, table.uniq)
    counts = family_counts_from_rows(
        net, rows[table.loc], p_slot * scale[table.pat_of_slot]
    )
    return p_u, counts


def reference_family_counts(table, net, flat_idx, weights):
    """aim.m_step's counting: unravel the completions, count their rows."""
    return family_counts_from_rows(net, unravel_rows(net, flat_idx), weights)


def fit_signature(res):
    """Everything a fit returns, as comparable values."""
    tables = [res.network.cpts, res.smoothed.cpts, res.row_counts]
    return (
        res.trace,
        [[t.tobytes() for t in ts] for ts in tables],
        res.converged,
        getattr(res, "score", None),
    )


def refuse_cells(monkeypatch):
    monkeypatch.setattr(
        MemberTable, "cells", property(lambda self: pytest.fail("cells built"))
    )


class TestCompiledTable:
    """The compiled table answers every query with the reference floats."""

    @pytest.mark.parametrize("which", ["asia", "basic"])
    def test_queries_equal_reference(self, which, asia_net, basic_net, basic_data):
        if which == "asia":
            base, data = asia_net, asia_data(asia_net)
        else:
            base, data = basic_net, basic_data
        net = randomize_parameters(base, np.random.default_rng(6))
        bounds = BoundDataset(net, data).bounds
        table = member_table(net, bounds)
        rng = np.random.default_rng(7)
        weights = rng.uniform(0.5, 3.0, size=len(bounds))
        p_ref, counts_ref = reference_expected_counts(table, net, weights)
        assert np.array_equal(table.probs(net), reference_probs(table, net))
        assert np.array_equal(table.pattern_probs(net), p_ref)
        p_u, counts = table.expected_counts(net, weights)
        assert np.array_equal(p_u, p_ref)
        for a, b in zip(counts, counts_ref, strict=True):
            assert np.array_equal(a, b)
        flat = rng.choice(table.uniq, size=3 * len(table.uniq))
        w = rng.uniform(0.0, 2.0, size=len(flat))
        ref = reference_family_counts(table, net, flat, w)
        for source in (table, EliminationQueries(bounds)):
            for a, b in zip(source.family_counts(net, flat, w), ref, strict=True):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("budget", [1 << 16, 0])
    def test_fits_equal_reference_fits(
        self, budget, asia_net, basic_net, basic_data, basic_data_n2000, monkeypatch
    ):
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", budget)
        data = asia_data(asia_net, n=150 if budget else 40, seed=43)
        runs = [
            lambda: em_fit(basic_net, basic_data, EmOptions(max_iters=20)),
            lambda: em_fit(asia_net, data, EmOptions(max_iters=20 if budget else 3)),
            lambda: aim_fit(basic_net, basic_net, basic_data_n2000, AimOptions(z=3, seed=2)),
            lambda: aim_fit(asia_net, asia_net, data, AimOptions(z=3, seed=3, max_iters=5)),
        ]
        compiled = [fit_signature(run()) for run in runs]
        monkeypatch.setattr(MemberTable, "probs", reference_probs)
        monkeypatch.setattr(MemberTable, "expected_counts", reference_expected_counts)
        monkeypatch.setattr(MemberTable, "family_counts", reference_family_counts)
        monkeypatch.setattr(EliminationQueries, "family_counts", reference_family_counts)
        refuse_cells(monkeypatch)
        assert [fit_signature(run()) for run in runs] == compiled

    def test_parent_rows_once_per_node_per_table(self, asia_net, monkeypatch):
        data = asia_data(asia_net, n=200, seed=44)
        calls = []

        def counting(net, rows, i):
            calls.append(i)
            return parent_rows(net, rows, i)

        monkeypatch.setattr(inference, "parent_rows", counting)
        monkeypatch.setattr(network, "parent_rows", counting)
        em_res = em_fit(asia_net, data, EmOptions(max_iters=10))
        opts = AimOptions(z=3, seed=1, max_iters=5)
        aim_res = aim_fit(asia_net, em_res.network, data, opts)
        assert len(em_res.trace) > 2 and len(aim_res.trace) > 1
        # one table for EM, one for AIM
        assert sorted(calls) == sorted(list(range(len(asia_net.nodes))) * 2)

    def test_car_table_builds_no_cells(self, asia_net, monkeypatch):
        refuse_cells(monkeypatch)
        log_f, _ = car_normalizer(asia_net, asia_data(asia_net, n=100, seed=45))
        assert log_f <= 0.0
