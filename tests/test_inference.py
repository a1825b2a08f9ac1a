import itertools

import numpy as np
import pytest

from conftest import asia_data, brute_evidence_probability, brute_family_posteriors
from coarsebn import inference, network
from coarsebn.aim import AimOptions, aim_fit
from coarsebn.data import bind_pattern
from coarsebn.em import EmOptions, em_fit
from coarsebn.errors import BudgetError, DataError, ZeroSupportError
from coarsebn.inference import (
    EliminationQueries,
    MemberTable,
    evidence_probability,
    full_joint_table,
    joint_marginal,
    pattern_table,
    posterior_family_marginals,
)
from coarsebn.likelihoods import car_normalizer
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


class TestMemberTable:
    BOUNDS = [
        (None, 0, None, 1, None, None, 0, None),
        (0, None, None, None, None, None, None, 1),
        (1, 1, 0, 0, 1, 0, 1, 0),
    ]

    def test_probs_repeat_joint_table_bit_for_bit(self, asia_net):
        net = randomize_parameters(asia_net, np.random.default_rng(4))
        table = MemberTable(net, [(None,) * 8] + self.BOUNDS, budget=1000)
        assert table.n_slots == 256 + 32 + 64 + 1
        assert np.array_equal(table.uniq, np.arange(256))
        assert np.array_equal(table.probs(net), full_joint_table(net).reshape(-1))

    def test_elimination_agrees_with_table(self, asia_net):
        net = randomize_parameters(asia_net, np.random.default_rng(5))
        weights = np.array([3.0, 1.5, 0.5])
        table = MemberTable(net, self.BOUNDS, budget=1000)
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

    def test_budget_counts_members_before_enumerating(self, asia_net):
        with pytest.raises(BudgetError):
            MemberTable(asia_net, self.BOUNDS, budget=80)

    def test_joint_space_beyond_int64_refused(self):
        nodes = tuple(NodeSpec(f"v{i}", ("a", "b")) for i in range(64))
        net = Network("wide64", nodes, tuple(np.full((1, 2), 0.5) for _ in nodes))
        bounds = [(None,) + (0,) * 63]
        with pytest.raises(BudgetError, match="too large to index"):
            MemberTable(net, bounds, budget=1000)
        assert isinstance(pattern_table(net, bounds), EliminationQueries)

    def test_queries_refuse_another_structure(self, asia_net):
        table = MemberTable(asia_net, self.BOUNDS, budget=1000)
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
        bounds = [bind_pattern(net, data.variables, p) for p in data.grouped()]
        table = MemberTable(net, bounds, budget=1 << 16)
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
