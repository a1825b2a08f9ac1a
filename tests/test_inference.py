import itertools

import numpy as np
import pytest

from conftest import brute_evidence_probability, brute_family_posteriors
from coarsebn.errors import BudgetError, DataError, ZeroSupportError
from coarsebn.inference import (
    EliminationQueries,
    MemberTable,
    evidence_probability,
    full_joint_table,
    joint_marginal,
    posterior_family_marginals,
)
from coarsebn.network import joint_probability, randomize_parameters


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
