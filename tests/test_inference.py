import itertools
import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    PerBoundTree,
    asia_data,
    brute_evidence_probability,
    brute_family_posteriors,
    dataset_of,
    evidence_indices,
    family_tables,
    grouped,
    joint_marginal,
    joint_probability,
    joint_probs,
    member_flat_indices,
    member_table,
    n_members,
    parent_row,
    random_dag,
    rows_of,
    tree_table,
    tuple_bounds,
    ve_evidence_probability,
    ve_family_posteriors,
    with_tables,
)
from coarsebn import inference
from coarsebn.aim import AimOptions, aim_fit, initial_completion
from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from coarsebn.em import EmOptions, em_fit
from coarsebn.errors import BudgetError, DataError, ZeroSupportError
from coarsebn.evaluate import kl_decomposed, kl_enumerate
from coarsebn.inference import (
    BoundDataset,
    CliqueTree,
    MemberTable,
    evidence_probability,
    full_joint_table,
    posterior_family_marginals,
)
from coarsebn.likelihoods import car_normalizer, car_profile_loglik, face_value_loglik
from coarsebn.netformat import read_network
from coarsebn.network import (
    Network,
    NodeSpec,
    family_counts,
    parent_rows,
    randomize_parameters,
    state_cells,
    unravel_rows,
)
from coarsebn.util import fixture_path


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

    @pytest.mark.parametrize("query", [evidence_probability, posterior_family_marginals])
    def test_unknown_node_is_named(self, basic_net, query):
        with pytest.raises(DataError, match="'Z'"):
            query(basic_net, {"A": "t", "Z": "t"})

    def test_none_is_unobserved(self, basic_net):
        both, b_only = {"A": None, "B": "t"}, {"B": "t"}
        assert evidence_probability(basic_net, both) == evidence_probability(basic_net, b_only)
        got = posterior_family_marginals(basic_net, both)
        want = posterior_family_marginals(basic_net, b_only)
        assert all(got[n].tobytes() == want[n].tobytes() for n in want)


class TestPosteriorFamilyMarginals:
    def test_fully_observed_point_mass(self, asia_net):
        ev = {s.name: s.states[0] for s in asia_net.nodes}
        x = tuple(0 for _ in asia_net.nodes)
        fams = posterior_family_marginals(asia_net, ev)
        for i, spec in enumerate(asia_net.nodes):
            expect = np.zeros_like(np.asarray(asia_net.cpts[i]))
            expect[parent_row(asia_net, i, x), 0] = 1.0
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


class TestFullJointTable:
    def test_chunks_give_the_same_floats(self, asia_net, monkeypatch):
        # 256 states of 8 nodes: chunks of 256 // 8 = 32 states
        whole = full_joint_table(asia_net)
        sizes = []
        cell_probs = inference.cell_probs

        def counted(net, cells):
            sizes.append(cells.size)
            return cell_probs(net, cells)

        monkeypatch.setattr(inference, "cell_probs", counted)
        monkeypatch.setattr(inference, "ENUM_BUDGET", 256)
        chunked = full_joint_table(asia_net)
        assert sizes == [32 * 8] * 8
        assert chunked.shape == whole.shape and chunked.tobytes() == whole.tobytes()

    def test_state_space_over_budget_refused(self, asia_net, monkeypatch):
        monkeypatch.setattr(inference, "ENUM_BUDGET", 128)
        with pytest.raises(BudgetError, match="^state space 256 exceeds dense budget 128$"):
            full_joint_table(asia_net)


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
        # A's clique hangs under B's by an empty separator; B's gives P(U)
        tree = CliqueTree(basic_net)
        assert tree._collect_steps == [("...a->...", (0,)), ("...a,...->...", (1, 2))]
        assert tree._root == 3
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
        p, joint = CliqueTree(net).calibrate(net, np.array([[-1]]))
        fams = family_tables(net, joint)
        assert p.tolist() == [1.0] and fams[0].tolist() == [[[0.2, 0.3, 0.5]]]
        p, joint = CliqueTree(net).calibrate(net, np.zeros((0, 1), dtype=np.int64))
        assert p.shape == (0,) and joint.shape == (0, 3)
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
        ev = evidence_indices(asia_net, {"tub": "yes", "either": "no"})
        bound = tuple(ev.get(i) for i in range(len(asia_net.nodes)))
        p_u, counts = tree_table(asia_net, [bound]).expected_counts(asia_net, np.ones(1))
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
        fams = family_tables(truth, CliqueTree(truth).calibrate(truth, np.full((1, 3), -1))[1])
        assert fams[2][0].sum(axis=1)[2:].tolist() == [0.0, 0.0]
        # the estimate's zero sits in a row the truth never reaches
        estimate = with_tables(truth, truth.cpts[:2] + (np.array(c_rows[:2] + [[1.0, 0.0]] * 2),))
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

    def test_forest_of_independent_nodes(self):
        # 200 parts chained into one tree: P(U) and every family table are
        # products of each node's own evidence mass
        nodes = tuple(NodeSpec(f"X{i:03d}", ("a", "b", "c")) for i in range(200))
        rng = np.random.default_rng(12)
        net = Network("forest", nodes, tuple(rng.dirichlet(np.ones(3))[None] for _ in nodes))
        tree = CliqueTree(net)
        steps = tree._collect_steps + tree._distribute_steps
        assert max(len(ins) for _, ins in steps) <= 3
        assert len(tree._distribute_steps) < 2 * len(nodes)
        bounds = rng.integers(-1, 3, size=(40, 200))
        bounds[0], bounds[1, 100:] = -1, -1  # no evidence, half the nodes free
        theta = np.array([cpt[0] for cpt in net.cpts])
        kept = np.where(bounds[..., None] < 0, theta, (bounds[..., None] == range(3)) * theta)
        mass = kept.sum(axis=2)
        p_u, joint = tree.calibrate(net, bounds)
        fams = family_tables(net, joint)
        np.testing.assert_allclose(p_u, mass.prod(axis=1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(tree.probability(net, bounds), p_u, rtol=1e-12, atol=0)
        for i, fam in enumerate(fams):
            rest = np.delete(mass, i, axis=1).prod(axis=1)
            np.testing.assert_allclose(fam[:, 0], kept[:, i] * rest[:, None], rtol=1e-12, atol=0)

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
        fresh = read_network(fixture_path("asia.net"))  # its tree compiles under the patch
        with pytest.raises(BudgetError, match="clique"):
            evidence_probability(fresh, {})

    def test_queries_refuse_another_structure(self, asia_net):
        queries = tree_table(asia_net, TestMemberTable.BOUNDS)
        queries.pattern_probs(asia_net)
        nodes = list(asia_net.nodes)
        nodes[asia_net.node_index["either"]] = NodeSpec("either", ("yes", "no"), ("lung", "bronc"))
        rewired = Network("rewired", tuple(nodes), asia_net.cpts)
        with pytest.raises(DataError, match="structure"):
            queries.pattern_probs(rewired)


def batch_case(which, asia_net, basic_net):
    """A network with state 0 of its first root made impossible, and bounds
    over it: no evidence, random evidence (or a dataset's patterns), and a
    bound of probability zero."""
    if which in ("asia", "asia_data"):
        net = randomize_parameters(asia_net, np.random.default_rng(20))
    elif which == "dag17":  # six roots
        net = random_dag(17, 0, cards=(2, 4), max_parents=2)
    elif which == "basic":  # two components
        net = basic_net
    else:  # nine components
        net = read_network(fixture_path("alarm_like.net"))
    root = net.topo_order[0]
    card = net.cards[root]
    cpts = list(net.cpts)
    cpts[root] = np.array([[0.0] + [1.0 / (card - 1)] * (card - 1)])
    net = Network(net.name, net.nodes, tuple(cpts))  # no clique tree compiled yet
    rng = np.random.default_rng(21)
    bounds = [(None,) * len(net.nodes)]
    for observed in (0.2, 0.4, 0.6, 0.7, 0.8, 0.9):
        bounds.append(tuple(
            int(rng.integers(c)) if rng.random() < observed else None for c in net.cards
        ))
    if which == "asia_data":
        bounds += tuple_bounds(BoundDataset(net, asia_data(asia_net)).rows)
    zero = list(bounds[1])
    zero[root] = 0
    bounds.insert(3, tuple(zero))
    return net, bounds


def chunk_budget(monkeypatch, net, chunk):
    """Patch ENUM_BUDGET so that the tree takes `chunk` bounds per pass,
    and compile net's own tree under it."""
    cells = inference.ENUM_BUDGET // CliqueTree(net)._chunk
    monkeypatch.setattr(inference, "ENUM_BUDGET", chunk * cells + cells // 2)
    assert CliqueTree(net)._chunk == net.clique_tree._chunk == chunk


BATCH_NETS = ["asia", "dag17", "basic", "alarm_like", "asia_data"]


def assert_ulps(got, want):
    """Equal to within a few ulps, and exactly zero where `want` is: numpy's
    einsum may sum a reduction in another order when its operands carry a
    batch axis of more than one bound."""
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


class TestBatchedTree:
    """Each batched tree query gives, bound for bound, the floats of the
    per-bound oracle (bit for bit in a batch of one, within a few ulps in a
    larger one) and its draws, in one chunk or across several."""

    @pytest.mark.parametrize("chunk", [None, 3])
    @pytest.mark.parametrize("which", BATCH_NETS)
    def test_queries_equal_per_bound(self, which, chunk, asia_net, basic_net, monkeypatch):
        net, bounds = batch_case(which, asia_net, basic_net)
        oracle = PerBoundTree(net)
        if chunk:
            chunk_budget(monkeypatch, net, chunk)
        tree = CliqueTree(net)
        passes = []
        collect = CliqueTree._collect
        monkeypatch.setattr(
            CliqueTree, "_collect", lambda *a: passes.append(len(a[2])) or collect(*a)
        )
        rows = rows_of(bounds)
        p = tree.probability(net, rows)
        p_c, joint = tree.calibrate(net, rows)
        fams = family_tables(net, joint)
        n = len(bounds)
        chunks = [n] if chunk is None else [3] * (n // 3) + [n % 3] * (n % 3 > 0)
        assert passes == chunks * 2  # probability, then calibrate
        assert np.array_equal(p, p_c) and p[3] == 0.0 and p[0] > 0.0
        for k, bound in enumerate(bounds):
            p_k, fams_k = oracle.calibrate(net, bound)
            p_one, joint_one = tree.calibrate(net, rows[k : k + 1])
            fams_one = family_tables(net, joint_one)
            assert tree.probability(net, rows[k : k + 1])[0] == p_one[0] == p_k
            assert oracle.probability(net, bound) == p_k
            assert_ulps(p[k], p_k)
            for f, f_one, f_k in zip(fams, fams_one, fams_k, strict=True):
                assert f[k].shape == f_k.shape and np.array_equal(f_one[0], f_k)
                assert_ulps(f[k], f_k)

    @pytest.mark.parametrize("chunk", [None, 3])
    @pytest.mark.parametrize("which", BATCH_NETS)
    def test_e_step_equals_per_pattern_sum(self, which, chunk, asia_net, basic_net, monkeypatch):
        net, bounds = batch_case(which, asia_net, basic_net)
        weights = np.random.default_rng(22).uniform(0.5, 3.0, size=len(bounds))
        want_p, want = PerBoundTree(net).expected_counts(net, bounds, weights)
        if chunk:
            chunk_budget(monkeypatch, net, chunk)
        p_u, counts = tree_table(net, bounds).expected_counts(net, weights)
        assert p_u[3] == 0.0  # its counts are skipped
        assert_ulps(p_u, want_p)
        assert_ulps(counts, want)

    def test_split_e_step_adds_tree_patterns_to_member_counts(self, asia_net, basic_net):
        net, bounds = batch_case("asia", asia_net, basic_net)
        weights = np.random.default_rng(23).uniform(0.5, 3.0, size=len(bounds))
        sizes = [n_members(net, b) for b in bounds]
        split = MemberTable(net, rows_of(bounds), sizes, 46)  # the 2 + 4 + 4 + 4 + 32 smallest
        assert split.enumerated == [2, 4, 5, 6, 7] and split.on_tree == [0, 1, 3]
        enum = split.enumerated
        members = member_table(net, [bounds[k] for k in enum])
        p_m, counts = members.expected_counts(net, weights[enum])
        tree = [bounds[k] for k in split.on_tree]
        p_t, want = PerBoundTree(net).expected_counts(net, tree, weights[split.on_tree], counts)
        p_u, got = split.expected_counts(net, weights)
        assert np.array_equal(p_u[enum], p_m)
        assert_ulps(p_u[split.on_tree], p_t)
        assert_ulps(got, want)

    @pytest.mark.parametrize("chunk", [None, 5])
    @pytest.mark.parametrize("which", BATCH_NETS)
    def test_draws_equal_per_state_sampler(self, which, chunk, asia_net, basic_net, monkeypatch):
        net, bounds = batch_case(which, asia_net, basic_net)
        oracle = PerBoundTree(net)
        size = 2 if which == "alarm_like" else 4
        want = []
        for k, bound in enumerate(bounds):
            rng = np.random.default_rng(30 + k)
            want.append((oracle.draw(net, bound, size, rng), rng.bit_generator.state))
        if chunk:
            chunk_budget(monkeypatch, net, chunk)
        table = tree_table(net, bounds)
        for k, (picks, state) in enumerate(want):
            rng = np.random.default_rng(30 + k)
            got = table.tree_sample(net, k, size, rng)
            assert rng.bit_generator.state == state
            if picks is None:
                assert got is None
            else:
                assert got.dtype == np.int64 and got.tolist() == picks
        # P(U) = 0: no draw, and no uniform taken
        assert want[3] == (None, np.random.default_rng(33).bit_generator.state)


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
        ve = tree_table(net, self.BOUNDS)
        p_t, counts_t = table.expected_counts(net, weights)
        p_v, counts_v = ve.expected_counts(net, weights)
        assert np.allclose(p_t, p_v, rtol=1e-12, atol=0)
        for a, b in zip(counts_t, counts_v):
            assert np.allclose(a, b, atol=1e-12)
        assert sum(c.sum() for c in counts_t) == pytest.approx(5.0 * len(net.nodes))
        assert np.array_equal(joint_probs(net, table.uniq), table.probs(net))

    def test_budget_counts_members_before_enumerating(self, asia_net, monkeypatch):
        bound = BoundDataset(asia_net, dataset_of(asia_net, self.BOUNDS))
        monkeypatch.setattr(
            inference, "member_indices", lambda *a: pytest.fail("enumerated")
        )
        with pytest.raises(BudgetError, match="97 pattern members exceed"):
            bound.member_table(80)

    def test_members_counted_once_per_pattern(self, asia_net, monkeypatch):
        # each run binds the dataset once, every distinct pattern in one
        # pass that also counts its members, and builds one table
        calls = []
        built = []
        bind = inference._bind
        init = MemberTable.__init__

        def counting(net, variables, patterns):
            calls.append(list(patterns))
            return bind(net, variables, patterns)

        def building(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(inference, "_bind", counting)
        monkeypatch.setattr(MemberTable, "__init__", building)
        data = asia_data(asia_net, n=1000, seed=31)
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
            assert calls == [list(grouped(data))] and len(built) == 1
        bounds = [(None,) * 8] + self.BOUNDS
        calls.clear()
        bound = BoundDataset(asia_net, dataset_of(asia_net, bounds))
        table = bound.member_table(1000)
        assert len(calls) == 1 and tuple_bounds(table.rows) == bounds
        assert bound.sizes == [n_members(asia_net, b) for b in bounds] == [256, 32, 64, 1]
        monkeypatch.undo()
        flat = np.concatenate([member_flat_indices(asia_net, b) for b in bounds])
        uniq, loc = np.unique(flat, return_inverse=True)
        assert np.array_equal(table.uniq, uniq) and np.array_equal(table.loc, loc)
        assert table.starts.tolist() == [0, 256, 288, 352]
        assert table.stops.tolist() == [256, 288, 352, 353]

    @pytest.mark.parametrize("which", ["asia", "basic", "alarm_like", "dag17"])
    def test_member_pass_equals_per_pattern_enumeration(self, which, asia_net, basic_net):
        # one pass over every bound row lists each pattern's members in the
        # order of enumerating them one pattern at a time
        if which in ("asia", "basic"):
            net = asia_net if which == "asia" else basic_net
        elif which == "alarm_like":
            net = read_network(fixture_path("alarm_like.net"))
        else:
            net = random_dag(17, 0, cards=(2, 4), max_parents=2)
        rng = np.random.default_rng(51)
        k = len(net.nodes)
        bounds = []
        for n_missing in sorted({0, 1, min(3, k), min(6, k), k if k < 10 else 7}):
            hidden = set(rng.choice(k, size=n_missing, replace=False).tolist())
            bounds.append(tuple(
                None if i in hidden else int(rng.integers(c)) for i, c in enumerate(net.cards)
            ))
        sizes = [n_members(net, b) for b in bounds]
        want = np.concatenate([member_flat_indices(net, b) for b in bounds])
        rows = rows_of(bounds)
        got = inference.member_indices(net, rows, sizes)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        table = MemberTable(net, rows, sizes, math.inf)  # its slots, pattern after pattern
        assert table.enumerated == list(range(len(bounds)))
        assert np.array_equal(table.uniq[table.loc], want)

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
        assert bound.table.enumerated == [] and bound.table.on_tree == [0]

    def test_sizes_exact_beyond_int64(self):
        # 64 missing binary nodes: 1 << 64 members, where an int64 product wraps to 0
        nodes = tuple(NodeSpec(f"v{i}", ("a", "b")) for i in range(64))
        net = Network("wide64", nodes, tuple(np.full((1, 2), 0.5) for _ in nodes))
        bound = BoundDataset(net, dataset_of(net, [(None,) * 64, (0,) * 64]))
        assert np.prod(np.where(bound.rows < 0, 2, 1), axis=1).tolist() == [0, 1]
        assert bound.sizes == [1 << 64, 1]
        assert bound.table.enumerated == [] and bound.table.on_tree == [0, 1]
        assert bound.table.pattern_probs(net).tolist() == [1.0, 0.5**64]
        with pytest.raises(BudgetError, match="case has too many completions"):
            bound.member_table(math.inf)

    def test_queries_refuse_another_structure(self, asia_net):
        table = member_table(asia_net, self.BOUNDS)
        nodes = list(asia_net.nodes)
        either = asia_net.node_index["either"]
        nodes[either] = NodeSpec("either", ("yes", "no"), ("lung", "bronc"))  # was tub
        rewired = Network("rewired", tuple(nodes), asia_net.cpts)
        queries = [
            lambda net: table.probs(net),
            lambda net: table.pattern_probs(net),
            lambda net: table.expected_counts(net, np.ones(3)),
            lambda net: table.tree_sample(net, 0, 2, np.random.default_rng(0)),
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
    counts = family_counts(
        net, state_cells(net, rows[table.loc]), p_slot * scale[table.pat_of_slot]
    )
    return p_u, counts


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
        bounds = tuple_bounds(BoundDataset(net, data).rows)
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
        if budget:  # the reference enumerates every pattern
            monkeypatch.setattr(MemberTable, "expected_counts", reference_expected_counts)
        refuse_cells(monkeypatch)
        assert [fit_signature(run()) for run in runs] == compiled

    def test_cells_once_per_table(self, asia_net, monkeypatch):
        # each table builds its members' cells once, over every member, and
        # every query after that reads them
        data = asia_data(asia_net, n=200, seed=44)
        calls = []

        def counting(net, rows):
            calls.append(len(rows))
            return state_cells(net, rows)

        monkeypatch.setattr(inference, "state_cells", counting)
        em_res = em_fit(asia_net, data, EmOptions(max_iters=10))
        opts = AimOptions(z=3, seed=1, max_iters=5)
        aim_res = aim_fit(asia_net, em_res.network, data, opts)
        assert len(em_res.trace) > 2 and len(aim_res.trace) > 1
        # one table for EM, one for AIM
        members = len(BoundDataset(asia_net, data).table.uniq)
        assert calls == [members, members]

    def test_car_table_builds_no_cells(self, asia_net, monkeypatch):
        refuse_cells(monkeypatch)
        log_f, _ = car_normalizer(asia_net, asia_data(asia_net, n=100, seed=45))
        assert log_f <= 0.0


MAKE_ALARM_LIKE = Path(__file__).parents[1] / "scripts" / "make_alarm_like.py"


class TestMixedSplit:
    """One table, each pattern enumerated or answered on the clique tree."""

    BOUNDS = [(None,) * 8] + TestMemberTable.BOUNDS
    ROWS = rows_of(BOUNDS)
    SIZES = [256, 32, 64, 1]

    def test_smallest_patterns_enumerated_in_first_seen_order(self, asia_net):
        table = MemberTable(asia_net, self.ROWS, self.SIZES, 97)  # 1 + 32 + 64
        assert table.enumerated == [1, 2, 3] and table.on_tree == [0]
        assert table.starts.tolist() == [0, 32, 96] and table.n_slots == 97
        assert table.pat_of_slot[[0, 31, 32, 95, 96]].tolist() == [1, 1, 2, 2, 3]
        table = MemberTable(asia_net, self.ROWS, self.SIZES, 96)
        assert table.enumerated == [1, 3] and table.on_tree == [0, 2]

    def test_split_answers_like_either_path(self, asia_net):
        net = randomize_parameters(asia_net, np.random.default_rng(9))
        weights = np.array([1.0, 3.0, 1.5, 0.5])
        split = MemberTable(net, self.ROWS, self.SIZES, 40)
        assert split.enumerated == [1, 3]
        for other in (member_table(net, self.BOUNDS), tree_table(net, self.BOUNDS)):
            assert np.allclose(split.pattern_probs(net), other.pattern_probs(net), rtol=1e-12)
            p_s, counts_s = split.expected_counts(net, weights)
            p_o, counts_o = other.expected_counts(net, weights)
            assert np.allclose(p_s, p_o, rtol=1e-12, atol=0)
            for a, b in zip(counts_s, counts_o, strict=True):
                assert np.allclose(a, b, rtol=1e-12, atol=1e-15)
        assert np.array_equal(split.probs(net), joint_probs(net, split.uniq))
        assert len(split.uniq) == 33  # the tree patterns' states are not members
        full = full_joint_table(net).reshape(-1)
        assert np.array_equal(joint_probs(net, np.arange(256)), full)
        rep_pattern = np.repeat(np.arange(len(self.BOUNDS)), 20)
        assign, fallbacks = initial_completion(net, split, rep_pattern, np.random.default_rng(0))
        rows = unravel_rows(net, np.array(assign))
        assert fallbacks == []
        for k, bound in enumerate(self.BOUNDS):
            for i, v in enumerate(bound):
                assert v is None or (rows[rep_pattern == k, i] == v).all()

    def fits(self, asia_net, data, budget, monkeypatch):
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", budget)
        net = randomize_parameters(asia_net, np.random.default_rng(10))
        em = em_fit(asia_net, data, EmOptions(max_iters=6, init=net))
        table = BoundDataset(asia_net, data).table
        return table, face_value_loglik(net, data).total, em

    def test_face_value_and_em_match_both_paths(self, asia_net, monkeypatch):
        data = asia_data(asia_net, n=150, seed=48)
        half = sum(BoundDataset(asia_net, data).sizes) // 2
        split, fv, em = self.fits(asia_net, data, half, monkeypatch)
        assert split.enumerated and split.on_tree
        for budget in (1 << 16, 0):
            table, fv_o, em_o = self.fits(asia_net, data, budget, monkeypatch)
            assert len(table.on_tree) == (0 if budget else len(table.rows))
            assert fv == pytest.approx(fv_o, rel=1e-9)
            assert len(em.trace) == len(em_o.trace) == 6
            for (_, ll, ex), (_, ll_o, ex_o) in zip(em.trace, em_o.trace):
                assert ll == pytest.approx(ll_o, rel=1e-9) and ex == ex_o == 0.0
            for a, b in zip(em.network.cpts, em_o.network.cpts):
                assert np.allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_aim_surrogate_never_increases(self, asia_net, monkeypatch):
        data = asia_data(asia_net, n=150, seed=49)
        bound = BoundDataset(asia_net, data)
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", sum(bound.sizes) // 2)
        table = BoundDataset(asia_net, data).table
        assert table.enumerated and table.on_tree
        em = em_fit(asia_net, data, EmOptions(max_iters=20))
        res = aim_fit(asia_net, em.network, data, AimOptions(z=3, seed=4, max_iters=8))
        scores = [s for _, s, _ in res.trace]
        assert len(scores) > 1 and res.init_fallbacks == 0
        assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_alarm_like_sends_few_patterns_to_the_tree(self):
        # the 37-node dataset: default_rng(7) carries on from building the
        # network to its mechanism and cases
        net = read_network(fixture_path("alarm_like.net"))
        rng = np.random.default_rng(7)
        rebuilt = runpy.run_path(str(MAKE_ALARM_LIKE))["alarm_like"](rng)
        assert rebuilt.nodes == net.nodes
        assert all(np.array_equal(a, b) for a, b in zip(net.cpts, rebuilt.cpts))
        mech = build_coarsening_network(net, CoarseningSpec(2, 0.1, 0.05), rng)
        bound = BoundDataset(net, generate_dataset(mech, 1000, rng)[0])
        table = bound.table
        assert len(bound.sizes) == 1000 and sum(bound.sizes) == 144_662
        assert [bound.sizes[k] for k in table.on_tree] == [9216, 36864]
        p_u, counts = table.expected_counts(net, bound.weights)
        p_t, counts_t = tree_table(net, tuple_bounds(bound.rows)).expected_counts(net, bound.weights)
        assert np.allclose(p_u, p_t, rtol=1e-9, atol=0)
        for a, b in zip(counts, counts_t, strict=True):
            assert np.allclose(a, b, rtol=1e-9, atol=1e-9)
