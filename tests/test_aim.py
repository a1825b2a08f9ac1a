import heapq
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    TRI_NET,
    asia_data,
    bind_pattern,
    dataset_of,
    grouped,
    incremental_kl_delta,
    joint_probability,
    key_members,
    log_probs,
    member_flat_indices,
    per_pattern_completion,
    ravel,
    replica_states,
    tuple_bounds,
    unravel,
    with_tables,
)
from coarsebn import aim, inference
from coarsebn.aim import (
    LOG_PROB_FLOOR,
    AimOptions,
    AimState,
    ai_sweep,
    aim_fit,
    initial_completion,
    m_step,
    replica_cases,
)
from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from coarsebn.data import Dataset
from coarsebn.em import em_fit
from coarsebn.errors import BudgetError, DataError
from coarsebn.likelihoods import exact_sat_profile_loglik
from coarsebn.netformat import parse_network
from coarsebn.network import (
    cell_probs,
    randomize_parameters,
    ml_estimate,
    sample,
    start_network,
    state_cells,
    uniform_cpts,
    unravel_rows,
)


def full_kl(counts, zn, logp):
    """Oracle: recompute KL(P_c || P_theta) from scratch."""
    total = 0.0
    for x, n in counts.items():
        q = n / zn
        total += q * (math.log(q) - logp(x))
    return total


def logp_of(net):
    """log max(P(x), floor) by flat joint index under net, one state at a
    time, each computed once."""
    cache = {}

    def logp(x):
        if x not in cache:
            cache[x] = float(log_probs(net, [x])[0])
        return cache[x]

    return logp


def complete_dataset(net, n, seed):
    rows = sample(net, n, np.random.default_rng(seed))
    labels = [
        tuple(net.nodes[i].states[rows[r, i]] for i in range(rows.shape[1]))
        for r in range(rows.shape[0])
    ]
    return Dataset(
        tuple(s.name for s in net.nodes), tuple((p, 1.0) for p in labels)
    )


class TestIncrementalKlDelta:
    def test_identity_move_is_zero(self):
        logp = {(0,): math.log(0.5), (1,): math.log(0.5)}.__getitem__
        assert incremental_kl_delta({(0,): 3}, 3, logp, (0,), (0,)) == 0.0

    def test_matches_full_recomputation_single_move(self, basic_net):
        logp_table = {
            x: math.log(
                basic_net.cpts[0][0, x[0]] * basic_net.cpts[1][0, x[1]]
            )
            for x in [(0, 0), (0, 1), (1, 0), (1, 1)]
        }
        logp = logp_table.__getitem__
        counts = {(0, 1): 900, (0, 0): 100, (1, 0): 200, (1, 1): 800}
        zn = 2000
        delta = incremental_kl_delta(counts, zn, logp, (0, 1), (0, 0))
        before = full_kl(counts, zn, logp)
        counts2 = dict(counts)
        counts2[(0, 1)] -= 1
        counts2[(0, 0)] += 1
        after = full_kl(counts2, zn, logp)
        assert delta == pytest.approx(after - before, abs=1e-12)

    def test_chained_updates_track_full_recompute(self, asia_net):
        # 1e4 random moves with periodic refresh every 1e3: the running sum
        # of deltas stays within 1e-12 of the scratch value
        from coarsebn.network import randomize_parameters

        rng = np.random.default_rng(13)
        net = randomize_parameters(asia_net, rng)  # strictly positive states
        zn = 4000
        keys = [tuple(int(rng.integers(0, 2)) for _ in net.nodes) for _ in range(300)]
        counts = {}
        for _ in range(zn):
            k = keys[int(rng.integers(0, len(keys)))]
            counts[k] = counts.get(k, 0) + 1
        logp_cache = {}

        def logp(x):
            if x not in logp_cache:
                logp_cache[x] = math.log(max(joint_probability(net, x), 1e-300))
            return logp_cache[x]

        running = full_kl(counts, zn, logp)
        moves = 0
        for _ in range(10_000):
            occupied = [k for k, n in counts.items() if n > 0]
            frm = occupied[int(rng.integers(0, len(occupied)))]
            i = int(rng.integers(0, len(asia_net.nodes)))
            to = frm[:i] + (1 - frm[i],) + frm[i + 1 :]
            running += incremental_kl_delta(counts, zn, logp, frm, to)
            counts[frm] -= 1
            if counts[frm] == 0:
                del counts[frm]
            counts[to] = counts.get(to, 0) + 1
            moves += 1
            if moves % 1000 == 0:
                running = full_kl(counts, zn, logp)
            assert running == pytest.approx(full_kl(counts, zn, logp), abs=1e-12)

    def test_zero_source_rejected(self):
        with pytest.raises(DataError):
            incremental_kl_delta({}, 10, lambda x: 0.0, (0,), (1,))

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=40), min_size=4, max_size=4),
        probs=st.lists(
            st.floats(min_value=1e-6, max_value=1.0), min_size=4, max_size=4
        ),
        frm=st.integers(min_value=0, max_value=3),
        to=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_delta_equals_full_recompute(self, counts, probs, frm, to):
        assume(counts[frm] >= 1)
        table = {i: n for i, n in enumerate(counts) if n > 0 or i in (frm, to)}
        table = {i: n for i, n in table.items() if n > 0}
        zn = sum(counts)
        z = sum(probs)
        logp = {i: math.log(p / z) for i, p in enumerate(probs)}.__getitem__
        delta = incremental_kl_delta(table, zn, logp, frm, to)
        moved = dict(table)
        moved[frm] -= 1
        if moved[frm] == 0:
            del moved[frm]
        moved[to] = moved.get(to, 0) + 1
        assert delta == pytest.approx(
            full_kl(moved, zn, logp) - full_kl(table, zn, logp), abs=1e-12
        )

    def test_floor_keeps_impossible_states_unattractive(self, basic_net):
        # moving into a zero-probability state costs ~log(1e-300), a finite
        # penalty: log P is floored, not -inf
        dead = with_tables(
            basic_net, [np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])]
        )
        idx = [ravel(basic_net, x) for x in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        floored = [
            math.log(0.5), math.log(0.5), math.log(LOG_PROB_FLOOR), math.log(LOG_PROB_FLOOR)
        ]
        cells = state_cells(dead, unravel_rows(dead, idx))
        assert aim.log_probs(dead, cells).tolist() == floored
        assert log_probs(dead, idx).tolist() == floored
        counts = {ravel(basic_net, (0, 0)): 10}
        delta = incremental_kl_delta(
            counts, 10, logp_of(dead), ravel(basic_net, (0, 0)), ravel(basic_net, (1, 0))
        )
        assert 50.0 < delta < math.inf


def seed_completion(theta0, reps, seed):
    """initial_completion on a list of per-replica bounds, one pattern per
    distinct bound."""
    bound = inference.BoundDataset(theta0, dataset_of(theta0, reps))
    rep_pattern = np.array([tuple_bounds(bound.rows).index(b) for b in reps], dtype=np.int64)
    return initial_completion(theta0, bound.table, rep_pattern, np.random.default_rng(seed))


def assert_draws_per_pattern(theta0, table, rep_pattern, seed):
    """initial_completion and the per-pattern oracle draw the same members
    and fallbacks from one seed, and leave the generator in one state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = initial_completion(theta0, table, rep_pattern, rng)
    assert got == per_pattern_completion(theta0, table, rep_pattern, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got


def build_state(structure, theta0, data, z, seed=0):
    """Start an AimState the way aim_fit does, for op-level tests."""
    bound = inference.BoundDataset(structure, data)
    theta0 = start_network(structure, theta0)
    return aim.start(theta0, bound, z, np.random.default_rng(seed))[0]


class TestAiSweep:
    def test_sweep_never_increases_kl(self, basic_net, basic_data_n2000):
        state = build_state(basic_net, basic_net, basic_data_n2000, z=5, seed=2)
        before = state.full_score()
        ai_sweep(state)
        after = state.full_score()
        assert after <= before + 1e-12
        assert after == pytest.approx(
            full_kl(state.counts, state.zn, logp_of(state.net)), abs=1e-10
        )

    def test_migration_toward_optimal_split(self, basic_net, basic_data_n2000):
        # start with every hidden-B replica completed to (t,f); at the true
        # parameters the optimal split sends 1/9 of them to (t,t)
        z = 10
        bound = inference.BoundDataset(basic_net, basic_data_n2000)
        rep_case = replica_cases(bound, z)
        tf = ravel(basic_net, (0, 1))
        assign = [
            tf if row[1] < 0 else ravel(basic_net, row)
            for row in bound.rows[bound.case_pattern[rep_case]].tolist()
        ]
        state = AimState(start_network(basic_net, basic_net), bound, z, rep_case, assign)
        assert state.counts[tf] == 900 * z  # no (t,f) case is observed
        for _ in range(60):
            before = state.full_score()
            ai_sweep(state)
            after = state.full_score()
            assert after <= before + 1e-12
            if before - after < 1e-15:
                break
        tt = ravel(basic_net, (0, 0))
        # counts: 100*z from observed (t,t) plus migrated replicas; optimum
        # total is 2000*z*0.1
        assert state.counts[tt] == pytest.approx(2000 * z * 0.1, rel=0.02)

    def test_fully_observed_replicas_skipped(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "t"), 5.0), (("f", "f"), 5.0)))
        state = build_state(basic_net, basic_net, d, z=3)
        before = dict(state.counts)
        ai_sweep(state)
        assert state.members == [] and state._moves == 0
        assert state.counts == before

    def test_one_missing_binary_has_one_neighbor(self, basic_net, basic_data_n2000):
        state = build_state(basic_net, basic_net, basic_data_n2000, z=1)
        moves = state.case_moves[0]  # the hidden-B case
        assert len(moves) == 1
        stride, card = moves[0]
        assert card == 2  # one alternative state per replica
        assert state.case_moves[1] == []  # fully observed cases have none


def reference_sweep(state, placed):
    """The per-replica definition of a sweep: every replica scores each
    one-coordinate move with incremental_kl_delta and takes the first of the
    most negative.  `placed` is the sweep's own per-replica list of states
    (`replica_states`), updated with the state's counts and move count;
    the state's keys are left as they were.  Returns how many improving
    candidates tied with the best one found before them."""
    counts = state.counts
    logp = logp_of(state.net)
    ties = 0
    for j in range(state.zn):
        cur = placed[j]
        best_delta = 0.0
        best_to = -1
        for stride, card in state.case_moves[state.rep_case[j]]:
            d = (cur // stride) % card
            for s in range(card):
                if s == d:
                    continue
                to = cur + (s - d) * stride
                delta = incremental_kl_delta(counts, state.zn, logp, cur, to)
                if delta < best_delta:
                    best_delta = delta
                    best_to = to
                elif delta == best_delta < 0.0:
                    ties += 1
        if best_to >= 0:
            counts[cur] -= 1
            if counts[cur] == 0:
                del counts[cur]
            counts[best_to] = counts.get(best_to, 0) + 1
            placed[j] = best_to
            state._moves += 1
    return ties


def tri_data():
    return Dataset(
        ("A", "B", "C"),
        (
            ((None, "t", None), 7.0),
            ((None, None, "f"), 5.0),
            (("a", None, None), 4.0),
            (("c", "f", "t"), 3.0),
            (("b", "t", "t"), 2.0),
            ((None, None, None), 2.0),
        ),
    )


class TestSweepMatchesDefinition:
    """ai_sweep makes the reference sweep's moves, with the same floats."""

    def run_rounds(self, structure, theta0, data, z, rounds, seed=0):
        fast = build_state(structure, theta0, data, z=z, seed=seed)
        ref = build_state(structure, theta0, data, z=z, seed=seed)
        placed = replica_states(ref)
        assert replica_states(fast) == placed
        ties = 0
        moves = []
        for _ in range(rounds):
            before = ref._moves
            ai_sweep(fast)
            ties += reference_sweep(ref, placed)
            moves.append(ref._moves - before)
            assert replica_states(fast) == placed
            assert fast.counts == ref.counts
            assert fast._moves == ref._moves
            m_step(fast)
            m_step(ref)
            assert fast.score == ref.score
        return ties, moves

    def test_asia_unit_weights(self, asia_net):
        data = asia_data(asia_net)
        assert all(w == 1.0 for _, w in data.cases)
        em = em_fit(asia_net, data)
        _, moves = self.run_rounds(asia_net, em.network, data, z=5, rounds=6)
        assert sum(moves) > 0

    def test_integer_weights_above_one(self, basic_net, basic_data_n2000):
        _, moves = self.run_rounds(
            basic_net, basic_net, basic_data_n2000, z=3, rounds=4, seed=2
        )
        assert sum(moves) > 0

    def test_three_state_node_and_ties(self):
        net = parse_network(TRI_NET)
        # uniform parameters make many candidate moves score the same
        ties, moves = self.run_rounds(net, uniform_cpts(net), tri_data(), z=3, rounds=5)
        assert ties > 0
        assert sum(moves) > 0

    def test_asia_one_replica_per_case(self, asia_net):
        # at z=1 many keys (move set, state) hold a single replica
        data = asia_data(asia_net)
        em = em_fit(asia_net, data)
        _, moves = self.run_rounds(asia_net, em.network, data, z=1, rounds=6)
        assert sum(moves) > 0

    def test_split_table_reads_tree_states_in_the_batch(self, asia_net, monkeypatch):
        # half the members enumerated: the other patterns' states take P
        # from their own cells, as joint_probability computes it
        data = asia_data(asia_net, n=150, seed=48)
        half = sum(inference.BoundDataset(asia_net, data).sizes) // 2
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", half)
        table = inference.BoundDataset(asia_net, data).table
        assert table.enumerated and table.on_tree
        em = em_fit(asia_net, data)
        bounds = tuple_bounds(table.rows)
        tree_states = np.concatenate(
            [member_flat_indices(asia_net, bounds[k]) for k in table.on_tree]
        )
        assert not np.isin(tree_states, table.uniq).all()
        cells = state_cells(asia_net, unravel_rows(asia_net, tree_states))
        assert cell_probs(em.network, cells).tolist() == [
            joint_probability(em.network, unravel(asia_net, x)) for x in tree_states.tolist()
        ]
        _, moves = self.run_rounds(asia_net, em.network, data, z=5, rounds=4)
        assert sum(moves) > 0


class TestSweepWork:
    @staticmethod
    def still_state(structure, data):
        """A state that a sweep at its current parameters leaves as it is."""
        state = build_state(structure, em_fit(structure, data).network, data, z=5)
        for _ in range(50):
            before = state._moves
            ai_sweep(state)
            if state._moves == before:
                return state
        raise AssertionError("no still sweep within 50")

    @staticmethod
    def reads(state):
        """The states whose counts the occupied keys read: each moving
        replica's state and its one-coordinate neighbours."""
        out = set()
        for m, x in key_members(state):
            for stride, card in state.moves[m]:
                d = (x // stride) % card
                out.update(x + (s - d) * stride for s in range(card))
        return out

    @staticmethod
    def record_pops(monkeypatch):
        """Record the keys popped from the heap, one pop per decision."""
        pops = []
        pop = heapq.heappop

        def recorded(queue):
            j, k = pop(queue)
            pops.append(k)
            return j, k

        monkeypatch.setattr(heapq, "heappop", recorded)
        return pops

    @staticmethod
    def record_gathers(monkeypatch):
        """Record the cells of every log P gather the fit makes."""
        gathers = []
        probs = aim.cell_probs

        def recorded(net, cells):
            gathers.append(cells.tolist())
            return probs(net, cells)

        monkeypatch.setattr(aim, "cell_probs", recorded)
        return gathers

    @pytest.mark.parametrize("split", [False, True])
    def test_still_sweep_reads_each_state_once(self, asia_net, monkeypatch, split):
        # a sweep at a theta not read before that moves nothing reads log P
        # in one gather of the cached cells of every row, one row per state
        # whatever number of keys and replicas read it, and decides each
        # occupied key once; every occupied state and every state the keys
        # read has a row, and on a table split between members and the
        # clique tree the tree's states are among them
        data = asia_data(asia_net, n=150, seed=48) if split else asia_data(asia_net)
        if split:
            half = sum(inference.BoundDataset(asia_net, data).sizes) // 2
            monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", half)
        state = self.still_state(asia_net, data)
        table = inference.BoundDataset(asia_net, data).table
        assert bool(table.on_tree) == split
        bounds = tuple_bounds(table.rows)
        tree_states = {
            x
            for k in table.on_tree
            for x in member_flat_indices(asia_net, bounds[k]).tolist()
        }
        state.net = asia_net.with_theta(state.net.theta)  # the same theta, not yet read
        gathers = self.record_gathers(monkeypatch)
        built = []
        monkeypatch.setattr(aim, "state_cells", lambda *args: built.append(args))
        pops = self.record_pops(monkeypatch)
        keys = state
        occupied = [k for k, reps in enumerate(keys.members) if reps]
        before = state._moves
        ai_sweep(state)
        assert state._moves == before
        assert sorted(pops) == occupied
        assert not built
        [cells] = gathers
        assert cells == state_cells(asia_net, unravel_rows(asia_net, keys.states)).tolist()
        assert len(set(keys.states)) == len(keys.states)
        assert keys.lp == log_probs(state.net, keys.states).tolist()
        reads = self.reads(state)
        assert reads | set(state.counts) <= set(keys.states)
        assert bool(reads & tree_states) == split

    def test_rows_added_in_a_sweep_are_read_at_the_next(self, asia_net, monkeypatch):
        # two sweeps at one theta: the rows the first sweep added (the
        # neighbours of states it first moved replicas to) take log P in
        # one gather of those rows alone before the second sweep reads them,
        # and both sweeps make the per-replica definition's moves
        data = asia_data(asia_net)
        theta = em_fit(asia_net, data).network
        state = build_state(asia_net, theta, data, z=5)
        ref = build_state(asia_net, theta, data, z=5)
        placed = replica_states(ref)
        keys = state
        ai_sweep(state)
        reference_sweep(ref, placed)
        assert state._moves > 0 and replica_states(state) == placed
        added = len(keys.states) - len(keys.lp)
        assert added > 0
        gathers = self.record_gathers(monkeypatch)
        ai_sweep(state)
        reference_sweep(ref, placed)
        assert [len(cells) for cells in gathers] == [added]
        assert keys.lp == log_probs(state.net, keys.states).tolist()
        assert (replica_states(state), state.counts) == (placed, ref.counts)
        assert state.full_score() == ref.full_score()

    def test_one_gather_per_iteration(self, asia_net, monkeypatch):
        # log P at theta0 takes one gather for the occupied states and the
        # states the keys read, shared by the first score and sweep; after
        # that each M step's score and the next sweep share one gather at
        # the new theta
        data = asia_data(asia_net)
        theta = em_fit(asia_net, data).network
        gathers = self.record_gathers(monkeypatch)
        res = aim_fit(asia_net, theta, data, AimOptions(z=5, seed=3))
        assert len(res.trace) > 2
        assert len(gathers) == 1 + len(res.trace)

    def test_tied_moves_decide_no_key(self, basic_net, monkeypatch):
        # under uniform parameters a lone replica's move to an empty state
        # scores exactly 0.0, which is no gain: each key is decided once and
        # none moves
        d = Dataset(("A", "B"), ((("t", None), 1.0), (("f", None), 1.0)))
        state = build_state(basic_net, uniform_cpts(basic_net), d, z=1)
        pops = self.record_pops(monkeypatch)
        ai_sweep(state)
        assert state._moves == 0
        assert sorted(pops) == [0, 1]
        assert state.members == [[0], [1]]

    def test_terms_are_the_scalar_floats_at_every_count(self, basic_net):
        # the terms at each count c of zn = 5000 replicas are the floats of
        # (c/zn)(math.log(c/zn) - log P), read from the fit's one log table;
        # numpy's vectorised log would differ from math.log at some counts
        d = Dataset(("A", "B"), ((("t", None), 5000.0),))
        state = build_state(basic_net, basic_net, d, z=1)
        keys, zn = state, state.zn
        tt, tf = ravel(basic_net, (0, 0)), ravel(basic_net, (0, 1))
        logp = logp_of(state.net)
        for c in range(1, zn):
            state.counts = {tt: c, tf: zn - c}
            keys.first_queue()
            for x, n in ((tt, c), (tf, zn - c)):
                r = keys.row[x]
                lp = logp(x)

                def term(c):
                    return c / zn * (math.log(c / zn) - lp) if c > 0 else 0.0

                assert keys.lp[r] == lp
                assert (keys.left[r], keys.was[r], keys.arrived[r]) == (
                    term(n - 1), term(n), term(n + 1)
                )

    def test_keys_track_the_moves(self, asia_net):
        # after sweeps that created keys, each key lists exactly the
        # replicas the per-replica definition puts at its state, in
        # ascending order, reads the counts at its state and its
        # neighbours, and every row read in the last sweep holds the terms
        # of its count now
        data = asia_data(asia_net)
        theta = em_fit(asia_net, data).network
        state = build_state(asia_net, theta, data, z=5)
        ref = build_state(asia_net, theta, data, z=5)
        placed = replica_states(ref)
        keys = state
        built = len(keys.key)
        for _ in range(3):
            m_step(state)
            m_step(ref)
            occupied = [k for k, reps in enumerate(keys.members) if reps]
            ai_sweep(state)
            reference_sweep(ref, placed)
        assert len(keys.key) > built
        held = {}
        for j, (c, x) in enumerate(zip(state.rep_case.tolist(), placed)):
            if state.case_moves[c]:
                held.setdefault((int(state.case_pattern[c]), x), []).append(j)
        assert key_members(state) == held
        for k, (m, x) in enumerate(keys.key):
            nbrs = [
                x + (s - d) * stride
                for stride, card in state.moves[m] for d in [(x // stride) % card]
                for s in range(card) if s != d
            ]
            assert keys.states[keys.key_row[k]] == x
            assert [keys.states[r] for r in keys.nbr_rows[k]] == nbrs
            for r in [keys.key_row[k], *keys.nbr_rows[k]]:
                assert keys.readers[r].count(k) == 1
        zn = state.zn
        logp = logp_of(state.net)
        for r in {r for k in occupied for r in [keys.key_row[k], *keys.nbr_rows[k]]}:
            x = keys.states[r]
            n, lp = state.counts.get(x, 0), logp(x)

            def term(c):
                return c / zn * (math.log(c / zn) - lp) if c > 0 else 0.0

            assert keys.lp[r] == lp
            assert (keys.left[r], keys.was[r], keys.arrived[r]) == (term(n - 1), term(n), term(n + 1))


class TestMStep:
    def test_complete_counts_give_ml(self, basic_net, basic_data_n2000):
        state = build_state(basic_net, basic_net, basic_data_n2000, z=2, seed=4)
        # overwrite with the optimal completion counts 0.1/0.4/0.1/0.4
        zn = state.zn
        state.counts = {
            ravel(basic_net, (0, 0)): zn // 10,
            ravel(basic_net, (0, 1)): 4 * zn // 10,
            ravel(basic_net, (1, 0)): zn // 10,
            ravel(basic_net, (1, 1)): 4 * zn // 10,
        }
        net, row_counts = m_step(state)
        assert net.cpts[0][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert net.cpts[1][0, 0] == pytest.approx(0.2, abs=1e-12)
        # counts are reported in original-case units
        assert row_counts[0][0] == pytest.approx(2000.0)

    def test_m_step_never_increases_surrogate(self, basic_net, basic_data_n2000):
        state = build_state(basic_net, basic_net, basic_data_n2000, z=3, seed=8)
        ai_sweep(state)
        before = state.full_score()
        m_step(state)
        assert state.score <= before + 1e-12


class TestInitialCompletion:
    def test_complete_case_identity(self, basic_net):
        comp, fb = seed_completion(basic_net, [(0, 1)], seed=0)
        assert comp == [ravel(basic_net, (0, 1))]
        assert fb == []

    def test_posterior_fraction_converges(self, basic_net):
        # P(B=t | A=t) = 0.2 under the truth
        reps = [(0, None)] * 20_000
        comp, _ = seed_completion(basic_net, reps, seed=3)
        rows = unravel_rows(basic_net, np.array(comp))
        assert (rows[:, 0] == 0).all()
        frac = float(np.mean(rows[:, 1] == 0))
        assert abs(frac - 0.2) < 0.01

    def test_same_seed_identical(self, asia_net):
        reps = [tuple(None for _ in asia_net.nodes)] * 50
        a, _ = seed_completion(asia_net, reps, seed=7)
        b, _ = seed_completion(asia_net, reps, seed=7)
        assert a == b

    def test_zero_evidence_falls_back_to_uniform(self, basic_net):
        dead = with_tables(basic_net, [np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])])
        reps = [(1, None)] * 4  # A=f impossible under dead theta
        comp, fb = seed_completion(dead, reps, seed=0)
        assert sorted(fb) == [0, 1, 2, 3]
        assert all(x[0] == 1 for x in unravel_rows(basic_net, np.array(comp)))

    def test_zero_evidence_falls_back_on_elimination_path(self, basic_net, monkeypatch):
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", 0)
        dead = with_tables(basic_net, [np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])])
        reps = [(1, None)] * 4 + [(0, None)] * 2
        comp, fb = seed_completion(dead, reps, seed=0)
        assert sorted(fb) == [0, 1, 2, 3]
        assert unravel_rows(basic_net, np.array(comp))[:, 0].tolist() == [1, 1, 1, 1, 0, 0]

    @pytest.mark.parametrize("budget", ["dense", "half", "tree"])
    def test_draws_equal_per_pattern(self, budget, asia_net, monkeypatch):
        # an asia dataset's patterns of 1 to 8 members, all enumerated,
        # half of the members enumerated (tree patterns drawn between the
        # enumerated ones), or all on the tree
        data = asia_data(asia_net, n=300, seed=61)
        sizes = inference.BoundDataset(asia_net, data).sizes
        if budget != "dense":
            half = sum(sizes) // 2
            monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", half if budget == "half" else 0)
        bound = inference.BoundDataset(asia_net, data)
        table = bound.table
        assert bool(table.on_tree) == (budget != "dense")
        assert bool(table.enumerated) == (budget != "tree")
        members = (table.stops - table.starts).tolist()
        assert budget != "dense" or set(members) == {1, 2, 4, 8}
        theta0 = randomize_parameters(asia_net, np.random.default_rng(62))
        assert_draws_per_pattern(theta0, table, np.repeat(bound.case_pattern, 3), seed=63)
        # 12 replicas for each case of 4 or more members, 1 for the others:
        # replica counts that differ widely between patterns, and the
        # 4-member patterns' CDF cells below the last (3 a replica)
        # outnumber the replicas of all multi-member patterns
        case_members = np.array(bound.sizes)[bound.case_pattern]
        reps = np.where(case_members >= 4, 12, 1)
        assert 3 * reps[case_members == 4].sum() > reps[case_members > 1].sum()
        rep_pattern = np.repeat(bound.case_pattern, reps)
        assert_draws_per_pattern(theta0, table, rep_pattern, seed=64)

    @pytest.mark.parametrize("budget", [inference.DENSE_TABLE_BUDGET, 0])
    def test_zero_probability_and_empty_patterns(self, budget, asia_net, monkeypatch):
        # asia's either is tub or lung, so tub=yes, either=no has probability
        # zero: its replicas fall back to uniform draws between the draws of
        # the enumerated patterns on either side.  A case of weight zero
        # leaves its pattern out of the table, and table patterns given no
        # replica (enumerated, impossible or on the tree) take no uniform.
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", budget)
        none = (None,) * 8
        dead = (None, 0, None, None, None, 1, None, None)
        patterns = [
            (0, None, None, None, 1, None, None, 0), dead, (None, 1, 0, None, None, None, 1, 1),
            none, (1, 1, 1, 1, 1, 1, 1, 1), (None, None, 0, 0, None, None, None, None),
        ]
        spare = (0, 0, None, None, None, None, None, None)  # weight zero
        cases = tuple(
            (tuple(None if v is None else s.states[v] for s, v in zip(asia_net.nodes, b)), w)
            for b, w in [(b, 1.0) for b in patterns] + [(spare, 0.0)] + [(patterns[1], 1.0)]
        )
        data = Dataset(tuple(s.name for s in asia_net.nodes), cases)
        bound = inference.BoundDataset(asia_net, data)
        table = bound.table
        assert tuple_bounds(bound.rows) == patterns and bool(table.on_tree) == (budget == 0)
        assert table.pattern_probs(asia_net)[1] == 0.0
        reps = [4, 3, 5, 0, 2, 0]  # none and one complete pattern get no replica
        rep_pattern = np.repeat(np.arange(len(patterns)), reps)
        # 9 uniforms on the dense path: one for each of the 4 replicas of
        # the 32-member pattern and the 5 of the 16-member one
        comp, fallbacks = assert_draws_per_pattern(asia_net, table, rep_pattern, seed=65)
        assert fallbacks == [4, 5, 6]
        rows = unravel_rows(asia_net, np.array(comp))
        for k, row in zip(rep_pattern, rows):
            assert all(v is None or row[i] == v for i, v in enumerate(patterns[k]))

    def test_dense_and_sequential_paths_same_distribution(self, asia_net, monkeypatch):
        # the sequential eliminator path must target the same posterior
        bound = (None, None, 0, None, 0, None, 0, 1)
        reps = [bound] * 4000
        dense = unravel_rows(asia_net, np.array(seed_completion(asia_net, reps, seed=21)[0]))
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", 0)
        seq = unravel_rows(asia_net, np.array(seed_completion(asia_net, reps, seed=22)[0]))
        for rows in (dense, seq):   # every draw keeps the observed coordinates
            for i, v in enumerate(bound):
                if v is not None:
                    assert (rows[:, i] == v).all()
        for i in (0, 1, 3, 5):
            fa = float(np.mean(dense[:, i] == 0))
            fb = float(np.mean(seq[:, i] == 0))
            assert abs(fa - fb) < 0.04


class TestAimStart:
    """The fit's start: case weights checked, and replicas laid out, from
    arrays."""

    CASES = ((("t", None), 1.0), (("t", "t"), 2.0), (("f", "t"), 1.0), (("t", None), 3.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, 2.5])
    def test_first_bad_weight_named_as_a_python_float(self, basic_net, bad):
        data = Dataset(("A", "B"), self.CASES)
        cases = list(data.cases)
        cases[2], cases[3] = (cases[2][0], bad), (cases[3][0], 0.5)
        weights = np.array([w for _, w in cases])
        weights.flags.writeable = False
        # Dataset refuses -1 itself, so the cases and the weights read
        # from them are both rewritten after construction
        object.__setattr__(data, "cases", tuple(cases))
        object.__setattr__(data, "case_weights", weights)
        want = f"replication needs positive integer case weights; got weight {bad!r}"
        with pytest.raises(DataError, match=re.escape(want) + "$"):
            aim_fit(basic_net, basic_net, data, AimOptions(z=2, seed=0))

    def test_weight_rounding_to_no_replicas_refused(self, basic_net):
        # within 1e-9 of 0, an integer but not a positive one
        data = Dataset(("A", "B"), ((("t", None), 1e-10), (("f", "t"), 1.0)))
        want = "replication needs positive integer case weights; got weight 1e-10"
        with pytest.raises(DataError, match=re.escape(want) + "$"):
            aim_fit(basic_net, basic_net, data, AimOptions(z=2, seed=0))
        with pytest.raises(DataError, match=re.escape(want) + "$"):
            replica_cases(inference.BoundDataset(basic_net, data), 2)

    def test_replica_budget_refused_before_layout(self, basic_net):
        data = Dataset(("A", "B"), ((("t", None), 1e300), (("f", "t"), 3.0)))
        with pytest.raises(BudgetError, match="^2e\\+300 replicas exceed the budget 1048576$"):
            replica_cases(inference.BoundDataset(basic_net, data), 2)
        at_budget = Dataset(("A", "B"), ((("t", None), 2.0**19),))
        assert len(replica_cases(inference.BoundDataset(basic_net, at_budget), 2)) == 1 << 20

    def first_state(self, monkeypatch, net, data, z):
        states = []
        monkeypatch.setattr(aim, "ai_sweep", lambda state: states.append(state) or ai_sweep(state))
        res = aim_fit(net, net, data, AimOptions(z=z, seed=0, max_iters=2))
        return states[0], res

    def test_near_integer_weight_accepted(self, basic_net, monkeypatch):
        near = Dataset(("A", "B"), ((("t", None), 3.0000000001), (("f", "t"), 1.0)))
        exact = Dataset(("A", "B"), ((("t", None), 3.0), (("f", "t"), 1.0)))
        state, res = self.first_state(monkeypatch, basic_net, near, 2)
        assert state.rep_case.tolist() == [0] * 6 + [1] * 2 and state.zn == 8
        assert state.case_moves == [[(1, 2)], []]
        _, ref = self.first_state(monkeypatch, basic_net, exact, 2)
        assert res.score == ref.score and res.network.theta.tobytes() == ref.network.theta.tobytes()

    def test_replicas_laid_out_per_case(self, asia_net, monkeypatch):
        data = asia_data(asia_net, n=120, seed=47)
        rng = np.random.default_rng(8)
        data = Dataset(data.variables, tuple((p, float(rng.integers(1, 4))) for p, _ in data.cases))
        state, _ = self.first_state(monkeypatch, asia_net, data, 3)
        reps = [int(w) * 3 for _, w in data.cases]
        assert state.rep_case.tolist() == np.repeat(np.arange(len(reps)), reps).tolist()
        assert state.zn == sum(reps)
        strides, cards = asia_net.ravel_strides, asia_net.cards
        assert state.case_moves == [
            [(strides[i], cards[i]) for i, v in enumerate(bind_pattern(asia_net, data.variables, p))
             if v is None]
            for p, _ in data.cases
        ]

    def test_layout_computed_once_per_fit(self, basic_net, monkeypatch):
        calls = []

        def counted(bound, z):
            calls.append(z)
            return replica_cases(bound, z)

        monkeypatch.setattr(aim, "replica_cases", counted)
        aim_fit(basic_net, basic_net, Dataset(("A", "B"), self.CASES), AimOptions(z=2, seed=0))
        assert calls == [2]

    def test_case_pattern_in_first_seen_order(self, basic_net):
        data = Dataset(("A", "B"), (
            (("t", None), 1.0), (("f", "f"), 0.0), (("t", None), 2.0), (("f", "t"), 1.0)
        ))
        bound = inference.BoundDataset(basic_net, data)
        assert bound.distinct == [("t", None), ("f", "f"), ("f", "t")]
        assert bound.distinct_rows.tolist() == [[0, -1], [1, 1], [1, 0]]
        assert bound.patterns == [("t", None), ("f", "t")]
        assert bound.rows.tolist() == [[0, -1], [1, 0]]
        assert bound.case_pattern.dtype == np.int64
        assert bound.case_pattern.tolist() == [0, 1, 0, 2]

    def test_log_q_is_computed_per_count_read(self):
        log_q = aim.LogQ(5000)
        assert len(log_q) == 0
        for c in (1, 2200, 5001, 37):
            assert log_q[c] == math.log(c / 5000)
            assert log_q[c].hex() == math.log(float(np.float64(c) / 5000)).hex()
        assert sorted(log_q) == [1, 37, 2200, 5001]


class TestAimFit:
    def test_complete_dataset_one_step_to_ml(self, basic_net):
        data = complete_dataset(basic_net, 300, seed=1)
        res = aim_fit(basic_net, basic_net, data, AimOptions(z=2, seed=0))
        rows = np.array(
            [
                [basic_net.state_index("A", p[0]), basic_net.state_index("B", p[1])]
                for p, _ in data.cases
            ]
        )
        direct, _ = ml_estimate(basic_net, (rows, np.ones(len(data.cases))))
        for a, b in zip(res.network.cpts, direct.cpts):
            assert np.allclose(a, b, atol=1e-12)
        assert len(res.trace) <= 2

    def test_fixture_recovers_truth(self, basic_net, basic_data_n2000):
        em = em_fit(basic_net, basic_data_n2000)
        res = aim_fit(
            basic_net, em.network, basic_data_n2000, AimOptions(z=10, seed=3)
        )
        assert res.network.cpts[1][0, 0] == pytest.approx(0.2, abs=0.01)
        assert res.score < 1e-3
        assert res.converged

    def test_fractional_weights_rejected(self, basic_net, basic_data):
        with pytest.raises(DataError):
            aim_fit(basic_net, basic_net, basic_data, AimOptions(z=2))

    def test_zero_iterations_rejected(self, basic_net, basic_data_n2000):
        with pytest.raises(DataError, match="max_iters"):
            aim_fit(basic_net, basic_net, basic_data_n2000, AimOptions(max_iters=0))

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_negative_or_nan_tol_rejected(self, basic_net, basic_data_n2000, tol):
        with pytest.raises(DataError, match="tol must be a non-negative number"):
            aim_fit(basic_net, basic_net, basic_data_n2000, AimOptions(tol=tol))

    def test_infinite_tol_rejected(self, basic_net, basic_data_n2000):
        with pytest.raises(DataError, match="tol must be a non-negative number; got inf"):
            aim_fit(basic_net, basic_net, basic_data_n2000, AimOptions(tol=float("inf")))

    def test_negative_seed_rejected(self, basic_net, basic_data_n2000):
        with pytest.raises(DataError, match="seed must be a non-negative integer"):
            aim_fit(basic_net, basic_net, basic_data_n2000, AimOptions(seed=-1))

    @pytest.mark.parametrize("option", ["z", "max_iters", "seed"])
    def test_non_integer_option_rejected(self, asia_net, option):
        # three cases, one value missing each: z=2.5 used to give each case
        # 2 replicas but a denominator of 2.5 apiece, and a negative score
        names = tuple(s.name for s in asia_net.nodes)
        first = [s.states[0] for s in asia_net.nodes]
        data = Dataset(names, tuple(
            (tuple(None if i == k else v for i, v in enumerate(first)), 1.0) for k in range(3)
        ))
        with pytest.raises(DataError, match=f"{option} must be a .*integer; got 2.5"):
            aim_fit(asia_net, asia_net, data, AimOptions(**{option: 2.5}))

    def test_empty_dataset_rejected(self, basic_net):
        with pytest.raises(DataError, match="total weight must be positive"):
            aim_fit(basic_net, basic_net, Dataset(("A", "B"), ()))

    def test_dataset_bound_to_another_structure_refused(self, asia_net, basic_net, basic_data):
        bound = inference.BoundDataset(basic_net, basic_data)
        with pytest.raises(DataError, match="structure differs"):
            aim_fit(asia_net, asia_net, bound)

    def test_bound_dataset_fits_as_the_dataset(self, asia_net):
        data = asia_data(asia_net, n=200, seed=45)
        opts = AimOptions(z=3, seed=2)
        a = aim_fit(asia_net, asia_net, data, opts)
        b = aim_fit(asia_net, asia_net, inference.BoundDataset(asia_net, data), opts)
        assert (a.trace, a.score, a.init_fallbacks) == (b.trace, b.score, b.init_fallbacks)
        for x, y in zip(a.network.cpts + a.smoothed.cpts, b.network.cpts + b.smoothed.cpts):
            assert np.array_equal(x, y)

    def test_zero_tol_allowed(self, basic_net, basic_data_n2000):
        res = aim_fit(
            basic_net, basic_net, basic_data_n2000,
            AimOptions(z=1, tol=0.0, max_iters=4, seed=0),
        )
        scores = [t[1] for t in res.trace]
        assert 1 <= len(scores) <= 4
        for x, y in zip(scores, scores[1:]):
            assert y <= x + 1e-12

    def test_one_pattern_table_per_fit(self, asia_net, monkeypatch):
        built = []
        init = inference.MemberTable.__init__

        def counting(self, net, bounds, sizes, budget):
            built.append(len(bounds))
            init(self, net, bounds, sizes, budget)

        monkeypatch.setattr(inference.MemberTable, "__init__", counting)
        data = asia_data(asia_net, n=200, seed=44)
        res = aim_fit(asia_net, asia_net, data, AimOptions(z=3, seed=1, max_iters=3))
        assert built == [len(grouped(data))]
        assert res.init_fallbacks == 0

    def test_surrogate_monotone_and_deterministic(self, asia_net):
        rng = np.random.default_rng(31)
        aug = build_coarsening_network(asia_net, CoarseningSpec(2, 0.15, 0.05), rng)
        data, _ = generate_dataset(aug, 200, rng)
        em = em_fit(asia_net, data)
        a = aim_fit(asia_net, em.network, data, AimOptions(z=3, seed=5))
        b = aim_fit(asia_net, em.network, data, AimOptions(z=3, seed=5))
        assert a.trace == b.trace
        scores = [t[1] for t in a.trace]
        for x, y in zip(scores, scores[1:]):
            assert y <= x + 1e-9

    def test_lower_bound_never_exceeds_exact_profile(
        self, basic_net, basic_data_n2000
    ):
        # -H(m) - score is a valid lower bound of the sat profile at the
        # current theta, at every iteration
        em = em_fit(basic_net, basic_data_n2000)
        state = build_state(basic_net, em.network, basic_data_n2000, z=5, seed=9)
        h = inference.BoundDataset(basic_net, basic_data_n2000).entropy
        for _ in range(6):
            ai_sweep(state)
            net, _ = m_step(state)
            bound = -h - state.score
            exact = exact_sat_profile_loglik(net, basic_data_n2000, tol=1e-10)
            assert bound <= exact.per_case_average + 1e-9

    def test_zero_score_certifies_global_optimum(self, basic_net, basic_data_n2000):
        em = em_fit(basic_net, basic_data_n2000)
        res = aim_fit(basic_net, em.network, basic_data_n2000, AimOptions(z=10, seed=3))
        if res.score < 1e-9:
            h = inference.BoundDataset(basic_net, basic_data_n2000).entropy
            exact = exact_sat_profile_loglik(res.network, basic_data_n2000)
            # -H(m) is the unconditional ceiling of the profile value
            assert exact.per_case_average >= -h - 1e-6

    def test_trace_reports_sat_lower_bound(self, basic_net, basic_data_n2000):
        em = em_fit(basic_net, basic_data_n2000)
        res = aim_fit(basic_net, em.network, basic_data_n2000, AimOptions(z=5, seed=1))
        h = inference.BoundDataset(basic_net, basic_data_n2000).entropy
        for _, score, bound in res.trace:
            assert bound == pytest.approx(-h - score, abs=1e-12)
