"""The sat and car solvers' support step: agreement with the SQUAREM loop
that has none, a reset the optimum needs, the evaluation budget of a reset,
and warm starts over the lik_reports inputs of perfbench.  Also the
solvers' work against the cycle that fully evaluates every point it
touches, and the exact evaluation budget."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bind_pattern, four_evaluation_fixed_point, member_flat_indices, random_dag,
    without_support,
)
from coarsebn import aim, cli, em, likelihoods
from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from coarsebn.data import Dataset
from coarsebn.errors import NumericalError
from coarsebn.likelihoods import CAR_TOL, SatProfileProblem, car_normalizer
from coarsebn.network import Network, NodeSpec

SAT_TOL = 1e-8


def small_dataset(nodes, dag_seed, mp, mu, spread, n, data_seed):
    """A random DAG of `nodes` nodes and n cases of it, coarsened by a
    random mechanism with `mp` extra parents, mean mu and variance
    spread * mu * (1 - mu)."""
    net = random_dag(nodes, dag_seed, cards=(2, 4), max_parents=2)
    rng = np.random.default_rng(data_seed)
    spec = CoarseningSpec(mp, mu, spread * mu * (1.0 - mu))
    data, _ = generate_dataset(build_coarsening_network(net, spec, rng), n, rng)
    return net, data


def cycle_losses(mp):
    """The loss at each point a SQUAREM cycle hands on."""
    losses = []
    cycle = likelihoods._squarem_cycle

    def spy(*args):
        out = cycle(*args)
        losses.append(out[1].loss)
        return out

    mp.setattr(likelihoods, "_squarem_cycle", spy)
    return losses


def assert_never_rises(losses, slack):
    # Each loss is a float sum of terms up to ~10 in size, so near the
    # gap's floor it moves by rounding alone (the loop without a support
    # step rises by up to 4.4e-16 on these datasets); 1e-14 allows that
    # rounding and nothing more.  Only the point that ends the solve may be
    # a rejected extrapolation, whose own gap certifies it.
    assert all(b <= a + 1e-14 for a, b in zip(losses[:-1], losses[1:-1]))
    if len(losses) > 1:
        assert losses[-1] <= losses[-2] + slack


def car_load(net, data, lam):
    """The car certificate's load on every joint state: the sum of lambda
    over the patterns containing it."""
    load = np.zeros(net.n_assignments)
    for pattern, value in lam.items():
        load[member_flat_indices(net, bind_pattern(net, data.variables, pattern))] += value
    return load


class TestAgreement:
    @given(
        nodes=st.integers(min_value=1, max_value=5),
        dag_seed=st.integers(min_value=0, max_value=2**16),
        mp=st.integers(min_value=0, max_value=2),
        mu=st.floats(min_value=0.05, max_value=0.7),
        spread=st.sampled_from([0.0, 0.3, 0.9]),
        n=st.integers(min_value=20, max_value=400),
        data_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_datasets_match_the_loop_without_support(
        self, nodes, dag_seed, mp, mu, spread, n, data_seed
    ):
        net, data = small_dataset(nodes, dag_seed, mp, mu, spread, n, data_seed)
        problem = SatProfileProblem(net, data)
        with without_support():
            sat_oracle = problem.solve(net, tol=SAT_TOL)[0]
            log_f_oracle, _ = car_normalizer(net, data)
        with pytest.MonkeyPatch.context() as patch:
            losses = cycle_losses(patch)
            sat, w, _, gap = problem.solve(net, tol=SAT_TOL)
            assert_never_rises(losses, SAT_TOL)
            losses.clear()
            log_f, lam = car_normalizer(net, data)
            assert_never_rises(losses, CAR_TOL)
        assert abs(sat - sat_oracle) <= SAT_TOL
        assert gap <= SAT_TOL
        p_slot = problem.table.probs(net)[problem.table.loc]
        assert np.all(w[p_slot > 0] > 0)
        assert abs(log_f - log_f_oracle) <= CAR_TOL
        assert np.all(car_load(net, data, lam) <= 1.0 + 1e-12)


def counted_solves(fixed_point, net, data):
    """The sat value at SAT_TOL, the car normalizer and the evaluations of
    each solve, every level counted, with `fixed_point` as the solvers'
    loop."""
    counts = []

    def counted(evaluate, x, tol, max_evals, name, support=None):
        counts.append(0)

        def evaluate_counted(y, *level):
            counts[-1] += 1
            return evaluate(y, *level)

        return fixed_point(evaluate_counted, x, tol, max_evals, name, support)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(likelihoods, "_fixed_point", counted)
        sat = SatProfileProblem(net, data).solve(net, tol=SAT_TOL)[0]
        log_f, _ = car_normalizer(net, data)
    return sat, log_f, counts


class TestSolverWork:
    def test_fewer_evaluations_than_the_four_evaluation_cycle(self):
        # 200 datasets drawn from TestAgreement's ranges.  Against the cycle
        # that certifies every point it touches, each solver's total falls
        # and no solve takes more than 1.5 times its count plus two: the
        # short solves may pay one evaluation more to reach a certified
        # point.  A cycle that kept F(jump) against x's loss, not x1's,
        # raises the car total here, and one car solve from 1,070
        # evaluations to 5,674.
        rng = np.random.default_rng(29)
        totals = np.zeros((2, 2), dtype=np.int64)
        for _ in range(200):
            args = (
                int(rng.integers(1, 6)), int(rng.integers(0, 2**16)), int(rng.integers(0, 3)),
                float(rng.uniform(0.05, 0.7)), float(rng.choice([0.0, 0.3, 0.9])),
                int(rng.integers(20, 401)), int(rng.integers(0, 2**16)),
            )
            net, data = small_dataset(*args)
            sat_oracle, log_f_oracle, oracle = counted_solves(
                four_evaluation_fixed_point, net, data
            )
            sat, log_f, counts = counted_solves(likelihoods._fixed_point, net, data)
            assert abs(sat - sat_oracle) <= SAT_TOL, args
            assert abs(log_f - log_f_oracle) <= CAR_TOL, args
            assert all(k <= 1.5 * k0 + 2 for k, k0 in zip(counts, oracle)), (args, counts, oracle)
            totals += [oracle, counts]
        assert np.all(totals[1] < totals[0]), totals


@pytest.fixture(scope="module")
def asia_data(asia_net):
    rng = np.random.default_rng(31)
    aug = build_coarsening_network(asia_net, CoarseningSpec(2, 0.1, 0.05), rng)
    return generate_dataset(aug, 1000, rng)[0]


def largest_member_reset(problem, net):
    """A support step that puts the largest member back at its toehold: the
    car normalizer's largest, or the sat profile's largest in a pattern with
    more than one live slot, renormalised as the solvers' own steps are."""
    table, m = problem.table, problem.bound.m
    pat = table.pat_of_slot[table.probs(net)[table.loc] > 0]
    shared = (np.bincount(pat) > 1)[pat]

    def reset(x):
        y = x.copy()
        if len(x) == len(pat):  # the sat profile's live slots
            i = int(np.argmax(np.where(shared, x, 0.0)))
            y[i] = likelihoods._TOEHOLD * m[pat[i]]
            return y * (m / np.bincount(pat, weights=y))[pat]
        i = int(np.argmax(x))
        y[i] = likelihoods._TOEHOLD * x.max()
        return y / y.sum()

    return reset


class TestResets:
    @pytest.fixture
    def oracle(self, asia_net, asia_data):
        problem = SatProfileProblem(asia_net, asia_data)
        with without_support():
            return problem.solve(asia_net, tol=SAT_TOL)[0], car_normalizer(asia_net, asia_data)[0]

    def test_reset_of_a_needed_member_regrows_from_its_toehold(
        self, asia_net, asia_data, oracle, monkeypatch
    ):
        # Each solver converges, resets its largest member and goes on from
        # there, as if the loss check had let the reset through.
        problem = SatProfileProblem(asia_net, asia_data)
        reset = largest_member_reset(problem, asia_net)
        fixed_point = likelihoods._fixed_point
        raised = []

        def from_reset(evaluate, x, tol, max_evals, name, support=None):
            x, at_x = fixed_point(evaluate, x, tol, max_evals, name, support)
            y = reset(x)
            raised.append(evaluate(y).loss - at_x.loss)
            return fixed_point(evaluate, y, tol, max_evals, name, support)

        monkeypatch.setattr(likelihoods, "_fixed_point", from_reset)
        sat, w, _, gap = problem.solve(asia_net, tol=SAT_TOL)
        log_f, _ = car_normalizer(asia_net, asia_data)
        assert len(raised) == 2 and min(raised) > 0.0  # both members were needed
        assert gap <= SAT_TOL and abs(sat - oracle[0]) <= SAT_TOL
        assert abs(log_f - oracle[1]) <= CAR_TOL
        p_slot = problem.table.probs(asia_net)[problem.table.loc]
        assert np.all(w[p_slot > 0] > 0)

    def test_a_reset_that_raises_the_loss_is_refused(
        self, asia_net, asia_data, oracle, monkeypatch
    ):
        # The same reset offered as each solver's support step: the loss
        # check refuses every one, and the solves end within tol.
        problem = SatProfileProblem(asia_net, asia_data)
        reset = largest_member_reset(problem, asia_net)
        fixed_point = likelihoods._fixed_point
        offered = []

        def forced(evaluate, x, tol, max_evals, name, support=None):
            def step(x, at_x):
                y = reset(x)
                offered.append(evaluate(y).loss > at_x.loss)
                return y

            return fixed_point(evaluate, x, tol, max_evals, name, step)

        monkeypatch.setattr(likelihoods, "_fixed_point", forced)
        sat, _, _, gap = problem.solve(asia_net, tol=SAT_TOL)
        log_f, _ = car_normalizer(asia_net, asia_data)
        assert len(offered) > 2 and all(offered)
        assert gap <= SAT_TOL and abs(sat - oracle[0]) <= SAT_TOL
        assert abs(log_f - oracle[1]) <= CAR_TOL

    def test_sat_map_keeps_every_feasible_slot_positive(self, monkeypatch):
        # X ~ (1/2, 1/2), nine cases of x1 and one with X missing: at the
        # optimum the missing case's member x1 has g about 2.2 above x2's,
        # so the update scales it by about 0.1, which would round the
        # smallest subnormal to zero for good.
        net = Network("one", (NodeSpec("X", ("x1", "x2")),), (np.array([[0.5, 0.5]]),))
        data = Dataset(("X",), ((("x1",), 9.0), ((None,), 1.0)))
        fixed_point = likelihoods._fixed_point
        images = []

        def probe(evaluate, x, tol, max_evals, name, support=None):
            x, at_x = fixed_point(evaluate, x, tol, max_evals, name, support)
            y = x.copy()
            y[1] = 5e-324  # the missing case's member x1
            images.append(evaluate(y).image)
            return x, at_x

        monkeypatch.setattr(likelihoods, "_fixed_point", probe)
        SatProfileProblem(net, data).solve(net)
        (image,) = images
        assert np.all(image > 0)

    def test_too_few_evaluations_for_the_reset_raise(self, asia_net, asia_data, monkeypatch):
        # The evaluations made before the first reset is offered leave no
        # room for the reset's own evaluation: the solve stalls there,
        # without making it.
        problem = SatProfileProblem(asia_net, asia_data)
        fixed_point = likelihoods._fixed_point
        evals, first = [0], []

        def counted(evaluate, x, tol, max_evals, name, support=None):
            def evaluate_counted(x, *level):
                evals[0] += 1
                return evaluate(x, *level)

            def support_counted(x, at_x):
                reset = support(x, at_x)
                if reset is not None and not first:
                    first.append((evals[0], at_x.gap))
                return reset

            return fixed_point(evaluate_counted, x, tol, max_evals, name, support_counted)

        monkeypatch.setattr(likelihoods, "_fixed_point", counted)
        problem.solve(asia_net, tol=1e-12)
        (made, gap), = first
        evals[0] = 0
        with pytest.raises(NumericalError, match=f"stalled at gap {gap:.3g} "):
            problem.solve(asia_net, tol=1e-12, max_iters=made)
        assert evals[0] == made


class TestBudget:
    @pytest.mark.parametrize("which", ["sat", "car"])
    def test_every_budget_converges_or_stalls_within_it(
        self, which, asia_net, asia_data, monkeypatch
    ):
        # For each budget up to a converged solve's count, the solve
        # converges only at that count, and otherwise stalls having made
        # exactly the budget's evaluations, every level counted.
        fixed_point = likelihoods._fixed_point
        evals, budget = [0], [None]

        def counted(evaluate, x, tol, max_evals, name, support=None):
            def evaluate_counted(y, *level):
                evals[0] += 1
                return evaluate(y, *level)

            max_evals = max_evals if budget[0] is None else budget[0]
            return fixed_point(evaluate_counted, x, tol, max_evals, name, support)

        monkeypatch.setattr(likelihoods, "_fixed_point", counted)
        problem = SatProfileProblem(asia_net, asia_data)

        def solve():
            evals[0] = 0
            if which == "sat":
                return problem.solve(asia_net, tol=1e-12)[0]
            return car_normalizer(asia_net, asia_data)[0]

        value = solve()
        needed = evals[0]
        assert needed > 10
        for budget[0] in range(1, needed + 1):
            try:
                got = solve()
            except NumericalError as exc:
                assert "stalled at gap" in str(exc)
                assert budget[0] < needed and evals[0] == budget[0]
            else:
                assert budget[0] == needed and evals[0] == needed and got == value


@pytest.fixture(scope="module")
def lik_inputs():
    """The lik_reports inputs of perfbench: (AIM network, EM network,
    bound dataset) of the first `Sizes.lik_datasets` asia_rows runs."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    last = {}
    em_fit, aim_fit = em.em_fit, aim.aim_fit

    def keep(key, fit):
        def kept(*args, **kwargs):
            last[key] = fit(*args, **kwargs)
            if key == "em":
                last["data"] = args[1]
            return last[key]

        return kept

    sizes = workloads.Sizes()
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(em, "em_fit", keep("em", em_fit))
        patch.setattr(aim, "aim_fit", keep("aim", aim_fit))
        for cfg in workloads.asia_table(sizes)[: sizes.lik_datasets]:
            cli.run_experiment(cfg)
            out.append((last["aim"].network, last["em"].network, last["data"]))
    return out


class TestWarmStart:
    def test_warm_start_costs_no_more_than_a_cold_one(self, lik_inputs, monkeypatch):
        # AIM's sat solve warmed from the solution at EM's estimate.
        evals = [0]
        fixed_point = likelihoods._fixed_point

        def counted(evaluate, *args):
            def evaluate_counted(x, *level):
                evals[0] += 1
                return evaluate(x, *level)

            return fixed_point(evaluate_counted, *args)

        monkeypatch.setattr(likelihoods, "_fixed_point", counted)
        cold = warm = 0
        for net_aim, net_em, data in lik_inputs:
            problem = SatProfileProblem(net_aim, data)
            _, w_em, _, _ = problem.solve(net_em)
            evals[0] = 0
            cold_value = problem.solve(net_aim)[0]
            cold += evals[0]
            evals[0] = 0
            warm_value, _, _, gap = problem.solve(net_aim, init=w_em)
            warm += evals[0]
            assert gap <= SAT_TOL and abs(warm_value - cold_value) <= SAT_TOL
        assert warm <= cold
