import math

import numpy as np
import pytest

from conftest import (
    bind_pattern,
    completion_distribution,
    grouped,
    member_flat_indices,
    member_table,
    n_members,
    rows_of,
    unravel,
    with_tables,
)
from coarsebn import inference, likelihoods
from coarsebn.aim import AimOptions, aim_fit
from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from coarsebn.data import Completion, Dataset
from coarsebn.em import EmOptions, em_fit
from coarsebn.errors import BudgetError, DataError, NumericalError, ZeroSupportError
from coarsebn.likelihoods import (
    SatProfileProblem,
    car_normalizer,
    car_profile_loglik,
    exact_sat_profile_loglik,
    face_value_loglik,
    lr_statistic,
)
from coarsebn.network import Network, NodeSpec
from coarsebn.util import stable_child_seed

THETA1 = (0.5, 0.15 / 0.55)  # face-value optimum of the fixture data


def net_theta(basic_net, theta_a, theta_b):
    return with_tables(
        basic_net, [np.array([[theta_a, 1 - theta_a]]), np.array([[theta_b, 1 - theta_b]])]
    )


def one_var_net(p1):
    return Network(
        "w2", (NodeSpec("X", ("x1", "x2")),), (np.array([[p1, 1 - p1]]),)
    )


ONE_VAR_DATA = Dataset(("X",), ((("x1",), 0.5), ((None,), 0.5)))


def lambda_grid_sat(p1, points=201):
    """Oracle: brute-force mechanism-grid maximization, one-variable case.

    Patterns are {x1} (weight .5) and {x1,x2} (weight .5).  The only free
    row is x1's split t between the two patterns; x2 reports the big
    pattern with probability 1 at any optimum.
    """
    best = -math.inf
    for t in np.linspace(0.0, 1.0, points):
        terms = []
        for weight, prob in ((0.5, p1 * (1 - t)), (0.5, p1 * t + (1 - p1))):
            if prob <= 0:
                terms = None
                break
            terms.append(weight * math.log(prob))
        if terms is not None:
            best = max(best, sum(terms))
    return best


def reference_sat(problem, net, tol):
    """The plain multiplicative-update loop the sat solver accelerates, from
    the uniform start.  Returns (value, w, kl, gap, map evaluations).
    """
    table, m = problem.table, problem.bound.m
    p_loc = table.probs(net)
    p_slot = p_loc[table.loc]
    w = (m / np.add.reduceat(np.ones(table.n_slots), table.starts))[
        table.pat_of_slot
    ]
    for it in range(1, 200_001):
        p_c = np.bincount(table.loc, weights=w, minlength=len(table.uniq))
        pos = p_c > 0
        if np.any(pos & (p_loc <= 0)):
            kl = gap = math.inf
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                g_loc = np.where(pos, np.log(p_c) - np.log(p_loc), 0.0)
                g_slot = np.where(
                    p_slot > 0,
                    np.log(np.maximum(p_c[table.loc], 1e-300)) - np.log(p_slot),
                    np.inf,
                )
            kl = float(np.dot(p_c[pos], g_loc[pos]))
            gap = kl - float(np.dot(m, np.minimum.reduceat(g_slot, table.starts)))
            if gap <= tol:
                return -problem.bound.entropy - kl, w, kl, gap, it
        denom = p_c[table.loc]
        w = np.where(w > 0, w * np.where(denom > 0, p_slot / np.maximum(denom, 1e-300), 0.0), 0.0)
        w = w * (m / np.add.reduceat(w, table.starts))[table.pat_of_slot]
    raise AssertionError("reference sat loop did not converge")


def reference_car(net, data, tol=1e-10):
    """The plain iterative-scaling loop of the car normalizer, on the whole
    joint space.  Returns (log_f, map evaluations)."""
    weights = grouped(data)
    patterns = list(weights)
    m = np.array([weights[p] / data.total_weight for p in patterns])
    table = member_table(net, [bind_pattern(net, data.variables, p) for p in patterns])
    flat = table.uniq[table.loc]
    n = int(net.n_assignments)
    q = np.full(n, 1.0 / n)
    for it in range(1, 500_001):
        q_u = np.add.reduceat(q[flat], table.starts)
        ratio = m / q_u
        r = np.zeros(n)
        np.add.at(r, flat, ratio[table.pat_of_slot])
        if float(r.max()) - 1.0 <= tol / 2:
            lam = np.minimum(ratio / max(1.0, float(r.max())), 1.0)
            return float(np.dot(m, np.log(lam))), it
        q = q * r
        q /= q.sum()
    raise AssertionError("reference car loop did not converge")


def mask_certificate(problem, w):
    """certificate_completion selecting each pattern's slots by a mask over
    every slot, as it did before slicing them."""
    table, bound = problem.table, problem.bound
    per_pattern = {}
    for pi, pattern in enumerate(bound.patterns):
        sel = table.pat_of_slot == pi
        mass = w[sel] / bound.m[pi]
        states = table.uniq[table.loc[sel]]
        per_pattern[pattern] = {
            unravel(bound.net, int(r)): float(v) for r, v in zip(states, mass) if v > 0
        }
    cases = [bound.distinct[j] for j in bound.case_pattern.tolist()]
    return Completion(tuple(per_pattern.get(p, {}) for p in cases))


@pytest.fixture(scope="module")
def asia_data(asia_net):
    rng = np.random.default_rng(31)
    aug = build_coarsening_network(asia_net, CoarseningSpec(2, 0.1, 0.05), rng)
    data, _ = generate_dataset(aug, 1000, rng)
    return data


def count_bincount(monkeypatch):
    """Count the np.bincount calls, one per map evaluation of either solver."""
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(
        likelihoods.np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k)
    )
    return calls


def cycle_losses(monkeypatch):
    """The loss at each point a SQUAREM cycle hands on."""
    losses = []
    cycle = likelihoods._squarem_cycle

    def spy(*args):
        out = cycle(*args)
        losses.append(out[1].loss)
        return out

    monkeypatch.setattr(likelihoods, "_squarem_cycle", spy)
    return losses


class TestSolverAcceleration:
    @pytest.mark.parametrize("which", ["basic", "asia"])
    def test_sat_matches_plain_loop_in_fewer_evaluations(
        self, which, basic_net, basic_data, asia_net, asia_data, monkeypatch
    ):
        net, data = (basic_net, basic_data) if which == "basic" else (asia_net, asia_data)
        for tol in (1e-8, 1e-11):
            problem = SatProfileProblem(net, data)
            ref_value, _, _, ref_gap, ref_evals = reference_sat(problem, net, tol)
            calls = count_bincount(monkeypatch)
            value, w, kl, gap = problem.solve(net, tol=tol)
            monkeypatch.undo()
            assert gap <= tol and ref_gap <= tol
            assert abs(value - ref_value) <= tol
            assert value == -problem.bound.entropy - kl
            assert np.allclose(np.add.reduceat(w, problem.table.starts), problem.bound.m, rtol=1e-12)
            assert len(calls) < ref_evals
        if which == "asia":
            assert 3 * len(calls) < ref_evals

    @pytest.mark.parametrize("which", ["basic", "asia"])
    def test_car_matches_plain_loop_in_fewer_evaluations(
        self, which, basic_net, basic_data, asia_net, asia_data, monkeypatch
    ):
        net, data = (basic_net, basic_data) if which == "basic" else (asia_net, asia_data)
        for tol in (1e-8, 1e-10):
            ref_log_f, ref_evals = reference_car(net, data, tol)
            calls = count_bincount(monkeypatch)
            log_f, _ = car_normalizer(net, data, tol)
            monkeypatch.undo()
            assert abs(log_f - ref_log_f) <= tol
            assert len(calls) < ref_evals

    def test_loss_never_rises_from_cycle_to_cycle(
        self, asia_net, asia_data, monkeypatch
    ):
        # A cycle hands on a point no worse than where it started; only the
        # point that ends the solve may be a rejected extrapolation, whose
        # own gap certifies it within tol.
        losses = cycle_losses(monkeypatch)
        problem = SatProfileProblem(asia_net, asia_data)
        _, _, kl, _ = problem.solve(asia_net, tol=1e-12)
        assert len(losses) > 10 and losses[-1] == kl
        assert all(b <= a for a, b in zip(losses[:-1], losses[1:-1]))
        assert losses[-1] <= losses[-2] + 1e-12
        losses.clear()
        log_f, _ = car_normalizer(asia_net, asia_data)
        assert len(losses) > 10
        assert all(b <= a for a, b in zip(losses[:-1], losses[1:-1]))
        assert losses[-1] <= losses[-2] + 1e-10

    def test_warm_start_with_zeros_on_feasible_slots(self, asia_net, asia_data):
        problem = SatProfileProblem(asia_net, asia_data)
        cold, w, _, _ = problem.solve(asia_net, tol=1e-10)
        p_slot = problem.table.probs(asia_net)[problem.table.loc]
        init = w.copy()
        init[(p_slot > 0) & (np.arange(problem.table.n_slots) % 2 == 0)] = 0.0
        warm, w2, _, gap = problem.solve(asia_net, tol=1e-10, init=init)
        assert gap <= 1e-10
        assert warm == pytest.approx(cold, abs=1e-10)
        assert np.all(w2[p_slot > 0] > 0)
        assert np.all(init[0::2] == 0.0)  # the caller's array is not written to

    def test_too_few_evaluations_raise(self, asia_net, asia_data):
        problem = SatProfileProblem(asia_net, asia_data)
        with pytest.raises(NumericalError, match="stalled at gap"):
            problem.solve(asia_net, tol=1e-12, max_iters=6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_init_refused(self, basic_net, basic_data, bad):
        problem = SatProfileProblem(basic_net, basic_data)
        init = np.ones(problem.table.n_slots)
        init[-1] = bad
        with pytest.raises(DataError, match="non-finite"):
            problem.solve(basic_net, init=init)

    def test_nan_gap_is_not_convergence(self):
        def evaluate(x):
            return likelihoods._Point(0.0, math.nan, x)

        with pytest.raises(NumericalError, match="NaN gap"):
            likelihoods._fixed_point(evaluate, np.ones(3), 1e-8, 100, "solver")

    def test_zero_weight_pattern_changes_nothing(self, basic_net, basic_data):
        extra = Dataset(basic_data.variables, basic_data.cases + ((("f", None), 0.0),))
        sat = exact_sat_profile_loglik(basic_net, basic_data, tol=1e-12)
        sat0 = exact_sat_profile_loglik(basic_net, extra, tol=1e-12)
        assert sat0.per_case_average == sat.per_case_average
        assert sat0.certificate.per_case[-1] == {}
        log_f, lam = car_normalizer(basic_net, basic_data)
        log_f0, lam0 = car_normalizer(basic_net, extra)
        assert log_f0 == log_f
        assert lam0 == {**lam, ("f", None): 0.0}


class TestFaceValue:
    def test_theta1_value_by_formula(self, basic_net, basic_data):
        net = net_theta(basic_net, *THETA1)
        # independent oracle: 0.45 log .5 + 0.15 log(.5*theta_b) + 0.4 log(.5*(1-theta_b))
        expect = (
            0.45 * math.log(0.5)
            + 0.15 * math.log(0.5 * THETA1[1])
            + 0.4 * math.log(0.5 * (1 - THETA1[1]))
        )
        rep = face_value_loglik(net, basic_data)
        assert rep.per_case_average == pytest.approx(expect, abs=1e-12)
        assert rep.per_case_average == pytest.approx(-1.0154, abs=5e-4)
        assert rep.total == pytest.approx(rep.per_case_average * 1.0, rel=1e-9)

    def test_complete_dataset_equals_complete_loglik(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "t"), 2.0), (("f", "f"), 3.0)))
        rep = face_value_loglik(basic_net, d)
        expect = 2 * math.log(0.1) + 3 * math.log(0.4)
        assert rep.total == pytest.approx(expect, rel=1e-12)

    def test_zero_probability_gives_minus_inf(self, basic_net, basic_data):
        net = net_theta(basic_net, 1.0, 0.2)  # kills every A=f pattern
        rep = face_value_loglik(net, basic_data)
        assert rep.per_case_average == -math.inf

    def test_member_table_matches_elimination(self, asia_net, monkeypatch):
        rng = np.random.default_rng(12)
        aug = build_coarsening_network(asia_net, CoarseningSpec(2, 0.2, 0.05), rng)
        data, _ = generate_dataset(aug, 400, rng)
        # asia=yes is impossible under `dead`; a zero-weight case of it is skipped
        dead = with_tables(asia_net, [np.array([[0.0, 1.0]])] + list(asia_net.cpts[1:]))
        col = data.variables.index("asia")
        kept = tuple(c for c in data.cases if c[0][col] != "yes")
        impossible = tuple("yes" if v == "asia" else None for v in data.variables)
        cases = [
            (asia_net, data),
            (dead, Dataset(data.variables, kept)),
            (dead, Dataset(data.variables, kept + ((impossible, 0.0),))),
            (dead, Dataset(data.variables, kept + ((impossible, 1.0),))),
        ]
        passes = []
        collect = inference.CliqueTree._collect
        monkeypatch.setattr(
            inference.CliqueTree,
            "_collect",
            lambda self, net, bounds: passes.append(len(bounds)) or collect(self, net, bounds),
        )
        table = [face_value_loglik(net, d).total for net, d in cases]
        assert passes == []  # every asia pattern is enumerable
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", 0)
        ve = [face_value_loglik(net, d).total for net, d in cases]
        # one collect pass per dataset, over its positive-weight patterns
        positive = [sum(w > 0 for w in grouped(d).values()) for _, d in cases]
        assert passes == positive
        for a, b in zip(table[:3], ve[:3]):
            assert math.isfinite(a)
            assert a == pytest.approx(b, rel=1e-12)
        assert table[2] == table[1] and ve[2] == ve[1]
        assert table[3] == ve[3] == -math.inf


class TestSatProfile:
    def test_example_value_and_certificate(self, basic_net, basic_data):
        rep = exact_sat_profile_loglik(basic_net, basic_data, tol=1e-10)
        assert rep.per_case_average == pytest.approx(-1.1059, abs=5e-4)
        cert = rep.certificate.per_case[0]
        assert cert[(0, 0)] == pytest.approx(1.0 / 9.0, abs=1e-5)

    def test_identity_minus_entropy_minus_kl(self, basic_net, basic_data):
        # value must equal -H(m) - KL(P_cert || P_theta), recomputed here
        for theta_b in (0.2, 0.35, 0.6):
            net = net_theta(basic_net, 0.5, theta_b)
            rep = exact_sat_profile_loglik(net, basic_data, tol=1e-12)
            p_c = completion_distribution(rep.certificate, basic_data)
            table = {
                (i, j): net.cpts[0][0, i] * net.cpts[1][0, j]
                for i in range(2)
                for j in range(2)
            }
            kl = sum(
                p * (math.log(p) - math.log(table[x]))
                for x, p in p_c.items()
                if p > 0
            )
            h = inference.BoundDataset(net, basic_data).entropy
            assert rep.per_case_average == pytest.approx(-h - kl, abs=1e-9)

    def test_complete_dataset_equals_face_value(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "t"), 1.0), (("f", "f"), 4.0)))
        sat = exact_sat_profile_loglik(basic_net, d)
        fv = face_value_loglik(basic_net, d)
        assert sat.per_case_average == pytest.approx(fv.per_case_average, abs=1e-12)

    def test_matches_lambda_grid_oracle(self):
        for p1 in np.linspace(0.0, 1.0, 101):
            expect = lambda_grid_sat(float(p1))
            rep = exact_sat_profile_loglik(one_var_net(float(p1)), ONE_VAR_DATA)
            if math.isinf(expect):
                assert math.isinf(rep.per_case_average)
            else:
                assert rep.per_case_average == pytest.approx(expect, abs=1e-3)

    def test_restarts_agree(self, basic_net, basic_data):
        problem = SatProfileProblem(basic_net, basic_data)
        values = []
        for r in range(5):
            rng = np.random.default_rng(100 + r)
            init = rng.random(problem.table.n_slots)
            value, _, _, _ = problem.solve(basic_net, tol=1e-12, init=init)
            values.append(value)
        assert max(values) - min(values) < 1e-8

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_negative_or_nan_tol_rejected(self, basic_net, basic_data, tol):
        problem = SatProfileProblem(basic_net, basic_data)
        with pytest.raises(DataError, match="tol must be a non-negative number"):
            problem.solve(basic_net, tol=tol)

    def test_zero_tol_allowed(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "t"), 1.0), (("f", "f"), 4.0)))
        _, _, _, gap = SatProfileProblem(basic_net, d).solve(basic_net, tol=0.0)
        assert gap <= 0.0

    def test_ambiguity_budget(self):
        k = 17  # one fully hidden case has 2^17 > 1e5 completions
        net = Network(
            "wide",
            tuple(NodeSpec(f"v{i}", ("a", "b")) for i in range(k)),
            tuple(np.array([[0.5, 0.5]]) for _ in range(k)),
        )
        data = Dataset(
            tuple(f"v{i}" for i in range(k)),
            (((None,) * k, 1.0),),
        )
        with pytest.raises(BudgetError):
            exact_sat_profile_loglik(net, data)

    def test_impossible_pattern_gives_minus_inf(self, basic_net, basic_data):
        net = net_theta(basic_net, 1.0, 0.2)
        rep = exact_sat_profile_loglik(net, basic_data)
        assert rep.per_case_average == -math.inf

    def test_tiny_cpt_entries_do_not_underflow(self, asia_net):
        # The data `experiment` draws for asia, seed 2024, run 0; either's
        # four structural zeros become eps.  At eps = 1e-160 the update's
        # w * p underflowed and the solver stalled at gap 37.4.
        rng = np.random.default_rng(stable_child_seed(2024, 0))
        mech = build_coarsening_network(asia_net, CoarseningSpec.parse("2:0.1:0.05"), rng)
        data, _ = generate_dataset(mech, 1000, rng)
        i = asia_net.node_index["either"]
        values = []
        for eps in (1e-150, 1e-160, 1e-200):
            cpts = list(asia_net.cpts)
            t = np.where(cpts[i] == 0, eps, cpts[i])
            cpts[i] = t / t.sum(axis=1, keepdims=True)
            net = with_tables(asia_net, cpts)
            value, _, _, gap = SatProfileProblem(net, data).solve(net)
            assert gap <= 1e-8
            values.append(value)
        assert values[1] == pytest.approx(values[0], abs=1e-8)
        assert values[2] == pytest.approx(values[0], abs=1e-8)

    def test_certificate_equals_per_pattern_mask(self, asia_net, asia_data):
        problem = SatProfileProblem(asia_net, asia_data)
        _, w, _, _ = problem.solve(asia_net, tol=1e-6)
        expect = mask_certificate(problem, w)
        assert problem.certificate_completion(w) == expect
        assert sum(len(d) > 1 for d in expect.per_case) > 0


class TestCarNormalizer:
    def test_example_lambdas_and_value(self, basic_net, basic_data):
        log_f, lam = car_normalizer(basic_net, basic_data)
        # only the state (t,t) constraint binds; its unit mass splits 0.45:0.05
        expect = 0.45 * math.log(0.9) + 0.05 * math.log(0.1)
        assert log_f == pytest.approx(expect, abs=1e-8)
        assert lam[("t", None)] == pytest.approx(0.9, abs=1e-7)
        assert lam[("t", "t")] == pytest.approx(0.1, abs=1e-7)
        assert lam[("f", "t")] == pytest.approx(1.0, abs=1e-7)
        assert lam[("f", "f")] == pytest.approx(1.0, abs=1e-7)

    def test_complete_dataset_zero(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "t"), 1.0), (("f", "f"), 1.0)))
        log_f, lam = car_normalizer(basic_net, d)
        assert log_f == pytest.approx(0.0, abs=1e-10)
        assert all(l == pytest.approx(1.0, abs=1e-9) for l in lam.values())

    def test_disjoint_patterns_zero(self, basic_net):
        d = Dataset(("A", "B"), ((("t", None), 1.0), (("f", None), 3.0)))
        log_f, _ = car_normalizer(basic_net, d)
        assert log_f == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_negative_or_nan_tol_rejected(self, basic_net, basic_data, monkeypatch, tol):
        calls = count_bincount(monkeypatch)
        with pytest.raises(DataError, match="tol must be a non-negative number"):
            car_normalizer(basic_net, basic_data, tol)
        assert calls == []

    def test_certificate_feasible(self, basic_net, basic_data):
        _, lam = car_normalizer(basic_net, basic_data)
        load = np.zeros(basic_net.n_assignments)
        for pattern, l in lam.items():
            bound = bind_pattern(basic_net, basic_data.variables, pattern)
            load[member_flat_indices(basic_net, bound)] += l
        assert np.all(load <= 1.0 + 1e-9)


class TestCarProfile:
    def test_reference_value_at_theta1(self, basic_net, basic_data):
        net = net_theta(basic_net, *THETA1)
        rep = car_profile_loglik(net, basic_data)
        assert rep.per_case_average == pytest.approx(-1.1779, abs=5e-4)

    def test_complete_dataset_equals_face_value(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "f"), 2.0), (("f", "f"), 1.0)))
        car = car_profile_loglik(basic_net, d)
        fv = face_value_loglik(basic_net, d)
        assert car.per_case_average == pytest.approx(fv.per_case_average, abs=1e-10)

    def test_dominance_chain(self, basic_net, basic_data):
        # car = fv + log f <= sat <= fv, for every theta
        rng = np.random.default_rng(8)
        log_f, _ = car_normalizer(basic_net, basic_data)
        for _ in range(10):
            a, b = rng.random(), rng.random()
            net = net_theta(basic_net, a, b)
            sat = exact_sat_profile_loglik(net, basic_data, tol=1e-10)
            car = car_profile_loglik(net, basic_data)
            fv = face_value_loglik(net, basic_data)
            assert car.per_case_average <= sat.per_case_average + 1e-9
            assert sat.per_case_average <= fv.per_case_average + 1e-9
            assert (
                sat.per_case_average
                >= fv.per_case_average + log_f - 1e-9
            )


class TestLrStatistic:
    def test_example_gap(self, basic_net, basic_data):
        theta0 = basic_net
        theta1 = net_theta(basic_net, *THETA1)
        stat = lr_statistic(theta0, theta1, basic_data)
        # derived from the two profile values
        sat = exact_sat_profile_loglik(theta0, basic_data).per_case_average
        car = car_profile_loglik(theta1, basic_data).per_case_average
        assert stat == pytest.approx(sat - car, abs=1e-9)
        assert stat == pytest.approx(0.0720, abs=1e-3)

    def test_complete_same_net_zero(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "t"), 1.0), (("f", "f"), 1.0)))
        assert lr_statistic(basic_net, basic_net, d) == pytest.approx(0.0, abs=1e-12)

    def test_non_optimal_candidates_flagged(self, basic_net, basic_data):
        bad_sat = net_theta(basic_net, 0.9, 0.9)
        good_car = net_theta(basic_net, *THETA1)
        with pytest.raises(NumericalError):
            lr_statistic(bad_sat, good_car, basic_data)

    @pytest.mark.parametrize(
        "zero_sat, zero_car, named",
        [(True, True, "sat and car candidates"), (False, True, "car candidate"),
         (True, False, "sat candidate")],
    )
    def test_zero_probability_candidate_refused(self, basic_net, zero_sat, zero_car, named):
        # P(A=f) = 0 gives the case (f, ?) probability zero
        zero, half = net_theta(basic_net, 1.0, 0.5), net_theta(basic_net, 0.5, 0.5)
        d = Dataset(("A", "B"), ((("f", None), 1.0), (("t", "t"), 2.0)))
        assert face_value_loglik(zero, d).per_case_average == -np.inf
        with pytest.raises(ZeroSupportError, match=f"probability zero under the {named} "):
            lr_statistic(zero if zero_sat else half, zero if zero_car else half, d)

    def test_mar_data_small_statistic(self, basic_net):
        # when missingness ignores the values both optima nearly coincide
        from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
        from coarsebn.em import EmOptions, em_fit

        rng = np.random.default_rng(77)
        aug = build_coarsening_network(basic_net, CoarseningSpec(0, 0.3, 0.0), rng)
        data, _ = generate_dataset(aug, 10_000, rng)
        em = em_fit(basic_net, data, EmOptions(tol=1e-9))
        from coarsebn.aim import AimOptions, aim_fit

        aim = aim_fit(basic_net, em.network, data, AimOptions(z=10, seed=0))
        stat = lr_statistic(aim.network, em.network, data)
        assert stat < 0.02


class ParentBound:
    """The pattern structure as each consumer derived it for itself before a
    dataset was bound once: grouped and bound on every construction, m as
    each positive pattern's share of the total, H(m) over every pattern's
    share, and a fresh member table for every request."""

    def __init__(self, net, data):
        weights = grouped(data)
        live = {p: w for p, w in weights.items() if w > 0}
        self.net, self.data = net, data
        self.distinct = list(weights)
        self.distinct_rows = rows_of([bind_pattern(net, data.variables, p) for p in weights])
        self.patterns = list(live)
        self.weights = np.array(list(live.values()))
        self._bounds = [bind_pattern(net, data.variables, p) for p in live]
        self.rows = rows_of(self._bounds)
        self.sizes = [n_members(net, b) for b in self._bounds]
        self.total = data.total_weight
        self.m = np.array(list(live.values())) / data.total_weight
        shares = [w / data.total_weight for w in weights.values()]
        self.entropy = -math.fsum(f * math.log(f) for f in shares if f > 0)

    def member_table(self, budget):
        return member_table(self.net, self._bounds)

    @property
    def case_pattern(self):
        ids = {p: j for j, p in enumerate(self.distinct)}
        return np.array([ids[p] for p, _ in self.data.cases], dtype=np.int64)

    @property
    def case_weights(self):
        return np.array([w for _, w in self.data.cases])

    @property
    def table(self):
        return member_table(self.net, self._bounds)


def reference_lr(net_sat, net_car, data):
    """lr_statistic as three tables: the sat problem, the face value and the
    car normalizer each bind the dataset and build their own table."""
    sat, _, _, _ = SatProfileProblem(net_sat, data).solve(net_sat)
    car = car_profile_loglik(net_car, data).per_case_average
    return max(sat - car, 0.0)


def report_signature(rep):
    cert = rep.certificate
    if isinstance(cert, Completion):
        cert = cert.per_case
    return rep.kind, rep.per_case_average, rep.total, cert


def fit_signature(res):
    tables = [res.network.cpts, res.smoothed.cpts, res.row_counts]
    return (
        res.trace,
        [[t.tobytes() for t in ts] for ts in tables],
        res.converged,
        getattr(res, "score", None),
    )


@pytest.fixture(scope="module")
def asia_lr(asia_net):
    """An asia dataset with its AIM (sat) and EM (car) candidates, as the
    `lik --which lr` benchmark inputs are made."""
    data = generate_dataset(
        build_coarsening_network(
            asia_net, CoarseningSpec(2, 0.1, 0.05), np.random.default_rng(2024)
        ),
        1000,
        np.random.default_rng(2025),
    )[0]
    em = em_fit(asia_net, data)
    aim = aim_fit(asia_net, em.network, data, AimOptions(seed=1))
    return asia_net, aim.network, em.network, data


def lr_inputs(which, basic_net, basic_data, asia_lr):
    """(structure, sat candidate, car candidate, dataset)."""
    if which == "basic":
        return basic_net, basic_net, net_theta(basic_net, *THETA1), basic_data
    return asia_lr


def three_node_net(parents):
    """Binary A, B, C with the given parent names per node."""
    nodes = tuple(NodeSpec(n, ("t", "f"), parents.get(n, ())) for n in "ABC")
    cpts = tuple(
        np.tile([[0.3, 0.7]], (2 ** len(spec.parents), 1)) for spec in nodes
    )
    return Network("abc", nodes, cpts)


THREE_NODE_DATA = Dataset(
    ("A", "B", "C"),
    ((("t", None, "t"), 3.0), ((None, "f", None), 2.0), (("f", "t", "f"), 1.0)),
)


class TestBoundOnce:
    """lr_statistic groups and binds the dataset once and reads one member
    table; every value stays what the per-consumer derivation gave."""

    def test_fields_equal_parent_derivation(
        self, basic_net, basic_data, asia_net, asia_data
    ):
        zero = Dataset(
            basic_data.variables, basic_data.cases[:2] + ((("f", None), 0.0),)
        )
        for net, data in [
            (basic_net, basic_data), (basic_net, zero), (asia_net, asia_data)
        ]:
            got, want = inference.BoundDataset(net, data), ParentBound(net, data)
            for name in ["distinct", "patterns", "sizes", "total", "entropy"]:
                assert getattr(got, name) == getattr(want, name)
            for name in ["distinct_rows", "rows"]:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tolist() == b.tolist()
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.m.tobytes() == want.m.tobytes()
            assert got.case_pattern.dtype == np.int64
            assert got.case_pattern.tobytes() == want.case_pattern.tobytes()
            assert got.case_weights.tobytes() == want.case_weights.tobytes()

    @pytest.mark.parametrize("which", ["basic", "asia"])
    def test_results_equal_parent_derivation(
        self, which, basic_net, basic_data, asia_lr, monkeypatch
    ):
        structure, net_sat, net_car, data = lr_inputs(
            which, basic_net, basic_data, asia_lr
        )
        int_data = Dataset(
            data.variables, tuple((p, float(round(w * 20))) for p, w in data.cases)
        )

        def results(lr):
            return (
                lr(net_sat, net_car, data),
                report_signature(face_value_loglik(net_car, data)),
                report_signature(car_profile_loglik(net_car, data)),
                report_signature(exact_sat_profile_loglik(net_sat, data)),
                car_normalizer(net_car, data),
                fit_signature(em_fit(structure, data, EmOptions(max_iters=30))),
                fit_signature(
                    aim_fit(structure, net_car, int_data, AimOptions(z=2, seed=4, max_iters=4))
                ),
            )

        once = results(lr_statistic)
        built = []

        class Counted(ParentBound):
            def __init__(self, net, data):
                built.append(1)
                super().__init__(net, data)

        # inference.bind builds every fitter's and report's binding
        for module in (inference, likelihoods):
            monkeypatch.setattr(module, "BoundDataset", Counted)
        assert results(reference_lr) == once
        assert built

    def test_one_grouping_binding_and_table_per_lr(self, asia_lr, monkeypatch):
        _, net_sat, net_car, data = asia_lr
        calls = {"grouping": 0, "members": 0, "tables": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        binds = []
        bind = inference._bind

        def binding(net, variables, patterns):
            binds.append(list(patterns))
            return bind(net, variables, patterns)

        # the cases are grouped only where a dataset is bound
        monkeypatch.setattr(
            inference.BoundDataset,
            "__init__",
            counted("grouping", inference.BoundDataset.__init__),
        )
        monkeypatch.setattr(inference, "_bind", binding)
        monkeypatch.setattr(
            inference, "member_indices", counted("members", inference.member_indices)
        )
        monkeypatch.setattr(
            inference.MemberTable,
            "__init__",
            counted("tables", inference.MemberTable.__init__),
        )
        lr_statistic(net_sat, net_car, data)
        # one binding of every pattern, and one member pass for them all
        assert binds == [list(grouped(data))]
        assert calls == {"grouping": 1, "members": 1, "tables": 1}

    @pytest.mark.parametrize("which", ["basic", "asia"])
    def test_bound_dataset_gives_the_plain_datasets_value(
        self, which, basic_net, basic_data, asia_lr
    ):
        structure, net_sat, net_car, data = lr_inputs(which, basic_net, basic_data, asia_lr)
        bound = inference.BoundDataset(structure, data)
        assert lr_statistic(net_sat, net_car, bound) == lr_statistic(net_sat, net_car, data)

    def test_other_parents_refused(self):
        c_of_a = three_node_net({"C": ("A",)})
        c_of_b = three_node_net({"C": ("B",)})
        problem = SatProfileProblem(c_of_a, THREE_NODE_DATA)
        with pytest.raises(DataError, match="structure"):
            problem.solve(c_of_b)
        with pytest.raises(DataError, match="structure"):
            lr_statistic(c_of_a, c_of_b, THREE_NODE_DATA)
        alone = exact_sat_profile_loglik(c_of_b, THREE_NODE_DATA).per_case_average
        assert SatProfileProblem(c_of_b, THREE_NODE_DATA).solve(c_of_b)[0] == alone

    def test_reversed_edge_refused(self):
        a_to_b = three_node_net({"B": ("A",)})
        b_to_a = three_node_net({"A": ("B",)})
        with pytest.raises(DataError, match="structure"):
            SatProfileProblem(a_to_b, THREE_NODE_DATA).solve(b_to_a)
        with pytest.raises(DataError, match="structure"):
            lr_statistic(a_to_b, b_to_a, THREE_NODE_DATA)


def binary_chain_net(k, seed):
    """Binary v0 -> v1 -> ... -> v{k-1} with random CPT rows."""
    nodes = tuple(
        NodeSpec(f"v{i}", ("a", "b"), (f"v{i - 1}",) if i else ()) for i in range(k)
    )
    rng = np.random.default_rng(seed)
    cpts = []
    for i in range(k):
        rows = rng.uniform(0.1, 1.0, size=(2 if i else 1, 2))
        cpts.append(rows / rows.sum(axis=1, keepdims=True))
    return Network(f"chain{k}", nodes, tuple(cpts))


class TestOneBudget:
    """One member-table budget: the fitters, the face value and the sat
    profile read `DENSE_TABLE_BUDGET`, and each report takes a dataset or
    one already bound."""

    def test_mid_range_dataset_takes_the_member_table(self, monkeypatch):
        net = binary_chain_net(17, seed=5)
        full = ("a", "b") * 8 + ("a",)
        cases = (
            ((None,) * 16 + ("b",), 2.0),  # 2^16 members
            (full[:7] + (None,) * 10, 3.0),  # 2^10 members
            (full, 1.0),
        )
        data = Dataset(tuple(s.name for s in net.nodes), cases)
        bound = inference.BoundDataset(net, data)
        assert sum(bound.sizes) == (1 << 16) + (1 << 10) + 1
        # 16 binary nodes' states fit the budget, 17 do not (perfbench's large_dag)
        assert sum(bound.sizes) <= inference.DENSE_TABLE_BUDGET < 1 << 17
        assert bound.table.on_tree == []  # every pattern enumerated
        calls = []
        tree = inference.CliqueTree
        for name in ("calibrate", "_collect", "__init__"):
            fn = getattr(tree, name)
            monkeypatch.setattr(
                tree, name, lambda *a, fn=fn, **k: calls.append(fn) or fn(*a, **k)
            )
        res = em_fit(net, data, EmOptions(max_iters=3))
        assert len(res.trace) == 3 and math.isfinite(res.loglik_per_unit)
        assert lr_statistic(res.network, res.network, data) >= 0.0
        assert calls == []

    def test_lr_reaches_the_reports_by_module_name(self, basic_net, basic_data, monkeypatch):
        seen = []

        def counted(name):
            fn = getattr(likelihoods, name)

            def wrapper(net, data, *args):
                seen.append((name, type(data)))
                return fn(net, data, *args)

            monkeypatch.setattr(likelihoods, name, wrapper)

        counted("face_value_loglik")
        counted("car_normalizer")
        lr_statistic(basic_net, net_theta(basic_net, *THETA1), basic_data)
        bound = inference.BoundDataset
        assert seen == [("face_value_loglik", bound), ("car_normalizer", bound)]

    @pytest.mark.parametrize(
        "budget", [inference.DENSE_TABLE_BUDGET, 0], ids=["table", "tree"]
    )
    def test_bound_dataset_of_other_structure_refused(self, budget, monkeypatch):
        monkeypatch.setattr(inference, "DENSE_TABLE_BUDGET", budget)
        c_of_a = three_node_net({"C": ("A",)})
        c_of_b = three_node_net({"C": ("B",)})
        for report in (face_value_loglik, car_profile_loglik):
            with pytest.raises(DataError, match="structure"):
                report(c_of_b, inference.BoundDataset(c_of_a, THREE_NODE_DATA))

    def test_bound_and_unbound_reports_agree(self, basic_net, basic_data):
        net = net_theta(basic_net, *THETA1)
        bound = inference.BoundDataset(net, basic_data)
        for report in (face_value_loglik, car_profile_loglik, exact_sat_profile_loglik):
            assert report_signature(report(net, bound)) == report_signature(
                report(net, basic_data)
            )
        assert car_normalizer(net, bound) == car_normalizer(net, basic_data)
