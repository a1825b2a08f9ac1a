import numpy as np
import pytest

from coarsebn.coarsen import (
    OBS_PREFIX,
    CoarseningSpec,
    beta_from_mean_variance,
    build_coarsening_network,
    draw_missingness_probs,
    generate_dataset,
    original_variables,
)
from coarsebn.errors import DataError, FormatError
from coarsebn.data import Dataset
from coarsebn.network import sample, validate_network


def reference_dataset(augmented, n, rng):
    """generate_dataset cell by cell: one sample call, then each case's
    value or None read from the sampled matrix one cell at a time."""
    originals = original_variables(augmented)
    index = augmented.node_index
    pairs = [(index[v], index[OBS_PREFIX + v]) for v in originals]
    rows = sample(augmented, n, rng)
    cases = []
    missing = 0
    for r in range(n):
        pattern = []
        for vi, oi in pairs:
            if augmented.nodes[oi].states[rows[r, oi]] == "false":
                pattern.append(None)
                missing += 1
            else:
                pattern.append(augmented.nodes[vi].states[rows[r, vi]])
        cases.append((tuple(pattern), 1.0))
    frac = missing / (n * len(originals)) if n else 0.0
    return Dataset(tuple(originals), tuple(cases)), frac


class TestBetaFromMeanVariance:
    def test_example_values(self):
        # nu = 0.09/0.05 - 1 = 0.8
        alpha, beta = beta_from_mean_variance(0.1, 0.05)
        assert alpha == pytest.approx(0.08, abs=1e-15)
        assert beta == pytest.approx(0.72, abs=1e-15)

    def test_arcsine_case(self):
        alpha, beta = beta_from_mean_variance(0.5, 0.125)
        assert (alpha, beta) == pytest.approx((0.5, 0.5))

    def test_zero_variance_point_mass(self):
        assert beta_from_mean_variance(0.3, 0.0) is None
        draws = draw_missingness_probs(0.3, 0.0, 50, np.random.default_rng(0))
        assert np.all(draws == 0.3)

    def test_variance_too_large_rejected(self):
        with pytest.raises(FormatError):
            beta_from_mean_variance(0.1, 0.095)

    def test_moments_of_draws(self):
        rng = np.random.default_rng(4)
        draws = draw_missingness_probs(0.1, 0.05, 200_000, rng)
        assert abs(draws.mean() - 0.1) < 0.002
        assert abs(draws.var() - 0.05) < 0.002


class TestSpecParsing:
    def test_parse_and_print(self):
        spec = CoarseningSpec.parse("2:0.1:0.05")
        assert (spec.mp, spec.mu, spec.sigma) == (2, 0.1, 0.05)
        assert str(spec) == "2:0.1:0.05"

    def test_bad_strings(self):
        for text in ("2:0.1", "x:0.1:0.05", "2:0.1:0.2"):
            with pytest.raises(FormatError):
                CoarseningSpec.parse(text)

    @pytest.mark.parametrize(
        "text, field",
        [("2:nan:0.05", "mu"), ("2:inf:0.05", "mu"), ("2:0.1:nan", "sigma"), ("2:0.1:inf", "sigma")],
    )
    def test_non_finite_knobs_refused(self, text, field):
        with pytest.raises(FormatError, match=f"^{field} must"):
            CoarseningSpec.parse(text)


class TestBuildCoarseningNetwork:
    def test_mp0_single_parent(self, asia_net):
        aug = build_coarsening_network(
            asia_net, CoarseningSpec(0, 0.1, 0.05), np.random.default_rng(0)
        )
        for spec in aug.nodes:
            if spec.name.startswith("obs"):
                assert spec.parents == (spec.name[3:],)

    def test_sigma0_rows_constant(self, asia_net):
        aug = build_coarsening_network(
            asia_net, CoarseningSpec(2, 0.1, 0.0), np.random.default_rng(0)
        )
        for i, spec in enumerate(aug.nodes):
            if spec.name.startswith("obs"):
                assert np.all(aug.cpts[i][:, 1] == 0.1)

    def test_deterministic_and_acyclic(self, basic_net):
        a = build_coarsening_network(
            basic_net, CoarseningSpec(2, 0.1, 0.05), np.random.default_rng(5)
        )
        b = build_coarsening_network(
            basic_net, CoarseningSpec(2, 0.1, 0.05), np.random.default_rng(5)
        )
        assert a.nodes == b.nodes
        assert all(np.array_equal(x, y) for x, y in zip(a.cpts, b.cpts))
        assert validate_network(a) == []

    def test_original_cpts_untouched(self, asia_net):
        aug = build_coarsening_network(
            asia_net, CoarseningSpec(8, 0.2, 0.05), np.random.default_rng(1)
        )
        assert original_variables(aug) == [s.name for s in asia_net.nodes]
        for i, spec in enumerate(asia_net.nodes):
            j = aug.node_index[spec.name]
            assert aug.nodes[j].parents == spec.parents
            assert np.array_equal(aug.cpts[j], asia_net.cpts[i])

    def test_obs_parents_only_originals_and_earlier_obs(self, asia_net):
        rng = np.random.default_rng(11)
        aug = build_coarsening_network(asia_net, CoarseningSpec(8, 0.1, 0.05), rng)
        originals = [s.name for s in asia_net.nodes]
        seen_obs = []
        for spec in aug.nodes:
            if not spec.name.startswith("obs"):
                continue
            own = spec.name[3:]
            assert own in spec.parents
            for p in spec.parents:
                assert p in originals or p in seen_obs
            assert own not in [p for p in spec.parents if p != own]
            seen_obs.append(spec.name)


class TestGenerateDataset:
    @pytest.mark.parametrize("fixture", ["asia_net", "basic_net"])
    @pytest.mark.parametrize("n", [0, 1, 300])
    def test_matches_cell_by_cell_reference(self, request, fixture, n):
        net = request.getfixturevalue(fixture)
        for seed in range(4):
            aug = build_coarsening_network(
                net, CoarseningSpec(2, 0.3, 0.05), np.random.default_rng(seed)
            )
            rng, ref_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
            data, frac = generate_dataset(aug, n, rng)
            ref, ref_frac = reference_dataset(aug, n, ref_rng)
            assert data == ref
            assert frac == ref_frac
            assert rng.random() == ref_rng.random()  # the same draws were taken

    def test_mar_missing_fraction(self, asia_net):
        rng = np.random.default_rng(2)
        aug = build_coarsening_network(asia_net, CoarseningSpec(0, 0.1, 0.0), rng)
        data, frac = generate_dataset(aug, 100_000, rng)
        # binomial bound on 8e5 cells
        assert abs(frac - 0.1) < 0.004
        assert data.total_weight == 100_000

    def test_mu0_complete(self, basic_net):
        rng = np.random.default_rng(3)
        aug = build_coarsening_network(basic_net, CoarseningSpec(0, 0.0, 0.0), rng)
        data, frac = generate_dataset(aug, 500, rng)
        assert frac == 0.0
        assert all(None not in p for p, _ in data.cases)

    def test_mu1_all_missing(self, basic_net):
        rng = np.random.default_rng(3)
        aug = build_coarsening_network(basic_net, CoarseningSpec(0, 1.0, 0.0), rng)
        data, frac = generate_dataset(aug, 50, rng)
        assert frac == 1.0
        assert all(all(v is None for v in p) for p, _ in data.cases)

    def test_negative_n_rejected_and_zero_n_empty(self, basic_net):
        rng = np.random.default_rng(4)
        aug = build_coarsening_network(basic_net, CoarseningSpec(0, 0.2, 0.0), rng)
        with pytest.raises(DataError, match="n must be a non-negative integer"):
            generate_dataset(aug, -1, rng)
        data, frac = generate_dataset(aug, 0, rng)
        assert data.cases == ()
        assert frac == 0.0

    def test_realized_missingness_spans_widely(self, asia_net):
        # with mean 0.1 and variance 0.05 the per-mechanism missingness is
        # itself random; across 200 mechanisms the realized fractions reach
        # both a few percent and beyond twenty percent
        fracs = []
        for r in range(200):
            rng = np.random.default_rng(1000 + r)
            aug = build_coarsening_network(
                asia_net, CoarseningSpec(2, 0.1, 0.05), rng
            )
            _, frac = generate_dataset(aug, 300, rng)
            fracs.append(frac)
        assert min(fracs) <= 0.04
        assert max(fracs) >= 0.20
