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
from coarsebn.netformat import read_network
from coarsebn.network import Network, NodeSpec, sample, validate_network
from coarsebn.util import fixture_path
from conftest import per_name_coarsening_network


@pytest.fixture(scope="module")
def alarm_like_net():
    return read_network(fixture_path("alarm_like.net"))


def balanced_ternary(value, width):
    """Digits in {-1, 0, 1}, least significant first, that sum to value."""
    digits = []
    for _ in range(width):
        d = (value + 1) % 3 - 1
        digits.append(d)
        value = (value - d) // 3
    assert value == 0
    return digits


def wide_mechanism():
    """An augmented network whose hidden 4-state switch S sets 42 binary
    variables and their observation nodes, so each switch state gives one
    fixed observed row.  With a missing value as one more digit, rows 0
    and 1 differ by 2^64 in the mixed-radix key read first column first,
    and rows 2 and 3 in the key read last column first."""
    width = 42
    first = balanced_ternary(1 << 64, width)[::-1]  # most significant first
    last = balanced_ternary(1 << 64, width)
    digits = [[1 + d for d in first], [1] * width, [1 + d for d in last], [1] * width]
    names = [f"V{j:02d}" for j in range(width)]
    specs = [NodeSpec("S", ("a", "b", "c", "d"))]
    specs += [NodeSpec(v, ("s0", "s1"), ("S",)) for v in names]
    specs += [NodeSpec("obsS", ("true", "false"))]
    specs += [NodeSpec("obs" + v, ("true", "false"), ("S",)) for v in names]
    one_hot = np.eye(2)
    cpts = [np.full((1, 4), 0.25)]
    cpts += [one_hot[[int(row[j] == 2) for row in digits]] for j in range(width)]
    cpts += [np.array([[0.0, 1.0]])]
    cpts += [one_hot[[int(row[j] == 0) for row in digits]] for j in range(width)]
    return Network("wide", tuple(specs), tuple(cpts)), digits


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

    def test_mp_beyond_int64_draws_refused(self, basic_net):
        # rng.integers(0, mp + 1) draws up to mp = 2**63 - 1 and no further
        for text in ("9223372036854775808:0.5:0", "99999999999999999999:0.5:0"):
            with pytest.raises(FormatError, match=r"^mp must lie in \[0, 2\*\*63\)"):
                CoarseningSpec.parse(text)
        largest = CoarseningSpec.parse("9223372036854775807:0.5:0")
        aug = build_coarsening_network(basic_net, largest, np.random.default_rng(1))
        assert validate_network(aug) == []

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

    @pytest.mark.parametrize("fixture", ["asia.net", "basic.net", "alarm_like.net"])
    @pytest.mark.parametrize(
        "spec", ["0:0.1:0", "0:0.2:0.05", "2:0.1:0", "2:0.1:0.05", "8:0.3:0.01"]
    )
    def test_equals_per_name_oracle(self, fixture, spec):
        net = read_network(fixture_path(fixture))
        for seed in range(4):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            aug = build_coarsening_network(net, CoarseningSpec.parse(spec), rng)
            ref = per_name_coarsening_network(net, CoarseningSpec.parse(spec), ref_rng)
            assert aug.name == ref.name == net.name + "_coarsened"
            assert aug.nodes == ref.nodes
            assert aug.theta.tobytes() == ref.theta.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_observation_name_collision_refused(self):
        specs = (NodeSpec("A", ("t", "f")), NodeSpec("obsA", ("t", "f"), ("A",)))
        cpts = (np.array([[0.5, 0.5]]), np.array([[0.9, 0.1], [0.2, 0.8]]))
        net = Network("clash", specs, cpts)
        with pytest.raises(DataError, match="^node name 'obsA' collides with an original node$"):
            build_coarsening_network(net, CoarseningSpec(2, 0.1, 0.05), np.random.default_rng(0))


class TestGenerateDataset:
    @pytest.mark.parametrize("fixture", ["asia_net", "basic_net", "alarm_like_net"])
    @pytest.mark.parametrize("n", [0, 1, 300, 2000])
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
            assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws

    def test_wide_header_keeps_rows_apart(self):
        # 43 columns: 5 * 3^42 keys pass 2^63, and a key that wraps modulo
        # 2^64 in either reading order merges two of the three rows
        aug, digits = wide_mechanism()
        radix = [5] + [3] * 42
        for order in (1, -1):
            keys = np.zeros(4, dtype=np.int64)
            for column, r in list(zip(np.array([[0] + d for d in digits]).T, radix))[::order]:
                keys = keys * r + column  # wraps silently
            assert keys[0] == keys[1] if order == 1 else keys[2] == keys[3]
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        data, frac = generate_dataset(aug, 200, rng)
        ref, ref_frac = reference_dataset(aug, 200, ref_rng)
        assert data == ref and frac == ref_frac
        assert len(set(data.cases)) == 3  # rows 1 and 3 are one case
        assert rng.bit_generator.state == ref_rng.bit_generator.state

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
