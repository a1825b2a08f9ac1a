import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bind_pattern,
    compatible_assignments,
    completion_distribution,
    dataset_grouping,
    grouped,
    member_flat_indices,
    ravel,
    tuple_bounds,
)
from coarsebn.data import (
    Completion,
    Dataset,
    format_dataset_csv,
    parse_dataset_csv,
    write_dataset,
)
from coarsebn.errors import CoarseBNError, DataError, FormatError
from coarsebn.inference import BoundDataset
from coarsebn.network import Network, NodeSpec


def check_completion(c, data, net):
    """Oracle: diagnostics for support compatibility and per-case
    normalization of a completion."""
    diags = []
    if len(c.per_case) != len(data.cases):
        return [f"{len(c.per_case)} case distributions for {len(data.cases)} cases"]
    for i, ((pattern, _), dist) in enumerate(zip(data.cases, c.per_case)):
        bound = bind_pattern(net, data.variables, pattern)
        s = math.fsum(dist.values())
        if abs(s - 1.0) > 1e-12:
            diags.append(f"case {i}: distribution sums to {s!r}")
        for x, p in dist.items():
            if p < 0:
                diags.append(f"case {i}: negative mass on {x}")
            for coord, v in zip(x, bound):
                if v is not None and coord != v:
                    diags.append(f"case {i}: support point {x} conflicts with case")
                    break
    return diags


class CoarseningModel:
    """Missingness parameters lambda[x][pattern], one row per state that some
    completion supports; any other state reports itself."""

    def __init__(self, rows):
        self.rows = rows

    def row(self, x):
        return dict(self.rows.get(x, {}))

    def check(self):
        diags = []
        for x, lams in self.rows.items():
            s = math.fsum(lams.values())
            if abs(s - 1.0) > 1e-9:
                diags.append(f"state {x}: lambda mass {s!r} != 1")
            diags += [
                f"state {x}: lambda {l!r} outside [0,1]"
                for l in lams.values() if l < -1e-15 or l > 1 + 1e-12
            ]
        return diags


def recover_coarsening(c, data, net):
    """Invert a completion into the mechanism that makes it self-consistent:
    lambda[x][U] = m(U) * c(U)(x) / P_c(x), with m(U) the pattern's share of
    the weight and c(U) its weight-averaged case completion.  Each state's
    leftover mass goes to its own fully observed pattern."""
    p_c = completion_distribution(c, data)
    total = data.total_weight
    lam = {}
    for (pattern, w), dist in zip(data.cases, c.per_case):
        for x, p in dist.items():
            if p > 0:
                row = lam.setdefault(x, {})
                row[pattern] = row.get(pattern, 0.0) + w * p / total / p_c[x]
    for x, row in lam.items():
        residual = 1.0 - math.fsum(row.values())
        if residual > 1e-12:
            own = tuple(
                net.nodes[net.node_index[v]].states[x[net.node_index[v]]]
                for v in data.variables
            )
            row[own] = row.get(own, 0.0) + residual
    return CoarseningModel(lam)


def basic_completion(alpha):
    """Completion of the four-pattern dataset splitting U_1 as (alpha, 1-alpha)
    between (t,t) and (t,f)."""
    return Completion(
        (
            {(0, 0): alpha, (0, 1): 1.0 - alpha},
            {(0, 0): 1.0},
            {(1, 0): 1.0},
            {(1, 1): 1.0},
        )
    )


def pattern_shares(bound):
    return dict(zip(bound.patterns, bound.m.tolist()))


ONE_NODE = Network("x", (NodeSpec("X", ("a", "b")),), (np.array([[0.5, 0.5]]),))


class TestPatternDistribution:
    """m and H(m) of a dataset bound to a network."""

    def test_fixture_frequencies_and_entropy(self, basic_net, basic_data):
        bound = BoundDataset(basic_net, basic_data)
        freqs = pattern_shares(bound)
        assert freqs[("t", None)] == pytest.approx(0.45, abs=1e-15)
        assert freqs[("f", "f")] == pytest.approx(0.4, abs=1e-15)
        # entropy by direct formula, independent accumulation
        expect = -sum(f * math.log(f) for f in freqs.values())
        assert bound.entropy == pytest.approx(expect, abs=1e-15)
        assert bound.entropy == pytest.approx(1.1059, abs=5e-4)

    def test_single_pattern_zero_entropy(self):
        d = Dataset(("X",), ((("a",), 3.0), (("a",), 2.0)))
        assert BoundDataset(ONE_NODE, d).entropy == 0.0

    def test_two_equal_patterns_log2(self):
        d = Dataset(("X",), ((("a",), 1.0), ((None,), 1.0)))
        bound = BoundDataset(ONE_NODE, d)
        assert bound.m.tolist() == [0.5, 0.5]
        assert bound.entropy == pytest.approx(math.log(2), abs=1e-15)

    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        order=st.permutations(range(4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_reorder_and_rescale(
        self, basic_net, basic_data, scale, order
    ):
        cases = [basic_data.cases[i] for i in order]
        scaled = Dataset(
            basic_data.variables,
            tuple((p, w * scale) for p, w in cases),
        )
        a = BoundDataset(basic_net, basic_data)
        b = BoundDataset(basic_net, scaled)
        assert pattern_shares(a) == pytest.approx(pattern_shares(b), abs=1e-12)
        assert a.entropy == pytest.approx(b.entropy, abs=1e-12)


def first_bind_error(net, data):
    """Oracle: the error of binding the distinct patterns one at a time, in
    first-seen order, or None."""
    for pattern in grouped(data):
        try:
            bind_pattern(net, data.variables, pattern)
        except DataError as exc:
            return str(exc)
    return None


class TestBinding:
    """BoundDataset binds every distinct pattern, of any weight, in one pass."""

    def test_bad_label_in_zero_weight_case_refused(self, basic_net):
        data = Dataset(("A", "B"), ((("t", "t"), 1.0), (("t", "x"), 0.0)))
        with pytest.raises(DataError, match="state 'x' not in the domain of node 'B'"):
            BoundDataset(basic_net, data)

    def test_first_bad_label_in_first_seen_order(self, basic_net):
        # node A's bad label comes first in node order but in a later
        # pattern than node B's
        cases = ((("t", "t"), 1.0), (("t", "x"), 0.0), (("y", "f"), 1.0), (("t", "x"), 1.0))
        data = Dataset(("A", "B"), cases)
        assert first_bind_error(basic_net, data) == "state 'x' not in the domain of node 'B'"
        with pytest.raises(DataError) as err:
            BoundDataset(basic_net, data)
        assert str(err.value) == first_bind_error(basic_net, data)

    @given(
        cases=st.lists(
            st.tuples(
                st.tuples(*[st.sampled_from(["t", "f", None, "x", "y"])] * 2),
                st.sampled_from([0.0, 1.0, 2.5]),
            ),
            max_size=8,
        ),
        header=st.sampled_from([("A", "B"), ("B", "A"), ("B",)]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_binding_equals_per_pattern_oracle(self, basic_net, cases, header):
        cases = [(p[: len(header)], w) for p, w in [(("t", "t"), 1.0)] + cases]
        data = Dataset(header, tuple(cases))
        want = first_bind_error(basic_net, data)
        if want is not None:
            with pytest.raises(DataError) as err:
                BoundDataset(basic_net, data)
            assert str(err.value) == want
            return
        bound = BoundDataset(basic_net, data)
        patterns = list(grouped(data))
        assert bound.distinct == patterns
        assert tuple_bounds(bound.distinct_rows) == [
            bind_pattern(basic_net, header, p) for p in patterns
        ]
        assert bound.distinct_rows.dtype == np.int64
        live = [k for k, w in enumerate(grouped(data).values()) if w > 0]
        assert bound.patterns == [patterns[k] for k in live]
        assert np.array_equal(bound.rows, bound.distinct_rows[live])
        assert bound.sizes == [2 ** int((r < 0).sum()) for r in bound.rows]
        assert all(type(n) is int for n in bound.sizes)


class TestCompatibleAssignments:
    def test_fully_observed_single(self, basic_net, basic_data):
        bound = bind_pattern(basic_net, basic_data.variables, ("t", "t"))
        assert list(compatible_assignments(basic_net, bound)) == [(0, 0)]

    def test_example_pattern_members(self, basic_net, basic_data):
        bound = bind_pattern(basic_net, basic_data.variables, ("t", None))
        assert sorted(compatible_assignments(basic_net, bound)) == [(0, 0), (0, 1)]

    def test_three_missing_binary_count(self, asia_net):
        pattern = tuple(
            None if i < 3 else "no" for i in range(len(asia_net.nodes))
        )
        variables = tuple(s.name for s in asia_net.nodes)
        bound = bind_pattern(asia_net, variables, pattern)
        members = list(compatible_assignments(asia_net, bound))
        assert len(members) == 8
        bound_data = BoundDataset(asia_net, Dataset(variables, ((pattern, 1.0),)))
        assert tuple_bounds(bound_data.rows) == [bound] and bound_data.sizes == [8]
        flat = member_flat_indices(asia_net, bound)
        assert sorted(flat) == sorted(ravel(asia_net, x) for x in members)


class TestCompletionDistribution:
    def test_identity_on_complete_data(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "t"), 2.0), (("f", "f"), 6.0)))
        c = Completion(({(0, 0): 1.0}, {(1, 1): 1.0}))
        dist = completion_distribution(c, d)
        assert dist == pytest.approx({(0, 0): 0.25, (1, 1): 0.75})

    def test_example_optimal_completion(self, basic_net, basic_data):
        c = basic_completion(1.0 / 9.0)
        assert check_completion(c, basic_data, basic_net) == []
        dist = completion_distribution(c, basic_data)
        # hand arithmetic: 0.05 + 0.45/9 = 0.1
        assert dist[(0, 0)] == pytest.approx(0.1, abs=1e-15)
        assert dist[(0, 1)] == pytest.approx(0.4, abs=1e-15)
        assert dist[(1, 0)] == pytest.approx(0.1, abs=1e-15)
        assert dist[(1, 1)] == pytest.approx(0.4, abs=1e-15)

    def test_point_mass_support_bounded_by_distinct_cases(self, basic_data):
        c = basic_completion(1.0)  # a 1-completion
        dist = completion_distribution(c, basic_data)
        assert len(dist) <= len(set(p for p, _ in basic_data.cases))

    @given(
        alpha=st.floats(min_value=0, max_value=1),
        beta=st.floats(min_value=0, max_value=1),
        lam=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=100, deadline=None)
    def test_mixture_linearity(self, basic_data, alpha, beta, lam):
        ca, cb = basic_completion(alpha), basic_completion(beta)
        mixed = Completion(
            tuple(
                {
                    x: lam * da.get(x, 0.0) + (1 - lam) * db.get(x, 0.0)
                    for x in set(da) | set(db)
                }
                for da, db in zip(ca.per_case, cb.per_case)
            )
        )
        pa = completion_distribution(ca, basic_data)
        pb = completion_distribution(cb, basic_data)
        pm = completion_distribution(mixed, basic_data)
        for x in set(pa) | set(pb) | set(pm):
            expect = lam * pa.get(x, 0.0) + (1 - lam) * pb.get(x, 0.0)
            assert pm.get(x, 0.0) == pytest.approx(expect, abs=1e-12)


class TestRecoverCoarsening:
    def test_example_lambdas(self, basic_net, basic_data):
        c = basic_completion(1.0 / 9.0)
        model = recover_coarsening(c, basic_data, basic_net)
        row_tt = model.row((0, 0))
        # 0.45*(1/9)/0.1 = 0.5
        assert row_tt[("t", None)] == pytest.approx(0.5, abs=1e-12)
        assert row_tt[("t", "t")] == pytest.approx(0.5, abs=1e-12)
        row_tf = model.row((0, 1))
        # 0.45*(8/9)/0.4 = 1
        assert row_tf[("t", None)] == pytest.approx(1.0, abs=1e-12)
        assert model.check() == []

    def test_fully_observed_self_reporting(self, basic_net):
        d = Dataset(("A", "B"), ((("t", "t"), 1.0), (("f", "f"), 3.0)))
        c = Completion(({(0, 0): 1.0}, {(1, 1): 1.0}))
        model = recover_coarsening(c, d, basic_net)
        assert model.row((0, 0)) == pytest.approx({("t", "t"): 1.0})
        assert model.row((1, 1)) == pytest.approx({("f", "f"): 1.0})

    def test_reproduces_pattern_probabilities(self, basic_net, basic_data):
        # P_c equals the model distribution here, so the recovered mechanism
        # must reproduce the observed pattern masses exactly.
        from conftest import joint_probability

        c = basic_completion(1.0 / 9.0)
        model = recover_coarsening(c, basic_data, basic_net)
        lam_by_pattern: dict = {}
        for x, lams in model.rows.items():
            for pattern, l in lams.items():
                lam_by_pattern.setdefault(pattern, {})[x] = l
        for pattern, weight in grouped(basic_data).items():
            prob = sum(
                joint_probability(basic_net, x) * l
                for x, l in lam_by_pattern[pattern].items()
            )
            assert prob == pytest.approx(weight, abs=1e-12)


class TestCsv:
    def test_round_trip_weights_lossless(self, basic_data):
        text = format_dataset_csv(basic_data)
        again = parse_dataset_csv(text)
        assert again.variables == basic_data.variables
        for (pa, wa), (pb, wb) in zip(again.cases, basic_data.cases):
            assert pa == pb
            assert wa == wb  # bit-exact round trip through 17 digits

    def test_round_trip_awkward_weights(self):
        d = Dataset(
            ("X", "Y"),
            (
                (("a", None), 1.0 / 3.0),
                ((None, "b"), math.pi),
                (("a", "b"), 1e-17),
            ),
        )
        again = parse_dataset_csv(format_dataset_csv(d))
        for (pa, wa), (pb, wb) in zip(again.cases, d.cases):
            assert pa == pb
            assert wa == wb

    def test_unit_weight_column_omitted(self):
        d = Dataset(("X",), ((("a",), 1.0), ((None,), 1.0)))
        text = format_dataset_csv(d)
        assert "__weight" not in text
        assert parse_dataset_csv(text).cases == d.cases

    def test_missing_token(self):
        d = parse_dataset_csv("X,Y\n?,b\n")
        assert d.cases[0][0] == (None, "b")

    def test_ragged_row_rejected(self):
        with pytest.raises(Exception, match="cells"):
            parse_dataset_csv("X,Y\na\n")

    def test_bad_weight_cell_rejected(self):
        with pytest.raises(FormatError, match="^line 3: bad weight 'heavy'$"):
            parse_dataset_csv("X,__weight\na,2\nb,heavy\n")

    @pytest.mark.parametrize(
        "data, what",
        [
            (Dataset(("__weight", "Y"), ((("a", "b"), 1.0),)),
             "^variable name '__weight' is reserved for the weights$"),
            (Dataset(("X", "Y"), ((("a", None), 1.0), (("?", "b"), 2.0))),
             r"^value '\?' is reserved for a missing value$"),
        ],
    )
    def test_reserved_tokens_not_written(self, tmp_path, data, what):
        # a variable named __weight would read back as the weights, and a
        # value ? as missing
        path = tmp_path / "d.csv"
        with pytest.raises(FormatError, match=what):
            write_dataset(data, path)
        assert not path.exists()


class TestDatasetValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(DataError):
            Dataset(("X",), ((("a",), -1.0),))

    def test_zero_total_rejected(self):
        with pytest.raises(DataError):
            Dataset(("X",), ((("a",), 0.0),))

    def test_duplicate_header_rejected(self):
        with pytest.raises(DataError):
            Dataset(("X", "X"), ((("a", "b"), 1.0),))

    def test_unknown_variable_binding(self, basic_net):
        with pytest.raises(DataError, match="'Z' is not a network node"):
            BoundDataset(basic_net, Dataset(("A", "Z"), ((("t", "t"), 1.0),)))


LABELS = st.sampled_from(["t", "f", None])
# mostly valid weights, so that many lists get through to the grouping;
# 10**400 is an int too large for a float, 1e308 twice overflows the total
# and a total of 1e-320s alone underflows
WEIGHTS = st.sampled_from(
    [1.0, 2.0, 0.5, 3, 0.0, 1.0, 2.0, 0.5, 3, -0.0, -1.0, math.nan, math.inf, -math.inf,
     1e308, 10**400, 1e-320]
)
CASE_LISTS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(LABELS, LABELS),
            st.lists(LABELS, min_size=2, max_size=2),
            st.lists(LABELS, min_size=1, max_size=3),
        ),
        WEIGHTS,
    ),
    max_size=8,
)


class TestGrouping:
    """Dataset groups its cases into patterns as it checks them, with the
    per-case checks' errors, and BoundDataset shares that grouping."""

    @given(cases=CASE_LISTS, header=st.sampled_from([("A", "B"), ("A", "A")]))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_grouping_equals_per_case_oracle(self, cases, header):
        try:
            distinct, case_pattern, case_weights, total = dataset_grouping(header, cases)
        except (DataError, OverflowError) as exc:
            with pytest.raises(type(exc)) as err:
                Dataset(header, tuple(cases))
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
            return
        data = Dataset(header, tuple(cases))
        assert data.distinct == distinct
        assert data.case_pattern.dtype == np.int64
        assert data.case_pattern.tolist() == case_pattern
        assert data.case_weights.dtype == np.float64
        assert [w.hex() for w in data.case_weights.tolist()] == [w.hex() for w in case_weights]
        assert data.total_weight.hex() == total.hex()

    def test_first_offending_case_named_width_before_weight(self):
        cases = [(("t", "t"), 1.0), (("t",), -1.0), (("t", "t", "t"), 1.0)]
        with pytest.raises(DataError, match=r"^case width 1 != header width 2$"):
            Dataset(("A", "B"), tuple(cases))
        cases[1] = (("t", "f"), -1.0)
        with pytest.raises(DataError, match=r"^bad case weight -1.0$"):
            Dataset(("A", "B"), tuple(cases))

    def test_bound_dataset_shares_the_read_only_grouping(self, basic_net, basic_data):
        bound = BoundDataset(basic_net, basic_data)
        for name in ["distinct", "case_pattern", "case_weights"]:
            assert getattr(bound, name) is getattr(basic_data, name)
        for arr in [basic_data.case_pattern, basic_data.case_weights]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


CELLS = ["t", "f", "?", " t ", "x", "", '"', "1", "0", "-1", "nan", "inf", "1e308", "1e-320"]


@st.composite
def dataset_texts(draw):
    """CSV text shaped like a dataset for basic.net: header names, cells and
    weights drawn from near-miss values, and arbitrary text mixed in."""
    cell = st.one_of(st.sampled_from(CELLS), st.text(max_size=3))
    header = draw(
        st.lists(st.sampled_from(["A", "B", "Z", "__weight", "", " A"]), max_size=4)
    )
    width = draw(st.integers(0, len(header) + 1))
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=6))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(",".join(r) for r in [header] + rows) + newline


def parse_and_bind(basic_net, text):
    """Parse text and bind the dataset to basic.net; only the package's own
    errors may escape."""
    try:
        data = parse_dataset_csv(text)
        BoundDataset(basic_net, data)
    except CoarseBNError:
        pass


class TestParserFuzz:
    @given(text=st.text(max_size=60))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_arbitrary_text(self, basic_net, text):
        parse_and_bind(basic_net, text)

    @given(text=dataset_texts())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_dataset_shaped_text(self, basic_net, text):
        parse_and_bind(basic_net, text)

    @pytest.mark.parametrize(
        "text, what",
        [
            ("A,B\nt,\rf\n", "malformed dataset CSV"),
            ("A\n" + "x" * 200_000 + "\n", "malformed dataset CSV"),
            ("A,B,__weight\nt,t,1e308\nf,f,1e308\n", "total weight overflows"),
            ("A,B,__weight\nt,?,1e-320\nt,t,1e-320\n", "total weight underflows"),
        ],
        ids=["carriage-return", "field-limit", "weight-overflow", "weight-underflow"],
    )
    def test_found_inputs_are_package_errors(self, text, what):
        with pytest.raises(CoarseBNError, match=what):
            parse_dataset_csv(text)
