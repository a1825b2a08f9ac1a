import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsebn.errors import CoarseBNError, FormatError
from coarsebn.netformat import format_network, parse_network
from coarsebn.network import randomize_parameters, validate_network


def test_round_trip_basic(basic_net):
    again = parse_network(format_network(basic_net))
    assert again.name == basic_net.name
    assert again.nodes == basic_net.nodes
    for a, b in zip(again.cpts, basic_net.cpts):
        assert np.array_equal(a, b)


def test_round_trip_asia_and_random(asia_net):
    for net in (asia_net, randomize_parameters(asia_net, np.random.default_rng(2))):
        again = parse_network(format_network(net))
        assert again.nodes == net.nodes
        for a, b in zip(again.cpts, net.cpts):
            assert np.allclose(a, b, atol=0, rtol=0)


def test_comments_and_blank_lines():
    net = parse_network(
        """
        # a comment
        network tiny

        node X states a,b   # trailing comment
        cpt X : 0.25,0.75
        """
    )
    assert validate_network(net) == []
    assert net.cpts[0][0, 0] == 0.25


def test_rejects_off_sum_row():
    with pytest.raises(FormatError, match="row sum"):
        parse_network("network t\nnode X states a,b\ncpt X : 0.3,0.6\n")


def test_accepts_tiny_off_sum_and_renormalizes():
    net = parse_network("network t\nnode X states a,b\ncpt X : 0.3000001,0.7\n")
    assert net.cpts[0].sum() == pytest.approx(1.0, abs=1e-12)
    assert validate_network(net) == []


def test_rejects_missing_row():
    text = (
        "network t\nnode X states a,b\nnode Y states a,b\n"
        "parents Y X\ncpt X : 0.5,0.5\ncpt Y | X=a : 0.5,0.5\n"
    )
    with pytest.raises(FormatError, match="without a cpt row"):
        parse_network(text)


def test_rejects_duplicate_row():
    text = (
        "network t\nnode X states a,b\n"
        "cpt X : 0.5,0.5\ncpt X : 0.4,0.6\n"
    )
    with pytest.raises(FormatError, match="duplicate"):
        parse_network(text)


def test_rejects_unknown_parent_state():
    text = (
        "network t\nnode X states a,b\nnode Y states a,b\nparents Y X\n"
        "cpt X : 0.5,0.5\ncpt Y | X=zzz : 0.5,0.5\ncpt Y | X=b : 0.5,0.5\n"
    )
    with pytest.raises(FormatError, match="not a state"):
        parse_network(text)


def test_rejects_wrong_probability_count():
    with pytest.raises(FormatError, match="probabilities"):
        parse_network("network t\nnode X states a,b\ncpt X : 1.0\n")


def test_rejects_unknown_keyword():
    with pytest.raises(FormatError, match="unknown keyword"):
        parse_network("network t\nnode X states a,b\nfrobnicate X\ncpt X : 1,0\n")


# ----------------------------------------------------------------------
# Fuzzing: whatever the text, parsing ends in a valid network or in one of
# the package's own errors.

SPLICE_BASE = """# three nodes, one with two parents
network tri
node A states t,f
node B states t,f,u
node C states t,f
parents C A,B
cpt A : 0.5,0.5
cpt B : 0.2,0.3,0.5
cpt C | A=t,B=t : 0.1,0.9
cpt C | A=t,B=f : 0.2,0.8
cpt C | A=t,B=u : 0.3,0.7
cpt C | A=f,B=t : 0.4,0.6
cpt C | A=f,B=f : 0.5,0.5
cpt C | A=f,B=u : 0.6,0.4
"""
SPLICE_TOKENS = [t for t in re.split(r"(\s+|[,:|=#])", SPLICE_BASE) if t]
SPLICE_VOCAB = [
    "network", "node", "states", "parents", "cpt", "A", "B", "C", "Z", "t", "f",
    "u", ",", ":", "|", "=", "#", "\n", " ", "", "0.5", "1", "0", "-0.5", "1.5",
    "nan", "inf", "-inf", "1e308", "1e-320", "x",
]


@st.composite
def spliced_networks(draw):
    """The three-node network text with one to four tokens inserted,
    replaced or deleted."""
    tokens = list(SPLICE_TOKENS)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        token = draw(st.sampled_from(SPLICE_VOCAB))
        if op == "insert":
            tokens.insert(i, token)
        else:
            tokens[i : i + 1] = [token] if op == "replace" else []
    return "".join(tokens)


def parse_or_refuse(text):
    """Parse text; only the package's own errors may escape, and whatever
    parses is a valid network."""
    try:
        net = parse_network(text)
    except CoarseBNError:
        return
    assert validate_network(net) == []


class TestParserFuzz:
    def test_splice_base_parses(self):
        assert validate_network(parse_network(SPLICE_BASE)) == []

    @given(text=spliced_networks())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_spliced_network_text(self, text):
        parse_or_refuse(text)

    @given(text=st.text(max_size=80))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_arbitrary_text(self, text):
        parse_or_refuse(text)

    @pytest.mark.parametrize("row", ["inf,-inf", "-inf,inf", "nan,1", "inf,0", "1e308,1e308"])
    def test_non_finite_rows_refused(self, row):
        with pytest.raises(FormatError, match="bad probability value"):
            parse_network(f"network t\nnode X states a,b\ncpt X : {row}\n")
