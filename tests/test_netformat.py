import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsebn.errors import CoarseBNError, FormatError
from coarsebn.netformat import format_network, parse_network, read_network
from coarsebn.network import randomize_parameters, validate_network
from coarsebn.util import fixture_path


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


def test_rejects_repeated_parent():
    # refused on its parents line, not later as missing cpt rows
    text = (
        "network t\nnode A states a,b\nnode B states a,b\nparents B A,A\n"
        "cpt A : 0.5,0.5\ncpt B | A=a : 0.5,0.5\ncpt B | A=b : 0.5,0.5\n"
    )
    with pytest.raises(FormatError, match="^line 4: parent 'A' of 'B' listed twice$"):
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


CYCLIC = (
    "network c\nnode A states t,f\nnode B states t,f\nparents A B\nparents B A\n"
    "cpt A | B=t : 0.5,0.5\ncpt A | B=f : 0.5,0.5\n"
    "cpt B | A=t : 0.5,0.5\ncpt B | A=f : 0.5,0.5\n"
)
TWICE_LABELLED = "network d\nnode X states t,t\ncpt X : 0.5,0.5\n"


@pytest.mark.parametrize(
    "text, what",
    [
        ("network a\nnetwork b\nnode X states a,b\ncpt X : 0.5,0.5\n",
         "^line 2: second 'network' line$"),
        ("network t\nnode X states a,b\nnode X states c,d\n", "^line 3: node 'X' declared twice$"),
        ("network t\nnode A states a,b\nnode B states a,b\nparents B A\nparents B A\n",
         "^line 5: parents of 'B' declared twice$"),
        ("network t\nnode A states t,f\nnode B states t,f\nparents B A\ncpt A : 0.5,0.5\n"
         "cpt B | A=f,A=t : 0.9,0.1\ncpt B | A=f : 0.2,0.8\n",
         "^line 6: parent 'A' of 'B' assigned twice$"),
        ("network t\nnode A states t,f\nnode B states t,f\nparents B A\ncpt B | A : 0.5,0.5\n",
         "^line 5: bad parent assignment, expected p=v pairs$"),
        ("network t\n# no nodes\n", "^no nodes declared$"),
        (CYCLIC, "^invalid network: parent relation has a cycle among: A, B$"),
        (TWICE_LABELLED, "^invalid network: node X: duplicate state labels$"),
    ],
)
def test_rejects_malformed_declarations(text, what):
    with pytest.raises(FormatError, match=what):
        parse_network(text)


def test_unknown_fixture_name_refused():
    with pytest.raises(FileNotFoundError, match="no bundled fixture named 'nope.net'"):
        fixture_path("nope.net")


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


FORMAT_SHA256 = {  # format_network output: as read, then randomize_parameters(seed)
    ("asia.net", 0): ("f576021383c708a1ff8133725e7088ab3ad237962a7056396b753d43514b4877",
                      "3f25938e9fbb30ab01715a48d0a9d4c9212dfe0d3e4c34647e4d4870e4718fa4"),
    ("basic.net", 1): ("0974c6f873d962cb865fc8c65df078793280ef0e29d75f1a9c8c8f3b5ff47257",
                       "3b3d3ad5cc6a8c25fda0cc06137036dddc6399acf418d6f6071e9a1ea29e718f"),
    ("basic_mech.net", 2): ("f97d7574f02f604ffaa8ed8d977ee74ee23d2d27fefc07a2cd59d9c81c646b46",
                            "b15df0431b4ec1ed165763f488037f1091f5ee3aef4fb0b01ed412494e4e159e"),
    ("alarm_like.net", 3): ("8ed232e5cf5047a17b56a4ef2a1648658aae1ab4291a70f01044897022da5a08",
                            "9b50b998ce5e645791220bd63094c6b23522ae958829e48d480aff8fced8b16f"),
}


@pytest.mark.parametrize("name,seed", list(FORMAT_SHA256))
def test_format_network_output_is_pinned(name, seed):
    """The committed fixtures are not format_network output, so the written
    text is pinned by hash: line order, parent-configuration order and every
    digit, for the fixture and one random parameterisation of it."""
    net = read_network(fixture_path(name))
    nets = (net, randomize_parameters(net, np.random.default_rng(seed)))
    got = tuple(hashlib.sha256(format_network(n).encode()).hexdigest() for n in nets)
    assert got == FORMAT_SHA256[name, seed]
