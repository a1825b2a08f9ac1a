import math

import numpy as np
import pytest

from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from coarsebn.data import Dataset, bind_pattern
from coarsebn.errors import DataError
from coarsebn.netformat import read_network
from coarsebn.network import joint_probability
from coarsebn.util import fixture_path


@pytest.fixture(scope="session")
def basic_net():
    return read_network(fixture_path("basic.net"))


@pytest.fixture(scope="session")
def asia_net():
    return read_network(fixture_path("asia.net"))


@pytest.fixture(scope="session")
def basic_mech():
    return read_network(fixture_path("basic_mech.net"))


@pytest.fixture(scope="session")
def basic_data():
    """The exact-weight four-pattern dataset: (t,?) 0.45, (t,t) 0.05,
    (f,t) 0.1, (f,f) 0.4."""
    from coarsebn.data import read_dataset

    return read_dataset(fixture_path("basic_coarse.csv"))


@pytest.fixture(scope="session")
def basic_data_n2000():
    """Integer-weight version of the same proportions, N=2000."""
    return Dataset(
        ("A", "B"),
        (
            (("t", None), 900.0),
            (("t", "t"), 100.0),
            (("f", "t"), 200.0),
            (("f", "f"), 800.0),
        ),
    )


def asia_data(asia_net, n=300, seed=41):
    """A generated asia dataset at coarsening 2:0.1:0.05."""
    rng = np.random.default_rng(seed)
    aug = build_coarsening_network(asia_net, CoarseningSpec(2, 0.1, 0.05), rng)
    return generate_dataset(aug, n, rng)[0]


def compatible_assignments(net, bound):
    """Oracle: lazily enumerate the full assignments a bound case is
    consistent with, last node varying fastest."""
    domains = [
        (v,) if v is not None else tuple(range(net.cards[i]))
        for i, v in enumerate(bound)
    ]
    idx = [0] * len(domains)
    while True:
        yield tuple(dom[i] for dom, i in zip(domains, idx))
        j = len(domains) - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < len(domains[j]):
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            return


def incremental_kl_delta(counts, zn, logp, frm, to):
    """Oracle: the change in KL(P_c || P_theta) from moving one replica
    frm -> to, recomputing only the two affected count terms.  `counts` maps
    occupied states to replica counts; `logp` must already be floored."""
    n_from = counts.get(frm, 0)
    if n_from < 1:
        raise DataError("no replica currently occupies the source state")
    if frm == to:
        return 0.0
    n_to = counts.get(to, 0)
    lf = logp(frm)
    lt = logp(to)

    def term(n, lp):
        if n == 0:
            return 0.0
        q = n / zn
        return q * (math.log(q) - lp)

    return (
        term(n_from - 1, lf)
        + term(n_to + 1, lt)
        - term(n_from, lf)
        - term(n_to, lt)
    )


def brute_evidence_probability(net, evidence):
    """Oracle: sum joint probabilities over every compatible assignment."""
    variables = tuple(s.name for s in net.nodes)
    pattern = tuple(evidence.get(v) for v in variables)
    bound = bind_pattern(net, variables, pattern)
    return sum(
        joint_probability(net, x) for x in compatible_assignments(net, bound)
    )


def brute_family_posteriors(net, evidence):
    """Oracle: posterior family tables by direct enumeration of completions."""
    variables = tuple(s.name for s in net.nodes)
    pattern = tuple(evidence.get(v) for v in variables)
    bound = bind_pattern(net, variables, pattern)
    tables = [
        np.zeros_like(np.asarray(net.cpts[i])) for i in range(len(net.nodes))
    ]
    total = 0.0
    for x in compatible_assignments(net, bound):
        p = joint_probability(net, x)
        total += p
        for i in range(len(net.nodes)):
            tables[i][net.parent_row(i, x), x[i]] += p
    return {
        net.nodes[i].name: tables[i] / total for i in range(len(net.nodes))
    }, total
