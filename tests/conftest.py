import math

import numpy as np
import pytest

from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from coarsebn.data import Dataset, member_count, pattern_binder
from coarsebn.errors import DataError
from coarsebn.inference import MemberTable, _min_fill_order, evidence_indices
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


def member_table(net, bounds):
    """The MemberTable of `bounds`, each pattern's members counted here."""
    return MemberTable(net, bounds, [member_count(net, b) for b in bounds])


def dataset_of(net, bounds):
    """A dataset of one unit-weight case per bound, over every node."""
    cases = tuple(
        (tuple(None if v is None else s.states[v] for s, v in zip(net.nodes, b)), 1.0)
        for b in bounds
    )
    return Dataset(tuple(s.name for s in net.nodes), cases)


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
    bound = pattern_binder(net, variables)(pattern)
    return sum(
        joint_probability(net, x) for x in compatible_assignments(net, bound)
    )


def brute_family_posteriors(net, evidence):
    """Oracle: posterior family tables by direct enumeration of completions."""
    variables = tuple(s.name for s in net.nodes)
    pattern = tuple(evidence.get(v) for v in variables)
    bound = pattern_binder(net, variables)(pattern)
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


# Variable elimination, one query at a time: the oracle for the clique tree.


def _node_factors(net):
    factors = []
    for i in range(len(net.nodes)):
        axes = tuple(net.parent_index[i]) + (i,)
        shape = tuple(net.cards[a] for a in axes)
        table = net.cpts[i].reshape(shape)
        order = tuple(np.argsort(axes))
        factors.append((tuple(sorted(axes)), np.transpose(table, order)))
    return factors


def _clamp(factor, ev):
    axes, table = factor
    keep = []
    index = []
    for a in axes:
        if a in ev:
            index.append(ev[a])
        else:
            index.append(slice(None))
            keep.append(a)
    return tuple(keep), table[tuple(index)]


def _multiply(f1, f2):
    a1, t1 = f1
    a2, t2 = f2
    axes = tuple(sorted(set(a1) | set(a2)))

    def expand(a, t):
        shape = [1] * len(axes)
        for ax, size in zip(a, t.shape):
            shape[axes.index(ax)] = size
        return t.reshape(shape)

    return axes, expand(a1, t1) * expand(a2, t2)


def _sum_out(factor, v):
    axes, table = factor
    pos = axes.index(v)
    return axes[:pos] + axes[pos + 1 :], table.sum(axis=pos)


def _run_ve(net, ev, keep):
    """Clamp evidence, eliminate everything outside `keep`, return remains."""
    scalar = 1.0
    factors = []
    for f in _node_factors(net):
        axes, table = _clamp(f, ev)
        if not axes:
            scalar *= float(table)
        else:
            factors.append((axes, table))
    eliminate = {
        v for axes, _ in factors for v in axes if v not in keep and v not in ev
    }
    order = [v for v, _ in _min_fill_order(net, [f[0] for f in factors], eliminate)]
    for v in order:
        touching = [f for f in factors if v in f[0]]
        if not touching:
            continue
        factors = [f for f in factors if v not in f[0]]
        prod = touching[0]
        for f in touching[1:]:
            prod = _multiply(prod, f)
        axes, table = _sum_out(prod, v)
        if not axes:
            scalar *= float(table)
        else:
            factors.append((axes, table))
    return factors, scalar


def ve_evidence_probability(net, evidence):
    """Oracle: P(X in U) by one variable-elimination query."""
    factors, scalar = _run_ve(net, evidence_indices(net, evidence), keep=set())
    for axes, table in factors:
        scalar *= float(table.sum())
    return scalar


def joint_marginal(net, query, evidence=None):
    """Oracle: unnormalized P(query vars, evidence) as an array over the
    query cards, by one variable-elimination query.

    Axes follow the requested query order; observed query variables carry
    their whole axis with mass only at the observed state.
    """
    evidence = evidence or {}
    qidx = []
    for n in query:
        if n not in net.node_index:
            raise DataError(f"unknown node {n!r}")
        qidx.append(net.node_index[n])
    ev = evidence_indices(net, evidence)
    keep = {i for i in qidx if i not in ev}
    factors, scalar = _run_ve(net, ev, keep)
    prod = None
    for f in factors:
        prod = f if prod is None else _multiply(prod, f)
    out = np.zeros(tuple(net.cards[i] for i in qidx))
    # Embed the eliminated result into the query axes; observed query
    # variables become point coordinates.
    index = []
    free_axes = []
    for i in qidx:
        if i in ev:
            index.append(ev[i])
        else:
            index.append(slice(None))
            free_axes.append(i)
    if prod is None:
        block = np.array(scalar)
    else:
        axes, table = prod
        for v in [v for v in axes if v not in free_axes]:  # leftovers: sum away
            axes, table = _sum_out((axes, table), v)
        want = [v for v in qidx if v not in ev]
        table = np.transpose(table, [axes.index(v) for v in want])
        block = table * scalar
    out[tuple(index)] = block
    return out


def ve_family_posteriors(net, evidence):
    """Oracle: P(family | X in U) per node, one elimination query each."""
    p_ev = ve_evidence_probability(net, evidence)
    out = {}
    for i, spec in enumerate(net.nodes):
        fam = [net.nodes[p].name for p in net.parent_index[i]] + [spec.name]
        marg = joint_marginal(net, fam, evidence)
        out[spec.name] = marg.reshape(net.n_rows[i], net.cards[i]) / p_ev
    return out
