import contextlib
import itertools
import math
import sys

import numpy as np
import pytest

from coarsebn.coarsen import (
    OBS_PREFIX,
    CoarseningSpec,
    build_coarsening_network,
    draw_missingness_probs,
    generate_dataset,
)
from coarsebn.data import Dataset
from coarsebn.errors import DataError, NumericalError
from coarsebn.inference import (
    BoundDataset,
    CliqueTree,
    MemberTable,
    _min_fill_order,
)
from coarsebn import likelihoods
from coarsebn.netformat import read_network
from coarsebn.aim import LOG_PROB_FLOOR
from coarsebn.network import Network, NodeSpec, parent_rows, randomize_parameters, unravel_rows
from coarsebn.util import fixture_path


TRI_NET = """network tri
node A states a,b,c
node B states t,f
node C states t,f
parents B A
parents C B
cpt A : 0.4,0.3,0.3
cpt B | A=a : 0.5,0.5
cpt B | A=b : 0.5,0.5
cpt B | A=c : 0.9,0.1
cpt C | B=t : 0.7,0.3
cpt C | B=f : 0.2,0.8
"""


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


def parent_row(net, i, x):
    """Oracle: CPT row index of node i selected by a full assignment."""
    return sum(x[p] * s for p, s in zip(net.parent_index[i], net.row_strides[i]))


def joint_probability(net, x):
    """Oracle: P(x) as the chain-rule product of CPT entries selected by x."""
    if len(x) != len(net.nodes):
        raise DataError(
            f"assignment has {len(x)} coordinates for {len(net.nodes)} nodes"
        )
    p = 1.0
    for i in range(len(net.nodes)):
        p *= net.cpts[i][parent_row(net, i, x), x[i]]
    return float(p)


def joint_probs(net, idx):
    """Oracle: P(x) for each flat joint index, as one batch: the node-order
    product of the CPT entries each state selects, as `joint_probability`
    multiplies them."""
    coef, offsets = net.family_cells
    cells = (unravel_rows(net, idx) @ coef).astype(np.int64) + offsets[:-1]
    entries = np.concatenate([cpt.ravel() for cpt in net.cpts])[cells.T]
    p = np.ones(len(cells))
    for column in entries:
        p = p * column
    return p


# Per-node oracles: the parameter passes as they ran one node at a time.


def per_node_family_counts(structure, rows, weights):
    """Oracle: one bincount per node over its (parent row, state) cells."""
    return [
        np.bincount(
            parent_rows(structure, rows, i) * card + rows[:, i],
            weights=weights,
            minlength=structure.n_rows[i] * card,
        ).reshape(structure.n_rows[i], card)
        for i, card in enumerate(structure.cards)
    ]


def per_node_params(counts):
    """Oracle: each node's count table normalized on its own; returns the
    tables and their row totals."""
    cpts, row_counts = [], []
    for table in counts:
        k = table.sum(axis=1)
        out = np.full_like(table, 1.0 / table.shape[1])
        np.divide(table, k[:, None], out=out, where=k[:, None] > 0)
        cpts.append(out)
        row_counts.append(k)
    return cpts, row_counts


def per_node_smooth(net, row_counts):
    """Oracle: each node's table smoothed on its own."""
    out = []
    for table, k in zip(net.cpts, row_counts):
        k = np.asarray(k, dtype=np.float64).reshape(-1, 1)
        out.append((table * k + 1.0) / (k + table.shape[1]))
    return out


def per_node_kl(truth, estimate):
    """Oracle: the decomposed divergence node by node, each node's parent
    weights from one calibration of the truth."""
    _, fams = PerBoundTree(truth).calibrate(truth, [None] * len(truth.nodes))
    total = 0.0
    for t, e, fam in zip(truth.cpts, estimate.cpts, fams):
        w = fam.sum(axis=1)
        live = (w != 0.0)[:, None] & (t > 0)
        if np.any(e[live] <= 0):
            return float("inf")
        log_t = np.log(t, out=np.zeros_like(t), where=live)
        log_e = np.log(e, out=np.zeros_like(e), where=live)
        total += float(w @ (t * (log_t - log_e)).sum(axis=1))
    return total


def with_tables(net, cpts):
    """`net`'s structure with the per-node tables `cpts`, by the constructor."""
    return Network(net.name, net.nodes, tuple(cpts))


def per_node_randomize(net, rng):
    """Oracle: `randomize_parameters` as one uniform draw per node's table,
    each row then divided by its sum."""
    raw = [rng.uniform(size=net.cpts[i].shape) for i in range(len(net.nodes))]
    return with_tables(net, [r / r.sum(axis=1, keepdims=True) for r in raw])


def declaration_pass_order(net):
    """Oracle: `Network.topo_order` as its own loop placed the nodes:
    repeated passes in declaration order, DataError once a pass places none."""
    remaining = set(range(len(net.nodes)))
    placed: set[int] = set()
    order: list[int] = []
    while remaining:
        progress = False
        for i in range(len(net.nodes)):
            if i in remaining and all(p in placed for p in net.parent_index[i]):
                order.append(i)
                placed.add(i)
                remaining.discard(i)
                progress = True
        if not progress:
            raise DataError(f"network {net.name!r}: parent relation has a cycle")
    return tuple(order)


def kahn_cycle_diags(net):
    """Oracle: `validate_network`'s acyclicity diagnostic as Kahn's loop
    wrote it, keyed by node name, on the edges to known other nodes."""
    names = {s.name for s in net.nodes}
    pending = {
        s.name: {p for p in s.parents if p in names and p != s.name} for s in net.nodes
    }
    while pending:
        free = sorted(n for n, ps in pending.items() if not ps)
        if not free:
            return ["parent relation has a cycle among: " + ", ".join(sorted(pending))]
        for n in free:
            del pending[n]
        for ps in pending.values():
            ps.difference_update(free)
    return []


def per_node_sample(net, n, rng):
    """Oracle: ancestral sampling with one `rng.random(n)` per node in
    topological order, each sample comparing its draw with the cumulative
    sums of the CPT row it selects."""
    out = np.zeros((n, len(net.nodes)), dtype=np.int64)
    if n == 0:
        return out
    for i in net.topo_order:
        cum = np.cumsum(net.cpts[i][parent_rows(net, out, i)], axis=1)
        u = rng.random(n)
        out[:, i] = np.minimum((u[:, None] >= cum).sum(axis=1), net.cards[i] - 1)
    return out


def row_major_sample(net, n, rng):
    """Oracle: ancestral sampling into an (n, k) array, as `sample` ran
    before it went node-major: all uniforms at once, each node's states the
    capped count of its rows' cumulative sums at or below its uniforms."""
    k = len(net.nodes)
    out = np.zeros((n, k), dtype=np.int64)
    if n == 0:
        return out
    u = rng.random((k, n))
    for t, i in enumerate(net.topo_order):
        cum = np.cumsum(net.cpts[i], axis=1)[parent_rows(net, out, i)]
        out[:, i] = np.minimum((u[t, :, None] >= cum).sum(axis=1), net.cards[i] - 1)
    return out


def bind_pattern(net, variables, pattern):
    """Oracle: one case of header `variables` as a tuple bound in node
    order, a state index per node and None where it is missing or not in
    the header; DataError for a label out of its node's domain."""
    for v in variables:
        if v not in net.node_index:
            raise DataError(f"dataset variable {v!r} is not a network node")
    out = []
    for spec in net.nodes:
        label = pattern[variables.index(spec.name)] if spec.name in variables else None
        if label is not None and label not in spec.states:
            raise DataError(f"state {label!r} not in the domain of node {spec.name!r}")
        out.append(None if label is None else spec.states.index(label))
    return tuple(out)


def conservative_oracle(net, data):
    """Oracle: per entry of theta, the least and the greatest smoothed ML
    estimate (n(x, pa) + 1) / (n(pa) + card) over every completion of the
    data, each case completed on its own."""
    weights = np.array([w for _, w in data.cases])
    choices = [
        list(itertools.product(*(
            range(card) if v is None else [v]
            for v, card in zip(bind_pattern(net, data.variables, pattern), net.cards)
        )))
        for pattern, _ in data.cases
    ]
    estimates = []
    for rows in itertools.product(*choices):
        counts = per_node_family_counts(net, np.array(rows), weights)
        estimates.append(np.concatenate([
            ((t + 1) / (t.sum(axis=1, keepdims=True) + t.shape[1])).ravel() for t in counts
        ]))
    return np.min(estimates, axis=0), np.max(estimates, axis=0)


def n_members(net, bound):
    """Oracle: the member count of a tuple bound, as an exact int."""
    return math.prod(c for c, v in zip(net.cards, bound) if v is None)


def rows_of(bounds):
    """Tuple bounds as bound rows: an int64 array, -1 where a node is missing."""
    return np.array([[-1 if v is None else v for v in b] for b in bounds], dtype=np.int64)


def tuple_bounds(rows):
    """Bound rows as tuple bounds, None where a node is missing."""
    return [tuple(None if v < 0 else v for v in r) for r in rows.tolist()]


def member_flat_indices(net, bound):
    """Oracle: flat (C-order) joint indices of all compatible assignments,
    one pattern at a time, the last missing node varying fastest."""
    base = 0
    offsets = np.zeros(1, dtype=np.int64)
    for i, v in enumerate(bound):
        stride = net.ravel_strides[i]
        if v is not None:
            base += stride * v
        else:
            step = np.arange(net.cards[i], dtype=np.int64) * stride
            offsets = (offsets[:, None] + step[None, :]).reshape(-1)
    return offsets + base


def per_pattern_completion(theta0, table, rep_pattern, rng):
    """Oracle: `aim.initial_completion` one pattern at a time, each
    enumerated pattern drawn by its own `rng.choice`-style inverse CDF."""
    strides, cards = theta0.ravel_strides, theta0.cards
    p_slot = table.probs(theta0)[table.loc]
    flat = table.uniq[table.loc]
    slots = dict(zip(table.enumerated, zip(table.starts.tolist(), table.stops.tolist())))
    def draw(k, size):
        if k not in slots:
            return table.tree_sample(theta0, k, size, rng)
        start, stop = slots[k]
        p = p_slot[start:stop]
        s = float(p.sum())
        if s <= 0.0:
            return None
        cdf = (p / s).cumsum()  # rng.choice's inverse CDF, unchecked
        cdf /= cdf[-1]
        return flat[start + cdf.searchsorted(rng.random(size), side="right")]

    out = np.zeros(len(rep_pattern), dtype=np.int64)
    fallbacks = []
    order = np.argsort(rep_pattern, kind="stable")
    sizes = np.bincount(rep_pattern, minlength=len(table.rows))
    groups = np.split(order, np.cumsum(sizes)[:-1])
    for k, (row, idxs) in enumerate(zip(table.rows.tolist(), groups)):
        missing = [i for i, v in enumerate(row) if v < 0]
        base = sum(strides[i] * v for i, v in enumerate(row) if v >= 0)
        if not missing:
            out[idxs] = base
            continue
        picks = draw(k, len(idxs))
        if picks is None:
            fallbacks.extend(idxs.tolist())
            picks = base + sum(
                rng.integers(0, cards[i], size=len(idxs)) * strides[i] for i in missing
            )
        out[idxs] = picks
    return out.tolist(), fallbacks


def per_name_coarsening_network(net, spec, rng):
    """Oracle: `coarsen.build_coarsening_network` with its own name and
    card lookups, and its observation nodes collected apart."""
    original = [s.name for s in net.nodes]
    obs_specs, obs_cpts, available_obs = [], [], []
    shell_nodes = {s.name: s for s in net.nodes}
    card_of = {s.name: len(s.states) for s in net.nodes}
    for name in original:
        candidates = [v for v in original if v != name] + list(available_obs)
        k = int(rng.integers(0, spec.mp + 1)) if spec.mp > 0 else 0
        k = min(k, len(candidates))
        if k > 0:
            picked_idx = rng.choice(len(candidates), size=k, replace=False)
            extra = [candidates[int(j)] for j in picked_idx]
        else:
            extra = []
        parents = (name, *extra)
        n_rows = 1
        for p in parents:
            n_rows *= card_of[p]
        p_false = draw_missingness_probs(spec.mu, spec.sigma, n_rows, rng)
        table = np.column_stack([1.0 - p_false, p_false])
        obs_name = OBS_PREFIX + name
        if obs_name in shell_nodes:
            raise DataError(f"node name {obs_name!r} collides with an original node")
        obs_specs.append(NodeSpec(obs_name, ("true", "false"), parents))
        obs_cpts.append(table)
        available_obs.append(obs_name)
        card_of[obs_name] = 2
    return Network(
        net.name + "_coarsened",
        tuple(list(net.nodes) + obs_specs),
        tuple(list(net.cpts) + obs_cpts),
    )


def ravel(net, x):
    """Oracle: the flat (C-order) joint index of assignment x."""
    return sum(s * v for s, v in zip(net.ravel_strides, x))


def unravel(net, r):
    """Oracle: the assignment of flat (C-order) joint index r."""
    out = []
    for c in reversed(net.cards):
        out.append(r % c)
        r //= c
    return tuple(reversed(out))


def log_probs(net, idx):
    """Oracle: log max(P(x), LOG_PROB_FLOOR) for each flat joint index."""
    return np.log(np.maximum(joint_probs(net, idx), LOG_PROB_FLOOR))


def member_table(net, bounds):
    """The table of `bounds` that enumerates every pattern, with the
    refusals of `BoundDataset.member_table`."""
    return BoundDataset(net, dataset_of(net, bounds)).member_table(math.inf)


def dataset_grouping(variables, cases):
    """Oracle: a dataset's checks made one case at a time, then its cases
    grouped with one dict lookup each.  Returns (distinct, case_pattern,
    case_weights, total_weight) as lists and a float, or raises the error
    the checks name."""
    variables = tuple(variables)
    cases = tuple((tuple(p), float(w)) for p, w in cases)
    if len(set(variables)) != len(variables):
        raise DataError("duplicate variable names in header")
    for pattern, w in cases:
        if len(pattern) != len(variables):
            raise DataError(f"case width {len(pattern)} != header width {len(variables)}")
        if not math.isfinite(w) or w < 0:
            raise DataError(f"bad case weight {w!r}")
    try:
        total = math.fsum(w for _, w in cases)
    except OverflowError:
        raise DataError("total weight overflows") from None
    if cases and total <= 0:
        raise DataError("total weight must be positive")
    if 0 < total < sys.float_info.min:
        raise DataError("total weight underflows")
    ids = {}
    case_pattern = [ids.setdefault(p, len(ids)) for p, _ in cases]
    return list(ids), case_pattern, [w for _, w in cases], total


def grouped(data):
    """Oracle: distinct patterns with accumulated weight, in first-seen order."""
    out = {}
    for pattern, w in data.cases:
        out[pattern] = out.get(pattern, 0.0) + w
    return out


def family_tables(net, joint):
    """Per node, the (bounds, rows, card) tables of a family-joint array of
    shape (bounds, len(theta)), split at `net.family_cells[1]`."""
    parts = np.split(joint, net.family_cells[1][1:-1], axis=1)
    return [f.reshape(len(joint), r, c) for f, r, c in zip(parts, net.n_rows, net.cards)]


class PerBoundTree:
    """Oracle: the clique-tree queries one bound (state index or None per
    node) at a time, running the compiled tree's einsums without the batch
    axis, as every query did before the tree took a batch of bounds."""

    def __init__(self, net):
        self.tree = CliqueTree(net)

    def _run(self, slots, steps):
        for subs, ins in steps:
            slots.append(np.einsum(subs.replace("...", ""), *[slots[j] for j in ins]))

    def _collect(self, net, bound):
        slots = []
        for cpt, shape, v in zip(net.cpts, self.tree._shapes, bound):
            table = cpt.reshape(shape)
            slots.append(table if v is None else table * np.eye(shape[-1])[v])
        self._run(slots, self.tree._collect_steps)
        return slots, float(slots[self.tree._root])

    def probability(self, net, bound):
        return self._collect(net, bound)[1]

    def calibrate(self, net, bound):
        slots, p_u = self._collect(net, bound)
        self._run(slots, self.tree._distribute_steps)
        fams = [slots[j].reshape(cpt.shape) for j, cpt in zip(self.tree._family_slots, net.cpts)]
        return p_u, fams

    def expected_counts(self, net, bounds, weights, counts=None):
        """Oracle: the E step's tree counts, added pattern after pattern to
        `counts` (zeros by default)."""
        p_u = np.zeros(len(bounds))
        counts = np.zeros(len(net.theta)) if counts is None else counts.copy()
        for k, bound in enumerate(bounds):
            p_u[k], fams = self.calibrate(net, bound)
            if p_u[k] > 0.0:
                counts += weights[k] * (np.concatenate([f.ravel() for f in fams]) / p_u[k])
        return p_u, counts

    def draw(self, net, bound, size, rng):
        """Oracle: the tree sampler, one `rng.choice` per replica and missing
        node, each state's weight from one collect pass."""
        out = []
        for _ in range(size):
            x = list(bound)
            for i in net.topo_order:
                if x[i] is not None:
                    continue
                probs = []
                for s in range(net.cards[i]):
                    x[i] = s
                    probs.append(self.probability(net, x))
                total = sum(probs)
                if total <= 0.0:
                    return None
                x[i] = int(rng.choice(len(probs), p=np.array(probs) / total))
            out.append(ravel(net, x))
        return out


def tree_table(net, bounds):
    """The table of `bounds` that answers every pattern on the clique tree."""
    return MemberTable(net, rows_of(bounds), [n_members(net, b) for b in bounds], 0)


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


def scratch_score(state):
    """Oracle: an AimState's KL(P_c || P_theta) from scratch, each occupied
    state's term (n/zn)(log(n/zn) - log P) at its theta, added in the
    counts' order."""
    zn = state.zn
    total = 0.0
    for n, lp in zip(state.counts.values(), log_probs(state.net, list(state.counts)).tolist()):
        total += n / zn * (math.log(n / zn) - lp)
    return total


def key_members(state):
    """An AimState's occupied keys: (pattern, state) -> its replicas."""
    return {key: reps for key, reps in zip(state.key, state.members) if reps}


def replica_states(state):
    """Each replica's state, read from an AimState's key member lists; None
    for a replica that has no move, which no key holds."""
    placed = [None] * state.zn
    for (_, x), reps in key_members(state).items():
        for j in reps:
            placed[j] = x
    return placed


def completion_distribution(c, data):
    """Oracle: the weighted mixture P_c of a completion's per-case
    distributions."""
    total = data.total_weight
    out = {}
    for (_, w), dist in zip(data.cases, c.per_case):
        for x, p in dist.items():
            if p:
                out[x] = out.get(x, 0.0) + w * p / total
    return out


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
            tables[i][parent_row(net, i, x), x[i]] += p
    return {
        net.nodes[i].name: tables[i] / total for i in range(len(net.nodes))
    }, total


# Variable elimination, one query at a time: the oracle for the clique tree.


def evidence_indices(net, evidence):
    """Oracle: map {node name: state label} evidence to {node index: state
    index}, one node at a time."""
    out = {}
    for name, label in evidence.items():
        if name not in net.node_index:
            raise DataError(f"unknown node {name!r}")
        out[net.node_index[name]] = net.state_index(name, label)
    return out


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


def random_dag(n, seed, cards=(2, 5), max_parents=3, window=None):
    """A random DAG with randomized CPTs: per node, up to max_parents parents
    among the earlier nodes (the last `window` of them, if given), listed in
    random order; nodes are declared in a shuffled order."""
    rng = np.random.default_rng(seed)
    card = rng.integers(*cards, size=n)
    specs, tables = [], []
    for i in range(n):
        pool = np.arange(i) if window is None else np.arange(max(0, i - window), i)
        k = int(rng.integers(0, min(max_parents, len(pool)) + 1))
        parents = rng.choice(pool, size=k, replace=False).tolist()
        states = tuple(f"s{j}" for j in range(card[i]))
        specs.append(NodeSpec(f"v{i}", states, tuple(f"v{p}" for p in parents)))
        rows = int(np.prod([card[p] for p in parents]))
        tables.append(np.full((rows, card[i]), 1.0 / card[i]))
    order = rng.permutation(n)
    net = Network(f"dag{seed}", tuple(specs[i] for i in order), tuple(tables[i] for i in order))
    return randomize_parameters(net, rng)


def four_evaluation_cycle(evaluate, x, at_x, tol):
    """Oracle: the SQUAREM cycle that fully evaluates every point it
    touches, x1, x2, the jump and F(jump), stopping early at x1 or x2 if
    its gap is within tol, and keeps F(jump) against x2's loss.  Returns
    the next point, its evaluation and the evaluations made."""
    x1 = at_x.image
    at_x1 = evaluate(x1)
    if at_x1.gap <= tol:
        return x1, at_x1, 1
    x2 = at_x1.image
    at_x2 = evaluate(x2)
    if at_x2.gap <= tol:
        return x2, at_x2, 2
    r = x1 - x
    v = x2 - x1 - r
    vv = float(v @ v)
    a = min(-math.sqrt(float(r @ r) / vv), -1.0) if vv > 0 else -1.0
    sign = np.sign(x2)
    while a < -1.0:
        jump = x - 2.0 * a * r + (a * a) * v
        if np.array_equal(np.sign(jump), sign):
            break
        a = (a - 1.0) / 2.0 if a < -2.0 else -1.0
    else:
        return x2, at_x2, 2
    landed = evaluate(jump).image
    at_landed = evaluate(landed)
    if at_landed.loss <= at_x2.loss or at_landed.gap <= tol:
        return landed, at_landed, 4
    return x2, at_x2, 4


def four_evaluation_fixed_point(evaluate, x, tol, max_evals, name, support=None):
    """Oracle: the solvers' loop on `four_evaluation_cycle`, with the
    support step, refusing a cycle that could make more than four
    evaluations past max_evals."""
    at_x = evaluate(x)
    evals = 1
    due = likelihoods._SUPPORT_FIRST
    while not at_x.gap <= tol:
        if math.isnan(at_x.gap):
            raise NumericalError(f"{name} reached a NaN gap")
        reset = None
        if support is not None and at_x.gap < due:
            due = at_x.gap / likelihoods._SUPPORT_EVERY
            reset = support(x, at_x)
        if evals + (4 if reset is None else 1) > max_evals:
            raise NumericalError(f"{name} stalled at gap {at_x.gap:.3g} > tol {tol:.3g}")
        if reset is None:
            x, at_x, made = four_evaluation_cycle(evaluate, x, at_x, tol)
            evals += made
            continue
        at_reset = evaluate(reset)
        evals += 1
        if at_reset.loss <= at_x.loss:
            x, at_x = reset, at_reset
    return x, at_x


def fixed_point_without_support(evaluate, x, tol, max_evals, name, support=None):
    """Oracle: `four_evaluation_fixed_point` with no support step, ignoring
    `support`."""
    return four_evaluation_fixed_point(evaluate, x, tol, max_evals, name)


@contextlib.contextmanager
def without_support():
    """Run the sat and car solvers on the oracle loop, with no support step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(likelihoods, "_fixed_point", fixed_point_without_support)
        yield
