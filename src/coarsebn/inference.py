"""Exact inference: the pattern table and the clique tree.

Fitters and solvers need, per observation pattern, only the joint states
that match it, called the pattern's members.  A `Dataset` groups its
cases into patterns; `BoundDataset` binds them to a network, and its
`table` (a `MemberTable`) answers their queries: it enumerates the
patterns smallest first while their members total at most
DENSE_TABLE_BUDGET, and answers every other pattern on one clique tree.
DENSE_TABLE_BUDGET is the one member-table budget, read by the fitters,
the face value and the sat profile.  The sat and car profiles need every
pattern enumerated (`member_table`); only the car normalizer, which never
builds the compiled cells, asks for more.

A pattern's bound is the one data format every layer reads: an int64 row
of state indices in node order, -1 where the node is missing or not in
the dataset's header, so a completion fills exactly its -1 entries.
`BoundDataset` binds a dataset's distinct patterns once into one array of
such rows; the member lists, the clique tree's batches, AIM's moves and
the random completions all read that array.

A member table is compiled once per dataset: on first use it stores each
distinct member's `network.state_cells` row, its cell per node in the
concatenated CPTs.  P(x) is then one gather and a node-order product, and
the E step's expected counts one bincount, whatever the parameters.

A clique tree (`CliqueTree`) is compiled once per structure, as the
network's `clique_tree`, from one min-fill elimination ordering; it
refuses a clique of more than ENUM_BUDGET cells.  A query takes a batch
of bounds and makes one pass over all of them: one calibration (a collect
and a distribute pass) gives each bound's P(U) and its family joints
P(family, U), one row laid out as theta, and the collect pass alone gives
P(U).  So the E step makes one calibration for all of its tree patterns,
the initial draws one collect pass per missing node of a tree pattern,
and a truth network's `parent_weights` one calibration.

All probabilities are combined in linear space; logs are accumulated by
the callers and by `face_value_sum`, the face-value log-likelihood sum.
Elimination orderings come from a deterministic min-fill heuristic with
lexicographic tie-breaking so results are bit-reproducible across runs."""

from __future__ import annotations

import itertools
import math
import string
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .data import Dataset
from .errors import BudgetError, DataError, ZeroSupportError
from .network import (
    ENUM_BUDGET,
    Network,
    cell_probs,
    family_counts,
    indexable,
    state_cells,
    unravel_rows,
)

DENSE_TABLE_BUDGET = 100_000  # perfbench imports it: large_dag's 2^17 states must exceed it


def _min_fill_order(
    net: Network, scopes: Sequence[tuple[int, ...]], eliminate: set[int]
) -> list[tuple[int, set[int]]]:
    """Greedy min-fill over the interaction graph; ties break on node name.

    Returns the eliminated nodes in order, each with its neighbours at the
    moment it is eliminated.
    """
    adj: dict[int, set[int]] = {v: set() for v in eliminate}
    for scope in scopes:
        for v in scope:
            adj.setdefault(v, set()).update(scope)
    for v, nbrs in adj.items():
        nbrs.discard(v)

    def fill_in(v: int) -> int:  # twice the fill-in edges eliminating v adds
        return sum(len(adj[v] - adj[a]) - 1 for a in adj[v])

    order = []
    todo = sorted(eliminate, key=lambda i: net.nodes[i].name)
    while todo:
        v = min(todo, key=fill_in)
        todo.remove(v)
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u] |= nbrs
            adj[u] -= {u, v}
        order.append((v, nbrs))
    return order


Step = tuple[str, tuple[int, ...]]  # einsum subscripts and input slots

EINSUM_OPERANDS = 32  # numpy's einsum takes at most 32 operands (64 from 2.0)


class CliqueTree:
    """A clique tree compiled once per structure (Lauritzen & Spiegelhalter
    1988; Koller & Friedman 2009, ch. 10).

    The cliques are those of one min-fill elimination of the moral graph:
    node v's clique is v with its neighbours when it is eliminated, and its
    parent is the clique of its separator's first-eliminated node.  A clique
    contained in one of its children is merged with it.  A forest (a moral
    graph in parts) is chained into one tree: each root hangs under the
    next by an empty separator.  Each family sits in the clique of its
    first-eliminated node.  A clique table of more than ENUM_BUDGET cells
    raises BudgetError here, before any query.

    Queries take a network of this structure and a batch of bound rows, in
    chunks whose slots hold at most ENUM_BUDGET cells.  Evidence zeroes the
    inconsistent CPT entries, and the passes are Shafer-Shenoy messages,
    with no division.  So a configuration of probability zero keeps a
    marginal of exactly 0.0.  Every einsum is compiled here, with a leading
    batch axis and axis letters of its own; a clique step of more than
    EINSUM_OPERANDS inputs is folded into chained steps.
    """

    def __init__(self, net: Network):
        k = len(net.nodes)
        self.nodes = net.nodes
        families = [net.parent_index[i] + (i,) for i in range(k)]
        elimination = _min_fill_order(net, families, set(range(k)))
        pos = {v: t for t, (v, _) in enumerate(elimination)}
        scope = {v: {v} | nbrs for v, nbrs in elimination}
        parent = {v: min(nbrs, key=pos.get, default=None) for v, nbrs in elimination}
        home = [min(fam, key=pos.get) for fam in families]
        children: dict[int, list[int]] = {v: [] for v in scope}
        for v, p in parent.items():
            if p is not None:
                children[p].append(v)
        for v in list(scope):  # a clique inside a child hands the child its place
            inner = next((c for c in children[v] if scope[c] >= scope[v]), None)
            if inner is None:
                continue
            scope[v] = scope.pop(inner)
            del parent[inner]
            children[v].remove(inner)
            for g in children.pop(inner):
                parent[g] = v
                children[v].append(g)
            home = [v if h == inner else h for h in home]
        roots = [c for c in scope if parent[c] is None]  # a forest: chain its trees
        for r, s in zip(roots, roots[1:]):
            parent[r] = s
            children[s].append(r)
        for members in scope.values():
            cells = math.prod(net.cards[u] for u in members)
            if cells > ENUM_BUDGET:
                raise BudgetError(
                    f"clique of {cells} cells exceeds the budget {ENUM_BUDGET}"
                )

        self._shapes = [tuple(net.cards[u] for u in fam) for fam in families]
        # row v of a node's evidence mask keeps its state v; row -1 keeps all
        masks = {c: np.vstack([np.eye(c), np.ones(c)]) for c in set(net.cards)}
        self._masks = [masks[c] for c in net.cards]
        cliques = list(scope)  # children before parents
        held: dict[int, list[int]] = {c: [] for c in cliques}
        for i, h in enumerate(home):
            held[h].append(i)

        # Slots hold the family tables, then every step's result.  A slot is
        # read by one clique at most, so it is spelled once, in the letters
        # of that clique's axes.
        letters = {c: dict(zip(sorted(scope[c]), string.ascii_letters)) for c in cliques}
        scopes: list[tuple[int, ...]] = []
        codes: list[str] = []

        def slot(axes: tuple[int, ...], reader: Optional[int]) -> int:
            scopes.append(axes)
            codes.append("" if reader is None else "".join(letters[reader][u] for u in axes))
            return len(scopes) - 1

        def step(program: list[Step], c: int, ins: list[int], want, reader) -> int:
            while len(ins) > EINSUM_OPERANDS:  # fold the first inputs into one
                head, ins = ins[:EINSUM_OPERANDS], ins[EINSUM_OPERANDS:]
                ins = [step(program, c, head, sorted(scope[c]), c)] + ins
            covered = set().union(*[scopes[j] for j in ins])
            out = tuple(u for u in want if u in covered)
            subs = ",".join(["..." + codes[j] for j in ins]) + "->..."
            program.append((subs + "".join(letters[c][u] for u in out), tuple(ins)))
            return slot(out, reader)

        def sep(c: int, p: Optional[int]) -> list[int]:
            return sorted(scope[c] & scope.get(p, set()))

        for i, fam in enumerate(families):
            slot(fam, home[i])
        up: dict[int, int] = {}
        self._collect_steps: list[Step] = []
        for c in cliques:  # the last is the root: its step gives P(U)
            ins = held[c] + [up[d] for d in children[c]]
            up[c] = step(self._collect_steps, c, ins, sep(c, parent[c]), parent[c])
        self._root = up[cliques[-1]]

        down: dict[int, int] = {}
        self._distribute_steps: list[Step] = []
        self._family_slots = [0] * k
        for c in reversed(cliques):
            own = held[c] + ([down[c]] if c in down else [])
            for d in children[c]:
                ins = own + [up[e] for e in children[c] if e != d]
                if ins:
                    down[d] = step(self._distribute_steps, c, ins, sep(d, c), d)
            for i in held[c]:
                ins = own + [up[d] for d in children[c]]
                self._family_slots[i] = step(self._distribute_steps, c, ins, families[i], None)
        cells = sum(math.prod(map(net.cards.__getitem__, axes)) for axes in scopes)
        self._chunk = max(1, ENUM_BUDGET // cells)  # bounds per pass

    def _collect(self, net: Network, bounds: np.ndarray) -> tuple[list, np.ndarray]:
        """The collect pass over one chunk of bounds: every slot so far, and
        P(U) per bound."""
        slots = [
            (cpt * ev[v][:, None]).reshape(-1, *shape)
            for cpt, shape, ev, v in zip(net.cpts, self._shapes, self._masks, bounds.T)
        ]
        for subs, ins in self._collect_steps:
            slots.append(np.einsum(subs, *[slots[j] for j in ins]))
        return slots, slots[self._root]

    def _chunks(self, bounds: np.ndarray) -> list[np.ndarray]:
        return [bounds[s : s + self._chunk] for s in range(0, max(len(bounds), 1), self._chunk)]

    def probability(self, net: Network, bounds: np.ndarray) -> np.ndarray:
        """P(U) per bound, from the collect pass alone."""
        return np.concatenate([self._collect(net, c)[1] for c in self._chunks(bounds)])

    def calibrate(self, net: Network, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P(U) per bound, and P(family, U) per bound as one (bounds,
        len(theta)) array laid out as `Network.theta`."""
        p_u, joint = [], []
        for chunk in self._chunks(bounds):
            slots, mass = self._collect(net, chunk)
            for subs, ins in self._distribute_steps:
                slots.append(np.einsum(subs, *[slots[j] for j in ins]))
            p_u.append(mass)
            fams = [slots[j] for j in self._family_slots]  # each (chunk, *family)
            joint.append(np.hstack([f.reshape(len(chunk), math.prod(f.shape[1:])) for f in fams]))
        return np.concatenate(p_u), np.concatenate(joint)


def member_indices(net: Network, rows: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """The flat joint indices of the `sizes` members of each bound row, row
    after row in C order: member r of a row takes state (r // after) % card
    at a missing node, where after is the product of its later missing
    nodes' cards."""
    strides = np.array(net.ravel_strides, dtype=np.int64)
    radix = np.where(rows < 0, net.cards, 1)
    after = np.asarray(sizes, dtype=np.int64)[:, None] // np.cumprod(radix, axis=1)
    of_row = np.repeat(np.arange(len(rows)), sizes)
    r = np.arange(len(of_row)) - (np.cumsum(sizes) - sizes)[of_row]
    flat = (np.maximum(rows, 0) @ strides)[of_row]
    for i in np.flatnonzero((rows < 0).any(axis=0)).tolist():
        flat += r // after[of_row, i] % radix[of_row, i] * strides[i]
    return flat


def _bind(net: Network, variables: Sequence[str], patterns: list) -> np.ndarray:
    """The bound rows of `patterns`, cases of one header, in one pass per
    header column.  DataError names the first label out of its node's
    domain, pattern after pattern in node order."""
    rows = np.full((len(patterns), len(net.nodes)), -1, dtype=np.int64)
    for j, name in enumerate(variables):
        if name not in net.node_index:
            raise DataError(f"dataset variable {name!r} is not a network node")
        i = net.node_index[name]
        state = {s: k for k, s in enumerate(net.nodes[i].states)} | {None: -1}
        rows[:, i] = [state.get(p[j], -2) for p in patterns]
    bad = np.argwhere(rows == -2)  # pattern-major
    if len(bad):
        k, i = bad[0].tolist()
        name = net.nodes[i].name
        label = patterns[k][variables.index(name)]
        raise DataError(f"state {label!r} not in the domain of node {name!r}")
    return rows


# No fit calls it; kept as perfbench's span inference.evidence and acceptance criterion 7(d).
def evidence_probability(net: Network, evidence: Mapping[str, str | None]) -> float:
    """P(X in U) for a missing-value observation: one collect pass.
    `evidence` holds the observed variables; everything else, and a
    variable given as None, is summed out."""
    row = _bind(net, list(evidence), [tuple(evidence.values())])
    return float(net.clique_tree.probability(net, row)[0])


# Read by `evaluate.kl_enumerate`, and named by perfbench's span inference.joint_table.
def full_joint_table(net: Network) -> np.ndarray:
    """Dense joint distribution over all nodes (C order): `cell_probs` over
    every state, in chunks whose cells hold at most ENUM_BUDGET entries."""
    n = net.n_assignments
    if n > ENUM_BUDGET:
        raise BudgetError(f"state space {n} exceeds dense budget {ENUM_BUDGET}")
    step = ENUM_BUDGET // len(net.nodes)
    chunks = [np.arange(s, min(s + step, n)) for s in range(0, n, step)]
    probs = [cell_probs(net, state_cells(net, unravel_rows(net, idx))) for idx in chunks]
    return np.concatenate(probs).reshape(net.cards)


# No fit calls it; kept as perfbench's span inference.family_posterior.
def posterior_family_marginals(
    net: Network, evidence: Mapping[str, str | None]
) -> dict[str, np.ndarray]:
    """P(node, parents | X in U) per node, shaped like that node's CPT.

    Each table is a proper joint distribution over (parent config, state);
    raises ZeroSupportError when the evidence itself has probability zero.
    One calibration of a clique tree.
    """
    row = _bind(net, list(evidence), [tuple(evidence.values())])
    p_u, joint = net.clique_tree.calibrate(net, row)
    if p_u[0] <= 0.0:
        raise ZeroSupportError("evidence has probability zero under the model")
    return dict(zip([spec.name for spec in net.nodes], net.with_theta(joint[0] / p_u[0]).cpts))


def face_value_sum(weights: np.ndarray, p_u: np.ndarray) -> tuple[float, float]:
    """The face-value log-likelihood sum w log P(U) over the patterns with
    P(U) > 0, added in pattern order, and the weight of the other patterns,
    which it excludes."""
    ll = excluded = 0.0
    for w, p in zip(weights.tolist(), p_u.tolist()):
        if p > 0.0:
            ll += w * math.log(p)
        else:
            excluded += w
    return ll, excluded


# ----------------------------------------------------------------------
# Per-pattern queries for the fitters


class MemberTable:
    """A dataset's pattern queries, each pattern answered by enumerating its
    members or on the clique tree.

    Patterns are enumerated smallest first while their members total at
    most `budget`, and none when the joint space cannot be indexed in
    int64; `enumerated` lists them and `on_tree` the rest, each in
    first-seen order; `rows` holds the patterns' bound rows.  Slots hold
    the enumerated patterns' members, listed by one `member_indices` pass:
    enumerated[j] owns slots starts[j] to stops[j], and pat_of_slot maps a
    slot back to its pattern (an index into `rows`).  `uniq` holds the
    distinct flat joint indices (sorted) and `loc` each slot's position in
    it.  The table depends only on the structure, whose `clique_tree`
    answers the other patterns; every query takes the parameters and
    refuses a network of another structure.
    """

    def __init__(self, net: Network, rows: np.ndarray, sizes: list[int], budget: float):
        self.net = net
        self.rows = rows
        order = sorted(range(len(sizes)), key=sizes.__getitem__) if indexable(net) else []
        running = itertools.accumulate(sizes[k] for k in order)
        fits = {k for k, total in zip(order, running) if total <= budget}
        self.enumerated = sorted(fits)
        self.on_tree = sorted(set(range(len(sizes))) - fits)
        kept = [sizes[k] for k in self.enumerated]
        flat = member_indices(net, self.rows[self.enumerated], kept) if kept else np.zeros(0, int)
        ends = np.cumsum([0] + kept)
        self.starts, self.stops = ends[:-1], ends[1:]
        self.pat_of_slot = np.repeat(np.array(self.enumerated, dtype=np.int64), kept)
        self.uniq, self.loc = np.unique(flat, return_inverse=True)
        self.n_slots = len(flat)

    def _check(self, net: Network) -> None:
        if net.nodes != self.net.nodes:
            raise DataError("network structure differs from the pattern table's")

    @cached_property
    def cells(self) -> np.ndarray:
        """Each distinct member's `network.state_cells` row, built on first
        use."""
        return state_cells(self.net, unravel_rows(self.net, self.uniq))

    def probs(self, net: Network) -> np.ndarray:
        """P(x) of each distinct member, as `network.cell_probs` gives it."""
        self._check(net)
        return cell_probs(net, self.cells)

    def member_probs(self, net: Network) -> tuple[np.ndarray, np.ndarray]:
        """P(x) per slot, and P(U) per pattern from its members (zero for
        the tree's patterns)."""
        self._check(net)
        p_u = np.zeros(len(self.rows))
        p_slot = self.probs(net)[self.loc] if self.enumerated else np.zeros(0)
        p_u[self.enumerated] = np.add.reduceat(p_slot, self.starts)
        return p_slot, p_u

    def pattern_probs(self, net: Network) -> np.ndarray:
        """P(U) per pattern: the sum of its members' probabilities, or one
        batched collect pass of the tree."""
        p_u = self.member_probs(net)[1]
        if self.on_tree:
            p_u[self.on_tree] = self.net.clique_tree.probability(net, self.rows[self.on_tree])
        return p_u

    def expected_counts(self, net: Network, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P(U) per pattern and the expected family counts, laid out as
        `Network.theta` (the E step): the enumerated patterns' counts, then
        each tree pattern's added in turn, all from one batched calibration.
        Pattern k carries weights[k]; patterns of probability zero add
        nothing to the counts.
        """
        p_slot, p_u = self.member_probs(net)
        scale = np.divide(weights, p_u, out=np.zeros_like(p_u), where=p_u > 0)
        if self.enumerated:
            weights_of_slot = p_slot * scale[self.pat_of_slot]
            counts = family_counts(net, self.cells[self.loc], weights_of_slot)
        else:
            counts = np.zeros(len(net.theta))
        if self.on_tree:
            p_tree, joint = self.net.clique_tree.calibrate(net, self.rows[self.on_tree])
            p_u[self.on_tree] = p_tree
            live = p_tree > 0.0
            terms = weights[self.on_tree][live, None] * (joint[live] / p_tree[live, None])
            counts = np.vstack([counts, terms]).sum(axis=0)  # row after row, in order
        return p_u, counts

    def tree_sample(self, net: Network, k: int, size: int, rng: np.random.Generator):
        """The flat joint indices of `size` members of pattern k drawn on the
        clique tree, each with probability P(x | U); None when P(U) is zero.
        The missing nodes are drawn in topological order, each from its
        conditional given the evidence and the nodes drawn so far: one
        collect pass per node over every replica and state, then
        `rng.choice`'s inverse CDF on uniforms drawn up front, replica after
        replica: on the same probabilities, the draws of one `rng.choice`
        per replica and node.  Except when a later node's total underflows
        to 0.0 while P(U) > 0: the draw is None, having taken all uniforms."""
        self._check(net)
        row = self.rows[k]
        missing = [i for i in net.topo_order if row[i] < 0]
        x = np.repeat(row[None], size, axis=0)
        for j, i in enumerate(missing):
            card = net.cards[i]
            batch = np.repeat(x, card, axis=0)
            batch[:, i] = np.tile(np.arange(card), size)
            p = self.net.clique_tree.probability(net, batch).reshape(size, card)
            total = p.cumsum(axis=1)[:, -1:]  # Python's sum: state after state
            if (total <= 0.0).any():
                return None
            if j == 0:  # P(U) > 0
                u = rng.random((size, len(missing)))
            cdf = (p / total).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            x[:, i] = (cdf <= u[:, j : j + 1]).sum(axis=1)  # searchsorted, side="right"
        return x @ np.array(net.ravel_strides, dtype=np.int64)


class BoundDataset:
    """A dataset bound once to a network's nodes: the one place that binds
    its patterns and answers their queries.

    `distinct`, `case_pattern` and `case_weights` are the dataset's own
    grouping (`data.Dataset`), shared, not copied.  `distinct_rows` holds
    the distinct patterns' bound rows, bound in one pass, so a malformed
    case is refused whatever its weight.  `patterns`, `rows`, `weights`
    and `sizes` (member counts, as exact ints) keep the patterns of
    positive weight, in the same order; `total` is the total weight, which
    must be positive, `m` the positive patterns' shares of it and
    `entropy` H(m).  `table` answers the patterns' queries, and
    `member_table` hands out a table that enumerates them all.
    """

    def __init__(self, net: Network, data: Dataset):
        self.net = net
        self.distinct = data.distinct
        self.case_pattern = data.case_pattern
        self.case_weights = data.case_weights
        self.distinct_rows = _bind(net, data.variables, self.distinct)
        grouped = np.bincount(data.case_pattern, data.case_weights)  # in case order
        live = grouped > 0
        self.patterns = [p for p, keep in zip(self.distinct, live.tolist()) if keep]
        self.rows = self.distinct_rows[live]
        self.weights = grouped[live]
        radix = np.where(self.rows < 0, net.cards, 1)
        self.sizes = [math.prod(r) for r in radix.tolist()]  # no int64 wrap
        self.total = data.total_weight
        if not self.total > 0:
            raise DataError("total weight must be positive")
        self.m = self.weights / self.total
        self.entropy = -math.fsum(f * math.log(f) for f in self.m.tolist() if f > 0)

    @cached_property
    def table(self) -> MemberTable:
        """The patterns' queries: patterns enumerated smallest first within
        DENSE_TABLE_BUDGET members, the rest answered on the clique tree."""
        return MemberTable(self.net, self.rows, self.sizes, DENSE_TABLE_BUDGET)

    def member_table(self, budget: float) -> MemberTable:
        """A table that enumerates every pattern: `table` within
        DENSE_TABLE_BUDGET, else one built here.  BudgetError, before any
        enumeration, when the members exceed budget, one pattern's exceed
        ENUM_BUDGET, or the joint space cannot be indexed in int64."""
        n = sum(self.sizes)
        if n > budget:
            raise BudgetError(f"{n} pattern members exceed the enumeration budget {budget}")
        if max(self.sizes) > ENUM_BUDGET:
            raise BudgetError("case has too many completions to enumerate")
        if not indexable(self.net):
            raise BudgetError("joint space too large to index")
        if n <= DENSE_TABLE_BUDGET:
            return self.table
        return MemberTable(self.net, self.rows, self.sizes, n)


def bind(net: Network, data: Dataset | BoundDataset) -> BoundDataset:
    """`data` bound to net: a dataset is bound here, and one bound already
    is used as it is if it shares net's structure (DataError if not)."""
    if not isinstance(data, BoundDataset):
        return BoundDataset(net, data)
    if data.net.nodes != net.nodes:
        raise DataError("network structure differs from the bound dataset's")
    return data
