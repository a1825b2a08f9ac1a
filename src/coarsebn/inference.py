"""Exact inference: the pattern table and the clique tree.

Fitters and solvers need, per observation pattern, only the joint states
that match it, called the pattern's members.  `BoundDataset` is the one
place that holds a dataset's patterns, and its `table` (a `MemberTable`)
answers their queries pattern by pattern: it enumerates the patterns
smallest first while their members total at most DENSE_TABLE_BUDGET, and
answers every other pattern on one clique tree.  So one pattern too large
to enumerate takes the tree alone, and the rest keep their members.
DENSE_TABLE_BUDGET is the one member-table budget: the fitters, the face
value and the sat profile all read it.  The sat and car profiles need
every pattern enumerated (`BoundDataset.member_table`), and only the car
normalizer, which never builds the compiled cells, asks for a larger one.

A member table is compiled once per dataset: on first use it stores each
distinct member's `network.state_cells` row, its cell per node in the
concatenated CPTs.  P(x) is then one gather and a node-order product, and
the E step's expected counts one bincount, whatever the parameters.  AIM,
which needs P(x) only at the states its replicas occupy or can move to,
caches those states' cells itself, so a tree pattern's states need no
table.

A clique tree (`CliqueTree`) is compiled once per structure at each call
site, from one min-fill elimination ordering; it refuses a clique of more
than ENUM_BUDGET cells.  One calibration (a collect and a distribute pass)
gives P(U) and every family's P(family, U); the collect pass alone gives
P(U).  The E step makes one calibration per tree pattern, and KL
evaluation one of the truth.

All probabilities are combined in linear space; callers accumulate logs.
Elimination orderings come from a deterministic min-fill heuristic with
lexicographic tie-breaking so results are bit-reproducible across runs."""

from __future__ import annotations

import itertools
import math
import string
from functools import cached_property
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .data import Dataset, member_count, member_flat_indices, pattern_binder
from .errors import BudgetError, DataError, ZeroSupportError
from .network import (
    ENUM_BUDGET,
    Network,
    cell_probs,
    family_counts,
    state_cells,
    unravel_rows,
)

DENSE_TABLE_BUDGET = 100_000

Bound = Sequence[Optional[int]]


def evidence_indices(net: Network, evidence: Mapping[str, str]) -> dict[int, int]:
    """Map {node name: state label} evidence to {node index: state index}."""
    out = {}
    for name, label in evidence.items():
        if name not in net.node_index:
            raise DataError(f"unknown node {name!r}")
        out[net.node_index[name]] = net.state_index(name, label)
    return out


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
    contained in one of its children is merged with it.  Each family sits in
    the clique of its first-eliminated node.  A clique table of more than
    ENUM_BUDGET cells raises BudgetError here, before any query.

    Queries take a network of this structure and a bound (state index or
    None per node).  Evidence zeroes the inconsistent CPT entries, and the
    passes are Shafer-Shenoy messages, with no division; components are
    joined by multiplying in the other components' masses.  So a
    configuration of probability zero keeps a marginal of exactly 0.0.
    Every einsum is compiled here, with axis letters of its own; a clique
    step of more than EINSUM_OPERANDS inputs is folded into chained steps.
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
        for members in scope.values():
            cells = math.prod(net.cards[u] for u in members)
            if cells > ENUM_BUDGET:
                raise BudgetError(
                    f"clique of {cells} cells exceeds the budget {ENUM_BUDGET}"
                )

        self._shapes = [tuple(net.cards[u] for u in fam) for fam in families]
        eye = {c: np.eye(c) for c in set(net.cards)}
        self._eyes = [eye[c] for c in net.cards]
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
            subs = ",".join([codes[j] for j in ins]) + "->"
            program.append((subs + "".join(letters[c][u] for u in out), tuple(ins)))
            return slot(out, reader)

        def sep(c: int, p: int) -> list[int]:
            return sorted(scope[c] & scope[p])

        for i, fam in enumerate(families):
            slot(fam, home[i])
        up: dict[int, int] = {}
        component: dict[int, int] = {}
        self._roots: list[int] = []
        self._collect_steps: list[Step] = []
        for c in cliques:
            ins = held[c] + [up[d] for d in children[c]]
            p = parent[c]
            if p is None:
                component[c] = len(self._roots)
                self._roots.append(step(self._collect_steps, c, ins, (), None))
            else:
                up[c] = step(self._collect_steps, c, ins, sep(c, p), p)

        down: dict[int, int] = {}
        self._distribute_steps: list[Step] = []
        self._family_slots = [0] * k
        self._component = [0] * k
        for c in reversed(cliques):
            if parent[c] is not None:
                component[c] = component[parent[c]]
            own = held[c] + ([down[c]] if c in down else [])
            for d in children[c]:
                ins = own + [up[e] for e in children[c] if e != d]
                if ins:
                    down[d] = step(self._distribute_steps, c, ins, sep(d, c), d)
            for i in held[c]:
                ins = own + [up[d] for d in children[c]]
                self._family_slots[i] = step(self._distribute_steps, c, ins, families[i], None)
                self._component[i] = component[c]

    def _collect(self, net: Network, bound: Bound) -> tuple[list, list[float]]:
        """The collect pass: every slot so far, and each component's mass."""
        slots: list = []
        for cpt, shape, eye, v in zip(net.cpts, self._shapes, self._eyes, bound):
            table = cpt.reshape(shape)
            slots.append(table if v is None else table * eye[v])
        for subs, ins in self._collect_steps:
            slots.append(np.einsum(subs, *[slots[j] for j in ins]))
        return slots, [float(slots[j]) for j in self._roots]

    def probability(self, net: Network, bound: Bound) -> float:
        """P(U), from the collect pass alone."""
        return math.prod(self._collect(net, bound)[1])

    def calibrate(self, net: Network, bound: Bound) -> tuple[float, list[np.ndarray]]:
        """P(U) and, per node, P(family, U) shaped like its CPT."""
        slots, masses = self._collect(net, bound)
        for subs, ins in self._distribute_steps:
            slots.append(np.einsum(subs, *[slots[j] for j in ins]))
        fams = [
            slots[j].reshape(cpt.shape) for j, cpt in zip(self._family_slots, net.cpts)
        ]
        if len(masses) > 1:
            others = [math.prod(masses[:r] + masses[r + 1 :]) for r in range(len(masses))]
            fams = [f * others[r] for f, r in zip(fams, self._component)]
        return math.prod(masses), fams


def _bound_of(net: Network, evidence: Mapping[str, str]) -> list[Optional[int]]:
    ev = evidence_indices(net, evidence)
    return [ev.get(i) for i in range(len(net.nodes))]


def evidence_probability(net: Network, evidence: Mapping[str, str]) -> float:
    """P(X in U) for a missing-value observation: one collect pass.

    `evidence` holds the observed variables; everything else is summed out.
    """
    return CliqueTree(net).probability(net, _bound_of(net, evidence))


def full_joint_table(net: Network) -> np.ndarray:
    """Dense joint distribution over all nodes (C order)."""
    if net.n_assignments > ENUM_BUDGET:
        raise BudgetError(
            f"state space {net.n_assignments} exceeds dense budget {ENUM_BUDGET}"
        )
    full = np.ones(net.cards)
    k = len(net.nodes)
    for i in range(len(net.nodes)):
        axes = tuple(net.parent_index[i]) + (i,)
        table = net.cpts[i].reshape(tuple(net.cards[a] for a in axes))
        order = tuple(np.argsort(axes))
        table = np.transpose(table, order)
        shape = [1] * k
        for ax, size in zip(sorted(axes), table.shape):
            shape[ax] = size
        full = full * table.reshape(shape)
    return full


def posterior_family_marginals(
    net: Network, evidence: Mapping[str, str]
) -> dict[str, np.ndarray]:
    """P(node, parents | X in U) per node, shaped like that node's CPT.

    Each table is a proper joint distribution over (parent config, state);
    raises ZeroSupportError when the evidence itself has probability zero.
    One calibration of a clique tree: patterns small enough to enumerate
    take their posteriors from a `MemberTable` instead.
    """
    p_u, fams = CliqueTree(net).calibrate(net, _bound_of(net, evidence))
    if p_u <= 0.0:
        raise ZeroSupportError("evidence has probability zero under the model")
    return {spec.name: fam / p_u for spec, fam in zip(net.nodes, fams)}


# ----------------------------------------------------------------------
# Per-pattern queries for the fitters


class MemberTable:
    """A dataset's pattern queries, each pattern answered by enumerating its
    members or on the clique tree.

    Patterns are enumerated smallest first while their members total at
    most `budget`, and none when the joint space cannot be indexed in
    int64; `enumerated` lists them and `on_tree` the rest, each in
    first-seen order.  Slots hold the enumerated patterns' members pattern
    after pattern, in `member_flat_indices` order: enumerated[j] owns slots
    starts[j] to stops[j], and pat_of_slot maps a slot back to its pattern
    (an index into `bounds`).  `uniq` holds the distinct flat joint indices
    (sorted) and `loc` each slot's position in it.  The table depends only
    on the structure; every query takes the parameters and refuses a
    network of another structure.  The tree is compiled on first use.
    """

    def __init__(
        self, net: Network, bounds: Sequence[Bound], sizes: list[int], budget: float
    ):
        self.net = net
        self.bounds = list(bounds)
        indexable = net.n_assignments < 1 << 62
        order = sorted(range(len(sizes)), key=sizes.__getitem__) if indexable else []
        running = itertools.accumulate(sizes[k] for k in order)
        fits = {k for k, total in zip(order, running) if total <= budget}
        self.enumerated = sorted(fits)
        self.on_tree = sorted(set(range(len(sizes))) - fits)
        kept = [sizes[k] for k in self.enumerated]
        flat = np.concatenate(
            [member_flat_indices(net, self.bounds[k]) for k in self.enumerated]
            + [np.zeros(0, np.int64)]
        )
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

    @cached_property
    def _tree(self) -> CliqueTree:
        return CliqueTree(self.net)

    def probs(self, net: Network) -> np.ndarray:
        """P(x) of each distinct member, as `network.cell_probs` gives it."""
        self._check(net)
        return cell_probs(net, self.cells)

    def _member_probs(self, net: Network) -> tuple[np.ndarray, np.ndarray]:
        """P(x) per slot, and P(U) per pattern from its members (zero for
        the tree's patterns)."""
        self._check(net)
        p_u = np.zeros(len(self.bounds))
        p_slot = self.probs(net)[self.loc] if self.enumerated else np.zeros(0)
        p_u[self.enumerated] = np.add.reduceat(p_slot, self.starts)
        return p_slot, p_u

    def pattern_probs(self, net: Network) -> np.ndarray:
        """P(U) per pattern: the sum of its members' probabilities, or one
        collect pass of the tree."""
        p_u = self._member_probs(net)[1]
        for k in self.on_tree:
            p_u[k] = self._tree.probability(net, self.bounds[k])
        return p_u

    def expected_counts(self, net: Network, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P(U) per pattern and the expected family counts, laid out as
        `Network.theta` (the E step): the enumerated patterns' counts, then
        one tree calibration per other pattern added.  Pattern k carries
        weights[k]; patterns of probability zero add nothing to the counts.
        """
        p_slot, p_u = self._member_probs(net)
        scale = np.divide(weights, p_u, out=np.zeros_like(p_u), where=p_u > 0)
        if self.enumerated:
            weights_of_slot = p_slot * scale[self.pat_of_slot]
            counts = family_counts(net, self.cells[self.loc], weights_of_slot)
        else:
            counts = np.zeros(len(net.theta))
        for k in self.on_tree:
            p_u[k], fams = self._tree.calibrate(net, self.bounds[k])
            if p_u[k] > 0.0:
                counts += weights[k] * (np.concatenate([f.ravel() for f in fams]) / p_u[k])
        return p_u, counts

    def sampler(self, net: Network) -> Callable:
        """draw(k, size, rng): the flat joint indices of `size` members of
        pattern k, each drawn with probability P(x | U); None when P(U) is
        zero.  An enumerated pattern draws from its members; a tree pattern
        draws its missing nodes one by one in topological order, each from
        its conditional given the evidence and the nodes drawn so far (one
        collect pass per state)."""
        p_slot = self.probs(net)[self.loc]
        flat = self.uniq[self.loc]
        slots = dict(zip(self.enumerated, zip(self.starts.tolist(), self.stops.tolist())))

        def draw(k: int, size: int, rng: np.random.Generator):
            if k in slots:
                start, stop = slots[k]
                p = p_slot[start:stop]
                s = float(p.sum())
                if s <= 0.0:
                    return None
                cdf = (p / s).cumsum()  # rng.choice's inverse CDF, unchecked
                cdf /= cdf[-1]
                return flat[start + cdf.searchsorted(rng.random(size), side="right")]
            out: list[int] = []
            for _ in range(size):
                x = list(self.bounds[k])
                for i in net.topo_order:
                    if x[i] is not None:
                        continue
                    probs = []
                    for s in range(net.cards[i]):
                        x[i] = s
                        probs.append(self._tree.probability(net, x))
                    total = sum(probs)
                    if total <= 0.0:
                        return None
                    x[i] = int(rng.choice(len(probs), p=np.array(probs) / total))
                out.append(net.ravel(x))
            return out

        return draw


class BoundDataset:
    """A dataset bound once to a network's nodes: the one place that groups
    cases into patterns, binds them and answers their queries.

    `bound_of` maps every distinct pattern, in first-seen order, to its
    bound, so a malformed case is refused whatever its weight, and
    `case_pattern` gives each case's pattern as an index in that order.  `patterns`,
    `weights`, `bounds` and `sizes` (member counts) keep those of positive
    weight, in the same order; `total` is the total weight, which must be
    positive, `m` the positive patterns' shares of it and `entropy` H(m).
    `table` answers the patterns' queries, and `member_table` hands out a
    table that enumerates them all.
    """

    def __init__(self, net: Network, data: Dataset):
        grouped = data.grouped()
        bind = pattern_binder(net, data.variables)
        self.net = net
        self.data = data
        self.bound_of = {p: bind(p) for p in grouped}
        self.patterns = [p for p, w in grouped.items() if w > 0]
        self.weights = np.array([grouped[p] for p in self.patterns])
        self.bounds = [self.bound_of[p] for p in self.patterns]
        self.sizes = [member_count(net, b) for b in self.bounds]
        self.total = data.total_weight
        if not self.total > 0:
            raise DataError("total weight must be positive")
        self.m = self.weights / self.total
        self.entropy = -math.fsum(f * math.log(f) for f in self.m.tolist() if f > 0)

    @cached_property
    def case_pattern(self) -> np.ndarray:
        ids = dict(zip(self.bound_of, itertools.count()))
        return np.fromiter(map(ids.__getitem__, map(itemgetter(0), self.data.cases)), np.int64)

    @cached_property
    def table(self) -> MemberTable:
        """The patterns' queries: patterns enumerated smallest first within
        DENSE_TABLE_BUDGET members, the rest answered on the clique tree."""
        return MemberTable(self.net, self.bounds, self.sizes, DENSE_TABLE_BUDGET)

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
        if self.net.n_assignments >= 1 << 62:
            raise BudgetError("joint space too large to index")
        if n <= DENSE_TABLE_BUDGET:
            return self.table
        return MemberTable(self.net, self.bounds, self.sizes, n)


def bind(net: Network, data: Dataset | BoundDataset) -> BoundDataset:
    """`data` bound to net: a dataset is bound here, and one bound already
    is used as it is if it shares net's structure (DataError if not)."""
    if not isinstance(data, BoundDataset):
        return BoundDataset(net, data)
    if data.net.nodes != net.nodes:
        raise DataError("network structure differs from the bound dataset's")
    return data
