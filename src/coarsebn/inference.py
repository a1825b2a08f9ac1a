"""Exact inference: the pattern member table and variable elimination.

Fitters and solvers need, per observation pattern, only the joint states
that match it, called the pattern's members.  `pattern_table` is the one
place that decides how a pattern's probabilities are obtained: when the
dataset's total member count is within DENSE_TABLE_BUDGET it enumerates the
members once (`MemberTable`) and answers every query from them; above the
budget the same queries run variable elimination (`EliminationQueries`),
the only path for patterns too large to enumerate.

A member table is compiled once per dataset: on first use it stores, per
node, each distinct member's cell in that node's flattened CPT.  P(x) is
then one gather per node, and the E step's expected counts and the AIM
refit's completion counts one bincount per node, whatever the parameters.

All probabilities are combined in linear space; callers accumulate logs.
Elimination orderings come from a deterministic min-fill heuristic with
lexicographic tie-breaking so results are bit-reproducible across runs.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .data import Dataset, member_count, member_flat_indices, pattern_binder
from .errors import BudgetError, DataError, ZeroSupportError
from .network import (
    ENUM_BUDGET,
    Network,
    family_counts_from_rows,
    joint_probability,
    parent_rows,
    unravel_rows,
)

DENSE_TABLE_BUDGET = 1 << 16

Bound = Sequence[Optional[int]]
Factor = tuple[tuple[int, ...], np.ndarray]  # sorted node indices, table


def evidence_indices(net: Network, evidence: Mapping[str, str]) -> dict[int, int]:
    """Map {node name: state label} evidence to {node index: state index}."""
    out = {}
    for name, label in evidence.items():
        if name not in net.node_index:
            raise DataError(f"unknown node {name!r}")
        out[net.node_index[name]] = net.state_index(name, label)
    return out


def _node_factors(net: Network) -> list[Factor]:
    factors = []
    for i in range(len(net.nodes)):
        axes = tuple(net.parent_index[i]) + (i,)
        shape = tuple(net.cards[a] for a in axes)
        table = net.cpts[i].reshape(shape)
        order = tuple(np.argsort(axes))
        factors.append((tuple(sorted(axes)), np.transpose(table, order)))
    return factors


def _clamp(factor: Factor, ev: Mapping[int, int]) -> Factor:
    axes, table = factor
    keep = []
    index: list[object] = []
    for a in axes:
        if a in ev:
            index.append(ev[a])
        else:
            index.append(slice(None))
            keep.append(a)
    return tuple(keep), table[tuple(index)]


def _multiply(f1: Factor, f2: Factor) -> Factor:
    a1, t1 = f1
    a2, t2 = f2
    axes = tuple(sorted(set(a1) | set(a2)))
    def expand(a, t):
        shape = [1] * len(axes)
        for ax, size in zip(a, t.shape):
            shape[axes.index(ax)] = size
        return t.reshape(shape)
    return axes, expand(a1, t1) * expand(a2, t2)


def _sum_out(factor: Factor, v: int) -> Factor:
    axes, table = factor
    pos = axes.index(v)
    return axes[:pos] + axes[pos + 1 :], table.sum(axis=pos)


def _min_fill_order(
    net: Network, scopes: Sequence[tuple[int, ...]], eliminate: set[int]
) -> list[int]:
    """Greedy min-fill over the interaction graph; ties break on node name."""
    adj: dict[int, set[int]] = {}
    for scope in scopes:
        for v in scope:
            adj.setdefault(v, set())
        for v in scope:
            adj[v].update(u for u in scope if u != v)
    for v in eliminate:
        adj.setdefault(v, set())
    order = []
    todo = set(eliminate)
    while todo:
        best = None
        for v in sorted(todo, key=lambda i: net.nodes[i].name):
            nbrs = [u for u in adj[v] if u != v]
            fill = sum(
                1
                for ai in range(len(nbrs))
                for bi in range(ai + 1, len(nbrs))
                if nbrs[bi] not in adj[nbrs[ai]]
            )
            if best is None or fill < best[0]:
                best = (fill, v)
        v = best[1]
        nbrs = [u for u in adj[v] if u != v]
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
        for u in nbrs:
            adj[u].discard(v)
        del adj[v]
        todo.discard(v)
        order.append(v)
    return order


def _run_ve(
    net: Network, ev: Mapping[int, int], keep: set[int]
) -> tuple[list[Factor], float]:
    """Clamp evidence, eliminate everything outside `keep`, return remains."""
    scalar = 1.0
    factors: list[Factor] = []
    for f in _node_factors(net):
        axes, table = _clamp(f, ev)
        if not axes:
            scalar *= float(table)
        else:
            factors.append((axes, table))
    eliminate = {
        v for axes, _ in factors for v in axes if v not in keep and v not in ev
    }
    order = _min_fill_order(net, [f[0] for f in factors], eliminate)
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


def evidence_probability(net: Network, evidence: Mapping[str, str]) -> float:
    """P(X in U) for a missing-value observation, by variable elimination.

    `evidence` holds the observed variables; everything else is summed out.
    """
    ev = evidence_indices(net, evidence)
    factors, scalar = _run_ve(net, ev, keep=set())
    for axes, table in factors:
        scalar *= float(table.sum())
    return scalar


def joint_marginal(
    net: Network, query: Sequence[str], evidence: Mapping[str, str] | None = None
) -> np.ndarray:
    """Unnormalized P(query vars, evidence) as an array over the query cards.

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
    prod: Factor | None = None
    for f in factors:
        prod = f if prod is None else _multiply(prod, f)
    out_shape = tuple(net.cards[i] for i in qidx)
    out = np.zeros(out_shape)
    # Embed the eliminated result into the query axes; observed query
    # variables become point coordinates.
    index: list[object] = []
    free_axes: list[int] = []
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
        extra = [v for v in axes if v not in free_axes]
        for v in extra:  # query-independent leftovers: sum them away
            axes, table = _sum_out((axes, table), v)
        # axes is sorted; rearrange to the order free_axes appear in qidx
        perm = [axes.index(v) for v in sorted(free_axes)]
        table = np.transpose(table, perm) if perm else table
        want = [v for v in qidx if v not in ev]
        cur = sorted(free_axes)
        table = np.transpose(table, [cur.index(v) for v in want])
        block = table * scalar
    out[tuple(index)] = block
    return out


def full_joint_table(net: Network, budget: int = ENUM_BUDGET) -> np.ndarray:
    """Dense joint distribution over all nodes (C order)."""
    if net.n_assignments > budget:
        raise BudgetError(
            f"state space {net.n_assignments} exceeds dense budget {budget}"
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
    Runs one elimination query per family: patterns small enough to
    enumerate take their posteriors from a `MemberTable` instead.
    """
    return _family_posteriors(net, evidence)[1]


def _family_posteriors(net: Network, evidence: Mapping[str, str]) -> tuple[float, dict]:
    """P(U) and `posterior_family_marginals`: K+1 eliminations for K nodes."""
    p_ev = evidence_probability(net, evidence)
    if p_ev <= 0.0:
        raise ZeroSupportError("evidence has probability zero under the model")
    out: dict[str, np.ndarray] = {}
    for i, spec in enumerate(net.nodes):
        fam_names = [net.nodes[p].name for p in net.parent_index[i]] + [spec.name]
        marg = joint_marginal(net, fam_names, evidence)
        out[spec.name] = marg.reshape(net.n_rows[i], net.cards[i]) / p_ev
    return p_ev, out


# ----------------------------------------------------------------------
# Per-pattern queries for the fitters


class MemberTable:
    """The members of each pattern in a list, enumerated once.

    Slots hold the members pattern after pattern, in `member_flat_indices`
    order: pattern k owns slots starts[k] to stops[k], and pat_of_slot maps
    a slot back to its pattern.  `uniq` holds the distinct flat joint
    indices (sorted) and `loc` each slot's position in it.  The table
    depends only on the structure; every query takes the parameters.
    Networks whose joint space cannot be indexed in int64 are refused.
    """

    def __init__(self, net: Network, bounds: Sequence[Bound], budget: int):
        if net.n_assignments >= 1 << 62:
            raise BudgetError("joint space too large to index")
        sizes = [member_count(net, b) for b in bounds]
        if sum(sizes) > budget:
            raise BudgetError(
                f"{sum(sizes)} pattern members exceed the enumeration budget {budget}"
            )
        self.net = net
        self.bounds = list(bounds)
        flat = np.concatenate(
            [member_flat_indices(net, b) for b in bounds] + [np.zeros(0, np.int64)]
        )
        ends = np.cumsum([0] + sizes)
        self.starts, self.stops = ends[:-1], ends[1:]
        self.pat_of_slot = np.repeat(np.arange(len(sizes)), sizes)
        self.uniq, self.loc = np.unique(flat, return_inverse=True)
        self.n_slots = len(flat)

    def _cells_for(self, net: Network) -> list[np.ndarray]:
        """`cells`, for a network of the table's nodes, states and parents."""
        if net.nodes != self.net.nodes:
            raise DataError("network structure differs from the member table's")
        return self.cells

    @cached_property
    def cells(self) -> list[np.ndarray]:
        """Per node, each distinct member's cell in that node's flattened CPT
        (parent row * card + state), built on first use."""
        rows = unravel_rows(self.net, self.uniq)
        return [
            parent_rows(self.net, rows, i) * card + rows[:, i]
            for i, card in enumerate(self.net.cards)
        ]

    def probs(self, net: Network) -> np.ndarray:
        """P(x) of each distinct member.

        The node-order product of the CPT entries each member selects: the
        same multiplications `full_joint_table` makes, so the values match
        it bit for bit.
        """
        p = np.ones(len(self.uniq))
        for cpt, cell in zip(net.cpts, self._cells_for(net)):
            p = p * cpt.ravel()[cell]
        return p

    def pattern_probs(self, net: Network) -> np.ndarray:
        """P(U) per pattern: the sum of its members' probabilities."""
        return np.add.reduceat(self.probs(net)[self.loc], self.starts)

    def _counts(
        self, net: Network, pos: np.ndarray, weights: np.ndarray
    ) -> list[np.ndarray]:
        """Family count tables of the members at positions `pos` of `uniq`,
        each table summed in the order given."""
        return [
            np.bincount(cell[pos], weights=weights, minlength=cpt.size).reshape(cpt.shape)
            for cpt, cell in zip(net.cpts, self._cells_for(net))
        ]

    def expected_counts(
        self, net: Network, weights: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """P(U) per pattern and the expected family counts (the E step).

        Pattern k carries weights[k]; patterns of probability zero add
        nothing to the counts.
        """
        p_slot = self.probs(net)[self.loc]
        p_u = np.add.reduceat(p_slot, self.starts)
        scale = np.divide(weights, p_u, out=np.zeros_like(p_u), where=p_u > 0)
        return p_u, self._counts(net, self.loc, p_slot * scale[self.pat_of_slot])

    def family_counts(
        self, net: Network, flat_idx: np.ndarray, weights: np.ndarray
    ) -> list[np.ndarray]:
        """Weighted family count tables of completions given as flat joint
        indices, each of which must be a member of some pattern."""
        return self._counts(net, np.searchsorted(self.uniq, flat_idx), weights)

    def log_evaluator(self, net: Network, floor: float) -> Callable[[int], float]:
        """log max(P(x), floor) by flat joint index, for members only."""
        logp = np.log(np.maximum(self.probs(net), floor))
        return dict(zip(self.uniq.tolist(), logp.tolist())).__getitem__

    def sampler(self, net: Network) -> Callable:
        """draw(k, size, rng): the flat joint indices of `size` members of
        pattern k, each drawn with probability P(x | U); None when P(U) is zero."""
        p_slot = self.probs(net)[self.loc]
        flat = self.uniq[self.loc]

        def draw(k: int, size: int, rng: np.random.Generator):
            start = self.starts[k]
            p = p_slot[start : self.stops[k]]
            s = float(p.sum())
            if s <= 0.0:
                return None
            return flat[start + rng.choice(len(p), size=size, p=p / s)]

        return draw


class EliminationQueries:
    """The `MemberTable` queries answered by variable elimination, without
    enumerating members: the path for patterns too large to enumerate."""

    def __init__(self, bounds: Sequence[Bound]):
        self.bounds = list(bounds)

    @staticmethod
    def _evidence(net: Network, bound: Bound) -> dict[str, str]:
        return {
            net.nodes[i].name: net.nodes[i].states[v]
            for i, v in enumerate(bound)
            if v is not None
        }

    def expected_counts(
        self, net: Network, weights: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        p_u = np.zeros(len(self.bounds))
        counts = [np.zeros(c.shape) for c in net.cpts]
        for k, (bound, w) in enumerate(zip(self.bounds, weights)):
            try:
                p_u[k], fams = _family_posteriors(net, self._evidence(net, bound))
            except ZeroSupportError:
                continue
            for i, spec in enumerate(net.nodes):
                counts[i] += w * fams[spec.name]
        return p_u, counts

    @staticmethod
    def family_counts(
        net: Network, flat_idx: np.ndarray, weights: np.ndarray
    ) -> list[np.ndarray]:
        """Weighted family count tables of completions given as flat joint
        indices."""
        return family_counts_from_rows(net, unravel_rows(net, flat_idx), weights)

    def pattern_probs(self, net: Network) -> np.ndarray:
        """P(U) per pattern, one elimination query each."""
        return np.array(
            [evidence_probability(net, self._evidence(net, b)) for b in self.bounds]
        )

    def log_evaluator(self, net: Network, floor: float) -> Callable[[int], float]:
        """log max(P(x), floor) by flat joint index, computed on first use."""
        cache: dict[int, float] = {}

        def logp(r: int) -> float:
            v = cache.get(r)
            if v is None:
                v = math.log(max(joint_probability(net, net.unravel(r)), floor))
                cache[r] = v
            return v

        return logp

    def sampler(self, net: Network) -> Callable:
        """Draw the missing nodes one by one in topological order, each from
        its conditional given the evidence and the nodes drawn so far; the
        draws come back as flat joint indices."""
        names = [spec.name for spec in net.nodes]

        def draw(k: int, size: int, rng: np.random.Generator):
            bound = self.bounds[k]
            out: list[int] = []
            for _ in range(size):
                ev = self._evidence(net, bound)
                x = list(bound)
                for i in net.topo_order:
                    if x[i] is not None:
                        continue
                    states = net.nodes[i].states
                    probs = [
                        evidence_probability(net, {**ev, names[i]: label})
                        for label in states
                    ]
                    total = sum(probs)
                    if total <= 0.0:
                        return None
                    pick = int(rng.choice(len(states), p=np.array(probs) / total))
                    x[i] = pick
                    ev[names[i]] = states[pick]
                out.append(net.ravel(x))
            return out

        return draw


def pattern_table(
    net: Network, bounds: Sequence[Bound]
) -> MemberTable | EliminationQueries:
    """Per-pattern queries for `bounds`: from the enumerated members when
    their total is within DENSE_TABLE_BUDGET, else by variable elimination."""
    if (
        sum(member_count(net, b) for b in bounds) <= DENSE_TABLE_BUDGET
        and net.n_assignments < 1 << 62
    ):
        return MemberTable(net, bounds, DENSE_TABLE_BUDGET)
    return EliminationQueries(bounds)


class BoundDataset:
    """A dataset bound once to a network's nodes: the one place that groups
    cases into patterns and binds them.

    `bound_of` maps every distinct pattern, in first-seen order, to its
    bound, so a malformed case is refused whatever its weight.  `patterns`,
    `weights` and `bounds` keep those of positive weight, in the same order;
    `total` is the total weight, `m` the positive patterns' shares of it and
    `entropy` H(m).  `member_table` builds the patterns' member table on
    first use and hands the same table to every later caller.
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
        self.total = data.total_weight
        self.m = self.weights / self.total
        self.entropy = -math.fsum(f * math.log(f) for f in self.m.tolist() if f > 0)
        self._table: MemberTable | None = None

    def member_table(self, budget: int) -> MemberTable:
        """The member table of `bounds`; BudgetError when their members
        exceed budget (the table is built again only to raise it)."""
        if self._table is None or self._table.n_slots > budget:
            self._table = MemberTable(self.net, self.bounds, budget)
        return self._table
