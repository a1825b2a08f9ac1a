"""Discrete Bayesian networks: representation, validation, sampling, ML fitting.

A network is immutable after construction.  Conditional probability tables
are stored per node as a read-only float64 array with one row per parent
configuration and one column per node state.  Parent configurations are
enumerated in mixed-radix order with the last declared parent varying
fastest, which fixes the row order bit-exactly for the file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

Assignment = tuple[int, ...]

ROW_SUM_TOL = 1e-9
ENUM_BUDGET = 1 << 20


@dataclass(frozen=True)
class NodeSpec:
    """One variable: unique name, ordered state labels, ordered parent names."""

    name: str
    states: tuple[str, ...]
    parents: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "parents", tuple(self.parents))


@dataclass(frozen=True, eq=False)
class Network:
    """A named DAG of NodeSpecs plus one CPT per node."""

    name: str
    nodes: tuple[NodeSpec, ...]
    cpts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        tables = []
        for table in self.cpts:
            arr = np.array(table, dtype=np.float64)
            if arr.ndim == 1:
                arr = arr.reshape(1, -1)
            arr.setflags(write=False)
            tables.append(arr)
        object.__setattr__(self, "cpts", tuple(tables))

    # ------------------------------------------------------------------
    # structure lookups (cached; the instance is immutable).  Each depends on
    # the nodes alone, so `with_cpts` hands the ones computed so far on.

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {spec.name: i for i, spec in enumerate(self.nodes)}

    @cached_property
    def cards(self) -> tuple[int, ...]:
        return tuple(len(spec.states) for spec in self.nodes)

    @cached_property
    def parent_index(self) -> tuple[tuple[int, ...], ...]:
        idx = self.node_index
        return tuple(tuple(idx[p] for p in spec.parents) for spec in self.nodes)

    @cached_property
    def row_strides(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the stride of each parent in the CPT row index."""
        out = []
        for parents in self.parent_index:
            cards = [self.cards[p] for p in parents]
            strides = []
            acc = 1
            for c in reversed(cards):
                strides.append(acc)
                acc *= c
            out.append(tuple(reversed(strides)))
        return tuple(out)

    @cached_property
    def n_rows(self) -> tuple[int, ...]:
        return tuple(
            math.prod(self.cards[p] for p in parents) for parents in self.parent_index
        )

    @cached_property
    def n_assignments(self) -> int:
        """Size of the joint state space (exact Python int; may be huge)."""
        return math.prod(self.cards)

    @cached_property
    def ravel_strides(self) -> tuple[int, ...]:
        """C-order strides mapping a full assignment to a flat index."""
        strides = []
        acc = 1
        for c in reversed(self.cards):
            strides.append(acc)
            acc *= c
        return tuple(reversed(strides))

    @cached_property
    def family_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """A (nodes, nodes) matrix taking an assignment row to each node's
        flat (parent row, state) cell, and each node's offset in one array
        of all the family tables (one more entry: their total size)."""
        coef = np.zeros((len(self.nodes), len(self.nodes)))
        for i, card in enumerate(self.cards):
            coef[i, i] = 1
            for p, s in zip(self.parent_index[i], self.row_strides[i]):
                coef[p, i] = s * card
        sizes = [r * c for r, c in zip(self.n_rows, self.cards)]
        return coef, np.cumsum([0] + sizes)

    @cached_property
    def card_groups(self) -> dict[int, list[int]]:
        """Node indices by cardinality, in node order."""
        groups: dict[int, list[int]] = {}
        for i, card in enumerate(self.cards):
            groups.setdefault(card, []).append(i)
        return groups

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """Topological order of node indices, stable by declaration order."""
        remaining = set(range(len(self.nodes)))
        placed: set[int] = set()
        order: list[int] = []
        while remaining:
            progress = False
            for i in range(len(self.nodes)):
                if i in remaining and all(p in placed for p in self.parent_index[i]):
                    order.append(i)
                    placed.add(i)
                    remaining.discard(i)
                    progress = True
            if not progress:
                raise DataError(f"network {self.name!r}: parent relation has a cycle")
        return tuple(order)

    # ------------------------------------------------------------------

    def state_index(self, node: str, label: str) -> int:
        i = self.node_index.get(node)
        if i is None:
            raise DataError(f"unknown node {node!r}")
        try:
            return self.nodes[i].states.index(label)
        except ValueError:
            raise DataError(
                f"state {label!r} not in the domain of node {node!r}"
            ) from None

    def parent_row(self, i: int, x: Sequence[int]) -> int:
        """CPT row index of node i selected by a full assignment."""
        row = 0
        for p, s in zip(self.parent_index[i], self.row_strides[i]):
            row += x[p] * s
        return row

    def ravel(self, x: Sequence[int]) -> int:
        r = 0
        for s, v in zip(self.ravel_strides, x):
            r += s * v
        return r

    def unravel(self, r: int) -> Assignment:
        out = []
        for c in reversed(self.cards):
            out.append(r % c)
            r //= c
        return tuple(reversed(out))

    def with_cpts(self, cpts: Sequence[np.ndarray]) -> "Network":
        out = Network(self.name, self.nodes, tuple(cpts))
        out.__dict__.update({k: v for k, v in vars(self).items() if k in _STRUCTURE_LOOKUPS})
        return out


_STRUCTURE_LOOKUPS = frozenset(
    k for k, v in vars(Network).items() if isinstance(v, cached_property)
)


def validate_network(net: Network) -> list[str]:
    """Return every violated invariant with its location; empty means valid."""
    diags: list[str] = []
    seen: set[str] = set()
    for spec in net.nodes:
        if spec.name in seen:
            diags.append(f"duplicate node name {spec.name!r}")
        seen.add(spec.name)
        if len(spec.states) < 2:
            diags.append(f"node {spec.name}: needs at least 2 states")
        if len(set(spec.states)) != len(spec.states):
            diags.append(f"node {spec.name}: duplicate state labels")
        for p in spec.parents:
            if p not in seen and p not in {s.name for s in net.nodes}:
                diags.append(f"node {spec.name}: unknown parent {p!r}")
        if spec.name in spec.parents:
            diags.append(f"node {spec.name}: is its own parent")
        if len(set(spec.parents)) != len(spec.parents):
            diags.append(f"node {spec.name}: duplicate parents")

    # Acyclicity via Kahn's algorithm on whatever edges resolved.
    names = {s.name for s in net.nodes}
    pending = {
        s.name: {p for p in s.parents if p in names and p != s.name}
        for s in net.nodes
    }
    while pending:
        free = sorted(n for n, ps in pending.items() if not ps)
        if not free:
            diags.append("parent relation has a cycle among: " + ", ".join(sorted(pending)))
            break
        for n in free:
            del pending[n]
        for ps in pending.values():
            ps.difference_update(free)

    if len(net.cpts) != len(net.nodes):
        diags.append(
            f"{len(net.cpts)} CPTs for {len(net.nodes)} nodes"
        )
        return diags
    if diags and any(
        "cycle" in d or "unknown parent" in d or "duplicate node" in d for d in diags
    ):
        # CPT shapes are meaningless until the structure itself resolves.
        return diags

    for i, spec in enumerate(net.nodes):
        table = net.cpts[i]
        expect = (net.n_rows[i], len(spec.states))
        if table.shape != expect:
            diags.append(
                f"node {spec.name}: cpt shape {table.shape} != expected {expect}"
            )
            continue
        finite = np.isfinite(table).all(axis=1)
        outside = np.any((table < -1e-12) | (table > 1 + 1e-12), axis=1)
        sums = table.sum(axis=1)
        off = np.abs(sums - 1.0) > ROW_SUM_TOL
        for r in np.flatnonzero(~finite | outside | off).tolist():
            if not finite[r]:
                diags.append(f"node {spec.name}: row {r} has non-finite entries")
                continue
            if outside[r]:
                diags.append(f"node {spec.name}: row {r} has entries outside [0,1]")
            if off[r]:
                diags.append(f"node {spec.name}: row {r} sum {float(sums[r]):.12g} != 1")
    return diags


def joint_probability(net: Network, x: Sequence[int]) -> float:
    """P(x) as the chain-rule product of CPT entries selected by x."""
    if len(x) != len(net.nodes):
        raise DataError(
            f"assignment has {len(x)} coordinates for {len(net.nodes)} nodes"
        )
    p = 1.0
    for i in range(len(net.nodes)):
        p *= net.cpts[i][net.parent_row(i, x), x[i]]
    return float(p)


def unravel_rows(net: Network, idx: np.ndarray) -> np.ndarray:
    """Flat joint indices as an (n, nodes) array of state indices."""
    return np.asarray(idx, dtype=np.int64)[:, None] // net.ravel_strides % net.cards


def joint_probs(net: Network, idx: np.ndarray) -> np.ndarray:
    """P(x) for each flat joint index, as one batch.

    The node-order product of the CPT entries each state selects: the
    multiplications `joint_probability` makes, so the values match it bit
    for bit.
    """
    coef, offsets = net.family_cells
    cells = (unravel_rows(net, idx) @ coef).astype(np.int64) + offsets[:-1]
    entries = np.concatenate([cpt.ravel() for cpt in net.cpts])[cells.T]
    p = np.ones(len(cells))
    for column in entries:
        p = p * column
    return p


def parent_rows(net: Network, rows: np.ndarray, i: int) -> np.ndarray:
    """CPT row index of node i for each assignment row."""
    ridx = np.zeros(rows.shape[0], dtype=np.int64)
    for p, s in zip(net.parent_index[i], net.row_strides[i]):
        ridx += rows[:, p] * s
    return ridx


def sample(net: Network, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n full assignments by ancestral sampling in topological order.

    Returns an (n, k) int array of state indices, deterministic per seed.
    """
    k = len(net.nodes)
    out = np.zeros((n, k), dtype=np.int64)
    if n == 0:
        return out
    for i in net.topo_order:
        cum = np.cumsum(net.cpts[i][parent_rows(net, out, i)], axis=1)
        u = rng.random(n)
        out[:, i] = np.minimum(
            (u[:, None] >= cum).sum(axis=1), len(net.nodes[i].states) - 1
        )
    return out


def randomize_parameters(net: Network, rng: np.random.Generator) -> Network:
    """Replace every CPT row by normalized independent uniform(0,1) draws."""
    cpts = []
    for i in range(len(net.nodes)):
        raw = rng.uniform(size=net.cpts[i].shape)
        cpts.append(raw / raw.sum(axis=1, keepdims=True))
    return net.with_cpts(cpts)


def uniform_cpts(structure: Network) -> Network:
    """Same structure with every CPT row uniform."""
    cpts = []
    for i in range(len(structure.nodes)):
        card = len(structure.nodes[i].states)
        cpts.append(np.full((structure.n_rows[i], card), 1.0 / card))
    return structure.with_cpts(cpts)


# ----------------------------------------------------------------------
# Maximum likelihood from weighted complete data


def family_counts_from_rows(
    structure: Network, rows: np.ndarray, weights: np.ndarray
) -> list[np.ndarray]:
    """Weighted (parent-config, state) count tables, one per node.

    One bincount over every family's cells, row by row, so each cell sums
    its rows' weights in row order.  The cells are exact integers, well
    below 2^53, so the float matrix product computes them exactly.
    """
    weights = np.asarray(weights, dtype=np.float64)
    coef, offsets = structure.family_cells
    cells = np.asarray(rows, dtype=np.float64) @ coef
    cells += offsets[:-1]
    flat = np.bincount(
        cells.astype(np.int64).ravel(),
        weights=np.repeat(weights, len(coef)),
        minlength=int(offsets[-1]),
    )
    return [
        flat[a:b].reshape(r, -1)
        for a, b, r in zip(offsets.tolist(), offsets[1:].tolist(), structure.n_rows)
    ]


def params_from_family_counts(
    structure: Network, counts: Sequence[np.ndarray]
) -> tuple[Network, list[np.ndarray]]:
    """Normalize family counts into CPTs; zero-count rows become uniform.

    Also returns the per-row parent-configuration totals k (fractional
    allowed), which later feed the smoothing map.  Nodes of one
    cardinality are normalized together, row by row as each alone.
    """
    cpts: list[np.ndarray] = [None] * len(structure.nodes)
    row_counts: list[np.ndarray] = [None] * len(structure.nodes)
    for card, group in structure.card_groups.items():
        table = np.concatenate([counts[i] for i in group], dtype=np.float64)
        k = table.sum(axis=1)
        out = np.full_like(table, 1.0 / card)
        np.divide(table, k[:, None], out=out, where=k[:, None] > 0)
        stop = 0
        for i in group:
            start, stop = stop, stop + structure.n_rows[i]
            cpts[i] = out[start:stop]
            row_counts[i] = k[start:stop]
    return structure.with_cpts(cpts), row_counts


def ml_estimate(
    structure: Network,
    weighted_data: Iterable[tuple[Assignment, float]] | tuple[np.ndarray, np.ndarray],
) -> tuple[Network, list[np.ndarray]]:
    """Fit CPTs by weighted relative frequencies of complete assignments.

    Accepts either an iterable of (assignment, weight) pairs or a pair of
    arrays (rows, weights).  Returns the fitted network and the per-row
    parent-config counts.
    """
    if (
        isinstance(weighted_data, tuple)
        and len(weighted_data) == 2
        and isinstance(weighted_data[0], np.ndarray)
    ):
        rows, weights = weighted_data
    else:
        pairs = list(weighted_data)
        if not pairs:
            raise DataError("cannot estimate from an empty dataset")
        rows = np.array([x for x, _ in pairs], dtype=np.int64)
        weights = np.array([w for _, w in pairs], dtype=np.float64)
    if np.any(weights < 0):
        raise DataError("weights must be nonnegative")
    if float(weights.sum()) <= 0:
        raise DataError("total weight must be positive")
    counts = family_counts_from_rows(structure, rows, weights)
    return params_from_family_counts(structure, counts)


def smooth(net: Network, row_counts: Sequence[np.ndarray]) -> Network:
    """Add one pseudo-count per CPT cell: entry -> (entry*k + 1) / (k + m).

    k is that row's data count and m the row length, so row sums are
    preserved exactly and every entry lands strictly inside (0, 1).
    """
    cpts = []
    for i in range(len(net.nodes)):
        table = net.cpts[i]
        k = np.asarray(row_counts[i], dtype=np.float64).reshape(-1, 1)
        if k.shape[0] != table.shape[0]:
            raise DataError(
                f"node {net.nodes[i].name}: {k.shape[0]} row counts for "
                f"{table.shape[0]} rows"
            )
        if np.any(k < 0):
            raise DataError("row counts must be nonnegative")
        m = table.shape[1]
        cpts.append((table * k + 1.0) / (k + m))
    return net.with_cpts(cpts)
