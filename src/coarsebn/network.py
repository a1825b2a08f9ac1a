"""Discrete Bayesian networks: representation, validation, sampling, ML fitting.

A network is immutable after construction.  Its parameters are one
read-only float64 vector, `Network.theta`: the conditional probability
tables node after node in C order, one row per parent configuration and
one column per node state, of which `cpts[i]` is a read-only 2-D view.
Parent configurations are enumerated in mixed-radix order with the last
declared parent varying fastest, which fixes the row order bit-exactly for
the file format.  Refits, smoothing and the row checks each make one pass
over theta, a cardinality at a time.  Parameters are set by the
constructor (per-node tables) or by `Network.with_theta` (a flat vector),
and both fitters take their start network from `start_network`: uniform,
random or a given network, checked against the structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

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
    """A named DAG of NodeSpecs plus one CPT per node (copied into `theta`;
    a 1-D table is one row)."""

    name: str
    nodes: tuple[NodeSpec, ...]
    cpts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        tables = [np.asarray(t, dtype=np.float64) for t in self.cpts]
        shapes = [(1, t.size) if t.ndim == 1 else t.shape for t in tables]
        self._hold(np.concatenate([np.zeros(0), *(t.ravel() for t in tables)]), shapes)

    def _hold(self, theta: np.ndarray, shapes) -> None:
        """Make theta this network's read-only parameters, viewed per node."""
        theta.setflags(write=False)
        ends = [0, *accumulate(map(math.prod, shapes))]
        views = tuple(theta[a:b].reshape(s) for a, b, s in zip(ends, ends[1:], shapes))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "cpts", views)

    # ------------------------------------------------------------------
    # structure lookups (cached; the instance is immutable).  Each depends on
    # the nodes alone, so `with_theta` hands the ones computed so far on.

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {spec.name: i for i, spec in enumerate(self.nodes)}

    @cached_property
    def cards(self) -> tuple[int, ...]:
        return tuple(len(spec.states) for spec in self.nodes)

    @cached_property
    def parent_index(self) -> tuple[tuple[int, ...], ...]:
        idx = self.node_index
        for spec in self.nodes:
            for p in spec.parents:
                if p not in idx:
                    raise DataError(f"node {spec.name}: unknown parent {p!r}")
        return tuple(tuple(idx[p] for p in spec.parents) for spec in self.nodes)

    @cached_property
    def row_strides(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the stride of each parent in the CPT row index."""
        return tuple(
            tuple(math.prod(self.cards[q] for q in ps[j + 1:]) for j in range(len(ps)))
            for ps in self.parent_index
        )

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
        return tuple(math.prod(self.cards[i + 1:]) for i in range(len(self.cards)))

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
    def node_rows(self) -> tuple[slice, ...]:
        """Each node's CPT rows in the rows of all CPTs, node after node."""
        return tuple(map(slice, [0, *accumulate(self.n_rows)], accumulate(self.n_rows)))

    @cached_property
    def card_rows(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per cardinality, the rows of its nodes' CPTs in node order, and
        their entries in theta as a (rows, card) index matrix."""
        row_card = np.repeat(np.array(self.cards, dtype=np.int64), self.n_rows)
        first = np.cumsum(row_card) - row_card
        out = {}
        for card in dict.fromkeys(self.cards):
            rows = np.flatnonzero(row_card == card)
            out[card] = rows, first[rows, None] + np.arange(card)
        return out

    @cached_property
    def clique_tree(self):
        """This structure's `inference.CliqueTree`, compiled on first use."""
        from .inference import CliqueTree
        return CliqueTree(self)

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """Topological order of node indices, stable by declaration order."""
        order, unplaced = _placement(self.parent_index)
        if unplaced:
            raise DataError(f"network {self.name!r}: parent relation has a cycle")
        return order

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

    def with_theta(self, theta: np.ndarray) -> "Network":
        """This structure with parameters theta (copied), laid out as
        `theta` is: no table is copied on its own."""
        theta = np.array(theta, dtype=np.float64)
        if theta.shape != (self.family_cells[1][-1],):
            raise DataError(f"theta of shape {theta.shape} for {self.family_cells[1][-1]} cells")
        out = object.__new__(Network)
        out.__dict__.update({k: v for k, v in vars(self).items() if k in _KEPT})
        out._hold(theta, list(zip(self.n_rows, self.cards)))
        return out


_KEPT = frozenset(
    k for k, v in vars(Network).items() if isinstance(v, cached_property)
) | {"name", "nodes"}


def _placement(parents: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], list[int]]:
    """Nodes placed in passes over declaration order, each once its parent
    indices are, so one placed early in a pass frees later ones in it; and
    the nodes left unplaced, those on or below a cycle."""
    placed = [False] * len(parents)
    order: list[int] = []
    progress = True
    while progress:
        progress = False
        for i, ps in enumerate(parents):
            if not placed[i] and all(placed[p] for p in ps):
                placed[i] = progress = True
                order.append(i)
    return tuple(order), [i for i, done in enumerate(placed) if not done]


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
            if p not in net.node_index:
                diags.append(f"node {spec.name}: unknown parent {p!r}")
        if spec.name in spec.parents:
            diags.append(f"node {spec.name}: is its own parent")
        if len(set(spec.parents)) != len(spec.parents):
            diags.append(f"node {spec.name}: duplicate parents")

    # Acyclicity on whatever edges resolved; of duplicate names the last
    # declaration stands, as in `node_index`.
    idx = net.node_index
    edges = [[idx[p] for p in s.parents if p in idx and p != s.name] for s in net.nodes]
    cyclic = [net.nodes[i].name for i in _placement(edges)[1] if idx[net.nodes[i].name] == i]
    if cyclic:
        diags.append("parent relation has a cycle among: " + ", ".join(sorted(cyclic)))

    if len(net.cpts) != len(net.nodes):
        diags.append(f"{len(net.cpts)} CPTs for {len(net.nodes)} nodes")
        return diags
    if diags and any(
        "cycle" in d or "unknown parent" in d or "duplicate node" in d for d in diags
    ):
        # CPT shapes are meaningless until the structure itself resolves.
        return diags

    misshapen = {}
    for i, (spec, table) in enumerate(zip(net.nodes, net.cpts)):
        expect = (net.n_rows[i], len(spec.states))
        if table.shape != expect:
            misshapen[i] = f"node {spec.name}: cpt shape {table.shape} != expected {expect}"
    theta = net.theta
    if misshapen:  # zeros stand in for a misshapen table; its rows go unchecked
        theta = np.concatenate([np.zeros(0), *(
            np.zeros(r * c) if i in misshapen else t.ravel()
            for i, (t, r, c) in enumerate(zip(net.cpts, net.n_rows, net.cards)))])
    row_node = np.repeat(np.arange(len(net.nodes)), net.n_rows)
    finite, outside = np.empty((2, len(row_node)), dtype=bool)
    sums = np.empty(len(row_node))
    for rows, cells in net.card_rows.values():
        table = theta[cells]
        finite[rows] = np.isfinite(table).all(axis=1)
        outside[rows] = np.any((table < -1e-12) | (table > 1 + 1e-12), axis=1)
        sums[rows] = table.sum(axis=1)
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    flagged = (~finite | outside | off) & ~np.isin(row_node, list(misshapen))
    found = list(misshapen.items())
    for r in np.flatnonzero(flagged).tolist():
        i = int(row_node[r])
        where = f"node {net.nodes[i].name}: row {r - net.node_rows[i].start}"
        if not finite[r]:
            found.append((i, f"{where} has non-finite entries"))
            continue
        if outside[r]:
            found.append((i, f"{where} has entries outside [0,1]"))
        if off[r]:
            found.append((i, f"{where} sum {float(sums[r]):.12g} != 1"))
    return diags + [d for _, d in sorted(found, key=lambda f: f[0])]


def indexable(net: Network) -> bool:
    """Whether net's flat joint indices fit in int64: fewer than 2^62 states.
    Member tables and the replica fitter need them; on a larger space the
    tables enumerate nothing, and the rest refuse it ("joint space too
    large to index")."""
    return net.n_assignments < 1 << 62


def unravel_rows(net: Network, idx: np.ndarray) -> np.ndarray:
    """Flat joint indices as an (n, nodes) array of state indices."""
    return np.asarray(idx, dtype=np.int64)[:, None] // net.ravel_strides % net.cards


def state_cells(net: Network, rows: np.ndarray) -> np.ndarray:
    """Each assignment row's cell per node in the concatenation of the
    flattened CPTs, as a (rows, nodes) int64 matrix.

    The cells are exact integers, well below 2^53, so the float matrix
    product computes them exactly.
    """
    coef, offsets = net.family_cells
    cells = np.asarray(rows, dtype=np.float64) @ coef
    cells += offsets[:-1]
    return cells.astype(np.int64)


def cell_probs(net: Network, cells: np.ndarray) -> np.ndarray:
    """P(x) of each row of `state_cells`: one gather, then the product of
    the CPT entries each state selects, multiplied in node order (a
    multiply reduction runs in order), so the values match the chain rule
    bit for bit.  `inference.full_joint_table` is this product over every
    state."""
    return net.theta[cells].prod(axis=1)


def parent_rows(net: Network, rows: np.ndarray, i: int) -> np.ndarray:
    """CPT row index of node i for each assignment row."""
    ridx = np.zeros(rows.shape[0], dtype=np.int64)
    for p, s in zip(net.parent_index[i], net.row_strides[i]):
        ridx += rows[:, p] * s
    return ridx


def sample(net: Network, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n full assignments by ancestral sampling in topological order.

    Returns an (n, k) int array of state indices, deterministic per seed:
    the transpose of a node-major array.  The uniforms are drawn at once,
    row t for the t-th node in topological order, so the draws are those of
    one `rng.random(n)` per node.  A state counts its CPT row's first
    card - 1 cumulative sums at or below its uniform: the inverse CDF.
    """
    out = np.zeros((len(net.nodes), n), dtype=np.int64)
    u = rng.random((len(net.nodes), n))
    for t, i in enumerate(net.topo_order):
        ridx = parent_rows(net, out.T, i)
        for column in np.cumsum(net.cpts[i][:, :-1], axis=1).T:
            out[i] += u[t] >= column[ridx]
    return out.T


def randomize_parameters(net: Network, rng: np.random.Generator) -> Network:
    """Replace every CPT row by normalized independent uniform(0,1) draws,
    one draw per entry of theta in its order."""
    theta = rng.uniform(size=len(net.theta))
    for _, cells in net.card_rows.values():
        table = theta[cells]
        theta[cells] = table / table.sum(axis=1, keepdims=True)
    return net.with_theta(theta)


def start_network(structure: Network, init: str | Network, seed: int | None = None) -> Network:
    """A fit's start on this structure: uniform rows ("uniform"), one
    `randomize_parameters` draw from `seed` ("random"), or a network's
    parameters, the network checked valid and of this structure's nodes."""
    if isinstance(init, Network):
        diags = validate_network(init)
        if diags:
            raise DataError("initial network invalid: " + "; ".join(diags))
        if init.nodes != structure.nodes:
            raise DataError("initial network does not match the structure")
        return structure.with_theta(init.theta)
    if init == "uniform":
        return uniform_cpts(structure)
    if init == "random":
        return randomize_parameters(structure, np.random.default_rng(seed))
    raise DataError(f"unknown init {init!r}")


def uniform_cpts(structure: Network) -> Network:
    """Same structure with every CPT row uniform."""
    sizes = np.multiply(structure.n_rows, structure.cards)
    return structure.with_theta(1.0 / np.repeat(np.array(structure.cards, dtype=np.float64), sizes))


# ----------------------------------------------------------------------
# Maximum likelihood from weighted complete data


def family_counts(structure: Network, cells: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted (parent-config, state) counts laid out as `theta`, from
    each state's `state_cells` row.

    One bincount over every family's cells, row by row, so each cell sums
    its rows' weights in row order.
    """
    weights = np.asarray(weights, dtype=np.float64)
    return np.bincount(
        cells.ravel(),
        weights=np.repeat(weights, cells.shape[1]),
        minlength=int(structure.family_cells[1][-1]),
    )


def params_from_family_counts(
    structure: Network, counts: np.ndarray
) -> tuple[Network, list[np.ndarray]]:
    """Normalize family counts (laid out as `theta`) into CPTs; zero-count
    rows become uniform.

    Also returns the per-row parent-configuration totals k (fractional
    allowed), one array per node, which later feed the smoothing map.  The
    rows of one cardinality are normalized together, each as on its own.
    """
    theta = np.empty(len(counts))
    k = np.empty(sum(structure.n_rows))
    for card, (rows, cells) in structure.card_rows.items():
        table = counts[cells]
        k[rows] = totals = table.sum(axis=1)
        out = np.full(table.shape, 1.0 / card)
        np.divide(table, totals[:, None], out=out, where=totals[:, None] > 0)
        theta[cells] = out
    return structure.with_theta(theta), list(map(k.__getitem__, structure.node_rows))


def ml_estimate(
    structure: Network, weighted_data: tuple[np.ndarray, np.ndarray]
) -> tuple[Network, list[np.ndarray]]:
    """Fit CPTs by weighted relative frequencies of complete assignments,
    given as arrays (rows of state indices, weights).  Returns the fitted
    network and the per-row parent-config counts.
    """
    rows, weights = weighted_data
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise DataError("weights must be nonnegative")
    if float(weights.sum()) <= 0:
        raise DataError("total weight must be positive")
    counts = family_counts(structure, state_cells(structure, rows), weights)
    return params_from_family_counts(structure, counts)


def smooth(net: Network, row_counts: Sequence[np.ndarray]) -> Network:
    """Add one pseudo-count per CPT cell: entry -> (entry*k + 1) / (k + m).

    k is that row's data count (one array per node) and m the row length,
    so row sums are preserved exactly and every entry lands strictly inside
    (0, 1).  One pass over theta, a cardinality at a time.
    """
    sizes = tuple(map(np.size, row_counts))
    if sizes != net.n_rows:
        raise DataError(f"row counts per node {sizes} for CPT rows per node {net.n_rows}")
    k = np.concatenate([np.zeros(0), *map(np.ravel, row_counts)])
    if np.any(k < 0):
        raise DataError("row counts must be nonnegative")
    theta = np.empty_like(net.theta)
    for card, (rows, cells) in net.card_rows.items():
        kr = k[rows, None]
        theta[cells] = (net.theta[cells] * kr + 1.0) / (kr + card)
    return net.with_theta(theta)
