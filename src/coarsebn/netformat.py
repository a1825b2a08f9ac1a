"""Line-oriented text format for networks.

    network <name>
    node <name> states <s1>,<s2>[,...]
    parents <name> <p1>[,<p2>...]
    cpt <name> [| <p1>=<v1>,<p2>=<v2>...] : <q1>,<q2>[,...]

'#' starts a comment.  Probabilities are listed in the node's declared
state order; there must be exactly one cpt line per parent configuration.
Rows whose sum is off by more than 1e-6 are rejected; accepted rows are
renormalized only if they are off by more than 1e-12.

A name or label holds no line break and no '#', nor space at either end;
a node name holds no space at all, nor any of ',|='; a state label holds
no ','.  The dataset CSV reserves the label '?' (a missing value) and the
node name '__weight' (the weight column), so both are refused.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from .data import MISSING_TOKEN, WEIGHT_COLUMN
from .errors import FormatError
from .network import Network, NodeSpec, validate_network
from .util import fmt17

ROW_PARSE_TOL = 1e-6


def parse_network(text: str) -> Network:
    name = None
    order: list[str] = []
    states: dict[str, tuple[str, ...]] = {}
    parents: dict[str, tuple[str, ...]] = {}
    cpt_lines: list[tuple[int, str, dict[str, str], list[float]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""

        def fail(msg: str) -> FormatError:
            return FormatError(f"line {lineno}: {msg}")

        if keyword == "network":
            if name is not None:
                raise fail("second 'network' line")
            if not rest:
                raise fail("network needs a name")
            name = rest.strip()
        elif keyword == "node":
            try:
                node_name, kw, state_text = rest.split(None, 2)
            except ValueError:
                raise fail("expected: node <name> states <s1>,<s2>[,...]") from None
            if kw != "states":
                raise fail("expected keyword 'states'")
            if node_name in states:
                raise fail(f"node {node_name!r} declared twice")
            if node_name == WEIGHT_COLUMN:
                raise fail(f"node name {WEIGHT_COLUMN!r} is reserved for the dataset weights")
            labels = tuple(s.strip() for s in state_text.split(","))
            if any(not s for s in labels):
                raise fail("empty state label")
            if MISSING_TOKEN in labels:
                raise fail(f"state label {MISSING_TOKEN!r} is reserved for a missing value")
            order.append(node_name)
            states[node_name] = labels
        elif keyword == "parents":
            try:
                node_name, plist = rest.split(None, 1)
            except ValueError:
                raise fail("expected: parents <name> <p1>[,<p2>...]") from None
            if node_name not in states:
                raise fail(f"parents for undeclared node {node_name!r}")
            if node_name in parents:
                raise fail(f"parents of {node_name!r} declared twice")
            parents[node_name] = names = tuple(p.strip() for p in plist.split(","))
            if len(set(names)) < len(names):
                raise fail(f"parent {max(names, key=names.count)!r} of {node_name!r} listed twice")
        elif keyword == "cpt":
            if ":" not in rest:
                raise fail("cpt line needs ': <probabilities>'")
            head, prob_text = rest.rsplit(":", 1)
            head = head.strip()
            if "|" in head:
                node_name, cond = (t.strip() for t in head.split("|", 1))
                try:
                    pairs = [[t.strip() for t in kv.split("=", 1)] for kv in cond.split(",")]
                    config = dict(pairs)
                except ValueError:
                    raise fail("bad parent assignment, expected p=v pairs") from None
                names = [p for p, _ in pairs]
                if len(config) < len(names):
                    twice = max(names, key=names.count)
                    raise fail(f"parent {twice!r} of {node_name!r} assigned twice")
            else:
                node_name, config = head, {}
            if node_name not in states:
                raise fail(f"cpt for undeclared node {node_name!r}")
            try:  # each value and the row sum must be finite
                row = [float(t) for t in prob_text.split(",")]
                if not math.isfinite(math.fsum(row)):
                    raise ValueError
            except (ValueError, OverflowError):
                raise fail("bad probability value") from None
            cpt_lines.append((lineno, node_name, config, row))
        else:
            raise fail(f"unknown keyword {keyword!r}")

    if name is None:
        raise FormatError("missing 'network' line")
    if not order:
        raise FormatError("no nodes declared")

    specs = []
    for n in order:
        for p in parents.get(n, ()):
            if p not in states:
                raise FormatError(f"node {n!r}: unknown parent {p!r}")
        specs.append(NodeSpec(n, states[n], parents.get(n, ())))
    shell = Network(name, tuple(specs), tuple(np.ones((1, len(states[n]))) for n in order))
    # Shapes above are placeholders; rebuild the real tables from cpt lines.
    filled = {n: np.full((r, len(states[n])), np.nan) for n, r in zip(order, shell.n_rows)}

    for lineno, node_name, config, row in cpt_lines:
        i = shell.node_index[node_name]
        declared = shell.nodes[i].parents
        if set(config) != set(declared):
            raise FormatError(
                f"line {lineno}: cpt for {node_name!r} must assign exactly "
                f"its parents {list(declared)}"
            )
        ridx = 0
        for p, stride in zip(declared, shell.row_strides[i]):
            try:
                s = states[p].index(config[p])
            except ValueError:
                raise FormatError(
                    f"line {lineno}: {config[p]!r} is not a state of {p!r}"
                ) from None
            ridx += s * stride
        if len(row) != len(states[node_name]):
            raise FormatError(
                f"line {lineno}: {len(row)} probabilities for "
                f"{len(states[node_name])} states"
            )
        total = math.fsum(row)
        if abs(total - 1.0) > ROW_PARSE_TOL:
            raise FormatError(f"line {lineno}: row sum {total:.9g} != 1")
        if not np.isnan(filled[node_name][ridx, 0]):  # filled rows are finite
            raise FormatError(f"line {lineno}: duplicate cpt row for {node_name!r}")
        arr = np.asarray(row, dtype=np.float64)
        if abs(total - 1.0) > 1e-12:
            arr = arr / total
        filled[node_name][ridx] = arr

    for n in order:
        if np.isnan(filled[n]).any():
            missing = int(np.isnan(filled[n][:, 0]).sum())
            raise FormatError(
                f"node {n!r}: {missing} parent configuration(s) without a cpt row"
            )

    net = Network(name, tuple(specs), tuple(filled[n] for n in order))
    diags = validate_network(net)
    if diags:
        raise FormatError("invalid network: " + "; ".join(diags))
    return net


def _one_line(text: str) -> bool:
    """No line break, no '#' and no space at either end: the text a
    comment-stripped, stripped line gives back."""
    return text.splitlines() == [text] and text == text.strip() and "#" not in text


def format_network(net: Network) -> str:
    """The network as text that `parse_network` reads back to the same
    names, labels and rows; FormatError naming the first name or label
    that it would not."""
    unwritable = "cannot be written in the network format"
    if not _one_line(net.name):
        raise FormatError(f"network name {net.name!r} {unwritable}")
    for spec in net.nodes:
        name = spec.name
        if name.split() != [name] or any(c in name for c in "#,|=") or name == WEIGHT_COLUMN:
            raise FormatError(f"node name {name!r} {unwritable}")
        for label in spec.states:
            if not _one_line(label) or "," in label or label == MISSING_TOKEN:
                raise FormatError(f"state label {label!r} of {name!r} {unwritable}")
    lines = [f"network {net.name}"]
    for spec in net.nodes:
        lines.append(f"node {spec.name} states {','.join(spec.states)}")
    for spec in net.nodes:
        if spec.parents:
            lines.append(f"parents {spec.name} {','.join(spec.parents)}")
    for spec, table in zip(net.nodes, net.cpts):
        parent_states = [net.nodes[net.node_index[p]].states for p in spec.parents]
        # one row per parent configuration, the last parent varying fastest
        for config, row in zip(itertools.product(*parent_states), table):
            cond = ",".join(f"{p}={v}" for p, v in zip(spec.parents, config))
            head = f"cpt {spec.name} | {cond}" if cond else f"cpt {spec.name}"
            lines.append(f"{head} : " + ",".join(fmt17(v) for v in row))
    return "\n".join(lines) + "\n"


def read_network(path: str | Path) -> Network:
    return parse_network(Path(path).read_text(encoding="utf-8-sig"))


def write_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(format_network(net), encoding="utf-8")
