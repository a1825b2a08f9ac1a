"""Incomplete observations, weighted datasets, completions, and the
recovery of missingness mechanisms from completions.

A case is a tuple of state labels with None marking a missing value,
aligned with the dataset's variable header.  Weights are first-class and
may be fractional, so an exact large-sample pattern distribution can be
written down directly instead of approximated by sampling.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import BudgetError, DataError, FormatError, ZeroSupportError
from .network import ENUM_BUDGET, Assignment, Network
from .util import fmt17

CoarsePattern = tuple[Optional[str], ...]

MISSING_TOKEN = "?"
WEIGHT_COLUMN = "__weight"


@dataclass(frozen=True)
class Dataset:
    """Weighted incomplete observations sharing one variable header."""

    variables: tuple[str, ...]
    cases: tuple[tuple[CoarsePattern, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self, "cases", tuple((tuple(p), float(w)) for p, w in self.cases)
        )
        if len(set(self.variables)) != len(self.variables):
            raise DataError("duplicate variable names in header")
        for pattern, w in self.cases:
            if len(pattern) != len(self.variables):
                raise DataError(
                    f"case width {len(pattern)} != header width {len(self.variables)}"
                )
            if not math.isfinite(w) or w < 0:
                raise DataError(f"bad case weight {w!r}")
        if self.cases and self.total_weight <= 0:
            raise DataError("total weight must be positive")

    @property
    def total_weight(self) -> float:
        return math.fsum(w for _, w in self.cases)

    def grouped(self) -> dict[CoarsePattern, float]:
        """Distinct patterns with accumulated weight, in first-seen order."""
        out: dict[CoarsePattern, float] = {}
        for pattern, w in self.cases:
            out[pattern] = out.get(pattern, 0.0) + w
        return out


def evidence_of(pattern: CoarsePattern, variables: Sequence[str]) -> dict[str, str]:
    """The observed part of a case as {variable: label}."""
    return {v: s for v, s in zip(variables, pattern) if s is not None}


def bind_pattern(
    net: Network, variables: Sequence[str], pattern: CoarsePattern
) -> tuple[Optional[int], ...]:
    """Reorder a case into network node order as state indices (None=missing).

    Network nodes absent from the header count as missing.
    """
    by_var = dict(zip(variables, pattern))
    for v in variables:
        if v not in net.node_index:
            raise DataError(f"dataset variable {v!r} is not a network node")
    bound: list[Optional[int]] = []
    for spec in net.nodes:
        label = by_var.get(spec.name)
        if label is None:
            bound.append(None)
        else:
            bound.append(net.state_index(spec.name, label))
    return tuple(bound)


def compatible_assignments(
    net: Network, bound: Sequence[Optional[int]]
) -> Iterator[Assignment]:
    """Lazily enumerate the full assignments a case is consistent with."""
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


def member_count(net: Network, bound: Sequence[Optional[int]]) -> int:
    n = 1
    for i, v in enumerate(bound):
        if v is None:
            n *= net.cards[i]
    return n


def member_flat_indices(
    net: Network, bound: Sequence[Optional[int]], budget: int = ENUM_BUDGET
) -> np.ndarray:
    """Flat (C-order) joint indices of all compatible assignments."""
    if member_count(net, bound) > budget:
        raise BudgetError("case has too many completions to enumerate")
    base = 0
    offsets = np.zeros(1, dtype=np.int64)
    for i, v in enumerate(bound):
        stride = net.ravel_strides[i]
        if v is not None:
            base += stride * v
        else:
            step = (np.arange(net.cards[i], dtype=np.int64) * stride)
            offsets = (offsets[:, None] + step[None, :]).reshape(-1)
    return offsets + base


@dataclass(frozen=True)
class PatternDistribution:
    """Relative frequency of each distinct observation pattern."""

    freqs: tuple[tuple[CoarsePattern, float], ...]
    entropy: float

    @classmethod
    def from_dataset(cls, data: Dataset) -> "PatternDistribution":
        grouped = data.grouped()
        total = data.total_weight
        if total <= 0:
            raise DataError("total weight must be positive")
        freqs = tuple((p, w / total) for p, w in grouped.items())
        entropy = -math.fsum(f * math.log(f) for _, f in freqs if f > 0)
        return cls(freqs, entropy)

    def as_dict(self) -> dict[CoarsePattern, float]:
        return dict(self.freqs)


def empirical_pattern_distribution(data: Dataset) -> PatternDistribution:
    return PatternDistribution.from_dataset(data)


@dataclass(frozen=True)
class Completion:
    """Per case, a distribution over that case's compatible assignments."""

    per_case: tuple[Mapping[Assignment, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_case", tuple(dict(d) for d in self.per_case))


def check_completion(c: Completion, data: Dataset, net: Network) -> list[str]:
    """Diagnostics for support compatibility and per-case normalization."""
    diags = []
    if len(c.per_case) != len(data.cases):
        return [f"{len(c.per_case)} case distributions for {len(data.cases)} cases"]
    for i, ((pattern, _), dist) in enumerate(zip(data.cases, c.per_case)):
        bound = bind_pattern(net, data.variables, pattern)
        s = math.fsum(dist.values())
        if abs(s - 1.0) > 1e-12:
            diags.append(f"case {i}: distribution sums to {s!r}")
        for x, p in dist.items():
            if p < 0:
                diags.append(f"case {i}: negative mass on {x}")
            for coord, v in zip(x, bound):
                if v is not None and coord != v:
                    diags.append(f"case {i}: support point {x} conflicts with case")
                    break
    return diags


def completion_distribution(
    c: Completion, data: Dataset
) -> dict[Assignment, float]:
    """The weighted mixture of per-case completion distributions."""
    if len(c.per_case) != len(data.cases):
        raise DataError("completion does not match the dataset")
    total = data.total_weight
    out: dict[Assignment, float] = {}
    for (pattern, w), dist in zip(data.cases, c.per_case):
        for x, p in dist.items():
            if p:
                out[x] = out.get(x, 0.0) + w * p / total
    return out


@dataclass(frozen=True)
class CoarseningModel:
    """Explicit missingness parameters lambda[x][pattern] for enumerable spaces.

    Rows are stored for states that appear in some completion support; any
    other state implicitly reports itself (its fully observed pattern) with
    probability one.  `car` marks mechanisms whose lambda does not depend
    on x within a pattern.
    """

    n_states: int
    rows: tuple[tuple[Assignment, tuple[tuple[CoarsePattern, float], ...]], ...]
    car: bool = False

    def row(self, x: Assignment) -> dict[CoarsePattern, float]:
        for key, lams in self.rows:
            if key == x:
                return dict(lams)
        return {}

    def check(self) -> list[str]:
        diags = []
        by_pattern: dict[CoarsePattern, list[float]] = {}
        for x, lams in self.rows:
            s = math.fsum(l for _, l in lams)
            if abs(s - 1.0) > 1e-9:
                diags.append(f"state {x}: lambda mass {s!r} != 1")
            for pattern, l in lams:
                if l < -1e-15 or l > 1 + 1e-12:
                    diags.append(f"state {x}: lambda {l!r} outside [0,1]")
                if any(v is None for v in pattern):
                    by_pattern.setdefault(pattern, []).append(l)
        if self.car:
            for pattern, values in by_pattern.items():
                if max(values) - min(values) > 1e-9:
                    diags.append(
                        f"pattern {pattern}: lambda varies across states under car"
                    )
        return diags


def recover_coarsening(
    m: PatternDistribution, c: Completion, data: Dataset, net: Network
) -> CoarseningModel:
    """Invert a completion into the mechanism that makes it self-consistent.

    lambda[x][U] = m(U) * c(U)(x) / P_c(x); per-pattern completions are the
    weight-averaged case completions.  Each state's leftover mass goes to
    its own fully observed pattern, so row sums stay testable without
    enumerating every subset of the joint space.
    """
    if net.n_assignments > ENUM_BUDGET:
        raise BudgetError("state space too large to recover a coarsening model")
    p_c = completion_distribution(c, data)
    grouped_mass: dict[CoarsePattern, float] = {}
    pattern_dist: dict[CoarsePattern, dict[Assignment, float]] = {}
    for (pattern, w), dist in zip(data.cases, c.per_case):
        grouped_mass[pattern] = grouped_mass.get(pattern, 0.0) + w
        acc = pattern_dist.setdefault(pattern, {})
        for x, p in dist.items():
            acc[x] = acc.get(x, 0.0) + w * p
    freqs = m.as_dict()
    lam: dict[Assignment, dict[CoarsePattern, float]] = {}
    for pattern, acc in pattern_dist.items():
        total = grouped_mass[pattern]
        if total <= 0:
            continue
        m_u = freqs.get(pattern)
        if m_u is None:
            raise DataError("pattern distribution does not cover the dataset")
        for x, mass in acc.items():
            cx = mass / total
            if cx <= 0:
                continue
            if p_c.get(x, 0.0) <= 0:
                raise ZeroSupportError(
                    f"completion puts mass on {x} but P_c({x}) = 0"
                )
            lam.setdefault(x, {})[pattern] = m_u * cx / p_c[x]
    rows = []
    for x in sorted(lam):
        entries = lam[x]
        used = math.fsum(entries.values())
        residual = 1.0 - used
        if residual > 1e-12:
            self_pattern = tuple(
                net.nodes[net.node_index[v]].states[x[net.node_index[v]]]
                for v in data.variables
            )
            entries[self_pattern] = entries.get(self_pattern, 0.0) + residual
        pattern_key = lambda kv: tuple((v is None, v or "") for v in kv[0])
        rows.append((x, tuple(sorted(entries.items(), key=pattern_key))))
    return CoarseningModel(net.n_assignments, tuple(rows), car=False)


# ----------------------------------------------------------------------
# CSV dataset format


def parse_dataset_csv(text: str) -> Dataset:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty dataset file") from None
    header = [h.strip() for h in header]
    has_weight = bool(header) and header[-1] == WEIGHT_COLUMN
    variables = tuple(header[:-1] if has_weight else header)
    if not variables:
        raise FormatError("dataset needs at least one variable column")
    cases = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise FormatError(
                f"line {lineno}: {len(row)} cells for {len(header)} columns"
            )
        if has_weight:
            try:
                w = float(row[-1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad weight {row[-1]!r}") from None
            values = row[:-1]
        else:
            w = 1.0
            values = row
        pattern = tuple(
            None if cell.strip() == MISSING_TOKEN else cell.strip() for cell in values
        )
        cases.append((pattern, w))
    return Dataset(variables, tuple(cases))


def format_dataset_csv(data: Dataset) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    unit_weights = all(w == 1.0 for _, w in data.cases)
    header = list(data.variables) + ([] if unit_weights else [WEIGHT_COLUMN])
    writer.writerow(header)
    for pattern, w in data.cases:
        row = [MISSING_TOKEN if v is None else v for v in pattern]
        if not unit_weights:
            row.append(fmt17(w))
        writer.writerow(row)
    return out.getvalue()


def read_dataset(path: str | Path) -> Dataset:
    return parse_dataset_csv(Path(path).read_text(encoding="utf-8"))


def write_dataset(data: Dataset, path: str | Path) -> None:
    Path(path).write_text(format_dataset_csv(data), encoding="utf-8")
