"""Incomplete observations, weighted datasets and completions.

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
from typing import Mapping, Optional

from .errors import DataError, FormatError
from .network import Assignment
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
        try:
            total = self.total_weight
        except OverflowError:
            raise DataError("total weight overflows") from None
        if self.cases and total <= 0:
            raise DataError("total weight must be positive")

    @property
    def total_weight(self) -> float:
        return math.fsum(w for _, w in self.cases)


@dataclass(frozen=True)
class Completion:
    """Per case, a distribution over that case's compatible assignments."""

    per_case: tuple[Mapping[Assignment, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_case", tuple(dict(d) for d in self.per_case))


# ----------------------------------------------------------------------
# CSV dataset format


def parse_dataset_csv(text: str) -> Dataset:
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise FormatError(f"malformed dataset CSV: {exc}") from None
    if not rows:
        raise FormatError("empty dataset file")
    header = [h.strip() for h in rows[0]]
    has_weight = bool(header) and header[-1] == WEIGHT_COLUMN
    variables = tuple(header[:-1] if has_weight else header)
    if not variables:
        raise FormatError("dataset needs at least one variable column")
    cases = []
    for lineno, row in enumerate(rows[1:], start=2):
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
