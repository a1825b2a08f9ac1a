"""Small shared helpers: option checks, seeding, formatting, bundled fixture paths."""

from __future__ import annotations

import hashlib
import math
import numbers
from pathlib import Path

from .errors import DataError


def check_int(name: str, value, low: int) -> None:
    """Refuse anything but an integer (a bool counts) of at least low, 0 or 1."""
    if not isinstance(value, numbers.Integral) or value < low:
        kind = "positive" if low else "non-negative"
        raise DataError(f"{name} must be a {kind} integer; got {value!r}")


def check_tol(tol) -> None:
    """Refuse a negative, infinite or NaN tolerance: an infinite one would
    stop a fit or solve at its start and report it converged."""
    if not 0 <= tol < math.inf:
        raise DataError(f"tol must be a non-negative number; got {tol!r}")


def stable_child_seed(*parts) -> int:
    """Derive a deterministic 63-bit child seed from arbitrary parts.

    Uses SHA-256 so the derivation is stable across platforms and Python
    processes (unlike the builtin hash), which makes parallel runs that
    derive per-index seeds reproducible.
    """
    text = ":".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture file (networks, datasets)."""
    path = Path(__file__).parent / "fixtures" / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path
