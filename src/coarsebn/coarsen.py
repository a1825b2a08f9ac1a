"""Synthetic incomplete-data generation with dependent missingness.

A source network is augmented with one binary observation node per
variable.  Each observation node gets its variable plus a random set of
extra parents, and per-row missingness probabilities drawn from a Beta
distribution with chosen mean and variance.  Sampling the augmented
network and deleting values whose observation node came out false yields
data that is, in general, not missing at random; variance zero collapses
the rows to a constant and the data becomes MAR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, FormatError
from .network import Network, NodeSpec, sample, validate_network
from .util import check_int

OBS_PREFIX = "obs"
BETA_EDGE = 1e-9


@dataclass(frozen=True)
class CoarseningSpec:
    """Generator knobs: extra-parent cap, missingness mean/variance."""

    mp: int
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.mp < 0:
            raise FormatError("mp must be nonnegative")
        if not 0.0 <= self.mu <= 1.0:
            raise FormatError("mu must lie in [0, 1]")
        if not self.sigma >= 0:
            raise FormatError(f"sigma must be a nonnegative number; got {self.sigma!r}")
        if self.sigma > 0 and self.sigma >= self.mu * (1.0 - self.mu):
            raise FormatError("sigma must be < mu*(1-mu) (or exactly 0)")

    @classmethod
    def parse(cls, text: str) -> "CoarseningSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise FormatError(f"coarsening spec {text!r} is not mp:mu:sigma")
        try:
            return cls(int(parts[0]), float(parts[1]), float(parts[2]))
        except ValueError:
            raise FormatError(f"bad coarsening spec {text!r}") from None

    def __str__(self) -> str:
        return f"{self.mp}:{self.mu:g}:{self.sigma:g}"


def beta_from_mean_variance(mu: float, sigma: float) -> tuple[float, float] | None:
    """Shape parameters of the Beta with the given mean and variance.

    Returns None for sigma == 0, the degenerate point mass at mu.
    """
    if sigma == 0:
        return None
    if not 0.0 < mu < 1.0:
        raise FormatError("Beta mean must lie strictly inside (0, 1)")
    if sigma >= mu * (1.0 - mu):
        raise FormatError("Beta variance must be < mu*(1-mu)")
    nu = mu * (1.0 - mu) / sigma - 1.0
    return mu * nu, (1.0 - mu) * nu


def draw_missingness_probs(
    mu: float, sigma: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-row P(observation node = false) values.

    Beta draws are clipped just inside (0, 1) so no observation pattern
    becomes strictly impossible; a zero-variance spec stays exact.
    """
    shape = beta_from_mean_variance(mu, sigma)
    if shape is None:
        return np.full(size, mu)
    alpha, beta = shape
    return np.clip(rng.beta(alpha, beta, size=size), BETA_EDGE, 1.0 - BETA_EDGE)


def build_coarsening_network(
    net: Network, spec: CoarseningSpec, rng: np.random.Generator
) -> Network:
    """Augment a network with one observation node per variable.

    Observation node obsV has parents {V} plus k extra parents, k uniform
    on {0..mp}, drawn without replacement from the original variables
    (excluding V) and the observation nodes added so far.  Acyclicity holds
    by construction.  The original CPTs are untouched.
    """
    original = [s.name for s in net.nodes]
    specs = list(net.nodes)
    cpts = list(net.cpts)
    obs_specs: list[NodeSpec] = []
    obs_cpts: list[np.ndarray] = []
    available_obs: list[str] = []
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

    augmented = Network(
        net.name + "_coarsened",
        tuple(specs + obs_specs),
        tuple(cpts + obs_cpts),
    )
    diags = validate_network(augmented)
    if diags:
        raise DataError("augmentation produced an invalid network: " + "; ".join(diags))
    return augmented


def original_variables(augmented: Network) -> list[str]:
    """The non-observation nodes of an augmented network."""
    names = {s.name for s in augmented.nodes}
    return [
        s.name
        for s in augmented.nodes
        if not (s.name.startswith(OBS_PREFIX) and s.name[len(OBS_PREFIX) :] in names)
    ]


def generate_dataset(
    augmented: Network, n: int, rng: np.random.Generator
) -> tuple[Dataset, float]:
    """Sample n cases and delete values whose observation node is false.

    Returns the unit-weight dataset over the original variables plus the
    realized fraction of missing cells.
    """
    check_int("n", n, 0)
    originals = original_variables(augmented)
    obs_pairs = []
    for name in originals:
        obs_name = OBS_PREFIX + name
        if obs_name not in augmented.node_index:
            raise DataError(f"no observation node for variable {name!r}")
        obs_pairs.append((augmented.node_index[name], augmented.node_index[obs_name]))
    rows = sample(augmented, n, rng)
    var_cols = [vi for vi, _ in obs_pairs]
    obs_cols = [oi for _, oi in obs_pairs]
    false_idx = [augmented.nodes[oi].states.index("false") for oi in obs_cols]
    labels = [augmented.nodes[vi].states for vi in var_cols]
    hidden = rows[:, obs_cols] == false_idx
    cases = tuple(
        (tuple(None if h else states[v] for h, v, states in zip(hid, vals, labels)), 1.0)
        for hid, vals in zip(hidden.tolist(), rows[:, var_cols].tolist())
    )
    frac = int(hidden.sum()) / (n * len(originals)) if n else 0.0
    return Dataset(tuple(originals), cases), frac
