#!/usr/bin/env python3
"""Build the 37-node `alarm_like` fixture network from its seeded recipe.

ALARM has 37 nodes; this network matches that size with no download.  One
`default_rng(7)` drives every draw: the 37 cards from `integers(2, 5)`,
then per node i a parent count k from `integers(0, min(3, i) + 1)` and k
parents among nodes < i from `choice(i, k, replace=False)` (kept sorted),
then `randomize_parameters`.  The result has 955 CPT entries.

    python3 scripts/make_alarm_like.py --out src/coarsebn/fixtures/alarm_like.net
"""

import argparse
import math

import numpy as np

from coarsebn.netformat import format_network
from coarsebn.network import Network, NodeSpec, randomize_parameters

NODES = 37
MAX_PARENTS = 3


def alarm_like(rng: np.random.Generator) -> Network:
    cards = [int(c) for c in rng.integers(2, 5, size=NODES)]
    specs, shells = [], []
    for i, card in enumerate(cards):
        k = int(rng.integers(0, min(MAX_PARENTS, i) + 1))
        parents = sorted(int(j) for j in rng.choice(i, size=k, replace=False)) if k else []
        states = tuple(f"s{s}" for s in range(card))
        specs.append(NodeSpec(f"X{i:02d}", states, tuple(f"X{j:02d}" for j in parents)))
        rows = math.prod(cards[j] for j in parents)
        shells.append(np.full((rows, card), 1.0 / card))
    return randomize_parameters(Network("alarm_like", tuple(specs), tuple(shells)), rng)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    text = format_network(alarm_like(np.random.default_rng(7)))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("# Built by scripts/make_alarm_like.py from default_rng(7).\n" + text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
