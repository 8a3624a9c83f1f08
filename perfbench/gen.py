"""Seeded multiplex edge-list generator for the benchmark workloads.

Each layer is a ring lattice over the same N nodes whose ring edges are
rewired independently per layer (Watts-Strogatz style), plus a random chord
on about half of the nodes, so every node has about three neighbours per
layer and many of them are exclusive to one layer. Flows are lognormal.
The program under test only ever sees the CSV written here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

REWIRE = 0.3
CHORD = 0.5
FLOW_MU = 3.0
FLOW_SIGMA = 0.5


def lattice_edges(n: int, layers: int, directed: bool, seed: int) -> list[tuple[int, int, int, float]]:
    """(layer, source, target, flow) rows; no self-loops, no duplicate pairs."""
    rows = []
    for layer in range(layers):
        rng = np.random.default_rng((seed, layer))
        seen: set[tuple[int, int]] = set()

        def add(u: int, v: int) -> bool:
            key = (u, v) if directed else (min(u, v), max(u, v))
            if u == v or key in seen or (directed and (v, u) in seen):
                return False
            seen.add(key)
            rows.append((layer, u, v, float(rng.lognormal(FLOW_MU, FLOW_SIGMA))))
            return True

        for i in range(n):
            # ring edge i -> i+1, keeps each layer strongly connected in
            # directed mode unless rewired away
            j = (i + 1) % n
            if rng.random() < REWIRE:
                j = int(rng.integers(n))
            if not add(i, j):
                add(i, (i + 1) % n)
        for i in range(n):
            if rng.random() < CHORD:
                add(i, int(rng.integers(n)))
    return rows


def write_csv(path: Path, rows: list[tuple[int, int, int, float]]) -> str:
    """Write the edge CSV the program reads and return its sha256."""
    lines = ["layer,source,target,flow\n"]
    lines.extend(f"{layer},n{u:04d},n{v:04d},{flow!r}\n" for layer, u, v, flow in rows)
    data = "".join(lines).encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
