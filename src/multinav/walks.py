"""Supra-transition matrices and discrete walker simulation.

States are (node, layer) pairs flattened layer-major: (i, a) -> i + a*N.
Three walk strategies are supported:

* ``rwc`` — strength-normalized: moves and layer switches divided by the
  state's total strength; zero-strength states become self-loops.
* ``rwd`` — lazy s_max-normalized: everything divided by the global maximum
  strength, the remainder staying put.
* ``pagerank`` — rwc damped with uniform teleportation over all states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multiplex import ConstructionError, MultiplexNetwork

RWC = "rwc"
RWD = "rwd"
PAGERANK = "pagerank"
STRATEGIES = (RWC, RWD, PAGERANK)

DEFAULT_DAMPING = 0.85


def normalize_strategy(name: str) -> str:
    tag = name.strip().lower()
    if tag not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGIES}")
    return tag


@dataclass(frozen=True, eq=False)
class StrengthProfile:
    """Intra-layer strength s[i, a], coupling strength S[i, a], and their max.

    ``intra[i, a]`` sums the weights of i's edges within layer a (outgoing
    only in directed mode); ``inter[i, a]`` sums i's couplings from layer a
    to every other layer; ``s_max`` is the largest intra + inter total.
    """

    intra: np.ndarray
    inter: np.ndarray
    s_max: float


@dataclass(frozen=True, eq=False)
class SupraTransitionMatrix:
    """Row-stochastic (N*L, N*L) transition matrix for one walk strategy."""

    matrix: np.ndarray
    n_nodes: int
    n_layers: int
    strategy: str
    directed: bool

    @property
    def dim(self) -> int:
        return self.n_nodes * self.n_layers


def supra_index(node: int, layer: int, n_nodes: int) -> int:
    """Flatten a (node, layer) pair into its supra-state index."""
    return node + layer * n_nodes


def strength_profile(net: MultiplexNetwork) -> StrengthProfile:
    """Per-state strengths used by every walk normalization."""
    intra = net.intra.sum(axis=2).T  # (N, L): row sums per layer
    inter = net.coupling.sum(axis=2)  # (N, L): coupling diagonal is zero
    total = intra + inter
    s_max = float(total.max()) if total.size else 0.0
    return StrengthProfile(intra=intra, inter=inter, s_max=s_max)


@dataclass(frozen=True)
class WalkTrajectory:
    """One sampled walk; steps[0] is the origin supra-state."""

    origin: int
    n_nodes: int
    steps: tuple[int, ...]

    @property
    def visited_physical(self) -> frozenset[int]:
        return frozenset(s % self.n_nodes for s in self.steps)


def build_supra_transition(net: MultiplexNetwork, strategy: str) -> SupraTransitionMatrix:
    """Assemble the supra-transition matrix for the chosen strategy.

    Intra-layer moves sit in the (a, a) diagonal blocks and layer switches
    on the diagonals of the (a, b) off-blocks, so (i,a)->(j,b) with i != j
    and a != b is always zero for rwc/rwd.
    """
    tag = normalize_strategy(strategy)
    n, l = net.n_nodes, net.n_layers
    dim = n * l
    if np.any(net.intra < 0) or np.any(net.coupling < 0):
        raise ConstructionError("negative weights cannot be normalized into probabilities")
    profile = strength_profile(net)

    total = profile.intra + profile.inter  # (N, L)
    # every move and switch leaving a state is divided by that state's
    # denominator: its own strength for rwc, the global s_max for rwd (1.0 on
    # an edgeless network, whose rwd matrix is then the identity)
    s_max = profile.s_max or 1.0
    if tag == RWD:
        denom = np.full_like(total, s_max)
    else:
        denom = np.where(total > 0, total, 1.0)
    matrix = np.zeros((dim, dim))
    for a in range(l):
        rows = slice(a * n, (a + 1) * n)
        matrix[rows, rows] = net.intra[a] / denom[:, a][:, None]
        for b in range(l):
            if b == a:
                continue
            cols = slice(b * n, (b + 1) * n)
            np.fill_diagonal(matrix[rows, cols], net.coupling[:, a, b] / denom[:, a])
    if tag == RWD:
        lazy = (s_max - profile.intra - profile.inter) / s_max
        # the remainder is >= 0 by construction of s_max; rounding in the
        # strength sums can leave a stray -1e-16 on the max row
        matrix[np.arange(dim), np.arange(dim)] += np.maximum(lazy, 0.0).T.reshape(-1)
    else:
        dangling = (total == 0).T.reshape(-1)  # layer-major flatten matches supra order
        matrix[dangling, :] = 0.0
        matrix[dangling, dangling] = 1.0
        if tag == PAGERANK:
            matrix = DEFAULT_DAMPING * matrix + (1.0 - DEFAULT_DAMPING) / dim
    return SupraTransitionMatrix(
        matrix=matrix, n_nodes=n, n_layers=l, strategy=tag, directed=net.directed
    )


def row_stochastic_check(supra: SupraTransitionMatrix) -> tuple[bool, float]:
    """True when every row sums to 1 within 1e-12; also the worst deviation."""
    if supra.matrix.size == 0:
        return True, 0.0
    deviation = float(np.abs(supra.matrix.sum(axis=1) - 1.0).max())
    return deviation <= 1e-12, deviation


def simulate_walk(
    supra: SupraTransitionMatrix,
    origin: int,
    horizon: int,
    seed: int,
) -> WalkTrajectory:
    """Sample one discrete trajectory of ``horizon`` steps from the origin.

    The generator is seeded with (seed, origin) so distinct origins give
    independent, individually reproducible streams.
    """
    if not 0 <= origin < supra.dim:
        raise ValueError(f"origin {origin} out of range [0, {supra.dim})")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    rng = np.random.default_rng((seed, origin))
    cumulative = np.cumsum(supra.matrix, axis=1)
    steps = [origin]
    state = origin
    for _ in range(horizon):
        u = rng.random()
        state = int(np.searchsorted(cumulative[state], u, side="right"))
        state = min(state, supra.dim - 1)  # guard against cumsum rounding at 1.0
        steps.append(state)
    return WalkTrajectory(origin=origin, n_nodes=supra.n_nodes, steps=tuple(steps))
