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
    only in directed mode); ``inter[i, a]`` is the coupling times the L - 1
    other layers, the same for every state; ``s_max`` is the largest
    intra + inter total.
    """

    intra: np.ndarray
    inter: np.ndarray
    s_max: float


@dataclass(frozen=True, eq=False)
class SupraTransitionMatrix:
    """Row-stochastic (N*L, N*L) transition matrix for one walk strategy.

    ``scale`` holds each state's rwc denominator in supra order for an
    undirected rwc walk: diag(scale) @ matrix is then symmetric, which is
    the scale ``navigability.decompose`` takes. It is None for every other
    walk.
    """

    matrix: np.ndarray
    n_nodes: int
    n_layers: int
    strategy: str
    directed: bool
    scale: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.n_nodes * self.n_layers


def supra_index(node: int, layer: int, n_nodes: int) -> int:
    """Flatten a (node, layer) pair into its supra-state index."""
    return node + layer * n_nodes


def strength_profile(net: MultiplexNetwork) -> StrengthProfile:
    """Per-state strengths used by every walk normalization."""
    intra = net.intra.sum(axis=2).T  # (N, L): row sums per layer
    inter = np.full_like(intra, net.coupling * (net.n_layers - 1))
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
    # the coupling is validated on construction, but intra can be edited in place
    if np.any(net.intra < 0):
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
    blocks = matrix.reshape(l, n, l, n)  # blocks[a, i, b, j] is (i, a) -> (j, b)
    nodes, layers = np.arange(n), np.arange(l)
    # layer switches on the diagonal of every block, then the moves over the
    # (a, a) blocks, so that the moves replace the switches where a == b
    blocks[:, nodes, :, nodes] = (net.coupling / denom)[:, :, None]
    blocks[layers, :, layers, :] = net.intra / denom.T[:, :, None]
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
            # max() keeps an empty network's empty matrix from dividing by zero
            matrix = DEFAULT_DAMPING * matrix + (1.0 - DEFAULT_DAMPING) / max(dim, 1)
    return SupraTransitionMatrix(
        matrix=matrix,
        n_nodes=n,
        n_layers=l,
        strategy=tag,
        directed=net.directed,
        scale=denom.T.reshape(-1) if tag == RWC and not net.directed else None,
    )


def row_stochastic_check(supra: SupraTransitionMatrix) -> tuple[bool, float]:
    """True when every row sums to 1 within 1e-12; also the worst deviation."""
    if supra.matrix.size == 0:
        return True, 0.0
    deviation = float(np.abs(supra.matrix.sum(axis=1) - 1.0).max())
    return deviation <= 1e-12, deviation


def _cumulative_table(matrix: np.ndarray) -> np.ndarray:
    """Each row's cumulative sums, padded with +inf to a power-of-two width.

    Entries of a supra-transition matrix are >= 0, so every row is
    non-decreasing and the padding lies above every draw in [0, 1). The
    count of a row's entries <= u is then the next state for draw u.
    """
    dim = matrix.shape[0]
    width = 1 << max(dim - 1, 0).bit_length()
    table = np.full((dim, width), np.inf)
    np.cumsum(matrix, axis=1, out=table[:, :dim])
    return table


def simulate_walk(
    supra: SupraTransitionMatrix,
    origin: int,
    horizon: int,
    seed: int,
) -> WalkTrajectory:
    """Sample one discrete trajectory of ``horizon`` steps from the origin.

    The generator is seeded with (seed, origin) and read once per step, in
    step order, so distinct origins give independent, individually
    reproducible streams. Each step inverts the CDF of the current state's
    row: the next state is the number of the row's cumulative sums <= u
    (a binary search, ties to the right, so a draw equal to a cumulative
    value skips zero-probability states), capped at the last state in case
    rounding leaves the row's total below u. ``coverage_montecarlo``
    samples with the same table, rule and streams.
    """
    if not 0 <= origin < supra.dim:
        raise ValueError(f"origin {origin} out of range [0, {supra.dim})")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    rng = np.random.default_rng((seed, origin))
    table = _cumulative_table(supra.matrix)
    last = supra.dim - 1
    steps = [origin]
    state = origin
    for u in rng.random(horizon).tolist():
        state = min(int(table[state].searchsorted(u, side="right")), last)
        steps.append(state)
    return WalkTrajectory(origin=origin, n_nodes=supra.n_nodes, steps=tuple(steps))
