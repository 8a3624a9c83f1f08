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

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

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
    scale: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.n_nodes * self.n_layers

    @cached_property
    def cumulative(self) -> CumulativeTable:
        """The samplers' search table, built on first use and kept; the
        matrix must not be edited in place after that."""
        return _cumulative_table(self.matrix)


@dataclass(frozen=True, eq=False)
class CumulativeTable:
    """A transition matrix's cumulative rows, with a guide into each row.

    ``rows`` holds the (dim, width) cumulative sums, padded with +inf;
    ``guide[r, b]`` counts row r's sums <= b / bins; ``span`` is the most
    sums a bin leaves to search (see ``_cumulative_table``). ``search`` and
    ``simulate_walk`` map a draw u to the number of the row's sums <= u: a
    binary search with ties to the right, so a draw equal to a sum skips
    zero-probability states, capped at the last state.
    """

    rows: np.ndarray
    guide: np.ndarray
    bins: int
    span: int

    def search(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next state of each walker from its current state and its draw in [0, 1)."""
        width = self.rows.shape[1]
        flat = self.rows.reshape(-1)
        base = states * width
        cursor = base + self.guide.reshape(-1)[states * (self.bins + 1) + (u * self.bins).astype(np.intp)]
        # branchless: each round moves the cursor past the window's half if
        # its last entry is <= u; rounds cover 2**rounds - 1 >= span entries
        for k in reversed(range(self.span.bit_length())):
            half = 1 << k
            cursor += half * (flat[half - 1 :][cursor] <= u)
        return cursor - base


@dataclass(frozen=True)
class WalkTrajectory:
    """One sampled walk; steps[0] is the origin supra-state."""

    steps: tuple[int, ...]


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
    # a state's strength: its intra-layer row sum (outgoing only when
    # directed) plus the coupling to each of the L - 1 other layers
    inter = net.coupling * (l - 1)
    with np.errstate(over="ignore"):  # finite flows may still overflow; raised below
        intra = net.intra.sum(axis=2).T  # (N, L)
        total = intra + inter
    if not np.all(np.isfinite(total)):
        raise ConstructionError("a state's strength overflows float64: scale the flows or the coupling down")
    # every move and switch leaving a state is divided by that state's
    # denominator: its own strength for rwc, the global s_max for rwd (1.0 on
    # an edgeless network, whose rwd matrix is then the identity)
    s_max = float(total.max(initial=0.0)) or 1.0
    if tag == RWD:
        denom = np.full_like(total, s_max)
    else:
        denom = np.where(total > 0, total, 1.0)
    matrix = np.zeros((dim, dim))
    blocks = matrix.reshape(l, n, l, n)  # blocks[a, i, b, j] is (i, a) -> (j, b)
    nodes, layers = np.arange(n), np.arange(l)
    # layer switches on the diagonal of every block, then the moves over the
    # (a, a) blocks, so that the moves replace the switches where a == b.
    # One layer has no switches, and its strengths omit the coupling, so a
    # subnormal strength would overflow the quotient.
    if l > 1:
        blocks[:, nodes, :, nodes] = (net.coupling / denom)[:, :, None]
    blocks[layers, :, layers, :] = net.intra / denom.T[:, :, None]
    if tag == RWD:
        lazy = (s_max - intra - inter) / s_max
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
        scale=denom.T.reshape(-1) if tag == RWC and not net.directed else None,
    )


def row_stochastic_check(supra: SupraTransitionMatrix) -> tuple[bool, float]:
    """True when every row sums to 1 within 1e-12; also the worst deviation."""
    if supra.matrix.size == 0:
        return True, 0.0
    deviation = float(np.abs(supra.matrix.sum(axis=1) - 1.0).max())
    return deviation <= 1e-12, deviation


def _cumulative_table(matrix: np.ndarray) -> CumulativeTable:
    """Each row's cumulative sums, indexed by a guide table (Chen & Asau 1974).

    Entries of a supra-transition matrix are >= 0, so every row of sums is
    non-decreasing. The last state's sum is stored as +inf: the last state
    takes every draw above the row's second-to-last sum, which keeps a draw
    on the last state when rounding leaves the row's total below it. ``bins``
    is the power of two at or above dim, so u * bins and b / bins are exact,
    and ``guide[r, b]`` counts row r's sums <= b / bins: those are the sums
    found without a search. For every u in [b / bins, (b + 1) / bins) the
    count of sums <= u then lies between guide[r, b] and guide[r, b + 1],
    and ``span`` is the widest such window. A branchless search of
    ``span.bit_length()`` rounds never moves past the count it seeks, at
    most dim - 1, and a round reads at most span - 1 entries beyond it, so
    ``span`` columns of +inf after each row keep every read in that row.
    """
    dim = matrix.shape[0]
    bins = 1 << max(dim - 1, 0).bit_length()
    sums = np.cumsum(matrix, axis=1)
    sums[:, -1:] = np.inf
    guide = _guide(sums, bins)
    span = int(np.diff(guide, axis=1).max(initial=0))
    rows = np.full((dim, dim + span), np.inf)
    rows[:, :dim] = sums
    return CumulativeTable(rows=rows, guide=guide, bins=bins, span=span)


def _guide(sums: np.ndarray, bins: int) -> np.ndarray:
    """guide[r, b], the count of row r's sums <= b / bins, for b = 0..bins."""
    dim = sums.shape[0]
    # a sum s is counted from b = ceil(s * bins) on; sums above 1 (and the
    # +inf) land in bin bins + 1, which no guide entry counts
    keys = np.clip(np.ceil(sums * bins), 0, bins + 1).astype(np.intp)
    keys += np.arange(dim)[:, None] * (bins + 2)
    counts = np.bincount(keys.reshape(-1), minlength=dim * (bins + 2))
    del keys  # as large as the table: free it before the guide is built
    return np.cumsum(counts.reshape(dim, bins + 2)[:, : bins + 1], axis=1)


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
    row: the next state is the number of the row's cumulative sums <= u,
    ties to the right, capped at the last state (``CumulativeTable``). It
    is one ``bisect_right`` over the row's sums, between the guide's two
    counts for u's bin. ``coverage_montecarlo`` samples with the same
    table, rule and streams.
    """
    if not 0 <= origin < supra.dim:
        raise ValueError(f"origin {origin} out of range [0, {supra.dim})")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    rng = np.random.default_rng((seed, origin))
    table = supra.cumulative
    sums = memoryview(table.rows.reshape(-1))
    guide = memoryview(table.guide.reshape(-1))
    width, bins, stride = table.rows.shape[1], table.bins, table.bins + 1
    steps = [origin]
    state = origin
    for u in rng.random(horizon).tolist():
        base = state * width
        at = state * stride + int(u * bins)
        state = bisect_right(sums, u, base + guide[at], base + guide[at + 1]) - base
        steps.append(state)
    return WalkTrajectory(tuple(steps))
