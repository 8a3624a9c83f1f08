"""Coverage dynamics and spectral diagnostics of multiplex walks.

The continuous-time walk generated by ``L = I - P`` starts one walker on the
layer-0 replica of every physical node. For each origin j and target i the
survival probability that i is still undiscovered decays at the rate with
which probability mass arrives at any replica of i from other nodes:

    d/dt delta[i,j](t) = -(p_j(t) @ M @ E_i) * delta[i,j](t)

with ``p_j(t) = p_j(0) exp(-L t)`` and M the transition matrix with all
same-node entries zeroed: switching layers atop a node, or idling on it,
never discovers it (the walker already marked it on arrival). Expanding in
the eigenbasis of L makes the time integral of each mode available in
closed form, so curves are evaluated exactly on any grid rather than by
quadrature. Coverage is

    rho(t) = 1 - (1/N^2) * sum_ij delta[i,j](t)

which starts at 1/N and, on a strongly connected supra-graph, tends to 1.

This is the paper's mean-field formula, not the walk's exact coverage: the
hit rate comes from the unconditioned occupation p_j(t) rather than from the
walks that have not yet found i. coverage_montecarlo estimates the exact
coverage of the discrete-step walk, and poisson_clock puts a step curve on
the continuous clock by a Poisson(t) mixture, so the two can be compared on
one grid. They agree closely on small dense networks and can differ widely
on sparse ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from .multiplex import MultiplexNetwork
from .walks import (
    SupraTransitionMatrix,
    _cumulative_table,
    build_supra_transition,
    normalize_strategy,
)

ZERO_EIGENVALUE_TOL = 1e-9
COND_LIMIT = 1e12
RESIDUAL_LIMIT = 1e-8
CHUNK_BYTES = 16 * 2**20  # budget for one chunk of the survival product
NOT_REACHED = "not reached"

ANALYTIC = "analytic"
MONTECARLO = "montecarlo"
_MEAN_FIELD_LOST = (
    "the mean-field curve cannot be evaluated; coverage_montecarlo estimates "
    "a different quantity, the exact coverage"
)


class DegradedDecompositionError(RuntimeError):
    """Eigendecomposition too ill-conditioned to trust.

    The mean-field curve cannot be evaluated then. coverage_montecarlo still
    estimates the walk's exact coverage, a different quantity.
    """


def supra_laplacian(supra: SupraTransitionMatrix) -> np.ndarray:
    """Random-walk normalized supra-Laplacian L = I - P (zero row sums)."""
    return np.eye(supra.dim) - supra.matrix


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of a supra-Laplacian, sorted by ascending real part.

    ``vectors`` holds right eigenvectors as columns; ``inverse`` is the
    matrix of left eigenvectors such that vectors @ diag(eigenvalues) @
    inverse reconstructs the input. The arrays keep the solver's dtype:
    real from ``eigh``, and from ``eig`` when every eigenvalue is real.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    condition: float
    residual: float


def _residual(laplacian, eigenvalues, vectors, inverse) -> float:
    reconstructed = (vectors * eigenvalues[None, :]) @ inverse
    return float(np.linalg.norm(laplacian - reconstructed.real))


def decompose(laplacian: np.ndarray, scale: np.ndarray | None = None) -> SpectralDecomposition:
    """Full eigendecomposition of a supra-Laplacian, on one of two paths.

    The Hermitian path solves diag(s)^(1/2) @ L @ diag(s)^(-1/2) with
    ``eigh``; ``scale`` gives s for strength-normalized walks on undirected
    networks, and a symmetric L takes s = 1. The general ``eig`` path takes
    the rest, and any Hermitian result whose back-scaled basis misses the
    residual limit. Eigenvalues keep the dtype the solver returned.
    DegradedDecompositionError is raised when the general basis has a
    condition number above COND_LIMIT or a reconstruction residual above
    RESIDUAL_LIMIT * |L|, or when an eigenvalue's real part is below
    -ZERO_EIGENVALUE_TOL.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    n = laplacian.shape[0]
    if laplacian.shape != (n, n):
        raise ValueError("supra-Laplacian must be square")
    if n == 0:
        empty = np.zeros((0, 0))
        return SpectralDecomposition(np.zeros(0), empty, empty, 1.0, 0.0)

    if scale is not None:
        scale = np.asarray(scale, dtype=float)
        if scale.shape != (n,) or np.any(scale <= 0):
            raise ValueError("scale must be a positive vector matching the matrix size")
    elif np.allclose(laplacian, laplacian.T, atol=1e-12):
        scale = np.ones(n)
    tolerance = RESIDUAL_LIMIT * np.linalg.norm(laplacian)
    if scale is not None:
        root = np.sqrt(scale)
        scaled = laplacian * (root[:, None] / root[None, :])
        if not np.allclose(scaled, scaled.T, atol=1e-10):
            raise ValueError("scaled supra-Laplacian is not symmetric; wrong scale vector")
        eigenvalues, ortho = np.linalg.eigh(0.5 * (scaled + scaled.T))
        vectors = ortho / root[:, None]
        inverse = ortho.T * root[None, :]
        # ortho is orthogonal, so the basis is as conditioned as diag(1/root)
        condition = float(root.max() / root.min())
        residual = _residual(laplacian, eigenvalues, vectors, inverse)
    # also when back-scaling lost the Hermitian basis (or left it NaN)
    if scale is None or not residual <= tolerance:
        eigenvalues, vectors = np.linalg.eig(laplacian)
        order = np.argsort(eigenvalues.real, kind="stable")
        eigenvalues = eigenvalues[order]
        vectors = vectors[:, order]
        condition = float(np.linalg.cond(vectors))
        if not np.isfinite(condition) or condition > COND_LIMIT:
            raise DegradedDecompositionError(
                f"eigenvector basis condition {condition:.3e} exceeds {COND_LIMIT:.0e}; "
                + _MEAN_FIELD_LOST
            )
        inverse = np.linalg.inv(vectors)
        residual = _residual(laplacian, eigenvalues, vectors, inverse)
        if residual > tolerance:
            raise DegradedDecompositionError(
                f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e} * |L|; "
                + _MEAN_FIELD_LOST
            )
    if eigenvalues.real.min(initial=0.0) < -ZERO_EIGENVALUE_TOL:
        raise DegradedDecompositionError(
            "negative eigenvalue real part beyond tolerance; "
            + _MEAN_FIELD_LOST
        )
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        vectors=vectors,
        inverse=inverse,
        condition=condition,
        residual=residual,
    )


@dataclass(frozen=True, eq=False)
class CoverageCurve:
    """A sampled rho(t) curve and the method that produced it."""

    times: np.ndarray
    rho: np.ndarray
    method: str

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rho", rho)
        if times.shape != rho.shape or times.ndim != 1:
            raise ValueError("times and rho must be 1-d arrays of equal length")
        if times.size and (times[0] < 0 or np.any(np.diff(times) <= 0)):
            raise ValueError("times must be non-negative and strictly increasing")
        if rho.size and (rho.min() < -1e-9 or rho.max() > 1 + 1e-9):
            raise ValueError("rho values escape [0, 1]")
        if rho.size and np.diff(rho).min(initial=0.0) < -1e-9:
            raise ValueError("rho must be monotone non-decreasing")


@dataclass(frozen=True, eq=False)
class AnalyticCoverageState:
    """Eigenbasis factors of the survival dynamics.

    The mode-l coefficient of pair (i, j) factors as
    origin_coefficients[j, l] * target_coefficients[l, i], avoiding the
    N*N*NL tensor. Origin j starts on its layer-0 replica, so it holds one
    row per physical node and survival starts at 1 - identity: each origin
    has discovered itself and nothing else. The factors keep the dtype of
    the decomposition, so a real basis gives a real survival product.
    """

    eigenvalues: np.ndarray
    origin_coefficients: np.ndarray
    target_coefficients: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.origin_coefficients.shape[0]

    def survival(self, times: np.ndarray) -> np.ndarray:
        """delta[t, j, i]: probability target i is unvisited by time t from origin j.

        The diagonal is 0 at every time, and delta[0] is 1 - identity.
        """
        times = np.asarray(times, dtype=float)
        lam = self.eigenvalues
        small = np.abs(lam) <= ZERO_EIGENVALUE_TOL
        safe = np.where(small, 1.0, lam)
        out = np.empty((times.size, self.n_nodes, self.n_nodes))
        # each time point materialises one origin_coefficients-sized product
        step = max(1, min(64, CHUNK_BYTES // max(1, self.origin_coefficients.nbytes)))
        for start in range(0, times.size, step):
            chunk = times[start : start + step]
            with np.errstate(over="ignore"):
                modes = (1.0 - np.exp(-safe[None, :] * chunk[:, None])) / safe[None, :]
            modes = np.where(small[None, :], chunk[:, None], modes)
            exponent = (
                (modes[:, None, :] * self.origin_coefficients) @ self.target_coefficients
            ).real
            out[start : start + step] = np.exp(-np.maximum(exponent, 0.0))
        own = np.arange(self.n_nodes)
        out[:, own, own] = 0.0  # an origin is discovered from the start
        return out


def analytic_state(net: MultiplexNetwork, strategy: str) -> AnalyticCoverageState:
    """Build the eigenbasis survival factors for a network and walk strategy."""
    supra = build_supra_transition(net, strategy)
    decomposition = decompose(supra_laplacian(supra), scale=supra.scale)
    n, dim = supra.n_nodes, supra.dim
    # Discovery flux: transition mass from each state onto each physical node,
    # summed over the node's replicas (states are layer-major). Layer switches
    # and lazy self-moves keep the walker where it is, so a state's own node
    # is excluded from the hit rate.
    flux = supra.matrix.reshape(dim, supra.n_layers, n).sum(axis=1)
    states = np.arange(dim)
    flux[states, states % n] = 0.0
    return AnalyticCoverageState(
        eigenvalues=decomposition.eigenvalues,
        origin_coefficients=decomposition.vectors[:n],  # layer-0 replica rows
        target_coefficients=decomposition.inverse @ flux,
    )


def default_time_grid(decades: tuple[float, float] = (-2.0, 7.0), points: int = 400) -> np.ndarray:
    """t = 0 followed by a log-spaced sweep of the given decade range."""
    return np.concatenate([[0.0], np.logspace(decades[0], decades[1], points)])


def _curve_from_state(state: AnalyticCoverageState, times: np.ndarray | None) -> CoverageCurve:
    if times is None:
        times = default_time_grid()
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("time grid must start at 0 and increase strictly")
    delta = state.survival(times)
    rho = 1.0 - delta.mean(axis=(1, 2))
    drops = np.diff(rho).min(initial=0.0)
    if drops < -1e-9:
        raise DegradedDecompositionError(
            f"analytic coverage decreased by {-drops:.3e}; decomposition unreliable; "
            + _MEAN_FIELD_LOST
        )
    rho = np.maximum.accumulate(np.clip(rho, 0.0, 1.0))
    return CoverageCurve(times=times, rho=rho, method=ANALYTIC)


def coverage_analytic(
    net: MultiplexNetwork,
    strategy: str,
    times: np.ndarray | None = None,
) -> CoverageCurve:
    """Evaluate the analytic coverage curve on a time grid starting at 0."""
    return _curve_from_state(analytic_state(net, strategy), times)


def coverage_montecarlo(
    supra: SupraTransitionMatrix,
    walkers_per_origin: int,
    horizon: int,
    seed: int,
) -> CoverageCurve:
    """Estimate coverage per discrete step by direct walker simulation.

    Walkers start on the layer-0 replica of every physical node, as in the
    analytic curve. One generator per origin, seeded (seed, origin), gives
    that origin's walkers one draw each per step, read in step order, so the
    estimate is reproducible and origins can run in any order. Each step
    inverts the CDF of the walker's row by the rule of ``simulate_walk``: a
    binary search for the number of the row's cumulative sums <= u, ties to
    the right, capped at the last state. With one walker per origin, walker
    j follows ``simulate_walk(supra, j, horizon, seed)``.
    """
    if walkers_per_origin < 1:
        raise ValueError("walkers_per_origin must be >= 1")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    n, dim = supra.n_nodes, supra.dim
    if dim == 0:
        raise ValueError("Monte Carlo coverage needs at least one supra-state")
    generators = [np.random.default_rng((seed, origin)) for origin in range(n)]
    walkers = walkers_per_origin * n

    table = _cumulative_table(supra.matrix)
    width = table.shape[1]
    flat = table.reshape(-1)
    halves = [width >> k for k in range(1, width.bit_length())]  # width/2, ..., 1
    states = np.repeat(np.arange(n), walkers_per_origin)
    offsets = np.arange(walkers) * n
    visited = np.zeros(walkers * n, dtype=bool)
    visited[offsets + states] = True
    counts = np.ones(walkers)

    rho = np.empty(horizon + 1)
    rho[0] = counts.mean() / n
    for step in range(1, horizon + 1):
        u = np.concatenate([g.random(walkers_per_origin) for g in generators])
        # branchless search: the cursor moves past the row's entries <= u, so
        # a draw equal to a cumulative value skips zero-probability states.
        # It stops at width - 1 >= dim - 1, where the guard caps it anyway.
        base = states * width
        cursor = base.copy()
        for half in halves:
            cursor += half * (flat[cursor + (half - 1)] <= u)
        states = np.minimum(cursor - base, dim - 1)
        seen = offsets + states % n
        counts += ~visited[seen]
        visited[seen] = True
        rho[step] = counts.mean() / n
    return CoverageCurve(times=np.arange(horizon + 1, dtype=float), rho=rho, method=MONTECARLO)


def poisson_clock(curve: CoverageCurve, times: np.ndarray) -> CoverageCurve:
    """Re-express a discrete-step coverage curve on the continuous clock.

    The continuous-time walk takes Poisson(t) discrete jumps by time t, so
    the continuous curve is the Poisson mixture of the step curve. The step
    curve's horizon should exceed max(times) by several standard deviations;
    the tail beyond the horizon reuses the final value.
    """
    if curve.method != MONTECARLO:
        raise ValueError("poisson_clock applies to discrete-step curves")
    times = np.asarray(times, dtype=float)
    steps = curve.times
    if not np.array_equal(steps, np.arange(steps.size)):
        raise ValueError("discrete curve must be sampled at every integer step")
    weights = stats.poisson.pmf(steps[None, :], np.maximum(times, 1e-300)[:, None])
    weights[times == 0.0] = 0.0
    weights[times == 0.0, 0] = 1.0
    tail = 1.0 - weights.sum(axis=1)
    mixed = weights @ curve.rho + np.maximum(tail, 0.0) * curve.rho[-1]
    mixed = np.maximum.accumulate(np.clip(mixed, 0.0, 1.0))
    return CoverageCurve(times=times, rho=mixed, method=MONTECARLO)


def spectral_gap(supra: SupraTransitionMatrix) -> float:
    """Re(lambda_1) - Re(lambda_2) of the transition matrix, eigenvalues
    sorted by descending real part."""
    if supra.dim < 2:
        raise ValueError("spectral gap needs at least two supra-states")
    values = np.linalg.eigvals(supra.matrix)
    real = np.sort(values.real)[::-1]
    return float(real[0] - real[1])


def time_to_coverage(curve: CoverageCurve, level: float = 0.9) -> float | None:
    """First time rho reaches the level, log-interpolated between samples.

    None signals the curve never attains the level on its grid.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    reached = np.flatnonzero(curve.rho >= level)
    if reached.size == 0:
        return None
    hit = int(reached[0])
    if hit == 0 or curve.rho[hit] == level:
        return float(curve.times[hit])
    t0, t1 = curve.times[hit - 1], curve.times[hit]
    r0, r1 = curve.rho[hit - 1], curve.rho[hit]
    fraction = (level - r0) / (r1 - r0)
    if t0 <= 0.0:
        return float(t0 + fraction * (t1 - t0))
    return float(10 ** (math.log10(t0) + fraction * (math.log10(t1) - math.log10(t0))))


@dataclass(frozen=True, eq=False)
class NavigabilityReport:
    """Spectral gap, t90 and the analytic curve for one network variant."""

    spectral_gap: float
    t90: float | None
    curve: CoverageCurve
    config: dict
    eigenvalue_head: tuple[complex, ...]


def navigability_report(
    net: MultiplexNetwork,
    strategy: str,
    stage_label: str = "original",
) -> NavigabilityReport:
    """Full navigability summary for one network variant.

    The curve is sampled on ``default_time_grid()`` and t90 is the first
    time it reaches 0.9 coverage. A curve that misses 0.9 but is still
    climbing faster than 1e-4 per decade gets one 10x grid extension
    (t up to 1e8) before reporting.
    """
    tag = normalize_strategy(strategy)
    state = analytic_state(net, tag)
    # eigenvalues of L = I - P are 1 - those of P, so the gap of P is the
    # distance between the two smallest real parts of L's spectrum
    real = np.sort(state.eigenvalues.real)
    if real.size < 2:
        raise ValueError("spectral gap needs at least two supra-states")
    curve = _curve_from_state(state, None)
    t_level = time_to_coverage(curve)
    if t_level is None:
        slope = (curve.rho[-1] - curve.rho[-2]) / (
            np.log10(curve.times[-1]) - np.log10(curve.times[-2])
        )
        if slope > 1e-4:
            extended = default_time_grid(decades=(-2.0, 8.0), points=445)
            curve = _curve_from_state(state, extended)
            t_level = time_to_coverage(curve)
    head = tuple(complex(v) for v in state.eigenvalues[:10])
    return NavigabilityReport(
        spectral_gap=float(real[1] - real[0]),
        t90=t_level,
        curve=curve,
        config={"strategy": tag, "directed": net.directed, "stage": stage_label},
        eigenvalue_head=head,
    )


def compare_stages(reports: list[NavigabilityReport]) -> list[dict]:
    """Tabulate gap and t90 across variants, relative to the first report."""
    if not reports:
        raise ValueError("no reports to compare")
    configs = {(r.config["strategy"], r.config["directed"]) for r in reports}
    if len(configs) > 1:
        raise ValueError(f"mixed strategy/directedness in comparison: {sorted(configs)}")
    base = reports[0]
    rows = []
    for report in reports:
        gap_change = None
        if base.spectral_gap != 0.0:
            gap_change = (report.spectral_gap - base.spectral_gap) / base.spectral_gap
        t90_change = None
        if report.t90 is not None and base.t90 not in (None, 0.0):
            t90_change = (report.t90 - base.t90) / base.t90
        rows.append(
            {
                "stage": report.config["stage"],
                "spectral_gap": report.spectral_gap,
                "t90": report.t90,
                "spectral_gap_rel_change": gap_change,
                "t90_rel_change": t90_change,
            }
        )
    return rows


def write_curve_csv(path: str | Path, curve: CoverageCurve) -> None:
    with open(path, "w", encoding="utf-8", newline="") as stream:
        stream.write("time,rho\n")
        for t, r in zip(curve.times.tolist(), curve.rho.tolist()):
            stream.write(f"{t!r},{r!r}\n")


def read_curve_csv(path: str | Path, method: str) -> CoverageCurve:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return CoverageCurve(times=data[:, 0], rho=data[:, 1], method=method)


def report_to_json_dict(report: NavigabilityReport, curve_file: str) -> dict:
    return {
        "config": report.config,
        "spectral_gap": report.spectral_gap,
        "t90": NOT_REACHED if report.t90 is None else report.t90,
        "curve_file": curve_file,
        "eigenvalue_head": [[v.real, v.imag] for v in report.eigenvalue_head],
    }


def write_report_json(path: str | Path, report: NavigabilityReport, curve_file: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report_to_json_dict(report, curve_file), stream, indent=2, sort_keys=True)
        stream.write("\n")
