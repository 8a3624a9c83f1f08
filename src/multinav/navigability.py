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
AnalyticCoverageState.survival streams the inner sum: for each origin j it
returns sum_i delta[i,j](t), built chunk by chunk without the (T, N, N) array
of delta.

This is the paper's mean-field formula, not the walk's exact coverage: the
hit rate comes from the unconditioned occupation p_j(t) rather than from the
walks that have not yet found i. coverage_montecarlo estimates the exact
coverage of the discrete-step walk, and poisson_clock puts a step curve on
the continuous clock by a Poisson(t) mixture, so the two can be compared on
one grid. They agree closely on small dense networks and can differ widely
on sparse ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .multiplex import CHUNK_BYTES, MultiplexNetwork
from .walks import SupraTransitionMatrix, build_supra_transition, normalize_strategy

ZERO_EIGENVALUE_TOL = 1e-9
COND_LIMIT = 1e12
RESIDUAL_LIMIT = 1e-8
TIME_CHUNK = 64  # time points per batched survival product
DRAW_BYTES = 2**20  # budget for one block of Monte Carlo draws
# Largest x passed to exp(-x). numpy's exp is ~150x slower where its result is
# subnormal (x in [708.4, 745]); e^-700 ~ 1e-304 cannot move rho or a Poisson
# mixture, and 1 - e^-x is already exactly 1.0 from x = 38.
EXP_CAP = 700.0
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
    laplacian = np.subtract(0.0, supra.matrix)  # 0 - p, as in I - P, so no zero turns -0.0
    laplacian.flat[:: supra.dim + 1] += 1.0
    return laplacian


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of a supra-Laplacian, sorted by ascending real part.

    ``vectors`` holds right eigenvectors as columns; ``inverse`` is the
    matrix of left eigenvectors such that vectors @ diag(eigenvalues) @
    inverse reconstructs the input. The arrays keep the solver's dtype:
    real from ``eigh``, and from ``eig`` when every eigenvalue is real.
    ``condition`` bounds the basis's 2-norm condition number from above: it
    is exact on the Hermitian path, max(sqrt(s)) / min(sqrt(s)), and
    ``|V|_F * |V^-1|_F`` on the ``eig`` path, which is at least cond_2(V).
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    condition: float
    residual: float


def _residual(laplacian, eigenvalues, vectors, inverse) -> float:
    # Re(V diag(lambda) V^-1) from real products; the imaginary part is never formed
    weighted = vectors * eigenvalues[None, :]
    difference = weighted.real @ inverse.real
    if np.iscomplexobj(weighted):
        difference -= weighted.imag @ inverse.imag
    return float(np.linalg.norm(np.subtract(laplacian, difference, out=difference)))


def _close_to_transpose(matrix: np.ndarray, atol: float) -> bool:
    """``np.allclose(matrix, matrix.T, atol=atol)``, in fewer passes and temporaries.

    Entry x and its transposed entry y are close when |x - y| <= atol +
    1e-5 * |y|, or when x == y. The bound is capped at the largest float, so
    an infinite y admits only an equal x, as in np.isclose; NaN is close to
    nothing.
    """
    transpose = matrix.T
    bound = np.abs(transpose)
    bound *= 1e-5
    bound += atol
    np.minimum(bound, np.finfo(float).max, out=bound)
    with np.errstate(invalid="ignore"):  # inf - inf
        gap = np.subtract(matrix, transpose)
    close = np.abs(gap, out=gap) <= bound
    return bool(close.all() or (close | (matrix == transpose)).all())


def decompose(laplacian: np.ndarray, scale: np.ndarray | None = None) -> SpectralDecomposition:
    """Full eigendecomposition of a supra-Laplacian, on the path ``scale`` picks.

    Given s under which diag(s) @ L is symmetric, as ``SupraTransitionMatrix.scale``
    is for undirected rwc and rwd walks, the Hermitian path solves
    diag(s)^(1/2) @ L @ diag(s)^(-1/2) with ``eigh``. Without a scale L takes
    the general ``eig`` path, even when symmetric, as does any Hermitian
    result whose back-scaled basis misses the residual limit. Eigenvalues
    keep the solver's dtype and ascend by real part on both paths.
    DegradedDecompositionError is raised when the general basis V is singular,
    its condition bound |V|_F * |V^-1|_F (no SVD) exceeds COND_LIMIT or its
    reconstruction residual RESIDUAL_LIMIT * |L|, or when an eigenvalue's
    real part is below -ZERO_EIGENVALUE_TOL.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    n = laplacian.shape[0]
    if laplacian.shape != (n, n):
        raise ValueError("supra-Laplacian must be square")
    if n == 0:
        empty = np.zeros((0, 0))
        return SpectralDecomposition(np.zeros(0), empty, empty, 1.0, 0.0)

    tolerance = RESIDUAL_LIMIT * np.linalg.norm(laplacian)
    if scale is not None:
        scale = np.asarray(scale, dtype=float)
        if scale.shape != (n,) or np.any(scale <= 0):
            raise ValueError("scale must be a positive vector matching the matrix size")
        root = np.sqrt(scale)
        scaled = np.divide.outer(root, root)
        scaled *= laplacian
        if not _close_to_transpose(scaled, atol=1e-10):
            raise ValueError("scaled supra-Laplacian is not symmetric; wrong scale vector")
        hermitian = scaled + scaled.T
        hermitian *= 0.5
        eigenvalues, ortho = np.linalg.eigh(hermitian)
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
        try:
            inverse = np.linalg.inv(vectors)
        except np.linalg.LinAlgError:
            raise DegradedDecompositionError("eigenvector basis is singular; " + _MEAN_FIELD_LOST) from None
        with np.errstate(over="ignore"):  # an overflowing norm is inf, which fails
            condition = float(np.linalg.norm(vectors)) * float(np.linalg.norm(inverse))
        if not np.isfinite(condition) or condition > COND_LIMIT:
            raise DegradedDecompositionError(
                f"eigenvector basis condition {condition:.3e} exceeds {COND_LIMIT:.0e}; "
                + _MEAN_FIELD_LOST
            )
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
        # NaN passes every comparison below, and an infinite time breaks t90
        if not (np.isfinite(times).all() and np.isfinite(rho).all()):
            raise ValueError("times and rho must be finite")
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
    N*N*NL tensor; ``survival`` forms it for one block of origins at a time.
    Origin j starts on its layer-0 replica, so it holds one row per physical
    node and each origin starts with n - 1 undiscovered targets: it has
    discovered itself and nothing else. The factors keep the dtype of the
    decomposition, so a real basis gives a real survival product.
    """

    eigenvalues: np.ndarray
    origin_coefficients: np.ndarray
    target_coefficients: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.origin_coefficients.shape[0]

    def survival(self, times: np.ndarray) -> np.ndarray:
        """S[t, j]: expected number of targets origin j has not discovered by time t.

        S[t, j] is the sum over targets i != j of delta[t, j, i], the
        probability that i is still unvisited from j, so S[0] is n - 1. It is
        computed in one streaming pass that holds no (T, N, N) array:

        - Each TIME_CHUNK of times computes the factors of its unsettled modes
          0 .. m-1 only: (1 - e^(-lambda t)) / lambda, and t only where
          lambda is exactly 0, so a slow mode is not taken for a zero mode.
          The modes from m on have settled (Re(lambda) * t >= 38, so the
          factor is 1/lambda; see EXP_CAP) and add one term per pair,
          computed once for each distinct m.
        - Origins go in blocks whose coefficients ``origin_coefficients[j, l]
          * target_coefficients[l, i]`` and one chunk's exponents fit
          CHUNK_BYTES beside the mode factors. The exponents land in (time,
          origin * target) layout, one (TIME_CHUNK, m) @ (m, N) product per
          origin, so no shape and no result depends on the block size. They
          are clipped, exponentiated in place and summed over targets.
        - With increasing times, one zero mode, no negative off-diagonal
          zero-mode coefficient in the block and every other mode settled,
          no exponent can fall: from the first time at which all of them reach
          EXP_CAP, the block's sums are copied to the rest of the grid.
        """
        times = np.asarray(times, dtype=float)
        n, targets = self.n_nodes, self.target_coefficients
        if n == 0:
            raise ValueError("analytic coverage needs at least one node")
        lam = self.eigenvalues
        safe = np.where(lam == 0.0, 1.0, lam)
        starts = np.arange(0, times.size, TIME_CHUNK)
        # m per chunk: 1 + the last mode not settled at the chunk's earliest time
        unsettled = np.multiply.outer(np.minimum.reduceat(times, starts), lam.real) < 38.0
        counts = (unsettled * np.arange(1, lam.size + 1)).max(axis=1, initial=0)
        chunks = []  # (rows, m, negated factors of modes 0 .. m-1)
        for start, m in zip(starts.tolist(), counts.tolist()):
            t = times[start : start + TIME_CHUNK]
            modes = np.multiply.outer(t, -safe[:m])
            np.maximum(modes.real, -EXP_CAP, out=modes.real)
            with np.errstate(over="ignore"):
                np.expm1(modes, out=modes)  # exp - 1 would cancel a slow mode's small lambda * t
            modes /= safe[:m]
            modes[:, lam[:m] == 0.0] = -t[:, None]
            chunks.append((slice(start, start + t.size), m, modes))
        rising = bool(np.all(np.diff(times) >= 0.0))
        out = np.empty((times.size, n))
        # one origin's coefficients and exponents; the mode factors share the budget
        per_origin = (targets.shape[0] + TIME_CHUNK) * n * targets.itemsize
        block = min(n, max(1, (CHUNK_BYTES - sum(modes.nbytes for _, _, modes in chunks)) // per_origin))
        # reused by every block: fresh pages for each would cost more than the products
        coefficient_space = np.empty(block * targets.size, dtype=targets.dtype)
        exponent_space = np.empty(TIME_CHUNK * block * n, dtype=targets.dtype)
        for first in range(0, n, block):
            origins = self.origin_coefficients[first : first + block]
            width = origins.shape[0]
            own = np.arange(width)
            coefficients = coefficient_space[: width * targets.size].reshape(width, *targets.shape)
            np.einsum("jl,li->jli", origins, targets, out=coefficients)
            zero_rate = coefficients[:, 0].real.copy()
            zero_rate[own, first + own] = 0.0
            monotone = rising and abs(lam[0]) <= ZERO_EIGENVALUE_TOL and zero_rate.min() >= 0.0
            settled_m, settled = lam.size, None
            for rows, m, modes in chunks:
                # negated exponents; origin j's product fills column block j
                exponent = exponent_space[: modes.shape[0] * width * n].reshape(-1, width, n)
                np.matmul(modes, coefficients[:, :m], out=exponent.transpose(1, 0, 2))
                values = exponent.real
                if m < lam.size:  # settled modes, which a zero term would only slow
                    if m != settled_m:
                        settled_m, settled = m, ((-1.0 / safe[m:]) @ coefficients[:, m:]).real
                    values += settled
                np.clip(values, -EXP_CAP, 0.0, out=values)
                values[:, own, first + own] = -np.inf  # an origin is discovered from the start
                stop = None
                if monotone and m == 1:
                    capped = np.flatnonzero(values.max(axis=(1, 2)) <= -EXP_CAP)
                    if capped.size:
                        stop = int(capped[0]) + 1
                        values = values[:stop]
                np.exp(values, out=values)
                sums = out[rows, first : first + width]
                np.einsum("tjn->tj", values, out=sums[:stop])
                if stop is not None:  # every later exponent stays at the cap
                    out[rows.start + stop :, first : first + width] = sums[stop - 1]
                    break
        return out

    def curve(self, times: np.ndarray | None = None) -> CoverageCurve:
        """rho(t) on a strictly increasing grid from 0, ``default_time_grid()`` by
        default; a curve that falls by more than 1e-9 is a degraded decomposition."""
        if times is None:
            times = default_time_grid()
        times = np.asarray(times, dtype=float)
        if times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("time grid must start at 0 and increase strictly")
        rho = 1.0 - self.survival(times).mean(axis=1) / self.n_nodes
        drops = np.diff(rho).min(initial=0.0)
        if drops < -1e-9:
            raise DegradedDecompositionError(
                f"analytic coverage decreased by {-drops:.3e}; decomposition unreliable; "
                + _MEAN_FIELD_LOST
            )
        rho = np.maximum.accumulate(np.clip(rho, 0.0, 1.0))
        return CoverageCurve(times=times, rho=rho, method=ANALYTIC)


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
    estimate is reproducible and origins can run in any order. The draws
    come a block of steps at a time, a (block, walkers_per_origin) array per
    generator, which reads the same stream. Each step inverts the CDF of the
    walker's row by the rule of ``simulate_walk``: the next state is the
    number of the row's cumulative sums <= u, ties to the right, capped at
    the last state. ``CumulativeTable.search`` finds it for every walker at
    once, from the guide's count for u's bin and ``span.bit_length()``
    branchless rounds: one on a pagerank table of up to 256 states, two
    beyond. With one walker per origin, walker j follows
    ``simulate_walk(supra, j, horizon, seed)``.
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
    block = max(1, DRAW_BYTES // (8 * walkers))  # steps whose draws fit the budget

    table = supra.cumulative
    states = np.repeat(np.arange(n), walkers_per_origin)
    offsets = np.arange(walkers) * n
    node = np.arange(dim) % n
    visited = np.zeros(walkers * n, dtype=bool)
    visited[offsets + states] = True
    found = walkers  # each walker has seen its origin

    rho = np.empty(horizon + 1)
    rho[0] = found / walkers / n
    for start in range(1, horizon + 1, block):
        stop = min(start + block, horizon + 1)
        # origin j's generator fills its walkers' columns, step by step
        draws = np.concatenate([g.random((stop - start, walkers_per_origin)) for g in generators], axis=1)
        for step, u in zip(range(start, stop), draws):
            states = table.search(states, u)
            seen = offsets + node[states]
            found += walkers - np.count_nonzero(visited[seen])
            visited[seen] = True
            rho[step] = found / walkers / n
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
    # an infinite time would warn inside the weights before CoverageCurve rejects it
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    steps = curve.times
    if not np.array_equal(steps, np.arange(steps.size)):
        raise ValueError("discrete curve must be sampled at every integer step")
    weights = _poisson_weights(times, steps.size)
    tail = 1.0 - weights.sum(axis=1)
    mixed = weights @ curve.rho + np.maximum(tail, 0.0) * curve.rho[-1]
    mixed = np.maximum.accumulate(np.clip(mixed, 0.0, 1.0))
    return CoverageCurve(times=times, rho=mixed, method=MONTECARLO)


def _poisson_weights(times: np.ndarray, n_steps: int) -> np.ndarray:
    """Poisson(t) probabilities of k = 0 .. n_steps-1 jumps, one row per time.

    pmf(k; t) = exp(k log t - log k! - t), with log k! from lgamma: a running
    sum of logs drifts, by 1.6e-12 at k = 400. Rows at t = 0 are exactly
    one-hot, and no weight lies below e^-EXP_CAP.
    """
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n_steps)])
    rate = np.maximum(times, 1e-300)[:, None]
    log_pmf = np.arange(n_steps) * np.log(rate) - log_factorial - rate
    weights = np.exp(np.maximum(log_pmf, -EXP_CAP, out=log_pmf), out=log_pmf)
    weights[times == 0.0] = 0.0
    weights[times == 0.0, 0] = 1.0
    return weights


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
    # distance between the two smallest real parts of L's spectrum, which
    # decompose returns first
    real = state.eigenvalues.real
    if real.size < 2:
        raise ValueError("spectral gap needs at least two supra-states")
    curve = state.curve()
    t_level = time_to_coverage(curve)
    if t_level is None:
        slope = (curve.rho[-1] - curve.rho[-2]) / (
            np.log10(curve.times[-1]) - np.log10(curve.times[-2])
        )
        if slope > 1e-4:
            extended = default_time_grid(decades=(-2.0, 8.0), points=445)
            curve = state.curve(extended)
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


@functools.cache  # a program constant, shared by every curve on the default grid
def _default_grid_text() -> tuple[bytes, tuple[str, ...]]:
    """The default grid's bytes and the ``time,`` text of each of its rows."""
    grid = default_time_grid()
    return grid.tobytes(), tuple(f"{t!r}," for t in grid.tolist())


def format_curve_csv(curve: CoverageCurve) -> str:
    """The CSV text of ``time,rho`` rows, each value as its repr."""
    grid, times = _default_grid_text()
    if curve.times.tobytes() != grid:  # bit for bit, so -0.0 keeps its sign
        times = [f"{t!r}," for t in curve.times.tolist()]
    rows = [f"{t}{r!r}\n" for t, r in zip(times, curve.rho.tolist())]
    return "".join(["time,rho\n", *rows])


def report_to_json_dict(report: NavigabilityReport, curve_file: str) -> dict:
    return {
        "config": report.config,
        "spectral_gap": report.spectral_gap,
        "t90": NOT_REACHED if report.t90 is None else report.t90,
        "curve_file": curve_file,
        "eigenvalue_head": [[v.real, v.imag] for v in report.eigenvalue_head],
    }
