"""Laplacian spectra, coverage curves, spectral gaps and t90 reporting."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from conftest import (
    complete_graph,
    connected_random_multiplex,
    cycle_graph,
    directed_trap_network,
    oracle_montecarlo,
    oracle_walk,
    random_multiplex,
    triangle_network,
)
from scipy import stats
from scipy.linalg import expm

from multinav import (
    CoverageCurve,
    DegradedDecompositionError,
    FlowEdge,
    SupraTransitionMatrix,
    build_multiplex,
    build_supra_transition,
    compare_stages,
    coverage_analytic,
    coverage_montecarlo,
    decompose,
    default_time_grid,
    navigability_report,
    poisson_clock,
    simulate_walk,
    spectral_gap,
    supra_laplacian,
    time_to_coverage,
)
from multinav import navigability
from multinav.navigability import (
    RESIDUAL_LIMIT,
    ZERO_EIGENVALUE_TOL,
    AnalyticCoverageState,
    analytic_state,
    read_curve_csv,
    report_to_json_dict,
    write_curve_csv,
)


def test_supra_laplacian_triangle():
    L = supra_laplacian(build_supra_transition(triangle_network(), "rwc"))
    assert np.allclose(np.diag(L), 1.0)
    assert np.allclose(L - np.diag(np.diag(L)), -(np.ones((3, 3)) - np.eye(3)) / 2)
    assert np.allclose(L.sum(axis=1), 0.0)


def test_supra_laplacian_self_loop_row_is_zero():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)], n_nodes=3, coupling=0.0)
    L = supra_laplacian(build_supra_transition(net, "rwc"))
    assert np.all(L[2] == 0.0)


def test_decompose_k2_and_triangle_eigenvalues():
    k2 = build_multiplex([FlowEdge(0, 1, 0, 1.0)], coupling=0.0)
    L = supra_laplacian(build_supra_transition(k2, "rwc"))
    dec = decompose(L)
    assert np.allclose(np.sort(dec.eigenvalues.real), [0.0, 2.0], atol=1e-12)
    tri = supra_laplacian(build_supra_transition(triangle_network(), "rwc"))
    dec = decompose(tri)
    assert np.allclose(np.sort(dec.eigenvalues.real), [0.0, 1.5, 1.5], atol=1e-12)
    assert dec.residual <= 1e-8 * np.linalg.norm(tri)
    assert dec.eigenvalues.dtype == np.float64  # the Hermitian path stays real


def test_decompose_disconnected_graph_has_two_zero_modes():
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(2, 3, 0, 1.0)]
    L = supra_laplacian(build_supra_transition(build_multiplex(edges, coupling=0.0), "rwc"))
    dec = decompose(L)
    assert (np.abs(dec.eigenvalues) <= 1e-9).sum() == 2


def test_decompose_scaled_matches_general_solver():
    rng = np.random.default_rng(5)
    net = connected_random_multiplex(rng, max_nodes=8, directed=False)
    supra = build_supra_transition(net, "rwc")
    L = supra_laplacian(supra)
    scaled = decompose(L, scale=build_supra_transition(net, "rwc").scale)
    general = np.sort(np.linalg.eigvals(L).real)
    assert np.allclose(np.sort(scaled.eigenvalues.real), general, atol=1e-9)
    assert {a.dtype for a in (scaled.eigenvalues, scaled.vectors, scaled.inverse)} == {
        np.dtype(np.float64)
    }
    # right/left eigenvectors reconstruct L
    rebuilt = (scaled.vectors * scaled.eigenvalues[None, :]) @ scaled.inverse
    assert np.allclose(rebuilt.real, L, atol=1e-10)
    # the condition follows from the scale vector, without an SVD
    assert scaled.condition == pytest.approx(np.linalg.cond(scaled.vectors), rel=1e-9)


def test_decompose_falls_back_to_general_solver_when_back_scaling_loses_the_basis():
    # strengths 1 and 1.7e-211: the scaled eigh basis reconstructs nothing
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0), FlowEdge(1, 2, 0, 1.7e-211)], coupling=0.0)
    L = supra_laplacian(build_supra_transition(net, "rwc"))
    dec = decompose(L, scale=build_supra_transition(net, "rwc").scale)
    assert dec.residual <= RESIDUAL_LIMIT * np.linalg.norm(L)
    rebuilt = (dec.vectors * dec.eigenvalues[None, :]) @ dec.inverse
    assert np.allclose(rebuilt.real, L, atol=1e-12)


def _survival_by_loop(state, times):
    """delta[t, j, i] summed mode by mode, straight from the closed form."""
    n = state.n_nodes
    out = np.zeros((times.size, n, n))
    for t_index, t in enumerate(times):
        for j in range(n):
            for i in range(n):
                if i == j:
                    continue
                exponent = 0j
                for l, lam in enumerate(state.eigenvalues):
                    mode = t if abs(lam) <= ZERO_EIGENVALUE_TOL else (1 - np.exp(-lam * t)) / lam
                    exponent += (
                        mode * state.origin_coefficients[j, l] * state.target_coefficients[l, i]
                    )
                out[t_index, j, i] = np.exp(-max(exponent.real, 0.0))
    return out


@pytest.mark.parametrize("directed", [True, False])
def test_survival_matches_mode_by_mode_sum(directed, monkeypatch):
    net = connected_random_multiplex(
        np.random.default_rng(0), max_nodes=7, max_layers=2, directed=directed
    )
    state = analytic_state(net, "rwc")
    if directed:
        assert np.abs(state.eigenvalues.imag).max() > 0.1
    else:
        assert state.eigenvalues.dtype == np.float64
    # 1e6 and 1e7 lie past saturation, where every off-diagonal exponent is
    # capped; with one time per chunk, survival copies the 1e6 sums to 1e7
    times = np.array([0.0, 0.05, 0.7, 3.0, 40.0, 1e3, 1e6, 1e7])
    # from t = 40 on, 8 and then all 13 nonzero modes have Re(lambda) * t >= 38
    settled = [np.count_nonzero(state.eigenvalues.real * t >= 38.0) for t in times]
    assert settled[4] == 8 and settled[-2] == settled[-1] == state.eigenvalues.size - 1
    expected = _survival_by_loop(state, times).sum(axis=2)
    # one chunk holds t = 0, where no mode settles; one time per chunk folds them
    for chunk in (navigability.TIME_CHUNK, 1):
        monkeypatch.setattr(navigability, "TIME_CHUNK", chunk)
        remaining = state.survival(times)
        assert remaining.shape == (times.size, net.n_nodes)
        assert np.allclose(remaining, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("directed", [True, False])
def test_survival_chunk_size_does_not_change_the_result(directed, monkeypatch):
    net = connected_random_multiplex(
        np.random.default_rng(3), max_nodes=12, max_layers=3, directed=directed
    )
    state = analytic_state(net, "rwc")
    times = default_time_grid()  # 401 points: several default chunks
    default = state.survival(times)
    monkeypatch.setattr(navigability, "CHUNK_BYTES", 1)  # one time point per chunk
    assert np.array_equal(state.survival(times), default)


def test_survival_streams_without_a_pair_tensor(monkeypatch):
    """One survival call holds no (T, N, N) array: under a small CHUNK_BYTES
    its peak allocation is a small fraction of T * N^2 * 8 bytes, and its
    result is the default budget's."""
    n = 60
    state = analytic_state(random_multiplex(np.random.default_rng(5), n, 2, directed=False), "rwc")
    times = default_time_grid()
    default = state.survival(times)
    monkeypatch.setattr(navigability, "CHUNK_BYTES", 2**16)
    tracemalloc.start()
    try:
        small = state.survival(times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < times.size * n * n * 8 / 10
    assert np.array_equal(small, default)


def test_decompose_rejects_defective_matrix():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DegradedDecompositionError, match="montecarlo"):
        decompose(jordan)
    # a well-conditioned basis, but no random-walk Laplacian has a growing mode
    with pytest.raises(DegradedDecompositionError, match="negative eigenvalue real part beyond tolerance"):
        decompose(np.diag([0.0, -2.0 * ZERO_EIGENVALUE_TOL]))


def test_decompose_rejects_bad_scale():
    L = supra_laplacian(build_supra_transition(triangle_network(), "rwc"))
    with pytest.raises(ValueError):
        decompose(L, scale=np.array([1.0, -1.0, 1.0]))
    # positive, but the triangle's walk is reversible only for equal strengths
    with pytest.raises(ValueError, match="wrong scale vector"):
        decompose(L, scale=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3)))


def test_coverage_curve_validation():
    with pytest.raises(ValueError, match="monotone"):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.5, 0.2]), "analytic")
    with pytest.raises(ValueError, match="increasing"):
        CoverageCurve(np.array([1.0, 0.5]), np.array([0.1, 0.2]), "analytic")
    with pytest.raises(ValueError, match="escape"):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.1, 1.5]), "analytic")
    with pytest.raises(ValueError, match="equal length"):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.1, 0.2, 0.3]), "analytic")


@pytest.mark.parametrize(
    ("times", "rho"),
    [
        ([0.0, np.nan, 2.0], [0.1, 0.2, 0.95]),
        ([0.0, 1.0, np.inf], [0.1, 0.2, 0.95]),
        ([0.0, 1.0, 2.0], [0.1, np.nan, 0.95]),
        ([0.0, 1.0, 2.0], [0.1, 0.2, np.inf]),
    ],
)
def test_coverage_curve_rejects_non_finite_values(times, rho):
    """NaN passes every order and range comparison, so it needs its own check."""
    with pytest.raises(ValueError, match="finite"):
        CoverageCurve(np.array(times), np.array(rho), "montecarlo")


def test_poisson_clock_rejects_a_nan_time():
    steps = CoverageCurve(np.array([0.0, 1.0]), np.array([0.4, 0.9]), "montecarlo")
    with pytest.raises(ValueError, match="finite"):
        poisson_clock(steps, np.array([0.0, np.nan]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_poisson_clock_rejects_an_infinite_time_before_any_warning(bad):
    # the suite turns RuntimeWarning into an error, so a weight computed from
    # an infinite time would surface as the warning, not as the ValueError
    steps = CoverageCurve(np.array([0.0, 1.0]), np.array([0.4, 0.9]), "montecarlo")
    with pytest.raises(ValueError, match="finite"):
        poisson_clock(steps, np.array([0.0, bad]))


def test_coverage_analytic_starts_at_one_over_n():
    rng = np.random.default_rng(8)
    for _ in range(3):
        net = connected_random_multiplex(rng, max_nodes=10)
        curve = coverage_analytic(net, "rwc")
        assert curve.rho[0] == pytest.approx(1.0 / net.n_nodes, abs=1e-9)
        assert np.all(np.diff(curve.rho) >= 0.0)
        assert curve.rho[-1] >= 1.0 - 1e-6


def test_coverage_analytic_grid_validation():
    net = triangle_network()
    with pytest.raises(ValueError):
        coverage_analytic(net, "rwc", times=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        coverage_analytic(net, "rwc", times=np.array([0.0, 2.0, 1.0]))


def test_a_falling_analytic_curve_is_a_degraded_decomposition():
    # the exposure (1 - e^-10t) / 10 - 0.09 (1 - e^-t) peaks near t = 0.3 and
    # then falls to 0.01, which no walk's exposure can do
    state = AnalyticCoverageState(
        eigenvalues=np.array([10.0, 1.0]),
        origin_coefficients=np.ones((2, 2)),
        target_coefficients=np.array([[1.0, 1.0], [-0.09, -0.09]]),
    )
    with pytest.raises(DegradedDecompositionError, match="analytic coverage decreased"):
        navigability._curve_from_state(state, None)


def _two_triangles(weight):
    """Two unit triangles joined by one edge of the given weight."""
    pairs = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    edges = [FlowEdge(u, v, 0, 1.0) for u, v in pairs] + [FlowEdge(2, 3, 0, weight)]
    return build_multiplex(edges, coupling=0.0)


def _coverage_by_van_loan(net, strategy, times):
    """rho(t) of the mean-field formula without an eigenbasis.

    The exposure int_0^t exp(-L s) ds @ flux is the top-right block of
    expm(t [[-L, flux], [0, 0]]) (Van Loan), with flux as in analytic_state.
    """
    supra = build_supra_transition(net, strategy)
    n, dim = supra.n_nodes, supra.dim
    flux = supra.matrix.reshape(dim, supra.n_layers, n).sum(axis=1)
    flux[np.arange(dim), np.arange(dim) % n] = 0.0
    generator = np.zeros((dim + n, dim + n))
    generator[:dim, :dim] = supra.matrix - np.eye(dim)
    generator[:dim, dim:] = flux
    rho = []
    for t in times:
        survival = np.exp(-expm(t * generator)[:n, dim:])
        np.fill_diagonal(survival, 0.0)
        rho.append(1.0 - survival.sum() / n**2)
    return np.array(rho)


@pytest.mark.parametrize("weight", [1e-9, 1e-12])
def test_a_slow_mode_below_the_zero_tolerance_keeps_its_exposure(weight):
    """The slow mode's factor is (1 - e^-lambda t) / lambda, not t: taken as a
    zero mode, it cancels the stationary mode's growth and rho stalls at 1/2."""
    net = _two_triangles(weight)
    slow = analytic_state(net, "rwc").eigenvalues[1]
    assert 0.0 < slow < ZERO_EIGENVALUE_TOL
    times = np.array([0.0, 1e5, 1e6, 1e7])
    curve = coverage_analytic(net, "rwc", times=times)
    assert np.allclose(curve.rho, _coverage_by_van_loan(net, "rwc", times), rtol=0.0, atol=1e-9)


def _heavy_first_edge_path():
    """A nine-node path whose first edge weighs 1e6 and the other seven 1."""
    edges = [FlowEdge(0, 1, 0, 1e6)] + [FlowEdge(i, i + 1, 0, 1.0) for i in range(1, 8)]
    return build_multiplex(edges, coupling=0.0)


@pytest.mark.parametrize(
    ("network", "strategy", "points", "last", "t90"),
    [
        # short of 0.9 at t = 1e7 and still climbing: one more decade reaches it
        (_heavy_first_edge_path, "rwd", 446, 1e8, pytest.approx(1.2947e7, rel=1e-4)),
        # the trap's curve is flat, so the grid stays as it is
        (directed_trap_network, "rwc", 401, 1e7, None),
    ],
)
def test_navigability_report_extends_the_grid_of_a_climbing_curve_only(network, strategy, points, last, t90):
    report = navigability_report(network(), strategy)
    assert report.curve.times.size == points
    assert report.curve.times[-1] == pytest.approx(last)
    assert report.t90 == t90


def test_coverage_analytic_trap_plateaus_below_one():
    curve = coverage_analytic(directed_trap_network(), "rwc")
    assert curve.rho[-1] < 0.75
    assert time_to_coverage(curve) is None
    # frozen plateau: survival odds of the source pair keep rho near 0.72
    assert curve.rho[-1] == pytest.approx(0.7185, abs=5e-3)


def test_coverage_analytic_isolated_nodes_stay_at_floor():
    net = build_multiplex([], n_layers=1, n_nodes=4, coupling=0.0)
    curve = coverage_analytic(net, "rwc")
    assert np.allclose(curve.rho, 0.25, atol=1e-12)
    report = navigability_report(net, "rwc")
    assert report.t90 is None
    # no node at all is an error, as it is for coverage_montecarlo
    with pytest.raises(ValueError, match="at least one node"):
        coverage_analytic(build_multiplex([], n_layers=2, n_nodes=0), "rwc")


def test_coverage_montecarlo_axioms_and_determinism():
    P = build_supra_transition(complete_graph(4), "rwc")
    flat = coverage_montecarlo(P, walkers_per_origin=10, horizon=0, seed=3)
    assert flat.rho.tolist() == [0.25]
    curve = coverage_montecarlo(P, walkers_per_origin=200, horizon=40, seed=3)
    assert curve.rho[-1] == 1.0
    assert np.all(np.diff(curve.rho) >= 0.0)
    again = coverage_montecarlo(P, walkers_per_origin=200, horizon=40, seed=3)
    assert np.array_equal(curve.rho, again.rho)
    with pytest.raises(ValueError):
        coverage_montecarlo(P, walkers_per_origin=0, horizon=5, seed=1)
    with pytest.raises(ValueError, match="horizon must be non-negative"):
        coverage_montecarlo(P, walkers_per_origin=1, horizon=-1, seed=1)


def test_coverage_montecarlo_draw_on_a_cumulative_value_skips_zero_probability_states(monkeypatch):
    class ZeroDraws:
        def random(self, size):
            return np.zeros(size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroDraws())
    P = build_supra_transition(build_multiplex([FlowEdge(0, 1, 0, 1.0)], coupling=0.0), "rwc")
    assert P.matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    curve = coverage_montecarlo(P, walkers_per_origin=1, horizon=1, seed=0)
    assert curve.rho[1] == 1.0  # u = 0.0 must still move each walker to the other node


def test_coverage_montecarlo_rejects_an_empty_network():
    P = build_supra_transition(build_multiplex([], n_layers=1, n_nodes=0, coupling=0.0), "rwc")
    with pytest.raises(ValueError, match="supra-state"):
        coverage_montecarlo(P, walkers_per_origin=1, horizon=3, seed=0)


def _zero_runs():
    """A star on nodes 1-10 around the last node, and node 0 isolated: state
    0's sums are 1 up to the last state's +inf, the widest window a row can
    leave, and every leaf's sums are 0 up to it, so its search starts on
    the last state and reads the padding."""
    edges = [FlowEdge(leaf, 11, 0, 1.0) for leaf in range(1, 11)]
    return build_supra_transition(build_multiplex(edges, n_nodes=12, coupling=0.0), "rwc")


def _weighted_cycle():
    """A 6-cycle whose node 0 sends 9/20 of its flow to node 1 and the rest to
    node 5: its sums 0, 0.45, 0.45, 0.45, 0.45 put four in the bin (3/8, 1/2],
    and a draw in [0.45, 1/2) passes all four, which takes 3 rounds."""
    flows = {(0, 1): 9.0, (1, 2): 2.0, (4, 5): 2.0, (5, 0): 11.0}
    edges = [FlowEdge(i, (i + 1) % 6, 0, flows.get((i, (i + 1) % 6), 1.0)) for i in range(6)]
    return build_supra_transition(build_multiplex(edges, coupling=0.0), "rwc")


def _dangling_rwc():
    """Node 3 has no edges and no coupling, so both its states hold still."""
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(1, 2, 0, 2.0), FlowEdge(0, 2, 1, 1.5)]
    net = build_multiplex(edges, n_layers=2, n_nodes=4, coupling=0.0)
    return build_supra_transition(net, "rwc")


SAMPLER_CASES = {
    "directed-pagerank": lambda: build_supra_transition(
        connected_random_multiplex(np.random.default_rng(17), max_nodes=8, directed=True),
        "pagerank",
    ),
    "undirected-rwc-dangling": _dangling_rwc,
    "lazy-rwd": lambda: build_supra_transition(
        random_multiplex(np.random.default_rng(18), 5, 3, p=0.5), "rwd"
    ),
    "one-state": lambda: build_supra_transition(
        build_multiplex([], n_layers=1, n_nodes=1, coupling=0.0), "rwc"
    ),
    # dim 8 is itself a power of two, so bins = dim and only the padding
    # lies past the last state
    "unpadded-dim-8": lambda: build_supra_transition(
        random_multiplex(np.random.default_rng(19), 4, 2, p=0.7), "rwc"
    ),
    "zero-runs-read-padding": _zero_runs,
    "span-4-weighted-cycle": _weighted_cycle,
}


def test_sampler_cases_reach_the_edges_of_the_search_table():
    zero_runs = SAMPLER_CASES["zero-runs-read-padding"]()
    table = zero_runs.cumulative
    assert table.span == zero_runs.dim - 1
    # a leaf's search starts on the last state, and its first round of 4
    # looks 7 entries further, into the padding
    assert table.guide[1, 0] == zero_runs.dim - 1
    assert table.span.bit_length() == 4
    # a span of exactly 4 needs 3 rounds, not 2
    assert SAMPLER_CASES["span-4-weighted-cycle"]().cumulative.span == 4


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_coverage_montecarlo_matches_plain_loop_oracle(case):
    P = SAMPLER_CASES[case]()
    expected = oracle_montecarlo(P, walkers_per_origin=7, horizon=30, seed=5)
    curve = coverage_montecarlo(P, walkers_per_origin=7, horizon=30, seed=5)
    assert np.array_equal(curve.rho, expected)


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_simulate_walk_matches_plain_loop_oracle(case):
    P = SAMPLER_CASES[case]()
    for origin in range(P.dim):
        walk = simulate_walk(P, origin, horizon=60, seed=5)
        assert list(walk.steps) == oracle_walk(P, origin, horizon=60, seed=5)


def test_samplers_match_the_oracles_when_draws_hit_cumulative_values(monkeypatch):
    """On K5 every row's cumulative sums are 0, 1/4, ..., 1, so quarter draws
    tie with them; ties go right, past the zero-probability self-move."""
    make_rng = np.random.default_rng

    class QuarterDraws:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def random(self, size=None):
            return self.rng.integers(0, 4, size=size) / 4.0

    monkeypatch.setattr(np.random, "default_rng", QuarterDraws)
    P = build_supra_transition(complete_graph(5), "rwc")
    assert set(np.cumsum(P.matrix, axis=1).ravel()) == {0.0, 0.25, 0.5, 0.75, 1.0}
    curve = coverage_montecarlo(P, walkers_per_origin=9, horizon=12, seed=2)
    assert np.array_equal(curve.rho, oracle_montecarlo(P, walkers_per_origin=9, horizon=12, seed=2))
    for origin in range(P.dim):
        walk = simulate_walk(P, origin, horizon=40, seed=2)
        assert list(walk.steps) == oracle_walk(P, origin, horizon=40, seed=2)
        assert all(a != b for a, b in zip(walk.steps, walk.steps[1:]))


def test_samplers_keep_a_draw_beyond_the_row_total_on_the_last_state(monkeypatch):
    """Rounding can leave a row's total below a draw; both samplers then take
    the last state. Rows summing to 3/4 make that happen on every draw."""

    class HighDraws:
        def random(self, size):
            return np.full(size, 0.9)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: HighDraws())
    short = SupraTransitionMatrix(np.full((3, 3), 0.25), 3, 1)
    curve = coverage_montecarlo(short, walkers_per_origin=2, horizon=2, seed=0)
    # every walker moves to node 2; those from node 2 find nothing new
    assert curve.rho == pytest.approx([1 / 3, 5 / 9, 5 / 9], abs=1e-15)
    assert simulate_walk(short, 0, horizon=2, seed=0).steps == (0, 2, 2)


@pytest.mark.parametrize("strategy", ["rwc", "rwd", "pagerank"])
@pytest.mark.parametrize("directed", [False, True])
def test_one_walker_per_origin_follows_simulate_walk(directed, strategy):
    """Walker j of coverage_montecarlo reads the (seed, j) stream by the rule
    of simulate_walk, so rho is the mean distinct-node share of those walks."""
    net = connected_random_multiplex(np.random.default_rng(6), directed=directed)
    P = build_supra_transition(net, strategy)
    n, horizon, seed = net.n_nodes, 40, 11
    curve = coverage_montecarlo(P, walkers_per_origin=1, horizon=horizon, seed=seed)
    found = [
        [len({state % n for state in walk.steps[: t + 1]}) for t in range(horizon + 1)]
        for walk in (simulate_walk(P, j, horizon, seed) for j in range(n))
    ]
    assert np.allclose(curve.rho, np.mean(found, axis=0) / n, rtol=0.0, atol=1e-12)


def test_poisson_clock_matches_endpoints():
    P = build_supra_transition(complete_graph(5), "rwc")
    mc = coverage_montecarlo(P, walkers_per_origin=500, horizon=60, seed=4)
    mixed = poisson_clock(mc, np.array([0.0, 1.0, 5.0, 20.0]))
    assert mixed.rho[0] == pytest.approx(mc.rho[0])
    assert np.all(np.diff(mixed.rho) >= 0.0)
    # the mixture averages over step counts, so it can lag but never overshoot
    assert mixed.rho[-1] <= mc.rho[-1] + 1e-12
    assert mixed.rho[-1] == pytest.approx(mc.rho[-1], abs=5e-2)
    # two-point curve: weight exp(-t) stays on step 0, the rest saturates at rho[1]
    simple = CoverageCurve(np.array([0.0, 1.0]), np.array([0.4, 0.9]), "montecarlo")
    half = poisson_clock(simple, np.array([np.log(2.0)]))
    assert half.rho[0] == pytest.approx(0.5 * 0.4 + 0.5 * 0.9, abs=1e-12)
    analytic = coverage_analytic(complete_graph(5), "rwc", times=np.array([0.0, 1.0, 5.0, 20.0]))
    with pytest.raises(ValueError):
        poisson_clock(analytic, np.array([0.0, 1.0]))
    skipping = CoverageCurve(np.array([0.0, 2.0]), np.array([0.4, 0.9]), "montecarlo")
    with pytest.raises(ValueError, match="every integer step"):
        poisson_clock(skipping, np.array([0.0, 1.0]))


def test_poisson_weights_match_scipy_on_the_montecarlo_grid():
    """The lgamma weights against scipy's pmf on mc_script's grid: 400 steps, t to 300."""
    steps = np.arange(401)
    times = np.concatenate([[0.0], np.logspace(-2.0, np.log10(300.0), 300)])
    reference = stats.poisson.pmf(steps[None, :], np.maximum(times, 1e-300)[:, None])
    reference[0] = np.eye(1, steps.size)[0]
    weights = navigability._poisson_weights(times, steps.size)
    assert np.array_equal(weights[0], np.eye(1, steps.size)[0])
    assert np.max(np.abs(weights - reference)) <= 1e-13
    # the mixture of a random monotone step curve, with scipy's weights
    rho = np.sort(np.random.default_rng(12).uniform(0.0, 1.0, steps.size))
    mixed = poisson_clock(CoverageCurve(steps.astype(float), rho, "montecarlo"), times)
    tail = np.maximum(1.0 - reference.sum(axis=1), 0.0)
    expected = np.maximum.accumulate(np.clip(reference @ rho + tail * rho[-1], 0.0, 1.0))
    assert np.max(np.abs(mixed.rho - expected)) <= 1e-12


def test_no_survival_or_poisson_weight_lies_below_e_minus_700():
    """numpy's exp is slow where its result is subnormal, so survival and the
    Poisson weights cap every exp argument at 700: a value is 0 or >= e^-700.
    Survival sums n - 1 such probabilities per origin, so no sum lies below
    (n - 1) * e^-700, and one that reaches it has every target at the cap."""
    floor = np.exp(-700.0)
    for directed in (False, True):  # the real and the complex eigenbasis
        net = connected_random_multiplex(
            np.random.default_rng(0), max_nodes=12, max_layers=3, directed=directed
        )
        n = net.n_nodes
        ratio = analytic_state(net, "rwc").survival(default_time_grid()) / floor
        assert ratio.min() >= (n - 1) * (1.0 - 1e-12)
        assert np.any(np.abs(ratio - (n - 1)) <= 1e-9)  # the default grid runs past the cap
    times = np.concatenate([[0.0], np.logspace(-2.0, np.log10(300.0), 300)])
    weights = navigability._poisson_weights(times, 401)
    assert not np.any((weights > 0.0) & (weights < floor))


def test_spectral_gap_reference_values():
    assert spectral_gap(build_supra_transition(complete_graph(4), "rwc")) == pytest.approx(
        4.0 / 3.0, abs=1e-9
    )
    assert spectral_gap(build_supra_transition(cycle_graph(8), "rwc")) == pytest.approx(
        1.0 - np.cos(np.pi / 4), abs=1e-9
    )
    single = build_multiplex([], n_layers=1, n_nodes=1, coupling=0.0)
    with pytest.raises(ValueError):
        spectral_gap(build_supra_transition(single, "rwc"))
    with pytest.raises(ValueError, match="at least two supra-states"):
        navigability_report(single, "rwc")


def test_time_to_coverage_interpolation():
    curve = CoverageCurve(
        np.array([0.0, 1.0, 10.0, 100.0]),
        np.array([0.1, 0.5, 0.8, 1.0]),
        "analytic",
    )
    t90 = time_to_coverage(curve, 0.9)
    expected = 10 ** (1.0 + 0.5 * 1.0)  # halfway through the decade in log space
    assert t90 == pytest.approx(expected)
    assert time_to_coverage(curve, 0.8) == 10.0  # exact grid hit
    assert time_to_coverage(curve, 0.05) == 0.0  # satisfied at the first sample
    plateau = CoverageCurve(
        np.array([0.0, 1.0]), np.array([0.3, 0.7]), "analytic"
    )
    assert time_to_coverage(plateau, 0.9) is None
    with pytest.raises(ValueError):
        time_to_coverage(curve, 1.5)


def test_time_to_coverage_linear_fallback_from_zero():
    curve = CoverageCurve(
        np.array([0.0, 4.0]), np.array([0.5, 1.0]), "analytic"
    )
    assert time_to_coverage(curve, 0.75) == pytest.approx(2.0)


def test_default_time_grid_shape():
    grid = default_time_grid()
    assert grid[0] == 0.0
    assert grid.size == 401
    assert grid[1] == pytest.approx(1e-2)
    assert grid[-1] == pytest.approx(1e7)


def test_navigability_report_consistency():
    rng = np.random.default_rng(13)
    net = connected_random_multiplex(rng, max_nodes=8)
    report = navigability_report(net, "rwc", stage_label="original")
    assert report.config == {"strategy": "rwc", "directed": net.directed, "stage": "original"}
    assert len(report.eigenvalue_head) <= 10
    assert report.spectral_gap > 0
    level_time = report.t90
    assert level_time is not None
    assert report.curve.rho[np.searchsorted(report.curve.times, level_time)] >= 0.9 - 1e-9


def test_compare_stages_rows_and_validation():
    rng = np.random.default_rng(17)
    net = connected_random_multiplex(rng, max_nodes=8, directed=False)
    original = navigability_report(net, "rwc", stage_label="original")
    variant = navigability_report(net, "rwc", stage_label="stage1")
    rows = compare_stages([original, variant])
    assert [r["stage"] for r in rows] == ["original", "stage1"]
    assert rows[0]["spectral_gap_rel_change"] == 0.0
    assert rows[1]["t90_rel_change"] == pytest.approx(0.0, abs=1e-12)
    other = navigability_report(net, "rwd", stage_label="original")
    with pytest.raises(ValueError, match="mixed"):
        compare_stages([original, other])
    with pytest.raises(ValueError):
        compare_stages([])


def test_curve_csv_round_trip(tmp_path):
    curve = coverage_analytic(triangle_network(), "rwc", times=np.array([0.0, 1.0, 2.0]))
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    back = read_curve_csv(path, "analytic")
    assert np.array_equal(back.times, curve.times)
    assert np.array_equal(back.rho, curve.rho)


def test_report_json_not_reached_and_fields():
    report = navigability_report(directed_trap_network(), "rwc")
    payload = report_to_json_dict(report, "curve.csv")
    assert payload["t90"] == "not reached"
    assert set(payload) == {"config", "spectral_gap", "t90", "curve_file", "eigenvalue_head"}


def test_pagerank_coverage_reaches_everyone():
    net = directed_trap_network()
    curve = coverage_analytic(net, "pagerank")
    assert curve.rho[-1] >= 1.0 - 1e-6  # teleportation defeats the trap
