"""Laplacian spectra, coverage curves, spectral gaps and t90 reporting."""

from __future__ import annotations

import json

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
    analytic_state,
    read_curve_csv,
    report_to_json_dict,
    write_curve_csv,
    write_report_json,
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
def test_survival_matches_mode_by_mode_sum(directed):
    net = connected_random_multiplex(
        np.random.default_rng(0), max_nodes=7, max_layers=2, directed=directed
    )
    state = analytic_state(net, "rwc")
    if directed:
        assert np.abs(state.eigenvalues.imag).max() > 0.1
    else:
        assert state.eigenvalues.dtype == np.float64
    times = np.array([0.0, 0.05, 0.7, 3.0, 40.0])
    delta = state.survival(times)
    assert delta.shape == (times.size, net.n_nodes, net.n_nodes)
    assert np.allclose(delta, _survival_by_loop(state, times), rtol=0.0, atol=1e-12)


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


def test_decompose_rejects_defective_matrix():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DegradedDecompositionError, match="montecarlo"):
        decompose(jordan)


def test_decompose_rejects_bad_scale():
    L = supra_laplacian(build_supra_transition(triangle_network(), "rwc"))
    with pytest.raises(ValueError):
        decompose(L, scale=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3)))


def test_coverage_curve_validation():
    with pytest.raises(ValueError, match="monotone"):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.5, 0.2]), "analytic")
    with pytest.raises(ValueError, match="increasing"):
        CoverageCurve(np.array([1.0, 0.5]), np.array([0.1, 0.2]), "analytic")
    with pytest.raises(ValueError, match="escape"):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.1, 1.5]), "analytic")


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
    # dim 8 fills the power-of-two search table without padding
    "unpadded-dim-8": lambda: build_supra_transition(
        random_multiplex(np.random.default_rng(19), 4, 2, p=0.7), "rwc"
    ),
}


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
    short = SupraTransitionMatrix(np.full((3, 3), 0.25), 3, 1, "rwc", False)
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


def test_report_json_not_reached_and_fields(tmp_path):
    report = navigability_report(directed_trap_network(), "rwc")
    payload = report_to_json_dict(report, "curve.csv")
    assert payload["t90"] == "not reached"
    assert set(payload) == {"config", "spectral_gap", "t90", "curve_file", "eigenvalue_head"}
    path = tmp_path / "report.json"
    write_report_json(path, report, "curve.csv")
    assert json.loads(path.read_text())["curve_file"] == "curve.csv"


def test_pagerank_coverage_reaches_everyone():
    net = directed_trap_network()
    curve = coverage_analytic(net, "pagerank")
    assert curve.rho[-1] >= 1.0 - 1e-6  # teleportation defeats the trap
