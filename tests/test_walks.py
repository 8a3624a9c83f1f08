"""Supra-transition construction, strength accounting and walker simulation."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import oracle_supra, random_multiplex, triangle_network
from scipy import stats

from multinav import (
    ConstructionError,
    FlowEdge,
    MultiplexNetwork,
    build_multiplex,
    build_supra_transition,
    row_stochastic_check,
    simulate_walk,
)
from multinav.walks import (
    PAGERANK,
    RWC,
    RWD,
    STRATEGIES,
    DEFAULT_DAMPING,
    normalize_strategy,
)


def _two_layer_unit_net():
    """Two nodes, two layers, unit weights everywhere, coupling 1."""
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(0, 1, 1, 1.0)]
    return build_multiplex(edges, n_layers=2, coupling=1.0)


def test_normalize_strategy_case_insensitive():
    assert normalize_strategy("RWC") == RWC
    assert normalize_strategy(" PageRank ") == PAGERANK
    with pytest.raises(ValueError):
        normalize_strategy("levy")


def test_rwc_triangle_off_diagonals():
    P = build_supra_transition(triangle_network(), RWC)
    expected = (np.ones((3, 3)) - np.eye(3)) / 2.0
    assert np.allclose(P.matrix, expected)


def test_rwc_splits_between_moves_and_switches():
    P = build_supra_transition(_two_layer_unit_net(), RWC).matrix
    # state (0, layer0): strength 1 + coupling 1 -> half to the neighbor,
    # half to its own replica in layer 1
    assert P[0, 1] == 0.5
    assert P[0, 2] == 0.5
    assert P[0, 3] == 0.0  # different node, different layer


def test_rwc_dangling_row_becomes_self_loop():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)], n_nodes=3, coupling=0.0)
    P = build_supra_transition(net, RWC).matrix
    assert P[2, 2] == 1.0
    assert P[2].sum() == 1.0


def test_rwd_triangle_is_not_lazy_at_max_strength():
    P = build_supra_transition(triangle_network(), RWD).matrix
    assert np.allclose(np.diag(P), 0.0)
    assert np.allclose(P, (np.ones((3, 3)) - np.eye(3)) / 2.0)


def test_rwd_lazy_remainder_on_weaker_states():
    edges = [FlowEdge(0, 1, 0, 2.0), FlowEdge(0, 1, 1, 1.0)]
    net = build_multiplex(edges, n_layers=2, coupling=0.0)
    P = build_supra_transition(net, RWD).matrix
    # s_max = 2; layer-1 states move with probability 1/2 and stay with 1/2
    assert P[2, 3] == 0.5
    assert P[2, 2] == 0.5
    assert P[0, 1] == 1.0  # layer-0 states saturate
    assert P[0, 0] == 0.0


def test_rwd_diagonal_complements_row():
    rng = np.random.default_rng(3)
    net = random_multiplex(rng, 6, 3, coupling=0.7)
    P = build_supra_transition(net, RWD).matrix
    off = P - np.diag(np.diag(P))
    assert np.allclose(np.diag(P), 1.0 - off.sum(axis=1))
    assert np.all(np.diag(P) >= -1e-15)


def test_rwd_empty_network_is_identity():
    net = build_multiplex([], n_layers=2, n_nodes=3, coupling=0.0)
    P = build_supra_transition(net, RWD).matrix
    assert np.array_equal(P, np.eye(6))


def test_pagerank_mixes_teleportation_floor():
    net = _two_layer_unit_net()
    P = build_supra_transition(net, PAGERANK).matrix
    floor = (1.0 - DEFAULT_DAMPING) / 4.0
    assert np.all(P >= floor - 1e-15)
    assert np.allclose(P.sum(axis=1), 1.0)
    rwc = build_supra_transition(net, RWC).matrix
    assert np.allclose(P, DEFAULT_DAMPING * rwc + floor)


def test_cross_node_cross_layer_entries_are_zero():
    rng = np.random.default_rng(11)
    for _ in range(5):
        net = random_multiplex(rng, 5, 3, directed=bool(rng.integers(0, 2)))
        n = net.n_nodes
        for tag in (RWC, RWD):
            P = build_supra_transition(net, tag).matrix
            for s in range(P.shape[0]):
                for t in range(P.shape[0]):
                    if s % n != t % n and s // n != t // n:
                        assert P[s, t] == 0.0


def _oracle_networks():
    """Random multiplexes over L = 1..6 and N = 0..7, sparse ones with
    zero-strength states, and a layer with a diagonal entry."""
    rng = np.random.default_rng(11)
    for l in range(1, 7):
        for n in (0, 1, 4, 7):
            for directed in (False, True):
                for coupling in (0.0, 1.0, 0.7):
                    yield random_multiplex(rng, n, l, directed=directed, p=0.15, coupling=coupling)
                    yield random_multiplex(rng, n, l, directed=directed, p=0.6, coupling=coupling)
    for directed in (False, True):
        for coupling in (0.0, 0.7):
            intra = np.zeros((2, 3, 3))
            intra[0, 1, 1] = 2.0
            intra[1, 0, 2] = intra[1, 2, 0] = 0.3
            yield MultiplexNetwork(directed=directed, intra=intra, coupling=coupling)


def test_supra_matches_plain_loop_oracle():
    for net in _oracle_networks():
        for strategy in STRATEGIES:
            supra = build_supra_transition(net, strategy)
            assert np.array_equal(supra.matrix, oracle_supra(net, strategy))


def test_supra_scale_symmetrizes_undirected_rwc_only():
    for net in _oracle_networks():
        for strategy in STRATEGIES:
            supra = build_supra_transition(net, strategy)
            if strategy != RWC or net.directed:
                assert supra.scale is None
                continue
            assert supra.scale.shape == (supra.dim,) and np.all(supra.scale > 0)
            weighted = supra.scale[:, None] * supra.matrix
            assert np.allclose(weighted, weighted.T, rtol=0.0, atol=1e-12)


def test_negative_weights_rejected():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)])
    net.intra[0, 0, 1] = -1.0  # arrays stay mutable behind the frozen facade
    with pytest.raises(ConstructionError):
        build_supra_transition(net, RWC)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_strength_that_overflows_is_rejected_for_every_strategy(strategy):
    # each flow is finite, but node a's strength, their sum, is not
    net = build_multiplex([FlowEdge(0, 1, 0, 1e308), FlowEdge(0, 2, 0, 1e308)])
    with pytest.raises(ConstructionError, match="strength overflows"):
        build_supra_transition(net, strategy)
    # so is a coupling whose L - 1 copies overflow
    coupled = build_multiplex([FlowEdge(0, 1, k, 1.0) for k in range(3)], coupling=1e308)
    with pytest.raises(ConstructionError, match="strength overflows"):
        build_supra_transition(coupled, strategy)


def test_row_stochastic_check_reports_worst_row():
    P = build_supra_transition(triangle_network(), RWC)
    ok, deviation = row_stochastic_check(P)
    assert ok and deviation <= 1e-12
    broken = build_supra_transition(triangle_network(), RWC)
    object.__setattr__(broken, "matrix", P.matrix * 0.9)
    ok, deviation = row_stochastic_check(broken)
    assert not ok
    assert deviation == pytest.approx(0.1)


def test_row_stochastic_check_empty_network():
    net = build_multiplex([], n_layers=1, n_nodes=0, coupling=0.0)
    ok, deviation = row_stochastic_check(build_supra_transition(net, RWC))
    assert ok and deviation == 0.0


def test_simulate_walk_horizon_zero_and_determinism():
    P = build_supra_transition(_two_layer_unit_net(), RWC)
    walk = simulate_walk(P, origin=2, horizon=0, seed=9)
    assert walk.steps == (2,)
    assert {s % P.n_nodes for s in walk.steps} == {0}
    again = simulate_walk(P, origin=2, horizon=50, seed=9)
    assert simulate_walk(P, origin=2, horizon=50, seed=9).steps == again.steps
    assert simulate_walk(P, origin=2, horizon=50, seed=10).steps != again.steps


def test_simulate_walk_forced_move_visits_both_nodes():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)], coupling=0.0)
    P = build_supra_transition(net, RWC)
    walk = simulate_walk(P, origin=0, horizon=1, seed=0)
    assert {s % P.n_nodes for s in walk.steps} == {0, 1}


def test_simulate_walk_validates_arguments():
    P = build_supra_transition(triangle_network(), RWC)
    with pytest.raises(ValueError):
        simulate_walk(P, origin=99, horizon=1, seed=0)
    with pytest.raises(ValueError):
        simulate_walk(P, origin=0, horizon=-1, seed=0)


def test_one_step_frequencies_follow_transition_row():
    """Chi-square consistency of sampled transitions with the matrix row."""
    rng = np.random.default_rng(21)
    net = random_multiplex(rng, 5, 2, coupling=1.0)
    P = build_supra_transition(net, RWC)
    walk = simulate_walk(P, origin=0, horizon=100_000, seed=5)
    steps = np.asarray(walk.steps)
    source = int(np.bincount(steps[:-1]).argmax())
    mask = steps[:-1] == source
    observed = np.bincount(steps[1:][mask], minlength=P.dim).astype(float)
    expected = P.matrix[source] * mask.sum()
    support = expected > 0
    assert np.all(observed[~support] == 0)
    _, p_value = stats.chisquare(observed[support], expected[support])
    assert p_value > 0.001


def _ring_lattice(rng, n, n_layers):
    """Each layer a directed ring plus one random chord per node, lognormal flows."""
    edges = []
    for layer in range(n_layers):
        for i in range(n):
            edges.append(FlowEdge(i, (i + 1) % n, layer, float(rng.lognormal(3.0, 0.5))))
            chord = (i + 2 + int(rng.integers(n - 3))) % n  # neither i nor i + 1
            edges.append(FlowEdge(i, chord, layer, float(rng.lognormal(3.0, 0.5))))
    return build_multiplex(edges, n_layers=n_layers, n_nodes=n, directed=True)


@pytest.mark.parametrize("n", [40, 200, 400])
def test_pagerank_guide_rounds_do_not_grow_with_dim(n):
    """Teleportation adds (1 - damping) / dim >= 0.15 / dim to every sum, and a
    bin is 1 / bins <= 1 / dim wide, so no bin holds more than 7 sums: a
    search takes at most 3 rounds at any size."""
    supra = build_supra_transition(_ring_lattice(np.random.default_rng(n), n, 5), PAGERANK)
    table = supra.cumulative
    assert table.bins >= supra.dim
    assert table.span <= 7
