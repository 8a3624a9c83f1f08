"""Supra-transition construction, strength accounting and walker simulation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from conftest import oracle_supra, random_multiplex, row_stochastic_check, triangle_network
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from multinav import (
    ConstructionError,
    FlowEdge,
    MultiplexNetwork,
    build_multiplex,
    build_supra_transition,
    coverage_montecarlo,
    simulate_walk,
)
from multinav.walks import (
    PAGERANK,
    RWC,
    RWD,
    STRATEGIES,
    DEFAULT_DAMPING,
    _cumulative_table,
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


def test_supra_scale_symmetrizes_undirected_rwc_and_rwd():
    """The reversible walks name their scale: the rwc denominators and rwd's
    ones; pagerank's teleport and every directed walk have none."""
    for net in _oracle_networks():
        for strategy in STRATEGIES:
            supra = build_supra_transition(net, strategy)
            if strategy == PAGERANK or net.directed:
                assert supra.scale is None
                continue
            assert supra.scale.shape == (supra.dim,) and np.all(supra.scale > 0)
            if strategy == RWD:
                assert np.array_equal(supra.scale, np.ones(supra.dim))
            weighted = supra.scale[:, None] * supra.matrix
            assert np.allclose(weighted, weighted.T, rtol=0.0, atol=1e-12)


def test_network_and_supra_arrays_are_read_only():
    """An in-place write would leave joined_pairs or cumulative describing
    arrays that no longer hold; negative weights are rejected on construction."""
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0), FlowEdge(1, 2, 0, 2.0)])
    supra = build_supra_transition(net, RWC)
    assert supra.scale is not None  # an undirected rwc walk has its scale
    for array in (net.intra, supra.matrix, supra.scale):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = -1.0
    assert net.intra[0, 0, 1] == 1.0


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


def _ring_lattice(rng, n, n_layers, directed=True):
    """Each layer a ring plus one random chord per node, lognormal flows."""
    edges = []
    for layer in range(n_layers):
        for i in range(n):
            edges.append(FlowEdge(i, (i + 1) % n, layer, float(rng.lognormal(3.0, 0.5))))
            chord = (i + 2 + int(rng.integers(n - 3))) % n  # neither i nor i + 1
            edges.append(FlowEdge(i, chord, layer, float(rng.lognormal(3.0, 0.5))))
    return build_multiplex(edges, n_layers=n_layers, n_nodes=n, directed=directed)


@pytest.mark.parametrize("n", [40, 200, 400])
def test_pagerank_guide_rounds_do_not_grow_with_dim(n):
    """Teleportation puts every sum at least (1 - damping) / dim = 0.15 / dim
    above the one before. In the bytes of an int64 guide at the power of two
    at or above dim, a uint8 guide (dim <= 256) has 8 times those bins and a
    uint16 guide 4 times, at most 0.125 / dim or 0.25 / dim wide: a bin
    holds at most 1 or 2 sums, and a search takes 1 or 2 rounds at any size."""
    supra = build_supra_transition(_ring_lattice(np.random.default_rng(n), n, 5), PAGERANK)
    table = supra.cumulative
    least = 1 << (supra.dim - 1).bit_length()
    assert table.bins >= supra.dim
    assert table.span <= (1 if supra.dim <= 256 else 2)
    assert table.guide.nbytes <= 8 * supra.dim * (least + 1)


@st.composite
def row_stochastic_matrices(draw):
    """Row-stochastic matrices of dim 1 to 12, 255, 256, 257 or 300: on both
    sides of the uint8 guide's 256 states. Dyadic rows share 2**k units of mass among
    the states: their sums fall exactly on bin edges, often after runs of
    zero-probability states. The others hold random weights on a random
    support, some with a pagerank-like floor under every entry."""
    dim = draw(st.one_of(st.integers(1, 12), st.sampled_from([255, 256, 257, 300])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        units = 1 << draw(st.integers(0, 12))
        return rng.multinomial(units, np.full(dim, 1.0 / dim), size=dim) / units
    matrix = rng.random((dim, dim)) * (rng.random((dim, dim)) < draw(st.floats(0.01, 1.0)))
    matrix[np.arange(dim), rng.integers(dim, size=dim)] += matrix.sum(axis=1) == 0
    matrix /= matrix.sum(axis=1, keepdims=True)
    return 0.85 * matrix + 0.15 / dim if draw(st.booleans()) else matrix


def _reference_table(matrix):
    """(bins, span, guide) by brute force: each power of two from the least at
    or above dim to the byte cap (8 times it in uint8, 4 times in uint16)
    gets its own guide, each row's count of sums <= b / bins with the last
    sum as +inf; span is the widest window between two guide columns, and
    bins the fewest that reach the fewest rounds, span.bit_length()."""
    dim = matrix.shape[0]
    sums = np.cumsum(matrix, axis=1)
    sums[:, -1] = np.inf
    least = 1 << (dim - 1).bit_length()
    candidates = [least << k for k in range(4 if dim <= 256 else 3)]
    guides = {b: np.array([np.searchsorted(row, np.arange(b + 1) / b, side="right") for row in sums])
              for b in candidates}
    spans = {b: int(np.diff(guide, axis=1).max(initial=0)) for b, guide in guides.items()}
    rounds = min(span.bit_length() for span in spans.values())
    bins = min(b for b in candidates if spans[b].bit_length() == rounds)
    return bins, spans[bins], guides[bins]


@settings(max_examples=60, deadline=None)
@given(row_stochastic_matrices())
def test_table_rule_matches_a_brute_force_reference(matrix):
    dim = matrix.shape[0]
    table = _cumulative_table(matrix)
    bins, span, guide = _reference_table(matrix)
    assert (table.bins, table.span) == (bins, span)
    assert table.guide.dtype == (np.uint8 if dim <= 256 else np.uint16)
    assert table.guide.flags.c_contiguous and np.array_equal(table.guide, guide)
    rows = np.full((dim, dim + span), np.inf)
    rows[:, : dim - 1] = np.cumsum(matrix, axis=1)[:, :-1]
    assert np.array_equal(table.rows, rows)


# sha256 of coverage_montecarlo(supra, 10, 100, seed=7).rho.tobytes() and of
# the int64 steps of simulate_walk(supra, origin, 100, seed=7), origin by
# origin, on the N=40, L=5 ring lattice of seed 40; recorded with the int64
# guide of a fixed power-of-two bins that the sampler's table used before
SAMPLED = {
    (True, RWC): ("e7c93b76d6ee675aa6a1af0505d1a05e4083f19b2738240bbc8ab11587290529",
                  "9c7edb5693c7a56a9fb63066180d79cde0ed3e9dbc02d07b15a6798798f5d66a"),
    (True, RWD): ("3c50e5a964d448e98a8c17471fbd1ab1a5f6bdef9dcbf15d46e8d3508b46e2fe",
                  "42d547ceb4f3a49172d8024c825f41243d873964a8b2152a27b9e896fde91528"),
    (True, PAGERANK): ("e33d72071b6f0ccf7abe5e1f2e524b344eb9dcfcd66b24923ea2417a18da7944",
                       "31411afb644a1aaffbdbf0360cb64e86435860dcbae6c66b60ab54f8952fce96"),
    (False, RWC): ("3d6330f5a55308a69ebfa07a08184555682df96f4785279b5079dcaff7d726fb",
                   "450bce9d92786fd59f68d72a34fe29c3ccbf40a0b8f45abed2d65e0fae2bdf57"),
    (False, RWD): ("6243110db3d92be8031f91205f62b182533de7f7b5b0bb3fc38b8c20160286dd",
                   "789f174688c499fc752b0b44c9c5a6934a6c95c23389a987cc9ce826921e9687"),
    (False, PAGERANK): ("191052f47bcee95107e1f70458f09bf0ac01520b982b9afb3877b1d72dba799c",
                        "84162cded42408d2a4b8967aaeb6f144554ae3bd0a9fd1329b39f14bf0aafee4"),
}


@pytest.mark.parametrize(("directed", "strategy"), sorted(SAMPLED))
def test_sampled_walks_and_coverage_are_bit_identical(directed, strategy):
    """The samplers' outputs, bit for bit: a change to the search table's
    layout must leave every walk and every coverage value as it is."""
    supra = build_supra_transition(_ring_lattice(np.random.default_rng(40), 40, 5, directed), strategy)
    rho = coverage_montecarlo(supra, 10, 100, seed=7).rho
    steps = hashlib.sha256()
    for origin in range(supra.dim):
        steps.update(np.asarray(simulate_walk(supra, origin, 100, seed=7).steps, dtype=np.int64).tobytes())
    assert (hashlib.sha256(rho.tobytes()).hexdigest(), steps.hexdigest()) == SAMPLED[directed, strategy]
