"""Exclusive-neighborhood scoring against hand values and a brute-force oracle."""

from __future__ import annotations

import csv
import io
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    Link,
    link_rows,
    link_table,
    oracle_dedupe,
    oracle_exclusive,
    oracle_flow_mean,
    oracle_pair_layers,
    oracle_scores,
    oracle_union_adjacent,
    pair_scores,
    random_multiplex,
    same_links,
)

from multinav import (
    ExclusiveStage,
    FlowEdge,
    MultiplexNetwork,
    adamic_adar_classic,
    assign_weights,
    build_multiplex,
    dedupe_links,
    enumerate_layer_subsets,
    exclusive_neighbors,
    exclusive_stage,
    jaccard_classic,
    modified_adamic_adar,
    modified_jaccard,
    normalize_scores,
    run_stage,
    threshold_filter,
)
from multinav import prediction
from multinav.prediction import (
    ADAMIC_ADAR,
    ALGORITHMS,
    ENTRY_BYTES,
    JACCARD,
    LINK_CSV_COLUMNS,
    NODE_BYTES,
    PAIR_BYTES,
    format_subset,
    parse_subset,
    format_links_csv,
    read_links_csv,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from gen import lattice_edges  # noqa: E402


# --- exclusive neighborhoods -------------------------------------------------

def _two_layer_net():
    # u=0 adjacent to v=1 in both layers; w=2 adjacent to v=1 only in layer 0
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(0, 1, 1, 1.0), FlowEdge(1, 2, 0, 1.0)]
    return build_multiplex(edges, n_layers=2)


def test_exclusive_neighbors_requires_all_pair_edges_inside_subset():
    net = _two_layer_net()
    assert exclusive_neighbors(net, 1, (0,)) == frozenset({2})
    assert exclusive_neighbors(net, 1, (0, 1)) == {0, 2}
    assert exclusive_neighbors(net, 1, (1,)) == set()
    assert all(type(u) is int for u in exclusive_neighbors(net, 1, (0, 1)))


def test_exclusive_neighbors_directed_uses_unoriented_presence():
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(2, 1, 1, 1.0)]
    net = build_multiplex(edges, n_layers=2, directed=True)
    assert exclusive_neighbors(net, 1, (0,)) == {0}
    assert exclusive_neighbors(net, 1, (1,)) == {2}


def test_exclusive_neighbors_validates_inputs():
    net = _two_layer_net()
    with pytest.raises(ValueError):
        exclusive_neighbors(net, 9, (0,))
    with pytest.raises(ValueError):
        exclusive_neighbors(net, 0, (5,))
    with pytest.raises(ValueError):
        exclusive_neighbors(net, 0, ())


# --- classic scores ----------------------------------------------------------

def test_jaccard_classic_path_and_square():
    path = build_multiplex([FlowEdge(0, 1, 0, 1.0), FlowEdge(1, 2, 0, 1.0)])
    assert jaccard_classic(path, 0, 0, 2) == 1.0
    square = build_multiplex(
        [FlowEdge(i, (i + 1) % 4, 0, 1.0) for i in range(4)]
    )
    assert square.n_nodes == 4
    assert jaccard_classic(square, 0, 0, 2) == 1.0  # both see {1, 3}
    assert jaccard_classic(square, 0, 0, 1) == 0.0  # neighborhoods disjoint


def test_jaccard_classic_empty_union_scores_zero():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)], n_nodes=4)
    assert jaccard_classic(net, 0, 2, 3) == 0.0


def test_adamic_adar_classic_frozen_value():
    # common neighbors of (0, 1): node 2 with degree 2 and node 3 with degree 3
    edges = [
        FlowEdge(0, 2, 0, 1.0),
        FlowEdge(1, 2, 0, 1.0),
        FlowEdge(0, 3, 0, 1.0),
        FlowEdge(1, 3, 0, 1.0),
        FlowEdge(3, 4, 0, 1.0),
    ]
    net = build_multiplex(edges)
    expected = 1.0 / math.log(2) + 1.0 / math.log(3)
    assert adamic_adar_classic(net, 0, 0, 1) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(2.3529342675158008, abs=1e-12)


def test_adamic_adar_classic_skips_degree_one_neighbors():
    # a degree-1 "common neighbor" can only exist in directed mode
    edges = [FlowEdge(2, 0, 0, 1.0), FlowEdge(2, 1, 0, 1.0), FlowEdge(3, 2, 0, 1.0)]
    net = build_multiplex(edges, directed=True)
    # node 2 has unoriented degree 3; only common neighbor of (0,1)
    assert adamic_adar_classic(net, 0, 0, 1) == pytest.approx(1.0 / math.log(3))


def test_classic_scores_reject_identical_nodes():
    net = _two_layer_net()
    with pytest.raises(ValueError):
        jaccard_classic(net, 0, 1, 1)
    with pytest.raises(ValueError):
        adamic_adar_classic(net, 0, 1, 1)


# --- modified scores vs the oracle -------------------------------------------

def test_modified_scores_match_bruteforce_oracle():
    rng = np.random.default_rng(1234)
    nets = []
    for trial in range(12):
        n = int(rng.integers(4, 9))
        l = int(rng.integers(1, 4))
        nets.append(random_multiplex(rng, n, l, directed=bool(rng.integers(0, 2)), p=0.5))
    # dense: pairs share 8 or more exclusive neighbors, so a reordered sum would show
    nets.append(random_multiplex(rng, 40, 2, p=0.5))
    # self-loops on about half the nodes of each layer: a loop is no neighbor
    for trial in range(12):
        net = random_multiplex(rng, int(rng.integers(4, 10)), int(rng.integers(1, 4)),
                               directed=bool(trial % 2), p=0.45)
        intra = net.intra.copy()
        layer, node = np.nonzero(rng.random(intra.shape[:2]) < 0.5)
        intra[layer, node, node] = rng.uniform(0.5, 2.0, node.size)
        nets.append(MultiplexNetwork(directed=net.directed, intra=intra, coupling=1.0))
    for net in nets:
        l = net.n_layers
        for k in range(1, l + 1):
            subsets = enumerate_layer_subsets(l, k)
            stage = exclusive_stage(net, subsets)
            assert stage.subsets == tuple(subsets)
            # rows go subset by subset, then row-major u < v
            order = list(zip(stage.subset_index.tolist(), stage.u.tolist(), stage.v.tolist()))
            assert order == sorted(order) and all(u < v for _, u, v in order)
            for algorithm, scorer in (
                (JACCARD, modified_jaccard),
                (ADAMIC_ADAR, modified_adamic_adar),
            ):
                scores = scorer(stage)
                assert scores.shape == stage.u.shape  # one score per row of the stage
                for s, subset in enumerate(subsets):
                    want = oracle_scores(net, subset, algorithm)
                    single = exclusive_stage(net, [subset])
                    for got in (pair_scores(stage, scores, s), pair_scores(single, scorer(single))):
                        assert got.keys() == want.keys()
                        for pair, score in want.items():
                            assert got[pair] == score  # identical arithmetic, exact


def test_scorers_reject_subsets_of_mixed_size_or_out_of_range():
    net = _two_layer_net()
    for scorer in (modified_jaccard, modified_adamic_adar):
        with pytest.raises(ValueError, match="share one size"):
            scorer(exclusive_stage(net, [(0,), (0, 1)]))
        with pytest.raises(ValueError, match="out of range"):
            scorer(exclusive_stage(net, [(0,), (2,)]))
        stage = exclusive_stage(net, [])
        assert len(scorer(stage)) == 0 and stage.cell.size == stage.neighbor.size == 0


def _entries(stage, s, u, v, n):
    """The shared neighbors a stage lists for pair (u, v) of its s-th subset."""
    return stage.neighbor[stage.cell == (s * n + u) * n + v].tolist()


def test_shared_neighbor_entries_match_the_oracle():
    rng = np.random.default_rng(4321)
    checked = 0
    for trial in range(16):
        n = int(rng.integers(3, 9))
        l = int(rng.integers(1, 5))
        net = random_multiplex(rng, n, l, directed=bool(trial % 2), p=float(rng.uniform(0.3, 0.7)))
        pair_layers = oracle_pair_layers(net)
        for k in range(1, min(l, 3) + 1):
            subsets = enumerate_layer_subsets(l, k)
            stage = exclusive_stage(net, subsets)
            # sorted by cell, then by shared neighbor within a cell
            order = list(zip(stage.cell.tolist(), stage.neighbor.tolist()))
            assert order == sorted(order)
            for s, subset in enumerate(subsets):
                exclusive = [oracle_exclusive(pair_layers, n, x, subset) for x in range(n)]
                for u in range(n):
                    for v in range(u + 1, n):
                        want = sorted(exclusive[u] & exclusive[v])
                        assert _entries(stage, s, u, v, n) == want
                        checked += len(want)
            # a row is a pair that shares a neighbor: its run of the list
            for s, u, v, first, common in zip(*(column.tolist() for column in (
                    stage.subset_index, stage.u, stage.v, stage.first, stage.common))):
                assert _entries(stage, s, u, v, n) == stage.neighbor[first:first + common].tolist() != []
    assert checked > 1000


def test_degrees_match_the_oracle(monkeypatch):
    # every (subset, node)'s degrees, which the pass budget reads at every
    # node, not only at row endpoints and shared neighbors
    rng = np.random.default_rng(2468)
    counted, count = [], prediction._degrees
    monkeypatch.setattr(prediction, "_degrees", lambda cells, shape: counted.append(count(cells, shape))
                        or counted[-1])
    for trial in range(16):
        net = random_multiplex(rng, int(rng.integers(3, 10)), int(rng.integers(1, 5)),
                               directed=bool(trial % 2), p=float(rng.uniform(0.2, 0.7)))
        intra = net.intra.copy()  # self-loops on about half the nodes of each layer
        layer, node = np.nonzero(rng.random(intra.shape[:2]) < 0.5)
        intra[layer, node, node] = rng.uniform(0.5, 2.0, node.size)
        net = MultiplexNetwork(directed=net.directed, intra=intra, coupling=1.0)
        pair_layers, n = oracle_pair_layers(net), net.n_nodes
        for k in range(1, net.n_layers + 1):
            subsets = enumerate_layer_subsets(net.n_layers, k)
            stage = exclusive_stage(net, subsets)
            for s, subset in enumerate(subsets):
                assert stage.degree[s].tolist() == [len(oracle_exclusive(pair_layers, n, v, subset))
                                                    for v in range(n)]
                assert stage.union_degree[s].tolist() == [len(oracle_union_adjacent(pair_layers, n, v, subset))
                                                          for v in range(n)]
            # run_stage's first count is its budget's: each subset's sum_w
            # C(deg_w, 2) is the length of the subset's shared-pair list
            counted.clear()
            run_stage(net, k)
            assert counted[0].dtype == stage.degree.dtype and np.array_equal(counted[0], stage.degree)
            assert (counted[0] * (counted[0] - 1) // 2).sum(axis=1).tolist() == [
                exclusive_stage(net, [subset]).cell.size for subset in subsets]


def test_self_loops_add_no_neighbor_or_degree():
    # 2 joins 0 and 1 and has a loop: its union degree is 2, not 3
    edges = [FlowEdge(0, 2, 0, 1.0), FlowEdge(1, 2, 0, 1.0), FlowEdge(2, 2, 0, 1.0)]
    net = build_multiplex(edges, n_nodes=4)
    stage = exclusive_stage(net, [(0,)])
    assert pair_scores(stage, modified_adamic_adar(stage)) == {(0, 1): 1.0 / math.log(2)}
    assert pair_scores(stage, modified_jaccard(stage))[(0, 1)] == 1.0
    assert exclusive_neighbors(net, 2, (0,)) == {0, 1}


def test_modified_scores_omit_a_pair_whose_exclusive_neighborhoods_do_not_meet():
    # 0-2 via exclusive neighbor sets {1, 4} and {3}: union nonempty, empty
    # meet; 0 joins 1 and 4, and 4 joins 0 and 5, so (1, 4) and (0, 5) meet
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(2, 3, 0, 1.0), FlowEdge(0, 4, 0, 1.0), FlowEdge(4, 5, 0, 1.0)]
    net = build_multiplex(edges, n_nodes=6)
    stage = exclusive_stage(net, [(0,)])
    assert pair_scores(stage, modified_jaccard(stage)) == {(0, 5): 1.0 / 2.0, (1, 4): 1.0 / 2.0}
    assert pair_scores(stage, modified_adamic_adar(stage)) == {(0, 5): 1.0 / math.log(2), (1, 4): 1.0 / math.log(2)}


def test_modified_candidates_exclude_subset_union_edges_only():
    # (0,1) is an edge in layer 1 but not layer 0, so it is a candidate for D={0}
    edges = [FlowEdge(0, 2, 0, 1.0), FlowEdge(1, 2, 0, 1.0), FlowEdge(0, 1, 1, 1.0)]
    net = build_multiplex(edges, n_layers=2)
    stage = exclusive_stage(net, [(0,)])
    assert (0, 1) in pair_scores(stage, modified_jaccard(stage))


# --- normalize / threshold / weights -----------------------------------------

def _stage(subsets, rows, shared=(), n=0):
    """A hand-built ExclusiveStage from (subset index, u, v) rows and
    (cell, shared neighbor) entries on n nodes, given sorted; a row's run is
    its cell's entries, as exclusive_stage lays them out, and the degrees
    are empty."""
    index, u, v = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    cell, neighbor = np.array(shared, dtype=np.intp).reshape(-1, 2).T
    row_cell = (index * n + u) * n + v
    first = np.searchsorted(cell, row_cell)
    common = np.searchsorted(cell, row_cell, side="right") - first
    return ExclusiveStage(tuple(subsets), np.zeros((len(subsets), 0)), np.zeros((len(subsets), 0)),
                          index, u, v, first, common, cell, neighbor)


def test_normalize_scales_each_group_by_its_maximum():
    stage = _stage([(0,), (1,), (2,)], [(0, 0, 1), (0, 0, 2), (2, 0, 3)])
    raw = np.array([0.2, 0.8, 3.0])
    assert normalize_scores(stage, raw).tolist() == [0.25, 1.0, 1.0]
    assert raw.tolist() == [0.2, 0.8, 3.0]


def test_normalize_rejects_a_score_that_is_not_positive():
    # a scorer's rows share a neighbor, so only hand-built scores hold such a score
    stage = _stage([(0,), (1,), (2,)], [(0, 0, 1), (1, 0, 2), (1, 1, 3), (2, 1, 2)])
    with pytest.raises(ValueError, match=r"^raw score 0.0 in subset \(1,\) is not positive$"):
        normalize_scores(stage, np.array([0.5, 0.5, 0.0, 0.0]))
    for bad in (-0.25, math.nan):
        with pytest.raises(ValueError, match=r"in subset \(0, 2\) is not positive"):
            normalize_scores(_stage([(0, 1), (0, 2)], [(0, 0, 1), (1, 0, 2)]), np.array([1.0, bad]))
    # a subset without rows has nothing to scale
    out = normalize_scores(_stage([(0,), (1,)], [(1, 0, 2), (1, 1, 3)]), np.array([0.5, 0.25]))
    assert out.tolist() == [1.0, 0.5]
    assert len(normalize_scores(_stage([(1,)], []), np.zeros(0))) == 0
    assert len(normalize_scores(_stage([], []), np.zeros(0))) == 0
    assert "warnings" not in vars(prediction)  # no step warns


def test_threshold_is_strict():
    kept = threshold_filter(np.array([1.0, 0.5, 0.75]), 0.5)
    assert kept.tolist() == [0, 2]
    assert threshold_filter(np.array([1.0, 0.5]), 0.0).tolist() == [0, 1]
    for outside in (-0.1, 1.0):
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\)"):
            threshold_filter(np.array([1.0]), outside)


def test_assign_weights_means_flows_to_shared_exclusive_neighbors():
    # shared exclusive neighbor 2 with flows 4 and 8 to the endpoints
    edges = [FlowEdge(0, 2, 0, 4.0), FlowEdge(1, 2, 0, 8.0)]
    net = build_multiplex(edges)
    stage = exclusive_stage(net, [(0,)])
    assert assign_weights(stage, np.arange(1), net).tolist() == [6.0]  # mean(4, 8)
    assert len(assign_weights(stage, np.arange(0), net)) == 0
    # both algorithms normalize their one score to 1.0, so both weigh 1.0 * 6.0
    assert [(l.u, l.v, l.weight) for l in link_rows(run_stage(net, 1))] == [(0, 1, 6.0)]


def test_assign_weights_rejects_pair_without_shared_exclusive_neighbor():
    # only a hand-built stage can hold such a row: exclusive_stage's rows
    # each share a neighbor
    edges = [FlowEdge(0, 1, 0, 4.0), FlowEdge(2, 3, 0, 8.0)]
    net = build_multiplex(edges, n_nodes=5)
    # entries for the pairs (0, 3) and (1, 3), the cells either side of (0, 4)'s
    fabricated = _stage([(0,)], [(0, 0, 4)], shared=[(3, 1), (8, 2)], n=5)
    with pytest.raises(ValueError, match=r"pair \(0, 4\) shares no exclusive neighbor in layers \(0,\)"):
        assign_weights(fabricated, np.arange(1), net)


def test_assign_weights_means_match_np_mean_across_the_unroll_boundary():
    # np.mean sums pairwise with an 8-way unrolled loop from 8 values up, so
    # a pair's mean depends on how its context is summed. Pairs of 1 to 17
    # positive flows pin the grouped reduction; two pairs each of 8 and of 9
    # flows put more than one row in a length group.
    counts = [1, 7, 8, 8, 9, 9, 17]
    rng = np.random.default_rng(12)
    n = sum(2 + c for c in counts)
    intra = np.zeros((1, n, n))
    rows, shared, contexts, first = [], [], [], 0
    for count in counts:
        u, v, hubs = first, first + 1, range(first + 2, first + 2 + count)
        flows = 10.0 ** rng.uniform(-6, 6, count)
        for w, flow in zip(hubs, flows):
            intra[0, u, w] = intra[0, w, u] = flow  # v's flows to the hubs stay 0
            shared.append((u * n + v, w))
        rows.append((0, u, v))
        contexts.append(flows)
        first += 2 + count
    net = MultiplexNetwork(directed=False, intra=intra, coupling=1.0)
    stage = _stage([(0,)], rows, shared=shared, n=n)
    means = assign_weights(stage, np.arange(len(rows)), net)
    for mean, context in zip(means.tolist(), contexts):
        assert mean == float(np.mean(context))  # exact
    # some of the rows, in any order, get the same means
    some = np.array([5, 2, 3, 0])
    assert assign_weights(stage, some, net).tolist() == means[some].tolist()


def test_run_stage_weights_match_plain_loop_flow_means():
    rng = np.random.default_rng(606)
    checked = 0
    for trial in range(90):
        n = int(rng.integers(5, 13))
        l = int(rng.integers(1, 4))
        net = random_multiplex(rng, n, l, directed=bool(trial % 2), p=float(rng.uniform(0.2, 0.6)))
        for k in range(1, l + 1):
            for threshold in (0.5, 0.0):
                for link in link_rows(run_stage(net, k, threshold)):
                    mean_flow = oracle_flow_mean(net, link.subset, link.u, link.v)
                    assert mean_flow is not None  # every kept pair has flow context
                    assert link.weight == link.normalized_score * mean_flow  # exact
                    checked += 1
    assert checked > 2200  # the seed draws 1,035 union links at 0.5 and 1,462 at 0.0


def test_dedupe_keeps_max_weight_then_lexicographic_tags():
    def link(weight, algorithm, subset, raw=0.5, ends=(0, 1)):
        return Link(*ends, raw, 0.9, weight, algorithm, subset, len(subset))

    winner = link_rows(dedupe_links([
        link_table([link(2.0, ADAMIC_ADAR, (1,)), link(5.0, JACCARD, (0,))]),
        link_table([link(5.0, ADAMIC_ADAR, (0, 2)), link(5.0, ADAMIC_ADAR, (0,))]),
    ]))
    assert len(winner) == 1
    # "adamic_adar" < "jaccard", then (0,) < (0, 2) across the tables' subsets
    assert (winner[0].algorithm, winner[0].subset, winner[0].weight) == (ADAMIC_ADAR, (0,), 5.0)
    assert winner[0].sources == (
        (ADAMIC_ADAR, (0,), 1),
        (ADAMIC_ADAR, (0, 2), 2),
        (ADAMIC_ADAR, (1,), 1),
        (JACCARD, (0,), 1),
    )
    # an exact tie goes to the first row in input order, which keeps its orientation
    tied = [link(5.0, JACCARD, (0,), raw=0.25, ends=(1, 0)), link(5.0, JACCARD, (0,), raw=0.75)]
    for links in (tied, tied[::-1]):
        got = link_rows(dedupe_links([link_table(links)]))
        assert got == oracle_dedupe(links)
        assert (got[0].u, got[0].v, got[0].raw_score) == (links[0].u, links[0].v, links[0].raw_score)
        assert got[0].sources == ((JACCARD, (0,), 1),)


def test_link_table_sources_is_one_boolean_mask_per_row_algorithm_and_subset(monkeypatch):
    rng = np.random.default_rng(7)
    net = random_multiplex(rng, 8, 3, p=0.5)
    weighted = []  # the per-algorithm tables a pass hands to dedupe_links
    dedupe = prediction.dedupe_links
    monkeypatch.setattr(prediction, "dedupe_links", lambda tables: dedupe(weighted.extend(tables) or weighted))
    union = run_stage(net, 2, threshold=0.5)
    assert len(weighted) == 2
    tables = (*weighted, union, dedupe_links([*weighted, union]), link_table(link_rows(union)),
              link_table([]))
    for table in tables:
        assert table.sources.dtype == bool
        assert table.sources.shape == (len(table), len(ALGORITHMS), len(table.subsets))
    # a weighted row carries no provenance; a deduplicated row carries at least its own tag
    assert all(not table.sources.any() and len(table) for table in weighted)
    assert union.sources[np.arange(len(union)), union.algorithm, union.subset].all()


def test_run_stage_dedupes_across_subsets_in_order():
    rng = np.random.default_rng(7)
    net = random_multiplex(rng, 8, 3, p=0.5)
    links = link_rows(run_stage(net, 2, threshold=0.5))
    pairs = [(l.u, l.v) for l in links]
    assert pairs == sorted(pairs)
    assert len(pairs) == len(set(pairs))
    for l in links:
        assert l.stage == 2
        assert len(l.subset) == 2
        assert l.normalized_score > 0.5
        assert (l.algorithm, l.subset, l.stage) in l.sources
    # the stage is the union of both algorithms, and a pair both found keeps both tags
    assert {tag[0] for l in links for tag in l.sources} == {JACCARD, ADAMIC_ADAR}
    assert any({tag[0] for tag in l.sources} == {JACCARD, ADAMIC_ADAR} for l in links)


def _oracle_stage(net, k, threshold):
    """A stage from the plain-dict oracle: each (algorithm, subset) scaled by
    its own maximum, thresholded and weighted."""
    links = []
    for subset in enumerate_layer_subsets(net.n_layers, k):
        for algorithm in (JACCARD, ADAMIC_ADAR):
            scores = oracle_scores(net, subset, algorithm)
            top = max(scores.values(), default=0.0)
            for (u, v), raw in sorted(scores.items()):
                if raw / top > threshold:
                    weight = raw / top * oracle_flow_mean(net, subset, u, v)
                    links.append(Link(u, v, raw, raw / top, weight, algorithm, subset, k))
    return oracle_dedupe(links)


def test_run_stage_of_an_empty_network_or_stage_is_empty_without_warning():
    complete = [FlowEdge(i, j, 0, 1.0) for i in range(5) for j in range(i + 1, 5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        no_nodes = MultiplexNetwork(directed=False, intra=np.zeros((2, 0, 0)), coupling=1.0)
        assert len(run_stage(no_nodes, 1)) == len(run_stage(no_nodes, 2)) == 0
        # no candidate: no exclusive neighbor anywhere, or every pair an edge
        assert len(run_stage(build_multiplex([], n_layers=2, n_nodes=5), 2)) == 0
        assert len(run_stage(build_multiplex(complete), 1, threshold=0.0)) == 0


def test_run_stage_scores_no_row_for_a_subset_whose_pairs_share_no_neighbor():
    # layer 0 holds two disjoint edges on nodes 0-3: no pair of subset (0,)
    # shares an exclusive neighbor, so neither scorer has a row for it;
    # layers 1 and 2 are random on nodes 4-11 only
    rng = np.random.default_rng(31)
    edges = [FlowEdge(0, 1, 0, 2.0), FlowEdge(2, 3, 0, 3.0)]
    for layer in (1, 2):
        edges += [FlowEdge(i, j, layer, float(rng.uniform(0.5, 2.0)))
                  for i in range(4, 12) for j in range(i + 1, 12) if rng.random() < 0.4]
    net = build_multiplex(edges, n_layers=3, n_nodes=12)
    stage = exclusive_stage(net, [(0,)])
    assert len(modified_jaccard(stage)) == len(modified_adamic_adar(stage)) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        links = run_stage(net, 1, threshold=0.3)
    assert {links.subsets[s] for s in links.subset.tolist()} == {(1,), (2,)}
    assert link_rows(links) == _oracle_stage(net, 1, 0.3)


@st.composite
def _multiplexes(draw):
    """A multiplex of 2 to 8 nodes on 1 to 4 layers, self-loops and repeated edges included."""
    n, n_layers = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    edge = st.builds(FlowEdge, st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n_layers - 1),
                     st.floats(0.5, 2.0))
    edges = draw(st.lists(edge, min_size=n * n_layers, max_size=3 * n * n_layers))
    return build_multiplex(edges, n_layers=n_layers, directed=draw(st.booleans()), n_nodes=n)


@settings(max_examples=100, deadline=None)
@given(_multiplexes())
def test_run_stage_matches_the_oracle_stage_on_random_multiplexes(net):
    for k in range(1, min(3, net.n_layers) + 1):
        # both scorers score every row of the stage, each with a positive score
        stage = exclusive_stage(net, enumerate_layer_subsets(net.n_layers, k))
        jaccard, adamic_adar = modified_jaccard(stage), modified_adamic_adar(stage)
        assert jaccard.shape == adamic_adar.shape == stage.u.shape
        assert (jaccard > 0).all() and (adamic_adar > 0).all()
        for threshold in (0.0, 0.5, 0.9):
            assert link_rows(run_stage(net, k, threshold)) == _oracle_stage(net, k, threshold)


def test_run_stage_does_not_depend_on_the_pass_budget(monkeypatch):
    rng = np.random.default_rng(77)
    nets = [random_multiplex(rng, int(rng.integers(5, 11)), 4, directed=bool(trial % 2), p=0.45)
            for trial in range(6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no pass warns
        default = [run_stage(net, k, threshold) for net in nets for k in (1, 2, 3)
                   for threshold in (0.0, 0.5)]
        scored = []
        scorer = prediction.modified_jaccard
        monkeypatch.setattr(prediction, "modified_jaccard",
                            lambda stage: scored.append(len(stage.subsets)) or scorer(stage))
        monkeypatch.setattr(prediction, "CHUNK_BYTES", 1)  # one subset per pass
        split = [run_stage(net, k, threshold) for net in nets for k in (1, 2, 3)
                 for threshold in (0.0, 0.5)]
    assert all(same_links(a, b) for a, b in zip(split, default, strict=True))
    assert set(scored) == {1} and len(scored) == len(nets) * (4 + 6 + 4) * 2


def _erdos_renyi_multiplex():
    """A seeded Erdos-Renyi multiplex, N=200, L=5, p=0.2 per layer, undirected."""
    rng = np.random.default_rng(0)
    layer, u, v = np.nonzero(np.triu(rng.random((5, 200, 200)) < 0.2, k=1))
    flows = rng.uniform(0.5, 2.0, layer.size)
    return build_multiplex([FlowEdge(*edge) for edge in zip(u.tolist(), v.tolist(), layer.tolist(),
                                                          flows.tolist())], n_layers=5, n_nodes=200)


def test_run_stage_splits_a_dense_stage_by_its_shared_pair_list(monkeypatch):
    # on the Erdos-Renyi multiplex stage 3 lists about 380,000 shared-neighbor
    # entries per subset, which the (N, N) cells alone do not show
    net = _erdos_renyi_multiplex()
    passes = []
    build = prediction.exclusive_stage
    monkeypatch.setattr(prediction, "exclusive_stage",
                        lambda net, subsets: passes.append(len(subsets)) or build(net, subsets))
    tracemalloc.start()
    try:
        split = run_stage(net, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20 and passes == [1] * 10
    monkeypatch.setattr(prediction, "CHUNK_BYTES", 2**40)
    whole = run_stage(net, 3)
    assert passes[10:] == [10]
    assert same_links(split, whole) and len(split) > 10_000


def _lattice(n, n_layers, directed):
    """The seed-0 ring lattice of perfbench/gen.py: about three neighbors per
    layer, many of them exclusive to one layer."""
    rows = lattice_edges(n, n_layers, directed, 0)
    return build_multiplex([FlowEdge(u, v, layer, flow) for layer, u, v, flow in rows],
                           n_layers=n_layers, n_nodes=n, directed=directed)


def _cost(net, stage):
    """What run_stage counts for a pass over the stage's subsets: NODE_BYTES
    per node and PAIR_BYTES per pair inside each subset, and per listed entry
    ENTRY_BYTES plus the flows assign_weights gathers, 18 bytes per layer of
    the subset, 36 when directed."""
    k = len(stage.subsets[0])
    return (len(stage.subsets) * NODE_BYTES * net.n_nodes + PAIR_BYTES * (int(stage.union_degree.sum()) // 2)
            + (ENTRY_BYTES + 18 * k * (1 + net.directed)) * stage.cell.size)


def _scan(net):
    """The one dense scan a pass makes for the pairs some layer joins, which
    run_stage does not count: L + 2 bytes per (N, N) cell."""
    return (net.n_layers + 2) * net.n_nodes**2


def _passes(monkeypatch, net, k, threshold, budget):
    """run_stage(net, k, threshold) under a CHUNK_BYTES budget, and each pass's
    subset count, listed entries, cost and tracemalloc peak over what it
    started with."""
    passes = []
    build, dedupe = prediction.exclusive_stage, prediction.dedupe_links

    def close():  # the pass that is open, if any, ends
        if passes and "peak" not in passes[-1]:
            passes[-1]["peak"] = tracemalloc.get_traced_memory()[1] - passes[-1]["start"]

    def start(net, subsets):
        close()
        tracemalloc.reset_peak()
        begun = tracemalloc.get_traced_memory()[0]
        stage = build(net, subsets)
        passes.append({"start": begun, "subsets": len(subsets), "entries": stage.cell.size,
                       "cost": _cost(net, stage)})
        return stage

    monkeypatch.setattr(prediction, "CHUNK_BYTES", budget)
    monkeypatch.setattr(prediction, "exclusive_stage", start)
    monkeypatch.setattr(prediction, "dedupe_links", lambda tables: close() or dedupe(tables))
    tracemalloc.start()
    try:
        links = run_stage(net, k, threshold)
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(prediction, "exclusive_stage", build)
        monkeypatch.setattr(prediction, "dedupe_links", dedupe)
    return links, passes


def test_a_pass_at_threshold_zero_stays_within_its_budget(monkeypatch):
    # at threshold 0 every row is kept, weighted and tabled: a pass's peak
    # over what it started with stays within what run_stage counted for it
    # plus the dense scan it makes, which is not counted
    net = _erdos_renyi_multiplex()
    for k in (1, 2):
        # a budget of three of the stage's costliest subsets packs several per pass
        costs = [_cost(net, exclusive_stage(net, [subset]))
                 for subset in enumerate_layer_subsets(net.n_layers, k)]
        split, passes = _passes(monkeypatch, net, k, 0.0, 3 * max(costs))
        assert min(p["subsets"] for p in passes[:-1]) >= 3 and len(passes) > 1
        for p in passes:
            assert p["peak"] <= p["cost"] + _scan(net), (k, p)
        monkeypatch.setattr(prediction, "CHUNK_BYTES", 2**40)
        assert same_links(split, run_stage(net, k, 0.0))
    # on a sparse directed lattice nearly every entry is a row, and at stage L
    # a pass holds more than ENTRY_BYTES per entry: only the flow term covers it
    net = _lattice(400, 5, directed=True)
    _, (p,) = _passes(monkeypatch, net, 5, 0.0, 2**40)
    assert p["peak"] <= p["cost"] + _scan(net) and p["entries"] > 10_000, p


def test_a_pass_grows_with_its_subsets_only_by_their_entries(monkeypatch):
    # no pass holds an (N, N) array per subset: packing a stage's three
    # subsets into one pass costs at most ENTRY_BYTES per entry the other two add
    net = _lattice(400, 3, directed=False)
    alone, singles = _passes(monkeypatch, net, 1, 0.0, 1)
    together, (joint,) = _passes(monkeypatch, net, 1, 0.0, 2**40)
    assert [p["subsets"] for p in singles] == [1, 1, 1] and joint["subsets"] == 3
    for p in singles:
        assert joint["peak"] - p["peak"] <= ENTRY_BYTES * (joint["entries"] - p["entries"]), (p, joint)
    assert same_links(alone, together)


class _CountedScans(np.ndarray):
    """Layer weights that count their dense scans: comparisons of all (L, N, N)
    cells at once."""

    scans = 0

    def __gt__(self, other):
        if self.ndim == 3:
            _CountedScans.scans += 1
        return np.asarray(self) > other


def test_a_network_is_scanned_once_for_every_stage_pass_and_neighborhood(monkeypatch):
    # the joined pairs are the network's: stages, their budgets and passes,
    # and exclusive_neighbors all read the table its first use lists
    plain = _lattice(24, 5, directed=False)
    for budget in (prediction.CHUNK_BYTES, 1):  # one pass per stage, then one per subset
        monkeypatch.setattr(prediction, "CHUNK_BYTES", budget)
        net = MultiplexNetwork(directed=False, intra=plain.intra.view(_CountedScans), coupling=plain.coupling)
        _CountedScans.scans = 0
        tables = [run_stage(net, k, 0.5) for k in (1, 2, 3)]
        neighbors = exclusive_neighbors(net, 0, (0,))
        assert _CountedScans.scans == 1
        assert all(same_links(table, run_stage(plain, k, 0.5)) for k, table in zip((1, 2, 3), tables))
        assert neighbors == exclusive_neighbors(plain, 0, (0,))


def test_run_stage_weights_each_pass_once_on_the_union_of_kept_rows(monkeypatch):
    net = random_multiplex(np.random.default_rng(41), 9, 4, p=0.45)
    normalized, kept, weighed, tables = [], [], [], []
    for name, log in (("normalize_scores", normalized), ("threshold_filter", kept),
                      ("assign_weights", weighed)):
        monkeypatch.setattr(prediction, name, lambda *args, step=getattr(prediction, name), log=log:
                            log.append((args, step(*args))) or log[-1][1])
    dedupe = prediction.dedupe_links
    monkeypatch.setattr(prediction, "dedupe_links", lambda t: tables.extend(t) or dedupe(tables))
    widened = 0
    # one pass per stage by default, one per subset under a 1-byte budget
    for budget, passes in ((prediction.CHUNK_BYTES, (1, 1, 1, 1)), (1, (4, 6, 4, 1))):
        monkeypatch.setattr(prediction, "CHUNK_BYTES", budget)
        for k, count in zip((1, 2, 3, 4), passes):
            for log in (normalized, kept, weighed, tables):
                log.clear()
            assert len(run_stage(net, k, 0.5))
            assert len(weighed) == count and len(normalized) == len(kept) == len(tables) == 2 * count
            for p, ((stage, rows, _), mean) in enumerate(weighed):
                # the sorted union of the pass's two kept row sets, each row once
                ours = [kept[2 * p + a][1].tolist() for a in (0, 1)]
                assert rows.tolist() == sorted(set(ours[0]) | set(ours[1]))
                widened += len(rows) > max(map(len, ours))
                means = dict(zip(rows.tolist(), mean.tolist()))
                for a in (0, 1):  # Jaccard, then Adamic-Adar
                    (scored_stage, _), scores = normalized[2 * p + a]
                    assert scored_stage is stage
                    # a link's weight is its normalized score times its row's mean, bit for bit
                    want = [scores[r] * means[r] for r in ours[a]]
                    assert tables[2 * p + a].weight.tolist() == want
    assert widened  # some pass weights rows that only one algorithm kept


def test_run_stage_builds_each_pass_once_for_both_scorers(monkeypatch):
    net = random_multiplex(np.random.default_rng(41), 9, 4, p=0.45)
    built, read = [], []
    build = prediction.exclusive_stage
    monkeypatch.setattr(prediction, "exclusive_stage",
                        lambda net, subsets: built.append(build(net, subsets)) or built[-1])
    for name in ("modified_jaccard", "modified_adamic_adar"):
        monkeypatch.setattr(prediction, name, lambda stage, scorer=getattr(prediction, name), name=name:
                            read.append((name, stage)) or scorer(stage))
    # one pass per stage by default, one per subset under a 1-byte budget
    for budget, passes in ((prediction.CHUNK_BYTES, (1, 1, 1, 1)), (1, (4, 6, 4, 1))):
        monkeypatch.setattr(prediction, "CHUNK_BYTES", budget)
        for k, count in zip((1, 2, 3, 4), passes):
            built.clear()
            read.clear()
            assert len(run_stage(net, k, 0.0))
            assert len(built) == count
            assert [name for name, _ in read] == ["modified_jaccard", "modified_adamic_adar"] * count
            assert all(stage is built[i // 2] for i, (_, stage) in enumerate(read))


def test_links_csv_quotes_labels_as_csv_writer_does():
    labels = ("plain", "", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " spaced ")
    links = [Link(u, v, 0.1 * u + 0.7, 1.0 / (v + 1), 3.0 * u + v / 7, ALGORITHMS[u % 2],
                  ((0, 2), (1,), (0, 1, 2))[v % 3], len(((0, 2), (1,), (0, 1, 2))[v % 3]))
             for u in range(7) for v in range(u + 1, 7)]
    got = format_links_csv(link_table(links), labels)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(LINK_CSV_COLUMNS)
    writer.writerows([labels[l.u], labels[l.v], l.algorithm, format_subset(l.subset), l.stage,
                      repr(l.raw_score), repr(l.normalized_score), repr(l.weight)] for l in links)
    assert got == want.getvalue()


def test_links_csv_round_trip(tmp_path):
    link = Link(0, 2, 0.75, 1.0, 5.25, JACCARD, (0, 2), 2)
    path = tmp_path / "links.csv"
    path.write_text(format_links_csv(link_table([link]), ("a", "b", "c")), encoding="utf-8")
    back = read_links_csv(path, {"a": 0, "b": 1, "c": 2})
    assert link_rows(back) == [link]
    with pytest.raises(ValueError, match="^links file line 2: unknown node label 'a'$"):
        read_links_csv(path, {"x": 0})
    # columns in any order (the shared table rules: test_multiplex.py)
    columns = [c for c in LINK_CSV_COLUMNS if c != "subset"] + ["subset"]
    path.write_text(",".join(columns) + "\na,c,jaccard,2,0.75,1.0,5.25,0+2\n", encoding="utf-8")
    assert link_rows(read_links_csv(path, {"a": 0, "b": 1, "c": 2})) == [link]


def test_subset_format_round_trip():
    assert format_subset((0, 2)) == "0+2"
    assert parse_subset("0+2") == (0, 2)
    assert parse_subset("1") == (1,)
    for text in ("2+0", "1+1"):  # format_subset writes layers strictly increasing
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_subset(text)
