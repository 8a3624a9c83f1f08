"""Exclusive-neighborhood scoring against hand values and a brute-force oracle."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from conftest import (
    group_scores,
    oracle_dedupe,
    oracle_exclusive,
    oracle_flow_mean,
    oracle_pair_layers,
    oracle_scores,
    random_multiplex,
)

from multinav import (
    FlowEdge,
    LinkTable,
    MultiplexNetwork,
    PredictedLink,
    ScoredPairs,
    adamic_adar_classic,
    assign_weights,
    build_multiplex,
    dedupe_links,
    enumerate_layer_subsets,
    exclusive_neighbors,
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
    JACCARD,
    LINK_CSV_COLUMNS,
    format_subset,
    parse_subset,
    read_links_csv,
    write_links_csv,
)


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
            for algorithm, scorer in (
                (JACCARD, modified_jaccard),
                (ADAMIC_ADAR, modified_adamic_adar),
            ):
                stage = scorer(net, subsets)
                assert stage.subsets == tuple(subsets)
                # rows go subset by subset, then row-major u < v
                order = list(zip(stage.subset_index.tolist(), stage.u.tolist(), stage.v.tolist()))
                assert order == sorted(order) and all(u < v for _, u, v in order)
                for s, subset in enumerate(subsets):
                    want = oracle_scores(net, subset, algorithm)
                    for got in (group_scores(stage.where(stage.subset_index == s)),
                                group_scores(scorer(net, [subset]))):
                        assert got.keys() == want.keys()
                        for pair, score in want.items():
                            assert got[pair] == score  # identical arithmetic, exact


def test_scorers_reject_subsets_of_mixed_size_or_out_of_range():
    net = _two_layer_net()
    for scorer in (modified_jaccard, modified_adamic_adar):
        with pytest.raises(ValueError, match="share one size"):
            scorer(net, [(0,), (0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            scorer(net, [(0,), (2,)])
        stage = scorer(net, [])
        assert len(stage) == 0 and stage.cell.size == stage.neighbor.size == 0


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
            for scorer in (modified_jaccard, modified_adamic_adar):
                stage = scorer(net, subsets)
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
                if scorer is modified_jaccard:
                    zero = stage.where(stage.raw_score == 0.0)
                    for s, u, v in zip(zero.subset_index.tolist(), zero.u.tolist(), zero.v.tolist()):
                        assert _entries(zero, s, u, v, n) == []
    assert checked > 1000


def test_self_loops_add_no_neighbor_or_degree():
    # 2 joins 0 and 1 and has a loop: its union degree is 2, not 3
    edges = [FlowEdge(0, 2, 0, 1.0), FlowEdge(1, 2, 0, 1.0), FlowEdge(2, 2, 0, 1.0)]
    net = build_multiplex(edges, n_nodes=4)
    assert group_scores(modified_adamic_adar(net, [(0,)])) == {(0, 1): 1.0 / math.log(2)}
    assert group_scores(modified_jaccard(net, [(0,)]))[(0, 1)] == 1.0
    assert exclusive_neighbors(net, 2, (0,)) == {0, 1}


def test_modified_jaccard_keeps_zero_scores_when_union_nonempty():
    # 0-2 via exclusive neighbor sets {1} and {3}: union nonempty, empty meet
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(2, 3, 0, 1.0)]
    net = build_multiplex(edges, n_nodes=4)
    assert group_scores(modified_jaccard(net, [(0,)]))[(0, 2)] == 0.0
    assert (0, 2) not in group_scores(modified_adamic_adar(net, [(0,)]))  # empty intersection omitted


def test_modified_candidates_exclude_subset_union_edges_only():
    # (0,1) is an edge in layer 1 but not layer 0, so it is a candidate for D={0}
    edges = [FlowEdge(0, 2, 0, 1.0), FlowEdge(1, 2, 0, 1.0), FlowEdge(0, 1, 1, 1.0)]
    net = build_multiplex(edges, n_layers=2)
    assert (0, 1) in group_scores(modified_jaccard(net, [(0,)]))


# --- normalize / threshold / weights -----------------------------------------

def _group(algorithm, subsets, rows, shared=(), normalized=None):
    """A hand-built ScoredPairs from (subset index, u, v, raw_score) rows and
    (cell, shared neighbor) entries, given sorted."""
    index, u, v, raw = np.array(rows, dtype=float).reshape(-1, 4).T
    cell, neighbor = np.array(shared, dtype=np.intp).reshape(-1, 2).T
    return ScoredPairs(
        algorithm, tuple(subsets), index.astype(int), u.astype(int), v.astype(int), raw,
        cell, neighbor, None if normalized is None else np.array(normalized, dtype=float),
    )


def test_scored_pairs_where_keeps_the_masked_rows():
    group = _group(JACCARD, [(0, 2), (1, 2)], [(0, 0, 1, 0.2), (1, 1, 3, 0.8)],
                   shared=[(1, 2), (23, 0)])
    assert len(group) == 2
    kept = group.where(np.array([False, True]))
    assert (kept.algorithm, kept.subsets) == (JACCARD, ((0, 2), (1, 2)))
    assert group_scores(kept) == {(1, 3): 0.8} and kept.subset_index.tolist() == [1]
    assert kept.cell is group.cell and kept.neighbor is group.neighbor
    assert kept.normalized_score is None


def test_normalize_scales_each_group_by_its_maximum():
    group = normalize_scores(_group(JACCARD, [(0,), (1,), (2,)],
                                    [(0, 0, 1, 0.2), (0, 0, 2, 0.8), (2, 0, 3, 3.0)]))
    assert group.normalized_score.tolist() == [0.25, 1.0, 1.0]
    assert group.raw_score.tolist() == [0.2, 0.8, 3.0]
    assert group.subset_index.tolist() == [0, 0, 2]


def test_normalize_drops_all_zero_group_with_warning():
    rows = [(0, 0, 1, 0.0), (0, 0, 2, 0.0), (1, 0, 2, 0.5), (1, 1, 3, 0.25), (2, 1, 2, 0.0)]
    with pytest.warns(UserWarning) as caught:
        out = normalize_scores(_group(JACCARD, [(0,), (1,), (2,)], rows))
    assert [str(w.message) for w in caught] == [
        "all scores are zero for ('jaccard', (0,)); group dropped",
        "all scores are zero for ('jaccard', (2,)); group dropped",
    ]
    assert group_scores(out) == {(0, 2): 0.5, (1, 3): 0.25}
    assert out.subset_index.tolist() == [1, 1] and out.normalized_score.tolist() == [1.0, 0.5]
    with pytest.warns(UserWarning, match=r"all scores are zero for \('jaccard', \(0,\)\)"):
        zero = normalize_scores(_group(JACCARD, [(0,)], [(0, 0, 1, 0.0), (0, 0, 2, 0.0)]))
    assert len(zero) == 0 and zero.normalized_score.size == 0
    assert len(threshold_filter(zero)) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty subset is not "all zero"
        assert len(normalize_scores(_group(JACCARD, [(1,)], []))) == 0
        assert len(normalize_scores(_group(JACCARD, [], []))) == 0


def test_threshold_is_strict():
    group = normalize_scores(_group(JACCARD, [(0,)], [(0, 0, 1, 1.0), (0, 0, 2, 0.5)]))
    kept = threshold_filter(group, 0.5)
    assert group_scores(kept) == {(0, 1): 1.0}
    assert kept.normalized_score.tolist() == [1.0]
    with pytest.raises(ValueError, match="requires normalized scores"):
        threshold_filter(_group(JACCARD, [(0,)], [(0, 0, 1, 1.0)]))
    for outside in (-0.1, 1.0):
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\)"):
            threshold_filter(group, outside)


def test_assign_weights_means_flows_to_shared_exclusive_neighbors():
    # shared exclusive neighbor 2 with flows 4 and 8 to the endpoints
    edges = [FlowEdge(0, 2, 0, 4.0), FlowEdge(1, 2, 0, 8.0)]
    net = build_multiplex(edges)
    group = threshold_filter(normalize_scores(modified_jaccard(net, [(0,)])), 0.5)
    links = assign_weights(group, net)
    assert list(links) == [PredictedLink(0, 1, 1.0, 1.0, 6.0, JACCARD, (0,), 1)]  # mean(4, 8) * 1.0
    with pytest.raises(ValueError, match="requires normalized scores"):
        assign_weights(modified_jaccard(net, [(0,)]), net)


def test_assign_weights_rejects_pair_without_shared_exclusive_neighbor():
    # only a hand-built group can hold such a pair: threshold_filter keeps
    # positive scores, and a positive score means a shared neighbor
    edges = [FlowEdge(0, 1, 0, 4.0), FlowEdge(2, 3, 0, 8.0)]
    net = build_multiplex(edges, n_nodes=5)
    # entries for the pairs (0, 3) and (1, 3), the cells either side of (0, 4)'s
    fabricated = _group(JACCARD, [(0,)], [(0, 0, 4, 0.7)], shared=[(3, 1), (8, 2)],
                        normalized=[0.7])
    with pytest.raises(ValueError, match=r"pair \(0, 4\) shares no exclusive neighbor in layers \(0,\)"):
        assign_weights(fabricated, net)


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
        rows.append((0, u, v, 1.0))
        contexts.append(flows)
        first += 2 + count
    net = MultiplexNetwork(directed=False, intra=intra, coupling=1.0)
    normalized = rng.uniform(0.5, 1.0, len(counts))
    group = _group(ADAMIC_ADAR, [(0,)], rows, shared=shared, normalized=normalized)
    links = assign_weights(group, net)
    assert [(l.u, l.v) for l in links] == [(u, v) for _, u, v, _ in rows]
    for link, norm, context in zip(links, normalized, contexts):
        assert link.weight == norm * float(np.mean(context))  # exact


@pytest.mark.filterwarnings("ignore:all scores are zero")
def test_run_stage_weights_match_plain_loop_flow_means():
    rng = np.random.default_rng(606)
    checked = 0
    for trial in range(90):
        n = int(rng.integers(5, 13))
        l = int(rng.integers(1, 4))
        net = random_multiplex(rng, n, l, directed=bool(trial % 2), p=float(rng.uniform(0.2, 0.6)))
        for k in range(1, l + 1):
            for threshold in (0.5, 0.0):
                for link in run_stage(net, k, threshold):
                    mean_flow = oracle_flow_mean(net, link.subset, link.u, link.v)
                    assert mean_flow is not None  # every kept pair has flow context
                    assert link.weight == link.normalized_score * mean_flow  # exact
                    checked += 1
    assert checked > 2200  # the seed draws 1,035 union links at 0.5 and 1,462 at 0.0


def test_dedupe_keeps_max_weight_then_lexicographic_tags():
    def link(weight, algorithm, subset, raw=0.5, ends=(0, 1)):
        return PredictedLink(*ends, raw, 0.9, weight, algorithm, subset, len(subset))

    winner = list(dedupe_links([
        LinkTable.from_links([link(2.0, ADAMIC_ADAR, (1,)), link(5.0, JACCARD, (0,))]),
        LinkTable.from_links([link(5.0, ADAMIC_ADAR, (0, 2)), link(5.0, ADAMIC_ADAR, (0,))]),
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
        got = list(dedupe_links([LinkTable.from_links(links)]))
        assert got == oracle_dedupe(links)
        assert (got[0].u, got[0].v, got[0].raw_score) == (links[0].u, links[0].v, links[0].raw_score)
        assert got[0].sources == ((JACCARD, (0,), 1),)


def test_link_table_round_trips_links_with_sources():
    links = [
        PredictedLink(3, 1, 0.5, 1.0, 2.0, JACCARD, (0, 2), 2,
                      ((ADAMIC_ADAR, (1, 2), 2), (JACCARD, (0, 2), 2))),
        PredictedLink(0, 4, 0.25, 0.5, 1.0, ADAMIC_ADAR, (1,), 1),
    ]
    table = LinkTable.from_links(links)
    assert len(table) == 2 and table.subsets == ((0, 2), (1,), (1, 2))
    assert table.algorithm.tolist() == [1, 0] and table.subset.tolist() == [0, 1]
    assert list(table) == links and list(table) == links  # iterable again
    empty = LinkTable.from_links([])
    assert len(empty) == 0 and list(empty) == [] and empty.subsets == ()


def test_link_table_sources_is_one_boolean_mask_per_row_algorithm_and_subset():
    rng = np.random.default_rng(7)
    net = random_multiplex(rng, 8, 3, p=0.5)
    weighted = assign_weights(threshold_filter(normalize_scores(
        modified_jaccard(net, enumerate_layer_subsets(3, 2)))), net)
    union = run_stage(net, 2, threshold=0.5)
    tables = (weighted, union, dedupe_links([weighted, union]), LinkTable.from_links(list(union)),
              LinkTable.from_links([]))
    for table in tables:
        assert table.sources.dtype == bool
        assert table.sources.shape == (len(table), len(ALGORITHMS), len(table.subsets))
    # a weighted row carries no provenance; a deduplicated row carries at least its own tag
    assert not weighted.sources.any() and len(weighted)
    assert union.sources[np.arange(len(union)), union.algorithm, union.subset].all()


def test_run_stage_dedupes_across_subsets_in_order():
    rng = np.random.default_rng(7)
    net = random_multiplex(rng, 8, 3, p=0.5)
    links = run_stage(net, 2, threshold=0.5)
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
    its own maximum (an all-zero one dropped), thresholded and weighted."""
    links = []
    for subset in enumerate_layer_subsets(net.n_layers, k):
        for algorithm in (JACCARD, ADAMIC_ADAR):
            scores = oracle_scores(net, subset, algorithm)
            top = max(scores.values(), default=0.0)
            for (u, v), raw in sorted(scores.items()):
                if top > 0 and raw / top > threshold:
                    weight = raw / top * oracle_flow_mean(net, subset, u, v)
                    links.append(PredictedLink(u, v, raw, raw / top, weight, algorithm, subset, k))
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


def test_run_stage_drops_only_the_all_zero_subset():
    # layer 0 holds two disjoint edges on nodes 0-3: every Jaccard candidate
    # of subset (0,) scores 0 and Adamic-Adar has none; layers 1 and 2 are
    # random on nodes 4-11 only
    rng = np.random.default_rng(31)
    edges = [FlowEdge(0, 1, 0, 2.0), FlowEdge(2, 3, 0, 3.0)]
    for layer in (1, 2):
        edges += [FlowEdge(i, j, layer, float(rng.uniform(0.5, 2.0)))
                  for i in range(4, 12) for j in range(i + 1, 12) if rng.random() < 0.4]
    net = build_multiplex(edges, n_layers=3, n_nodes=12)
    with pytest.warns(UserWarning) as caught:
        links = run_stage(net, 1, threshold=0.3)
    assert [str(w.message) for w in caught] == [
        "all scores are zero for ('jaccard', (0,)); group dropped"
    ]
    assert {l.subset for l in links} == {(1,), (2,)}
    assert list(links) == _oracle_stage(net, 1, 0.3)


def test_run_stage_does_not_depend_on_the_pass_budget(monkeypatch):
    rng = np.random.default_rng(77)
    nets = [random_multiplex(rng, int(rng.integers(5, 11)), 4, directed=bool(trial % 2), p=0.45)
            for trial in range(6)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an all-zero subset warns once per pass
        default = [list(run_stage(net, k, threshold)) for net in nets for k in (1, 2, 3)
                   for threshold in (0.0, 0.5)]
        scored = []
        scorer = prediction.modified_jaccard
        monkeypatch.setattr(prediction, "modified_jaccard",
                            lambda net, subsets: scored.append(len(subsets)) or scorer(net, subsets))
        monkeypatch.setattr(prediction, "CHUNK_BYTES", 1)  # one subset per pass
        split = [list(run_stage(net, k, threshold)) for net in nets for k in (1, 2, 3)
                 for threshold in (0.0, 0.5)]
    assert split == default
    assert set(scored) == {1} and len(scored) == len(nets) * (4 + 6 + 4) * 2


def test_links_csv_round_trip(tmp_path):
    link = PredictedLink(0, 2, 0.75, 1.0, 5.25, JACCARD, (0, 2), 2)
    path = tmp_path / "links.csv"
    write_links_csv(path, LinkTable.from_links([link]), ("a", "b", "c"))
    back = read_links_csv(path, {"a": 0, "b": 1, "c": 2})
    assert list(back) == [link]
    with pytest.raises(ValueError, match="unknown node label"):
        read_links_csv(path, {"x": 0})
    # columns in any order: a short row's missing subset is a bad value, not a crash
    columns = [c for c in LINK_CSV_COLUMNS if c != "subset"] + ["subset"]
    path.write_text(",".join(columns) + "\na,c,jaccard,2,0.75,1.0,5.25\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: bad subset None"):
        read_links_csv(path, {"a": 0, "b": 1, "c": 2})
    header = ",".join(c for c in LINK_CSV_COLUMNS if c != "weight")
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"links file missing columns \['weight'\]"):
        read_links_csv(path, {"a": 0, "b": 1, "c": 2})


def test_subset_format_round_trip():
    assert format_subset((0, 2)) == "0+2"
    assert parse_subset("0+2") == (0, 2)
    assert parse_subset("1") == (1,)
    for text in ("2+0", "1+1"):  # format_subset writes layers strictly increasing
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_subset(text)
