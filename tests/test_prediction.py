"""Exclusive-neighborhood scoring against hand values and a brute-force oracle."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from conftest import oracle_flow_mean, oracle_scores, random_multiplex

from multinav import (
    FlowEdge,
    PredictedLink,
    ScoredPair,
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
from multinav.prediction import (
    ADAMIC_ADAR,
    JACCARD,
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
    assert exclusive_neighbors(net, 1, (0,)).members == {2}
    assert exclusive_neighbors(net, 1, (0, 1)).members == {0, 2}
    assert exclusive_neighbors(net, 1, (1,)).members == set()


def test_exclusive_neighbors_directed_uses_unoriented_presence():
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(2, 1, 1, 1.0)]
    net = build_multiplex(edges, n_layers=2, directed=True)
    assert exclusive_neighbors(net, 1, (0,)).members == {0}
    assert exclusive_neighbors(net, 1, (1,)).members == {2}


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
    for net in nets:
        l = net.n_layers
        for k in range(1, l + 1):
            for subset in enumerate_layer_subsets(l, k):
                for algorithm, scorer in (
                    (JACCARD, modified_jaccard),
                    (ADAMIC_ADAR, modified_adamic_adar),
                ):
                    got = {(p.u, p.v): p.raw_score for p in scorer(net, subset)}
                    want = oracle_scores(net, subset, algorithm)
                    assert got.keys() == want.keys()
                    for pair, score in want.items():
                        assert got[pair] == score  # identical arithmetic, exact


def test_modified_jaccard_keeps_zero_scores_when_union_nonempty():
    # 0-2 via exclusive neighbor sets {1} and {3}: union nonempty, empty meet
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(2, 3, 0, 1.0)]
    net = build_multiplex(edges, n_nodes=4)
    scores = {(p.u, p.v): p.raw_score for p in modified_jaccard(net, (0,))}
    assert scores[(0, 2)] == 0.0
    aa = {(p.u, p.v) for p in modified_adamic_adar(net, (0,))}
    assert (0, 2) not in aa  # empty intersection omitted entirely


def test_modified_candidates_exclude_subset_union_edges_only():
    # (0,1) is an edge in layer 1 but not layer 0, so it is a candidate for D={0}
    edges = [FlowEdge(0, 2, 0, 1.0), FlowEdge(1, 2, 0, 1.0), FlowEdge(0, 1, 1, 1.0)]
    net = build_multiplex(edges, n_layers=2)
    pairs = {(p.u, p.v) for p in modified_jaccard(net, (0,))}
    assert (0, 1) in pairs


# --- normalize / threshold / weights -----------------------------------------

def _group(algorithm, subset, rows, exclusive=None, normalized=None):
    """A hand-built ScoredPairs from (u, v, raw_score) rows."""
    u, v, raw = np.array(rows, dtype=float).reshape(-1, 3).T
    return ScoredPairs(
        algorithm, subset, u.astype(int), v.astype(int), raw,
        np.zeros((4, 4), dtype=bool) if exclusive is None else exclusive,
        None if normalized is None else np.array(normalized, dtype=float),
    )


def test_scored_pairs_iterate_as_python_scalars():
    group = _group(JACCARD, (0, 2), [(0, 1, 0.2), (1, 3, 0.8)])
    assert len(group) == 2
    assert list(group) == [
        ScoredPair(0, 1, 0.2, JACCARD, (0, 2)),
        ScoredPair(1, 3, 0.8, JACCARD, (0, 2)),
    ]
    assert all(type(x) is int for p in group for x in (p.u, p.v))
    assert all(type(p.raw_score) is float for p in group)
    kept = group.where(np.array([False, True]))
    assert list(kept) == [ScoredPair(1, 3, 0.8, JACCARD, (0, 2))]
    assert kept.exclusive is group.exclusive and kept.normalized_score is None


def test_normalize_scales_each_group_by_its_maximum():
    jaccard = normalize_scores(_group(JACCARD, (0,), [(0, 1, 0.2), (0, 2, 0.8)]))
    adamic_adar = normalize_scores(_group(ADAMIC_ADAR, (0,), [(0, 3, 3.0)]))
    assert jaccard.normalized_score.tolist() == [0.25, 1.0]
    assert adamic_adar.normalized_score.tolist() == [1.0]
    assert jaccard.raw_score.tolist() == [0.2, 0.8]


def test_normalize_drops_all_zero_group_with_warning():
    zero = _group(JACCARD, (0,), [(0, 1, 0.0), (0, 2, 0.0)])
    with pytest.warns(UserWarning, match=r"all scores are zero for \('jaccard', \(0,\)\)"):
        out = normalize_scores(zero)
    assert len(out) == 0 and out.normalized_score.size == 0
    assert len(threshold_filter(out)) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty group is not "all zero"
        assert len(normalize_scores(_group(JACCARD, (1,), []))) == 0
    kept = normalize_scores(_group(JACCARD, (1,), [(0, 2, 0.5)]))
    assert [(p.u, p.v, p.subset) for p in kept] == [(0, 2, (1,))]


def test_threshold_is_strict():
    group = normalize_scores(_group(JACCARD, (0,), [(0, 1, 1.0), (0, 2, 0.5)]))
    kept = threshold_filter(group, 0.5)
    assert [(p.u, p.v) for p in kept] == [(0, 1)]
    assert kept.normalized_score.tolist() == [1.0]
    with pytest.raises(ValueError, match="requires normalized scores"):
        threshold_filter(_group(JACCARD, (0,), [(0, 1, 1.0)]))


def test_assign_weights_means_flows_to_shared_exclusive_neighbors():
    # shared exclusive neighbor 2 with flows 4 and 8 to the endpoints
    edges = [FlowEdge(0, 2, 0, 4.0), FlowEdge(1, 2, 0, 8.0)]
    net = build_multiplex(edges)
    group = threshold_filter(normalize_scores(modified_jaccard(net, (0,))), 0.5)
    links = assign_weights(group, net)
    assert links == [PredictedLink(0, 1, 1.0, 1.0, 6.0, JACCARD, (0,), 1)]  # mean(4, 8) * 1.0
    with pytest.raises(ValueError, match="requires normalized scores"):
        assign_weights(modified_jaccard(net, (0,)), net)


def test_assign_weights_falls_back_to_union_mean():
    edges = [FlowEdge(0, 1, 0, 4.0), FlowEdge(2, 3, 0, 8.0)]
    net = build_multiplex(edges, n_nodes=5)
    fabricated = _group(JACCARD, (0,), [(0, 4, 0.7)], exclusive=net.intra[0] > 0, normalized=[0.7])
    links = assign_weights(fabricated, net)
    assert links[0].weight == pytest.approx(0.7 * 6.0)  # mean of all subset flows


@pytest.mark.filterwarnings("ignore:all scores are zero")
def test_run_stage_weights_match_plain_loop_flow_means():
    rng = np.random.default_rng(606)
    checked = 0
    for trial in range(40):
        n = int(rng.integers(5, 13))
        l = int(rng.integers(1, 4))
        net = random_multiplex(rng, n, l, directed=bool(trial % 2), p=float(rng.uniform(0.2, 0.6)))
        for k in range(1, l + 1):
            for algorithm in (JACCARD, ADAMIC_ADAR):
                for link in run_stage(net, k, algorithm):
                    mean_flow = oracle_flow_mean(net, link.subset, link.u, link.v)
                    assert link.weight == link.normalized_score * mean_flow  # exact
                    checked += 1
    assert checked > 800  # the seed draws 836 links


def test_dedupe_keeps_max_weight_then_lexicographic_tags():
    def link(weight, algorithm, subset):
        return PredictedLink(0, 1, 0.5, 0.9, weight, algorithm, subset, len(subset))

    winner = dedupe_links(
        [link(2.0, ADAMIC_ADAR, (1,)), link(5.0, JACCARD, (0,)), link(5.0, ADAMIC_ADAR, (0,))]
    )
    assert len(winner) == 1
    assert winner[0].algorithm == ADAMIC_ADAR  # "adamic_adar" < "jaccard"
    assert winner[0].weight == 5.0
    assert winner[0].sources == (
        (ADAMIC_ADAR, (0,), 1),
        (ADAMIC_ADAR, (1,), 1),
        (JACCARD, (0,), 1),
    )


def test_run_stage_dedupes_across_subsets_in_order():
    rng = np.random.default_rng(7)
    net = random_multiplex(rng, 8, 3, p=0.5)
    links = run_stage(net, 2, JACCARD, threshold=0.5)
    pairs = [(l.u, l.v) for l in links]
    assert pairs == sorted(pairs)
    assert len(pairs) == len(set(pairs))
    for l in links:
        assert l.stage == 2
        assert len(l.subset) == 2
        assert l.normalized_score > 0.5
    with pytest.raises(ValueError, match="algorithm"):
        run_stage(net, 1, "katz")


def test_links_csv_round_trip(tmp_path):
    link = PredictedLink(0, 2, 0.75, 1.0, 5.25, JACCARD, (0, 2), 2)
    path = tmp_path / "links.csv"
    write_links_csv(path, [link], ("a", "b", "c"))
    back = read_links_csv(path, {"a": 0, "b": 1, "c": 2})
    assert back == [link]
    with pytest.raises(ValueError, match="unknown node label"):
        read_links_csv(path, {"x": 0})


def test_subset_format_round_trip():
    assert format_subset((0, 2)) == "0+2"
    assert parse_subset("0+2") == (0, 2)
    assert parse_subset("1") == (1,)
