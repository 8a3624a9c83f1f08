"""Edge-list parsing, trimming, assembly, knockout and integration."""

from __future__ import annotations

import io

import numpy as np
import pytest
from conftest import random_multiplex

from multinav import (
    ConstructionError,
    FlowEdge,
    MultiplexNetwork,
    ParseError,
    SchemaError,
    build_multiplex,
    enumerate_layer_subsets,
    export_edges,
    integrate_links,
    knockout_nodes,
    parse_edge_list,
    trim_edges,
    write_edge_csv,
)
from multinav.multiplex import PLACEMENT_ALL, PLACEMENT_SUBSET, TRIM_GLOBAL
from multinav.prediction import LinkTable, PredictedLink


def _parse(text):
    return parse_edge_list(io.StringIO(text))


def test_parse_interns_labels_in_first_appearance_order():
    got = _parse("layer,source,target,flow\n0,ant,bee,1.5\n1,cat,ant,2.0\n")
    assert got.labels == ("ant", "bee", "cat")
    assert got.edges == (FlowEdge(0, 1, 0, 1.5), FlowEdge(2, 0, 1, 2.0))
    assert got.n_nodes == 3
    assert got.n_layers == 2


def test_parse_skips_blank_lines():
    got = _parse("layer,source,target,flow\n\n0,a,b,1.0\n\n")
    assert len(got.edges) == 1


def test_parse_missing_column_is_schema_error():
    with pytest.raises(SchemaError, match="flow"):
        _parse("layer,source,target\n0,a,b\n")


def test_parse_empty_input():
    with pytest.raises(ParseError, match="header"):
        _parse("")


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("x,a,b,1.0", "non-integer layer"),
        ("0,a,b,much", "non-numeric flow"),
        ("0,a,b,-2.0", "non-negative"),
        ("-1,a,b,2.0", "negative layer"),
        ("0,a,a,2.0", "self-loop"),
        ("0,a,b", "expected 4 fields"),
        # a csv.Error, which is no ValueError
        pytest.param(f"0,{'x' * 200_000},b,1.0", "field larger than field limit", id="field-over-limit"),
    ],
)
def test_parse_rejects_malformed_rows_with_line_numbers(row, fragment):
    with pytest.raises(ParseError, match=fragment) as err:
        _parse(f"layer,source,target,flow\n{row}\n")
    assert "line 2" in str(err.value)


def test_parse_accepts_utf8_bom_header(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufefflayer,source,target,flow\n0,a,b,1.5\n".encode("utf-8"))
    got = parse_edge_list(path)
    assert got.edges == (FlowEdge(0, 1, 0, 1.5),)
    assert got.labels == ("a", "b")


def test_csv_round_trip(tmp_path):
    edges = [FlowEdge(0, 1, 0, 100.0), FlowEdge(1, 2, 1, 0.125)]
    path = tmp_path / "edges.csv"
    write_edge_csv(path, edges, ("a", "b", "c"))
    back = parse_edge_list(path)
    assert back.edges == tuple(edges)
    assert back.labels == ("a", "b", "c")


def test_trim_keeps_at_least_ratio_times_max():
    edges = [FlowEdge(0, i + 1, 0, f) for i, f in enumerate([10.0, 9.0, 8.99, 5.0, 1.0])]
    kept = trim_edges(edges, ratio=0.9)
    assert [e.flow for e in kept] == [10.0, 9.0]  # boundary 9.0 >= 0.9 * 10 stays


def test_trim_ratio_one_keeps_only_max():
    edges = [FlowEdge(0, 1, 0, 3.0), FlowEdge(0, 2, 0, 7.0), FlowEdge(1, 2, 0, 7.0)]
    kept = trim_edges(edges, ratio=1.0)
    assert {e.flow for e in kept} == {7.0}
    assert len(kept) == 2


def test_trim_per_layer_uses_each_layers_maximum():
    edges = [
        FlowEdge(0, 1, 0, 100.0),
        FlowEdge(0, 2, 0, 80.0),
        FlowEdge(0, 1, 1, 10.0),
        FlowEdge(0, 2, 1, 9.5),
    ]
    kept = trim_edges(edges, ratio=0.9)
    assert [e.flow for e in kept] == [100.0, 10.0, 9.5]


def test_trim_global_uses_single_maximum():
    edges = [
        FlowEdge(0, 1, 0, 100.0),
        FlowEdge(0, 1, 1, 10.0),
        FlowEdge(0, 2, 1, 95.0),
    ]
    kept = trim_edges(edges, ratio=0.9, scope=TRIM_GLOBAL)
    assert [e.flow for e in kept] == [100.0, 95.0]
    with pytest.raises(ValueError, match="unknown trim scope 'layer'"):
        trim_edges(edges, ratio=0.9, scope="layer")


def test_trim_preserves_order_and_handles_empty():
    assert trim_edges([]) == []
    edges = [FlowEdge(0, 1, 0, 5.0), FlowEdge(0, 2, 0, 5.0)]
    assert trim_edges(edges, ratio=1.0) == edges


@pytest.mark.parametrize("ratio", [0.0, -0.5, 1.0001])
def test_trim_rejects_bad_ratio(ratio):
    with pytest.raises(ValueError):
        trim_edges([FlowEdge(0, 1, 0, 1.0)], ratio=ratio)


def test_build_sums_duplicates_and_symmetrizes():
    edges = [FlowEdge(0, 1, 0, 2.0), FlowEdge(0, 1, 0, 3.0)]
    net = build_multiplex(edges)
    assert net.intra[0, 0, 1] == 5.0
    assert net.intra[0, 1, 0] == 5.0


def test_build_directed_keeps_orientation():
    net = build_multiplex([FlowEdge(0, 1, 0, 2.0)], directed=True)
    assert net.intra[0, 0, 1] == 2.0
    assert net.intra[0, 1, 0] == 0.0


def test_build_uniform_coupling_with_zero_diagonal():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)], n_layers=3, coupling=2.5)
    assert net.coupling == 2.5


def test_build_range_checks():
    with pytest.raises(ConstructionError, match="layer"):
        build_multiplex([FlowEdge(0, 1, 5, 1.0)], n_layers=2)
    with pytest.raises(ConstructionError, match="endpoint"):
        build_multiplex([FlowEdge(0, 9, 0, 1.0)], n_nodes=3)
    with pytest.raises(ConstructionError, match="coupling"):
        build_multiplex([FlowEdge(0, 1, 0, 1.0)], coupling=-1.0)
    with pytest.raises(ConstructionError, match="empty"):
        build_multiplex([])


def test_network_validation_rejects_asymmetric_undirected():
    intra = np.zeros((1, 2, 2))
    intra[0, 0, 1] = 1.0
    with pytest.raises(ConstructionError, match="not symmetric"):
        MultiplexNetwork(directed=False, intra=intra, coupling=0.0)


@pytest.mark.parametrize(
    ("intra", "message"),
    [
        (np.zeros((2, 2)), r"shape \(L, N, N\)"),
        (np.zeros((1, 2, 3)), r"shape \(L, N, N\)"),
        (np.array([[[0.0, -1.0], [-1.0, 0.0]]]), "finite and non-negative"),
        (np.array([[[0.0, np.inf], [np.inf, 0.0]]]), "finite and non-negative"),
        (np.array([[[0.0, np.nan], [np.nan, 0.0]]]), "finite and non-negative"),
    ],
)
def test_network_rejects_intra_that_is_not_a_finite_non_negative_stack(intra, message):
    with pytest.raises(ConstructionError, match=message):
        MultiplexNetwork(directed=False, intra=intra, coupling=0.0)


@pytest.mark.parametrize("coupling", [np.ones(2), np.full((2, 1, 1), 0.5), float("nan"), np.inf])
def test_network_rejects_coupling_that_is_not_one_finite_number(coupling):
    with pytest.raises(ConstructionError, match="coupling"):
        MultiplexNetwork(directed=False, intra=np.zeros((1, 2, 2)), coupling=coupling)


def test_network_default_labels_and_uniqueness():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)])
    assert net.labels == ("n0", "n1")
    with pytest.raises(ConstructionError, match="unique"):
        build_multiplex([FlowEdge(0, 1, 0, 1.0)], labels=("x", "x"))
    with pytest.raises(ConstructionError, match="labels length must equal the node count"):
        MultiplexNetwork(directed=False, intra=np.zeros((1, 2, 2)), coupling=0.0, labels=("x",))


def test_enumerate_layer_subsets_lexicographic():
    assert enumerate_layer_subsets(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert enumerate_layer_subsets(4, 1) == [(0,), (1,), (2,), (3,)]
    with pytest.raises(ValueError):
        enumerate_layer_subsets(3, 4)
    with pytest.raises(ValueError):
        enumerate_layer_subsets(3, 0)


def test_knockout_zeroes_one_layer_only():
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(1, 2, 0, 1.0), FlowEdge(0, 1, 1, 4.0)]
    net = build_multiplex(edges, n_layers=2)
    hit = knockout_nodes(net, [1], 0)
    assert np.all(hit.intra[0, 1, :] == 0.0)
    assert np.all(hit.intra[0, :, 1] == 0.0)
    assert hit.intra[1, 0, 1] == 4.0  # other layer untouched
    assert net.intra[0, 0, 1] == 1.0  # original unchanged


def test_knockout_validates_arguments():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)])
    with pytest.raises(ValueError):
        knockout_nodes(net, [5], 0)
    with pytest.raises(ValueError):
        knockout_nodes(net, [0], 3)


def _link(u, v, weight, subset=(0,)):
    return PredictedLink(
        u=u,
        v=v,
        raw_score=1.0,
        normalized_score=1.0,
        weight=weight,
        algorithm="jaccard",
        subset=subset,
        stage=len(subset),
    )


def _table(*links):
    return LinkTable.from_links(links)


def test_integrate_places_links_in_subset_layers():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0), FlowEdge(1, 2, 1, 1.0)], n_layers=3)
    out = integrate_links(net, _table(_link(0, 2, 5.0, subset=(0, 2))))
    assert out.intra[0, 0, 2] == 5.0 and out.intra[0, 2, 0] == 5.0
    assert out.intra[2, 0, 2] == 5.0
    assert out.intra[1, 0, 2] == 0.0


def test_integrate_collision_keeps_maximum():
    net = build_multiplex([FlowEdge(0, 1, 0, 9.0)])
    low = integrate_links(net, _table(_link(0, 1, 2.0)))
    assert low.intra[0, 0, 1] == 9.0
    high = integrate_links(net, _table(_link(0, 1, 12.0)))
    assert high.intra[0, 0, 1] == 12.0


def test_integrate_all_layers_placement():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)], n_layers=2)
    out = integrate_links(net, _table(_link(0, 1, 3.0)), placement=PLACEMENT_ALL)
    assert out.intra[0, 0, 1] == 3.0
    assert out.intra[1, 0, 1] == 3.0


def test_integrate_rejects_bad_links():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)])
    with pytest.raises(ValueError, match="positive"):
        integrate_links(net, _table(_link(0, 1, 0.0)))
    with pytest.raises(ValueError, match="finite"):
        integrate_links(net, _table(_link(0, 1, float("inf"))))
    with pytest.raises(ValueError, match="out of range"):
        integrate_links(net, _table(_link(0, 7, 1.0)))
    with pytest.raises(ValueError, match="placement"):
        integrate_links(net, _table(), placement="everywhere")


@pytest.mark.parametrize("placement", [PLACEMENT_SUBSET, PLACEMENT_ALL])
@pytest.mark.parametrize("subset", [(-1,), (3,), (0, 7)])
def test_integrate_rejects_subset_layer_out_of_range(subset, placement):
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)], n_layers=3, n_nodes=3)
    with pytest.raises(ValueError, match="subset"):
        integrate_links(net, _table(_link(0, 2, 1.0, subset=subset)), placement=placement)


@pytest.mark.parametrize("weight", [float("nan"), -2.0])
def test_integrate_rejects_weight_that_is_not_positive(weight):
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)], n_nodes=3)
    with pytest.raises(ValueError, match="positive"):
        integrate_links(net, _table(_link(0, 2, 3.0), _link(1, 2, weight)))


def test_integrate_rejects_self_loop_link():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)])
    with pytest.raises(ValueError, match="itself"):
        integrate_links(net, _table(_link(1, 1, 74.25)))


def test_integrate_reports_the_first_failing_link_by_its_first_failing_check():
    net = build_multiplex([FlowEdge(0, 1, 0, 1.0)], n_nodes=3)
    for links, message in (
        ([_link(0, 2, 1.0), _link(1, 1, 2.0), _link(0, 1, -1.0)], "predicted link joins node 1 to itself"),
        ([_link(0, 7, float("nan"), subset=(4,))], "predicted link weight must be positive and finite, got nan"),
        ([_link(2, 7, 1.0, subset=(4,)), _link(0, 0, 1.0)], "link endpoint out of range: (2, 7)"),
        ([_link(0, 2, 1.0, subset=(0, 4))], "link subset (0, 4) names a layer out of range [0, 1)"),
    ):
        with pytest.raises(ValueError) as caught:
            integrate_links(net, _table(*links))
        assert str(caught.value) == message


def _integrate_oracle(net, links, placement):
    """The maximum of each cell and every link weight, one link and layer at a time."""
    intra = net.intra.copy()
    for link in links:
        for k in link.subset if placement == PLACEMENT_SUBSET else range(net.n_layers):
            intra[k, link.u, link.v] = max(intra[k, link.u, link.v], link.weight)
            intra[k, link.v, link.u] = max(intra[k, link.v, link.u], link.weight)
    return intra


def test_integrate_matches_a_per_link_loop():
    rng = np.random.default_rng(41)
    for trial in range(40):
        n, l = int(rng.integers(3, 9)), int(rng.integers(1, 5))
        net = random_multiplex(rng, n, l, directed=bool(trial % 2))
        # a few pairs drawn many times, in both orientations, some weights
        # equal to a present flow so collisions tie
        flows = net.intra[net.intra > 0]
        links = []
        for _ in range(int(rng.integers(0, 30))):
            u, v = rng.choice(min(n, 4), size=2, replace=False).tolist()
            size = int(rng.integers(1, l + 1))
            subset = tuple(sorted(rng.choice(l, size=size, replace=False).tolist()))
            weight = float(rng.choice(flows)) if flows.size and rng.random() < 0.3 \
                else float(rng.uniform(0.1, 3.0))
            links.append(_link(u, v, weight, subset=subset))
        for placement in (PLACEMENT_SUBSET, PLACEMENT_ALL):
            got = integrate_links(net, _table(*links), placement=placement)
            want = _integrate_oracle(net, links, placement)
            assert got.intra.dtype == want.dtype and got.intra.tobytes() == want.tobytes()
            assert got.directed == net.directed and got.coupling == net.coupling


def test_export_round_trip():
    edges = [FlowEdge(0, 1, 0, 2.0), FlowEdge(1, 2, 1, 3.0)]
    net = build_multiplex(edges, n_layers=2)
    rebuilt = build_multiplex(export_edges(net), n_layers=2, n_nodes=3)
    assert np.array_equal(rebuilt.intra, net.intra)


def test_export_directed_keeps_both_orientations():
    edges = [FlowEdge(0, 1, 0, 2.0), FlowEdge(1, 0, 0, 5.0)]
    net = build_multiplex(edges, directed=True)
    out = export_edges(net)
    assert FlowEdge(0, 1, 0, 2.0) in out and FlowEdge(1, 0, 0, 5.0) in out
