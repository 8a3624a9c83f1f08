"""Edge-list parsing, trimming, assembly, knockout and integration."""

from __future__ import annotations

import csv
import io
import re

import numpy as np
import pytest
from conftest import Link, edge_rows, link_rows, link_table, random_multiplex

from multinav import (
    ConstructionError,
    FlowEdge,
    MultiplexNetwork,
    ParseError,
    SchemaError,
    build_multiplex,
    enumerate_layer_subsets,
    export_edges,
    format_edge_csv,
    integrate_links,
    knockout_nodes,
    parse_edge_list,
    trim_edges,
)
from multinav.multiplex import EDGE_COLUMNS, PLACEMENT_ALL, PLACEMENT_SUBSET, TRIM_GLOBAL
from multinav.prediction import LINK_CSV_COLUMNS, read_links_csv


def _parse(text):
    return parse_edge_list(io.StringIO(text))


def test_parse_interns_labels_in_first_appearance_order():
    got = _parse("layer,source,target,flow\n0,ant,bee,1.5\n1,cat,ant,2.0\n")
    assert got.labels == ("ant", "bee", "cat")
    assert got.edges.tolist() == [FlowEdge(0, 1, 0, 1.5), FlowEdge(2, 0, 1, 2.0)]
    assert got.n_nodes == 3
    assert got.n_layers == 2


def test_parse_missing_column_is_schema_error():
    with pytest.raises(SchemaError, match="flow"):
        _parse("layer,source,target\n0,a,b\n")


def test_parse_rejects_a_repeated_required_column():
    with pytest.raises(SchemaError, match="duplicated column 'flow'"):
        _parse("layer,source,target,flow,flow\n0,a,b,1.0,2.0\n")
    # a repeated column that is not required is read past
    got = _parse("layer,source,target,flow,note,note\n0,a,b,1.0,x,y\n")
    assert got.edges.tolist() == [FlowEdge(0, 1, 0, 1.0)]


def test_parse_reads_each_source_as_one_layer():
    header = "layer,source,target,flow\n"
    a, b = header + "4,p,q,1.0\n", header + "0,s,q,2.0\n0,q,p,3.0\n"
    assert _parse(a).n_layers == 5  # one source keeps its layer values
    got = parse_edge_list(io.StringIO(a), io.StringIO(b), io.StringIO(header))
    assert got.labels == ("p", "q", "s")  # first appearance across the sources
    assert got.edges.tolist() == [FlowEdge(0, 1, 0, 1.0), FlowEdge(2, 1, 1, 2.0), FlowEdge(1, 0, 1, 3.0)]
    assert got.n_layers == 3  # the trailing empty source still adds its layer
    with pytest.raises(ParseError, match="source 1: per-layer input holds 2 layer values"):
        parse_edge_list(io.StringIO(a), io.StringIO(header + "0,p,q,1.0\n1,q,r,1.0\n"))


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
        (f"{2**63},a,b,2.0", f"layer index {2**63} does not fit an intp"),
        ("0,a,a,2.0", "self-loop"),
        ("0,,b,2.0", "empty source label"),
        ("0,a, \t,2.0", "empty target label"),
        ("0,,,2.0", "empty source label"),
        ("0,a,b", "expected 4 fields"),
        # a csv.Error, which is no ValueError
        pytest.param(f"0,{'x' * 200_000},b,1.0", "field larger than field limit", id="field-over-limit"),
        # a quoted field spanning two lines puts the self-loop on line 4
        pytest.param('0,"a\nb",c,1.0\n0,d,d,1.0', "self-loop", id="after-multiline-field"),
    ],
)
def test_parse_rejects_malformed_rows_with_line_numbers(row, fragment):
    with pytest.raises(ParseError, match=fragment) as err:
        _parse(f"layer,source,target,flow\n{row}\n")
    line = 2 + row.count("\n")  # the faulty row is the last
    assert f"line {line}:" in str(err.value) and err.value.line == line


def _edge_rows(path):
    got = parse_edge_list(path)
    return [(got.labels[e.source], got.labels[e.target], e.layer, e.flow) for e in edge_rows(got.edges)]


# each reader: its header columns, a valid row, a valid row whose quoted label
# spans two lines, the table name its errors start with, and the rows it reads
TABLE_READERS = {
    "edges": (EDGE_COLUMNS, "0,a,b,1.0", '0,"a\nb",c,1.0', "", _edge_rows),
    "links": (LINK_CSV_COLUMNS, "a,c,jaccard,0,1,1.0,1.0,0.5", '"a\nb",c,jaccard,0,1,1.0,1.0,0.5',
              "links file", lambda path: link_rows(read_links_csv(path, {"a": 0, "c": 1, "a\nb": 2}))),
}


def _table_cases(columns, row, multiline):
    """Each case's text, then how many copies of ``row`` it holds, or the
    error type, line and message it raises."""
    header, width, last = ",".join(columns), len(columns), columns[-1]
    return {
        "byte-order-mark": (f"\ufeff{header}\n{row}\n", 1),
        "spaced-header": (", ".join(columns) + f"\n{row}\n", 1),
        "missing-column": (",".join(columns[:-1]) + "\n", (SchemaError, None, f"missing column {last!r}")),
        # a stripped name counts as the column, so " flow" repeats flow
        "duplicated-column": (f"{header}, {last}\n{row},9\n", (SchemaError, None, f"duplicated column {last!r}")),
        "repeated-other-column": (f"{header},note,note\n{row},x,y\n", 1),
        "short-row": (f"{header}\n{row}\na\n", (ParseError, 3, f"expected {width} fields, got 1")),
        "long-row": (f"{header}\n{row}\n{row},x,y\n", (ParseError, 3, f"expected {width} fields, got {width + 2}")),
        "blank-lines": (f"{header}\n\n{row}\n\n\n{row}\n\n", 2),
        # a csv.Error, which is no ValueError
        "field-over-limit": (f"{header}\n{row}\n{'x' * 200_000}{row}\n",
                             (ParseError, 3, "field larger than field limit")),
        # the quoted label ends on line 3, so the short row after it is on line 4
        "multiline-field": (f"{header}\n{multiline}\na\n", (ParseError, 4, f"expected {width} fields, got 1")),
        "empty-input": ("", (ParseError, 1, "empty input, expected a header row")),
    }


@pytest.mark.parametrize("reader,text,expected", [
    pytest.param(reader, text, expected, id=f"{case}-{reader}")
    for reader, (columns, row, multiline, _, _) in TABLE_READERS.items()
    for case, (text, expected) in _table_cases(columns, row, multiline).items()])
def test_both_readers_apply_one_set_of_table_rules(reader, text, expected, tmp_path):
    columns, row, _, table, read = TABLE_READERS[reader]
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    if isinstance(expected, int):
        plain = tmp_path / "plain.csv"
        plain.write_text(f"{','.join(columns)}\n{row}\n", encoding="utf-8")
        assert read(path) == read(plain) * expected
        return
    kind, line, message = expected
    with pytest.raises(kind) as err:
        read(path)
    where = table if line is None else f"{table} line {line}".lstrip()
    assert type(err.value) is kind and err.value.line == line
    assert str(err.value).startswith(f"{where}: {message}" if where else message)


def test_csv_round_trip(tmp_path):
    edges = [FlowEdge(0, 1, 0, 100.0), FlowEdge(1, 2, 1, 0.125)]
    path = tmp_path / "edges.csv"
    path.write_text(format_edge_csv(edges, ("a", "b", "c")), encoding="utf-8")
    back = parse_edge_list(path)
    assert back.edges.tolist() == edges
    assert back.labels == ("a", "b", "c")


# labels that csv must quote, one it must not, and "", which it quotes only alone
AWKWARD_LABELS = ("plain", "", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " spaced ")


def test_edge_csv_quotes_labels_as_csv_writer_does():
    edges = [FlowEdge(s, t, s % 2, 1.0 + s / 3) for s in range(7) for t in range(7) if s != t]
    got = format_edge_csv(edges, AWKWARD_LABELS)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["layer", "source", "target", "flow"])
    writer.writerows([e.layer, AWKWARD_LABELS[e.source], AWKWARD_LABELS[e.target], repr(e.flow)]
                     for e in edges)
    assert got == want.getvalue()


def test_trim_keeps_at_least_ratio_times_max():
    edges = [FlowEdge(0, i + 1, 0, f) for i, f in enumerate([10.0, 9.0, 8.99, 5.0, 1.0])]
    kept = trim_edges(edges, ratio=0.9)
    assert [e.flow for e in edge_rows(kept)] == [10.0, 9.0]  # boundary 9.0 >= 0.9 * 10 stays


def test_trim_ratio_one_keeps_only_max():
    edges = [FlowEdge(0, 1, 0, 3.0), FlowEdge(0, 2, 0, 7.0), FlowEdge(1, 2, 0, 7.0)]
    kept = trim_edges(edges, ratio=1.0)
    assert {e.flow for e in edge_rows(kept)} == {7.0}
    assert len(kept) == 2


def test_trim_per_layer_uses_each_layers_maximum():
    edges = [
        FlowEdge(0, 1, 0, 100.0),
        FlowEdge(0, 2, 0, 80.0),
        FlowEdge(0, 1, 1, 10.0),
        FlowEdge(0, 2, 1, 9.5),
    ]
    kept = trim_edges(edges, ratio=0.9)
    assert [e.flow for e in edge_rows(kept)] == [100.0, 10.0, 9.5]


def test_trim_global_uses_single_maximum():
    edges = [
        FlowEdge(0, 1, 0, 100.0),
        FlowEdge(0, 1, 1, 10.0),
        FlowEdge(0, 2, 1, 95.0),
    ]
    kept = trim_edges(edges, ratio=0.9, scope=TRIM_GLOBAL)
    assert [e.flow for e in edge_rows(kept)] == [100.0, 95.0]
    with pytest.raises(ValueError, match="unknown trim scope 'layer'"):
        trim_edges(edges, ratio=0.9, scope="layer")


def test_trim_preserves_order_and_handles_empty():
    assert trim_edges([]).tolist() == []
    edges = [FlowEdge(0, 1, 0, 5.0), FlowEdge(0, 2, 0, 5.0)]
    assert trim_edges(edges, ratio=1.0).tolist() == edges


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
    # each count is checked, and named, on its own
    with pytest.raises(ConstructionError, match=r"^network must have at least one layer, got 0$"):
        build_multiplex([], n_layers=0, n_nodes=3)
    with pytest.raises(ConstructionError, match=r"^network must have zero or more nodes, got -1$"):
        build_multiplex([], n_layers=2, n_nodes=-1)


@pytest.mark.parametrize("edges,options,message", [
    ([(0, 1, 0, 1.0), (0, 1, 2, 1.0)], {"n_layers": 2}, "edge layer 2 out of range [0, 2)"),
    ([(0, 1, -1, 1.0)], {"n_layers": 2}, "edge layer -1 out of range [0, 2)"),
    ([(-1, 1, 0, 1.0)], {"n_nodes": 3},
     "edge endpoint out of range: FlowEdge(source=-1, target=1, layer=0, flow=1.0)"),
    ([(0, 1, 0, 1.0), (2, 3, 0, 0.5)], {"n_nodes": 3},
     "edge endpoint out of range: FlowEdge(source=2, target=3, layer=0, flow=0.5)"),
    # the first faulty edge raises, and on an edge with both faults its layer
    ([(0, 1, 0, 1.0), (0, 7, 0, 1.0), (9, 9, 5, 1.0)], {"n_layers": 1, "n_nodes": 3},
     "edge endpoint out of range: FlowEdge(source=0, target=7, layer=0, flow=1.0)"),
    ([(9, 9, 5, 1.0), (0, 7, 0, 1.0)], {"n_layers": 1, "n_nodes": 3}, "edge layer 5 out of range [0, 1)"),
    ([], {}, "cannot infer layer count from an empty edge list"),
    ([], {"n_nodes": 2}, "cannot infer layer count from an empty edge list"),
    ([(0, 1, 0, 1.0)], {"n_nodes": -2}, "network must have zero or more nodes, got -2"),
])
def test_build_names_the_first_faulty_edge_or_count(edges, options, message):
    for directed in (False, True):
        with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
            build_multiplex([FlowEdge(*edge) for edge in edges], directed=directed, **options)


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
    return Link(
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
    return link_table(links)


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
    out = export_edges(net).tolist()
    assert FlowEdge(0, 1, 0, 2.0) in out and FlowEdge(1, 0, 0, 5.0) in out
