"""Property tests for the invariants the multiplex, prediction and navigability
docstrings promise."""

from __future__ import annotations

import io
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multinav import (
    DegradedDecompositionError,
    FlowEdge,
    PredictedLink,
    build_multiplex,
    coverage_analytic,
    dedupe_links,
    default_time_grid,
    integrate_links,
    parse_edge_list,
    trim_edges,
    write_edge_csv,
)
from multinav.multiplex import PLACEMENT_ALL, PLACEMENT_SUBSET, TRIM_GLOBAL, TRIM_PER_LAYER
from multinav.navigability import analytic_state
from multinav.prediction import ADAMIC_ADAR, JACCARD
from multinav.walks import STRATEGIES

SETTINGS = settings(max_examples=40, deadline=None)

flows = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def networks_and_links(draw):
    n = draw(st.integers(2, 6))
    n_layers = draw(st.integers(1, 3))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = [
        FlowEdge(u, v, draw(st.integers(0, n_layers - 1)), draw(flows))
        for u, v in draw(st.lists(pairs, max_size=12))
    ]
    directed = draw(st.booleans())
    net = build_multiplex(edges, n_layers=n_layers, directed=directed, n_nodes=n)
    layers = st.lists(st.integers(0, n_layers - 1), min_size=1, max_size=n_layers, unique=True)
    links = [
        PredictedLink(u, v, 1.0, 1.0, draw(st.floats(0.01, 10.0)), JACCARD, tuple(sorted(s)), len(s))
        for (u, v), s in draw(st.lists(st.tuples(pairs, layers), max_size=8))
    ]
    return net, links


@SETTINGS
@given(networks_and_links(), st.sampled_from([PLACEMENT_SUBSET, PLACEMENT_ALL]))
def test_integrate_links_is_idempotent(case, placement):
    net, links = case
    once = integrate_links(net, links, placement=placement)
    twice = integrate_links(once, links, placement=placement)
    assert np.array_equal(once.intra, twice.intra)


@st.composite
def stage_links(draw):
    """Links unique per (pair, algorithm, subset), as run_stage yields them."""
    subsets = [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]
    keys = draw(
        st.lists(
            st.tuples(
                # drawn as ordered pairs, not filtered: filtering here trips
                # Hypothesis' filter_too_much health check on some seeds
                st.sampled_from([(u, v) for u in range(5) for v in range(u + 1, 5)]),
                st.sampled_from([JACCARD, ADAMIC_ADAR]),
                st.sampled_from(subsets),
            ),
            unique=True,
            max_size=20,
        )
    )
    # few distinct weights, so ties between algorithms and subsets are common
    return [
        PredictedLink(u, v, 1.0, 1.0, draw(st.sampled_from([0.5, 1.0, 2.0])), alg, sub, len(sub))
        for (u, v), alg, sub in keys
    ]


@SETTINGS
@given(stage_links().flatmap(lambda links: st.tuples(st.just(links), st.permutations(links))))
def test_dedupe_links_ignores_input_order(case):
    links, shuffled = case
    assert dedupe_links(shuffled) == dedupe_links(links)


@SETTINGS
@given(stage_links(), stage_links())
def test_dedupe_links_keeps_sources_when_deduped_again(first, second):
    # the CLI dedupes per stage, then the union of both algorithms, then the merge
    again = dedupe_links(dedupe_links(first) + dedupe_links(second))
    assert again == dedupe_links(first + second)


@SETTINGS
@given(
    st.lists(st.tuples(st.integers(0, 3), flows), max_size=30),
    st.floats(0.01, 1.0),
    st.floats(0.01, 1.0),
    st.sampled_from([TRIM_PER_LAYER, TRIM_GLOBAL]),
)
def test_trim_is_monotone_in_ratio(rows, r1, r2, scope):
    # distinct endpoints make every edge distinguishable
    edges = [FlowEdge(i, i + 1, layer, flow) for i, (layer, flow) in enumerate(rows)]
    low, high = sorted((r1, r2))
    kept_low = Counter(trim_edges(edges, ratio=low, scope=scope))
    kept_high = Counter(trim_edges(edges, ratio=high, scope=scope))
    assert kept_high <= kept_low


labels = st.text(
    st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=8
).filter(lambda s: s == s.strip())


@SETTINGS
@given(
    st.lists(labels, min_size=2, max_size=6, unique=True).flatmap(
        lambda names: st.tuples(
            st.just(names),
            st.lists(
                st.tuples(
                    st.integers(0, 4),
                    st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
                        lambda p: p[0] != p[1]
                    ),
                    flows,
                ),
                max_size=10,
            ),
        )
    )
)
def test_edge_csv_round_trips_labels_and_flows(case):
    names, rows = case
    index = {name: i for i, name in enumerate(names)}
    edges = [FlowEdge(index[a], index[b], layer, flow) for layer, (a, b), flow in rows]
    buffer = io.StringIO()
    write_edge_csv(buffer, edges, names)
    back = parse_edge_list(io.StringIO(buffer.getvalue()))
    assert [(e.layer, back.labels[e.source], back.labels[e.target], e.flow) for e in back.edges] == [
        (layer, a, b, flow) for layer, (a, b), flow in rows
    ]


@st.composite
def small_multiplexes(draw):
    """Random multiplexes drawn without filtering: v = u + offset (mod n) is never u."""
    n = draw(st.integers(2, 6))
    n_layers = draw(st.integers(1, 3))
    edges = [
        FlowEdge(u, (u + offset) % n, layer, flow)
        for u, offset, layer, flow in draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(1, n - 1),
                    st.integers(0, n_layers - 1),
                    st.floats(0.0, 10.0),
                ),
                max_size=15,
            )
        )
    ]
    return build_multiplex(
        edges,
        n_layers=n_layers,
        directed=draw(st.booleans()),
        coupling=draw(st.floats(0.0, 2.0)),
        n_nodes=n,
    )


@SETTINGS
@given(small_multiplexes(), st.sampled_from(STRATEGIES))
def test_analytic_coverage_starts_at_one_over_n_and_never_drops(net, strategy):
    try:
        curve = coverage_analytic(net, strategy)
    except DegradedDecompositionError:
        return  # the documented outcome of an untrustworthy decomposition
    n = net.n_nodes
    assert abs(curve.rho[0] - 1.0 / n) <= 1e-12
    assert np.all(np.diff(curve.rho) >= 0.0)
    assert curve.rho.max() <= 1.0
    delta = analytic_state(net, strategy).survival(default_time_grid())
    assert np.array_equal(delta[0], 1.0 - np.eye(n))
    assert delta.min() >= 0.0 and delta.max() <= 1.0
