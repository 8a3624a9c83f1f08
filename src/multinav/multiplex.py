"""Multiplex network model: edge-list ingestion, flow trimming, construction,
layer-subset enumeration, knockouts, and link integration.

A multiplex network here is L weighted adjacency matrices over one shared set
of N nodes, plus one inter-layer coupling weight that joins every node's
replicas in any two layers. Networks are immutable; every mutating operation
returns a new instance.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

EDGE_COLUMNS = ("layer", "source", "target", "flow")

PLACEMENT_SUBSET = "subset"
PLACEMENT_ALL = "all"

TRIM_PER_LAYER = "per-layer"
TRIM_GLOBAL = "global"


class ParseError(ValueError):
    """Malformed edge-list content; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SchemaError(ValueError):
    """Edge-list header does not provide the required columns."""


class ConstructionError(ValueError):
    """Edges or parameters violate the multiplex model invariants."""


@dataclass(frozen=True)
class FlowEdge:
    """One intra-layer flow edge; node endpoints are dense integer indices."""

    source: int
    target: int
    layer: int
    flow: float


@dataclass(frozen=True)
class EdgeList:
    """Parsed edge list plus the label table interned during parsing."""

    edges: tuple[FlowEdge, ...]
    labels: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_layers(self) -> int:
        return 1 + max((e.layer for e in self.edges), default=-1)


@dataclass(frozen=True, eq=False)
class MultiplexNetwork:
    """Weighted multiplex network over a fixed node set.

    intra[k] is the N x N weighted adjacency of layer k (symmetric when
    undirected). coupling is the inter-layer switch weight joining every
    node's replicas in any two distinct layers.
    """

    directed: bool
    intra: np.ndarray  # (L, N, N) float64
    coupling: float
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.intra.ndim != 3 or self.intra.shape[1] != self.intra.shape[2]:
            raise ConstructionError("intra must have shape (L, N, N)")
        n_layers, n_nodes, _ = self.intra.shape
        if np.ndim(self.coupling) != 0:
            raise ConstructionError("coupling must be one number, not an array")
        coupling = float(self.coupling)
        if not np.isfinite(coupling) or coupling < 0:
            raise ConstructionError(f"coupling must be finite and non-negative, got {coupling}")
        object.__setattr__(self, "coupling", coupling)
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"n{i}" for i in range(n_nodes)))
        if len(self.labels) != n_nodes:
            raise ConstructionError("labels length must equal the node count")
        if len(set(self.labels)) != n_nodes:
            raise ConstructionError("node labels must be unique")
        if not np.all(np.isfinite(self.intra)) or np.any(self.intra < 0):
            raise ConstructionError("intra-layer weights must be finite and non-negative")
        if not self.directed:
            for k in range(n_layers):
                if not np.array_equal(self.intra[k], self.intra[k].T):
                    raise ConstructionError(f"layer {k} is not symmetric in undirected mode")

    @property
    def n_nodes(self) -> int:
        return self.intra.shape[1]

    @property
    def n_layers(self) -> int:
        return self.intra.shape[0]

    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}


def _open_source(source: TextIO | str | Path) -> TextIO:
    if isinstance(source, (str, Path)):
        return open(source, encoding="utf-8-sig", newline="")
    return source


def parse_edge_list(
    source: TextIO | str | Path,
    columns: Mapping[str, str] | None = None,
) -> EdgeList:
    """Parse a CSV edge list into FlowEdges with labels interned to dense indices.

    The header must contain the layer, source, target and flow columns (their
    actual names may be remapped via ``columns``). Node labels become indices
    in first-appearance order. Rejects malformed rows, negative flows and
    self-loops, reporting the 1-based line number.
    """
    names = {c: (columns or {}).get(c, c) for c in EDGE_COLUMNS}
    stream = _open_source(source)
    close = stream is not source
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty input, expected a header row", line=1) from None
        header = [h.strip() for h in header]
        col_pos = {}
        for canon, actual in names.items():
            if actual not in header:
                raise SchemaError(f"missing column {actual!r} in header {header}")
            col_pos[canon] = header.index(actual)

        labels: list[str] = []
        index: dict[str, int] = {}

        def intern(label: str) -> int:
            if label not in index:
                index[label] = len(labels)
                labels.append(label)
            return index[label]

        edges: list[FlowEdge] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=lineno)
            try:
                layer = int(row[col_pos["layer"]])
            except ValueError:
                raise ParseError(f"non-integer layer {row[col_pos['layer']]!r}", line=lineno) from None
            try:
                flow = float(row[col_pos["flow"]])
            except ValueError:
                raise ParseError(f"non-numeric flow {row[col_pos['flow']]!r}", line=lineno) from None
            if not np.isfinite(flow) or flow < 0:
                raise ParseError(f"flow must be finite and non-negative, got {flow}", line=lineno)
            if layer < 0:
                raise ParseError(f"negative layer index {layer}", line=lineno)
            src = row[col_pos["source"]].strip()
            dst = row[col_pos["target"]].strip()
            if src == dst:
                raise ParseError(f"self-loop on node {src!r}", line=lineno)
            edges.append(FlowEdge(intern(src), intern(dst), layer, flow))
        return EdgeList(tuple(edges), tuple(labels))
    finally:
        if close:
            stream.close()


def trim_edges(
    edges: Sequence[FlowEdge],
    ratio: float = 0.9,
    scope: str = TRIM_PER_LAYER,
) -> list[FlowEdge]:
    """Keep edges whose flow is at least ratio times the maximum of their group.

    ``scope`` selects the group whose maximum sets the threshold: each layer
    separately (default, each scenario has its own flow scale) or the whole
    edge list.
    """
    if not 0 < ratio <= 1:
        raise ValueError(f"trim ratio must be in (0, 1], got {ratio}")
    if scope not in (TRIM_PER_LAYER, TRIM_GLOBAL):
        raise ValueError(f"unknown trim scope {scope!r}")
    if not edges:
        return []
    if scope == TRIM_GLOBAL:
        threshold = ratio * max(e.flow for e in edges)
        return [e for e in edges if e.flow >= threshold]
    max_per_layer: dict[int, float] = {}
    for e in edges:
        max_per_layer[e.layer] = max(max_per_layer.get(e.layer, 0.0), e.flow)
    return [e for e in edges if e.flow >= ratio * max_per_layer[e.layer]]


def build_multiplex(
    edges: Iterable[FlowEdge],
    n_layers: int | None = None,
    directed: bool = False,
    coupling: float = 1.0,
    labels: Sequence[str] | None = None,
    n_nodes: int | None = None,
) -> MultiplexNetwork:
    """Assemble a MultiplexNetwork from flow edges.

    Duplicate edges sum their flows. Undirected mode writes both orientations.
    ``coupling`` joins every node's replicas in any two layers.
    """
    edges = list(edges)
    if n_layers is None:
        n_layers = 1 + max((e.layer for e in edges), default=-1)
        if n_layers < 1:
            raise ConstructionError("cannot infer layer count from an empty edge list")
    if n_nodes is None:
        if labels is not None:
            n_nodes = len(labels)
        else:
            n_nodes = 1 + max((max(e.source, e.target) for e in edges), default=-1)
    if n_nodes < 0 or n_layers < 1:
        raise ConstructionError("network must have at least one layer and zero or more nodes")

    intra = np.zeros((n_layers, n_nodes, n_nodes))
    for e in edges:
        if not 0 <= e.layer < n_layers:
            raise ConstructionError(f"edge layer {e.layer} out of range [0, {n_layers})")
        if not (0 <= e.source < n_nodes and 0 <= e.target < n_nodes):
            raise ConstructionError(f"edge endpoint out of range: {e}")
        intra[e.layer, e.source, e.target] += e.flow
        if not directed and e.source != e.target:
            intra[e.layer, e.target, e.source] += e.flow

    return MultiplexNetwork(
        directed=directed,
        intra=intra,
        coupling=coupling,
        labels=tuple(labels) if labels is not None else (),
    )


def enumerate_layer_subsets(n_layers: int, k: int) -> list[tuple[int, ...]]:
    """All C(L, k) layer subsets of size k, in lexicographic order."""
    if not 1 <= k <= n_layers:
        raise ValueError(f"subset size {k} out of range [1, {n_layers}]")
    return list(itertools.combinations(range(n_layers), k))


def knockout_nodes(
    net: MultiplexNetwork,
    victims: Iterable[int],
    layer: int,
) -> MultiplexNetwork:
    """Remove all intra-layer edges of ``layer`` incident to any victim node.

    Other layers and the node set itself are untouched; victims become
    isolated within the target layer.
    """
    victims = sorted(set(victims))
    if victims and not (0 <= victims[0] and victims[-1] < net.n_nodes):
        raise ValueError(f"victim index out of range [0, {net.n_nodes})")
    if not 0 <= layer < net.n_layers:
        raise ValueError(f"layer {layer} out of range [0, {net.n_layers})")
    intra = net.intra.copy()
    intra[layer, victims, :] = 0.0
    intra[layer, :, victims] = 0.0
    return MultiplexNetwork(
        directed=net.directed,
        intra=intra,
        coupling=net.coupling,
        labels=net.labels,
    )


def integrate_links(
    net: MultiplexNetwork,
    links: Iterable,
    placement: str = PLACEMENT_SUBSET,
) -> MultiplexNetwork:
    """Add weighted predicted links back into the network.

    Each link lands in every layer of the subset that produced it (or in all
    layers with ``placement="all"``). Links carry no orientation, so both
    matrix cells are written even in directed mode. Collisions with existing
    edges keep the larger weight, which makes integration idempotent. A link
    whose weight is not positive, whose endpoints are equal or out of range,
    or whose subset names a layer outside [0, L) raises ValueError.
    """
    if placement not in (PLACEMENT_SUBSET, PLACEMENT_ALL):
        raise ValueError(f"unknown placement {placement!r}")
    intra = net.intra.copy()
    all_layers = tuple(range(net.n_layers))
    for link in links:
        if not link.weight > 0:  # also NaN
            raise ValueError(f"predicted link weight must be positive, got {link.weight}")
        u, v = link.u, link.v
        if not (0 <= u < net.n_nodes and 0 <= v < net.n_nodes):
            raise ValueError(f"link endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"predicted link joins node {u} to itself")
        if not all(0 <= k < net.n_layers for k in link.subset):
            raise ValueError(f"link subset {link.subset} names a layer out of range [0, {net.n_layers})")
        target_layers = link.subset if placement == PLACEMENT_SUBSET else all_layers
        for k in target_layers:
            intra[k, u, v] = max(intra[k, u, v], link.weight)
            intra[k, v, u] = max(intra[k, v, u], link.weight)
    return MultiplexNetwork(
        directed=net.directed,
        intra=intra,
        coupling=net.coupling,
        labels=net.labels,
    )


def export_edges(net: MultiplexNetwork) -> list[FlowEdge]:
    """Flatten the network back to flow edges (upper triangle when undirected)."""
    edges = []
    for k in range(net.n_layers):
        rows, cols = np.nonzero(net.intra[k])
        for i, j in zip(rows.tolist(), cols.tolist()):
            if not net.directed and j < i:
                continue
            edges.append(FlowEdge(i, j, k, float(net.intra[k, i, j])))
    return edges


def write_edge_csv(path: str | Path | TextIO, edges: Iterable[FlowEdge], labels: Sequence[str]) -> None:
    """Write edges in the canonical ``layer,source,target,flow`` CSV format."""
    stream = path if isinstance(path, io.TextIOBase) else open(path, "w", encoding="utf-8", newline="")
    close = stream is not path
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(EDGE_COLUMNS)
        for e in edges:
            writer.writerow([e.layer, labels[e.source], labels[e.target], repr(float(e.flow))])
    finally:
        if close:
            stream.close()
