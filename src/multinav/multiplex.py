"""Multiplex network model: edge-list ingestion, flow trimming, construction,
layer-subset enumeration, knockouts, and link integration.

A multiplex network here is L weighted adjacency matrices over one shared set
of N nodes, plus one inter-layer coupling weight that joins every node's
replicas in any two layers. Networks are immutable; every mutating operation
returns a new instance.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import ContextManager, Iterable, Sequence, TextIO

import numpy as np

EDGE_COLUMNS = ("layer", "source", "target", "flow")

PLACEMENT_SUBSET = "subset"
PLACEMENT_ALL = "all"

TRIM_PER_LAYER = "per-layer"
TRIM_GLOBAL = "global"

# memory budget for the temporaries of one array pass: survival's mode factors
# plus one origin block, or a block of a prediction stage's subsets or rows
CHUNK_BYTES = 16 * 2**20


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
    """Parsed edge list plus the label table interned during parsing, and the
    layer count: 1 + the largest layer of one source, or the source count."""

    edges: tuple[FlowEdge, ...]
    labels: tuple[str, ...]
    n_layers: int

    @property
    def n_nodes(self) -> int:
        return len(self.labels)


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

    @cached_property
    def joined_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, layers): each pair x < y some layer joins, either direction,
        in row-major order, with its (L, pairs) layer mask; no node is its own
        neighbor. Listed by one scan on first use and kept: do not edit ``intra`` in place."""
        present = self.intra > 0
        joined = present.any(axis=0)
        joined |= joined.T
        x, y = np.nonzero(joined)
        x, y = x[x < y], y[x < y]
        return x, y, present[:, x, y] | present[:, y, x]


def _open_source(source: TextIO | str | Path) -> ContextManager[TextIO]:
    """A path opened with any byte-order mark skipped, or a given stream, left open."""
    if isinstance(source, (str, Path)):
        return open(source, encoding="utf-8-sig", newline="")
    return contextlib.nullcontext(source)


def csv_cells(values: Sequence[str]) -> list[str]:
    """Each string as ``csv.writer`` writes it as one field of a row: quoted
    only where csv must quote it, so rows can be joined with commas."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(values)
    if buffer.getvalue() == ",".join(values) + "\n":  # no field was quoted
        return list(values)
    cells = []
    for value in values:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((value, ""))  # beside a second field, "" stays unquoted
        cells.append(buffer.getvalue()[:-2])
    return cells


def parse_edge_list(*sources: TextIO | str | Path) -> EdgeList:
    """Parse CSV edge lists into FlowEdges with labels interned to dense indices.

    One source is a combined edge list. With several, source k becomes layer
    k, and each must carry a single layer value of its own; an empty source
    still adds its layer. Each header must contain the layer, source, target
    and flow columns once each, in any order. Node labels become indices in
    first-appearance order across all sources. Rejects malformed rows,
    negative flows, empty labels, self-loops and fields over csv's size
    limit, reporting the 1-based line number on which the row ends.
    """
    index: dict[str, int] = {}  # label -> its index, in first-appearance order
    edges: list[FlowEdge] = []
    n_layers = len(sources)
    for position, source in enumerate(sources):
        fixed = None if len(sources) == 1 else position
        with _open_source(source) as stream:
            values = _read_edges(stream, index, edges, fixed)
        if fixed is None:
            n_layers = 1 + max(values, default=-1)
        elif len(values) > 1:
            name = source if isinstance(source, (str, Path)) else f"source {position}"
            raise ParseError(f"{name}: per-layer input holds {len(values)} layer values; "
                             "pass a single combined CSV instead")
    return EdgeList(tuple(edges), tuple(index), n_layers)


def _read_edges(stream: TextIO, index: dict[str, int], edges: list[FlowEdge], fixed: int | None) -> set[int]:
    """Append one source's edges, in layer ``fixed`` unless it is None, interning
    labels into ``index``; return the layer values the source holds."""
    values: set[int] = set()
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty input, expected a header row", line=1) from None
        header = [h.strip() for h in header]
        for name in EDGE_COLUMNS:
            if header.count(name) != 1:
                problem = "missing" if name not in header else "duplicated"
                raise SchemaError(f"{problem} column {name!r} in header {header}")
        at_layer, at_source, at_target, at_flow = map(header.index, EDGE_COLUMNS)

        for row in reader:
            lineno = reader.line_num  # the row's last line; a quoted field may span lines
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=lineno)
            try:
                layer = int(row[at_layer])
            except ValueError:
                raise ParseError(f"non-integer layer {row[at_layer]!r}", line=lineno) from None
            try:
                flow = float(row[at_flow])
            except ValueError:
                raise ParseError(f"non-numeric flow {row[at_flow]!r}", line=lineno) from None
            if not math.isfinite(flow) or flow < 0:
                raise ParseError(f"flow must be finite and non-negative, got {flow}", line=lineno)
            if layer < 0:
                raise ParseError(f"negative layer index {layer}", line=lineno)
            src = row[at_source].strip()
            dst = row[at_target].strip()
            if not (src and dst):
                raise ParseError(f"empty {'target' if src else 'source'} label", line=lineno)
            if src == dst:
                raise ParseError(f"self-loop on node {src!r}", line=lineno)
            values.add(layer)
            source = index.setdefault(src, len(index))
            edges.append(FlowEdge(source, index.setdefault(dst, len(index)),
                                  layer if fixed is None else fixed, flow))
        return values
    except csv.Error as exc:  # a field over the limit; not a ValueError
        raise ParseError(str(exc), line=reader.line_num) from None


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
    if n_layers < 1:
        raise ConstructionError(f"network must have at least one layer, got {n_layers}")
    if n_nodes < 0:
        raise ConstructionError(f"network must have zero or more nodes, got {n_nodes}")

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
    return replace(net, intra=intra)


def integrate_links(
    net: MultiplexNetwork,
    links,
    placement: str = PLACEMENT_SUBSET,
) -> MultiplexNetwork:
    """Add weighted predicted links, a prediction LinkTable, back into the network.

    Each link lands in every layer of the subset that produced it (or in all
    layers with ``placement="all"``). Links carry no orientation, so both
    matrix cells are written even in directed mode. Collisions with existing
    edges keep the larger weight, which makes integration idempotent. A link
    whose weight is not positive and finite, whose endpoints are out of range
    or equal, or whose subset names a layer outside [0, L) raises ValueError,
    checked in that order, for the first such link.
    """
    if placement not in (PLACEMENT_SUBSET, PLACEMENT_ALL):
        raise ValueError(f"unknown placement {placement!r}")
    u, v, weight, code, subsets = links.u, links.v, links.weight, links.subset, links.subsets
    outside = np.array([not all(0 <= k < net.n_layers for k in s) for s in subsets], dtype=bool)
    faults = np.stack([~((0 < weight) & (weight < np.inf)),  # also NaN
                       (np.minimum(u, v) < 0) | (np.maximum(u, v) >= net.n_nodes), u == v, outside[code]])
    if faults.any():
        row = int(np.argmax(faults.any(axis=0)))
        raise ValueError((
            f"predicted link weight must be positive and finite, got {float(weight[row])}",
            f"link endpoint out of range: ({u[row]}, {v[row]})",
            f"predicted link joins node {u[row]} to itself",
            f"link subset {subsets[code[row]]} names a layer out of range [0, {net.n_layers})",
        )[int(np.argmax(faults[:, row]))])
    # one (layer, u, v, weight) entry per link and target layer; the maximum
    # is the same in any order, so repeated cells need no loop
    inside = np.array([[placement == PLACEMENT_ALL or k in s for k in range(net.n_layers)]
                       for s in subsets], dtype=bool).reshape(-1, net.n_layers)
    row, layer = np.nonzero(inside[code])
    intra = net.intra.copy()
    np.maximum.at(intra, (layer, u[row], v[row]), weight[row])
    np.maximum.at(intra, (layer, v[row], u[row]), weight[row])
    return replace(net, intra=intra)


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


def format_edge_csv(edges: Iterable[FlowEdge], labels: Sequence[str]) -> str:
    """The text of edges in the canonical ``layer,source,target,flow`` CSV format."""
    cells = csv_cells(labels)
    rows = [f"{e.layer},{cells[e.source]},{cells[e.target]},{float(e.flow)!r}\n" for e in edges]
    return "".join([",".join(EDGE_COLUMNS) + "\n", *rows])
