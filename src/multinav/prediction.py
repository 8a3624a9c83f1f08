"""Link prediction over layer subsets via exclusive neighborhoods.

A neighbor u of v is *exclusive* to a layer subset D when every (u, v) edge of
the multiplex lies inside D. The classic Jaccard and Adamic-Adar scores are
evaluated on these exclusive neighborhoods for every candidate: a pair with no
edge in any layer of D that shares an exclusive neighbor, since one sharing
none would score 0, which no threshold keeps. A stage is every subset of one
size k, and each step works on the whole stage at once, on one row set: the
candidates of exclusive_stage. A scorer returns one raw score per row,
normalize_scores scales each subset's by its own maximum, threshold_filter
returns the positions of the rows it keeps, and assign_weights gives each
row that either algorithm keeps its mean flow, once. run_stage builds each
algorithm's columnar ``LinkTable`` from these arrays, weighting a link by its
normalized score times its row's mean, and returns both algorithms'
deduplicated union, one table whose provenance marks every contributing
(algorithm, subset) of a link; links stay columns to disk and to
integrate_links. A self-loop makes no node its own neighbor, so it adds to no
exclusive neighborhood or degree.

Each subset is scored from one table of the node pairs some layer joins, with
each pair's layers, which a network lists once (MultiplexNetwork.joined_pairs):
a pair is inside a subset when one of its layers is in it, and exclusive to it
when all are. Once per pass, exclusive_stage keeps what the steps read from it:
each node's exclusive and union degree, and each hub's pairs of exclusive
neighbors, listed once in O(sum of deg^2) and sorted, so a candidate's shared
neighbors are one run of C entries. Jaccard is ``C / (d_u + d_v - C)``,
Adamic-Adar adds each shared neighbor's ``1 / ln(union degree)`` in ascending
order from 0.0, and assign_weights reads a row's flows from the same run.
Every score is bit-identical to a per-pair loop over neighbor sets. On a large
network run_stage splits a stage into passes of as many subsets as fit
``CHUNK_BYTES``; no result depends on where a pass ends.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .multiplex import CHUNK_BYTES, MultiplexNetwork, csv_cells, enumerate_layer_subsets

JACCARD = "jaccard"
ADAMIC_ADAR = "adamic_adar"
ALGORITHMS = (ADAMIC_ADAR, JACCARD)  # a LinkTable's algorithm codes, in string order

# what a prediction pass holds at its peak, per subset: two degrees per node
# and, per pair some layer of it joins, its cells and their temporaries (56
# bytes under tracemalloc where no pair is exclusive); per entry of its list,
# besides the flows run_stage counts: the entry, a row (at most one per entry,
# with its scores and links) and the gather's indices, up to 248 bytes on the
# seed-0 perfbench/gen.py lattices (N=400, 800, L=5, every stage, threshold 0)
NODE_BYTES = 16
PAIR_BYTES = 64
ENTRY_BYTES = 256

LINK_CSV_COLUMNS = (
    "u_label",
    "v_label",
    "algorithm",
    "subset",
    "stage",
    "raw_score",
    "normalized_score",
    "weight",
)


@dataclass(frozen=True, eq=False)
class ExclusiveStage:
    """A stage's exclusive neighborhoods and candidates, built once per pass.

    ``degree`` and ``union_degree`` count each (subset, node)'s exclusive
    neighbors and its neighbors in any layer of the subset, both (S, N).
    ``cell`` and ``neighbor`` list the shared exclusive neighbors, one entry
    per subset, node w and pair x < y of w's exclusive neighbors: ``cell`` is
    the flat index of (subset, x, y) in an (S, N, N) grid and ``neighbor`` is
    w, sorted by cell and, within a cell, by w. The rows are the candidates,
    subset by subset in the order of ``subsets``, then pairs u < v in
    row-major order: ``subset_index`` (a row's position in ``subsets``),
    ``u`` and ``v``. Row r shares the ``common[r]`` neighbors listed from
    entry ``first[r]`` on. Every array a prediction step returns or takes
    per row is aligned with these rows.
    """

    subsets: tuple[tuple[int, ...], ...]
    degree: np.ndarray
    union_degree: np.ndarray
    subset_index: np.ndarray
    u: np.ndarray
    v: np.ndarray
    first: np.ndarray
    common: np.ndarray
    cell: np.ndarray
    neighbor: np.ndarray


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Predicted links as columns, one row per link: a predicted link is a row
    of a table, and nothing else.

    ``algorithm`` indexes ALGORITHMS and ``subset`` indexes ``subsets``, layer
    tuples in lexicographic order, so codes compare as names and tuples do; a
    row's stage is its subset's size. The provenance mask ``sources``, filled by
    dedupe_links, sets bit [r, a, s] when algorithm a on subset s produced row r's pair.
    """

    u: np.ndarray
    v: np.ndarray
    raw_score: np.ndarray
    normalized_score: np.ndarray
    weight: np.ndarray
    algorithm: np.ndarray
    subset: np.ndarray
    subsets: tuple[tuple[int, ...], ...]
    sources: np.ndarray

    def __len__(self) -> int:
        return len(self.u)

    @classmethod
    def _from_rows(cls, rows: Sequence[Sequence]) -> LinkTable:
        """The table of (u, v, algorithm code, 3 scores, subset) rows, without provenance."""
        subsets, (code,) = _subset_codes([r[-1] for r in rows])
        u, v, algorithm = np.array([r[:3] for r in rows], dtype=np.intp).reshape(-1, 3).T
        scores = np.array([r[3:6] for r in rows], dtype=float).reshape(-1, 3).T
        return cls(u, v, *scores, algorithm, code, subsets,
                   np.zeros((len(rows), len(ALGORITHMS), len(subsets)), dtype=bool))


def _subset_codes(*groups: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], list[np.ndarray]]:
    """The sorted union of the groups' layer subsets, and each group's as positions in it."""
    subsets = tuple(sorted({tuple(subset) for group in groups for subset in group}))
    position = {subset: i for i, subset in enumerate(subsets)}
    return subsets, [np.array([position[tuple(s)] for s in group], dtype=np.intp) for group in groups]


def _layer_adjacency(net: MultiplexNetwork, layer: int) -> np.ndarray:
    """A layer's edge presence, either direction, (N, N); a node is not its own neighbor."""
    adj = net.intra[layer] > 0
    adj |= adj.T
    np.fill_diagonal(adj, False)
    return adj


def _stage_subsets(net: MultiplexNetwork, subsets: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The subsets as tuples, each non-empty and within [0, L), all of one size."""
    subsets = tuple(tuple(subset) for subset in subsets)
    for subset in subsets:
        if not subset or not all(0 <= k < net.n_layers for k in subset):
            raise ValueError(f"layer subset {subset} out of range [0, {net.n_layers})")
    sizes = sorted({len(subset) for subset in subsets})
    if len(sizes) > 1:
        raise ValueError(f"a stage's subsets must share one size, got sizes {sizes}")
    return subsets


def _joined_pairs(net: MultiplexNetwork, subsets: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    """(x, y, inside, exclusive): the network's joined pairs x < y
    (MultiplexNetwork.joined_pairs) and the (S, pairs) masks of a pair held by
    some layer of each subset and of one held by no layer outside it, which is
    then exclusive to the subset."""
    x, y, layers = net.joined_pairs
    member = np.array([[k in subset for k in range(net.n_layers)] for subset in subsets],
                      dtype=bool).reshape(-1, net.n_layers)  # each subset's (S, L) layers
    return x, y, member @ layers, ~(~member @ layers)


def _cells(mask: np.ndarray, x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """The flat index of (subset, a, b) in an (S, N, N) grid for each pair the
    (S, pairs) mask holds, as (a, b) = (x, y), ascending, then as (y, x)."""
    subset, pair = np.nonzero(mask)
    subset *= n
    return np.concatenate([(subset + x[pair]) * n + y[pair], (subset + y[pair]) * n + x[pair]])


def _degrees(cells: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Each (subset, node)'s count of the (subset, node, other) cells, (S, N)."""
    return np.bincount(cells // shape[1], minlength=math.prod(shape)).reshape(shape)


def exclusive_neighbors(net: MultiplexNetwork, v: int, subset: Sequence[int]) -> frozenset[int]:
    """Neighbors of v linked to it solely within the given layer subset."""
    if not 0 <= v < net.n_nodes:
        raise ValueError(f"node {v} out of range [0, {net.n_nodes})")
    x, y, _, exclusive = _joined_pairs(net, _stage_subsets(net, [subset]))
    held = exclusive[0]
    return frozenset(np.concatenate([y[held & (x == v)], x[held & (y == v)]]).tolist())


def jaccard_classic(net: MultiplexNetwork, layer: int, u: int, v: int) -> float:
    """Single-layer Jaccard coefficient: |intersection| / |union| of neighborhoods."""
    if u == v:
        raise ValueError("Jaccard requires two distinct nodes")
    adj = _layer_adjacency(net, layer)
    union = int(np.count_nonzero(adj[u] | adj[v]))
    if not union:
        return 0.0
    return int(np.count_nonzero(adj[u] & adj[v])) / union


def adamic_adar_classic(net: MultiplexNetwork, layer: int, u: int, v: int) -> float:
    """Single-layer Adamic-Adar: sum of 1/ln(degree) over common neighbors.

    Degree-1 common neighbors are skipped so the logarithm never vanishes
    (a node adjacent to both u and v in one layer always has degree >= 2,
    so the guard only matters for hand-built inputs).
    """
    if u == v:
        raise ValueError("Adamic-Adar requires two distinct nodes")
    adj = _layer_adjacency(net, layer)
    degree = adj.sum(axis=1)
    score = 0.0
    for w in np.flatnonzero(adj[u] & adj[v]):
        if degree[w] > 1:
            score += 1.0 / math.log(degree[w])
    return score


def exclusive_stage(net: MultiplexNetwork, subsets: Iterable[Sequence[int]]) -> ExclusiveStage:
    """The exclusive neighborhoods of a stage, layer subsets all of one size,
    as both scorers read them, from the pairs some layer joins."""
    subsets = _stage_subsets(net, subsets)
    shape = (len(subsets), net.n_nodes)
    x, y, inside, exclusive = _joined_pairs(net, subsets)
    held, joined = _cells(exclusive, x, y, shape[1]), _cells(inside, x, y, shape[1])
    site, cell = _shared_pairs(held, shape[1])
    # each pair's entries are one run of the sorted list; a candidate's is a
    # row unless some layer of its subset joins the pair
    first = np.flatnonzero(np.diff(cell, prepend=-1))
    common = np.diff(first, append=cell.size)
    upper = joined[:joined.size // 2]  # each inside cell (x, y), x < y, ascending
    row = np.append(upper, -1)[np.searchsorted(upper, cell[first])] != cell[first]
    first, common = first[row], common[row]
    return ExclusiveStage(subsets, _degrees(held, shape), _degrees(joined, shape),
                          *np.unravel_index(cell[first], shape + shape[1:]), first, common, cell,
                          np.remainder(site, shape[1], out=site))  # w of each site, in place


def _runs(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, entry) of each entry of the rows' runs [start, start + count), in order."""
    row = np.repeat(np.arange(len(count)), count)
    return row, np.arange(row.size) + np.repeat(start - (np.cumsum(count) - count), count)


def _shared_pairs(held: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(site, cell) for every pair x < y of a hub's exclusive neighbors, from
    ``held``, the flat (subset, w, x) index in an (S, N, N) grid of each
    exclusive neighbor x of each (subset, w), in any order.

    A hub is a (subset, w) with at least two exclusive neighbors; ``site`` is
    the flat index of (subset, w) in the (S, N) grid and ``cell`` that of
    (subset, x, y). Entries are listed in O(sum of deg^2), hub by hub, then
    sorted by cell with a stable sort, so w stays ascending within a cell.
    """
    # a hub's neighbors are one ascending run of held, and each entry (w, x)
    # pairs with the x's after it in that run; a lone x pairs with none
    site, x = np.divmod(np.sort(held), n)
    later = np.cumsum(np.bincount(site))[site] - 1 - np.arange(site.size)
    entry, partner = _runs(np.arange(1, site.size + 1), later)
    site = site[entry]
    cell = (site - site % n + x[entry]) * n + x[partner]
    order = np.argsort(cell, kind="stable")
    return site[order], cell[order]


def modified_jaccard(stage: ExclusiveStage) -> np.ndarray:
    """Jaccard over exclusive neighborhoods for every row of the stage:
    ``C / (d_u + d_v - C)``, with C the pair's count of shared neighbors."""
    index, common = stage.subset_index, stage.common
    return common / (stage.degree[index, stage.u] + stage.degree[index, stage.v] - common)


def modified_adamic_adar(stage: ExclusiveStage) -> np.ndarray:
    """Adamic-Adar over exclusive neighborhoods for every row of the stage.

    Each shared exclusive neighbor contributes the inverse log of its degree
    in the union graph of the subset, at least 2, since it joins both
    endpoints. A row's terms are added from 0.0 in ascending order of the
    shared neighbor w, its run of the list, by ``np.add.at`` over rows.
    """
    # each (subset, w)'s term, one per degree; math.log, not np.log, whose
    # last bit may differ
    top = int(stage.union_degree.max(initial=1))
    term = np.array([0.0, 0.0] + [1.0 / math.log(d) for d in range(2, top + 1)])[stage.union_degree]
    row, entry = _runs(stage.first, stage.common)
    scores = np.zeros(len(stage.first))
    np.add.at(scores, row, term[stage.subset_index[row], stage.neighbor[entry]])
    return scores


def normalize_scores(stage: ExclusiveStage, raw: np.ndarray) -> np.ndarray:
    """Each row's raw score scaled to (0, 1] by its subset's maximum. A
    scorer's scores are positive; a score that is not raises ValueError
    naming its subset."""
    bad = np.flatnonzero(~(raw > 0.0))
    if bad.size:
        subset = stage.subsets[stage.subset_index[bad[0]]]
        raise ValueError(f"raw score {float(raw[bad[0]])} in subset {subset} is not positive")
    top = np.zeros(len(stage.subsets))
    np.maximum.at(top, stage.subset_index, raw)
    return raw / top[stage.subset_index]


def threshold_filter(normalized: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """The positions, ascending, of the rows whose normalized score strictly
    exceeds the threshold.

    The threshold lies in [0, 1). A scorer's rows all share an exclusive
    neighbor, whose flows assign_weights averages, so at threshold 0 every
    row is kept.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
    return np.flatnonzero(normalized > threshold)


def _positive_flows(stage: ExclusiveStage, rows: np.ndarray,
                    net: MultiplexNetwork) -> tuple[np.ndarray, np.ndarray]:
    """(row, flow) of every positive flow between an endpoint of one of the
    given rows and a shared exclusive neighbor w, in the layers of the row's
    subset: rows in their order, then w ascending, layer, endpoint (u, v),
    and direction (out of the endpoint, then into it). The gathers die here."""
    layers = np.array(stage.subsets, dtype=np.intp).reshape(len(stage.subsets), -1)
    # each row's run of entries: rows in order, then w ascending
    pair, entry = _runs(stage.first[rows], stage.common[rows])
    ends = np.stack([stage.u[rows], stage.v[rows]], axis=1)[pair, None, :, None]
    hub, own = stage.neighbor[entry, None, None, None], layers[stage.subset_index[rows][pair], :, None, None]
    # cells[p, k, a, d]: flow a -> w in the subset's k-th layer (d = 0) and,
    # when directed, w -> a (d = 1), for each endpoint a of the pair, in one gather
    a_to_w = np.arange(1 + net.directed) == 0
    cells = net.intra[own, np.where(a_to_w, ends, hub), np.where(a_to_w, hub, ends)]
    flat = np.flatnonzero(cells > 0)
    return pair[flat // math.prod(cells.shape[1:])], cells.reshape(-1)[flat]


def assign_weights(stage: ExclusiveStage, rows: np.ndarray, net: MultiplexNetwork) -> np.ndarray:
    """The mean flow of each of the stage's given rows, in their order.

    A row's mean is over the flows on edges joining either endpoint to their
    shared exclusive neighbors, its run of the stage's list, in the layers
    of the row's subset; run_stage weights a link by its normalized score
    times that mean. Every row of exclusive_stage shares such a neighbor; a
    row that shares none raises ValueError. A row's positive flows are taken
    in the order of _positive_flows and summed as ``np.mean`` sums them:
    fewer than 8 by one running sum per row, more by ``np.add.reduce`` along
    rows of one length. Each mean is thus bit-identical to ``np.mean`` of
    that context.
    """
    owner, context = _positive_flows(stage, rows, net)  # owner: a flow's position in rows
    size = np.bincount(owner, minlength=len(rows))
    if np.any(size == 0):
        first = rows[np.flatnonzero(size == 0)[0]]
        subset = stage.subsets[stage.subset_index[first]]
        raise ValueError(f"pair ({stage.u[first]}, {stage.v[first]}) shares no exclusive neighbor "
                         f"in layers {subset}")
    offset = np.cumsum(size) - size
    # np.mean adds fewer than 8 values one by one from the left: a running sum
    # along a row as long as the longest, at most 8, that holds a row's flows
    # and zeros, which change none; a row of 8 or more piles its values past
    # the 7th up in its last column, and its sum is replaced below
    width = min(8, int(size.max(initial=1)))
    column = np.arange(owner.size) - offset[owner]
    padded = np.zeros((len(rows), width))
    padded[owner, np.minimum(column, width - 1, out=column)] = context
    total = np.cumsum(padded, axis=1, out=padded)[:, -1]
    for length in np.unique(size[size >= 8]).tolist():
        same = np.flatnonzero(size == length)
        total[same] = np.add.reduce(context[offset[same, None] + np.arange(length)], axis=1)
    return total / size


def dedupe_links(tables: Iterable[LinkTable]) -> LinkTable:
    """Collapse the tables' rows to one link per unordered node pair, in pair order.

    One stable ``np.lexsort`` orders rows by pair, weight down and (algorithm,
    subset) up; each pair's first row wins, so an exact tie goes to the first
    input. The winner keeps its orientation and records every contributing
    tag: a row's own, or the provenance it carries from an earlier dedupe.
    """
    tables = list(tables) or [LinkTable._from_rows([])]
    subsets, codes = _subset_codes(*(table.subsets for table in tables))
    # the tables' rows one after another, subset codes and mask columns moved
    # onto the merged subsets
    u, v, raw, normalized, weight, algorithm, subset = (np.concatenate(parts) for parts in zip(*(
        (t.u, t.v, t.raw_score, t.normalized_score, t.weight, t.algorithm, code[t.subset])
        for code, t in zip(codes, tables))))
    sources = np.zeros((len(u), len(ALGORITHMS), len(subsets)), dtype=bool)
    for stop, code, t in zip(np.cumsum([len(t) for t in tables]).tolist(), codes, tables):
        sources[stop - len(t):stop, :, code] = t.sources
    # a row's tags: the provenance it carries, or its own tag when it carries none
    bare = np.flatnonzero(~sources.any(axis=(1, 2)))
    sources[bare, algorithm[bare], subset[bare]] = True
    n = 1 + max(u.max(initial=0), v.max(initial=0))
    pairs = np.ravel_multi_index(np.sort([u, v], axis=0), (n, n))  # in (min, max) pair order
    order = np.lexsort((subset, algorithm, -weight, pairs))
    first = np.flatnonzero(np.diff(pairs[order], prepend=-1))  # each pair's first row in order
    win = order[first]
    return LinkTable(u[win], v[win], raw[win], normalized[win], weight[win], algorithm[win], subset[win],
                     subsets, np.logical_or.reduceat(sources[order], first))


def run_stage(net: MultiplexNetwork, k: int, threshold: float = 0.5) -> LinkTable:
    """Score every layer subset of size k with both algorithms; normalize,
    threshold and weight the scored subsets together, then deduplicate the
    stage's tables once, across subsets and algorithms, into one table.

    Subsets go through in passes, each built once by exclusive_stage and
    turned into links by _pass_links, of as many consecutive subsets as fit
    CHUNK_BYTES, and at least one. A subset costs NODE_BYTES per node,
    PAIR_BYTES per pair some layer of it joins and, per entry of its
    shared-pair list (sum_w C(deg_w, 2) entries, counted from its exclusive
    degrees before any is listed), ENTRY_BYTES for the entry, a row and its
    links, plus the flows assign_weights gathers: 18 bytes per layer of the
    subset, 36 when directed. The table of the pairs some layer joins is the
    network's, listed once on first use, before any pass. A stage is one pass
    unless the network is large or dense; no link depends on the split.
    """
    subsets = enumerate_layer_subsets(net.n_layers, k)
    x, y, inside, exclusive = _joined_pairs(net, subsets)
    degree = _degrees(_cells(exclusive, x, y, net.n_nodes), (len(subsets), net.n_nodes))
    # an entry's share of the pass, and the block _positive_flows gathers for
    # it: a flow and its mask byte per layer, endpoint and direction
    entry = ENTRY_BYTES + (net.intra.itemsize + 1) * 2 * k * (1 + net.directed)
    cost = (NODE_BYTES * net.n_nodes + PAIR_BYTES * inside.sum(axis=1)
            + entry * (degree * (degree - 1) // 2).sum(axis=1))
    tables, start = [], 0
    while start < len(subsets):
        stop = start + max(1, int(np.searchsorted(np.cumsum(cost[start:]), CHUNK_BYTES, side="right")))
        # a pass's stage and arrays die with the call, before the next pass builds its own
        tables += _pass_links(exclusive_stage(net, subsets[start:stop]), threshold, net)
        start = stop
    return dedupe_links(tables)


def _pass_links(stage: ExclusiveStage, threshold: float, net: MultiplexNetwork) -> list[LinkTable]:
    """Jaccard's and Adamic-Adar's links of one pass, each weighted by its
    normalized score times its row's mean flow; assign_weights runs once, on
    the sorted union of both algorithms' kept rows."""
    scored = []
    for algorithm, scorer in ((JACCARD, modified_jaccard), (ADAMIC_ADAR, modified_adamic_adar)):
        raw = scorer(stage)
        normalized = normalize_scores(stage, raw)
        scored.append((algorithm, raw, normalized, threshold_filter(normalized, threshold)))
    rows = np.union1d(scored[0][-1], scored[1][-1])  # sorted, each row once
    mean = assign_weights(stage, rows, net)
    # the pass's subsets are in lexicographic order, so a row's subset index
    # is its table code; the tables carry no provenance
    tables = []
    while scored:  # each algorithm's scores die as its table is made
        algorithm, raw, normalized, kept = scored.pop(0)
        tables.append(LinkTable(stage.u[kept], stage.v[kept], raw[kept], normalized[kept],
                                normalized[kept] * mean[np.searchsorted(rows, kept)],
                                np.full(kept.size, ALGORITHMS.index(algorithm), dtype=np.intp),
                                stage.subset_index[kept], stage.subsets,
                                np.zeros((kept.size, len(ALGORITHMS), len(stage.subsets)), dtype=bool)))
    return tables


def format_subset(subset: Sequence[int]) -> str:
    return "+".join(str(k) for k in subset)


def parse_subset(text: str) -> tuple[int, ...]:
    """The layers of a format_subset string, which are strictly increasing."""
    subset = tuple(int(part) for part in text.split("+"))
    if any(a >= b for a, b in zip(subset, subset[1:])):
        raise ValueError(f"subset {text!r} is not strictly increasing")
    return subset


def format_links_csv(links: LinkTable, labels: Sequence[str]) -> str:
    """The CSV text of predicted links with labeled endpoints, one line per table row."""
    cells = csv_cells(labels)
    # a subset's name and stage, by subset code
    names = [f"{format_subset(subset)},{len(subset)}" for subset in links.subsets]
    rows = [f"{cells[u]},{cells[v]},{ALGORITHMS[a]},{names[s]},{raw!r},{normalized!r},{weight!r}\n"
            for u, v, a, s, raw, normalized, weight in zip(*(column.tolist() for column in (
                links.u, links.v, links.algorithm, links.subset,
                links.raw_score, links.normalized_score, links.weight)))]
    return "".join([",".join(LINK_CSV_COLUMNS) + "\n", *rows])


def read_links_csv(path: str | Path, label_index: dict[str, int]) -> LinkTable:
    """Read a predicted-links CSV, with or without a byte-order mark, into a table,
    mapping labels back to node indices; each rejected row names its line."""
    rows = []
    with open(path, encoding="utf-8-sig", newline="") as stream:
        reader = csv.DictReader(stream)
        try:
            # as parse_edge_list does, "u_label, v_label" names u_label and v_label
            reader.fieldnames = header = [name.strip() for name in reader.fieldnames or []]
            missing = set(LINK_CSV_COLUMNS) - set(header)
            if missing:
                raise ValueError(f"links file missing columns {sorted(missing)}")
            # DictReader would keep only the last of a repeated column
            repeated = [name for name in LINK_CSV_COLUMNS if header.count(name) > 1]
            if repeated:
                raise ValueError(f"links file repeats columns {repeated}")
            for row in reader:
                line = f"links file line {reader.line_num}"
                if None in row:  # DictReader files a long row's extra fields under None
                    raise ValueError(f"{line}: {len(row[None])} fields more than the header")
                try:
                    values = [label_index[row["u_label"]], label_index[row["v_label"]]]
                except KeyError as exc:
                    raise ValueError(f"unknown node label {exc.args[0]!r} in links file") from None
                for name, parse in (("algorithm", ALGORITHMS.index), ("raw_score", float),
                                    ("normalized_score", float), ("weight", float),
                                    ("subset", parse_subset), ("stage", int)):
                    try:
                        values.append(parse(row[name]))
                    except (AttributeError, TypeError, ValueError):  # a short row holds None
                        raise ValueError(f"{line}: bad {name} {row[name]!r}") from None
                if values.pop() != len(values[-1]):
                    raise ValueError(f"{line}: bad stage {row['stage']!r} for subset {row['subset']!r}")
                rows.append(values)
        except csv.Error as exc:  # a field over the size limit, which is no ValueError
            # DictReader counts only the lines of the rows it has returned
            raise ValueError(f"links file line {reader.reader.line_num}: {exc}") from None
    return LinkTable._from_rows(rows)
