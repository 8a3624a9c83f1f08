"""Link prediction over layer subsets via exclusive neighborhoods.

A neighbor u of v is *exclusive* to a layer subset D when every (u, v) edge
of the multiplex lies inside D. The classic Jaccard and Adamic-Adar scores
are evaluated on these exclusive neighborhoods for every candidate pair that
has no edge in any layer of D. A stage is every subset of one size k, and
each step works on the whole stage at once: a scorer returns one
``ScoredPairs`` for all of the stage's subsets, normalize_scores scales each
subset by its own maximum, threshold_filter keeps rows, and assign_weights
weights the survivors, using nearby flow values, as one columnar ``LinkTable``.
run_stage thus makes one trip per algorithm through these steps and returns
both algorithms' deduplicated union, one table whose provenance marks every
contributing (algorithm, subset) of a link; links stay columns to disk and
to integrate_links. A self-loop makes no node its own neighbor, so it adds
to no exclusive neighborhood or degree.

Each subset is scored on one boolean exclusive adjacency ``E = inside & ~outside``,
built from the per-layer adjacency. exclusive_stage computes it once per pass
and keeps what both scorers read: each node's exclusive and union degree, the
candidate mask, and each hub's pairs of exclusive neighbors, listed once in
O(sum of deg^2). Jaccard is ``C / (d_u + d_v - C)`` with C the pair's count of
shared neighbors, Adamic-Adar adds each shared neighbor's ``1 / ln(union
degree)`` in ascending order from 0.0, and the list stays with the scores, so
assign_weights looks a pair's shared neighbors up in it. Every score is
bit-identical to a per-pair loop over neighbor sets. On a large network
run_stage splits a stage into passes of as many subsets as fit
``CHUNK_BYTES``; no result depends on where a pass ends.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .multiplex import CHUNK_BYTES, MultiplexNetwork, csv_cells, enumerate_layer_subsets

JACCARD = "jaccard"
ADAMIC_ADAR = "adamic_adar"
ALGORITHMS = (ADAMIC_ADAR, JACCARD)  # a LinkTable's algorithm codes, in string order

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
class ScoredPairs:
    """Every scored candidate of one algorithm over a stage's subsets, as columns.

    Rows come subset by subset in the order of ``subsets``, and within a
    subset as pairs u < v in row-major order; ``subset_index`` is each row's
    position in ``subsets``. ``cell`` and ``neighbor`` list the stage's shared
    exclusive neighbors, one entry per subset, node w and pair x < y of w's
    exclusive neighbors: ``cell`` is the flat index of (subset, x, y) in an
    (S, N, N) grid and ``neighbor`` is w, sorted by cell and, within a cell,
    by w. They list every pair of the stage, row or not, and ``where`` keeps
    them whole. ``normalized_score`` is None until normalize_scores fills it.
    """

    algorithm: str
    subsets: tuple[tuple[int, ...], ...]
    subset_index: np.ndarray
    u: np.ndarray
    v: np.ndarray
    raw_score: np.ndarray
    cell: np.ndarray
    neighbor: np.ndarray
    normalized_score: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.u)

    def where(self, mask: np.ndarray) -> ScoredPairs:
        """The rows where ``mask`` holds."""
        normalized = None if self.normalized_score is None else self.normalized_score[mask]
        return replace(self, subset_index=self.subset_index[mask], u=self.u[mask], v=self.v[mask],
                       raw_score=self.raw_score[mask], normalized_score=normalized)


@dataclass(frozen=True, eq=False)
class ExclusiveStage:
    """What the scorers read of a stage's exclusive neighborhoods, built once per pass.

    ``degree`` and ``union_degree`` count each (subset, node)'s exclusive
    neighbors and its neighbors in any layer of the subset, both (S, N).
    ``candidate`` is the (S, N, N) mask of pairs u < v with no edge in any
    layer of the subset. ``cell`` and ``neighbor`` list the shared exclusive
    neighbors as ScoredPairs does, and every group scored from the stage
    shares them.
    """

    subsets: tuple[tuple[int, ...], ...]
    degree: np.ndarray
    union_degree: np.ndarray
    candidate: np.ndarray
    cell: np.ndarray
    neighbor: np.ndarray


@dataclass(frozen=True)
class PredictedLink:
    """One row of a LinkTable: a thresholded, flow-weighted predicted link.

    ``sources`` lists every (algorithm, subset, stage) occurrence that
    contributed the same node pair; it is filled by dedupe_links.
    """

    u: int
    v: int
    raw_score: float
    normalized_score: float
    weight: float
    algorithm: str
    subset: tuple[int, ...]
    stage: int
    sources: tuple[tuple[str, tuple[int, ...], int], ...] = ()


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Predicted links as columns, one row per link; iterating yields PredictedLinks.

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

    def __iter__(self) -> Iterator[PredictedLink]:
        # (algorithm, subset, stage) of each bit of a row's mask, in mask order
        tags = [(name, subset, len(subset)) for name in ALGORITHMS for subset in self.subsets]
        row, bit = np.nonzero(self.sources.reshape(len(self), len(tags)))
        sources = [tags[b] for b in bit.tolist()]
        bounds = np.searchsorted(row, np.arange(len(self) + 1)).tolist()
        columns = (self.u, self.v, self.raw_score, self.normalized_score, self.weight,
                   self.algorithm * len(self.subsets) + self.subset)  # a row's own tag
        for r, (*values, own) in enumerate(zip(*(column.tolist() for column in columns))):
            yield PredictedLink(*values, *tags[own], tuple(sources[bounds[r]:bounds[r + 1]]))

    @classmethod
    def from_links(cls, links: Sequence[PredictedLink]) -> LinkTable:
        """The links as a table, ``sources`` included; a stage is its subset's size."""
        return cls._from_rows(
            [(l.u, l.v, ALGORITHMS.index(l.algorithm), l.raw_score, l.normalized_score, l.weight,
              l.subset) for l in links],
            [(row, ALGORITHMS.index(a), s) for row, l in enumerate(links) for a, s, _ in l.sources])

    @classmethod
    def _from_rows(cls, rows: Sequence[Sequence], tags: Sequence[tuple] = ()) -> LinkTable:
        """The table of (u, v, algorithm code, 3 scores, subset) rows and (row, code, subset) tags."""
        subsets, (code, tag_code) = _subset_codes([r[-1] for r in rows], [t[-1] for t in tags])
        u, v, algorithm = np.array([r[:3] for r in rows], dtype=np.intp).reshape(-1, 3).T
        scores = np.array([r[3:6] for r in rows], dtype=float).reshape(-1, 3).T
        row, tag_algorithm = np.array([t[:2] for t in tags], dtype=np.intp).reshape(-1, 2).T
        sources = np.zeros((len(rows), len(ALGORITHMS), len(subsets)), dtype=bool)
        sources[row, tag_algorithm, tag_code] = True
        return cls(u, v, *scores, algorithm, code, subsets, sources)


def _subset_codes(*groups: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], list[np.ndarray]]:
    """The sorted union of the groups' layer subsets, and each group's as positions in it."""
    subsets = tuple(sorted({tuple(subset) for group in groups for subset in group}))
    position = {subset: i for i, subset in enumerate(subsets)}
    return subsets, [np.array([position[tuple(s)] for s in group], dtype=np.intp) for group in groups]


def _unoriented_adjacency(net: MultiplexNetwork) -> np.ndarray:
    """Edge presence per layer, either direction, as an (L, N, N) stack; a
    node is not its own neighbor."""
    adj = net.intra > 0
    if net.directed:
        adj = adj | adj.transpose(0, 2, 1)
    diagonal = np.arange(net.n_nodes)
    adj[:, diagonal, diagonal] = False
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


def _exclusive_stack(adjacency: np.ndarray, subsets: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """(exclusive adjacency ``inside & ~outside``, adjacency within any layer of
    the subset), one (N, N) slice per subset: a pair is inside when some layer
    of the subset holds it, and exclusive when every layer holding it does."""
    count = np.min_scalar_type(len(adjacency))  # holds any count of layers
    member = np.zeros((len(subsets), len(adjacency)), dtype=count)
    for row, subset in enumerate(subsets):
        member[row, list(subset)] = 1
    held = adjacency.astype(count)
    within = np.einsum("sl,lij->sij", member, held)
    inside = within > 0
    return inside & (within == held.sum(axis=0, dtype=count)), inside


def exclusive_neighbors(
    net: MultiplexNetwork,
    v: int,
    subset: Sequence[int],
) -> frozenset[int]:
    """Neighbors of v linked to it solely within the given layer subset."""
    if not 0 <= v < net.n_nodes:
        raise ValueError(f"node {v} out of range [0, {net.n_nodes})")
    exclusive, _ = _exclusive_stack(_unoriented_adjacency(net), _stage_subsets(net, [subset]))
    return frozenset(np.flatnonzero(exclusive[0, v]).tolist())


def jaccard_classic(net: MultiplexNetwork, layer: int, u: int, v: int) -> float:
    """Single-layer Jaccard coefficient: |intersection| / |union| of neighborhoods."""
    if u == v:
        raise ValueError("Jaccard requires two distinct nodes")
    adj = _unoriented_adjacency(net)[layer]
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
    adj = _unoriented_adjacency(net)[layer]
    degree = adj.sum(axis=1)
    score = 0.0
    for w in np.flatnonzero(adj[u] & adj[v]):
        if degree[w] > 1:
            score += 1.0 / math.log(degree[w])
    return score


def exclusive_stage(net: MultiplexNetwork, subsets: Iterable[Sequence[int]]) -> ExclusiveStage:
    """The exclusive neighborhoods of a stage, layer subsets all of one size,
    as both scorers read them; the exclusive and inside stacks die with the call."""
    subsets = _stage_subsets(net, subsets)
    exclusive, inside = _exclusive_stack(_unoriented_adjacency(net), subsets)
    site, cell = _shared_pairs(exclusive)
    above = ~np.tri(net.n_nodes, dtype=bool)  # u < v
    return ExclusiveStage(subsets, exclusive.sum(axis=2), inside.sum(axis=2), ~inside & above, cell,
                          np.remainder(site, net.n_nodes, out=site))  # w of each site, in place


def _shared_pairs(exclusive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(site, cell) for every pair x < y of a hub's exclusive neighbors.

    A hub is a (subset, w) with at least two exclusive neighbors; ``site`` is
    the flat index of (subset, w) in the (S, N) grid and ``cell`` that of
    (subset, x, y) in the (S, N, N) stack. Entries are listed in O(sum of
    deg^2), hub by hub, then sorted by cell with a stable sort, so w stays
    ascending within a cell.
    """
    # E is symmetric: row w holds the nodes sharing w, and each entry (w, x)
    # pairs with the x's after it in w's row; a lone x pairs with none
    n = exclusive.shape[-1]
    site, x = np.divmod(np.flatnonzero(exclusive), n)
    later = np.cumsum(np.bincount(site))[site] - 1 - np.arange(site.size)
    entry = np.repeat(np.arange(site.size), later)
    y = x[entry + 1 + np.arange(entry.size) - (np.cumsum(later) - later)[entry]]
    site = site[entry]
    cell = (site - site % n + x[entry]) * n + y
    order = np.argsort(cell, kind="stable")
    return site[order], cell[order]


def modified_jaccard(stage: ExclusiveStage) -> ScoredPairs:
    """Jaccard over exclusive neighborhoods for every candidate of the stage.

    Pairs whose exclusive neighborhoods are both empty are omitted; pairs with
    a non-empty union but empty intersection score 0.
    """
    degree = stage.degree
    # the union d_u + d_v - C is at least max(d_u, d_v), so it is empty only
    # when both neighborhoods are
    held = degree > 0
    keep = stage.candidate & (held[:, :, None] | held[:, None, :])
    index, u, v = np.nonzero(keep)
    # C, each pair's count of shared neighbors
    common = np.bincount(stage.cell, minlength=keep.size)[np.flatnonzero(keep)]
    return ScoredPairs(JACCARD, stage.subsets, index, u, v,
                       common / (degree[index, u] + degree[index, v] - common), stage.cell, stage.neighbor)


def modified_adamic_adar(stage: ExclusiveStage) -> ScoredPairs:
    """Adamic-Adar over exclusive neighborhoods for every candidate of the stage.

    Each shared exclusive neighbor contributes the inverse log of its degree
    in the union graph of the subset; pairs sharing no exclusive neighbor are
    omitted. The terms of a pair are added from 0.0 in ascending order of the
    shared neighbor w: one (subset, w, x, y) entry per pair x < y of w's
    exclusive neighbors, w ascending, summed by ``np.add.at`` over
    (subset, x, y), in O(sum of deg^2).
    """
    shape = stage.candidate.shape
    # each (subset, w)'s term, one per degree; math.log, not np.log, whose
    # last bit may differ
    top = int(stage.union_degree.max(initial=1))
    term = np.array([0.0, 0.0] + [1.0 / math.log(d) for d in range(2, top + 1)])[stage.union_degree]
    scores = np.zeros(shape)
    # an entry's hub is w in its cell's subset
    np.add.at(scores.reshape(-1), stage.cell, term[stage.cell // shape[-1] ** 2, stage.neighbor])
    # a candidate's shared neighbor is joined to both endpoints, so its degree
    # is at least 2: a positive score is the same as sharing a neighbor
    index, u, v = np.nonzero(stage.candidate & (scores > 0))
    return ScoredPairs(ADAMIC_ADAR, stage.subsets, index, u, v, scores[index, u, v],
                       stage.cell, stage.neighbor)


def normalize_scores(group: ScoredPairs) -> ScoredPairs:
    """Scale each subset's raw scores to [0, 1] relative to that subset's
    maximum; a subset whose scores are all zero is dropped with a warning."""
    # rows come subset by subset, so each subset's rows are one segment
    rows = np.bincount(group.subset_index, minlength=len(group.subsets))
    held = rows > 0
    top = np.zeros(len(group.subsets))
    top[held] = np.maximum.reduceat(group.raw_score, (np.cumsum(rows) - rows)[held])
    dropped = np.flatnonzero(held & (top == 0.0))
    for s in dropped.tolist():
        key = (group.algorithm, group.subsets[s])
        warnings.warn(f"all scores are zero for {key}; group dropped", stacklevel=2)
    if dropped.size:
        group = group.where(top[group.subset_index] > 0.0)
    return replace(group, normalized_score=group.raw_score / top[group.subset_index])


def threshold_filter(group: ScoredPairs, threshold: float = 0.5) -> ScoredPairs:
    """Keep pairs whose normalized score strictly exceeds the threshold.

    The threshold lies in [0, 1): a kept pair then has a positive score, so
    it shares an exclusive neighbor, whose flows assign_weights averages.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
    if group.normalized_score is None:
        raise ValueError("threshold_filter requires normalized scores")
    return group.where(group.normalized_score > threshold)


def assign_weights(group: ScoredPairs, net: MultiplexNetwork) -> LinkTable:
    """Turn thresholded pairs into a table of weighted links, row for row.

    The weight is the normalized score times the mean flow on edges joining
    either endpoint to their shared exclusive neighbors, over the layers of
    the row's subset. A row's shared neighbors are its run of the group's
    ``cell`` entries, found by binary search. Every pair kept by
    threshold_filter shares such a neighbor; a pair that shares none raises
    ValueError. A pair's positive flows are taken in the order shared
    neighbor w, layer, endpoint (u, v), direction (into the endpoint, then
    out of it), and summed as ``np.mean`` sums them: fewer than 8 by one
    running sum per row, more by ``np.add.reduce`` along rows of one length.
    Each mean is thus bit-identical to ``np.mean`` of that context; rows carry
    no provenance.
    """
    if group.normalized_score is None:
        raise ValueError("assign_weights requires normalized scores")
    layers = np.array(group.subsets, dtype=np.intp).reshape(len(group.subsets), -1)
    index, u, v, n = group.subset_index, group.u, group.v, net.n_nodes
    cell = (index * n + u) * n + v
    start = np.searchsorted(group.cell, cell)
    count = np.searchsorted(group.cell, cell, side="right") - start
    # each row's run of entries: rows ascending, then w ascending
    pair = np.repeat(np.arange(len(group)), count)
    entry = np.arange(pair.size) + np.repeat(start - (np.cumsum(count) - count), count)
    ends, hub = np.stack([u, v], axis=1)[pair, None, :], group.neighbor[entry, None, None]
    own = layers[index[pair], :, None]
    # cells[p, k, a, d]: flow a -> w in the subset's k-th layer (d = 0)
    # and, when directed, w -> a (d = 1), for each endpoint a of the pair
    into = net.intra[own, ends, hub]
    cells = np.stack([into, net.intra[own, hub, ends]] if net.directed else [into], axis=-1)
    flat = np.flatnonzero(cells > 0)
    context = cells.reshape(-1)[flat]  # every pair's flows, pairs in order
    row = pair[flat // math.prod(cells.shape[1:])]
    size = np.bincount(row, minlength=len(u))
    if np.any(size == 0):
        first = int(np.flatnonzero(size == 0)[0])
        subset = group.subsets[index[first]]
        raise ValueError(f"pair ({u[first]}, {v[first]}) shares no exclusive neighbor "
                         f"in layers {subset}")
    offset = np.cumsum(size) - size
    # np.mean adds fewer than 8 values one by one from the left: a running sum
    # along a row of 7 that holds a pair's flows, then +0.0, which changes none
    column = np.arange(flat.size) - offset[row]
    short = column < 7
    padded = np.zeros((len(u), 7))
    padded[row[short], column[short]] = context[short]
    total = np.cumsum(padded, axis=1)[:, -1]
    for length in np.unique(size[size >= 8]).tolist():
        rows = np.flatnonzero(size == length)
        total[rows] = np.add.reduce(context[offset[rows, None] + np.arange(length)], axis=1)
    mean = total / size
    subsets, (code,) = _subset_codes(group.subsets)
    return LinkTable(u, v, group.raw_score, group.normalized_score, group.normalized_score * mean,
                     np.full(len(u), ALGORITHMS.index(group.algorithm), dtype=np.intp),
                     code[index], subsets, np.zeros((len(u), len(ALGORITHMS), len(subsets)), dtype=bool))


def dedupe_links(tables: Iterable[LinkTable]) -> LinkTable:
    """Collapse the tables' rows to one link per unordered node pair, in pair order.

    One stable ``np.lexsort`` orders rows by pair, weight down and (algorithm,
    subset) up; each pair's first row wins, so an exact tie goes to the first
    input. The winner keeps its orientation and records every contributing
    tag: a row's own, or the provenance it carries from an earlier dedupe.
    """
    tables = list(tables) or [LinkTable.from_links([])]
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

    Subsets go through in passes, each built once by exclusive_stage and read
    by both scorers, of as many subsets as fit CHUNK_BYTES at 32 bytes per
    subset cell: modified_jaccard's peak, a mask and a count per (N, N) cell
    and three indices and a count per candidate row, at most half the cells. The
    shared-pair list, O(sum of deg^2), is not counted. A stage is one pass, so
    one trip per algorithm, unless the network is large; no link depends on
    the split.
    """
    subsets = enumerate_layer_subsets(net.n_layers, k)
    step = max(1, CHUNK_BYTES // max(1, 32 * net.n_nodes**2))
    tables = []
    for start in range(0, len(subsets), step):
        stage = exclusive_stage(net, subsets[start:start + step])
        for scorer in (modified_jaccard, modified_adamic_adar):
            # one expression, so no group outlives its trip
            tables.append(assign_weights(threshold_filter(normalize_scores(scorer(stage)), threshold), net))
        del stage  # before the next pass builds its own
    return dedupe_links(tables)


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
