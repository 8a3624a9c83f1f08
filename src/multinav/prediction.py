"""Link prediction over layer subsets via exclusive neighborhoods.

A neighbor u of v is *exclusive* to a layer subset D when every (u, v) edge
of the multiplex lies inside D. The classic Jaccard and Adamic-Adar scores
are evaluated on these exclusive neighborhoods for every candidate pair that
has no edge in any layer of D. Each (algorithm, subset) is one ``ScoredPairs``
group of score columns, normalized and thresholded as arrays; only the pairs
that survive become weighted ``PredictedLink`` objects, using nearby flow
values. A deduplicated link's ``sources`` lists every contributing
(algorithm, subset, stage).

Each subset is scored on one boolean exclusive adjacency ``E = inside & ~outside``,
which the group keeps for assign_weights: Jaccard is ``C / (d_u + d_v - C)`` with
``C = E @ E.T``, and Adamic-Adar adds each shared neighbor's ``1 / ln(union degree)``
in ascending order from 0.0, so every score is bit-identical to a per-pair loop
over neighbor sets.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .multiplex import MultiplexNetwork, enumerate_layer_subsets

JACCARD = "jaccard"
ADAMIC_ADAR = "adamic_adar"

MODIFIED_ALGORITHMS = (JACCARD, ADAMIC_ADAR)

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


@dataclass(frozen=True)
class ExclusiveNeighborhood:
    """Nodes adjacent to ``node`` only within the layer subset."""

    node: int
    subset: tuple[int, ...]
    members: frozenset[int]


@dataclass(frozen=True)
class ScoredPair:
    """A candidate non-edge with its similarity score (u < v canonical)."""

    u: int
    v: int
    raw_score: float
    algorithm: str
    subset: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ScoredPairs:
    """Every scored candidate of one (algorithm, subset), as columns.

    Rows are pairs u < v in row-major order; ``exclusive`` is the exclusive
    adjacency the scores came from, and ``normalized_score`` is None until
    normalize_scores fills it. Iterating yields one ScoredPair per row.
    """

    algorithm: str
    subset: tuple[int, ...]
    u: np.ndarray
    v: np.ndarray
    raw_score: np.ndarray
    exclusive: np.ndarray
    normalized_score: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.u)

    def __iter__(self) -> Iterator[ScoredPair]:
        for a, b, score in zip(self.u.tolist(), self.v.tolist(), self.raw_score.tolist()):
            yield ScoredPair(a, b, score, self.algorithm, self.subset)

    def where(self, mask: np.ndarray) -> ScoredPairs:
        """The rows where ``mask`` holds."""
        normalized = None if self.normalized_score is None else self.normalized_score[mask]
        return replace(self, u=self.u[mask], v=self.v[mask], raw_score=self.raw_score[mask],
                       normalized_score=normalized)


@dataclass(frozen=True)
class PredictedLink:
    """A thresholded, flow-weighted predicted link.

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


def _unoriented_adjacency(net: MultiplexNetwork, layer: int) -> np.ndarray:
    adj = net.intra[layer] > 0
    if net.directed:
        adj = adj | adj.T
    return adj


def _exclusive_adjacency(net: MultiplexNetwork, subset: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(exclusive adjacency ``inside & ~outside``, adjacency within any layer of the subset)."""
    subset = tuple(subset)
    if not subset or not all(0 <= k < net.n_layers for k in subset):
        raise ValueError(f"layer subset {subset} out of range [0, {net.n_layers})")
    n = net.n_nodes
    inside = np.zeros((n, n), dtype=bool)
    outside = np.zeros((n, n), dtype=bool)
    for k in range(net.n_layers):
        mask = _unoriented_adjacency(net, k)
        if k in subset:
            inside |= mask
        else:
            outside |= mask
    return inside & ~outside, inside


def exclusive_neighbors(
    net: MultiplexNetwork,
    v: int,
    subset: Sequence[int],
) -> ExclusiveNeighborhood:
    """Neighbors of v linked to it solely within the given layer subset."""
    if not 0 <= v < net.n_nodes:
        raise ValueError(f"node {v} out of range [0, {net.n_nodes})")
    exclusive, _ = _exclusive_adjacency(net, subset)
    return ExclusiveNeighborhood(
        node=v,
        subset=tuple(subset),
        members=frozenset(int(u) for u in np.flatnonzero(exclusive[v]) if u != v),
    )


def jaccard_classic(net: MultiplexNetwork, layer: int, u: int, v: int) -> float:
    """Single-layer Jaccard coefficient: |intersection| / |union| of neighborhoods."""
    if u == v:
        raise ValueError("Jaccard requires two distinct nodes")
    adj = _unoriented_adjacency(net, layer)
    np.fill_diagonal(adj, False)  # a node is not its own neighbor
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
    adj = _unoriented_adjacency(net, layer)
    np.fill_diagonal(adj, False)
    degree = adj.sum(axis=1)
    score = 0.0
    for w in np.flatnonzero(adj[u] & adj[v]):
        if degree[w] > 1:
            score += 1.0 / math.log(degree[w])
    return score


def _scored_pairs(
    keep: np.ndarray, exclusive: np.ndarray, inside: np.ndarray, scores: np.ndarray,
    algorithm: str, subset: tuple[int, ...],
) -> ScoredPairs:
    """Pairs u < v with no edge inside the subset where ``keep`` holds, in row-major order."""
    u, v = np.nonzero(np.triu(keep & ~inside, 1))
    return ScoredPairs(algorithm, subset, u, v, scores[u, v], exclusive)


def modified_jaccard(net: MultiplexNetwork, subset: Sequence[int]) -> ScoredPairs:
    """Jaccard over exclusive neighborhoods for every non-edge pair of the subset.

    Pairs whose exclusive neighborhoods are both empty are omitted; pairs with
    a non-empty union but empty intersection score 0.
    """
    subset = tuple(subset)
    exclusive, inside = _exclusive_adjacency(net, subset)
    counts = exclusive.astype(float)
    common = counts @ counts.T  # integer counts, exact in float64
    degree = counts.sum(axis=1)
    union = degree[:, None] + degree[None, :] - common
    scores = np.divide(common, union, out=np.zeros_like(common), where=union > 0)
    return _scored_pairs(union > 0, exclusive, inside, scores, JACCARD, subset)


def modified_adamic_adar(net: MultiplexNetwork, subset: Sequence[int]) -> ScoredPairs:
    """Adamic-Adar over exclusive neighborhoods for non-edge pairs of the subset.

    Each shared exclusive neighbor contributes the inverse log of its degree in
    the union graph of the subset; pairs sharing no exclusive neighbor are
    omitted.
    """
    subset = tuple(subset)
    exclusive, inside = _exclusive_adjacency(net, subset)
    union_degree = inside.sum(axis=1)
    scores = np.zeros(exclusive.shape)
    # E is symmetric: row w holds the nodes sharing w. Terms add in ascending w.
    for w in range(net.n_nodes):
        deg = int(union_degree[w])
        if deg > 1:
            sharing = np.flatnonzero(exclusive[w])
            scores[np.ix_(sharing, sharing)] += 1.0 / math.log(deg)
    # a candidate's shared neighbor is joined to both endpoints, so its degree
    # is at least 2: a positive score is the same as sharing a neighbor
    return _scored_pairs(scores > 0, exclusive, inside, scores, ADAMIC_ADAR, subset)


def normalize_scores(group: ScoredPairs) -> ScoredPairs:
    """Scale raw scores to [0, 1] relative to the group's maximum; an
    all-zero group is dropped (returned empty) with a warning."""
    top = group.raw_score.max(initial=0.0)
    if top == 0.0 and len(group):
        key = (group.algorithm, group.subset)
        warnings.warn(f"all scores are zero for {key}; group dropped", stacklevel=2)
        group = group.where(np.zeros(len(group), dtype=bool))
    return replace(group, normalized_score=group.raw_score / top)  # empty when top is 0


def threshold_filter(group: ScoredPairs, threshold: float = 0.5) -> ScoredPairs:
    """Keep pairs whose normalized score strictly exceeds the threshold."""
    if group.normalized_score is None:
        raise ValueError("threshold_filter requires normalized scores")
    return group.where(group.normalized_score > threshold)


def _union_mean_weight(net: MultiplexNetwork, subset: Sequence[int]) -> float:
    flows = net.intra[list(subset)]
    if not net.directed:
        flows = np.triu(flows)  # each undirected edge once
    values = flows[flows > 0]  # layer by layer, row-major
    if not values.size:
        raise ValueError(f"no edges in layers {tuple(subset)}; cannot derive a fallback weight")
    return float(np.mean(values))


def assign_weights(group: ScoredPairs, net: MultiplexNetwork) -> list[PredictedLink]:
    """Turn thresholded pairs into weighted links.

    The weight is the normalized score times the mean flow on edges joining
    either endpoint to their shared exclusive neighbors, over the subset's
    layers. Pairs without such flow context fall back to the subset's mean
    edge weight.
    """
    if group.normalized_score is None:
        raise ValueError("assign_weights requires normalized scores")
    subset = group.subset
    flows = net.intra[list(subset)]
    # cells[w, k, a, d]: flow a -> w in layer subset[k] (d = 0) and, when
    # directed, w -> a (d = 1); flattening a pair's block keeps that order.
    views = [flows.transpose(2, 0, 1), flows.transpose(1, 0, 2)]
    cells = np.stack(views if net.directed else views[:1], axis=-1)
    # a candidate has no edge inside the subset, so neither endpoint is shared
    shared = group.exclusive[group.u] & group.exclusive[group.v]
    fallback: float | None = None
    links = []
    for row, u, v, raw, norm in zip(
        shared, group.u.tolist(), group.v.tolist(),
        group.raw_score.tolist(), group.normalized_score.tolist(),
    ):
        context = cells[row][:, :, [u, v]]
        context = context[context > 0]
        if not context.size and fallback is None:
            fallback = _union_mean_weight(net, subset)
        mean_flow = float(np.mean(context)) if context.size else fallback
        weight = norm * mean_flow
        links.append(PredictedLink(u, v, raw, norm, weight, group.algorithm, subset, len(subset)))
    return links


def dedupe_links(links: Iterable[PredictedLink]) -> list[PredictedLink]:
    """Collapse to one link per unordered node pair.

    The maximum-weight instance wins; weight ties go to the lexicographically
    smallest (algorithm, subset). The winner records every contributing
    (algorithm, subset, stage) tag: a link's own tag, or the ``sources`` it
    already carries from an earlier dedupe, so deduplicating again loses
    none. Ordered by node pair for determinism.
    """
    groups: dict[tuple[int, int], list[PredictedLink]] = {}
    for link in links:
        key = (min(link.u, link.v), max(link.u, link.v))
        groups.setdefault(key, []).append(link)
    out = []
    for key in sorted(groups):
        candidates = groups[key]
        winner = min(candidates, key=lambda l: (-l.weight, l.algorithm, l.subset))
        tags = sorted(
            {tag for l in candidates for tag in l.sources or [(l.algorithm, l.subset, l.stage)]}
        )
        out.append(replace(winner, sources=tuple(tags)))
    return out


def run_stage(
    net: MultiplexNetwork,
    k: int,
    algorithm: str,
    threshold: float = 0.5,
) -> list[PredictedLink]:
    """Score, normalize, threshold and weight every layer subset of size k,
    then deduplicate the stage's links across subsets."""
    if algorithm not in MODIFIED_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {MODIFIED_ALGORITHMS}")
    scorer = modified_jaccard if algorithm == JACCARD else modified_adamic_adar
    links: list[PredictedLink] = []
    for subset in enumerate_layer_subsets(net.n_layers, k):
        kept = threshold_filter(normalize_scores(scorer(net, subset)), threshold)
        links.extend(assign_weights(kept, net))
    return dedupe_links(links)


def format_subset(subset: Sequence[int]) -> str:
    return "+".join(str(k) for k in subset)


def parse_subset(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("+"))


def write_links_csv(path: str | Path, links: Iterable[PredictedLink], labels: Sequence[str]) -> None:
    """Export predicted links with labeled endpoints."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(LINK_CSV_COLUMNS)
        for l in links:
            writer.writerow(
                [
                    labels[l.u],
                    labels[l.v],
                    l.algorithm,
                    format_subset(l.subset),
                    l.stage,
                    repr(float(l.raw_score)),
                    repr(float(l.normalized_score)),
                    repr(float(l.weight)),
                ]
            )


def read_links_csv(path: str | Path, label_index: dict[str, int]) -> list[PredictedLink]:
    """Read a predicted-links CSV, mapping labels back to node indices."""
    links = []
    with open(path, encoding="utf-8", newline="") as stream:
        reader = csv.DictReader(stream)
        missing = set(LINK_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"links file missing columns {sorted(missing)}")
        for row in reader:
            try:
                u = label_index[row["u_label"]]
                v = label_index[row["v_label"]]
            except KeyError as exc:
                raise ValueError(f"unknown node label {exc.args[0]!r} in links file") from None
            links.append(
                PredictedLink(
                    u=u,
                    v=v,
                    raw_score=float(row["raw_score"]),
                    normalized_score=float(row["normalized_score"]),
                    weight=float(row["weight"]),
                    algorithm=row["algorithm"],
                    subset=parse_subset(row["subset"]),
                    stage=int(row["stage"]),
                )
            )
    return links
