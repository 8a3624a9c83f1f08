"""Shared helpers: random network generators, connectivity checks, and
plain-loop oracles for scoring, supra assembly and walker sampling, used to
cross-check the array implementations."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from multinav import FlowEdge, build_multiplex, build_supra_transition
from multinav.prediction import JACCARD
from multinav.walks import DEFAULT_DAMPING


def random_multiplex(rng, n_nodes, n_layers, directed=False, p=0.45, coupling=1.0):
    """Erdos-Renyi-style layers with uniform random flows in [0.5, 2)."""
    edges = []
    for k in range(n_layers):
        for i in range(n_nodes):
            for j in range(n_nodes):
                if i == j or (not directed and j < i):
                    continue
                if rng.random() < p:
                    edges.append(FlowEdge(i, j, k, float(rng.uniform(0.5, 2.0))))
    return build_multiplex(
        edges, n_layers=n_layers, directed=directed, coupling=coupling, n_nodes=n_nodes
    )


def random_single_layer(rng, n_nodes, directed=False, p=0.4):
    return random_multiplex(rng, n_nodes, 1, directed=directed, p=p, coupling=0.0)


def is_strongly_connected(net, strategy="rwc"):
    """True when every supra-state reaches every other through positive entries."""
    matrix = build_supra_transition(net, strategy).matrix
    if matrix.shape[0] == 0:
        return False
    n_comp, _ = csgraph.connected_components(
        csr_matrix(matrix > 0), directed=True, connection="strong"
    )
    return int(n_comp) == 1


def connected_random_multiplex(rng, max_nodes=12, max_layers=3, directed=None, p=0.45):
    """Rejection-sample a strongly connected random multiplex."""
    while True:
        n = int(rng.integers(6, max_nodes + 1))
        l = int(rng.integers(1, max_layers + 1))
        want_directed = bool(rng.integers(0, 2)) if directed is None else directed
        net = random_multiplex(rng, n, l, directed=want_directed, p=p)
        if is_strongly_connected(net):
            return net


def triangle_network(coupling=0.0):
    edges = [FlowEdge(0, 1, 0, 1.0), FlowEdge(1, 2, 0, 1.0), FlowEdge(0, 2, 0, 1.0)]
    return build_multiplex(edges, coupling=coupling)


def complete_graph(n):
    edges = [FlowEdge(i, j, 0, 1.0) for i in range(n) for j in range(i + 1, n)]
    return build_multiplex(edges, coupling=0.0)


def cycle_graph(n):
    edges = [FlowEdge(i, (i + 1) % n, 0, 1.0) for i in range(n)]
    return build_multiplex(edges, coupling=0.0)


def directed_trap_network():
    """0 <-> 1 feeding the absorbing pair 2 <-> 3; walkers never return."""
    edges = [
        FlowEdge(0, 1, 0, 1.0),
        FlowEdge(1, 0, 0, 1.0),
        FlowEdge(1, 2, 0, 1.0),
        FlowEdge(2, 3, 0, 1.0),
        FlowEdge(3, 2, 0, 1.0),
    ]
    return build_multiplex(edges, directed=True, coupling=0.0)


def group_scores(group):
    """A scored group's rows as {(u, v): raw_score}."""
    return dict(zip(zip(group.u.tolist(), group.v.tolist()), group.raw_score.tolist()))


# --- an independent scoring oracle built from plain dicts of edge layers -----

def oracle_pair_layers(net):
    """Map each unordered node pair to the set of layers holding that edge."""
    layers = {}
    for k in range(net.n_layers):
        adj = net.intra[k] > 0
        if net.directed:
            adj = adj | adj.T
        for u in range(net.n_nodes):
            for v in range(u + 1, net.n_nodes):
                if adj[u, v]:
                    layers.setdefault((u, v), set()).add(k)
    return layers


def oracle_exclusive(pair_layers, n, v, subset):
    chosen = set(subset)
    result = set()
    for u in range(n):
        if u == v:
            continue
        layers = pair_layers.get((min(u, v), max(u, v)), set())
        if layers & chosen and layers <= chosen:
            result.add(u)
    return result


def oracle_union_adjacent(pair_layers, n, v, subset):
    chosen = set(subset)
    return {
        u
        for u in range(n)
        if u != v and pair_layers.get((min(u, v), max(u, v)), set()) & chosen
    }


def oracle_scores(net, subset, algorithm):
    pair_layers = oracle_pair_layers(net)
    n = net.n_nodes
    expected = {}
    for u in range(n):
        for v in range(u + 1, n):
            if pair_layers.get((u, v), set()) & set(subset):
                continue  # existing edge of the subset's union graph
            nu = oracle_exclusive(pair_layers, n, u, subset)
            nv = oracle_exclusive(pair_layers, n, v, subset)
            nu.discard(v)
            nv.discard(u)
            if algorithm == JACCARD:
                union = nu | nv
                if union:
                    expected[(u, v)] = len(nu & nv) / len(union)
            else:
                shared = nu & nv
                if shared:
                    score = 0.0
                    for w in sorted(shared):
                        deg = len(oracle_union_adjacent(pair_layers, n, w, subset))
                        if deg > 1:
                            score += 1.0 / math.log(deg)
                    expected[(u, v)] = score
    return expected


def oracle_flow_mean(net, subset, u, v):
    """Mean positive flow between u or v and their shared exclusive neighbors,
    in the order w ascending, layer of the subset, endpoint, then w -> endpoint
    when directed; None when they share none."""
    pair_layers = oracle_pair_layers(net)
    n = net.n_nodes
    shared = oracle_exclusive(pair_layers, n, u, subset) & oracle_exclusive(pair_layers, n, v, subset)
    flows = []
    for w in sorted(shared - {u, v}):
        for k in subset:
            for a in (u, v):
                if net.intra[k, a, w] > 0:
                    flows.append(float(net.intra[k, a, w]))
                if net.directed and net.intra[k, w, a] > 0:
                    flows.append(float(net.intra[k, w, a]))
    return float(np.mean(flows)) if flows else None


def oracle_dedupe(links):
    """dedupe_links over PredictedLink objects, one dict group per unordered
    pair: the first of the maximum weight and smallest (algorithm, subset)
    wins, keeping its orientation, with every tag its group carries (a link's
    ``sources``, or its own tag when it has none), pairs in order."""
    groups = {}
    for link in links:
        groups.setdefault((min(link.u, link.v), max(link.u, link.v)), []).append(link)
    out = []
    for key in sorted(groups):
        candidates = groups[key]
        winner = min(candidates, key=lambda l: (-l.weight, l.algorithm, l.subset))
        tags = sorted({tag for l in candidates
                       for tag in l.sources or [(l.algorithm, l.subset, l.stage)]})
        out.append(replace(winner, sources=tuple(tags)))
    return out


# --- plain-loop sampler oracles: one walker and one draw at a time ------------

def oracle_walk(supra, origin, horizon, seed):
    """States of one walk: each step searches the state's cumulative row for
    one scalar draw of the (seed, origin) generator, ties to the right."""
    cumulative = np.cumsum(supra.matrix, axis=1)
    rng = np.random.default_rng((seed, origin))
    steps = [origin]
    for _ in range(horizon):
        u = rng.random()
        steps.append(min(int(np.searchsorted(cumulative[steps[-1]], u, side="right")), supra.dim - 1))
    return steps


def oracle_montecarlo(supra, walkers_per_origin, horizon, seed):
    """Mean share of physical nodes seen per step, walking every walker in a
    Python loop; origin j's walkers take their draws, in walker order, from
    one (seed, j) generator per step."""
    n = supra.n_nodes
    cumulative = np.cumsum(supra.matrix, axis=1)
    generators = [np.random.default_rng((seed, origin)) for origin in range(n)]
    states = [origin for origin in range(n) for _ in range(walkers_per_origin)]
    seen = [{state} for state in states]
    rho = [sum(map(len, seen)) / len(seen) / n]
    for _ in range(horizon):
        draws = [u for g in generators for u in g.random(walkers_per_origin)]
        for walker, u in enumerate(draws):
            row = cumulative[states[walker]]
            states[walker] = min(int(np.searchsorted(row, u, side="right")), supra.dim - 1)
            seen[walker].add(states[walker] % n)
        rho.append(sum(map(len, seen)) / len(seen) / n)
    return np.array(rho)


# --- plain-loop supra oracle: one state (i, a) -> row i + a*N at a time -------

def oracle_supra(net, strategy):
    """Transition matrix filled state by state from the layers and the coupling.

    A state's strength is its layer row sum plus the coupling to each of the
    L - 1 other layers. rwc divides its moves and switches by it and holds a
    zero-strength state still; rwd divides by the largest strength (1 on an
    edgeless network) and keeps the remainder in place; pagerank damps rwc
    with uniform teleportation.
    """
    n, l = net.n_nodes, net.n_layers
    dim = n * l
    inter = net.coupling * (l - 1)
    intra = {(i, a): net.intra[a, i].sum() for i in range(n) for a in range(l)}
    s_max = max((s + inter for s in intra.values()), default=0.0) or 1.0
    P = np.zeros((dim, dim))
    for (i, a), s in intra.items():
        row = i + a * n
        if strategy == "rwd":
            denom = s_max
        elif s + inter > 0:
            denom = s + inter
        else:
            P[row, row] = 1.0
            continue
        for j in range(n):
            P[row, j + a * n] = net.intra[a, i, j] / denom
        for b in range(l):
            if b != a:
                P[row, i + b * n] = net.coupling / denom
        if strategy == "rwd":
            P[row, row] += max((s_max - s - inter) / s_max, 0.0)
    if strategy == "pagerank":
        for row in range(dim):
            for col in range(dim):
                P[row, col] = DEFAULT_DAMPING * P[row, col] + (1.0 - DEFAULT_DAMPING) / dim
    return P
