"""Primary acceptance battery; every check prints one [PASS]/[FAIL] line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines as they print;
without ``-s`` pytest shows them only for failing tests. The dataset-scale
checks need an external edge CSV and are skipped unless the environment
variable named in ``BELGIUM_ENV`` points at it.
"""

from __future__ import annotations

import json
import math
import os
import time
from importlib.resources import files as package_files

import numpy as np
import pytest
from conftest import (
    complete_graph,
    connected_random_multiplex,
    cycle_graph,
    directed_trap_network,
    pair_scores,
    oracle_exclusive,
    oracle_pair_layers,
    oracle_scores,
    random_multiplex,
    random_single_layer,
    row_stochastic_check,
    triangle_network,
)

from multinav import (
    adamic_adar_classic,
    build_multiplex,
    build_supra_transition,
    coverage_montecarlo,
    dedupe_links,
    enumerate_layer_subsets,
    exclusive_neighbors,
    exclusive_stage,
    integrate_links,
    jaccard_classic,
    modified_adamic_adar,
    modified_jaccard,
    navigability_report,
    parse_edge_list,
    poisson_clock,
    run_stage,
    spectral_gap,
    supra_laplacian,
    trim_edges,
)
from multinav.cli import main
from multinav.multiplex import PLACEMENT_SUBSET, TRIM_PER_LAYER
from multinav.navigability import analytic_state
from multinav.prediction import ADAMIC_ADAR, ALGORITHMS, JACCARD
from multinav.walks import PAGERANK, RWC, RWD

BELGIUM_ENV = "MULTINAV_BELGIUM_DATA"

TOY = str(package_files("multinav").joinpath("data/toy_multiplex.csv"))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_single_subset_scores_reduce_to_classic():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    compared = 0
    for _ in range(50):
        net = random_single_layer(rng, int(rng.integers(3, 13)))
        present = (net.intra[0] > 0) | (net.intra[0] > 0).T
        stage = exclusive_stage(net, [(0,)])
        modified = {
            JACCARD: pair_scores(stage, modified_jaccard(stage)),
            ADAMIC_ADAR: pair_scores(stage, modified_adamic_adar(stage)),
        }
        for u in range(net.n_nodes):
            for v in range(u + 1, net.n_nodes):
                if present[u, v]:
                    continue
                for tag, classic in (
                    (JACCARD, jaccard_classic),
                    (ADAMIC_ADAR, adamic_adar_classic),
                ):
                    gap = abs(modified[tag].get((u, v), 0.0) - classic(net, 0, u, v))
                    worst = max(worst, gap)
                    compared += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        "single-subset reduction to classic scores",
        ok,
        f"{compared} non-edge scores on 50 graphs, worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_subset_scores_match_exhaustive_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    mismatched_sets = 0
    compared = 0
    for index in range(20):
        n = int(rng.integers(3, 9))
        n_layers = int(rng.integers(1, 4))
        net = random_multiplex(rng, n, n_layers, directed=bool(index % 2))
        pair_layers = oracle_pair_layers(net)
        for k in range(1, min(3, n_layers) + 1):
            for subset in enumerate_layer_subsets(n_layers, k):
                for v in range(n):
                    got = exclusive_neighbors(net, v, subset)
                    if got != oracle_exclusive(pair_layers, n, v, subset):
                        mismatched_sets += 1
                for tag, score_fn in (
                    (JACCARD, modified_jaccard),
                    (ADAMIC_ADAR, modified_adamic_adar),
                ):
                    stage = exclusive_stage(net, [subset])
                    got = pair_scores(stage, score_fn(stage))
                    want = oracle_scores(net, subset, tag)
                    if set(got) != set(want):
                        mismatched_sets += 1
                        continue
                    compared += len(got)
                    if got:
                        worst = max(
                            worst, max(abs(got[pair] - want[pair]) for pair in got)
                        )
    elapsed = time.perf_counter() - start
    ok = mismatched_sets == 0 and worst <= 1e-12 and elapsed < 10.0
    _report(
        "subset scores vs exhaustive oracle",
        ok,
        f"{compared} scores on 20 multiplexes, {mismatched_sets} set mismatches, "
        f"worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_transition_matrices_are_row_stochastic():
    rng = np.random.default_rng(303)
    strategies = (RWC, RWD, PAGERANK)
    worst_dev = 0.0
    entry_violations = 0
    cross_violations = 0
    for index in range(100):
        n = int(rng.integers(2, 10))
        n_layers = int(rng.integers(1, 4))
        net = random_multiplex(rng, n, n_layers, directed=bool(index % 2))
        strategy = strategies[index % 3]
        supra = build_supra_transition(net, strategy)
        _, deviation = row_stochastic_check(supra)
        worst_dev = max(worst_dev, deviation)
        matrix = supra.matrix
        if np.any(matrix < 0.0) or np.any(matrix > 1.0 + 1e-12):
            entry_violations += 1
        if strategy in (RWC, RWD):
            states = np.arange(supra.dim)
            same_node = (states[:, None] % n) == (states[None, :] % n)
            same_layer = (states[:, None] // n) == (states[None, :] // n)
            if np.any(matrix[~same_node & ~same_layer] != 0.0):
                cross_violations += 1
    ok = worst_dev <= 1e-12 and entry_violations == 0 and cross_violations == 0
    _report(
        "row stochasticity over 100 configurations",
        ok,
        f"worst row-sum deviation {worst_dev:.2e}, {entry_violations} entry and "
        f"{cross_violations} cross-block violations",
    )


def test_spectral_reference_points():
    gap_k4 = spectral_gap(build_supra_transition(complete_graph(4), RWC))
    gap_c8 = spectral_gap(build_supra_transition(cycle_graph(8), RWC))
    laplacian = supra_laplacian(build_supra_transition(triangle_network(), RWC))
    eigs = np.sort(np.linalg.eigvalsh(laplacian))
    err_k4 = abs(gap_k4 - 4.0 / 3.0)
    err_c8 = abs(gap_c8 - (1.0 - np.cos(np.pi / 4.0)))
    err_tri = float(np.max(np.abs(eigs - np.array([0.0, 1.5, 1.5]))))
    ok = err_k4 <= 1e-9 and err_c8 <= 1e-9 and err_tri <= 1e-9
    _report(
        "spectral reference points",
        ok,
        f"K4 gap err {err_k4:.2e}, C8 gap err {err_c8:.2e}, "
        f"triangle spectrum err {err_tri:.2e}",
    )


def test_coverage_axioms():
    rng = np.random.default_rng(404)
    worst_start = 0.0
    worst_drop = 0.0
    lowest_final = 1.0
    for _ in range(5):
        net = connected_random_multiplex(rng)
        curve = analytic_state(net, RWC).curve()
        worst_start = max(worst_start, abs(curve.rho[0] - 1.0 / net.n_nodes))
        if curve.rho.size > 1:
            worst_drop = max(worst_drop, float(np.max(-np.diff(curve.rho))))
        lowest_final = min(lowest_final, float(curve.rho[-1]))
    trap = analytic_state(directed_trap_network(), RWC).curve()
    plateau = float(trap.rho[-1])
    ok = (
        worst_start <= 1e-9
        and worst_drop <= 1e-9
        and lowest_final >= 1.0 - 1e-6
        and plateau < 1.0 - 1e-3
    )
    _report(
        "coverage axioms",
        ok,
        f"start err {worst_start:.2e}, worst drop {worst_drop:.2e}, "
        f"lowest final {lowest_final:.6f}, trap plateau {plateau:.4f}",
    )


def test_analytic_curve_matches_montecarlo():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    grid = np.arange(0.0, 61.0)
    worst = 0.0
    for _ in range(10):
        net = connected_random_multiplex(rng)
        supra = build_supra_transition(net, RWC)
        walkers = coverage_montecarlo(
            supra, walkers_per_origin=10_000, horizon=110, seed=7
        )
        continuous = poisson_clock(walkers, grid)
        exact = analytic_state(net, RWC).curve(grid)
        worst = max(worst, float(np.max(np.abs(exact.rho - continuous.rho))))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and elapsed < 60.0
    _report(
        "analytic vs Monte Carlo coverage",
        ok,
        f"sup-norm distance {worst:.4f} over 10 networks, {elapsed:.1f}s",
    )


def test_pipeline_runs_are_deterministic(tmp_path):
    manifests = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["pipeline", "--input", TOY, "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text(encoding="utf-8")))
    same_hash = manifests[0]["run_hash"] == manifests[1]["run_hash"]
    same_artifacts = manifests[0]["artifacts"] == manifests[1]["artifacts"]
    ok = same_hash and same_artifacts
    _report(
        "pipeline determinism",
        ok,
        f"run hash {manifests[0]['run_hash'][:16]}... reproduced={same_hash}",
    )


def _reference_dataset_numbers(csv_path):
    """The reference dataset check's numbers for an edge CSV: each stage's
    undirected (Adamic-Adar, Jaccard) link counts, the undirected count of
    unique links over the stages, and the rwc report of every (directed,
    variant) pair, the network before integration and after each stage's."""
    edges = parse_edge_list(csv_path)
    trimmed = trim_edges(edges.edges, ratio=0.9, scope=TRIM_PER_LAYER)
    counts, unique, reports = {}, None, {}
    for directed in (False, True):
        net = build_multiplex(
            trimmed,
            n_layers=edges.n_layers,
            directed=directed,
            coupling=1.0,
            labels=edges.labels,
        )
        merged = []
        variants = [("original", net)]
        for k in (1, 2, 3):
            union = run_stage(net, k, 0.5)
            merged.append(union)
            variants.append(
                (f"stage{k}", integrate_links(net, union, placement=PLACEMENT_SUBSET))
            )
            if not directed:
                # an algorithm's links are the union rows its provenance marks
                counts[k] = tuple(int(union.sources[:, ALGORITHMS.index(alg)].any(axis=1).sum())
                                  for alg in (ADAMIC_ADAR, JACCARD))
        if not directed:
            unique = len(dedupe_links(merged))
        for label, variant in variants:
            reports[directed, label] = navigability_report(variant, RWC, stage_label=label)
    return counts, unique, reports


@pytest.mark.skipif(
    BELGIUM_ENV not in os.environ,
    reason=f"reference dataset not bundled; set {BELGIUM_ENV} to its edge CSV",
)
def test_reference_dataset_numbers():
    counts, unique, reports = _reference_dataset_numbers(os.environ[BELGIUM_ENV])

    expected_counts = {1: (14, 7), 2: (108, 76), 3: (387, 240)}
    reference = {
        (False, "original"): (8.58e-5, 26823.0),
        (False, "stage1"): (5.13e-5, 44871.0),
        (False, "stage2"): (1.17e-4, 1959.0),
        (False, "stage3"): (7.11e-4, 3234.0),
        (True, "original"): (0.00303, 760.85),
        (True, "stage1"): (0.00297, 775.31),
        (True, "stage2"): (0.00307, 749.0),
        (True, "stage3"): (0.00267, 862.0),
    }

    count_lines = [f"stage {k}: {aa}/{j}" for k, (aa, j) in counts.items()] + [f"unique {unique}"]
    counts_ok = counts == expected_counts and unique == 70
    nav_ok = True
    details = []
    for (directed, label), report in reports.items():
        gap_ref, t90_ref = reference[(directed, label)]
        gap_close = math.isclose(report.spectral_gap, gap_ref, rel_tol=0.10)
        t90_close = report.t90 is not None and math.isclose(
            report.t90, t90_ref, rel_tol=0.10
        )
        nav_ok &= gap_close and t90_close
        shown = "n/a" if report.t90 is None else f"{report.t90:.5g}"
        details.append(
            f"{'dir' if directed else 'und'} {label}: "
            f"gap {report.spectral_gap:.3g} (ref {gap_ref:.3g}), "
            f"t90 {shown} (ref {t90_ref:g})"
        )
    ok = counts_ok and nav_ok
    _report(
        "reference dataset numbers",
        ok,
        "; ".join(count_lines + details),
    )


def test_reference_dataset_check_runs_on_the_toy_csv():
    """The reference dataset check's code, run on the toy CSV, so that it is
    exercised in every run, not only where the dataset is at hand."""
    counts, unique, reports = _reference_dataset_numbers(TOY)
    assert counts == {1: (13, 14), 2: (22, 12), 3: (8, 11)} and unique == 29
    assert list(reports) == [(directed, label) for directed in (False, True)
                             for label in ("original", "stage1", "stage2", "stage3")]
    _report("reference dataset check on the toy CSV", True,
            f"counts {counts}, unique {unique}, {len(reports)} reports")
