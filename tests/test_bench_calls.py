"""Each benchmark workload's program call passes its seed-0 reference checks.

The benchmark pins link files by sha256, gaps and t90s to 1e-9 relative
and curves to 1e-12; running its calls here makes a drift in those outputs,
or in an API the benchmark scripts read, fail the test suite too. Seed 1
has no reference: there the Monte Carlo call meets the exact-coverage
checks and the pipeline call the structural ones, so a kernel that merely
reproduces seed 0 fails.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from multinav import build_supra_transition, multiplex
from multinav.walks import PAGERANK, RWC, RWD

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def _check_call(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]
    csv_path = tmp_path / "input.csv"
    workloads.make_input(workload, seed, csv_path)
    out = tmp_path / "out"
    program = importlib.import_module(workload.module)
    assert program.main(workload.args(str(csv_path), str(out), seed)) == 0
    oracle = workloads.monte_carlo_oracle(workload, csv_path) if workload.module == "mc_script" else None
    return workloads.check(workload, out, seed, oracle)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_call_matches_its_reference(name, tmp_path):
    assert _check_call(name, workloads.DEFAULT_SEED, tmp_path) == []


def test_monte_carlo_call_meets_the_exact_coverage_at_seed_1(tmp_path):
    assert _check_call("montecarlo-directed", 1, tmp_path) == []


def test_pipeline_call_meets_the_structural_checks_at_seed_1(tmp_path):
    assert _check_call("pipeline-rwc", 1, tmp_path) == []


def test_monte_carlo_input_keeps_its_sampler_tables(tmp_path):
    """The sampler tables of the montecarlo-directed input at seed 0: a table
    rule that leaves every walk as it is but changes a search's cost (its
    bins, its span's rounds or its guide's bytes) fails here."""
    workload = workloads.WORKLOADS["montecarlo-directed"]
    csv_path = tmp_path / "input.csv"
    workloads.make_input(workload, workloads.DEFAULT_SEED, csv_path)
    edges = multiplex.parse_edge_list(str(csv_path))
    kept = multiplex.trim_edges(edges.edges, ratio=float(workloads.TRIM))
    net = multiplex.build_multiplex(kept, n_layers=edges.n_layers, directed=workload.directed, labels=edges.labels)
    tables = {tag: build_supra_transition(net, tag).cumulative for tag in (PAGERANK, RWC, RWD)}
    assert {tag: (t.bins, t.span, t.guide.dtype) for tag, t in tables.items()} == {
        PAGERANK: (2048, 1, np.uint8),
        RWC: (256, 79, np.uint8),
        RWD: (256, 41, np.uint8),
    }
