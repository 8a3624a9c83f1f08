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

import pytest

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
