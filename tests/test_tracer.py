"""The benchmark tracer wraps layer functions by name; a rename must fail here."""

from __future__ import annotations

import sys
from collections import Counter
from importlib.resources import files as package_files
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import pytest  # noqa: E402
import tracer  # noqa: E402

from multinav import cli  # noqa: E402


def test_tracer_installs_and_uninstalls_on_every_layer():
    trace = tracer.Tracer()
    try:
        tracer.install(trace)
        wrapped = list(trace.wrapped)
        assert len(cli.dedupe_links([])) == 0
        assert [span["name"] for span in trace.spans] == ["prediction.dedupe"]
    finally:
        trace.uninstall()
    assert wrapped and trace.wrapped == []
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original


@pytest.fixture(scope="module")
def traced_pipeline(tmp_path_factory):
    """The tracer of one toy ``pipeline`` run."""
    toy = str(package_files("multinav").joinpath("data/toy_multiplex.csv"))
    trace = tracer.Tracer()
    try:
        tracer.install(trace)
        out = tmp_path_factory.mktemp("traced") / "out"
        assert cli.main(["pipeline", "--input", toy, "--out", str(out)]) == 0
    finally:
        trace.uninstall()
    return trace


def test_traced_pipeline_scores_each_stage_once_per_algorithm(traced_pipeline):
    trace = traced_pipeline
    calls = Counter(span["name"] for span in trace.spans)
    # three stages over three layers, each scored, normalized and
    # thresholded in one trip per algorithm, whatever its subset count, and
    # weighted once for both; one dedupe per stage plus the merge
    assert calls["prediction.stage"] == 3
    for step in ("score", "normalize", "threshold"):
        assert calls[f"prediction.{step}"] == 6, step
    assert calls["prediction.weights"] == 3
    assert calls["prediction.dedupe"] == 4
    # the pairs both scorers return and the rows that pass the threshold
    counts = trace.counts[tracer.WORKLOAD_RUN]
    assert counts["prediction.pairs_scored"] == 220
    assert counts["prediction.links_kept"] == 89


def test_traced_pipeline_counts_the_curve_from_the_survival_shape(traced_pipeline):
    """``_count_curve`` reads the time and origin axes of ``survival``'s result;
    a rename or reshape that breaks it must fail here, not in ``--trace 1``."""
    counts = traced_pipeline.counts[tracer.WORKLOAD_RUN]
    # four reports, each one curve on the 401-point default grid; the toy
    # network has 10 nodes on 3 layers, so a point costs 10 * 10 * 30 products
    assert counts["navigability.curve_calls"] == 4
    assert counts["navigability.curve_points"] == 1604
    assert counts["navigability.curve_cmacs"] == 4_812_000
