"""The benchmark tracer wraps layer functions by name; a rename must fail here."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

from multinav import cli  # noqa: E402


def test_tracer_installs_and_uninstalls_on_every_layer():
    trace = tracer.Tracer()
    try:
        tracer.install(trace)
        wrapped = list(trace.wrapped)
        assert cli.dedupe_links([]) == []
        assert [span["name"] for span in trace.spans] == ["prediction.dedupe"]
    finally:
        trace.uninstall()
    assert wrapped and trace.wrapped == []
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original
