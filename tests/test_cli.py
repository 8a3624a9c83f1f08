"""End-to-end command-line runs: artifacts, manifests, stdout and exit codes."""

from __future__ import annotations

import argparse
import json
from importlib.resources import files as package_files

import numpy as np
import pytest

from multinav import (
    PredictedLink,
    build_multiplex,
    dedupe_links,
    parse_edge_list,
    run_stage,
    trim_edges,
)
from multinav.cli import build_parser, main
from multinav.multiplex import TRIM_PER_LAYER
from multinav.navigability import NOT_REACHED, read_curve_csv
from multinav.prediction import ADAMIC_ADAR, JACCARD, read_links_csv, write_links_csv

TOY = str(package_files("multinav").joinpath("data/toy_multiplex.csv"))

HEADER = "layer,source,target,flow\n"


def _write_csv(path, rows):
    path.write_text(HEADER + "".join(f"{r}\n" for r in rows), encoding="utf-8")
    return str(path)


def test_trim_writes_artifacts_and_counts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["trim", "--input", TOY, "--out", str(out)]) == 0
    assert "kept 24 / removed 5" in capsys.readouterr().out
    kept = parse_edge_list(str(out / "trimmed.csv"))
    assert len(kept.edges) == 24
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "trim"
    assert set(manifest["artifacts"]) == {"trimmed.csv"}
    assert set(manifest["inputs"]) == {TOY}
    assert len(manifest["run_hash"]) == 64
    assert manifest["config"]["trim_ratio"] == 0.9


def test_predict_stage_files_match_library(tmp_path):
    out = tmp_path / "out"
    assert main(
        ["predict", "--input", TOY, "--out", str(out),
         "--trim-ratio", "0.9", "--stages", "1", "2"]
    ) == 0
    edges = parse_edge_list(TOY)
    trimmed = trim_edges(edges.edges, ratio=0.9, scope=TRIM_PER_LAYER)
    net = build_multiplex(
        trimmed, n_layers=edges.n_layers, coupling=1.0, labels=edges.labels
    )
    index = net.label_index()
    merged_expected = []
    for k in (1, 2):
        expected = dedupe_links(
            run_stage(net, k, JACCARD, 0.5) + run_stage(net, k, ADAMIC_ADAR, 0.5)
        )
        merged_expected.extend(expected)
        got = read_links_csv(out / f"links_stage{k}.csv", index)
        # the CSV keeps everything except the dedupe provenance
        strip = lambda l: (l.u, l.v, l.algorithm, l.subset, l.stage,
                           l.raw_score, l.normalized_score, l.weight)
        assert [strip(l) for l in got] == [strip(l) for l in expected]
    merged = read_links_csv(out / "links_merged.csv", index)
    assert len(merged) == len(dedupe_links(merged_expected))
    assert not (out / "links_stage3.csv").exists()


def test_predict_skips_stages_wider_than_network(tmp_path, capsys):
    base = _write_csv(tmp_path / "two.csv",
                      ["0,a,b,1.0", "0,b,c,1.0", "1,a,c,1.0", "1,b,c,1.0"])
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="group dropped"):
        assert main(
            ["predict", "--input", base, "--out", str(out), "--stages", "1", "3"]
        ) == 0
    captured = capsys.readouterr()
    assert "stage 3 skipped" in captured.err
    assert not (out / "links_stage3.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"links_stage1.csv", "links_merged.csv"}
    # a header-only input has no layers, so the same rule skips every stage
    empty = _write_csv(tmp_path / "empty.csv", [])
    out = tmp_path / "empty_out"
    assert main(["predict", "--input", empty, "--out", str(out), "--stages", "1", "3"]) == 0
    err = capsys.readouterr().err
    assert "stage 1 skipped" in err and "stage 3 skipped" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"links_merged.csv"}
    assert (out / "links_merged.csv").read_text().count("\n") == 1  # header only


def test_integrate_applies_links_with_max_collision(tmp_path):
    base = _write_csv(tmp_path / "base.csv", ["0,A,B,1.0", "0,B,C,2.0"])
    links = [
        PredictedLink(u=0, v=2, raw_score=1.0, normalized_score=1.0,
                      weight=0.7, algorithm=JACCARD, subset=(0,), stage=1),
        PredictedLink(u=0, v=1, raw_score=1.0, normalized_score=1.0,
                      weight=5.0, algorithm=ADAMIC_ADAR, subset=(0,), stage=1),
    ]
    links_path = tmp_path / "links.csv"
    write_links_csv(links_path, links, ["A", "B", "C"])
    out = tmp_path / "out"
    assert main(
        ["integrate", "--input", base, "--links", str(links_path), "--out", str(out)]
    ) == 0
    result = parse_edge_list(str(out / "integrated.csv"))
    rows = {
        (result.labels[e.source], result.labels[e.target], e.layer): e.flow
        for e in result.edges
    }
    assert rows == {("A", "B", 0): 5.0, ("A", "C", 0): 0.7, ("B", "C", 0): 2.0}


def test_integrate_rejects_link_subset_outside_the_layers(tmp_path, capsys):
    base = _write_csv(tmp_path / "base.csv", ["0,A,B,1.0", "0,B,C,2.0"])
    link = PredictedLink(u=0, v=2, raw_score=1.0, normalized_score=1.0,
                         weight=0.7, algorithm=JACCARD, subset=(7,), stage=1)
    links_path = tmp_path / "links.csv"
    write_links_csv(links_path, [link], ["A", "B", "C"])
    out = tmp_path / "out"
    assert main(
        ["integrate", "--input", base, "--links", str(links_path), "--out", str(out)]
    ) == 2
    assert "subset" in capsys.readouterr().err
    assert not (out / "integrated.csv").exists()


def test_navigability_report_schema(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(
        ["navigability", "--input", TOY, "--out", str(out), "--strategy", "pagerank"]
    ) == 0
    assert "pagerank original: spectral gap" in capsys.readouterr().out
    report = json.loads((out / "report_pagerank_original.json").read_text())
    assert set(report) == {"config", "spectral_gap", "t90", "curve_file", "eigenvalue_head"}
    assert report["config"] == {"strategy": "pagerank", "directed": False, "stage": "original"}
    assert report["curve_file"] == "curve_pagerank_original.csv"
    assert report["spectral_gap"] > 0.0
    assert isinstance(report["t90"], float)
    assert all(len(pair) == 2 for pair in report["eigenvalue_head"])
    first_line = (out / "curve_pagerank_original.csv").read_text().splitlines()[0]
    assert first_line == "time,rho"
    curve = read_curve_csv(out / "curve_pagerank_original.csv", "analytic")
    assert curve.rho[-1] >= 0.9


def test_navigability_unreached_level_still_succeeds(tmp_path):
    trap = _write_csv(
        tmp_path / "trap.csv",
        ["0,a,b,1.0", "0,b,a,1.0", "0,b,c,1.0", "0,c,d,1.0", "0,d,c,1.0"],
    )
    out = tmp_path / "out"
    assert main(["navigability", "--input", trap, "--directed", "--out", str(out)]) == 0
    report = json.loads((out / "report_rwc_original.json").read_text())
    assert report["t90"] == NOT_REACHED


def test_pipeline_artifacts_and_run_hash(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pipeline", "--input", TOY, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "trim: kept 24 / removed 5" in stdout
    assert "run hash: " in stdout
    manifest = json.loads((out / "manifest.json").read_text())
    expected = {"trimmed.csv", "links_stage1.csv", "links_stage2.csv",
                "links_stage3.csv", "links_merged.csv", "comparison_rwc.json"}
    for label in ("original", "stage1", "stage2", "stage3"):
        expected |= {f"curve_rwc_{label}.csv", f"report_rwc_{label}.json"}
    assert set(manifest["artifacts"]) == expected
    assert manifest["run_hash"] in stdout
    comparison = json.loads((out / "comparison_rwc.json").read_text())
    assert [row["stage"] for row in comparison] == ["original", "stage1", "stage2", "stage3"]
    assert comparison[0]["spectral_gap_rel_change"] == 0.0
    for row in comparison:
        assert set(row) == {"stage", "spectral_gap", "t90",
                            "spectral_gap_rel_change", "t90_rel_change"}


def test_pipeline_rerun_reproduces_run_hash(tmp_path):
    hashes = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["pipeline", "--input", TOY, "--out", str(out), "--stages", "1"]) == 0
        hashes.append(json.loads((out / "manifest.json").read_text())["run_hash"])
    assert hashes[0] == hashes[1]


def test_run_hash_keys_inputs_by_content(tmp_path, monkeypatch):
    _write_csv(tmp_path / "x.csv", ["0,a,b,1.0", "0,b,c,2.0"])
    monkeypatch.chdir(tmp_path)
    hashes = []
    for name, spelling in (("rel", "./x.csv"), ("abs", str(tmp_path / "x.csv"))):
        assert main(["trim", "--input", spelling, "--out", name]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["config"]["inputs"] == [spelling]  # still echoed as typed
        hashes.append(manifest["run_hash"])
    assert hashes[0] == hashes[1]


def test_atomic_writes_ignore_stale_temp_names(tmp_path):
    out = tmp_path / "out"
    stale = out / "trimmed.csv.tmp"
    stale.mkdir(parents=True)
    assert main(["trim", "--input", TOY, "--out", str(out)]) == 0
    assert stale.is_dir()  # another run's temp name is left alone
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "trimmed.csv", "trimmed.csv.tmp"]


def test_solver_failure_exits_numeric(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("multinav.cli.navigability_report", fail)
    assert main(["navigability", "--input", TOY, "--out", str(tmp_path)]) == 3
    assert "numerical degradation" in capsys.readouterr().err


def test_strengths_spanning_many_decades_still_report(tmp_path, capsys):
    tiny = _write_csv(tmp_path / "tiny.csv", ["0,a,b,1.0", "0,b,c,1.7e-211"])
    assert main(["navigability", "--input", tiny, "--out", str(tmp_path / "out")]) == 0
    assert f"t90 {NOT_REACHED}" in capsys.readouterr().out


def test_multiple_inputs_become_layers(tmp_path):
    a = _write_csv(tmp_path / "a.csv", ["0,p,q,1.0"])
    b = _write_csv(tmp_path / "b.csv", ["0,q,r,2.0"])
    out = tmp_path / "out"
    assert main(["trim", "--input", a, b, "--out", str(out)]) == 0
    merged = parse_edge_list(str(out / "trimmed.csv"))
    assert merged.n_layers == 2
    rows = sorted(
        (e.layer, merged.labels[e.source], merged.labels[e.target]) for e in merged.edges
    )
    assert rows == [(0, "p", "q"), (1, "q", "r")]
    mixed = _write_csv(tmp_path / "c.csv", ["0,p,q,1.0", "1,q,r,2.0"])
    assert main(["trim", "--input", a, mixed, "--out", str(out)]) == 2
    # a trailing empty file still adds its layer: 2 nodes in 2 layers
    empty = _write_csv(tmp_path / "empty.csv", [])
    assert main(["navigability", "--input", b, empty, "--out", str(out)]) == 0
    report = json.loads((out / "report_rwc_original.json").read_text())
    assert len(report["eigenvalue_head"]) == 4


def test_scenario_zero_fraction_replicates_base(tmp_path, capsys):
    base = _write_csv(tmp_path / "base.csv", ["0,x,y,1.0", "0,y,z,2.0", "0,z,x,3.0"])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(
            ["scenario", "--input", base, "--out", str(out),
             "--layers", "2", "--fraction", "0.0"]
        ) == 0
    result = parse_edge_list(str(out_a / "scenario.csv"))
    assert result.n_layers == 2
    per_layer = {
        k: sorted((e.source, e.target, e.flow) for e in result.edges if e.layer == k)
        for k in (0, 1)
    }
    assert per_layer[0] == per_layer[1] and len(per_layer[0]) == 3
    assert (out_a / "scenario.csv").read_text() == (out_b / "scenario.csv").read_text()


def test_scenario_knockout_and_validation(tmp_path, capsys):
    base = _write_csv(
        tmp_path / "base.csv",
        ["0,a,b,1.0", "0,b,c,1.0", "0,c,d,1.0", "0,d,a,1.0"],
    )
    out = tmp_path / "out"
    assert main(
        ["scenario", "--input", base, "--out", str(out),
         "--layers", "3", "--fraction", "0.5"]
    ) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("knocked out 2 nodes") == 3
    result = parse_edge_list(str(out / "scenario.csv"))
    assert {e.layer for e in result.edges} <= {0, 1, 2}
    assert main(
        ["scenario", "--input", base, "--out", str(out), "--fraction", "1.0"]
    ) == 1
    assert main(
        ["scenario", "--input", base, "--out", str(out), "--layers", "0"]
    ) == 1
    multi = _write_csv(tmp_path / "multi.csv", ["0,a,b,1.0", "1,b,c,1.0"])
    assert main(["scenario", "--input", multi, "--out", str(out)]) == 2
    assert main(["scenario", "--input", base, "--out", str(out), "--directed"]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["directed"] is True


def test_exit_codes_for_bad_inputs(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["trim", "--input", str(tmp_path / "missing.csv"), "--out", out]) == 2
    bad_flow = _write_csv(tmp_path / "bad.csv", ["0,a,b,oops"])
    assert main(["trim", "--input", bad_flow, "--out", out]) == 2
    assert "line 2" in capsys.readouterr().err
    self_loop = _write_csv(tmp_path / "loop.csv", ["0,a,a,1.0"])
    assert main(["trim", "--input", self_loop, "--out", out]) == 2
    assert main(["trim", "--input", TOY, "--out", out, "--trim-ratio", "1.5"]) == 1
    assert main(["predict", "--input", TOY, "--out", out, "--threshold", "1.0"]) == 1


def test_argparse_failures_exit_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["trim"])
    assert excinfo.value.code == 1


def _option_dests(command):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in commands.choices[command]._actions if a.dest != "help"}


@pytest.mark.parametrize(
    "command", ["trim", "predict", "integrate", "navigability", "pipeline", "scenario"]
)
def test_manifest_config_records_every_option_of_the_command(command, tmp_path):
    base = _write_csv(tmp_path / "base.csv", ["0,a,b,1.0", "0,b,c,1.0", "0,c,d,1.0"])
    links = tmp_path / "links.csv"
    write_links_csv(links, [], ["a", "b", "c", "d"])
    out = tmp_path / "out"
    extra = ["--links", str(links)] if command == "integrate" else []
    assert main([command, "--input", base, "--out", str(out), *extra]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert set(config) == _option_dests(command)


@pytest.mark.parametrize(
    "command, flag",
    [
        ("trim", "--directed"),
        ("trim", "--undirected"),
        ("trim", "--coupling=2"),
        ("trim", "--seed=1"),
        ("predict", "--coupling=2"),
        ("predict", "--seed=1"),
        ("integrate", "--trim-ratio=0.5"),
        ("integrate", "--trim-scope=global"),
        ("integrate", "--coupling=2"),
        ("integrate", "--seed=1"),
        ("navigability", "--seed=1"),
        ("scenario", "--trim-ratio=0.5"),
        ("scenario", "--trim-scope=global"),
        ("scenario", "--coupling=2"),
    ],
)
def test_options_a_command_never_reads_exit_one(command, flag, tmp_path, capsys):
    argv = [command, "--input", TOY, "--out", str(tmp_path), flag]
    if command == "integrate":
        argv += ["--links", str(tmp_path / "links.csv")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
