"""End-to-end command-line runs: artifacts, manifests, stdout and exit codes."""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import subprocess
import sys
import warnings
from importlib.resources import files as package_files
from pathlib import Path

import numpy as np
import pytest
from conftest import Link, link_rows, link_table, read_curve_csv

import multinav
from multinav import (
    build_multiplex,
    dedupe_links,
    parse_edge_list,
    run_stage,
    trim_edges,
)
from multinav.cli import build_parser, main
from multinav.multiplex import TRIM_PER_LAYER
from multinav.navigability import NOT_REACHED
from multinav.prediction import (
    ADAMIC_ADAR,
    JACCARD,
    LINK_CSV_COLUMNS,
    format_links_csv,
    read_links_csv,
)

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


# sha256 of the toy pipeline's edge and link files; the curves and reports are
# left out, since their last bits depend on the eigensolver and BLAS
TOY_DIGESTS = {
    "trimmed.csv": "b9fd7de59a6e0114febcd842f7641f69c45cd62063c3a5edf8197159cab6a955",
    "links_stage1.csv": "183929c4a86787357fb3bb2f09f9b84c0c9f3485688807797a13c5ffaf9f8a66",
    "links_stage2.csv": "9418707a109421029fe1df67a9af7227d3e87bc7433f65662e6a0102f2cfe250",
    "links_stage3.csv": "f4848e20fd34781eaa3ad4f1d4ee8f38c126b7bf09fe81312b8027a6f4ae2326",
    "links_merged.csv": "2c436d9312bab001a3dedf4dddd27a710e5416e66cfaa5e89397fda5af6cbef7",
}


def test_toy_pipeline_edge_and_link_files_are_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["pipeline", "--input", TOY, "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in TOY_DIGESTS}
    assert got == TOY_DIGESTS


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
        expected = run_stage(net, k, 0.5)
        merged_expected.append(expected)
        got = read_links_csv(out / f"links_stage{k}.csv", index)
        # the CSV keeps everything except the dedupe provenance
        strip = lambda l: (l.u, l.v, l.algorithm, l.subset, l.stage,
                           l.raw_score, l.normalized_score, l.weight)
        assert [strip(l) for l in link_rows(got)] == [strip(l) for l in link_rows(expected)]
    merged = read_links_csv(out / "links_merged.csv", index)
    assert len(merged) == len(dedupe_links(merged_expected))
    assert not (out / "links_stage3.csv").exists()


# a stage's per-algorithm counts are the union links each algorithm produced
TOY_STAGE_LINES = [
    "stage 1: adamic_adar 13, jaccard 14, union 16",
    "stage 2: adamic_adar 22, jaccard 12, union 23",
    "stage 3: adamic_adar 8, jaccard 11, union 11",
]


def _stage_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith("stage ")]


def test_predict_prints_stage_counts(tmp_path, capsys):
    argv = ["predict", "--input", TOY, "--out", str(tmp_path / "out"), "--trim-ratio", "0.9"]
    assert main(argv) == 0
    assert _stage_lines(capsys.readouterr().out) == TOY_STAGE_LINES


def test_predict_skips_stages_wider_than_network(tmp_path, capsys):
    base = _write_csv(tmp_path / "two.csv",
                      ["0,a,b,1.0", "0,b,c,1.0", "1,a,c,1.0", "1,b,c,1.0"])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
        Link(u=0, v=2, raw_score=1.0, normalized_score=1.0,
             weight=0.7, algorithm=JACCARD, subset=(0,), stage=1),
        Link(u=0, v=1, raw_score=1.0, normalized_score=1.0,
             weight=5.0, algorithm=ADAMIC_ADAR, subset=(0,), stage=1),
    ]
    links_path = tmp_path / "links.csv"
    links_path.write_text(format_links_csv(link_table(links), ["A", "B", "C"]), encoding="utf-8")
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
    link = Link(u=0, v=2, raw_score=1.0, normalized_score=1.0,
                weight=0.7, algorithm=JACCARD, subset=(7,), stage=1)
    links_path = tmp_path / "links.csv"
    links_path.write_text(format_links_csv(link_table([link]), ["A", "B", "C"]), encoding="utf-8")
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
    assert _stage_lines(stdout) == TOY_STAGE_LINES
    assert "run hash: " in stdout
    manifest = json.loads((out / "manifest.json").read_text())
    expected = {"trimmed.csv", "links_stage1.csv", "links_stage2.csv",
                "links_stage3.csv", "links_merged.csv", "comparison_rwc.json"}
    for label in ("original", "stage1", "stage2", "stage3"):
        expected |= {f"curve_rwc_{label}.csv", f"report_rwc_{label}.json"}
    assert set(manifest["artifacts"]) == expected
    for name, digest in manifest["artifacts"].items():  # hashed as written, checked as stored
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name
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


def test_repeated_stages_and_strategies_run_once(tmp_path, capsys):
    hashes = []
    for name, repeats in (("once", 1), ("twice", 2)):
        out = tmp_path / name
        argv = ["pipeline", "--input", TOY, "--out", str(out), "--stages", *["2"] * repeats]
        assert main(argv + ["--strategy", "rwc"] * repeats) == 0
        assert capsys.readouterr().out.count("stage 2:") == 1
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


def test_a_writer_that_fails_leaves_neither_temp_file_nor_partial_target(tmp_path, monkeypatch, capsys):
    def fill_the_disk(curve):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("multinav.cli.format_curve_csv", fill_the_disk)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", TOY, "--out", str(out), "--stages", "1"]) == 2
    assert "No space left on device" in capsys.readouterr().err
    left = sorted(p.name for p in out.iterdir())
    assert "trimmed.csv" in left  # written before the failing artifact
    assert not [name for name in left if name.startswith("curve_") or name.endswith(".tmp")]
    assert "manifest.json" not in left


def test_a_rename_that_fails_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def refuse(source, target):
        raise PermissionError(errno.EACCES, "Permission denied", str(target))

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "out"
    assert main(["trim", "--input", TOY, "--out", str(out)]) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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
    assert parse_edge_list(a, b).labels == ("p", "q", "r")
    # a file that names a new label before an old one keeps first-appearance order
    d = _write_csv(tmp_path / "d.csv", ["0,s,q,1.0", "0,q,p,3.0"])
    loaded = parse_edge_list(a, d)
    assert loaded.labels == ("p", "q", "s")
    assert [(e.source, e.target, e.layer, e.flow) for e in loaded.edges] == [
        (0, 1, 0, 1.0), (2, 1, 1, 1.0), (1, 0, 1, 3.0)
    ]
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
    big_field = _write_csv(tmp_path / "big.csv", ["0,a,b,1.0", f"0,{'x' * 200_000},b,1.0"])
    assert main(["trim", "--input", big_field, "--out", out]) == 2
    assert "line 3: field larger than field limit" in capsys.readouterr().err
    assert main(["trim", "--input", TOY, "--out", out, "--trim-ratio", "1.5"]) == 1
    assert main(["predict", "--input", TOY, "--out", out, "--threshold", "1.0"]) == 1
    unused = tmp_path / "unused"
    assert main(["navigability", "--input", TOY, "--out", str(unused), "--coupling=-1"]) == 1
    assert main(["pipeline", "--input", TOY, "--out", str(unused), "--coupling", "nan"]) == 1
    # a value on an open edge of its range, or past a closed one
    assert main(["trim", "--input", TOY, "--out", str(unused), "--trim-ratio", "0"]) == 1
    assert main(["predict", "--input", TOY, "--out", str(unused), "--threshold=-0.1"]) == 1
    assert main(["pipeline", "--input", TOY, "--out", str(unused), "--coupling", "inf"]) == 1
    assert main(["scenario", "--input", TOY, "--out", str(unused), "--fraction=-0.1"]) == 1
    assert main(["scenario", "--input", TOY, "--out", str(unused), "--layers", "0"]) == 1
    assert not unused.exists()
    # a bad value in a links file gets the links' own message, not the network's
    base = _write_csv(tmp_path / "base.csv", ["0,a,b,1.0", "0,b,c,1.0"])
    links = tmp_path / "links.csv"
    for bad, message in (("a,c,jaccard,0,1,1.0,1.0,inf", "link weight must be positive and finite, got inf"),
                         ("a,c,jaccard,,1,1.0,1.0,0.5", "links file line 3: bad subset ''"),
                         ("x,c,jaccard,0,1,1.0,1.0,0.5", "links file line 3: unknown node label 'x'"),
                         # a row read_table rejects, as its rules are tested in test_multiplex.py
                         ("a", "links file line 3: expected 8 fields, got 1"),
                         # values a links table cannot hold
                         ("a,c,bogus,0,1,1.0,1.0,0.5", "links file line 3: bad algorithm 'bogus'"),
                         ("a,c,jaccard,1+0+1,3,1.0,1.0,0.5", "links file line 3: bad subset '1+0+1'"),
                         ("a,c,jaccard,0,7,1.0,1.0,0.5", "links file line 3: bad stage '7' for subset '0'")):
        rows = [",".join(LINK_CSV_COLUMNS), "a,c,jaccard,0,1,1.0,1.0,0.5", bad]
        links.write_text("".join(f"{r}\n" for r in rows), encoding="utf-8")
        assert main(["integrate", "--input", base, "--links", str(links), "--out", str(unused)]) == 2
        assert message in capsys.readouterr().err
        assert not unused.exists()


def test_links_file_with_a_byte_order_mark_integrates(tmp_path):
    base = _write_csv(tmp_path / "base.csv", ["0,a,b,1.0", "0,b,c,1.0"])
    links = tmp_path / "links.csv"
    rows = [",".join(LINK_CSV_COLUMNS), "a,c,jaccard,0,1,1.0,1.0,0.5"]
    links.write_text("".join(f"{r}\n" for r in rows), encoding="utf-8-sig")
    assert links.read_bytes().startswith(b"\xef\xbb\xbf")
    out = tmp_path / "out"
    assert main(["integrate", "--input", base, "--links", str(links), "--out", str(out)]) == 0
    integrated = parse_edge_list(str(out / "integrated.csv"))
    assert sorted((integrated.labels[e.source], integrated.labels[e.target], e.flow)
                  for e in integrated.edges) == [("a", "b", 1.0), ("a", "c", 0.5), ("b", "c", 1.0)]


@pytest.mark.parametrize("strategy", ["rwc", "rwd", "pagerank"])
def test_a_strength_that_overflows_exits_two(strategy, tmp_path, capsys):
    # finite flows whose sum, node a's strength, overflows to inf
    edges = _write_csv(tmp_path / "edges.csv", ["0,a,b,1e308", "0,a,c,1e308"])
    out = tmp_path / "out"
    assert main(["navigability", "--input", edges, "--out", str(out), "--strategy", strategy]) == 2
    assert "strength overflows" in capsys.readouterr().err
    # the toy's three layers each add the coupling twice
    assert main(["navigability", "--input", TOY, "--out", str(out), "--strategy", strategy,
                 "--coupling", "1e308"]) == 2
    assert "strength overflows" in capsys.readouterr().err
    assert not out.exists()


def test_an_input_that_fails_to_load_leaves_no_out(tmp_path):
    missing = str(tmp_path / "missing.csv")
    links = tmp_path / "links.csv"
    links.write_text(format_links_csv(link_table([]), ()), encoding="utf-8")
    calls = [[command, "--input", missing] for command in
             ("trim", "predict", "navigability", "pipeline", "scenario")]
    calls += [["integrate", "--input", missing, "--links", str(links)],
              ["integrate", "--input", TOY, "--links", missing]]
    for index, call in enumerate(calls):
        out = tmp_path / f"out{index}"
        assert main(call + ["--out", str(out)]) == 2, call
        assert not out.exists(), call


def test_an_input_that_cannot_build_leaves_no_out(tmp_path, capsys):
    header_only = _write_csv(tmp_path / "empty.csv", [])
    links = tmp_path / "links.csv"
    links.write_text(",".join(LINK_CSV_COLUMNS) + "\n", encoding="utf-8")
    for call in (["navigability"], ["pipeline"], ["integrate", "--links", str(links)]):
        out = tmp_path / call[0]
        assert main(call + ["--input", header_only, "--out", str(out)]) == 2
        # the message names the bad count
        assert "at least one layer, got 0\n" in capsys.readouterr().err
        assert not out.exists(), call


def test_argparse_failures_exit_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["trim"])
    assert excinfo.value.code == 1


def test_module_run_goes_through_the_console_entrypoint():
    """``python -m multinav.cli`` runs the ``__main__`` guard and ``entrypoint``,
    the console script's target, which exits with ``main``'s code."""
    env = dict(os.environ, PYTHONPATH=str(Path(multinav.__file__).parents[1]))
    version = subprocess.run([sys.executable, "-m", "multinav.cli", "--version"], env=env,
                             capture_output=True, text=True, encoding="utf-8")
    assert (version.returncode, version.stdout) == (0, "multinav 0.1.0\n")
    bare = subprocess.run([sys.executable, "-m", "multinav.cli"], env=env,
                          capture_output=True, text=True, encoding="utf-8")
    assert bare.returncode == 1
    assert "the following arguments are required: command" in bare.stderr


def test_main_builds_the_parser_once_per_process(tmp_path):
    build_parser.cache_clear()
    for name in ("first", "second"):
        assert main(["trim", "--input", TOY, "--out", str(tmp_path / name)]) == 0
    assert build_parser.cache_info().misses == 1
    # the shared parser keeps nothing of the first call's options
    manifest = json.loads((tmp_path / "second" / "manifest.json").read_text())
    assert manifest["config"]["out"] == str(tmp_path / "second")


def _option_dests(command):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in commands.choices[command]._actions if a.dest != "help"}


@pytest.mark.parametrize(
    "command", ["trim", "predict", "integrate", "navigability", "pipeline", "scenario"]
)
def test_manifest_config_records_every_option_of_the_command(command, tmp_path):
    base = _write_csv(tmp_path / "base.csv", ["0,a,b,1.0", "0,b,c,1.0", "0,c,d,1.0"])
    links = tmp_path / "links.csv"
    links.write_text(format_links_csv(link_table([]), ["a", "b", "c", "d"]), encoding="utf-8")
    out = tmp_path / "out"
    extra = ["--links", str(links)] if command == "integrate" else []
    assert main([command, "--input", base, "--out", str(out), *extra]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["config"]) == _option_dests(command)
    # every file the command leaves is an artifact the manifest hashes
    assert set(manifest["artifacts"]) == {p.name for p in out.iterdir()} - {"manifest.json"}


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
