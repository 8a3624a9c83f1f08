"""Command-line pipeline: trim, predict, integrate, navigability, scenario.

Every command writes its artifacts plus a manifest.json into --out. Each
subcommand accepts only the options it reads, and the manifest's config is
the parsed options themselves, so it records every setting and nothing
else. The manifest also hashes inputs and artifacts, and records a run_hash
over everything except wall-clock timings, the output location and the
input paths (inputs count by content), so identical runs are verifiable by
hash comparison. Files are written atomically (temp file + rename).

Exit codes: 0 success (including a t90 of "not reached"), 1 usage error,
2 input/parse error, 3 numerical degradation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
import uuid
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .multiplex import (
    EdgeList,
    FlowEdge,
    MultiplexNetwork,
    ParseError,
    PLACEMENT_ALL,
    PLACEMENT_SUBSET,
    TRIM_GLOBAL,
    TRIM_PER_LAYER,
    build_multiplex,
    export_edges,
    integrate_links,
    knockout_nodes,
    parse_edge_list,
    trim_edges,
    write_edge_csv,
)
from .navigability import (
    DegradedDecompositionError,
    NOT_REACHED,
    compare_stages,
    navigability_report,
    write_curve_csv,
    write_report_json,
)
from .prediction import (
    ADAMIC_ADAR,
    JACCARD,
    dedupe_links,
    read_links_csv,
    run_stage,
    write_links_csv,
)
from .walks import STRATEGIES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad parameter values; maps to exit code 1."""


class CliParser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def phase_seed(root_seed: int, phase: str) -> int:
    """Stable per-phase seed derived from the root seed."""
    digest = hashlib.sha256(f"{root_seed}:{phase}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@contextlib.contextmanager
def _atomic(path: Path):
    """Yield a temp path in the target's directory, renamed over it on success.

    The name is unique per call, so runs sharing an output directory never
    touch each other's temp files.
    """
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _sha256_path(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(
    out_dir: Path,
    args: argparse.Namespace,
    inputs: list[str],
    artifacts: list[str],
    timings: dict[str, float],
) -> str:
    command = args.command
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    digests = [_sha256_path(p) for p in inputs]
    manifest = {
        "tool": "multinav",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": dict(zip(inputs, digests)),
        "artifacts": {name: _sha256_path(out_dir / name) for name in sorted(artifacts)},
        "timings": timings,
    }
    hashed = {
        "command": command,
        "config": {k: v for k, v in config.items() if k not in ("out", "inputs", "links")},
        "inputs": digests,
        "artifacts": manifest["artifacts"],
    }
    payload = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    manifest["run_hash"] = hashlib.sha256(payload.encode()).hexdigest()
    with _atomic(out_dir / "manifest.json") as tmp:
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest["run_hash"]


def _load_edges(paths: list[str]) -> EdgeList:
    """Read one combined CSV, or several per-layer CSVs merged in order.

    With multiple inputs, file k becomes layer k; each file must carry a
    single layer value of its own. An empty file adds no edge, so the layer
    count is taken from the file count (``_layer_count``).
    """
    if len(paths) == 1:
        return parse_edge_list(paths[0])
    labels: list[str] = []
    index: dict[str, int] = {}
    merged: list[FlowEdge] = []
    for position, path in enumerate(paths):
        part = parse_edge_list(path)
        distinct = {e.layer for e in part.edges}
        if len(distinct) > 1:
            raise ParseError(
                f"{path}: per-layer input holds {len(distinct)} layer values; "
                "pass a single combined CSV instead"
            )
        for e in part.edges:
            for lab in (part.labels[e.source], part.labels[e.target]):
                if lab not in index:
                    index[lab] = len(labels)
                    labels.append(lab)
            merged.append(
                FlowEdge(
                    index[part.labels[e.source]],
                    index[part.labels[e.target]],
                    position,
                    e.flow,
                )
            )
    return EdgeList(tuple(merged), tuple(labels))


def _check_range(name: str, value: float, low: float, high: float, low_open: bool, high_open: bool) -> None:
    ok_low = value > low if low_open else value >= low
    ok_high = value < high if high_open else value <= high
    if not (ok_low and ok_high):
        lo = "(" if low_open else "["
        hi = ")" if high_open else "]"
        raise UsageError(f"{name} must lie in {lo}{low}, {high}{hi}, got {value}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_edges_atomic(path: Path, edges, labels) -> None:
    with _atomic(path) as tmp:
        write_edge_csv(tmp, edges, labels)


def _layer_count(edges: EdgeList, args) -> int:
    """One layer per input file when there are several, so an empty file keeps its layer."""
    return len(args.inputs) if len(args.inputs) > 1 else edges.n_layers


def _build_from_args(edges: EdgeList, args, frame: list[FlowEdge], **options) -> MultiplexNetwork:
    return build_multiplex(
        frame,
        n_layers=_layer_count(edges, args),
        directed=args.directed,
        labels=edges.labels,
        **options,
    )


def _check_trim(args) -> None:
    if args.trim_ratio is not None:
        _check_range("--trim-ratio", args.trim_ratio, 0.0, 1.0, True, False)


def _trim_if_asked(edges: EdgeList, args) -> list[FlowEdge]:
    if args.trim_ratio is None:
        return list(edges.edges)
    return trim_edges(edges.edges, ratio=args.trim_ratio, scope=args.trim_scope)


def cmd_trim(args) -> int:
    _check_trim(args)
    out = _out_dir(args)
    start = time.perf_counter()
    edges = _load_edges(args.inputs)
    kept = _trim_if_asked(edges, args)
    _write_edges_atomic(out / "trimmed.csv", kept, edges.labels)
    elapsed = time.perf_counter() - start
    print(f"kept {len(kept)} / removed {len(edges.edges) - len(kept)}")
    _write_manifest(out, args, args.inputs, ["trimmed.csv"], {"trim": elapsed})
    return EXIT_OK


def _predict_stages(net, stages, threshold):
    """Stage -> deduplicated union of both algorithms' links, skipping stages
    wider than the layer count; ``net`` is None for an input without layers."""
    n_layers = 0 if net is None else net.n_layers
    results = {}
    for k in stages:
        if k > n_layers:
            print(f"stage {k} skipped: network has only {n_layers} layers", file=sys.stderr)
            continue
        links_j = run_stage(net, k, JACCARD, threshold)
        links_aa = run_stage(net, k, ADAMIC_ADAR, threshold)
        results[k] = dedupe_links(links_j + links_aa)
        print(
            f"stage {k}: {ADAMIC_ADAR} {len(links_aa)}, {JACCARD} {len(links_j)}, "
            f"union {len(results[k])}"
        )
    return results


def _write_link_files(out: Path, results: dict, labels, artifacts: list[str]) -> None:
    """One links file per stage plus their deduplicated merge."""
    everything = []
    for k, union in sorted(results.items()):
        name = f"links_stage{k}.csv"
        with _atomic(out / name) as tmp:
            write_links_csv(tmp, union, labels)
        artifacts.append(name)
        everything.extend(union)
    merged = dedupe_links(everything)
    with _atomic(out / "links_merged.csv") as tmp:
        write_links_csv(tmp, merged, labels)
    artifacts.append("links_merged.csv")
    print(f"merged unique links: {len(merged)}")


def cmd_predict(args) -> int:
    _check_range("--threshold", args.threshold, 0.0, 1.0, False, True)
    _check_trim(args)
    out = _out_dir(args)
    start = time.perf_counter()
    edges = _load_edges(args.inputs)
    frame = _trim_if_asked(edges, args)
    if not frame:
        print("warning: empty network; writing empty outputs", file=sys.stderr)
    # scoring reads only the layers, so the coupling stays build_multiplex's default
    net = _build_from_args(edges, args, frame) if _layer_count(edges, args) else None
    results = _predict_stages(net, args.stages, args.threshold)
    artifacts: list[str] = []
    _write_link_files(out, results, edges.labels, artifacts)
    elapsed = time.perf_counter() - start
    _write_manifest(out, args, args.inputs, artifacts, {"predict": elapsed})
    return EXIT_OK


def cmd_integrate(args) -> int:
    out = _out_dir(args)
    start = time.perf_counter()
    edges = _load_edges(args.inputs)
    # the output holds intra-layer edges only, so the coupling is never written
    net = _build_from_args(edges, args, list(edges.edges))
    links = read_links_csv(args.links, net.label_index())
    integrated = integrate_links(net, links, placement=args.placement)
    _write_edges_atomic(out / "integrated.csv", export_edges(integrated), net.labels)
    elapsed = time.perf_counter() - start
    print(f"integrated {len(links)} links into {net.n_layers} layers")
    _write_manifest(
        out, args, args.inputs + [args.links], ["integrated.csv"], {"integrate": elapsed}
    )
    return EXIT_OK


def _emit_report(out: Path, report, strategy: str, label: str, artifacts: list[str]) -> None:
    curve_name = f"curve_{strategy}_{label}.csv"
    report_name = f"report_{strategy}_{label}.json"
    with _atomic(out / curve_name) as tmp:
        write_curve_csv(tmp, report.curve)
    with _atomic(out / report_name) as tmp:
        write_report_json(tmp, report, curve_name)
    artifacts.extend([curve_name, report_name])
    shown = NOT_REACHED if report.t90 is None else f"{report.t90:.6g}"
    print(f"{strategy} {label}: spectral gap {report.spectral_gap:.6g}, t90 {shown}")


def cmd_navigability(args) -> int:
    _check_trim(args)
    out = _out_dir(args)
    start = time.perf_counter()
    edges = _load_edges(args.inputs)
    net = _build_from_args(edges, args, _trim_if_asked(edges, args), coupling=args.coupling)
    artifacts = []
    for strategy in args.strategies:
        report = navigability_report(net, strategy)
        _emit_report(out, report, strategy, "original", artifacts)
    elapsed = time.perf_counter() - start
    _write_manifest(out, args, args.inputs, artifacts, {"navigability": elapsed})
    return EXIT_OK


def cmd_pipeline(args) -> int:
    _check_trim(args)
    _check_range("--threshold", args.threshold, 0.0, 1.0, False, True)
    out = _out_dir(args)
    timings: dict[str, float] = {}
    artifacts: list[str] = []

    start = time.perf_counter()
    edges = _load_edges(args.inputs)
    timings["ingest"] = time.perf_counter() - start

    start = time.perf_counter()
    trimmed = _trim_if_asked(edges, args)
    _write_edges_atomic(out / "trimmed.csv", trimmed, edges.labels)
    artifacts.append("trimmed.csv")
    print(f"trim: kept {len(trimmed)} / removed {len(edges.edges) - len(trimmed)}")
    timings["trim"] = time.perf_counter() - start

    start = time.perf_counter()
    net = _build_from_args(edges, args, trimmed, coupling=args.coupling)
    timings["build"] = time.perf_counter() - start

    start = time.perf_counter()
    results = _predict_stages(net, args.stages, args.threshold)
    _write_link_files(out, results, net.labels, artifacts)
    timings["predict"] = time.perf_counter() - start

    start = time.perf_counter()
    variants = [("original", net)]
    for k, union in sorted(results.items()):
        variants.append((f"stage{k}", integrate_links(net, union, placement=PLACEMENT_SUBSET)))
    timings["integrate"] = time.perf_counter() - start

    start = time.perf_counter()
    for strategy in args.strategies:
        reports = []
        for label, variant in variants:
            report = navigability_report(variant, strategy, stage_label=label)
            _emit_report(out, report, strategy, label, artifacts)
            reports.append(report)
        comparison = compare_stages(reports)
        name = f"comparison_{strategy}.json"
        with _atomic(out / name) as tmp:
            tmp.write_text(json.dumps(comparison, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        artifacts.append(name)
    timings["navigability"] = time.perf_counter() - start

    run_hash = _write_manifest(out, args, args.inputs, artifacts, timings)
    print(f"run hash: {run_hash}")
    return EXIT_OK


def cmd_scenario(args) -> int:
    _check_range("--fraction", args.fraction, 0.0, 1.0, False, True)
    if args.layers < 1:
        raise UsageError(f"--layers must be >= 1, got {args.layers}")
    out = _out_dir(args)
    start = time.perf_counter()
    base = _load_edges(args.inputs)
    if len({e.layer for e in base.edges}) > 1:
        raise ParseError("scenario base must be a single-layer edge list")
    n = base.n_nodes
    count = round(args.fraction * n)
    net = build_multiplex(
        [FlowEdge(e.source, e.target, k, e.flow) for k in range(args.layers) for e in base.edges],
        n_layers=args.layers,
        directed=args.directed,
        labels=base.labels,
    )
    for k in range(args.layers):
        rng = np.random.default_rng(phase_seed(args.seed, f"scenario.layer{k}"))
        net = knockout_nodes(net, rng.choice(n, size=count, replace=False).tolist(), k)
    replicated = export_edges(net)
    kept = Counter(e.layer for e in replicated)
    for k in range(args.layers):
        print(f"layer {k}: knocked out {count} nodes, kept {kept[k]} edges")
    _write_edges_atomic(out / "scenario.csv", replicated, base.labels)
    elapsed = time.perf_counter() - start
    _write_manifest(out, args, args.inputs, ["scenario.csv"], {"scenario": elapsed})
    return EXIT_OK


def _add_io(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", dest="inputs", nargs="+", required=True, metavar="CSV",
                     help="combined edge CSV, or one CSV per layer in order")
    sub.add_argument("--out", default="out", help="output directory (default: out)")


def _add_directed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--directed", dest="directed", action="store_true",
                     help="treat edges as directed")
    sub.add_argument("--undirected", dest="directed", action="store_false",
                     help="treat edges as undirected (default)")
    sub.set_defaults(directed=False)


def _add_trim(sub: argparse.ArgumentParser, default: float | None) -> None:
    sub.add_argument("--trim-ratio", type=float, default=default,
                     help="keep edges with flow >= ratio * max flow"
                          + (" (default: no trimming)" if default is None else f" (default: {default})"))
    sub.add_argument("--trim-scope", choices=[TRIM_PER_LAYER, TRIM_GLOBAL],
                     default=TRIM_PER_LAYER, help="trim threshold scope (default: per-layer)")


def _add_coupling(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--coupling", type=float, default=1.0,
                     help="uniform inter-layer coupling weight (default: 1.0)")


def _add_seed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="root random seed (default: 0)")


def _add_stages(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--threshold", type=float, default=0.5,
                     help="normalized-score cut, strict (default: 0.5)")
    sub.add_argument("--stages", nargs="+", type=int, choices=[1, 2, 3],
                     default=[1, 2, 3], help="subset sizes to run (default: 1 2 3)")


def _add_strategy(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--strategy", dest="strategies", action="append", choices=list(STRATEGIES),
                     help="walk strategy, repeatable (default: rwc)")


def build_parser() -> CliParser:
    parser = CliParser(prog="multinav", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"multinav {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    trim = commands.add_parser("trim", help="keep only the strongest flows")
    _add_io(trim)
    _add_trim(trim, 0.9)
    trim.set_defaults(func=cmd_trim)

    predict = commands.add_parser("predict", help="predict links per layer-subset stage")
    _add_io(predict)
    _add_directed(predict)
    _add_trim(predict, None)
    _add_stages(predict)
    predict.set_defaults(func=cmd_predict)

    integrate = commands.add_parser("integrate", help="add predicted links to a network")
    _add_io(integrate)
    _add_directed(integrate)
    integrate.add_argument("--links", required=True, help="predicted-links CSV")
    integrate.add_argument("--placement", choices=[PLACEMENT_SUBSET, PLACEMENT_ALL],
                           default=PLACEMENT_SUBSET,
                           help="layers receiving each link (default: its own subset)")
    integrate.set_defaults(func=cmd_integrate)

    nav = commands.add_parser("navigability", help="spectral gap, coverage curve and t90")
    _add_io(nav)
    _add_directed(nav)
    _add_trim(nav, None)
    _add_coupling(nav)
    _add_strategy(nav)
    nav.set_defaults(func=cmd_navigability)

    pipeline = commands.add_parser("pipeline", help="trim, predict, integrate and report")
    _add_io(pipeline)
    _add_directed(pipeline)
    _add_trim(pipeline, 0.9)
    _add_coupling(pipeline)
    _add_seed(pipeline)  # no stage reads it; kept because perfbench passes --seed to every command
    _add_stages(pipeline)
    _add_strategy(pipeline)
    pipeline.set_defaults(func=cmd_pipeline)

    scenario = commands.add_parser("scenario", help="replicate a layer under random knockouts")
    _add_io(scenario)
    _add_directed(scenario)
    _add_seed(scenario)
    scenario.add_argument("--layers", type=int, default=3,
                          help="number of scenario layers (default: 3)")
    scenario.add_argument("--fraction", type=float, default=0.1,
                          help="fraction of nodes knocked out per layer (default: 0.1)")
    scenario.set_defaults(func=cmd_scenario)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "strategies") and not args.strategies:
        args.strategies = ["rwc"]
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegradedDecompositionError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, but a solver failure is no input fault
        print(f"numerical degradation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # ParseError, SchemaError, ConstructionError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
