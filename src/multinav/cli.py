"""Command-line pipeline: trim, predict, integrate, navigability, scenario.

Every command writes its artifacts plus a manifest.json into --out. Each
subcommand accepts only the options it reads, and the manifest's config is
the parsed options themselves, so it records every setting and nothing
else. The manifest also hashes inputs and artifacts, and records a run_hash
over everything except wall-clock timings, the output location and the
input paths (inputs count by content), so identical runs are verifiable by
hash comparison. The output policy lives in ``_Run``, the only writer of
files: it makes --out with the first artifact, once the inputs have loaded,
writes each artifact atomically (temp file + rename) and records its name,
times each phase and writes the manifest last, the same way. The option
ranges live in ``RANGES``, which ``main`` checks before a command makes --out.

Exit codes: 0 success (including a t90 of "not reached"), 1 usage error,
2 input/parse error, 3 numerical degradation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    report_to_json_dict,
    write_curve_csv,
)
from .prediction import (
    ALGORITHMS,
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


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class _Run:
    """One command's output: writes and records each artifact, times each
    phase, and writes the manifest last. The first artifact makes --out, so
    an input that fails to load leaves none behind."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.out = Path(args.out)
        self.artifacts: list[str] = []
        self.timings: dict[str, float] = {}

    def write(self, name: str, writer, *content) -> None:
        if not self.artifacts:
            self.out.mkdir(parents=True, exist_ok=True)
        with _atomic(self.out / name) as tmp:
            writer(tmp, *content)
        self.artifacts.append(name)

    @contextlib.contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - start

    def finish(self, inputs: list[str]) -> str:
        """Write manifest.json, hashing the inputs and every artifact but itself."""
        command = self.args.command
        config = {k: v for k, v in vars(self.args).items() if k not in ("command", "func")}
        digests = [_sha256_path(p) for p in inputs]
        artifacts = {name: _sha256_path(self.out / name) for name in sorted(self.artifacts)}
        hashed = {
            "command": command,
            "config": {k: v for k, v in config.items() if k not in ("out", "inputs", "links")},
            "inputs": digests,
            "artifacts": artifacts,
        }
        payload = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        run_hash = hashlib.sha256(payload.encode()).hexdigest()
        manifest = {
            "tool": "multinav",
            "version": __version__,
            "command": command,
            "config": config,
            "inputs": dict(zip(inputs, digests)),
            "artifacts": artifacts,
            "timings": self.timings,
            "run_hash": run_hash,
        }
        self.write("manifest.json", _write_json, manifest)
        return run_hash


def _load_edges(paths: list[str]) -> EdgeList:
    """Read one combined CSV, or several per-layer CSVs merged in order.

    With multiple inputs, file k becomes layer k; each file must carry a
    single layer value of its own. An empty file adds no edge, so the layer
    count is taken from the file count (``_layer_count``).
    """
    if len(paths) == 1:
        return parse_edge_list(paths[0])
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
        # part.labels are in first-appearance order and each sits on an edge,
        # so interning them in order keeps the merged first-appearance order
        local = [index.setdefault(label, len(index)) for label in part.labels]
        merged.extend(FlowEdge(local[e.source], local[e.target], position, e.flow) for e in part.edges)
    return EdgeList(tuple(merged), tuple(index))


# option -> interval its value must lie in, with "(" or ")" marking an open
# edge; NaN lies in none, and an unset --trim-ratio means no trimming
RANGES = {
    "trim_ratio": ("(", 0.0, 1.0, "]"),
    "threshold": ("[", 0.0, 1.0, ")"),
    "coupling": ("[", 0.0, np.inf, ")"),
    "fraction": ("[", 0.0, 1.0, ")"),
    "layers": ("[", 1, np.inf, ")"),
}


def _check_ranges(args: argparse.Namespace) -> None:
    for dest, (lo, low, high, hi) in RANGES.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        above = value > low if lo == "(" else value >= low
        below = value < high if hi == ")" else value <= high
        if not (above and below):
            option = "--" + dest.replace("_", "-")
            raise UsageError(f"{option} must lie in {lo}{low}, {high}{hi}, got {value}")


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


def _trim_if_asked(edges: EdgeList, args) -> list[FlowEdge]:
    if args.trim_ratio is None:
        return list(edges.edges)
    return trim_edges(edges.edges, ratio=args.trim_ratio, scope=args.trim_scope)


def cmd_trim(args) -> int:
    run = _Run(args)
    with run.phase("trim"):
        edges = _load_edges(args.inputs)
        kept = _trim_if_asked(edges, args)
        run.write("trimmed.csv", write_edge_csv, kept, edges.labels)
    print(f"kept {len(kept)} / removed {len(edges.edges) - len(kept)}")
    run.finish(args.inputs)
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
        results[k] = union = run_stage(net, k, threshold)
        # a union link holds an algorithm's tag exactly when it produced that pair
        found = ", ".join(f"{name} {np.count_nonzero(union.sources[:, code].any(axis=1))}"
                          for code, name in enumerate(ALGORITHMS))
        print(f"stage {k}: {found}, union {len(union)}")
    return results


def _write_link_files(run: _Run, results: dict, labels) -> None:
    """One links file per stage plus their deduplicated merge."""
    for k, union in sorted(results.items()):
        run.write(f"links_stage{k}.csv", write_links_csv, union, labels)
    merged = dedupe_links([union for _, union in sorted(results.items())])
    run.write("links_merged.csv", write_links_csv, merged, labels)
    print(f"merged unique links: {len(merged)}")


def cmd_predict(args) -> int:
    run = _Run(args)
    with run.phase("predict"):
        edges = _load_edges(args.inputs)
        frame = _trim_if_asked(edges, args)
        if not frame:
            print("warning: empty network; writing empty outputs", file=sys.stderr)
        # scoring reads only the layers, so the coupling stays build_multiplex's default
        net = _build_from_args(edges, args, frame) if _layer_count(edges, args) else None
        results = _predict_stages(net, args.stages, args.threshold)
        _write_link_files(run, results, edges.labels)
    run.finish(args.inputs)
    return EXIT_OK


def cmd_integrate(args) -> int:
    run = _Run(args)
    with run.phase("integrate"):
        edges = _load_edges(args.inputs)
        # the output holds intra-layer edges only, so the coupling is never written
        net = _build_from_args(edges, args, list(edges.edges))
        links = read_links_csv(args.links, net.label_index())
        integrated = integrate_links(net, links, placement=args.placement)
        run.write("integrated.csv", write_edge_csv, export_edges(integrated), net.labels)
    print(f"integrated {len(links)} links into {net.n_layers} layers")
    run.finish(args.inputs + [args.links])
    return EXIT_OK


def _emit_report(run: _Run, report, strategy: str, label: str) -> None:
    curve_name = f"curve_{strategy}_{label}.csv"
    run.write(curve_name, write_curve_csv, report.curve)
    run.write(f"report_{strategy}_{label}.json", _write_json, report_to_json_dict(report, curve_name))
    shown = NOT_REACHED if report.t90 is None else f"{report.t90:.6g}"
    print(f"{strategy} {label}: spectral gap {report.spectral_gap:.6g}, t90 {shown}")


def cmd_navigability(args) -> int:
    run = _Run(args)
    with run.phase("navigability"):
        edges = _load_edges(args.inputs)
        net = _build_from_args(edges, args, _trim_if_asked(edges, args), coupling=args.coupling)
        for strategy in args.strategies:
            _emit_report(run, navigability_report(net, strategy), strategy, "original")
    run.finish(args.inputs)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    run = _Run(args)
    with run.phase("ingest"):
        edges = _load_edges(args.inputs)

    with run.phase("trim"):
        trimmed = _trim_if_asked(edges, args)
        print(f"trim: kept {len(trimmed)} / removed {len(edges.edges) - len(trimmed)}")

    with run.phase("build"):
        net = _build_from_args(edges, args, trimmed, coupling=args.coupling)
        # written once the network builds, so an input that cannot build leaves no --out
        run.write("trimmed.csv", write_edge_csv, trimmed, edges.labels)

    with run.phase("predict"):
        results = _predict_stages(net, args.stages, args.threshold)
        _write_link_files(run, results, net.labels)

    with run.phase("integrate"):
        variants = [("original", net)]
        for k, union in sorted(results.items()):
            variants.append((f"stage{k}", integrate_links(net, union, placement=PLACEMENT_SUBSET)))

    with run.phase("navigability"):
        for strategy in args.strategies:
            reports = []
            for label, variant in variants:
                report = navigability_report(variant, strategy, stage_label=label)
                _emit_report(run, report, strategy, label)
                reports.append(report)
            run.write(f"comparison_{strategy}.json", _write_json, compare_stages(reports))

    print(f"run hash: {run.finish(args.inputs)}")
    return EXIT_OK


def cmd_scenario(args) -> int:
    run = _Run(args)
    with run.phase("scenario"):
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
        run.write("scenario.csv", write_edge_csv, replicated, base.labels)
    run.finish(args.inputs)
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


@functools.cache  # built on first use, then shared by every main call of the process
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
    # a repeated stage or strategy would be scored, reported and hashed twice
    if hasattr(args, "strategies"):
        args.strategies = list(dict.fromkeys(args.strategies or ["rwc"]))
    if hasattr(args, "stages"):
        args.stages = list(dict.fromkeys(args.stages))
    try:
        _check_ranges(args)
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
