"""Workload definitions: seeded inputs, the program call, and output checks.

Every workload is one program invocation on one generated CSV. The checks
run after every timed invocation: at any seed, structural invariants and,
for the Monte Carlo script, the exact expected coverage of the walk it
samples; at the default seed also an exact comparison against the
committed reference in ``reference/<workload>.json`` (link files by
sha256, gap and t90 to a relative 1e-9, curves to an absolute 1e-12).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

import gen

DEFAULT_SEED = 0
TRIM = "0.05"
THRESHOLD = 0.5

GAP_RTOL = 1e-9
T90_RTOL = 1e-9
CURVE_ATOL = 1e-12
# Monte Carlo outputs against the exact expected coverage of the same walk
# (``exact_coverage``): the step curve to an absolute MC_RHO_ATOL at every
# step, t90 on the Poisson clock to a relative MC_T90_RTOL. Both are several
# times the walkers' sampling error (README.md, "Output checks").
MC_RHO_ATOL = 0.01
MC_T90_RTOL = 0.02
EXACT_STEPS = 1000  # Poisson(t) mass beyond this many steps is negligible at t <= t90

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    layers: int
    directed: bool
    module: str  # whose ``main`` takes ``<command> --input CSV --out DIR --seed N <options>``
    command: tuple[str, ...]
    options: tuple[str, ...]
    link_files: int
    reports: int

    def args(self, csv_path: str, out: str, seed: int) -> list[str]:
        return [*self.command, "--input", csv_path, "--out", out, "--seed", str(seed), *self.options]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline-rwc", 24, 5, False, "multinav.cli", ("pipeline",),
                 ("--trim-ratio", TRIM, "--stages", "1", "2", "3", "--strategy", "rwc"), 4, 4),
        Workload("montecarlo-directed", 40, 5, True, "mc_script", (), (), 0, 1),
    )
}


def make_input(workload: Workload, seed: int, path: Path) -> dict:
    """Write the workload's CSV and describe it."""
    rows = gen.lattice_edges(workload.nodes, workload.layers, workload.directed, seed)
    digest = gen.write_csv(path, rows)
    return {"nodes": workload.nodes, "layers": workload.layers, "edges": len(rows),
            "directed": workload.directed, "sha256": digest}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_curve(path: Path) -> list[float]:
    with open(path, encoding="utf-8") as stream:
        return [float(row["rho"]) for row in csv.DictReader(stream)]


def _curve_problems(name: str, rho: list[float], nodes: int) -> list[str]:
    problems = []
    if not rho or abs(rho[0] - 1.0 / nodes) > CURVE_ATOL:
        problems.append(f"{name}: rho(0) is {rho[:1]}, expected 1/{nodes}")
    if any(b < a for a, b in zip(rho, rho[1:])):
        problems.append(f"{name}: rho is not monotone")
    if any(r > 1.0 for r in rho):
        problems.append(f"{name}: rho exceeds 1")
    return problems


def _link_problems(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as stream:
        rows = list(csv.DictReader(stream))
    pairs = {frozenset((r["u_label"], r["v_label"])) for r in rows}
    problems = []
    if path.name == "links_merged.csv" and not rows:
        problems.append("no links merged")
    if len(pairs) != len(rows) or any(len(p) != 2 for p in pairs):
        problems.append(f"{path.name}: duplicate or self-loop links")
    for r in rows:
        if not THRESHOLD < float(r["normalized_score"]) <= 1.0 or float(r["weight"]) <= 0.0:
            problems.append(f"{path.name}: link {r['u_label']}-{r['v_label']} out of range")
            break
    return problems


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def summarize(workload: Workload, out: Path) -> dict:
    """The outputs a reference pins: link hashes, gaps, t90s and curves."""
    if workload.module == "mc_script":
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        return {"links": {}, "reports": {"pagerank": {"gap": result["gap"], "t90": result["t90"]}},
                "curves": {"montecarlo": result["rho"]}, "walks": result["walks_sha256"]}
    summary: dict = {"links": {}, "reports": {}, "curves": {}}
    for path in sorted(out.glob("links_*.csv")):
        summary["links"][path.name] = _sha256(path)
    for path in sorted(out.glob("report_*.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        summary["reports"][path.stem] = {"gap": report["spectral_gap"], "t90": report["t90"]}
        summary["curves"][path.stem] = _read_curve(out / report["curve_file"])
    return summary


def check(workload: Workload, out: Path, seed: int, oracle: dict | None) -> list[str]:
    """Problems with one invocation's outputs; empty when they are correct."""
    try:
        summary = summarize(workload, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    problems = []
    if len(summary["links"]) != workload.link_files:
        problems.append(f"expected {workload.link_files} link files, found {sorted(summary['links'])}")
    for name in summary["links"]:
        problems += _link_problems(out / name)
    if len(summary["reports"]) != workload.reports:
        problems.append(f"expected {workload.reports} reports, found {sorted(summary['reports'])}")
    for name, report in summary["reports"].items():
        if not (isinstance(report["t90"], float) and report["t90"] > 0 and 0 < report["gap"] <= 2):
            problems.append(f"{name}: gap {report['gap']} or t90 {report['t90']} out of range")
    for name, rho in summary["curves"].items():
        problems += _curve_problems(name, rho, workload.nodes)
    if workload.module == "mc_script":
        problems += _monte_carlo_problems(summary, oracle)
    if seed == DEFAULT_SEED and not problems:
        problems += _reference_problems(workload, summary)
    return problems


def _monte_carlo_problems(summary: dict, oracle: dict | None) -> list[str]:
    if oracle is None:
        return ["no exact coverage to compare the Monte Carlo outputs with"]
    rho, want = summary["curves"]["montecarlo"], oracle["rho"]
    if len(rho) > len(want):
        return [f"Monte Carlo curve has {len(rho)} steps, the exact one {len(want)}"]
    problems = []
    worst = max(abs(a - b) for a, b in zip(rho, want))
    if worst > MC_RHO_ATOL:
        problems.append(f"Monte Carlo step curve {worst:.4f} from the exact one, beyond {MC_RHO_ATOL}")
    t90, exact = summary["reports"]["pagerank"]["t90"], oracle["t90"]
    if exact is None or not (isinstance(t90, float) and _close(t90, exact, MC_T90_RTOL)):
        problems.append(f"Monte Carlo t90 {t90} vs exact {exact} beyond {MC_T90_RTOL}")
    return problems


def _reference_problems(workload: Workload, summary: dict) -> list[str]:
    path = REFERENCE_DIR / f"{workload.name}.json"
    if not path.is_file():
        return [f"missing reference {path.name}"]
    ref = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if summary["links"] != ref["links"]:
        problems.append("link files differ from the reference")
    if summary.get("walks") != ref.get("walks"):
        problems.append("sampled walks differ from the reference")
    if summary["reports"].keys() != ref["reports"].keys() or summary["curves"].keys() != ref["curves"].keys():
        return problems + ["report set differs from the reference"]
    for name, report in summary["reports"].items():
        want = ref["reports"][name]
        if not _close(report["gap"], want["gap"], GAP_RTOL):
            problems.append(f"{name}: gap {report['gap']!r} vs reference {want['gap']!r}")
        if not _close(report["t90"], want["t90"], T90_RTOL):
            problems.append(f"{name}: t90 {report['t90']!r} vs reference {want['t90']!r}")
    for name, rho in summary["curves"].items():
        want = ref["curves"][name]
        if len(rho) != len(want) or max(abs(a - b) for a, b in zip(rho, want)) > CURVE_ATOL:
            problems.append(f"{name}: curve differs from the reference beyond {CURVE_ATOL}")
    return problems


def exact_step_coverage(matrix: np.ndarray, n_nodes: int, steps: int) -> np.ndarray:
    """Expected coverage after 0..steps discrete steps of the walk, without sampling.

    Walkers start on the layer-0 replica of every node, as in the program.
    ``alive[s, i]`` is the probability that a walk from supra-state s has not
    reached any replica of target i yet; one step is ``matrix @ alive`` with
    the replicas of each target removed. Coverage at a step is one minus the
    mean over origins and targets of that survival.
    """
    owner = np.arange(matrix.shape[0]) % n_nodes
    outside = (owner[:, None] != np.arange(n_nodes)[None, :]).astype(float)
    alive = outside.copy()
    rho = np.empty(steps + 1)
    for step in range(steps + 1):
        if step:
            alive = (matrix @ alive) * outside
        rho[step] = 1.0 - alive[:n_nodes].sum() / n_nodes**2
    return rho


def clock_t90(rho: np.ndarray) -> float | None:
    """First continuous time at which the Poisson(t) mixture of a step curve reaches 0.9."""
    k = np.arange(rho.size)

    def coverage(t: float) -> float:
        return float(stats.poisson.pmf(k, t) @ rho) if t > 0 else float(rho[0])

    high = 1.0
    while coverage(high) < 0.9:
        high *= 2.0
        if high > 0.75 * rho.size:  # beyond this the truncated steps carry weight
            return None
    low = 0.0
    while high - low > 1e-10 * high:
        middle = (low + high) / 2
        if coverage(middle) >= 0.9:
            high = middle
        else:
            low = middle
    return high


def monte_carlo_oracle(workload: Workload, csv_path: Path) -> dict:
    """What the Monte Carlo outputs are checked against, with the analytic t90 beside it.

    ``rho`` and ``t90`` are the exact expected coverage of the pagerank walk
    that the script samples, computed by ``exact_step_coverage``. The
    analytic t90 of the program's spectral curve is recorded but not
    checked: that curve is a mean-field approximation of the walk and can
    miss the exact t90 by more than sampling error (README.md, "Output
    checks").
    """
    from multinav import build_multiplex, navigability_report, parse_edge_list, trim_edges
    from multinav.navigability import DegradedDecompositionError
    from multinav.walks import PAGERANK, build_supra_transition

    edges = parse_edge_list(csv_path)
    kept = trim_edges(edges.edges, ratio=float(TRIM))
    net = build_multiplex(kept, n_layers=edges.n_layers, directed=workload.directed, labels=edges.labels)
    rho = exact_step_coverage(build_supra_transition(net, PAGERANK).matrix, net.n_nodes, EXACT_STEPS)
    try:
        analytic = navigability_report(net, PAGERANK).t90
    except (DegradedDecompositionError, np.linalg.LinAlgError):
        analytic = None  # recorded only; the check does not use it
    return {"rho": rho.tolist(), "t90": clock_t90(rho), "analytic_t90": analytic}
