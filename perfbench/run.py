"""multinav benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pipeline-rwc --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 1

Run from the root of a source checkout; the program is imported from
``src/``. Set-up writes the workload's seeded CSV and starts worker.py, a
program process that imports the program module once; it is done several
times and each is a ``setup_s`` sample. For ``--seconds`` the run then has
the last worker call the program's ``main`` on the CSV again and again, and
checks every call's outputs. With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json (see ``measure``); with ``--trace 1`` it makes
untraced and traced calls and the scaling probe and reports the per-layer
metrics. The last line of standard output is the result as JSON. See
README.md for the workloads and the noise behind these choices.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed before numpy loads, here and in every child.
# One thread: on a shared 2-core host, two threads made the quartile spread
# of wall_s between runs half as wide again, and these matrices are too small
# (dim <= 200) for a second thread to help.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

SETUP_REPEATS = 5
TRACE_PAIRS = 2
MIN_CALLS = 3
CALL_TIMEOUT_S = 60
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH)])}


class WorkerDied(RuntimeError):
    pass


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per trace mode, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


class Worker:
    """worker.py in a child process, started from the checkout root; see its docstring."""

    def __init__(self, module: str, log: Path):
        with open(log, "wb") as stderr:
            self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), module], cwd=ROOT,
                                         env=CHILD_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=stderr, text=True)
        self.request(None)

    def request(self, message: dict | None) -> dict:
        """Send ``message`` (None: only read) and return the answer, within CALL_TIMEOUT_S."""
        timer = threading.Timer(CALL_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            if message is not None:
                self.proc.stdin.write(json.dumps(message) + "\n")
                self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        finally:
            timer.cancel()
        if not line:
            self.kill()
            raise WorkerDied(f"worker ended with exit code {self.proc.returncode}")
        return json.loads(line)

    def close(self) -> float | None:
        """End the worker; its peak resident memory in MB, or None if it had ended already."""
        if self.proc.returncode is not None:
            return None
        self.proc.stdin.close()
        timer = threading.Timer(CALL_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


class Run:
    """Inputs, worker, calls and checks of one workload run in its own directory."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = RUNS / f"{workload.name}-seed{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.csv = self.dir / "input.csv"
        self.calls = 0
        self.failed = 0
        self.input: dict = {}
        self.worker: Worker | None = None
        self.oracle: dict | None = None

    def setup(self, repeats: int) -> list[float]:
        """Write the seeded input and start a worker, ``repeats`` times; the seconds each took.

        Only the last worker is kept. Import-time work of the program counts
        here, as it does for every CLI call.
        """
        seconds = []
        for k in range(repeats):
            self.stop()
            start = time.perf_counter()
            self.input = workloads.make_input(self.workload, self.seed, self.csv)
            self.worker = Worker(self.workload.module, self.dir / f"worker{k}.log")
            seconds.append(time.perf_counter() - start)
        if self.workload.module == "mc_script":
            self.oracle = workloads.monte_carlo_oracle(self.workload, self.csv)
        return seconds

    def stop(self) -> float | None:
        """End the worker, if there is one; see ``Worker.close``."""
        worker, self.worker = self.worker, None
        return worker.close() if worker is not None else None

    def program_args(self, out: Path) -> list[str]:
        """Arguments of ``main``, with paths relative to the checkout root."""
        csv_path, out_path = (str(p.relative_to(ROOT)) for p in (self.csv, out))
        return self.workload.args(csv_path, out_path, self.seed)

    def invoke(self, out: Path, trace: bool = False) -> dict:
        """One program call in the worker, unchecked; the worker's answer."""
        return self.worker.request({"argv": self.program_args(out), "trace": trace})

    def call(self, trace: bool = False) -> tuple[bool, dict]:
        """One program call in the worker, checked; (ok, the worker's answer).

        The answer gains ``artifact_bytes``, the size of what the call wrote.
        """
        self.calls += 1
        out = self.dir / f"out{self.calls}"
        try:
            reply = self.invoke(out, trace)
        except WorkerDied as exc:
            reply = {"code": None, "output": str(exc)}
        problems = [f"exit code {reply['code']}"] if reply["code"] != 0 else workloads.check(
            self.workload, out, self.seed, self.oracle)
        if problems:
            self.failed += 1
            print(f"call {self.calls} failed: {'; '.join(problems)}\n{reply.get('output', '')}", file=sys.stderr)
        else:
            reply["artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
            shutil.rmtree(out)
        return not problems, reply


def measure(run: Run, seconds: float) -> dict[str, float]:
    """End-to-end metrics of the calls made in ``seconds``.

    wall_s and cpu_s are the fastest call's: the host's slow phases come and
    go, and over a whole run the fastest call is the one they disturbed
    least (README.md, "Noise and bounds"). setup_s is the median set-up,
    peak_rss_mb the worker's peak over all its calls.
    """
    setups = run.setup(SETUP_REPEATS)
    walls, cpus = [], []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and (
        len(walls) < MIN_CALLS or time.monotonic() + statistics.median(walls) <= deadline
    ):
        _, reply = run.call()
        if run.worker.proc.returncode is not None:
            break
        walls.append(reply["wall_s"])
        cpus.append(reply["cpu_s"])
    rss = run.stop()
    if not walls or rss is None:
        return {}
    print(f"# calls {len(walls)}: wall_s min {min(walls):.4f} max {max(walls):.4f}, "
          f"each {[round(w, 3) for w in walls]}")
    print(f"# setup_s each {[round(s, 4) for s in setups]}")
    return {"wall_s": min(walls), "cpu_s": min(cpus), "peak_rss_mb": rss,
            "setup_s": statistics.median(setups), "ok_share": (run.calls - run.failed) / run.calls}


def trace(run: Run) -> dict[str, float]:
    """Per-layer metrics from alternating untraced and traced calls in one worker, and the probe.

    The traced call with the lowest wall time gives the layer metrics; the
    tracing overhead is the fastest traced call minus the fastest untraced one.
    """
    startup_s, = run.setup(1)
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        for calls, trace_on in ((untraced, False), (traced, True)):
            ok, reply = run.call(trace_on)
            if not ok:
                return {}
            calls.append(reply)
    probe = run.worker.request({"probe": run.seed})["trace"]
    run.stop()
    best = min(traced, key=lambda reply: reply["wall_s"])
    return tracer.layer_metrics({**best, "startup_s": startup_s}, probe,
                                min(reply["wall_s"] for reply in untraced))


def run_workload(name: str, seed: int, seconds: float, traced: bool, units: dict[str, str]) -> dict:
    run = Run(workloads.WORKLOADS[name], seed)
    try:
        metrics = trace(run) if traced else measure(run, seconds)
    except WorkerDied as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        metrics = {}
    finally:
        if run.worker is not None:
            run.worker.kill()
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and not missing,
        "attempted": max(run.calls, 1),
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    t90s = {k: run.oracle[k] for k in ("t90", "analytic_t90")} if run.oracle else {}
    record = {"workload": name, "seed": seed, "trace": traced, "input": run.input,
              "pagerank_t90": t90s, "environment": environment(), **result}
    print("# input " + json.dumps(run.input, sort_keys=True))
    if t90s:
        print(f"# pagerank t90: exact {t90s['t90']}, analytic (not checked) {t90s['analytic_t90']}")
    for key, metric in result["metrics"].items():
        print(f"# {name:20s} {key:32s} {metric['value']:16.6g} {metric['unit']}")
    (RUNS / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if result["correct"]:
        shutil.rmtree(run.dir)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through run_workload so that the worker is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "multinav" / "cli.py").is_file():
        print(f"no multinav sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    print("# environment " + json.dumps(environment(), sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), units) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}:{k}": v for name, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
