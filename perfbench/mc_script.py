"""Monte Carlo navigability of one network, driven through the library.

No CLI command reaches the walker sampler, so this script is the program
call of the ``montecarlo-directed`` workload. It trims and builds the
network as the CLI does, builds the pagerank supra-transition matrix, takes
its spectral gap, estimates coverage with ``coverage_montecarlo``, moves the
step curve onto the continuous clock with ``poisson_clock`` to read t90,
and samples one ``simulate_walk`` per origin, all at the trim ratio of the
CLI workloads. Layer functions are called
through their modules so that a tracer can wrap them.

    PYTHONPATH=src:perfbench python3 -m mc_script --input net.csv --out out --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from multinav import multiplex, navigability, walks
from workloads import TRIM

WALKERS = 100  # per origin; puts the sampling error of t90 near 1%
HORIZON = 400  # steps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    edges = multiplex.parse_edge_list(args.input)
    kept = multiplex.trim_edges(edges.edges, ratio=float(TRIM))
    net = multiplex.build_multiplex(kept, n_layers=edges.n_layers, directed=True, labels=edges.labels)
    supra = walks.build_supra_transition(net, walks.PAGERANK)
    gap = navigability.spectral_gap(supra)
    steps = navigability.coverage_montecarlo(supra, WALKERS, HORIZON, args.seed)
    # the horizon sits several Poisson standard deviations beyond the last time
    times = np.concatenate([[0.0], np.logspace(-2.0, np.log10(0.75 * HORIZON), 300)])
    clock = navigability.poisson_clock(steps, times)
    t90 = navigability.time_to_coverage(clock)
    digest = hashlib.sha256()
    for origin in range(net.n_nodes):
        walk = walks.simulate_walk(supra, origin, HORIZON, args.seed)
        digest.update(np.asarray(walk.steps, dtype=np.int64).tobytes())

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = {"gap": gap, "t90": t90, "rho": steps.rho.tolist(), "walks_sha256": digest.hexdigest()}
    (out / "result.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
