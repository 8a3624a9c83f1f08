"""Rewrite the committed references from one call per workload at the default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Only for a change that alters results on purpose: the new references go in
the same commit, and CHANGES.md says why the results moved.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main(names: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        bench = run.Run(workloads.WORKLOADS[name], workloads.DEFAULT_SEED)
        bench.setup(1)
        out = bench.dir / "reference"
        code = bench.invoke(out)["code"]
        bench.stop()
        if code:
            print(f"{name}: exit code {code}, see {bench.dir}", file=sys.stderr)
            return 1
        summary = workloads.summarize(bench.workload, out)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(summary, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: wrote {path.relative_to(run.ROOT)}")
        shutil.rmtree(bench.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
