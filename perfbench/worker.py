"""Long-lived program process of one benchmark run.

    PYTHONPATH=src:perfbench python3 perfbench/worker.py MODULE

Imports MODULE (``multinav.cli`` or ``mc_script``) once and writes the line
``{"ready": true}``. Then, for each JSON request line on standard input, it
answers with one JSON line on standard output:

* ``{"argv": [...]}`` calls ``MODULE.main(argv)`` and answers with its exit
  code and the call's wall and CPU seconds;
* ``{"argv": [...], "trace": true}`` does the same with the layers wrapped by
  tracer.py, and adds the trace;
* ``{"probe": SEED}`` runs the traced scaling probe and answers with its trace.

The program's own standard output is captured apart from the answers and
returned only when a call fails. The process ends at end of input.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback

import tracer


def cpu_seconds() -> float:
    """User plus system CPU of this process and of any it has waited for."""
    own, children = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def call(module, argv: list[str], trace: tracer.Tracer | None) -> dict:
    captured = io.StringIO()
    cpu, start = cpu_seconds(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = trace.call("cli", module.main, (argv,), {}) if trace else module.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - any failure of the program is a failed call
        code = 1
        captured.write(traceback.format_exc())
    reply = {"code": code, "wall_s": time.perf_counter() - start, "cpu_s": cpu_seconds() - cpu}
    if code:
        reply["output"] = captured.getvalue()[-4000:]
    return reply


def traced(func, *args) -> tuple[object, dict]:
    """Run ``func(tracer, *args)`` with the layers wrapped; (its result, the trace)."""
    trace = tracer.Tracer()
    tracer.install(trace)
    try:
        return func(trace, *args), trace.dump()
    finally:
        trace.uninstall()


def main() -> int:
    module = importlib.import_module(sys.argv[1])
    replies = sys.stdout

    def answer(message: dict) -> None:
        replies.write(json.dumps(message) + "\n")
        replies.flush()

    answer({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        if "probe" in request:
            _, trace = traced(tracer.probe, request["probe"])
            answer({"trace": trace})
        elif request.get("trace"):
            reply, trace = traced(lambda tr: call(module, request["argv"], tr))
            answer({**reply, "trace": trace})
        else:
            answer(call(module, request["argv"], None))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
