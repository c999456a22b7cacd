"""Run one measured pass of a workload's commands in this (fresh) process.

Usage: python3 passrun.py ROOT WORKDIR TRACE

Reads WORKDIR/plan.json, runs each command in-process through
``flens.cli.main`` (imported from ROOT/src) with WORKDIR as the current
directory, and prints one JSON line: per-command exit code and seconds,
the pass wall time, the process's peak RSS and, with TRACE=1, the span
summary.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def main(argv: list[str]) -> int:
    root, workdir, traced = Path(argv[0]), Path(argv[1]), argv[2] == "1"
    sys.path.insert(0, str(root / "src"))
    from flens import cli

    import spans

    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    plan = json.loads((workdir / "plan.json").read_text())
    os.chdir(workdir)
    commands = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for step in plan:
        begin = time.perf_counter()
        with tracer.span("cli") if tracer else nullcontext():
            try:
                code = cli.main(step["argv"])
            except Exception:  # the real CLI would exit 1 with this traceback
                traceback.print_exc()
                code = 1
        commands.append({"label": step["label"], "exit": code, "s": time.perf_counter() - begin})
    wall = time.perf_counter() - start
    result = {
        "commands": commands,
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu_start,
        "peak_rss_mb": spans.peak_rss_mb(),
        "trace": tracer.summary() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
