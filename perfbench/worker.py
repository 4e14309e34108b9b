"""One workload process: ``python -m perfbench.worker`` (started by ``run.py``).

Modes:

* ``setup``   — imports and set-up only; reports when set-up ended;
* ``measure`` — set-up, the untraced timed region, then the checks;
* ``trace``   — the same with every probe of :mod:`perfbench.tracing`
  installed from the first import on; writes the spans at exit.

The last line on stdout is one JSON object for the harness.  Nothing
here imports the program before the ``imports`` span starts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

from perfbench.metrics import layer_values
from perfbench.tracing import Tracer, default_probes, install


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where trace mode writes its spans")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.mode == "trace" else None
    probes = None
    if tracer is not None:
        with tracer.span("imports"):
            workloads = importlib.import_module("perfbench.workloads")
        probes = install(default_probes(), tracer)
    else:
        workloads = importlib.import_module("perfbench.workloads")
    workload = workloads.WORKLOAD_TYPES[args.workload](args.seed, args.workdir)
    try:
        workload.setup()
        region_start = time.clock_gettime(time.CLOCK_MONOTONIC)
        if args.mode == "setup":
            print(json.dumps({"region_start": region_start}))
            return 0
        start = time.perf_counter()
        outputs = workload.run()
        wall_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        # Undo in reverse order of installation; the checks run untraced.
        workload.close()
        if probes is not None:
            probes.restore()
    outcome = workload.check(outputs)
    for name, passed in outcome.checks.items():
        print(f"check {'ok  ' if passed else 'FAIL'} {name}")
    for line in outcome.lines:
        print(line)
    result = {
        "region_start": region_start,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "ok": outcome.ok,
        "failed": outcome.failed,
        "correct": outcome.correct,
        "digest": outcome.digest,
    }
    if tracer is not None:
        counters = {**tracer.counters, **outcome.counters}
        result["layers"] = layer_values(tracer.spans, counters)
        if args.spans is not None:
            tracer.write(args.spans)
            print(f"spans: {len(tracer.spans)} written to {args.spans}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
