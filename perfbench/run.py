"""Run one benchmark workload and print its metrics as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-paper --seed 1 --seconds 20 --trace 0

Every workload runs in fresh interpreters (``python -m perfbench.worker``)
on the serial path, with the environment variables of the chaos and
warm-cache CI lanes removed.  ``--trace 0`` starts ``SETUP_RUNS`` processes
— all but the last stop after set-up — and reports the end-to-end metrics:
``setup_s`` is the median set-up time, the rest come from the last process.
``--trace 1`` runs an untraced process, then a traced one, and reports the
per-layer metrics of the traced one, with ``trace.overhead_ratio`` = traced
``wall_s`` / untraced ``wall_s``.

The work per run is fixed; ``--seconds`` is the nominal length of the timed
region, which every workload is sized to on a 2-core host.  Spans of traced
runs are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SETUP_RUNS,
    WORKLOADS,
    end_to_end_values,
    with_units,
)

#: Variables the chaos and warm-cache lanes export; a run must not see them.
CLEARED_ENV = (
    "REPRO_FAULT_RATE",
    "REPRO_FAULT_SEED",
    "REPRO_CACHE_ROOT",
    "REPRO_CACHE_SIZE",
    "REPRO_PANEL_LAYOUT",
)

#: Every run, all of its processes included, ends within this many seconds.
RUN_BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Fixed string hashing, so set and dict layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(
    args: argparse.Namespace, mode: str, workdir: Path, deadline: float
) -> dict:
    """Start one worker, wait for it, and return its result plus ``setup_s``."""
    command = [
        sys.executable,
        "-m",
        "perfbench.worker",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--mode",
        mode,
        "--workdir",
        str(workdir),
    ]
    if mode == "trace":
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        command += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("time budget spent before the run finished")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process exceeded the time budget") from None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["setup_s"] = result["region_start"] - spawned
    return result


def measure(args: argparse.Namespace, workdir: Path, deadline: float) -> dict:
    setups = [
        run_child(args, "setup", workdir, deadline)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    result = run_child(args, "measure", workdir, deadline)
    values = end_to_end_values(
        wall_s=result["wall_s"],
        setup_s=statistics.median(setups + [result["setup_s"]]),
        peak_rss_mb=result["peak_rss_mb"],
        ok=result["ok"],
        attempted=result["attempted"],
    )
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": with_units(values, END_TO_END),
    }


def trace(args: argparse.Namespace, workdir: Path, deadline: float) -> dict:
    untraced = run_child(args, "measure", workdir, deadline)
    traced = run_child(args, "trace", workdir, deadline)
    repeats = untraced["digest"] == traced["digest"]
    print(f"check {'ok  ' if repeats else 'FAIL'} outputs repeat in both processes")
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    return {
        "correct": repeats and untraced["correct"] and traced["correct"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": with_units(values, PER_LAYER),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--workload", required=True, choices=[name for name, _ in WORKLOADS]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile once up front so no measured process pays for bytecode.
    compileall.compile_dir(ROOT / "src", quiet=2)
    compileall.compile_dir(ROOT / "perfbench", quiet=2)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        summary = (trace if args.trace else measure)(args, workdir, deadline)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
