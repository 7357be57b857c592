"""Live-serving benchmark of the Tiny-VBF reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload live_tiny_vbf --seed 1 \\
        --seconds 16 --trace 0

Each run starts fresh processes (``perfbench/live.py``):

1. a throwaway process that writes the workload's base acquisitions
   and fills the compiled-kernel cache (users pay that compile once per
   machine, so it is kept out of ``setup_s``);
2. ``SETUP_RUNS`` cold set-ups, each timed from process start to the
   first image of every session through the gateway;
3. the measured run, which times one more set-up and then serves the
   workload (see ``live.py``).

``setup_s`` is the median of all timed set-ups.  With ``--trace 0`` the
result carries the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the per-layer ones.  The second-to-last stdout line holds
the details: host fingerprint, tail percentile and sample count,
failure counts and the raw set-up samples.  The last line is the
result.  The process exits 1 if any frame failed or any metric is
missing, and 2 if the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Cold set-ups timed in their own processes (the measured run adds one).
SETUP_RUNS = 2
#: Limits per child process, in seconds: together under three minutes,
#: except that the throwaway process may have to compile the kernels.
PREPARE_TIMEOUT_S = 600
SETUP_TIMEOUT_S = 25
SERVE_TIMEOUT_S = 120


class ChildFailed(RuntimeError):
    """A benchmark child process failed or printed no result."""


def child(mode: str, args, root: Path, env: dict, timeout: float,
          *extra: str) -> dict:
    """Run ``live.py <mode>`` to completion; return its last JSON line."""
    command = [
        sys.executable, str(HERE / "live.py"), mode,
        "--workload", args.workload,
        "--work", str(root / ".bench_build" / "perfbench"),
        "--t0", repr(time.monotonic()), *extra,
    ]
    try:
        proc = subprocess.run(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} timed out after {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} exited {proc.returncode} with no result")
    try:
        payload = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"{mode} printed no result: {lines[-1]!r}") from exc
    payload["returncode"] = proc.returncode
    if mode != "serve" and proc.returncode != 0:
        raise ChildFailed(f"{mode} exited {proc.returncode}")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro").is_dir() or not spec_path.is_file():
        print("run from the root of a checkout holding src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    env["REPRO_CNATIVE_CACHE"] = str(
        root / ".bench_build" / "perfbench" / "cnative"
    )
    try:
        child("prepare", args, root, env, PREPARE_TIMEOUT_S)
        setups = [
            child("setup", args, root, env, SETUP_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_RUNS)
        ]
        run = child(
            "serve", args, root, env, SERVE_TIMEOUT_S,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        )
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    measured = dict(run["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    details = dict(run["details"], workload=args.workload, seed=args.seed,
                   setup_samples=setups, missing_metrics=missing)
    print(json.dumps(details))
    correct = run["returncode"] == 0 and run["failed"] == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in measured
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
