"""The graphcode benchmark: one workload, one run, every metric.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/.
Workloads (see workloads.py and BENCHMARK.json for why each exists):

  atlas  code() on all 1,252 graphs with 1-7 vertices, shuffled by the seed,
         after one checked warm-up pass in file order.
  gnp    code() on a seeded G(n, p) ladder, n = 8..20 step 2, p in
         {0.3, 0.5, 0.8}, under a per-call budget of 10^5 nodes.
  cli    graphcode.cli.main in-process: verify, divisor and iso --oracle.

With --trace 0 the run starts the workload in fresh processes several times
to time set-up, then once more for the measured closed loop, and prints
the end-to-end metrics.  For cli, the graph files are written once, before
any of these processes starts.  With --trace 1 it prints the per-layer metrics
from span wrappers instead (see spans.py).  Human-readable lines come
first, with units, sample counts and the run's context; the last line is
one JSON object.  Any wrong output fails the run (exit code 1).  The full
record is also written to perfbench/out/.

Timings are given at the reference speed.  On a shared 2-vCPU virtual
machine, speed swung by up to 1.8x between processes and over minutes,
more than any bound.  So each process also times a fixed pure-Python
reference task (workloads.reference_task) every 0.25 s between operations,
and each operation's time is multiplied by REFERENCE_S over the task's
median time around that operation (workloads.scaled).  Set-up time is
multiplied by REFERENCE_S over the task's median time right after set-up:
with the cli files written beforehand, set-up is interpreter start,
imports and input building, all CPU work.  On that machine this halved the
run-to-run spread.  The unscaled wall-clock figures are printed on their
own line and kept in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphcode").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def start_worker(args, extra: list[str]) -> dict:
    """Run workloads.py in a fresh interpreter and return its JSON report."""
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--cli-dir", str(args.cli_dir),
               "--spawned-at", repr(time.monotonic())] + extra
    remaining = RUN_LIMIT_S - (time.monotonic() - args.started)
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(remaining, 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.started = time.monotonic()
    if not (ROOT / "src" / "graphcode" / "__init__.py").is_file():
        print(f"error: no graphcode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups = []
    args.cli_dir = OUT / f"cli-work-{os.getpid()}"
    try:
        if args.workload == "cli":
            workloads.write_cli_files(args.seed, args.cli_dir)
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(start_worker(args, ["--setup-only"]))
        report = start_worker(args, [])
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(args.cli_dir, ignore_errors=True)
    setups.append(report)
    setup_samples = [r["setup_s"] for r in setups]
    setup_scaled = [r["setup_s"] * workloads.REFERENCE_S / r["setup_reference_s"]
                    for r in setups]
    ops = report["ops"]
    reported = report.get("scaled", ops)

    context = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "per_call_budget": report["budget"],
    }
    samples = {
        "ops": ops["attempted"],
        "op_tail_ms": f"p{ops['tail_percentile']} of {ops['attempted']} samples, "
                      f"{reported['tail_samples_beyond']} beyond it",
        "setup_s": len(setup_samples),
    }
    raw = {}
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["trace"]["metrics"].items()}
        metrics["setup.import_s"] = {"value": report["setup"]["import_s"], "unit": "s"}
        metrics["setup.inputs_s"] = {"value": report["setup"]["inputs_s"], "unit": "s"}
    else:
        raw = {"ops_per_s": ops["ops_per_s"], "op_p50_ms": ops["op_p50_ms"],
               "op_tail_ms": ops["op_tail_ms"], "setup_s": statistics.median(setup_samples)}
        metrics = {
            "ops_per_s": {"value": reported["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": reported["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": reported["op_tail_ms"], "unit": "ms"},
            "decided_share": {"value": ops["decided_share"], "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    failures = report["failures"]
    correct = not failures and ops["failed"] == 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("context: " + json.dumps(context, sort_keys=True))
    print(f"operations: {ops['attempted']} attempted, {ops['decided']} decided, "
          f"{ops['budget_exhausted']} budget-exhausted, {ops['failed']} failed")
    print("samples: " + json.dumps(samples))
    if raw:
        print("wall clock, unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
              + f"; reference task {report['reference_s'] * 1000:.4g} ms, median of "
              f"{report['references']} (nominal {workloads.REFERENCE_S * 1000:g} ms)")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for failure in failures:
        print(f"WRONG OUTPUT: {failure}")

    OUT.mkdir(exist_ok=True)
    record = {"context": context, "samples": samples, "ops": ops, "metrics": metrics,
              "wall_clock": raw, "reference_s": report.get("reference_s"),
              "setup_samples_s": setup_samples, "setup_scaled_s": setup_scaled,
              "correct": correct, "failures": failures}
    if args.trace:
        record["breakdown"] = report["trace"]["breakdown"]
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="ascii")

    print(json.dumps({"correct": correct, "attempted": ops["attempted"],
                      "failed": ops["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
