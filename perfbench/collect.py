"""Repeat run.py over seeds and summarize, or compare two such summaries.

    python3 perfbench/collect.py run --seeds 1-10 --out perfbench/out/set1.json
    python3 perfbench/collect.py compare perfbench/out/set1.json perfbench/out/set2.json
    python3 perfbench/collect.py baseline SET1 SET2 TRACED --out perfbench/baseline.json

`run` makes one run per workload of BENCHMARK.json and seed, one after
another, each of its run_seconds, and records every value, the unscaled
wall-clock figures included.  Per metric it adds
the median, the quartiles (statistics.quantiles with n=4) and the spread:
the distance between the quartiles as a share of the median.  `compare`
prints, per workload and end-to-end metric, how far the second set's median
moved from the first's, in the direction that is worse, against the bound
fixed in BENCHMARK.json.  It exits 1 if any moved by more than its bound or
spread wider than its bound in either set.  `baseline` bundles two
untraced sets and one traced set into the file later changes compare with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"values": values, "median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else None}


def run_set(seeds: list[int], trace: int) -> dict:
    workloads = [w["name"] for w in spec()["workloads"]]
    seconds = spec()["run_seconds"]
    runs: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    context: dict = {}
    for workload in workloads:
        for seed in seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                                 f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("context: "):
                    run_context = json.loads(line[len("context: "):])
                    budget = run_context.pop("per_call_budget")
                    del run_context["seed"]
                    context.update(run_context)
                    context.setdefault("per_call_budget", {})[workload] = budget
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: wrong output\n{done.stdout}")
            for name, metric in result["metrics"].items():
                runs.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json")
                                .read_text(encoding="ascii"))
            for name, value in record["wall_clock"].items():
                runs[workload].setdefault(f"wall_clock.{name}", []).append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return {"seeds": seeds, "trace": trace, "context": context, "units": units,
            "workloads": {w: {name: summarize(values) for name, values in metrics.items()}
                          for w, metrics in runs.items()}}


def compare(first: dict, second: dict) -> bool:
    ok = True
    for metric in spec()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload, metrics in first["workloads"].items():
            a, b = metrics[name], second["workloads"][workload][name]
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spreads = max(a["spread"] or 0.0, b["spread"] or 0.0)
            bad = worse > bound or spreads > bound
            ok = ok and not bad
            print(f"{workload:6} {name:14} median {a['median']:.5g} -> {b['median']:.5g}  "
                  f"worse by {worse:+.2%}  spread {a['spread']:.2%} / {b['spread']:.2%}  "
                  f"bound {bound:.0%}{'  OVER' if bad else ''}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description="repeat and summarize benchmark runs")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p = sub.add_parser("baseline")
    p.add_argument("sets", nargs=3, metavar="SET", help="two untraced sets, then a traced one")
    p.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.command == "baseline":
        first, second, traced = [json.loads(Path(path).read_text(encoding="ascii"))
                                 for path in args.sets]
        baseline = {"untraced": [first, second], "traced": traced}
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="ascii")
        return 0
    if args.command == "compare":
        sets = [json.loads(Path(path).read_text(encoding="ascii"))
                for path in (args.first, args.second)]
        return 0 if compare(*sets) else 1
    low, high = map(int, args.seeds.split("-"))
    summary = run_set(list(range(low, high + 1)), args.trace)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
