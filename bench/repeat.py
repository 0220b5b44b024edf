#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/repeat.py --workload landscape --seeds 1-10 --trace 0
    python3 bench/repeat.py --workload all --seeds 1-10 --trace 1 --out bench/baseline.json

Runs are sequential. For each metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median; for an end-to-end metric it also prints the bound
from ``BENCHMARK.json`` and whether the spread stays under a third of
it. ``--out`` merges the summary into a JSON file, keyed by workload
and trace mode, with the environment of the last run.
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


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["env"] = record["env"]
    return result


def summarize(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": results[0]["metrics"][name]["unit"], "values": values}
        if name in bounds:
            summary[name]["bound"] = bounds[name]
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True, help="a workload name, or all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if "all" in args.workload else args.workload
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    stored = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    worst = 0.0
    for workload in names:
        results = [run_once(workload, seed, seconds, args.trace) for seed in seed_range(args.seeds)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload} trace={args.trace}: {len(results)} runs, {failed}/{attempted} ops failed")
        summary = summarize(results, bounds)
        for name, s in summary.items():
            verdict = ""
            if "bound" in s:
                verdict = f"bound {s['bound']:.2f} {'ok' if s['spread'] < s['bound'] / 3 else 'WIDE'}"
                if name != "setup_s":
                    worst = max(worst, s["spread"] / s["bound"])
            print(f"  {name:<48} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:7.4f} {s['unit']:<9} {verdict}")
        entry = stored.setdefault(workload, {})
        entry[f"trace{args.trace}"] = {"runs": len(results), "seeds": args.seeds, "seconds": seconds,
                                       "ops_failed": failed, "ops_attempted": attempted, "metrics": summary}
        stored["env"] = {k: v for k, v in results[-1]["env"].items() if k != "seed"}
    print(f"largest end-to-end spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
