#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread across seeds.

    python3 pipebench/spread.py --seeds 1-10 --out set1.json
    python3 pipebench/spread.py --seeds 11-20 --out set2.json \\
        --compare set1.json

Runs pipebench/run.py once per (workload, seed) for every workload of
BENCHMARK.json, for its run_seconds, tracing off, and prints for every
end-to-end metric the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
With --compare, it also prints how far each median moved from an earlier
set.  Runs are sequential; expect seeds × workloads × (run_seconds + ~10 s).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", help="write every run's result here (JSON)")
    ap.add_argument("--compare", help="a file an earlier --out wrote")
    args = ap.parse_args()

    runs = {}
    for workload in bench["workloads"]:
        w = workload["name"]
        runs[w] = []
        for seed in seed_list(args.seeds):
            got = subprocess.run(
                [sys.executable, str(ROOT / "pipebench" / "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            if got.returncode != 0:
                sys.stderr.write(got.stdout + got.stderr)
                return 1
            lines = got.stdout.strip().split("\n")
            result = json.loads(lines[-1])
            result["report"] = lines[:-1]
            runs[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()),
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    earlier = json.loads(Path(args.compare).read_text()) if args.compare \
        else {}

    print(f"\n{'workload':16} {'metric':14} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'vs bound':>9}" +
          (f" {'moved':>8}" if earlier else ""))
    ok = True
    for w, results in runs.items():
        for m in bench["end_to_end"]:
            name = m["name"]
            med, share = spread([r["metrics"][name]["value"]
                                 for r in results])
            line = (f"{w:16} {name:14} {med:12.6g} {share:8.2%} "
                    f"{m['bound']:6.2f} {share / m['bound']:9.2f}")
            if share > m["bound"]:
                ok = False
            if w in earlier:
                old = statistics.median(r["metrics"][name]["value"]
                                        for r in earlier[w])
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                line += f" {worse:+8.2%}"
                if worse > m["bound"]:
                    ok = False
            print(line)
        if not all(r["correct"] for r in results):
            ok = False
            print(f"{w}: a run reported correct=false")
    print("\nwithin bounds" if ok else "\nOUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
