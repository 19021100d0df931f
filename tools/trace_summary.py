#!/usr/bin/env python3
"""Summarize a pls-warped Perfetto trace.json on the terminal.

Reads the Chrome Trace Event Format file written by --trace (see
src/obs/export.hpp / docs/OBSERVABILITY.md) and prints:

  * per-node, per-phase wall-time breakdown (sum of span durations by
    event name, plus instant counts) — where each node thread spent its
    recorded time;
  * a rollback-storm timeline: rollback instants bucketed over wall time,
    with the events-undone total per bucket, so a storm shows up as a
    dense stripe;
  * GVT round latencies (gvt_start → gvt_done pairing by round, node 0)
    with percentiles, and the GVT-counter progress summary;
  * drop accounting from "otherData" — a truncated ring is reported, not
    silently summarized.

Usage:
    trace_summary.py <trace.json> [--buckets N]

Exit code 1 on malformed input; 0 otherwise (an empty trace is legal).
"""

import json
import sys


def percentile(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    k = (len(sorted_vals) - 1) * p
    lo, hi = int(k), min(int(k) + 1, len(sorted_vals) - 1)
    frac = k - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def fmt_ms(us):
    return f"{us / 1000.0:.3f}ms"


# The kernel's kEndOfTime: the GVT of a run that finished every event.
END_OF_TIME = 2**64 - 1


def fmt_gvt(v):
    return "end" if v == END_OF_TIME else str(v)


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    buckets = 40
    for i, a in enumerate(sys.argv[1:]):
        if a == "--buckets":
            buckets = int(sys.argv[1:][i + 1])
    if len(args) < 1:
        print(__doc__)
        return 1
    try:
        with open(args[0]) as f:
            trace = json.load(f)
        events = trace["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        print(f"trace_summary: cannot read {args[0]}: {e}", file=sys.stderr)
        return 1

    spans = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    counters = [e for e in events if e.get("ph") == "C"]
    if not spans and not instants:
        print("empty trace (no spans or instants)")
        return 0

    # --- per-node per-phase breakdown ---------------------------------
    nodes = sorted({e["tid"] for e in spans + instants})
    print(f"== per-node phase breakdown ({len(nodes)} node(s)) ==")
    for n in nodes:
        by_name = {}
        for e in spans:
            if e["tid"] == n:
                acc = by_name.setdefault(e["name"], [0.0, 0])
                acc[0] += e.get("dur", 0.0)
                acc[1] += 1
        icounts = {}
        for e in instants:
            if e["tid"] == n:
                icounts[e["name"]] = icounts.get(e["name"], 0) + 1
        total = sum(v[0] for v in by_name.values())
        print(f"node {n}: {fmt_ms(total)} recorded in spans")
        for name, (dur, cnt) in sorted(by_name.items(),
                                       key=lambda kv: -kv[1][0]):
            pct = 100.0 * dur / total if total else 0.0
            print(f"  {name:<12} {fmt_ms(dur):>12}  {pct:5.1f}%  x{cnt}")
        for name, cnt in sorted(icounts.items()):
            print(f"  {name:<12} {'-':>12}   inst   x{cnt}")

    # --- rollback-storm timeline --------------------------------------
    rbs = [e for e in instants if e["name"] == "rollback"]
    print(f"\n== rollback timeline ({len(rbs)} rollbacks) ==")
    if rbs:
        t0 = min(e["ts"] for e in rbs)
        t1 = max(e["ts"] for e in rbs)
        width = max(t1 - t0, 1e-9)
        counts = [0] * buckets
        undone = [0] * buckets
        for e in rbs:
            i = min(int((e["ts"] - t0) / width * buckets), buckets - 1)
            counts[i] += 1
            undone[i] += int(e.get("args", {}).get("undone", 0))
        peak = max(counts)
        bar = "".join(
            " " if c == 0 else
            ("." if c <= peak / 4 else (":" if c <= peak / 2 else "#"))
            for c in counts)
        print(f"  [{bar}]  ({fmt_ms(t0)} .. {fmt_ms(t1)}, "
              f"peak {peak}/bucket)")
        print(f"  events undone total: {sum(undone)}")

    # --- GVT round latency --------------------------------------------
    starts = {}
    durs = []
    for e in instants:
        if e["name"] == "gvt_start":
            starts[e.get("args", {}).get("round")] = e["ts"]
        elif e["name"] == "gvt_done":
            r = e.get("args", {}).get("round")
            if r in starts:
                durs.append(e["ts"] - starts.pop(r))
    print(f"\n== GVT rounds ({len(durs)} completed with matched start) ==")
    if durs:
        durs.sort()
        print(f"  latency p50={fmt_ms(percentile(durs, 0.5))} "
              f"p90={fmt_ms(percentile(durs, 0.9))} "
              f"p99={fmt_ms(percentile(durs, 0.99))} "
              f"max={fmt_ms(durs[-1])}")
    gvt_series = [e for e in counters if e["name"] == "gvt"]
    if gvt_series:
        vals = [e["args"]["value"] for e in gvt_series]
        print(f"  gvt progress: {len(vals)} samples, "
              f"{fmt_gvt(vals[0])} -> {fmt_gvt(vals[-1])}")

    # --- drop accounting ----------------------------------------------
    other = trace.get("otherData", {})
    dropped = {k: v for k, v in other.items()
               if k.startswith("dropped_") and v}
    if dropped:
        print("\n== WARNING: trace rings overflowed ==")
        for k, v in sorted(dropped.items()):
            print(f"  {k}: {v} events lost (oldest overwritten)")
    if other.get("samples_truncated"):
        print(f"  metrics samples truncated: {other['samples_truncated']}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
