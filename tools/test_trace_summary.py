#!/usr/bin/env python3
"""Pinned-input tests for trace_summary.py.

Feeds hand-built Chrome Trace Event files through the summarizer as a
subprocess and asserts on the printed report: the per-node phase
breakdown, the rollback-storm stripe (bucket counts and events-undone
total), the GVT percentile math against hand-computed values, drop
accounting, and the exit-1 contract on malformed input.

Run directly (python3 tools/test_trace_summary.py) or via ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "trace_summary.py")


def run_tool(path, *extra):
    return subprocess.run([sys.executable, TOOL, path, *extra],
                          capture_output=True, text=True)


def span(name, tid, ts, dur):
    return {"ph": "X", "name": name, "tid": tid, "pid": 0,
            "ts": ts, "dur": dur}


def instant(name, tid, ts, args=None):
    e = {"ph": "i", "name": name, "tid": tid, "pid": 0, "ts": ts}
    if args is not None:
        e["args"] = args
    return e


def counter(name, tid, ts, value):
    return {"ph": "C", "name": name, "tid": tid, "pid": 0, "ts": ts,
            "args": {"value": value}}


class TraceSummaryTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, trace, name="trace.json"):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(trace, f)
        return path

    def test_phase_breakdown_sums_and_percentages(self):
        trace = {"traceEvents": [
            span("execute", 0, 0, 3000),
            span("execute", 0, 5000, 1000),
            span("gvt", 0, 9000, 1000),
            span("execute", 1, 0, 500),
            instant("rollback", 1, 100, {"undone": 4}),
        ]}
        r = run_tool(self.write(trace))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("2 node(s)", r.stdout)
        # Node 0: execute 4000us of 5000us total = 80%, two spans.
        self.assertIn("node 0: 5.000ms recorded in spans", r.stdout)
        self.assertIn("execute", r.stdout)
        self.assertIn("80.0%", r.stdout)
        self.assertIn("x2", r.stdout)
        # Node 1's rollback shows up as an instant count.
        self.assertIn("node 1: 0.500ms recorded in spans", r.stdout)

    def test_rollback_stripe_buckets_and_undone_total(self):
        # Three rollbacks at t=0 and one at t=100 with --buckets 4 land in
        # buckets [3, 0, 0, 1]: peak 3 renders '#', the single one ':'.
        trace = {"traceEvents": [
            instant("rollback", 0, 0, {"undone": 5}),
            instant("rollback", 0, 0, {"undone": 5}),
            instant("rollback", 1, 0, {"undone": 5}),
            instant("rollback", 0, 100, {"undone": 2}),
        ]}
        r = run_tool(self.write(trace), "--buckets", "4")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("4 rollbacks", r.stdout)
        self.assertIn("[#  :]", r.stdout)
        self.assertIn("peak 3/bucket", r.stdout)
        self.assertIn("events undone total: 17", r.stdout)

    def test_gvt_percentiles_match_hand_computed_values(self):
        # Matched rounds with latencies 100, 200, 300, 400 us; round 9
        # never completes and the done-without-start round is ignored.
        events = []
        for rnd, (t0, dur) in enumerate([(0, 100), (1000, 200),
                                         (2000, 300), (3000, 400)]):
            events.append(instant("gvt_start", 0, t0, {"round": rnd}))
            events.append(instant("gvt_done", 0, t0 + dur, {"round": rnd}))
        events.append(instant("gvt_start", 0, 9000, {"round": 9}))
        events.append(instant("gvt_done", 0, 9500, {"round": 77}))
        events.append(counter("gvt", 0, 0, 0))
        events.append(counter("gvt", 0, 4000, 350))
        r = run_tool(self.write({"traceEvents": events}))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("4 completed with matched start", r.stdout)
        # Linear-interpolated percentiles over [100, 200, 300, 400]:
        # p50 = 250, p90 = 370, p99 = 397, max = 400.
        self.assertIn("p50=0.250ms", r.stdout)
        self.assertIn("p90=0.370ms", r.stdout)
        self.assertIn("p99=0.397ms", r.stdout)
        self.assertIn("max=0.400ms", r.stdout)
        self.assertIn("gvt progress: 2 samples, 0 -> 350", r.stdout)

    def test_finished_run_gvt_prints_end(self):
        # A run that drains every event publishes GVT = 2^64-1 (the
        # kernel's end-of-time sentinel); the summary names it, never the
        # raw number.  One below the sentinel is an ordinary time.
        events = [span("execute", 0, 0, 10),
                  counter("gvt", 0, 0, 0),
                  counter("gvt", 0, 2000, 2**64 - 2),
                  counter("gvt", 0, 4000, 2**64 - 1)]
        r = run_tool(self.write({"traceEvents": events}))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("gvt progress: 3 samples, 0 -> end", r.stdout)
        self.assertNotIn("18446744073709551615", r.stdout)
        events = [span("execute", 0, 0, 10),
                  counter("gvt", 0, 0, 2**64 - 2)]
        r = run_tool(self.write({"traceEvents": events}))
        self.assertIn("gvt progress: 1 samples, 18446744073709551614 -> "
                      "18446744073709551614", r.stdout)

    def test_drop_accounting_warns(self):
        trace = {"traceEvents": [span("execute", 0, 0, 10)],
                 "otherData": {"dropped_node0": 42, "dropped_node1": 0,
                               "samples_truncated": 7}}
        r = run_tool(self.write(trace))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("WARNING: trace rings overflowed", r.stdout)
        self.assertIn("dropped_node0: 42", r.stdout)
        # Zero-drop entries are not reported.
        self.assertNotIn("dropped_node1", r.stdout)
        self.assertIn("metrics samples truncated: 7", r.stdout)

    def test_empty_trace_is_legal(self):
        r = run_tool(self.write({"traceEvents": []}))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("empty trace", r.stdout)

    def test_malformed_inputs_exit_1(self):
        # Invalid JSON.
        bad = os.path.join(self.tmp.name, "bad.json")
        with open(bad, "w") as f:
            f.write("{not json")
        self.assertEqual(run_tool(bad).returncode, 1)
        # Valid JSON without the traceEvents key.
        self.assertEqual(run_tool(self.write({"foo": 1})).returncode, 1)
        # Missing file.
        missing = os.path.join(self.tmp.name, "nope.json")
        self.assertEqual(run_tool(missing).returncode, 1)
        # No file argument prints usage and exits 1.
        r = subprocess.run([sys.executable, TOOL], capture_output=True,
                           text=True)
        self.assertEqual(r.returncode, 1)


if __name__ == "__main__":
    unittest.main()
