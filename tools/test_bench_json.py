#!/usr/bin/env python3
"""Pinned-input tests for bench_json.py.

Feeds a hand-written 3-row bench CSV through the converter as a
subprocess and compares the whole JSON document it writes: the bench
name, the key=value config (numbers parsed), the *_modes summaries of
the sweep dimensions, and every row with numeric cells parsed.  Also
checks that an explicit *_modes argument wins over the summary and the
exit-2 usage contract.

Run directly (python3 tools/test_bench_json.py) or via ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_json.py")

CSV = """\
circuit,nodes,strategy,throttle,activity,lanes,app_messages,weighted_imbalance
s9234,2,Multilevel,adaptive,off,64,1200,1.010
s9234,2,MultilevelHG,unlimited,profile,1,987,1.25
s9234,4,Multilevel,adaptive,profile,64,2411,n/a
"""


def run_tool(*args):
    return subprocess.run([sys.executable, TOOL, *args],
                          capture_output=True, text=True)


class BenchJsonTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.csv = os.path.join(self.tmp.name, "fig5_messaging.csv")
        with open(self.csv, "w") as f:
            f.write(CSV)
        self.out = os.path.join(self.tmp.name, "BENCH_fig5.json")

    def convert(self, *extra):
        res = run_tool(self.csv, self.out, *extra)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertEqual(res.stdout, f"{self.out}: 3 rows\n")
        with open(self.out) as f:
            text = f.read()
        self.assertTrue(text.endswith("}\n"))
        return json.loads(text)

    def test_full_document(self):
        doc = self.convert("scale=0.1", "circuit=s9234", "repeats=3")
        self.assertEqual(doc, {
            "bench": "fig5_messaging",
            "config": {
                "scale": 0.1,
                "circuit": "s9234",
                "repeats": 3,
                "throttle_modes": "adaptive,unlimited",
                "activity_modes": "off,profile",
                "lanes_modes": "1,64",
            },
            "rows": [
                {"circuit": "s9234", "nodes": 2, "strategy": "Multilevel",
                 "throttle": "adaptive", "activity": "off", "lanes": 64,
                 "app_messages": 1200, "weighted_imbalance": 1.01},
                {"circuit": "s9234", "nodes": 2, "strategy": "MultilevelHG",
                 "throttle": "unlimited", "activity": "profile",
                 "lanes": 1, "app_messages": 987,
                 "weighted_imbalance": 1.25},
                {"circuit": "s9234", "nodes": 4, "strategy": "Multilevel",
                 "throttle": "adaptive", "activity": "profile", "lanes": 64,
                 "app_messages": 2411, "weighted_imbalance": "n/a"},
            ],
        })

    def test_explicit_modes_argument_wins(self):
        doc = self.convert("throttle_modes=adaptive,unlimited,fixed")
        self.assertEqual(doc["config"]["throttle_modes"],
                         "adaptive,unlimited,fixed")
        self.assertEqual(doc["config"]["activity_modes"], "off,profile")

    def test_usage_error_exits_2(self):
        res = run_tool(self.csv)
        self.assertEqual(res.returncode, 2)
        self.assertIn("Usage:", res.stderr)
        self.assertFalse(os.path.exists(self.out))


if __name__ == "__main__":
    unittest.main()
