#!/usr/bin/env python3
"""One sweep, three figures: checks bench_fig456's CSVs.

Runs the bench once at a smoke size (--scale 0.05 --end 300
--max-nodes 3, so at most 3 node threads) into a temporary directory and
checks the three CSVs it writes: their headers, a fig4 row for every
strategy at 1, 2 and 3 nodes, fig5 and fig6 rows with the same keys at 2
and 3 nodes, and, because each cell runs once and fills all three files,
the same rollback count in fig5 and fig6 for every cell.

Run directly (python3 tests/bench_fig456_test.py path/to/bench_fig456)
or via ctest.
"""

import csv
import os
import subprocess
import sys
import tempfile
import unittest

BENCH = None  # set from argv in __main__

STRATEGIES = ["Random", "DFS", "Cluster", "Topological", "Multilevel",
              "ConePartition", "MultilevelHG"]
KEY = ["circuit", "nodes", "strategy", "throttle", "activity"]
HEADERS = {
    "fig4_execution_time.csv": KEY + [
        "seconds", "seq_seconds", "lanes", "events_per_s", "trans_per_s",
        "trans_per_s_per_lane"],
    "fig5_messaging.csv": KEY + [
        "app_messages", "anti_messages", "rollbacks", "static_comm_volume",
        "weighted_imbalance"],
    "fig6_rollbacks.csv": KEY + [
        "rollbacks", "committed_events", "events_processed",
        "events_rolled_back", "rollback_fraction"],
}


class OneSweepTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.addClassCleanup(cls.tmp.cleanup)
        res = subprocess.run(
            [BENCH, "--scale", "0.05", "--end", "300", "--max-nodes", "3",
             "--csv", cls.tmp.name],
            capture_output=True, text=True, timeout=100)
        if res.returncode != 0:
            raise AssertionError(f"exit status {res.returncode}\n{res.stderr}")
        cls.stdout = res.stdout
        cls.headers = {}
        cls.rows = {}
        for name in HEADERS:
            with open(os.path.join(cls.tmp.name, name), newline="") as f:
                reader = csv.DictReader(f)
                cls.headers[name] = reader.fieldnames
                cls.rows[name] = {tuple(row[k] for k in KEY): row
                                  for row in reader}

    def test_tables(self):
        for title in ("Figure 4 — s9234 execution times",
                      "Figure 5 — s9234 application messages",
                      "Figure 6 — s9234 total rollbacks"):
            self.assertIn(title, self.stdout)

    def test_headers(self):
        for name, header in HEADERS.items():
            self.assertEqual(self.headers[name], header, name)

    def test_row_keys(self):
        def keys(nodes):
            return {("s9234", str(k), s, "adaptive", "off")
                    for k in nodes for s in STRATEGIES}
        self.assertEqual(set(self.rows["fig4_execution_time.csv"]),
                         keys([1, 2, 3]))
        self.assertEqual(set(self.rows["fig5_messaging.csv"]), keys([2, 3]))
        self.assertEqual(set(self.rows["fig6_rollbacks.csv"]), keys([2, 3]))

    def test_fig5_and_fig6_share_each_run(self):
        fig5 = self.rows["fig5_messaging.csv"]
        fig6 = self.rows["fig6_rollbacks.csv"]
        for key, row in fig6.items():
            self.assertEqual(fig5[key]["rollbacks"], row["rollbacks"], key)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    BENCH = sys.argv.pop(1)
    unittest.main()
