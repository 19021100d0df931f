#!/usr/bin/env python3
"""Convert a bench-harness CSV into a BENCH_*.json trajectory file.

The repo keeps machine-readable snapshots of the paper-reproduction
benches so the result trajectory is diffable: BENCH_fig4.json,
BENCH_fig5.json and BENCH_fig6.json from the CSVs of bench_fig456 (one
sweep writes all three figures' CSVs), and BENCH_table2.json from
bench_table2_simulation_time.  CI regenerates them from smoke runs at a
fixed --scale and uploads them as workflow artifacts.

Usage:
    bench_json.py <in.csv> <out.json> [key=value ...]

Extra key=value pairs are recorded under "config" (e.g. scale=0.1
throttle=adaptive,unlimited) so a snapshot documents how it was produced.
Numeric-looking cells are emitted as JSON numbers.
"""

import csv
import json
import sys


def _num(cell: str):
    try:
        return int(cell)
    except ValueError:
        try:
            return float(cell)
        except ValueError:
            return cell


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    in_csv, out_json = argv[1], argv[2]
    config = {}
    for pair in argv[3:]:
        key, _, value = pair.partition("=")
        config[key] = _num(value)

    with open(in_csv, newline="") as f:
        rows = [{k: _num(v) for k, v in row.items()}
                for row in csv.DictReader(f)]

    # Self-document the sweep dimensions: the distinct throttle / activity
    # / lane modes present in the rows are summarized into config, so a
    # snapshot says whether (and how) it was activity-guided without
    # scanning rows.
    for dim in ("throttle", "activity", "lanes"):
        key = f"{dim}_modes"
        seen = sorted({row[dim] for row in rows if dim in row})
        if seen and key not in config:
            config[key] = ",".join(str(s) for s in seen)

    doc = {
        "bench": in_csv.rsplit("/", 1)[-1].removesuffix(".csv"),
        "config": config,
        "rows": rows,
    }
    with open(out_json, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"{out_json}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
