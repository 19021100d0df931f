#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 pipebench/run.py --workload scalar-ml-k2 --seed 2000 \\
        --seconds 30 --trace 0
    python3 pipebench/run.py --workload all        # every workload in turn

Run from the repository root.  Every run configures and builds
pipebench/ (the simulator sources under src/ plus the benchmark program)
in Release into $CARGO_TARGET_DIR/pipebench, default
.bench_build/pipebench; only the first run compiles everything.  The
helper self-tests run after every build.  The last stdout line is the
JSON result; README.md documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scalar-ml-k2", "lanes256-ml-k2", "partition-hg-k8")
# One run measures the whole cycles of sub-seeds nearest --seconds, at least
# one (about 60 s traced on the slowest workload), after a warm-up
# iteration; a run this much past --seconds is a hang, and the process is
# killed rather than left running.
RUN_MARGIN_S = 120


def build_dir() -> Path:
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
            / "pipebench")


def build(bdir: Path) -> None:
    """Configure, build incrementally, run the helper self-tests."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(bdir), "-j", jobs],
             [str(bdir / "pipebench_selftest")]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr)


def revision() -> str:
    """Git HEAD when run from a clone, else a digest of the sources."""
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha256()
    for sub in ("src", "pipebench"):
        for f in sorted((ROOT / sub).rglob("*")):
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_one(bdir: Path, args, workload: str) -> str:
    """Run one workload, echo its report, return its last stdout line."""
    cmd = [str(bdir / "pipebench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", revision()]
    if args.trace == 1:
        cmd += ["--spans-out",
                str(bdir / f"spans-{workload}-{args.seed}.json")]
    got = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=args.seconds + RUN_MARGIN_S)
    sys.stderr.write(got.stderr)
    if got.returncode != 0:
        sys.stdout.write(got.stdout)
        raise SystemExit(f"pipebench exited with {got.returncode}")
    lines = got.stdout.rstrip("\n").split("\n")
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return lines[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=2000)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    try:
        if args.workload != "all":
            print(run_one(bdir, args, args.workload))
            return 0
        results = {w: json.loads(run_one(bdir, args, w)) for w in WORKLOADS}
        print(json.dumps(results))
    except subprocess.TimeoutExpired as e:
        print(f"pipebench ran past {e.timeout:g} s; killed", file=sys.stderr)
        return 1
    except (SystemExit, ValueError) as e:
        print(e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
