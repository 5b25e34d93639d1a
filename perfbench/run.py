#!/usr/bin/env python3
"""End-to-end benchmark of the UnSync simulator.

    python3 perfbench/run.py --workload <detailed-mix|inject-campaign|screen-grid>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--tiny] [--perturb <n>] [--perturb-tier <n>]

Run from the repository root. Builds perfbench/ (which compiles the
simulator libraries from src/) as Release into .bench_build/, runs the workload in a
fresh process, prints every metric by name with its unit, and ends stdout
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exit status: 0 when the run's results checked out, 1 otherwise, 2 when the
benchmark cannot run here (no simulator sources, build failure).
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else None


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no simulator sources under {ROOT / 'src'}")
    build_dir = BUILD_ROOT / "perfbench-Release"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "unsync_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "unsync_perfbench"


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small grids (self-test only; not comparable)")
    ap.add_argument("--perturb", type=int, default=0,
                    help="corrupt this many expected digests (self-test)")
    ap.add_argument("--perturb-tier", type=int, default=0,
                    help="flip the expected tier of this many jobs (self-test)")
    args = ap.parse_args()

    bench = spec()
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected-dir", str(HERE / "expected"), "--out-dir", str(OUT_DIR)]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb:
        cmd += ["--perturb", str(args.perturb)]
    if args.perturb_tier:
        cmd += ["--perturb-tier", str(args.perturb_tier)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {proc.returncode})", 1)
    result = json.loads(lines[-1])
    info = result.pop("info")
    info["commit"] = commit()

    # Every metric BENCHMARK.json names must be reported, with its unit.
    problems = []
    if bench is not None:
        wanted = bench["per_layer" if args.trace else "end_to_end"]
        for m in wanted:
            got = result["metrics"].get(m["name"])
            if got is None:
                problems.append(f"missing metric {m['name']}")
            elif got["unit"] != m["unit"]:
                problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        names = {m["name"] for m in wanted}
        result["metrics"] = {k: v for k, v in result["metrics"].items()
                             if k in names}
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False

    print(f"== perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} ==")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    for key in sorted(info):
        if key != "layer_totals":
            print(f"  info.{key} = {info[key]}")
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / (f"report-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    report.write_text(json.dumps({**result, "info": info}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
