#!/usr/bin/env python3
"""Self-test of the benchmark itself, on tiny grids (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json, on seed 3 (whose tiny-grid
results are recorded in expected/<workload>.tiny.txt):
  * an untraced and a traced run each report every metric BENCHMARK.json
    names for them, with its unit, and check out (correct, failed == 0),
    every job checked against the record;
  * the traced run reproduces the untraced simulated results exactly
    (the binary counts every traced cell whose cycles, per-core stats or
    error counts differ from its untraced twin as a failure);
and that the result check fails (failed > 0, pass_frac < 1) when
  * a recorded digest is perturbed (seed 3),
  * a digest from a reference re-run is perturbed (seed 4, not recorded),
  * the recorded tier of one screen-grid job is flipped (seed 3).
Exits 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def run(workload, trace, *extra, seed=3):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"no output from {' '.join(cmd)}:\n{proc.stderr}")
    report = json.loads(
        (OUT / f"report-{workload}-seed{seed}-trace{trace}.json").read_text())
    return proc.returncode, json.loads(lines[-1]), report


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, report = run(w, trace)
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{w} trace={trace}: correct, nothing failed")
            # Tiny grids run one batch: every round runs all of its jobs.
            expect(report["info"]["checked_by_record"]
                   == report["info"]["jobs_per_round"],
                   f"{w} trace={trace}: every job checked against the record")
            got = result["metrics"]
            missing = [m["name"] for m in bench[key]
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            expect(not missing,
                   f"{w} trace={trace}: every {key} metric with its unit"
                   + (f" (missing/wrong: {missing})" if missing else ""))
            if trace:
                info = report["info"]
                expect(int(info["traced_cells"]) > 0
                       and info["traced_mismatches"] == "0",
                       f"{w}: traced run reproduces the untraced results "
                       f"({info['traced_cells']} cells)")

    for what, workload, seed, flags in (
            ("a perturbed recorded digest", "detailed-mix", 3,
             ["--perturb", "1"]),
            ("a perturbed re-run digest", "detailed-mix", 4,
             ["--perturb", "1"]),
            ("a flipped recorded tier", "screen-grid", 3,
             ["--perturb-tier", "1"])):
        code, result, report = run(workload, 0, *flags, seed=seed)
        source = "record" if seed == 3 else "rerun"
        expect(code != 0 and result["failed"] > 0
               and result["metrics"]["pass_frac"]["value"] < 1.0
               and int(report["info"][f"checked_by_{source}"]) > 0,
               f"{what} fails the result check ({workload} seed {seed}: "
               f"failed={result['failed']})")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
