#!/usr/bin/env python3
"""Self-test of tools/check_bench_regression.py on small fixture reports.

Each case takes one clean fixture report (tests/bench_gate/<bench>.json),
changes one value so that exactly one check fails, and asserts the gate's
exit code: 0 pass, 1 regression, 2 input error. The fixture baseline holds
the committed bounds of the fixture metrics, and this test asserts they
still equal the bounds in bench/BENCH_baseline.json.

    python3 tests/bench_gate/selftest.py [tools/check_bench_regression.py]
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GATE = (sys.argv[1] if len(sys.argv) > 1 else
        os.path.join(ROOT, "tools", "check_bench_regression.py"))
BASELINE = os.path.join(HERE, "baseline.json")
BENCHES = ("sim", "campaign", "tier", "prefix", "systems", "avf")


def fixture(name):
    with open(os.path.join(HERE, name + ".json")) as f:
        return json.load(f)


def entry(doc):
    (bench,) = doc["benches"].values()
    return bench


def set_metric(name, value, why=None):
    def edit(doc):
        m = {"value": value}
        if why:
            m["not_evaluated"] = why
        entry(doc)["metrics"][name] = m
    return edit


def drop_metric(name):
    def edit(doc):
        del entry(doc)["metrics"][name]
    return edit


def add_to_cell(name, delta):
    def edit(doc):
        entry(doc)["cells"][name] += delta
    return edit


def replace(doc):
    return lambda _: doc


# (case, fixture, edit, expected exit code, text the output must contain)
CASES = [(f"clean {b}", b, None, 0, "bench gate: PASS") for b in BENCHES] + [
    ("ff ratio below 1.15x", "sim",
     set_metric("ff_speedup/baseline", 1.10), 1, "FAIL"),
    ("normalised throughput below 0.90x committed", "sim",
     set_metric("throughput/BM_CycleEngine/unsync_naive", 0.065), 1,
     "unsync_naive: 89.26% of committed"),
    ("missing calibration", "sim", drop_metric("calibration"), 1,
     "calibration: MISSING"),
    ("campaign not identical", "campaign", set_metric("identical", 0), 1,
     "identical: 0 (>= 1) FAIL"),
    ("campaign overhead efficiency", "campaign",
     set_metric("overhead_efficiency", 0.80), 1, "FAIL"),
    ("campaign scaling efficiency", "campaign",
     set_metric("scaling_efficiency", 0.84), 1, "FAIL"),
    ("campaign scaling on one core", "campaign",
     set_metric("scaling_efficiency", None, "cores=1"), 0,
     "NOT EVALUATED (cores=1)"),
    ("tier speedup", "tier", set_metric("speedup", 8.3), 1, "FAIL"),
    ("tier err_dev", "tier", set_metric("err_dev_cells", 1), 1, "FAIL"),
    ("tier CPI envelope", "tier",
     set_metric("cpi_rel_err/gzip/baseline", 0.53), 1, "FAIL"),
    ("tier cell missing", "tier", drop_metric("cpi_rel_err/galgel/hetero"),
     1, "MISSING"),
    ("tier cell uncovered", "tier",
     set_metric("cpi_rel_err/art/baseline", 0.1), 1, "not in the baseline"),
    ("tier not identical", "tier", set_metric("identical", 0), 1, "FAIL"),
    ("prefix speedup", "prefix", set_metric("speedup", 2.1), 1, "FAIL"),
    ("prefix grid mismatch", "prefix", add_to_cell("grid.trials", 1), 1,
     "grid.trials: 13 != committed 12"),
    ("prefix not identical", "prefix", set_metric("identical", 0), 1,
     "FAIL"),
] + [
    (f"prefix counter {c}", "prefix", add_to_cell(c, 1), 1, "FAIL")
    for c in ("goldens_built", "jobs_restored", "jobs_early_terminated",
              "jobs_bypassed", "cycles_skipped")
] + [
    ("systems without ser>0 rows", "systems",
     set_metric("error_ser_points", 0), 1, "FAIL"),
    ("systems hetero injected none", "systems",
     set_metric("hetero_injected/gzip/ser=0.0005", 0), 1, "FAIL"),
    ("systems hetero missed a strike", "systems",
     set_metric("hetero_missed/gzip/ser=0.0005", 1), 1, "FAIL"),
    ("systems hetero below lockstep", "systems",
     set_metric("hetero_coverage_over_lockstep/gzip/ser=0.0005", -0.125), 1,
     "FAIL"),
    ("systems hetero cycles >= reunion", "systems",
     set_metric("reunion_minus_hetero_cycles/gzip", 0), 1, "FAIL"),
    ("systems cell mismatch", "systems",
     add_to_cell("gzip/reunion/ser=0/cycles", 1), 1,
     "exact integer equality required"),
    ("systems not identical", "systems", set_metric("identical", 0), 1,
     "FAIL"),
    ("avf residual AVF rises", "avf",
     set_metric("residual_avf_rise/parity->secded", 1e-6), 1, "FAIL"),
    ("avf SDC rises", "avf", set_metric("sdc_rise/parity->secded", 1), 1,
     "FAIL"),
    ("avf area falls", "avf", set_metric("area_rise/parity->secded", -1.0),
     1, "FAIL"),
    ("avf power falls", "avf",
     set_metric("power_rise/none->parity", -1e-6), 1, "FAIL"),
    ("avf SDC under protection", "avf", set_metric("sdc/secded", 1), 1,
     "FAIL"),
    ("avf fewer than 6 structures", "avf", set_metric("structures", 5), 1,
     "FAIL"),
    ("avf bit-cycles differ across plans", "avf",
     set_metric("bit_cycles_plan_mismatches", 1), 1, "FAIL"),
    ("avf baseline mismatch", "avf", add_to_cell("bit_cycles/tlb", 1), 1,
     "exact integer equality required"),
    ("avf not identical", "avf", set_metric("identical", 0), 1, "FAIL"),
    ("wrong schema", "avf",
     replace({"schema": "unsync.avf_report.v1", "benches": {}}), 2,
     "is not a unsync.bench_report.v1 file"),
    ("empty cell list", "systems",
     replace({"schema": "unsync.bench_report.v1",
              "benches": {"bench_system_matrix": {"cells": {},
                                                  "metrics": {}}}}),
     2, "no cells and no metrics"),
    ("non-integer cell", "prefix", add_to_cell("goldens_built", 0.5), 2,
     "is not an integer"),
]


def rule(bound):
    """A bound without the value --write-baseline refreshes."""
    refreshed = ("ref" if "ref" in bound else
                 "max" if "headroom" in bound else None)
    return {k: v for k, v in bound.items() if k != refreshed}


def run(args):
    p = subprocess.run([sys.executable, GATE] + args,
                       capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def main():
    failures = 0

    def expect(case, args, code, text):
        nonlocal failures
        got, out = run(args)
        good = got == code and text in out
        print(f"{'ok  ' if good else 'FAIL'} {case}: exit {got} "
              f"(want {code})")
        if not good:
            failures += 1
            print("     wanted output containing: " + text)
            print("     " + out.replace("\n", "\n     "))

    with tempfile.TemporaryDirectory() as tmp:
        for case, name, edit, code, text in CASES:
            doc = fixture(name)
            if edit:
                doc = edit(doc) or doc
            path = os.path.join(tmp, "report.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            expect(case, [path, "--baseline", BASELINE], code, text)

        reports = [os.path.join(HERE, b + ".json") for b in BENCHES]
        expect("all six reports in one call", reports +
               ["--baseline", BASELINE], 0, "bench gate: PASS")
        expect("the same bench twice", reports[:1] * 2 +
               ["--baseline", BASELINE], 2, "more than one report")
        unreadable = os.path.join(tmp, "absent.json")
        expect("unreadable report", [unreadable, "--baseline", BASELINE], 2,
               "cannot read")
        garbage = os.path.join(tmp, "garbage.json")
        with open(garbage, "w") as f:
            f.write("{not json")
        expect("report is not JSON", [garbage, "--baseline", BASELINE], 2,
               "cannot read")
        typo = json.load(open(BASELINE))
        typo["benches"]["bench_tier_screening"]["metrics"]["speedup"] = {
            "mni": 10}
        typo_path = os.path.join(tmp, "typo.json")
        with open(typo_path, "w") as f:
            json.dump(typo, f)
        expect("misspelled bound", [reports[2], "--baseline", typo_path], 2,
               "metric speedup is malformed")

        # --write-baseline: refs round to 6 places, envelopes become
        # measured x headroom + margin rounded to 4, cells are copied.
        sim, tier = fixture("sim"), fixture("tier")
        set_metric("throughput/BM_CycleEngine/unsync_naive", 0.0734567891)(sim)
        set_metric("cpi_rel_err/gzip/baseline", 0.12345)(tier)
        add_to_cell("grid.seed", 1)(tier)
        paths = []
        for name, doc in (("sim", sim), ("tier", tier)):
            paths.append(os.path.join(tmp, name + "_new.json"))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        rewritten = os.path.join(tmp, "rewritten.json")
        with open(BASELINE) as src, open(rewritten, "w") as dst:
            dst.write(src.read())
        expect("write baseline", paths + ["--baseline", rewritten,
                                          "--write-baseline"], 0,
               "wrote baseline")
        got = json.load(open(rewritten))["benches"]
        wrote = (got["bench_sim_throughput"]["metrics"]
                 ["throughput/BM_CycleEngine/unsync_naive"]["ref"],
                 got["bench_tier_screening"]["metrics"]
                 ["cpi_rel_err/gzip/baseline"]["max"],
                 got["bench_tier_screening"]["cells"]["grid.seed"],
                 got["bench_tier_screening"]["metrics"]["speedup"])
        want = (0.073457, round(0.12345 * 1.5 + 0.02, 4), 43, {"min": 10})
        print(f"{'ok  ' if wrote == want else 'FAIL'} written values "
              f"{wrote} (want {want})")
        failures += wrote != want
        expect("rewritten baseline passes", paths + ["--baseline",
                                                     rewritten], 0,
               "bench gate: PASS")

    # The fixture baseline must carry the committed bounds, not its own.
    with open(os.path.join(ROOT, "bench", "BENCH_baseline.json")) as f:
        committed = json.load(f)["benches"]
    for bench, entry_ in json.load(open(BASELINE))["benches"].items():
        for name, bound in entry_["metrics"].items():
            real = committed[bench]["metrics"].get(name)
            if real is None or rule(bound) != rule(real):
                print(f"FAIL fixture bound {bench} {name} = {bound}, "
                      f"committed {real}")
                failures += 1

    print(f"bench gate self-test: {'PASS' if not failures else 'FAIL'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
