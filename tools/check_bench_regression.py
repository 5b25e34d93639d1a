#!/usr/bin/env python3
"""The bench gate: checks unsync.bench_report.v1 reports against the one
committed baseline.

Every gated bench (bench/bench_util.hpp's Report) writes, with json=<path>,

    {"schema": "unsync.bench_report.v1",
     "benches": {"<bench>": {"cells":   {"<name>": <integer>, ...},
                             "metrics": {"<name>": {"value": <number>}}}}}

A metric the host cannot measure reads {"value": null, "not_evaluated":
"<why>"} and prints NOT EVALUATED (<why>): it neither passes nor fails.

The committed baseline, bench/BENCH_baseline.json, is a document of the
same schema covering every gated bench. It holds every pinned integer and
every bound; a report carries measured values only. Two rules:

1. Cells: a report cell equals the baseline's integer exactly.
2. Metrics: a report value lies within the baseline entry's
   {"min": a, "max": b} (either side optional). With "ref": r in the
   entry the bound applies to value / r, a tolerance against a recorded
   value.

A cell or metric present in only one of report and baseline fails.
Baseline benches that no given report covers are named and not checked.

    python3 tools/check_bench_regression.py BENCH_*.json \\
        --baseline bench/BENCH_baseline.json

After a deliberate change, --write-baseline rewrites the baseline from the
reports: cells are copied, a metric's "ref" becomes its value rounded to 6
places, and an entry with "headroom" gets "max" = value x headroom +
"margin" rounded to 4 places. Every other bound stays as committed; a
metric without a baseline entry (or an entry without a metric) is an input
error, so a bound is only ever added or removed by hand.

Exit codes: 0 pass, 1 regression, 2 usage/input error.
"""

import argparse
import json
import sys

SCHEMA = "unsync.bench_report.v1"


def input_error(msg):
    print(f"error: {msg}")
    sys.exit(2)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The keys a metric entry may hold: measured in a report, bounds in the
# baseline. An unknown key (a typo such as "mni") is an input error, never
# a silently missing bound.
REPORT_KEYS = {"value", "not_evaluated"}
BOUND_KEYS = {"min", "max", "ref", "headroom", "margin"}


def load(path, report):
    """The document's benches, after checking its shape (exit 2 if bad)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        input_error(f"cannot read {path}: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        input_error(f"{path} is not a {SCHEMA} file")
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        input_error(f"{path} names no benches")
    for bench, entry in benches.items():
        cells = entry.get("cells", {}) if isinstance(entry, dict) else None
        metrics = entry.get("metrics", {}) if isinstance(entry, dict) else None
        if not isinstance(cells, dict) or not isinstance(metrics, dict):
            input_error(f"{path}: {bench} needs cells and metrics objects")
        if not cells and not metrics:
            input_error(f"{path}: {bench} has no cells and no metrics")
        for name, v in cells.items():
            if not isinstance(v, int) or isinstance(v, bool):
                input_error(f"{path}: {bench} cell {name} is not an integer")
        for name, m in metrics.items():
            if report:
                good = (isinstance(m, dict) and set(m) <= REPORT_KEYS and
                        "value" in m and (is_number(m["value"]) or (
                            m["value"] is None and m.get("not_evaluated"))))
            else:
                good = (isinstance(m, dict) and set(m) <= BOUND_KEYS and
                        all(is_number(v) for v in m.values()) and
                        m.get("ref", 1) != 0)
            if not good:
                input_error(f"{path}: {bench} metric {name} is malformed")
    return benches


def split(got, want):
    """A FAIL reason for each name in only one of report and baseline."""
    for name in sorted(set(got) - set(want)):
        yield name, "not in the baseline FAIL"
    for name in sorted(set(want) - set(got)):
        yield name, "MISSING from the report FAIL"


def check_bench(bench, got, want):
    ok = True
    cells, pinned = got.get("cells", {}), want.get("cells", {})
    for name, why in split(cells, pinned):
        print(f"  {bench} cell {name}: {why}")
        ok = False
    both = sorted(set(cells) & set(pinned))
    for name in both:
        if cells[name] != pinned[name]:
            print(f"  {bench} cell {name}: {cells[name]} != committed "
                  f"{pinned[name]} FAIL (exact integer equality required)")
            ok = False
    if both:
        print(f"  {bench}: {len(both)} cells checked for exact equality")

    metrics, bounds = got.get("metrics", {}), want.get("metrics", {})
    for name, why in split(metrics, bounds):
        print(f"  {bench} {name}: {why}")
        ok = False
    for name in sorted(set(metrics) & set(bounds)):
        m, b = metrics[name], bounds[name]
        if m["value"] is None:
            print(f"  {bench} {name}: NOT EVALUATED ({m['not_evaluated']})")
            continue
        x, shown, fmt = m["value"], f"{m['value']:.6g}", "{:g}"
        if "ref" in b:
            x = m["value"] / b["ref"]
            shown, fmt = f"{x:.2%} of committed {b['ref']:g}", "{:.0%}"
        lo, hi = b.get("min"), b.get("max")
        verdict = "ok"
        if (lo is not None and x < lo) or (hi is not None and x > hi):
            verdict = "FAIL"
            ok = False
        bound = " ".join(s for s in (
            ">= " + fmt.format(lo) if lo is not None else "",
            "<= " + fmt.format(hi) if hi is not None else "") if s)
        print(f"  {bench} {name}: {shown} ({bound or 'unbounded'}) {verdict}")
    return ok


def write_baseline(reports, baseline, path):
    unmatched = []
    for bench, got in reports.items():
        want = baseline.setdefault(bench, {"cells": {}, "metrics": {}})
        want["cells"] = dict(got.get("cells", {}))
        bounds = want.setdefault("metrics", {})
        metrics = got.get("metrics", {})
        unmatched += [f"{bench} {n}: {why}" for n, why in
                      split(metrics, bounds)]
        for name in set(metrics) & set(bounds):
            v, b = metrics[name]["value"], bounds[name]
            if v is None:
                continue
            if "ref" in b:
                b["ref"] = round(v, 6)
            if "headroom" in b:
                b["max"] = round(v * b["headroom"] + b.get("margin", 0.0), 4)
    if unmatched:
        input_error("metrics and bounds differ; edit the baseline by hand: "
                    + "; ".join(unmatched))
    with open(path) as f:
        doc = json.load(f)
    doc["benches"] = baseline
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote baseline {path} ({', '.join(sorted(reports))})")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("reports", nargs="+",
                    help="unsync.bench_report.v1 files written by the benches")
    ap.add_argument("--baseline", required=True,
                    help="the committed baseline (bench/BENCH_baseline.json)")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite the baseline from the reports and exit")
    args = ap.parse_args()

    reports = {}
    for path in args.reports:
        for bench, entry in load(path, report=True).items():
            if bench in reports:
                input_error(f"{bench} appears in more than one report")
            reports[bench] = entry
    baseline = load(args.baseline, report=False)
    if args.write_baseline:
        write_baseline(reports, baseline, args.baseline)
        return 0

    ok = True
    for bench in sorted(reports):
        if bench not in baseline:
            print(f"  {bench}: not in the baseline FAIL")
            ok = False
            continue
        ok = check_bench(bench, reports[bench], baseline[bench]) and ok
    unchecked = sorted(set(baseline) - set(reports))
    if unchecked:
        print(f"  (no report given for {', '.join(unchecked)}; not checked)")
    print("bench gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
