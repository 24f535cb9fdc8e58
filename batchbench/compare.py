#!/usr/bin/env python3
"""Compare two sets of batchbench results, or refuse to.

Usage:
  python3 batchbench/compare.py <before> <after>

Each side is a result file or a directory of them, as run.py writes them
under $CARGO_TARGET_DIR/batchbench/results (default .bench_build/...).
Results whose host fingerprints differ (nproc, CPU model, compiler,
flags, build type, ELRR_NATIVE) are flagged and not compared: exit 2.
Otherwise, for every workload both sides ran untraced, each end-to-end
metric's median is compared against its bound from BENCHMARK.json; exit 1
if any got worse by more than its bound, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def medians(records):
    values = {}
    for rec in records:
        if rec["trace"]:
            continue
        for name, metric in rec["result"]["metrics"].items():
            values.setdefault((rec["workload"], name), []).append(
                metric["value"])
    return {key: (statistics.median(v), len(v)) for key, v in values.items()}


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    before, after = load(argv[1]), load(argv[2])
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in before + after}
    if len(prints) != 1:
        print("FLAGGED: results come from different host fingerprints; "
              "times are not compared:")
        for fp in sorted(prints):
            print("  " + fp)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"]}
    old, new = medians(before), medians(after)
    worse = 0
    for key in sorted(old.keys() & new.keys()):
        workload, name = key
        rule = rules.get(name)
        if rule is None:
            continue
        (a, na), (b, nb) = old[key], new[key]
        change = (b - a) / a if a else 0.0
        if rule["better"] == "higher":
            change = -change
        verdict = "WORSE" if change > rule["bound"] else "ok"
        worse += verdict == "WORSE"
        print("%-12s %-12s %12.6g -> %12.6g  %+6.1f%% (bound %.0f%%, n=%d/%d)"
              " %s" % (workload, name, a, b, 100 * change,
                       100 * rule["bound"], na, nb, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
