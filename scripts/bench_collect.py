#!/usr/bin/env python3
"""Gather benchmark result records into one committed file.

    python scripts/bench_collect.py RESULTS_DIR LABEL

Reads every `*-trace0.json` and `*-trace1.json` record that
`bench/run.py` wrote under RESULTS_DIR (its `.bench_results/`) and
writes `BENCH_<LABEL>.json` at the root of the repository: a JSON list
of the records, ordered by workload, trace and seed.  Each record keeps
workload, seed, trace, metrics, attempted, failed, distinct_inputs,
host_slowdown and context, and failing_inputs: the sorted indices of
the distinct inputs whose check failed, read off the record's
failures.  A run cycles through its distinct inputs and stops where
its time runs out, so `failed` of two runs may differ while the same
inputs fail; failing_inputs tells the two apart.  The raw per-request
arrays (latencies_s, kernels_s) and the rest are dropped so that the
file stays small.
"""

from __future__ import annotations

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEEP = ("workload", "seed", "trace", "metrics", "attempted", "failed",
        "distinct_inputs", "host_slowdown", "context")
# bench/run.py writes each failure as "request <index> (n=<n>): <reason>"
FAILURE = re.compile(r"request (\d+) ")


def failing_inputs(failures: list) -> list[int]:
    return sorted({int(m.group(1)) for f in failures
                   if (m := FAILURE.match(f))})


def collect(results_dir: str) -> list[dict]:
    records = []
    for dirpath, _, files in os.walk(results_dir):
        for name in files:
            if name.endswith(("-trace0.json", "-trace1.json")):
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as fh:
                    rec = json.load(fh)
                records.append({**{k: rec.get(k) for k in KEEP},
                                "failing_inputs": failing_inputs(
                                    rec.get("failures", []))})
    records.sort(key=lambda r: (r["workload"], r["trace"], r["seed"]))
    return records


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: bench_collect.py RESULTS_DIR LABEL", file=sys.stderr)
        return 2
    results_dir, label = argv
    records = collect(results_dir)
    if not records:
        print(f"no result records under {results_dir}", file=sys.stderr)
        return 1
    out = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} records -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
