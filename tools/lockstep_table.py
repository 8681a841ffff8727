#!/usr/bin/env python3
"""Print README's lockstep throughput table from a perf_kernel capture.

    python3 tools/lockstep_table.py [BENCH_kernel.json]

The capture must hold aggregate rows (perf_kernel run with
--benchmark_repetitions=N --benchmark_report_aggregates_only=true).
Prints the BM_TraceViewRun median, then one Markdown row per
BM_LockstepVariants/V: the median aggregate Minstr/s over all V
members, its ratio to V independent BM_TraceViewRun passes, and the
coefficient of variation of the repetitions' wall time.
"""

import json
import sys


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_kernel.json"
    with open(path) as f:
        rows = {b["name"]: b for b in json.load(f)["benchmarks"]}

    def median_ips(run):
        return rows[run + "_median"]["items_per_second"]

    base = median_ips("BM_TraceViewRun")
    print(f"BM_TraceViewRun: {base / 1e6:.2f} Minstr/s (median)")
    print()
    print("| Variants V | Minstr/s (all members) "
          "| vs V independent passes | CV |")
    print("| --- | --- | --- | --- |")
    variants = sorted(int(name[len("BM_LockstepVariants/"):-len("_median")])
                      for name in rows
                      if name.startswith("BM_LockstepVariants/")
                      and name.endswith("_median"))
    for v in variants:
        run = f"BM_LockstepVariants/{v}"
        ips = median_ips(run)
        cv = rows[run + "_cv"]["real_time"]
        print(f"| {v} | {ips / 1e6:.2f} | {ips / base:.2f}× "
              f"| {cv * 100:.1f}% |")


if __name__ == "__main__":
    main()
