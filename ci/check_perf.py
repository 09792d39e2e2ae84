#!/usr/bin/env python
"""Gate BENCH_engine.json against the committed cold-path baseline.

Two classes of check, reflecting what each number actually promises:

* **Correctness gates — always hard.**  Parallel features must be
  byte-identical to serial, and the warm run must answer entirely from
  the persistent store.  These are deterministic; a failure is a bug,
  not noise.
* **Throughput gates — soft by default.**  Wall-clock numbers on shared
  CI runners wobble far beyond any honest regression threshold (the
  same commit can measure 30% apart back-to-back), so a miss prints a
  GitHub ``::warning::`` annotation and exits 0.  Dedicated hardware
  opts into hard failures with ``REPRO_BENCH_STRICT=1``.  The
  parallel-speedup floor additionally only applies where the cores
  exist to deliver it (``min_cores_for_speedup_gate``).

Usage: ``python ci/check_perf.py BENCH_engine.json
--baseline ci/perf-baseline.json``
"""

import argparse
import json
import os
import sys


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="BENCH_engine.json from the run")
    parser.add_argument("--baseline", default="ci/perf-baseline.json")
    parser.add_argument("--strict", action="store_true",
                        help="treat throughput misses as failures "
                             "(implied by REPRO_BENCH_STRICT=1)")
    args = parser.parse_args(argv)
    strict = args.strict or os.environ.get("REPRO_BENCH_STRICT") == "1"

    bench = _load(args.bench)
    base = _load(args.baseline)
    failures = []
    warnings_ = []

    # -- hard gates ---------------------------------------------------------
    if bench.get("byte_identical") is not True:
        failures.append("parallel features are not byte-identical to serial")
    if bench.get("warm_feature_misses", 1) != 0:
        failures.append(
            f"warm run missed {bench.get('warm_feature_misses')} cached "
            f"features (expected 0)")

    # -- throughput gates ---------------------------------------------------
    floor = base["cold_serial_samples_per_sec_floor"]
    measured = bench["cold_serial_samples_per_sec"]
    if measured < floor:
        warnings_.append(
            f"cold serial throughput {measured} samples/sec below the "
            f"committed floor {floor}")

    cores = bench.get("effective_cores", 0)
    if cores >= base["min_cores_for_speedup_gate"]:
        if bench["parallel_speedup"] < base["parallel_speedup_floor"]:
            warnings_.append(
                f"parallel_speedup {bench['parallel_speedup']}x below "
                f"{base['parallel_speedup_floor']}x on {cores} cores")
    else:
        print(f"note: speedup gate skipped ({cores} effective core(s) < "
              f"{base['min_cores_for_speedup_gate']})")

    if bench.get("warm_speedup", 0) < base.get("warm_speedup_floor", 0):
        warnings_.append(
            f"warm_speedup {bench.get('warm_speedup')}x below "
            f"{base.get('warm_speedup_floor')}x — persistent store "
            f"stopped paying for itself")

    for message in warnings_:
        if strict:
            failures.append(message)
        else:
            print(f"::warning title=engine-perf::{message}")
    for message in failures:
        print(f"::error title=engine-perf::{message}")
    if not failures and not warnings_:
        print(f"perf gates passed: {measured} samples/sec cold serial "
              f"(floor {floor}), speedup {bench['parallel_speedup']}x "
              f"on {cores} core(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
