"""Benchmark entry point: one workload, one seed, one fresh program process.

    python3 perfbench/run.py --workload check-batch --seed 1 --seconds 8 \
        --trace 0

Workloads: ``check-batch``, ``serve-mixed``, ``gnn-train``,
``repair-campaign`` (see ``BENCHMARK.json`` for why each exists).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the workload untraced and then traced, and reports the per-layer
metrics plus the tracing overhead between the two.  Human-readable lines
(each metric with its unit, base and sample count, and the host's state
at start and end) come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

check-batch and repair-campaign report unit times at a reference host
speed, measured by a fixed loop between parts of the work (see
``perfbench/hostspeed.py``); the raw figures are printed beside them.

The amount of work is fixed by ``--seed`` and ``--seconds``.  Accuracy,
success share and the program's outputs must repeat exactly for the same
seed and code; a run that disagrees with an earlier one is reported as
incorrect.  Exit status is 0 on a completed run, 1 if the program failed
and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import traceback
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

E2E_UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "success_share": "share",
    "accuracy": "share", "peak_rss_mb": "MB",
}


def host_factor(outcome) -> float:
    """How much slower than the reference the host ran (1.0 unknown)."""
    from perfbench.hostspeed import REFERENCE_S

    if not outcome.speed_s:
        return 1.0
    return statistics.median(outcome.speed_s) / REFERENCE_S


def end_to_end(outcome) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric, with the detail each is printed with.

    Where the outcome carries raw unit times, throughput and latencies
    are reported at the reference host speed (see
    :mod:`perfbench.hostspeed`) and the raw figure is in the detail."""
    from perfbench.stats import chunk_rates, latency_summary, share, \
        share_detail

    lat = latency_summary(outcome.latencies_s)
    success = share(outcome.attempted - outcome.failed, outcome.attempted)
    accuracy = share(round(outcome.accuracy * outcome.accuracy_base),
                     outcome.accuracy_base)
    values = {
        "setup_s": (statistics.median(outcome.setup_s),
                    f"median of {len(outcome.setup_s)} set-up(s)"),
        "throughput_per_s": (statistics.median(outcome.rates),
                             f"median of {len(outcome.rates)} part(s); "
                             f"{outcome.units} units in "
                             f"{outcome.work_s:.3f} s"),
        "latency_p50_ms": (lat["p50_ms"], f"p50 of {lat['n']}"),
        "latency_tail_ms": (lat["tail_ms"], f"{lat['tail']} of {lat['n']}"),
        "success_share": (success[0], share_detail(*success[1:],
                                                   "attempted")),
        "accuracy": (outcome.accuracy, share_detail(*accuracy[1:],
                                                    "outputs")),
        "peak_rss_mb": (outcome.peak_rss_mb, "max over program processes"),
    }
    notes: Dict[str, str] = {}
    if outcome.raw_latencies_s is not None:
        raw = latency_summary(outcome.raw_latencies_s)
        raw_rate = statistics.median(chunk_rates(outcome.raw_latencies_s))
        notes = {"throughput_per_s": f"; raw {raw_rate:.4g} /s",
                 "latency_p50_ms": f"; raw {raw['p50_ms']:.4g} ms",
                 "latency_tail_ms": f"; raw {raw['tail_ms']:.4g} ms"}
    return {name: {"value": float(value), "unit": E2E_UNITS[name],
                   "detail": detail + notes.get(name, "")}
            for name, (value, detail) in values.items()}


def per_layer(workload: str, plain, traced) -> Dict[str, Dict[str, Any]]:
    from perfbench import layers, workloads
    from perfbench.stats import percentile, share_detail

    facts = dict(traced.facts)
    facts["coverage"] = workloads.coverage(workload, traced)
    # Overhead over the measured units only: set-up time is dominated
    # by one long seed-table build whose run-to-run noise would swamp it.
    facts["untraced_busy_s"] = sum(plain.latencies_s)
    facts["overhead_share"] = (sum(traced.latencies_s)
                               / facts["untraced_busy_s"] - 1.0)
    facts["late_p99_ms"] = (percentile(traced.late_s, 99.0) * 1000.0
                            if traced.late_s else 0.0)
    values = layers.per_layer(traced.trace, facts)
    for name, entry in values.items():
        if "of" in entry:
            entry["detail"] = share_detail(entry["part"], entry["of"],
                                           entry["base_unit"])
    return values


def check_ledger(path: str, key: str, outcome) -> Optional[str]:
    """Compare what must repeat with the first run of this key."""
    from perfbench.inputs import digest

    record = {"accuracy": outcome.accuracy,
              "success": [outcome.attempted, outcome.failed],
              "outputs": digest(outcome.outputs)}
    ledger = {}
    if os.path.exists(path):
        with open(path) as fh:
            ledger = json.load(fh)
    first = ledger.setdefault(key, record)
    if first != record:
        return (f"outputs differ from an earlier run of {key}: "
                f"{first} != {record}")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ledger, fh, indent=0, sort_keys=True)
    os.replace(tmp, path)
    return None


def _print_metrics(metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, entry in metrics.items():
        detail = entry.get("detail", "")
        print(f"  {name:30s} {entry['value']:14.6g} {entry['unit']:6s} "
              f"{detail}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program's sources (src/repro) are not in this "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from perfbench import build, layers, procs, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = procs.environment()
    host_start = procs.host_snapshot()
    try:
        built = build.ensure_built()
        run_dir = os.path.join(build.WORK, "runs", f"{args.workload}-"
                               f"{args.seed}-{args.seconds}-{args.trace}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        ctx = workloads.Context(args.workload, args.seed, args.seconds,
                                built, run_dir, trace=bool(args.trace))
        run = workloads.WORKLOADS[args.workload]
        plain = run(ctx, False)
        traced = run(ctx, True) if args.trace else None
    except Exception:
        traceback.print_exc()
        print(f"error: the {args.workload} run failed; program logs are "
              f"under {os.path.relpath(build.WORK, ROOT)}/runs",
              file=sys.stderr)
        return 1
    host_end = procs.host_snapshot()

    problems = list(plain.problems)
    key = (f"{built['key']}|{args.workload}|{args.seed}|{args.seconds}|"
           f"{ctx.inputs_digest}")
    ledger = os.path.join(build.WORK, "ledger.json")
    for outcome in filter(None, (plain, traced)):
        mismatch = check_ledger(ledger, key, outcome)
        if mismatch:
            problems.append(mismatch)
    if traced is not None:
        problems += traced.problems
        metrics = per_layer(args.workload, plain, traced)
        missing = traced.trace.get("missing")
        if missing:
            problems.append(f"entry points not found: {missing}")
    else:
        metrics = end_to_end(plain)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} code={built['key']}")
    print(f"  env nproc={env['nproc']} usable_cpus={env['usable_cpus']} "
          f"python={env['python']} numpy={env['numpy']}")
    print(f"  host speed: {host_factor(plain):.3f}x the reference loop time "
          f"({len(plain.speed_s)} samples"
          f"{'; unit times rescaled part by part' if plain.raw_latencies_s else ''})")
    for label, snap in (("start", host_start), ("end", host_end)):
        load = "/".join(f"{x:.2f}" for x in snap["loadavg"])
        print(f"  host {label}: loadavg={load} "
              f"steal_ticks={snap['steal_ticks']} "
              f"total_ticks={snap['total_ticks']}")
    if args.trace:
        for metric in layers.METRICS:
            print(f"  # {metric.name}: {metric.moves}")
    _print_metrics(metrics)
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": env, "host_start": host_start, "host_end": host_end,
              "host_factor": host_factor(plain),
              "metrics": metrics, "problems": problems}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not problems,
        "attempted": int(plain.attempted),
        "failed": int(plain.failed),
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
