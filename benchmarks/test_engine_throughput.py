"""Throughput benchmark for the corpus execution engine.

Measures the fused compile → ir2vec-featurize cold path over an MBI
corpus and emits ``BENCH_engine.json``.  Both cold sides run matched
configurations — every rep on a fresh engine over a fresh, empty disk
store, best of two reps (the box this runs on is noisy and a single rep
regularly wobbles 30%):

* **cold serial** — ``workers=0``;
* **cold parallel** — ``workers=4`` fan-out over a corpus big enough to
  clear the engine's ``MIN_SAMPLES_PER_WORKER`` guard, pool start
  included;
* **warm serial** — a fresh engine over the store the first cold-serial
  rep filled (zero recompiles, verified via cache stats).

Correctness is gated hard: the parallel feature matrix must be
*byte*-identical to the serial one.  Wall-clock ratios are recorded
always but asserted only where the hardware can deliver them (≥ 4
effective cores) — and even then as a warning unless
``REPRO_BENCH_STRICT=1`` opts dedicated hardware into hard gates.
"""

import json
import os
import time
import warnings

import pytest

from repro.datasets import load_mbi
from repro.engine import EngineConfig, ExecutionEngine
from repro.pipeline.stages import (
    CFrontend,
    CFrontendConfig,
    IR2VecFeaturizer,
    IR2VecFeaturizerConfig,
)

from benchmarks.conftest import emit

_CORPUS_SIZE = 192        # ≥ workers * MIN_SAMPLES_PER_WORKER (4 * 32)
_WORKERS = 4
_OUT = "BENCH_engine.json"


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_featurize(engine: ExecutionEngine, named):
    start = time.perf_counter()
    X = engine.featurize_sources(CFrontend(CFrontendConfig(opt_level="Os")),
                                 IR2VecFeaturizer(IR2VecFeaturizerConfig()),
                                 named)
    elapsed = time.perf_counter() - start
    assert X.shape == (len(named), 512)
    return elapsed, X


def _best_cold(workers: int, root, named):
    """Best of two cold reps, each on a fresh engine over a fresh, empty
    disk store ``root/rep<i>``; returns ``(seconds, X, stats_dict)``."""
    best = None
    for rep in range(2):
        with ExecutionEngine(EngineConfig(
                workers=workers, cache_dir=str(root / f"rep{rep}"))) as engine:
            elapsed, X = _timed_featurize(engine, named)
            if best is None or elapsed < best[0]:
                best = (elapsed, X, engine.stats_dict())
    return best


@pytest.mark.benchmark(group="engine")
def test_engine_throughput_cold_warm_serial_parallel(tmp_path):
    named = [(s.name, s.source) for s in load_mbi(subsample=_CORPUS_SIZE)]
    n = len(named)
    cores = _effective_cores()

    # The per-process IR2vec encoder is deliberately warmed outside the
    # timers: it is a once-per-process cost, not corpus throughput.
    IR2VecFeaturizer(IR2VecFeaturizerConfig()).warmup()

    t_cold_serial, X_serial, _ = _best_cold(0, tmp_path / "serial", named)
    # Cold parallel: production defaults (adaptive chunks, the stock
    # MIN_SAMPLES_PER_WORKER guard — which the corpus clears).
    t_cold_parallel, X_parallel, parallel_stats = _best_cold(
        _WORKERS, tmp_path / "parallel", named)
    engine_perf = parallel_stats["perf"]
    engine_counters = parallel_stats["counters"]

    # Hard gate, hardware-independent: fan-out must not change a byte.
    assert engine_counters["parallel_chunks"] > 0, \
        "corpus failed to clear the MIN_SAMPLES_PER_WORKER guard"
    assert X_parallel.tobytes() == X_serial.tobytes(), \
        "parallel features differ from serial"

    warm_engine = ExecutionEngine(EngineConfig(
        workers=0, cache_dir=str(tmp_path / "serial" / "rep0")))
    t_warm, _ = _timed_featurize(warm_engine, named)

    # Acceptance bar: the warm re-run answers entirely from the store.
    warm_stats = warm_engine.stats["features"]
    assert warm_stats.misses == 0, "warm run recompiled/refeaturized samples"
    assert warm_stats.hits == n

    results = {
        "corpus": "MBI-smoke",
        "samples": n,
        "workers": _WORKERS,
        "effective_cores": cores,
        "cold_serial_sec": round(t_cold_serial, 4),
        "cold_parallel_sec": round(t_cold_parallel, 4),
        "warm_serial_sec": round(t_warm, 4),
        "cold_serial_samples_per_sec": round(n / t_cold_serial, 2),
        "cold_parallel_samples_per_sec": round(n / t_cold_parallel, 2),
        "warm_samples_per_sec": round(n / t_warm, 2),
        "parallel_speedup": round(t_cold_serial / t_cold_parallel, 3),
        "warm_speedup": round(t_cold_serial / t_warm, 3),
        "warm_feature_hits": warm_stats.hits,
        "warm_feature_misses": warm_stats.misses,
        "payload_bytes_per_task": engine_perf["payload_bytes_per_task"],
        "pool_utilization": engine_perf["pool_utilization"],
        "parallel_tasks": engine_counters["tasks"],
        "byte_identical": True,
    }
    if cores < _WORKERS:
        results["warning"] = (
            f"only {cores} effective core(s): parallel_speedup is a "
            f"contention measurement, not a fan-out one; speedup gates "
            f"not applied")
    with open(_OUT, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    emit("Engine throughput (samples/sec)", json.dumps(results, indent=2,
                                                       sort_keys=True))

    # Warm-over-cold is hardware-independent: disk reads beat recompiles.
    assert results["warm_speedup"] > 2.0
    # Wall-clock ratios flake on noisy shared runners — below the strict
    # bar they warn; REPRO_BENCH_STRICT=1 (dedicated hardware) hard-fails.
    strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    if cores >= 4:
        if results["parallel_speedup"] < 2.5:
            msg = (f"parallel_speedup {results['parallel_speedup']}x "
                   f"below the 2.5x bar on {cores} cores")
            if strict:
                pytest.fail(msg)
            warnings.warn(msg, RuntimeWarning)
    elif strict and cores >= 2:
        assert results["parallel_speedup"] >= 1.2
