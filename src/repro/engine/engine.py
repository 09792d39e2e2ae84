"""Parallel corpus execution engine over the compile → featurize hot path.

The paper's detector pushes thousands of MBI / CorrBench / Hypre samples
through the same ``compile → embed/graph → classify`` pipeline, and the
per-sample work is pure: one source at one stage config always produces
the same IR module, embedding row, or program graph.  The engine exploits
both facts:

* **One fan-out path** — every pool task is ``(fn, items, trace ctx)``,
  run by one worker entry (:func:`_run_task`) and submitted by one
  method; stage chunks and :meth:`ExecutionEngine.map` tasks differ
  only in ``fn``.  The frontend/featurizer stages are installed in
  workers **once per pool**, not pickled into every chunk: the pool
  initializer hands them over (inherited copy-on-write under ``fork``
  on Linux, pickled once per worker elsewhere), so a stage chunk's
  payload carries only ``(stage token, samples)``.  A stage-identity
  token guards the installed state: running different stages restarts
  the pool.  Results come back by pickle.
* **Adaptive chunking** — stage chunks are sized from the observed
  per-sample latency (EWMA), targeting ``~50 ms`` of work per task
  while keeping at least four chunks per worker for load balance.
* **Never redo work** — every engine owns one content-addressed
  :class:`~repro.engine.cache.ContentStore`: a bounded memory tier,
  then the on-disk tier when ``cache_dir`` is set, then the fleet CAS
  when ``cas_addr`` is.  A re-run of ``fit``, ``predict_batch``, an eval
  scenario, or a benchmark — in-process or, with a disk tier, in a new
  process — skips compilation and featurization entirely; cache keys
  mix in the stage config and the code version, so changing any input
  recomputes.  A caller that wants a cold cache uses a fresh engine.

Parallel and serial runs are bit-identical by construction: per-sample
results are computed independently and reassembled in input order, and
the featurizers themselves guarantee batch-composition independence.
``workers=0`` is the serial fallback and the default.

Under a trace, workers record their spans (stage frames included) and
ship them home with each task — the one thing a worker returns beside
its values — so request traces, ``/metrics`` stage latency and ``repro
profile`` all see fanned-out time, for stage chunks and ``map`` tasks
alike; ``stats_dict()`` exposes the transport counters (payload bytes
per task, pool utilization).

>>> engine = ExecutionEngine(workers=4, cache_dir="~/.cache/repro")
>>> X = engine.featurize_sources(frontend, featurizer, named_sources)
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.engine.cache import (
    COMPILE_STAGE,
    FEATURE_STAGE,
    CacheStats,
    ContentStore,
    digest_parts,
)
from repro.obs.log import EVENTS
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER

#: Engine fan-out telemetry (observations dropped until METRICS is
#: enabled; sites below guard with one attribute check to keep the
#: library hot path free even of no-op calls).
_OBS_TASKS = METRICS.counter(
    "repro_engine_tasks_total", "Worker tasks submitted to the pool.")
_OBS_POOL_STARTS = METRICS.counter(
    "repro_engine_pool_starts_total", "Worker pool (re)starts.")
_OBS_CHUNK_SIZE = METRICS.gauge(
    "repro_engine_chunk_size", "Items per task in the latest fan-out.")
_OBS_WORKER_BUSY = METRICS.histogram(
    "repro_engine_worker_busy_seconds", "Busy seconds per worker task.")

#: Adaptive chunking targets ~this much work per task: big enough to
#: amortize scheduling, small enough to load-balance a 4-worker pool.
_TARGET_CHUNK_SEC = 0.05
_DEFAULT_CHUNK_SIZE = 16          # before any latency has been observed
_MAX_CHUNK_SIZE = 128
_MIN_CHUNKS_PER_WORKER = 4        # keep the pool fed near the tail
_EWMA_ALPHA = 0.3                 # weight of the newest latency sample

#: The stage path's cold-path guard: fan-out only pays off once per-sample
#: work amortizes pool startup and payload pickling, so stage batches
#: under ``workers * MIN_SAMPLES_PER_WORKER`` samples stay serial.
#: ``map`` tasks are sized by their caller and skip it.
MIN_SAMPLES_PER_WORKER = 32


def effective_cores() -> int:
    """Cores this process may actually schedule on (cgroup/affinity
    aware where the platform exposes it, unlike ``os.cpu_count``)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def stage_identity(stage: Any) -> str:
    """Stable identity of a stage instance for cache keys.

    Covers the implementation (qualname + registered name), the full
    config repr, and — for a stage whose output also depends on state
    outside its config (the IR2vec seed table) — that state's
    ``state_digest()``, so two differently-parameterized instances
    never share an entry or a worker pool.  Stages without a ``config``
    attribute get ``id=None`` — the engine treats those as uncacheable
    (see ``_cacheable``).
    """
    config = getattr(stage, "config", None)
    identity = (f"{type(stage).__qualname__}"
                f":{getattr(stage, 'name', type(stage).__name__)}"
                f":{config!r}")
    state_digest = getattr(stage, "state_digest", None)
    if callable(state_digest):
        identity += f":{state_digest()}"
    return identity


def _stage_ids(frontend: Any, featurizer: Optional[Any]) -> Tuple[str, ...]:
    """The identity prefix of every store key for these stages."""
    if featurizer is None:
        return (stage_identity(frontend),)
    return (stage_identity(frontend), stage_identity(featurizer))


def _cacheable(stage: Any) -> bool:
    return getattr(stage, "config", None) is not None


def _build_store(cache_dir: Optional[str], cas_addr: Optional[str],
                 version: Optional[str] = None) -> ContentStore:
    """The engine's stage store: memory only without ``cache_dir``,
    memory → disk with one, and memory → disk → fleet CAS when a CAS
    address is configured too, so one replica's cold compile becomes
    every replica's warm hit.  The fleet layer is imported lazily: the
    engine must not depend on it unless a fleet is actually in play."""
    if cache_dir and cas_addr:
        from repro.fleet.cas import TieredStore

        return TieredStore(cache_dir, cas_addr, version)
    return ContentStore(cache_dir, version)


def _split_batch(features: Any, n: int) -> List[Any]:
    """Per-sample rows of a batch featurizer output (matrix or list)."""
    if isinstance(features, np.ndarray):
        return [features[i] for i in range(n)]
    return list(features)


def _join_batch(featurizer: Any, rows: Sequence[Any]) -> Any:
    """Reassemble per-sample rows into the featurizer's batch shape."""
    kind = getattr(featurizer, "kind", None)
    if kind == "matrix" or (kind is None and rows
                            and all(isinstance(r, np.ndarray)
                                    and r.shape == rows[0].shape
                                    for r in rows)):
        if not rows:
            return featurizer.transform([])
        return np.stack(rows)
    if not rows and kind is None:
        return featurizer.transform([])
    return list(rows)


def _compile_one(store: Optional[ContentStore], frontend: Any,
                 frontend_id: Optional[str], name: str, source: str) -> Any:
    if store is not None and frontend_id is not None:
        key = store.key(COMPILE_STAGE, (frontend_id, name, source))
        found, module = store.get(COMPILE_STAGE, key)
        if found:
            return module
        module = frontend.compile(source, name)
        store.put(COMPILE_STAGE, key, module)
        return module
    return frontend.compile(source, name)


def _process_chunk(store: Optional[ContentStore], frontend: Any,
                   featurizer: Optional[Any],
                   chunk: Sequence[Tuple[str, str]]) -> List[Any]:
    """Compile (and optionally featurize) one chunk, through the store."""
    ids = (_stage_ids(frontend, featurizer)
           if store is not None and _cacheable(frontend) else None)
    modules = [_compile_one(store, frontend, ids[0] if ids else None,
                            name, source)
               for name, source in chunk]
    if featurizer is None:
        return modules
    rows = _split_batch(featurizer.transform(modules), len(modules))
    if ids is not None and _cacheable(featurizer):
        for (name, source), row in zip(chunk, rows):
            store.put(FEATURE_STAGE,
                      store.key(FEATURE_STAGE, ids + (name, source)), row)
    return rows


# ---------------------------------------------------------------------------
# Worker side: one task entry point, stage state installed once per pool
# ---------------------------------------------------------------------------

class _WorkerState(NamedTuple):
    """Everything a stage worker needs, installed once per pool."""

    token: str
    frontend: Any
    featurizer: Optional[Any]
    cache_dir: Optional[str]
    version: Optional[str]
    cas_addr: Optional[str]


#: The installed stage state, set by the pool initializer in each worker.
_WORKER_STATE: Optional[_WorkerState] = None


def _install_worker_state(state: Optional[_WorkerState]) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_task(payload: bytes) -> Tuple[List[Any], float,
                                       List[Dict[str, Any]]]:
    """The one pool entry point: ``fn(items)`` for a pickled ``(fn,
    items, trace ctx)`` under the parent's trace context.  Returns
    ``(values, busy_sec, spans)``; ``spans`` are the trace spans
    recorded here (empty unless the parent shipped a context)."""
    fn, items, ctx = pickle.loads(payload)
    start = time.perf_counter()
    with TRACER.worker_scope(ctx) as spans:
        values = fn(items)
    return values, time.perf_counter() - start, spans


def _stage_chunk(token: str, chunk: Sequence[Tuple[str, str]]) -> List[Any]:
    """Task body of a stage chunk: compile (and featurize) ``chunk``
    against the stage state installed in this worker."""
    state = _WORKER_STATE
    if state is None or state.token != token:
        raise RuntimeError(
            f"engine worker has no installed state for stage token {token!r}"
            " (pool restarted under a different stage?)")
    # A worker's store lives for one chunk: it exists to write the lower
    # tiers, and the parent's memory tier keeps what the chunk returns.
    store = (_build_store(state.cache_dir, state.cas_addr, state.version)
             if state.cache_dir else None)
    return _process_chunk(store, state.frontend, state.featurizer, chunk)


def _apply_each(fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
    """Task body of a :meth:`ExecutionEngine.map` task."""
    return [fn(item) for item in items]


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the execution engine.

    ``workers=0`` runs serially in-process; ``workers=N`` fans work out
    to N worker processes (started with ``fork`` on Linux, the platform
    default elsewhere).  ``cache_dir=None`` keeps the engine's store in
    memory only.

    ``cas_addr`` (``host:port``) attaches the persistent store to a
    fleet-shared network CAS (see :mod:`repro.fleet.cas`): local misses
    consult the fleet tier before recomputing, and local stores are
    published so sibling replicas never redo the work.  Requires
    ``cache_dir``; ignored without one.
    """

    workers: int = 0
    cache_dir: Optional[str] = None
    cas_addr: Optional[str] = None

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError("workers must be >= 0")


class ExecutionEngine:
    """Chunked, cached executor for the frontend/featurizer stages."""

    def __init__(self, config: Optional[EngineConfig] = None, **overrides):
        self.config = config or EngineConfig(**overrides)
        self.store: ContentStore = _build_store(
            self.config.cache_dir, self.config.cas_addr)
        #: Parent-side work counters (worker-side compiles land in the
        #: shared store but are not mirrored here).  ``tasks`` /
        #: ``payload_bytes`` count the parallel transport: submitted
        #: worker tasks (stage chunks and ``map`` tasks) and the bytes
        #: pickled into their payloads.
        self.counters: Dict[str, int] = {
            "compiled": 0, "featurized": 0, "chunks": 0, "parallel_chunks": 0,
            "pool_starts": 0, "mapped": 0, "tasks": 0, "payload_bytes": 0,
        }
        # The worker pool is persistent: started lazily on the first
        # parallel run and reused across calls (long-lived callers like
        # the serving loop would otherwise pay pool startup per batch).
        # It is keyed by the stage token whose state its workers hold —
        # running a different stage restarts it.  close() tears it down
        # deterministically; the engine stays usable afterwards.  The
        # lock only guards create/close (threads sharing the default
        # engine must not each fork a pool and orphan one).
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_token: Optional[str] = None
        self._pool_lock = threading.Lock()
        # Scheduling feedback: EWMA of observed per-sample seconds
        # (drives adaptive chunk sizing) and pool-utilization inputs.
        self._ewma_sample_sec: Optional[float] = None
        self._worker_busy_sec = 0.0
        self._parallel_wall_sec = 0.0

    # -- introspection ------------------------------------------------------
    @property
    def workers(self) -> int:
        return self.config.workers

    @property
    def cache_dir(self) -> Optional[str]:
        return self.config.cache_dir

    @property
    def pool_active(self) -> bool:
        """Whether a worker pool is currently alive."""
        return self._pool is not None

    @property
    def stats(self) -> Dict[str, CacheStats]:
        """Per-stage store counters (hits over all tiers) seen by this
        process."""
        return self.store.stats

    def stats_dict(self) -> Dict[str, Any]:
        tasks = self.counters["tasks"]
        wall = self._parallel_wall_sec
        capacity = wall * max(1, self.config.workers)
        return {
            "workers": self.config.workers,
            "cache_dir": self.config.cache_dir,
            "pool_active": self.pool_active,
            "counters": dict(self.counters),
            "perf": {
                "payload_bytes_per_task": (
                    round(self.counters["payload_bytes"] / tasks, 1)
                    if tasks else 0.0),
                "worker_busy_sec": round(self._worker_busy_sec, 6),
                "parallel_wall_sec": round(wall, 6),
                "pool_utilization": (
                    round(min(1.0, self._worker_busy_sec / capacity), 4)
                    if capacity > 0 else 0.0),
                "ewma_sample_sec": (round(self._ewma_sample_sec, 6)
                                    if self._ewma_sample_sec else 0.0),
                # Visible on every box so "fan-out never validated on
                # multi-core" (ROADMAP) shows up in /metrics and
                # `cache stats`: configured workers vs what the
                # scheduler can actually use here.
                "effective_cores": effective_cores(),
            },
            "pool": {
                "configured_workers": self.config.workers,
                "active": self.pool_active,
                "starts": self.counters["pool_starts"],
                "start_method": (self._mp_context().get_start_method()
                                 if self.config.workers > 0 else None),
            },
            "store": self.store.stats_dict(),
            # Two-tier fleet CAS counters (None on plain local stores).
            "cas": (self.store.cas_stats()
                    if hasattr(self.store, "cas_stats") else None),
        }

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool deterministically (idempotent).

        Serial engines are a no-op.  The engine remains usable: a later
        parallel run simply starts a fresh pool.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_token = None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API ---------------------------------------------------------
    def compile_sources(self, frontend: Any,
                        named_sources: Iterable[Tuple[str, str]]) -> List[Any]:
        """IR modules for ``(name, source)`` pairs, in input order."""
        out = self._run(frontend, None, COMPILE_STAGE, named_sources)
        self.counters["compiled"] += len(out)
        return out

    def featurize_sources(self, frontend: Any, featurizer: Any,
                          named_sources: Iterable[Tuple[str, str]]) -> Any:
        """Feature batch for ``(name, source)`` pairs, in input order.

        The fused hot path: compile misses and featurize in one worker
        trip, so modules never cross a process boundary.

        Per-sample caching and chunked fan-out require ``transform`` to
        be per-sample decomposable, which a featurizer asserts by
        declaring ``per_sample = True`` (the built-ins do).  Anything
        else gets exactly one whole-batch ``transform`` call — the
        pre-engine behavior, safe for batch-relative featurizers —
        with compilation still engine-cached but features never
        chunked or persisted.
        """
        if not getattr(featurizer, "per_sample", False):
            modules = self.compile_sources(frontend, named_sources)
            self.counters["featurized"] += len(modules)
            return featurizer.transform(modules)
        rows = self._run(frontend, featurizer, FEATURE_STAGE, named_sources)
        self.counters["featurized"] += len(rows)
        return _join_batch(featurizer, rows)

    def featurize_samples(self, frontend: Any, featurizer: Any,
                          samples: Iterable[Any]) -> Any:
        """Feature batch for dataset :class:`~repro.datasets.loader.Sample`
        objects (or anything with ``.name`` / ``.source``)."""
        from repro.datasets.loader import iter_named_sources

        return self.featurize_sources(frontend, featurizer,
                                      iter_named_sources(samples))

    def map(self, fn: Any, items: Sequence[Any],
            chunk_size: Optional[int] = None) -> List[Any]:
        """Order-preserving parallel map over the persistent worker pool.

        The generic fan-out primitive for work that is not a compile or
        featurize stage — e.g. evaluation-matrix cells, each an
        independent (train, predict, score) job.  ``fn`` must be a
        module-level callable and each item picklable; anything that
        cannot cross a process boundary falls back to serial execution
        with a warning, exactly like the stage scheduler.  Serial and
        parallel runs return identical results in input order.  The
        caller sizes the tasks, so any two or more of them fan out when
        ``workers > 0`` (the stage path's small-batch guard does not
        apply).

        ``chunk_size`` groups items per worker trip: one pickle + one
        future per *chunk* instead of per item, which is what makes
        fanning out thousands of cheap tasks (the fuzz campaign's
        per-program differential checks) pay off.  ``None`` keeps the
        one-task-per-item scheduling of heavyweight tasks like
        evaluation-matrix cells.
        """
        items = list(items)
        self.counters["mapped"] += len(items)
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        size = chunk_size or 1
        if self.config.workers > 0 and len(items) > size:
            task = partial(_apply_each, fn)
            done = self._fan_out([(task, items[i:i + size])
                                  for i in range(0, len(items), size)])
            if done is not None:
                return [value for values, _busy in done for value in values]
        return [fn(item) for item in items]

    # -- core scheduling ----------------------------------------------------
    def _effective_chunk_size(self, n_items: int) -> int:
        """Adaptive stage chunk size: ~``_TARGET_CHUNK_SEC`` of observed
        work per task, capped so every worker still sees at least
        ``_MIN_CHUNKS_PER_WORKER`` tasks."""
        ewma = self._ewma_sample_sec
        if ewma and ewma > 0:
            size = min(_MAX_CHUNK_SIZE,
                       max(1, int(_TARGET_CHUNK_SEC / ewma)))
        else:
            size = _DEFAULT_CHUNK_SIZE
        if self.config.workers > 0:
            cap = math.ceil(n_items / (self.config.workers
                                       * _MIN_CHUNKS_PER_WORKER))
            size = min(size, max(1, cap))
        return max(1, size)

    def _observe_sample_sec(self, sec_per_sample: float) -> None:
        if sec_per_sample <= 0:
            return
        if self._ewma_sample_sec is None:
            self._ewma_sample_sec = sec_per_sample
        else:
            self._ewma_sample_sec = (
                (1.0 - _EWMA_ALPHA) * self._ewma_sample_sec
                + _EWMA_ALPHA * sec_per_sample)

    def _run(self, frontend: Any, featurizer: Optional[Any], stage: str,
             named_sources: Iterable[Tuple[str, str]]) -> List[Any]:
        results: List[Any] = []
        misses: List[Tuple[str, str]] = []
        miss_index: List[int] = []
        keys: Dict[int, str] = {}
        cacheable = (_cacheable(frontend)
                     and (featurizer is None or _cacheable(featurizer)))
        ids = _stage_ids(frontend, featurizer) if cacheable else ()
        for index, (name, source) in enumerate(named_sources):
            results.append(None)
            if cacheable:
                key = keys[index] = self.store.key(stage,
                                                   ids + (name, source))
                found, value = self.store.get(stage, key)
                if found:
                    results[index] = value
                    continue
            misses.append((name, source))
            miss_index.append(index)
        if misses:
            values, remote = self._compute(frontend, featurizer, misses)
            for index, value in zip(miss_index, values):
                results[index] = value
                # Workers wrote their lower tiers; the parent's memory
                # tier takes what came back.
                if remote and cacheable:
                    self.store.remember(stage, keys[index], value)
        return results

    def _compute(self, frontend: Any, featurizer: Optional[Any],
                 misses: List[Tuple[str, str]]) -> Tuple[List[Any], bool]:
        """Per-sample values of the store misses, in order, and whether
        pool workers computed them."""
        # The loader's generic order-preserving chunker: serially, one
        # chunk of modules is live at a time.
        from repro.datasets.loader import iter_sample_chunks

        chunks = list(iter_sample_chunks(
            misses, self._effective_chunk_size(len(misses))))
        self.counters["chunks"] += len(chunks)
        if self.config.workers > 0 and len(chunks) > 1 and len(misses) \
                >= self.config.workers * MIN_SAMPLES_PER_WORKER:
            # Warm before every parallel run, not just pool creation:
            # the executor spawns workers lazily, so processes forked by
            # a *later* run (or after a featurizer change, e.g. a serving
            # hot reload) still inherit the warm state.
            self._warmup(featurizer)
            token = self._stage_token(frontend, featurizer)
            state = _WorkerState(token, frontend, featurizer,
                                 self.config.cache_dir, self.store.version,
                                 self.config.cas_addr)
            task = partial(_stage_chunk, token)
            done = self._fan_out([(task, chunk) for chunk in chunks], state)
            if done is not None:
                self.counters["parallel_chunks"] += len(chunks)
                values: List[Any] = []
                for chunk, (rows, busy) in zip(chunks, done):
                    self._observe_sample_sec(busy / len(chunk))
                    values.extend(rows)
                return values, True
        values = []
        for chunk in chunks:
            start = time.perf_counter()
            values.extend(_process_chunk(self.store, frontend, featurizer,
                                         chunk))
            self._observe_sample_sec((time.perf_counter() - start)
                                     / len(chunk))
        return values, False

    def _fan_out(self, tasks: List[Tuple[Callable[[List[Any]], List[Any]],
                                         List[Any]]],
                 state: Optional[_WorkerState] = None,
                 ) -> Optional[List[Tuple[List[Any], float]]]:
        """Run ``(fn, items)`` tasks on the pool; ``(values, busy_sec)``
        per task, in submission order.

        ``state`` is the stage state the pool's workers must hold (see
        :meth:`_ensure_pool`).  Returns ``None`` when a task or the state
        cannot cross a process boundary — the caller then runs serially.
        The state is probed on every platform, although only non-fork
        pools pickle it, so the serial-fallback contract is the same
        everywhere.
        """
        # The trace context rides every payload (None while tracing is
        # off — a few bytes) so workers attribute their spans to the
        # originating request(s).
        ctx = TRACER.capture()
        try:
            if state is not None:
                pickle.dumps(state)
            payloads = [pickle.dumps((fn, items, ctx)) for fn, items in tasks]
        except Exception as exc:     # pickling failure → serial fallback
            warnings.warn(
                f"engine: task is not picklable ({exc!r}); "
                "falling back to serial execution", RuntimeWarning,
                stacklevel=3)
            return None
        n_items = sum(len(items) for _fn, items in tasks)
        self.counters["tasks"] += len(payloads)
        self.counters["payload_bytes"] += sum(len(p) for p in payloads)
        if METRICS.enabled:
            _OBS_TASKS.inc(len(payloads))
            _OBS_CHUNK_SIZE.set(max(len(items) for _fn, items in tasks))
        if EVENTS.enabled:
            EVENTS.emit("engine.fanout", severity="debug",
                        chunks=len(payloads), samples=n_items,
                        workers=self.config.workers)
        wall_t0, start = time.time(), time.perf_counter()
        pool = self._ensure_pool(state)
        try:
            futures = [pool.submit(_run_task, p) for p in payloads]
        except RuntimeError:
            # close() raced us (another thread tore the pool down between
            # _ensure_pool and submit); closing is reversible by design,
            # so retry on a fresh pool.
            self._discard_pool(pool)
            pool = self._ensure_pool(state)
            futures = [pool.submit(_run_task, p) for p in payloads]
        results: List[Tuple[List[Any], float]] = []
        try:
            for future in futures:
                values, busy, spans = future.result()
                self._worker_busy_sec += busy
                if spans:
                    TRACER.merge_spans(spans)
                if METRICS.enabled:
                    _OBS_WORKER_BUSY.observe(busy)
                results.append((values, busy))
        except BrokenProcessPool:
            # A dead worker poisons the whole executor; drop it so the
            # next run starts a healthy pool.
            self._discard_pool(pool)
            pool.shutdown(wait=False)
            raise
        finally:
            wall = time.perf_counter() - start
            self._parallel_wall_sec += wall
            # A leaf beside the worker spans, which parent under the
            # caller's span via the context captured above.
            TRACER.record("engine.fanout", kind="engine",
                          start_s=wall_t0, elapsed_s=wall,
                          attrs={"chunks": len(payloads),
                                 "samples": n_items,
                                 "workers": self.config.workers})
        return results

    def _stage_token(self, frontend: Any, featurizer: Optional[Any]) -> str:
        """Identity of the worker-side state a pool must hold to run
        these stages (stage configs + store coordinates)."""
        return digest_parts([
            *_stage_ids(frontend, featurizer),
            self.config.cache_dir or "", self.store.version,
            self.config.cas_addr or "",
        ])

    def _ensure_pool(self,
                     state: Optional[_WorkerState] = None,
                     ) -> ProcessPoolExecutor:
        """The persistent worker pool, started on first parallel use.

        With ``state``, the pool must hold exactly that stage state:
        a live pool keyed to the same token is reused, anything else is
        torn down and restarted with the new state installed by the
        pool initializer (fork: inherited copy-on-write; elsewhere:
        pickled once per worker).  Without ``state`` (``map`` tasks) any
        live pool is reused.
        """
        with self._pool_lock:
            token = state.token if state is not None else None
            if self._pool is not None:
                if token is None or token == self._pool_token:
                    return self._pool
                stale, self._pool = self._pool, None
                stale.shutdown(wait=False)
            context = self._mp_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=context,
                initializer=_install_worker_state,
                initargs=(state,))
            self._pool_token = token
            self.counters["pool_starts"] += 1
            if METRICS.enabled:
                _OBS_POOL_STARTS.inc()
            if EVENTS.enabled:
                EVENTS.emit("engine.pool_start",
                            workers=self.config.workers,
                            start_method=context.get_start_method(),
                            staged=state is not None)
            return self._pool

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Forget ``pool`` unless another thread already replaced it."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
                self._pool_token = None

    def _warmup(self, featurizer: Optional[Any]) -> None:
        """Build expensive per-process state (e.g. the IR2vec encoder)
        before forking, so workers inherit it instead of rebuilding."""
        warmup = getattr(featurizer, "warmup", None)
        if callable(warmup):
            warmup()

    def _mp_context(self):
        # Prefer fork only on Linux: macOS lists it as available but
        # CPython made spawn the default there because forking a
        # thread-using parent (numpy/Accelerate, objc) is unsafe.
        if sys.platform.startswith("linux") \
                and "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# Process-wide default engine
# ---------------------------------------------------------------------------

_DEFAULT_ENGINE: Optional[ExecutionEngine] = None


def _env_workers(default: int = 0) -> int:
    """``REPRO_WORKERS``, tolerating malformed values rather than making
    every CLI/library call die deep inside the first corpus operation."""
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    try:
        workers = int(raw) if raw else default
    except ValueError:
        warnings.warn(f"ignoring malformed REPRO_WORKERS={raw!r}",
                      RuntimeWarning, stacklevel=3)
        return default
    return workers if workers >= 0 else default


def default_engine() -> ExecutionEngine:
    """The process-wide engine every pipeline uses unless given its own.

    First use builds it from the ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``
    / ``REPRO_CAS_ADDR`` environment variables (serial, memory tier
    only when unset); ``REPRO_CAS_ADDR`` is how fleet replica subprocesses attach
    their engines to the shared network CAS.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExecutionEngine(EngineConfig(
            workers=_env_workers(),
            cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
            cas_addr=os.environ.get("REPRO_CAS_ADDR") or None))
    return _DEFAULT_ENGINE


def configure(workers: Optional[int] = None,
              cache_dir: Optional[str] = None) -> ExecutionEngine:
    """Replace the default engine; ``None`` keeps the current setting."""
    global _DEFAULT_ENGINE
    current = default_engine().config
    _DEFAULT_ENGINE = ExecutionEngine(EngineConfig(
        workers=current.workers if workers is None else workers,
        cache_dir=current.cache_dir if cache_dir is None else (cache_dir
                                                               or None),
        cas_addr=current.cas_addr))
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[ExecutionEngine]) -> None:
    """Install (or with ``None``, reset) the process-wide default."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
