"""Async micro-batching scheduler.

The embedding/classifier stages are batch-first: one
``predict_batch(k)`` call costs far less than ``k`` calls of size 1
(shared compile/feature dispatch, one vectorized classifier call).  A
:class:`MicroBatcher` converts a stream of concurrent single-sample
submissions into exactly those calls:

* dispatch is work-conserving: whenever the runner is free and
  anything is queued, the scheduler hands it the first ``max_batch``
  items in FIFO order at once — an idle service adds no wait;
* everything that arrives while a batch is in flight queues up behind
  it and forms the next batch — dispatch is deliberately serial, which
  is both what keeps the underlying pipeline single-writer and what
  makes arrivals pile into full batches under load;
* a bounded queue (``max_queue`` samples) provides backpressure: when
  it is full, ``submit`` raises :class:`QueueFullError` and the HTTP
  layer turns that into ``429 Retry-After``.

The batcher is loop-agnostic and model-agnostic: the runner is any
``async callable([items]) -> [results]`` of equal length.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Awaitable, Callable, Deque, Dict, List, Optional, \
    Sequence, Tuple

from repro.obs.metrics import METRICS

_BATCH_SIZE = METRICS.histogram(
    "repro_serve_batch_size", "Samples per dispatched micro-batch.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128))
_BATCH_SECONDS = METRICS.histogram(
    "repro_serve_batch_seconds", "Runner execution time per micro-batch.")
_REJECTED = METRICS.counter(
    "repro_serve_rejected_samples_total",
    "Samples refused with 429 backpressure.")


class QueueFullError(RuntimeError):
    """The bounded request queue is at capacity; retry later."""

    def __init__(self, queued: int, max_queue: int):
        super().__init__(
            f"request queue is full ({queued}/{max_queue} samples queued)")
        self.queued = queued
        self.max_queue = max_queue


class BatcherMetrics:
    """Cumulative counters for the /metrics endpoint and the tests."""

    def __init__(self):
        self.submitted = 0       # samples accepted into the queue
        self.rejected = 0        # samples refused with QueueFullError
        self.completed = 0       # samples whose future got a result
        self.failed = 0          # samples whose future got an exception
        self.batches = 0         # runner invocations
        self.batched_samples = 0  # samples across all runner invocations
        self.max_batch_observed = 0
        self.exec_seconds = 0.0  # total time inside the runner

    @property
    def mean_batch_size(self) -> float:
        return self.batched_samples / self.batches if self.batches else 0.0

    def record_batch(self, size: int, exec_seconds: float) -> None:
        self.batches += 1
        self.batched_samples += size
        self.max_batch_observed = max(self.max_batch_observed, size)
        self.exec_seconds += exec_seconds
        _BATCH_SIZE.observe(size)
        _BATCH_SECONDS.observe(exec_seconds)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "batches": self.batches,
            "batched_samples": self.batched_samples,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "max_batch_observed": self.max_batch_observed,
            "exec_seconds": round(self.exec_seconds, 4),
        }


class MicroBatcher:
    """Coalesce concurrent submissions into bounded batches."""

    def __init__(self, runner: Callable[[List[Any]], Awaitable[Sequence[Any]]],
                 *, max_batch: int = 16, max_queue: int = 256):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._runner = runner
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.metrics = BatcherMetrics()
        self._pending: Deque[Tuple[Any, asyncio.Future]] = deque()
        self._wakeup = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Start the scheduler task on the running event loop."""
        if self._task is None:
            self._closed = False
            self._task = asyncio.get_running_loop().create_task(self._loop())

    async def stop(self, drain: bool = True) -> None:
        """Stop the scheduler; by default finish everything queued first."""
        if self._task is None:
            return
        self._closed = True
        if not drain:
            while self._pending:
                _item, future = self._pending.popleft()
                if not future.done():
                    future.set_exception(
                        RuntimeError("batcher stopped before dispatch"))
                    self.metrics.failed += 1
        self._wakeup.set()
        await self._task
        self._task = None

    # -- submission ---------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def submit(self, item: Any) -> asyncio.Future:
        """Queue one item; resolves with its per-item runner result."""
        return self.submit_many([item])[0]

    def submit_many(self, items: Sequence[Any]) -> List[asyncio.Future]:
        """Queue several items atomically: all accepted, or none.

        All-or-nothing keeps a bulk HTTP request from half-enqueuing
        before its 429 — the client retries the whole request.
        """
        if self._closed or self._task is None:
            raise RuntimeError("batcher is not running")
        if len(self._pending) + len(items) > self.max_queue:
            self.metrics.rejected += len(items)
            _REJECTED.inc(len(items))
            raise QueueFullError(len(self._pending), self.max_queue)
        loop = asyncio.get_running_loop()
        futures: List[asyncio.Future] = []
        for item in items:
            future = loop.create_future()
            self._pending.append((item, future))
            futures.append(future)
        self.metrics.submitted += len(items)
        self._wakeup.set()
        return futures

    # -- scheduler ----------------------------------------------------------
    async def _loop(self) -> None:
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            batch = [self._pending.popleft()
                     for _ in range(min(self.max_batch, len(self._pending)))]
            await self._dispatch(batch)

    async def _dispatch(self, batch: List[Tuple[Any, asyncio.Future]]) -> None:
        items = [item for item, _future in batch]
        start = time.monotonic()
        try:
            results = await self._runner(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results "
                    f"for {len(items)} items")
        except Exception as exc:
            for _item, future in batch:
                if not future.done():
                    future.set_exception(exc)
                    self.metrics.failed += 1
            return
        finally:
            self.metrics.record_batch(len(items), time.monotonic() - start)
        for (_item, future), result in zip(batch, results):
            if not future.done():          # client may have gone away
                future.set_result(result)
                self.metrics.completed += 1
