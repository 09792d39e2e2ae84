"""MicroBatcher unit tests: dispatch on idle, coalescing, backpressure,
errors.

Pure asyncio — a counting stub stands in for the pipeline, and each
test drives its own event loop via ``asyncio.run`` (no plugin needed).
"""

import asyncio

import pytest

from repro.serve import MicroBatcher, QueueFullError


class CountingRunner:
    """Echo runner that records every batch it was handed (``started``
    on entry, ``batches`` once it returns)."""

    def __init__(self, delay: float = 0.0, gate: "asyncio.Event" = None):
        self.started = []
        self.batches = []
        self.delay = delay
        self.gate = gate

    async def __call__(self, items):
        self.started.append(list(items))
        if self.gate is not None:
            await self.gate.wait()
        if self.delay:
            await asyncio.sleep(self.delay)
        self.batches.append(list(items))
        return [f"ok:{item}" for item in items]


def test_coalesces_concurrent_submissions_into_fewer_batches():
    async def scenario():
        runner = CountingRunner()
        batcher = MicroBatcher(runner, max_batch=8, max_queue=64)
        batcher.start()
        futures = [batcher.submit(i) for i in range(12)]
        results = await asyncio.gather(*futures)
        await batcher.stop()
        return runner, results

    runner, results = asyncio.run(scenario())
    assert results == [f"ok:{i}" for i in range(12)]
    # 12 submissions, batch cap 8 → exactly [8, 4]; never 12 singletons.
    assert [len(b) for b in runner.batches] == [8, 4]


def test_observed_mean_batch_size_exceeds_one():
    async def scenario():
        batcher = MicroBatcher(CountingRunner(), max_batch=4, max_queue=64)
        batcher.start()
        await asyncio.gather(*[batcher.submit(i) for i in range(10)])
        await batcher.stop()
        return batcher.metrics

    metrics = asyncio.run(scenario())
    assert metrics.submitted == metrics.completed == 10
    assert metrics.mean_batch_size > 1
    assert metrics.max_batch_observed <= 4


async def _yield(times: int = 5) -> None:
    """Let ready callbacks run without letting any clock advance."""
    for _ in range(times):
        await asyncio.sleep(0)


def test_idle_batcher_dispatches_a_lone_submission_at_once():
    async def scenario():
        runner = CountingRunner()
        batcher = MicroBatcher(runner, max_batch=8, max_queue=8)
        batcher.start()
        await _yield()                   # the scheduler is now idle
        future = batcher.submit("alone")
        await _yield()                   # no timer may be involved
        dispatched = list(runner.batches)
        result = await future
        await batcher.stop()
        return dispatched, result

    dispatched, result = asyncio.run(scenario())
    assert dispatched == [["alone"]]
    assert result == "ok:alone"


def test_arrivals_during_a_batch_form_the_next_batch_in_fifo_order():
    async def scenario():
        gate = asyncio.Event()
        runner = CountingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=4, max_queue=16)
        batcher.start()
        first = batcher.submit("first")
        await _yield()                   # "first" is in flight, gated
        in_flight = list(runner.started)
        later = [batcher.submit(i) for i in range(6)]
        await _yield()                   # the runner is busy: no dispatch
        queued = (list(runner.started), batcher.queue_depth)
        gate.set()
        results = await asyncio.gather(first, *later)
        await batcher.stop()
        return in_flight, queued, runner, results

    in_flight, queued, runner, results = asyncio.run(scenario())
    assert in_flight == [["first"]]
    assert queued == ([["first"]], 6)
    # The backlog forms the next batch, capped at max_batch, FIFO.
    assert runner.batches == [["first"], [0, 1, 2, 3], [4, 5]]
    assert results == ["ok:first"] + [f"ok:{i}" for i in range(6)]


def test_sequential_submissions_dispatch_singletons():
    async def scenario():
        runner = CountingRunner()
        batcher = MicroBatcher(runner, max_batch=8, max_queue=8)
        batcher.start()
        for i in range(3):
            await batcher.submit(i)      # sequential → no coalescing
        await batcher.stop()
        return runner

    runner = asyncio.run(scenario())
    assert [len(b) for b in runner.batches] == [1, 1, 1]


def test_queue_overflow_raises_and_counts():
    async def scenario():
        gate = asyncio.Event()
        batcher = MicroBatcher(CountingRunner(gate=gate), max_batch=2,
                               max_queue=3)
        batcher.start()
        accepted = [batcher.submit(i) for i in range(3)]
        with pytest.raises(QueueFullError) as excinfo:
            batcher.submit(99)
        rejected_queue = batcher.metrics.rejected
        gate.set()                       # let the backlog drain
        results = await asyncio.gather(*accepted)
        await batcher.stop()
        return excinfo.value, rejected_queue, results

    error, rejected, results = asyncio.run(scenario())
    assert error.max_queue == 3
    assert rejected == 1
    assert results == ["ok:0", "ok:1", "ok:2"]


def test_submit_many_is_all_or_nothing():
    async def scenario():
        gate = asyncio.Event()
        batcher = MicroBatcher(CountingRunner(gate=gate), max_batch=4,
                               max_queue=4)
        batcher.start()
        first = batcher.submit_many(["a", "b", "c"])
        with pytest.raises(QueueFullError):
            batcher.submit_many(["d", "e"])    # 3 + 2 > 4 → none queued
        depth = batcher.queue_depth
        gate.set()
        await asyncio.gather(*first)
        await batcher.stop()
        return depth, batcher.metrics

    depth, metrics = asyncio.run(scenario())
    assert depth == 3                    # the rejected pair never enqueued
    assert metrics.rejected == 2 and metrics.completed == 3


def test_runner_exception_fails_only_that_batch():
    async def scenario():
        calls = []

        async def runner(items):
            calls.append(list(items))
            if "boom" in items:
                raise RuntimeError("model exploded")
            return [f"ok:{i}" for i in items]

        batcher = MicroBatcher(runner, max_batch=8, max_queue=8)
        batcher.start()
        with pytest.raises(RuntimeError, match="model exploded"):
            await batcher.submit("boom")
        survivor = await batcher.submit("fine")
        await batcher.stop()
        return survivor, batcher.metrics

    survivor, metrics = asyncio.run(scenario())
    assert survivor == "ok:fine"
    assert metrics.failed == 1 and metrics.completed == 1


def test_length_mismatch_is_an_error():
    async def scenario():
        async def runner(items):
            return ["just-one"]

        batcher = MicroBatcher(runner, max_batch=4, max_queue=8)
        batcher.start()
        futures = [batcher.submit(i) for i in range(3)]
        with pytest.raises(RuntimeError, match="returned 1 results"):
            await asyncio.gather(*futures)
        await batcher.stop()

    asyncio.run(scenario())


def test_stop_drains_pending_by_default():
    async def scenario():
        runner = CountingRunner(delay=0.01)
        batcher = MicroBatcher(runner, max_batch=2, max_queue=16)
        batcher.start()
        futures = [batcher.submit(i) for i in range(6)]
        await batcher.stop()             # drain=True
        return await asyncio.gather(*futures)

    results = asyncio.run(scenario())
    assert results == [f"ok:{i}" for i in range(6)]


def test_stop_without_drain_fails_pending():
    async def scenario():
        gate = asyncio.Event()
        batcher = MicroBatcher(CountingRunner(gate=gate), max_batch=1,
                               max_queue=16)
        batcher.start()
        in_flight = batcher.submit("in-flight")
        await _yield()                   # let the scheduler dispatch it
        late = batcher.submit("late")    # still queued behind the gate
        stop_task = asyncio.create_task(batcher.stop(drain=False))
        await asyncio.sleep(0)           # stop() fails the queued item now
        gate.set()                       # ... then the in-flight one lands
        await stop_task
        assert await in_flight == "ok:in-flight"
        with pytest.raises(RuntimeError, match="stopped before dispatch"):
            await late
        with pytest.raises(RuntimeError, match="not running"):
            batcher.submit("after-stop")

    asyncio.run(scenario())


def test_invalid_knobs_rejected():
    async def noop(items):
        return items

    with pytest.raises(ValueError):
        MicroBatcher(noop, max_batch=0)
    with pytest.raises(ValueError):
        MicroBatcher(noop, max_queue=0)


def test_undrained_stop_never_dispatches_an_empty_batch():
    """stop(drain=False) clears the queue while a batch is in flight;
    when the runner frees up, the scheduler must exit, not hand the
    runner zero items."""
    async def scenario():
        gate = asyncio.Event()
        runner = CountingRunner(gate=gate)
        batcher = MicroBatcher(runner, max_batch=8, max_queue=16)
        batcher.start()
        in_flight = batcher.submit("in-flight")
        await _yield()                         # dispatched, gated
        queued = batcher.submit_many(["a", "b"])
        stop_task = asyncio.create_task(batcher.stop(drain=False))
        await _yield()                         # pending emptied mid-flight
        gate.set()
        await stop_task
        for future in queued:
            with pytest.raises(RuntimeError, match="stopped before dispatch"):
                await future
        return runner, batcher.metrics, await in_flight

    runner, metrics, result = asyncio.run(scenario())
    assert result == "ok:in-flight"
    assert runner.batches == [["in-flight"]]        # no empty dispatch
    assert metrics.batches == 1
    assert metrics.failed == 2 and metrics.completed == 1
