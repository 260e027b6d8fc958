"""Micro-batcher concurrency contract, on a real event loop.

Everything here runs against a synchronous echo/recording runner, so the
properties under test are pure batching mechanics: which requests share
a loop turn and therefore a runner call, request/response ordering under
interleaved clients, the batch-size cap, per-request error isolation,
and result bit-identity against calling the runner directly.  No clock
is involved: ``await asyncio.sleep(0)`` advances the loop by one turn.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.batcher import MicroBatcher


class RecordingRunner:
    """Echo runner that logs every batch it is handed."""

    def __init__(self):
        self.batches = []

    def __call__(self, records):
        self.batches.append(list(records))
        for record in records:
            if record == "bad":
                raise ValueError("malformed record")
        return [("scored", record) for record in records]


def spy_on_flushes(batcher):
    """Log ``(reason, records queued)`` for every flush call, empty or not."""
    calls = []
    real_flush = batcher.flush

    def flush(reason="drain"):
        calls.append((reason, batcher.pending_records))
        real_flush(reason)

    batcher.flush = flush
    return calls


def run(coro):
    return asyncio.run(coro)


def test_interleaved_clients_get_their_own_results_in_order():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=100)

    async def scenario():
        a = asyncio.ensure_future(batcher.submit(["a1", "a2"]))
        b = asyncio.ensure_future(batcher.submit(["b1"]))
        c = asyncio.ensure_future(batcher.submit(["c1", "c2", "c3"]))
        return await asyncio.gather(a, b, c)

    results_a, results_b, results_c = run(scenario())
    assert results_a == [("scored", "a1"), ("scored", "a2")]
    assert results_b == [("scored", "b1")]
    assert results_c == [("scored", "c1"), ("scored", "c2"), ("scored", "c3")]
    # one turn -> one coalesced batch, in arrival order
    assert runner.batches == [["a1", "a2", "b1", "c1", "c2", "c3"]]


def test_requests_woken_in_one_turn_share_one_runner_call():
    """Clients the loop resumes together (as after one selector poll) batch."""
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=64)

    async def client(ready, name):
        await ready.wait()
        return await batcher.submit([name])

    async def scenario():
        ready = asyncio.Event()
        clients = [asyncio.ensure_future(client(ready, f"c{i}"))
                   for i in range(5)]
        await asyncio.sleep(0)  # every client is now parked on the event
        assert batcher.stats["requests"] == 0
        ready.set()  # wakes all five in the same turn
        return await asyncio.gather(*clients)

    results = run(scenario())
    assert results == [[("scored", f"c{i}")] for i in range(5)]
    assert runner.batches == [[f"c{i}" for i in range(5)]]
    assert batcher.stats["flush_turn"] == 1


def test_requests_on_different_turns_get_separate_runner_calls():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=64)

    async def scenario():
        first = batcher.submit(["x"])
        await asyncio.sleep(0)
        second = batcher.submit(["y"])
        return await asyncio.gather(first, second)

    assert run(scenario()) == [[("scored", "x")], [("scored", "y")]]
    assert runner.batches == [["x"], ["y"]]
    assert batcher.stats["flush_turn"] == 2


def test_lone_request_scored_on_next_turn_without_a_timer(monkeypatch):
    def no_timers(*args, **kwargs):
        raise AssertionError("the batcher must not arm a timer")

    monkeypatch.setattr(asyncio.BaseEventLoop, "call_later", no_timers)
    monkeypatch.setattr(asyncio.BaseEventLoop, "call_at", no_timers)
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=64)

    async def scenario():
        future = batcher.submit(["x"])
        # under the cap: nothing runs inside submit itself
        assert runner.batches == []
        assert batcher.pending_records == 1
        await asyncio.sleep(0)  # one turn later the window has flushed
        assert runner.batches == [["x"]]
        assert future.done()
        return await future

    assert run(scenario()) == [("scored", "x")]
    assert batcher.stats["flush_turn"] == 1
    assert batcher.stats["flush_full"] == 0


def test_full_window_flushes_without_waiting():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=3)
    flushes = spy_on_flushes(batcher)

    async def scenario():
        a = batcher.submit(["a1", "a2"])
        assert runner.batches == []  # still below the cap
        b = batcher.submit(["b1"])
        assert runner.batches == [["a1", "a2", "b1"]]  # flushed on fill
        c = batcher.submit(["c1"])  # same turn: opens a fresh window
        results = await asyncio.gather(a, b, c)
        for _ in range(3):
            await asyncio.sleep(0)  # let any stale turn flush fire
        return results

    run(scenario())
    assert runner.batches == [["a1", "a2", "b1"], ["c1"]]
    # the full flush cancelled the turn flush a1/a2 scheduled, so no
    # flush ever ran on an empty window
    assert flushes == [("full", 3), ("turn", 1)]
    assert batcher.stats["flush_full"] == 1
    assert batcher.stats["flush_turn"] == 1


def test_batch_size_cap_never_exceeded():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=4)

    async def scenario():
        futures = [asyncio.ensure_future(batcher.submit([f"r{i}a", f"r{i}b", f"r{i}c"]))
                   for i in range(3)]
        return await asyncio.gather(*futures)

    results = run(scenario())
    assert all(len(batch) <= 4 for batch in runner.batches)
    assert sum(len(batch) for batch in runner.batches) == 9
    for i, per_request in enumerate(results):
        assert per_request == [("scored", f"r{i}a"), ("scored", f"r{i}b"),
                               ("scored", f"r{i}c")]


def test_oversized_single_request_is_chunked_under_the_cap():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=4)

    async def scenario():
        return await batcher.submit([f"r{i}" for i in range(10)])

    results = run(scenario())
    assert [len(batch) for batch in runner.batches] == [4, 4, 2]
    assert results == [("scored", f"r{i}") for i in range(10)]


def test_error_isolation_one_bad_request_only():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=64)

    async def scenario():
        good = asyncio.ensure_future(batcher.submit(["g1", "g2"]))
        bad = asyncio.ensure_future(batcher.submit(["bad"]))
        also_good = asyncio.ensure_future(batcher.submit(["g3"]))
        return await asyncio.gather(good, bad, also_good,
                                    return_exceptions=True)

    good, bad, also_good = run(scenario())
    assert good == [("scored", "g1"), ("scored", "g2")]
    assert isinstance(bad, ValueError)
    assert also_good == [("scored", "g3")]
    assert batcher.stats["request_errors"] == 1
    # one shared batch failed, then each request was retried alone
    assert runner.batches == [["g1", "g2", "bad", "g3"],
                              ["g1", "g2"], ["bad"], ["g3"]]


def test_batched_results_identical_to_direct_runner_calls():
    """Batching is routing only: any grouping yields the runner's answers."""
    requests = [[f"q{i}-{j}" for j in range(i % 4 + 1)] for i in range(12)]
    direct = [[("scored", r) for r in request] for request in requests]

    for max_batch in (1, 3, 64):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=max_batch)

        async def scenario():
            futures = []
            for i, request in enumerate(requests):
                futures.append(asyncio.ensure_future(batcher.submit(request)))
                if i % 5 == 4:
                    await asyncio.sleep(0)  # spread requests over turns
            return await asyncio.gather(*futures)

        assert run(scenario()) == direct


def test_drain_flush_resolves_everything():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=64)

    async def scenario():
        future = asyncio.ensure_future(batcher.submit(["x"]))
        batcher.flush("drain")  # before the turn flush gets its chance
        result = await future
        await asyncio.sleep(0)
        return result

    assert run(scenario()) == [("scored", "x")]
    assert batcher.stats["flush_drain"] == 1
    assert batcher.stats["flush_turn"] == 0
    assert batcher.pending_records == 0


def test_knob_validation():
    with pytest.raises(ValueError):
        MicroBatcher(lambda r: r, max_batch=0)
