"""Event-queue semantics of :class:`~repro.simnet.engine.Simulator`.

One binary heap orders every entry by ``(time, seq)``: time first, then
FIFO among equal timestamps across both scheduling tiers.  Cancellation
is lazy but bounded: the queue stays proportional to the live event
count even under heavy schedule/cancel churn.  The semantic cases run on
both starting states of the ``sim`` fixture (``tests/simnet/conftest.py``):
a fresh simulator and one whose Event handles are all recycled.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.engine import Simulator

# ------------------------------------------------------------- ordering


def test_equal_timestamp_fifo_across_tiers(sim):
    """schedule() and post() share one sequence space: FIFO among ties."""
    fired = []
    sim.schedule(1.0, fired.append, 0)
    sim.post(1.0, fired.append, 1)
    sim.schedule(1.0, fired.append, 2)
    sim.post(1.0, fired.append, 3)
    sim.run()
    assert fired == [0, 1, 2, 3]


def test_post_fires_in_time_order(sim):
    fired = []
    for delay in (2.0, 0.5, 1.5, 0.25):
        sim.post(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(fired)


def test_post_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.post(-0.01, lambda: None)


def test_far_horizon_events_fire_in_order(sim):
    """Timestamps spread from a millisecond to minutes stay ordered."""
    fired = []
    for delay in (5.0, 0.001, 120.0, 0.3, 60.0, 0.002, 600.0):
        sim.post(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == 600.0


def test_run_limit_between_buckets(sim):
    """run(until) between two far-apart events leaves the later one queued."""
    fired = []
    sim.post(0.1, fired.append, "a")
    sim.post(90.0, fired.append, "b")
    sim.run(until=1.0)
    assert fired == ["a"] and sim.now == 1.0
    sim.run(until=100.0)
    assert fired == ["a", "b"]


# ------------------------------------------------------------- cancellation


def test_cancel_during_dispatch_is_safe(sim):
    """A callback may cancel a later pending event mid-dispatch."""
    fired = []
    victim = sim.schedule(2.0, fired.append, "victim")
    sim.schedule(1.0, victim.cancel)
    sim.schedule(3.0, fired.append, "after")
    sim.run()
    assert fired == ["after"]
    assert sim.pending() == 0


def test_cancel_same_timestamp_during_dispatch(sim):
    """Cancelling an event scheduled at the *current* instant is honoured."""
    fired = []

    def killer():
        fired.append("killer")
        victim.cancel()

    # Same timestamp, earlier sequence number: runs first.
    sim.schedule(1.0, killer)
    victim = sim.schedule(1.0, fired.append, "victim")
    assert len(sim._queue) == 2
    sim.run()
    assert fired == ["killer"]
    assert not sim._queue and sim.pending() == 0


def test_mass_cancel_keeps_queue_bounded(sim):
    """10k scheduled-then-cancelled timers must not leak.

    Lazy purging alone would leave every cancelled entry queued until its
    timestamp; the >50%-dead compaction bound keeps the backlog
    proportional to the live count instead.
    """
    events = [sim.schedule(10.0 + i * 0.001, lambda: None) for i in range(10_000)]
    keep = set(events[::100])  # 100 survivors
    peak = 0
    for event in events:
        if event not in keep:
            event.cancel()
            peak = max(peak, len(sim._queue))
    # The queue may lag behind the live count, but never by more than the
    # compaction threshold's factor (plus its small constant floor).
    live = len(keep)
    assert sim.pending() == live
    assert len(sim._queue) <= 2 * live + 66
    sim.run()
    assert len(sim._queue) == 0
    assert sim.pending() == 0


def test_rearm_churn_stays_bounded(sim):
    """RTO-style rearming (schedule+cancel per tick) must not accumulate."""
    state = {"timer": None, "ticks": 0}

    def tick():
        state["ticks"] += 1
        if state["timer"] is not None:
            state["timer"].cancel()
        if state["ticks"] < 5_000:
            state["timer"] = sim.schedule(1.0, lambda: None)
            sim.post(0.01, tick)
        else:
            state["timer"] = None

    sim.post(0.0, tick)
    sim.run(until=80.0)
    assert state["ticks"] == 5_000
    assert len(sim._queue) <= 70  # dead entries purged, not accumulated


# ------------------------------------------------------------- pooling


def test_event_objects_are_recycled(sim):
    for _ in range(50):
        sim.schedule(0.001, lambda: None)
    sim.run()
    assert len(sim._free_events) > 0
    before = len(sim._free_events)
    sim.schedule(0.001, lambda: None)
    assert len(sim._free_events) == before - 1  # reused, not allocated


# ------------------------------------------------------------- property


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0),
            st.sampled_from(["schedule", "post", "cancel"]),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_fired_order_is_sorted_live_ops(ops):
    """Any mix of schedule/post/cancel fires the live ops sorted by
    ``(time, seq)``, and inside every callback ``due(now)`` sees each
    live entry due then."""
    sim = Simulator()
    fired = []
    dues = []
    handles = []  # op i's Event, or None for a post()
    cancellable = []

    def fire(tag):
        fired.append(tag)
        dues.append(sim.due(sim.now))

    # Op i queues exactly one entry, so its sequence number is i.
    for i, (delay, kind) in enumerate(ops):
        if kind == "post":
            sim.post(delay, fire, (delay, i))
            handles.append(None)
            continue
        event = sim.schedule(delay, fire, (delay, i))
        handles.append(event)
        cancellable.append(event)
        if kind == "cancel" and len(cancellable) >= 2:
            cancellable[len(cancellable) // 2].cancel()
    live = [(delay, i) for i, ((delay, _), event) in enumerate(zip(ops, handles))
            if event is None or not event.cancelled]
    sim.run()
    assert fired == sorted(live)
    assert sim.now == max((delay for delay, _ in live), default=0.0)
    assert sim.pending() == 0
    # Entries fire in time order, so a live entry is due at a callback's
    # instant exactly when the next callback fires at the same time.
    # Cancelled entries may still count as due until they are purged.
    times = [delay for delay, _ in fired]
    live_due = [a == b for a, b in zip(times, times[1:])] + [False]
    assert all(due for due, is_due in zip(dues, live_due) if is_due)
    if all(kind != "cancel" for _, kind in ops):
        assert dues == live_due

