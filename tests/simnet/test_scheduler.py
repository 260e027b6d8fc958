"""Scheduler semantics, pinned against the binary-heap oracle.

The calendar queue must be observably identical to the oracle heap in
``tests/oracles/scheduler.py``: same firing order (time, then FIFO among
equal timestamps, across both scheduling tiers), same cancellation
semantics, and a pending queue bounded by the live event count even
under heavy schedule/cancel churn.  Every semantic test runs on both.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet import engine
from repro.simnet.engine import CalendarScheduler, Simulator
from tests.oracles.scheduler import HeapScheduler

SCHEDULERS = {"calendar": CalendarScheduler, "reference": HeapScheduler}


@pytest.fixture(params=sorted(SCHEDULERS))
def scheduler_name(request, monkeypatch):
    """Every Simulator built in the test uses the named scheduler."""
    monkeypatch.setattr(engine, "DEFAULT_SCHEDULER", SCHEDULERS[request.param])
    return request.param


def test_calendar_is_the_default():
    assert isinstance(Simulator().scheduler, CalendarScheduler)


# ------------------------------------------------------------- ordering


def test_equal_timestamp_fifo_across_tiers(scheduler_name):
    """schedule() and post() share one sequence space: FIFO among ties."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 0)
    sim.post(1.0, fired.append, 1)
    sim.schedule(1.0, fired.append, 2)
    sim.post(1.0, fired.append, 3)
    sim.run()
    assert fired == [0, 1, 2, 3]


def test_post_fires_in_time_order(scheduler_name):
    sim = Simulator()
    fired = []
    for delay in (2.0, 0.5, 1.5, 0.25):
        sim.post(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(fired)


def test_post_negative_delay_rejected(scheduler_name):
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.post(-0.01, lambda: None)


def test_schedule_at_in_past_raises(scheduler_name):
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_far_horizon_events_fire_in_order(scheduler_name):
    """Events beyond the calendar ring (overflow heap) stay ordered."""
    sim = Simulator()
    fired = []
    # Mix of near (in-ring) and far (seconds out: overflow) timestamps.
    for delay in (5.0, 0.001, 120.0, 0.3, 60.0, 0.002, 600.0):
        sim.post(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == 600.0


def test_run_limit_between_buckets(scheduler_name):
    """run(until) between two events leaves the later one queued."""
    sim = Simulator()
    fired = []
    sim.post(0.1, fired.append, "a")
    sim.post(90.0, fired.append, "b")  # far bucket for the calendar
    sim.run(until=1.0)
    assert fired == ["a"] and sim.now == 1.0
    sim.run(until=100.0)
    assert fired == ["a", "b"]


# ------------------------------------------------------------- cancellation


def test_cancel_during_dispatch_is_safe(scheduler_name):
    """A callback may cancel a later pending event mid-dispatch."""
    sim = Simulator()
    fired = []
    victim = sim.schedule(2.0, fired.append, "victim")
    sim.schedule(1.0, victim.cancel)
    sim.schedule(3.0, fired.append, "after")
    sim.run()
    assert fired == ["after"]
    assert sim.pending() == 0


def test_cancel_same_timestamp_during_dispatch(scheduler_name):
    """Cancelling an event scheduled at the *current* instant is honoured."""
    sim = Simulator()
    fired = []
    victim = sim.schedule(1.0, fired.append, "victim")

    def killer():
        fired.append("killer")
        victim.cancel()

    # Same timestamp, earlier sequence number: runs first.
    sim.scheduler.insert(1.0, -1, _event_for(sim, killer), None)
    sim.run()
    assert fired == ["killer"]


def _event_for(sim, fn):
    from repro.simnet.engine import Event

    event = Event(1.0, -1, fn, ())
    event._queue = sim.scheduler
    return event


def test_mass_cancel_keeps_queue_bounded(scheduler_name):
    """Satellite (a): 10k scheduled-then-cancelled timers must not leak.

    Lazy purging alone would leave every cancelled entry queued until its
    timestamp; the >50%-dead compaction bound keeps the backlog
    proportional to the live count instead.
    """
    sim = Simulator()
    events = [sim.schedule(10.0 + i * 0.001, lambda: None) for i in range(10_000)]
    keep = set(events[::100])  # 100 survivors
    peak = 0
    for event in events:
        if event not in keep:
            event.cancel()
            peak = max(peak, len(sim.scheduler))
    # The queue may lag behind the live count, but never by more than the
    # compaction threshold's factor (plus its small constant floor).
    live = len(keep)
    assert sim.pending() == live
    assert len(sim.scheduler) <= 2 * live + 66
    sim.run()
    assert len(sim.scheduler) == 0
    assert sim.pending() == 0


def test_rearm_churn_stays_bounded(scheduler_name):
    """RTO-style rearming (schedule+cancel per tick) must not accumulate."""
    sim = Simulator()
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
    assert len(sim.scheduler) <= 70  # dead entries purged, not accumulated


# ------------------------------------------------------------- pooling


def test_event_objects_are_recycled(scheduler_name):
    sim = Simulator()
    for _ in range(50):
        sim.schedule(0.001, lambda: None)
    sim.run()
    assert len(sim._free_events) > 0
    before = len(sim._free_events)
    sim.schedule(0.001, lambda: None)
    assert len(sim._free_events) == before - 1  # reused, not allocated


# ------------------------------------------------------------- differential


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
def test_calendar_matches_reference(ops):
    """Any mix of schedule/post/cancel fires identically on both, and
    inside every callback ``due(now)`` sees each live entry due then."""

    def run(name):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "DEFAULT_SCHEDULER", SCHEDULERS[name])
            sim = Simulator()
        assert type(sim.scheduler) is SCHEDULERS[name]
        fired = []
        dues = []
        cancellable = []

        def fire(tag):
            fired.append(tag)
            dues.append(sim.scheduler.due(sim.now))

        for i, (delay, kind) in enumerate(ops):
            if kind == "post":
                sim.post(delay, fire, ("p", i, delay))
            else:
                event = sim.schedule(delay, fire, ("s", i, delay))
                cancellable.append(event)
                if kind == "cancel" and len(cancellable) >= 2:
                    cancellable[len(cancellable) // 2].cancel()
        sim.run()
        # Entries fire in time order, so a live entry is due at a callback's
        # instant exactly when the next callback fires at the same time.
        # Cancelled entries may still count as due until they are purged.
        times = [tag[2] for tag in fired]
        live_due = [a == b for a, b in zip(times, times[1:])] + [False]
        assert all(due for due, live in zip(dues, live_due) if live)
        if all(kind != "cancel" for _, kind in ops):
            assert dues == live_due
        return fired, sim.now, sim.pending()

    assert run("calendar") == run("reference")
