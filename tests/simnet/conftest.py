"""Fixtures shared by the simulator tests."""

import pytest

from repro.simnet.engine import _EVENT_POOL_MAX, Simulator


@pytest.fixture(params=["calendar", "reference"])
def sim(request):
    """The simulator a queue-semantics case runs on, in two starting states.

    ``reference`` is a freshly built :class:`Simulator`.  ``calendar`` has
    already dispatched a burst of zero-delay events: its clock still reads
    0 and its queue is empty, but its sequence counter is well past zero
    and every handle ``schedule()`` returns comes from the recycled-Event
    free list, so a reused handle must behave exactly like a new one.
    (The ids are the ones these cases carried when they ran on two queue
    implementations.)
    """
    sim = Simulator()
    if request.param == "calendar":
        for _ in range(_EVENT_POOL_MAX):
            sim.schedule(0.0, lambda: None)
        sim.run()
        assert sim.now == 0.0 and not sim._queue
        assert len(sim._free_events) == _EVENT_POOL_MAX
    return sim
