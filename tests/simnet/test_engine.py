"""Unit tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.simnet.engine import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append("late"))
    sim.run(until=5.0)
    assert fired == []
    sim.run(until=15.0)
    assert fired == ["late"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append("x"))
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.pending() == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_during_run():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_determinism_same_seed():
    def draw(seed):
        sim = Simulator(seed=seed)
        return [sim.uniform(0, 1) for _ in range(10)]

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_fork_rng_independent_and_reproducible():
    sim_a = Simulator(seed=1)
    sim_b = Simulator(seed=1)
    assert sim_a.fork_rng("x").random() == sim_b.fork_rng("x").random()
    assert sim_a.fork_rng("x").random() != sim_a.fork_rng("y").random()


def test_chance_extremes():
    sim = Simulator()
    assert sim.chance(0.0) is False
    assert sim.chance(1.0) is True
    assert sim.chance(-1.0) is False
    assert sim.chance(2.0) is True


@given(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=2.0))
def test_bounded_normal_respects_bounds(mean, std):
    sim = Simulator(seed=3)
    for _ in range(20):
        value = sim.bounded_normal(mean, std, lo=0.0, hi=20.0)
        assert 0.0 <= value <= 20.0


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
def test_event_order_is_sorted_property(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, fired.append, d)
    sim.run()
    assert fired == sorted(fired)
    assert math.isclose(sim.now, max(delays)) or sim.now == 0.0
