"""Discrete-event simulation engine.

:class:`Simulator` is one session's world: the pending-event queue, the
virtual clock, the event sequence counter and the seeded random streams.
Every stochastic component in the testbed (loss draws, netem jitter,
background traffic inter-arrivals, RSSI shadowing, ...) pulls from its
simulator's seeded generators so that a campaign is fully reproducible
from its seed, as required by the evaluation pipeline.  Sessions never
share a simulator; campaigns spread sessions over worker processes.

The pending queue is one binary heap of ``(time, seq, fn_or_event,
args)`` tuples.  ``seq`` is unique, so heap comparisons run in C and
never look past it: events fire in ``(time, seq)`` order, and among
equal timestamps schedule (FIFO) order wins.  A session's queue holds
about a hundred entries (median 74, max 278 over the eight golden
Table-2 cells), far too few for a bucketed queue to beat ``heapq``.

Scheduling has two tiers.  :meth:`Simulator.schedule` returns a
cancellable :class:`Event` handle; :meth:`Simulator.post` is the
fire-and-forget fast path used by the data plane (packet serialization,
delivery, forwarding), which queues the callback and its argument tuple
with no handle object at all.  Both tiers share one sequence counter, so
FIFO ordering across tiers is exact.  A callback about to post a
zero-delay entry may run its target inline instead when
:meth:`Simulator.due` reports nothing else due at the current instant:
the skipped entry would have been the very next one dispatched (the
zero-delay router bridge in :class:`repro.simnet.link.Channel`).

The random streams are plain ``random.Random`` generators: CPython's C
Mersenne Twister draws cheaper than any Python-level batching over it.

Cancelled events are purged lazily, but the simulator counts its dead
entries and compacts the queue when more than half the entries are
cancelled, so a workload that schedules and cancels many timers (TCP RTO
rearming, probe sampling) keeps the queue bounded by the live event count.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from sys import getrefcount
from typing import Any, Callable, List, Optional, Tuple

#: events recycled through the per-simulator free list (steady state keeps
#: allocation near zero; the cap only bounds a burst of simultaneous events)
_EVENT_POOL_MAX = 256

# A queue entry is (time, seq, fn_or_event, args_or_None): a plain Event
# for the cancellable tier (args is None), or the callback and its
# argument tuple directly for the post() tier.
_Entry = Tuple[float, int, Any, Optional[tuple]]


class Event:
    """A scheduled callback; cancellable handle returned by ``schedule``."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim: Optional[Simulator] = None  # owner while queued

    def cancel(self) -> None:
        """Prevent the callback from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state})"


class Simulator:
    """One session's event loop: a private queue, a clock, seeded streams.

    Components receive the simulator (conventionally named ``sim``) and
    use its clock (``now``), its scheduling tiers (``schedule`` /
    ``post``) and its random helpers.  All world state a component
    creates (nodes, links, endpoints, probes, faults) hangs off the
    simulator that built it; nothing session-scoped lives at module
    level (lint rule D105 enforces this for :mod:`repro.simnet`).

    Parameters
    ----------
    seed:
        Seed of ``rng``, a plain ``random.Random(seed)`` (hot-path draws
        such as per-packet loss), and of the auxiliary generators
        :meth:`fork_rng` derives from it.
    """

    def __init__(self, seed: int = 0) -> None:
        queue: List[_Entry] = []
        seq_next = itertools.count().__next__
        self._queue = queue
        self._seq_next = seq_next
        self._cancelled = 0
        self._free_events: List[Event] = []
        self.events_processed = 0
        #: current simulation time in seconds (read-only for components)
        self.now = 0.0
        self.seed = seed
        self.rng = random.Random(seed)

        heappush = heapq.heappush

        def post(delay: float, fn: Callable, *args: Any) -> None:
            if delay < 0:
                raise ValueError(f"cannot schedule in the past (delay={delay})")
            heappush(queue, (self.now + delay, seq_next(), fn, args))

        #: fire-and-forget ``schedule``: ``post(delay, fn, *args)`` queues a
        #: bare tuple with no cancellation handle.  The hot-path tier: same
        #: clock, same FIFO sequence space, same ordering guarantees, one
        #: call frame over the queue and counter it closes over.
        self.post: Callable[..., None] = post

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns a cancellable :class:`Event` handle.  Data-plane call
        sites that never cancel should prefer :meth:`post`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = self._seq_next()
        free = self._free_events
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, seq, fn, args)
        event._sim = self
        heapq.heappush(self._queue, (time, seq, event, None))
        return event

    def run(self, until: Optional[float] = None) -> None:
        """Process events in timestamp order.

        Stops when the queue is exhausted or the next event is later than
        ``until``.  When ``until`` is given the clock is advanced to it even
        if no event fires exactly there, so back-to-back ``run`` calls see a
        monotone clock.
        """
        limit = math.inf if until is None else until
        queue = self._queue
        heappop = heapq.heappop
        refcount = getrefcount
        pool_max = _EVENT_POOL_MAX
        free = self._free_events
        n = 0
        while queue:
            head = queue[0]
            if head[0] > limit:
                break
            heappop(queue)
            fn = head[2]
            args = head[3]
            if args is None:
                event = fn
                event._sim = None
                if event.cancelled:
                    self._cancelled -= 1
                else:
                    self.now = head[0]
                    fn = event.fn
                    args = event.args
                    event.fn = None
                    event.args = ()
                    head = None
                    fn(*args)
                    n += 1
                    args = None
                head = None
                # The pool only takes events nothing else references.
                if len(free) < pool_max and refcount(event) == 2:
                    free.append(event)
            else:
                self.now = head[0]
                head = None
                fn(*args)
                n += 1
                args = None
        self.events_processed += n
        if until is not None and self.now < until:
            self.now = until

    def due(self, time: float) -> bool:
        """Whether a queued entry is due by ``time``.

        A cancelled entry counts until it is purged, which only ever
        answers ``True`` where ``False`` was safe.
        """
        queue = self._queue
        return bool(queue) and queue[0][0] <= time

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if self._cancelled > 32 and self._cancelled * 2 > len(self._queue):
            # In place, so a dispatch loop holding the list stays valid.
            queue = self._queue
            queue[:] = [e for e in queue if e[3] is not None or not e[2].cancelled]
            heapq.heapify(queue)
            self._cancelled = 0

    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return len(self._queue) - self._cancelled

    # -- random helpers ----------------------------------------------------
    # Centralised so components never touch module-level randomness.

    def uniform(self, lo: float, hi: float) -> float:
        return self.rng.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        return self.rng.expovariate(rate)

    def normal(self, mean: float, std: float) -> float:
        return self.rng.gauss(mean, std)

    def bounded_normal(
        self, mean: float, std: float, lo: float = 0.0, hi: float = math.inf
    ) -> float:
        """Normal draw clamped into ``[lo, hi]`` (netem-style jitter)."""
        draw = self.rng.gauss(mean, std)
        if draw < lo:
            return lo
        if draw > hi:
            return hi
        return draw

    def chance(self, probability: float) -> bool:
        """Bernoulli draw; ``probability`` outside [0, 1] is clamped."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.rng.random() < probability

    def choice(self, seq):
        return self.rng.choice(seq)

    def fork_rng(self, label: str):
        """Derive an independent, reproducible RNG for a subsystem."""
        return random.Random(f"{self.seed}/{label}")
