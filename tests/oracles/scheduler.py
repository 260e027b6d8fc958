"""Binary-heap scheduler: the semantic oracle for the calendar queue.

One heap of ``(time, seq, 0, fn_or_event, args_or_None)`` entries, the
same entry layout and dispatch contract (including ``due``, the guard of
the channels' inline delivery) as
:class:`repro.simnet.engine.CalendarScheduler`.  Swap it into every new
:class:`~repro.simnet.engine.Simulator` with::

    monkeypatch.setattr(engine, "DEFAULT_SCHEDULER", HeapScheduler)
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Any, Callable, List

from repro.simnet.engine import _EVENT_POOL_MAX, _entry_live


class HeapScheduler:
    """A single binary heap ordered by ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._cancelled = 0

    def insert(self, time: float, seq: int, fn: Any, args: Any) -> None:
        heapq.heappush(self._heap, (time, seq, 0, fn, args))

    def make_post(self, sim: Any, seq: Any) -> Callable[..., None]:
        heap = self._heap
        seq_next = seq.__next__

        def post(delay: float, fn: Callable, *args: Any) -> None:
            if delay < 0:
                raise ValueError(f"cannot schedule in the past (delay={delay})")
            heapq.heappush(heap, (sim.now + delay, seq_next(), 0, fn, args))

        return post

    def _run(self, sim: Any, limit: float) -> int:
        heap = self._heap
        free = sim._free_events
        n = 0
        while sim._running and heap:
            head = heap[0]
            if head[0] > limit:
                break
            heapq.heappop(heap)
            fn, args = head[3], head[4]
            if args is None:
                event = fn
                event._queue = None
                if event.cancelled:
                    self._cancelled -= 1
                else:
                    sim.now = head[0]
                    fn, args = event.fn, event.args
                    event.fn, event.args = None, ()
                    head = None
                    fn(*args)
                    n += 1
                    args = None
                head = None
                # The pool only takes events nothing else references.
                if len(free) < _EVENT_POOL_MAX and getrefcount(event) == 2:
                    free.append(event)
            else:
                sim.now = head[0]
                head = None
                fn(*args)
                n += 1
                args = None
        return n

    def due(self, time: float) -> bool:
        heap = self._heap
        return bool(heap) and heap[0][0] <= time

    def note_cancel(self) -> None:
        self._cancelled += 1
        if self._cancelled > 32 and self._cancelled * 2 > len(self._heap):
            self.compact()

    def compact(self) -> None:
        # In place, so a dispatch loop holding the list stays valid.
        self._heap[:] = [e for e in self._heap if _entry_live(e)]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def pending(self) -> int:
        return len(self._heap) - self._cancelled

    def __len__(self) -> int:
        return len(self._heap)
