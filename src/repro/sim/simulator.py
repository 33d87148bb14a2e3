"""A minimal, deterministic discrete-event simulator.

Time is expressed in milliseconds throughout the code base; the choice keeps
the DNN stage execution times (a few hundred microseconds to a few
milliseconds) and the task periods (tens of milliseconds) in a comfortable
numeric range.

Cancellation is lazy (cancelled events stay in the heap and are skipped when
popped), and the simulator counts live versus cancelled events and compacts
the heap when cancelled entries dominate.  Nothing in the package cancels an
event, though: the GPU engine pushes bare completion callbacks straight into
the heap and tags each with a generation token, so a completion that a later
replan superseded fires as a no-op (see :mod:`repro.gpu.engine`).

Heap entries are ``(key, payload)`` pairs where ``key`` is the usual
``(time, priority, seq)`` tuple and ``payload`` is either a full
:class:`Event` (cancellable, labelled, handle-backed) or a bare callback.
Fire-and-forget paths (:meth:`Simulator.schedule_batch` and the GPU engine's
direct pushes) use the bare form: no ``Event`` object is allocated at all,
which matters because dispatch/release scheduling is one of the hottest
allocation sites of a scenario run.  Keys draw sequence numbers from the
shared event counter, so the deterministic total order is unchanged.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, List, Optional, Tuple

from repro.sim.events import Event, EventHandle, next_sequence

# Compact only once this many cancelled events have accumulated *and* they
# outnumber the live events: both conditions keep compaction amortized O(1).
_COMPACTION_MIN_CANCELLED = 64


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulation loop.

    The simulator owns the virtual clock and an event heap.  Components
    schedule callbacks at absolute times or after relative delays, and the
    main loop fires them in deterministic order.
    """

    def __init__(self, start_time: float = 0.0):
        # ``now`` is a plain public attribute (read ~50k times per scenario);
        # components must treat it as read-only — only the run loops advance it.
        self.now = float(start_time)
        # Heap items are ``(key, event)`` pairs: comparing the precomputed
        # key tuples stays entirely in C, avoiding an Event.__lt__ call per
        # sift step.  Keys are unique (the sequence number is), so the
        # event itself is never compared.
        self._heap: List[tuple] = []
        self._fired = 0
        self._stopped = False
        self._cancelled_in_heap = 0
        self._compactions = 0

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._fired

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Number of non-cancelled events still in the queue."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def compactions(self) -> int:
        """Number of heap compaction passes performed so far."""
        return self._compactions

    def schedule_at(
        self,
        time: float,
        callback: Callable[["Simulator"], None],
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        now = self.now
        if time < now:
            if time < now - 1e-9:
                raise SimulationError(
                    f"cannot schedule event at {time:.6f} ms, current time is {now:.6f} ms"
                )
            time = now
        event = Event(time=time, priority=priority, callback=callback, label=label)
        event.in_heap = True
        heapq.heappush(self._heap, (event._key, event))
        return EventHandle(event, self)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[["Simulator"], None],
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` after a relative ``delay`` in milliseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay:.6f} ms")
        return self.schedule_at(self.now + delay, callback, priority=priority, label=label)

    def schedule_batch(
        self,
        entries: Iterable[Tuple[float, int, Callable[["Simulator"], None]]],
    ) -> int:
        """Bulk-schedule fire-and-forget ``(time, priority, callback)`` entries.

        Pop order is independent of the insertion strategy because keys are
        unique (the shared sequence counter) and a heap pops uniquely-keyed
        items in sorted order regardless of its internal arrangement — so the
        cheaper of two equivalent insertions is chosen per call: n individual
        pushes (O(n log heap), right when the batch is small next to the
        resident heap, e.g. one task's releases landing among every other
        task's) or append-all + one heapify (O(n + heap), right for bulk
        loads into a small heap).  The historical always-heapify form made
        per-task scheduling quadratic in the number of tasks.  Returns the
        entry count.
        """
        heap = self._heap
        now = self.now
        staged = []
        for time, priority, callback in entries:
            if time < now:
                if time < now - 1e-9:
                    raise SimulationError(
                        f"cannot schedule event at {time:.6f} ms,"
                        f" current time is {now:.6f} ms"
                    )
                time = now
            staged.append(((time, priority, next_sequence()), callback))
        count = len(staged)
        if not count:
            return 0
        total = len(heap) + count
        if count * total.bit_length() < total:
            for item in staged:
                heapq.heappush(heap, item)
        else:
            heap.extend(staged)
            heapq.heapify(heap)
        return count

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------- compaction

    def _note_cancelled(self) -> None:
        """Called by :class:`EventHandle` when an in-heap event is cancelled."""
        self._cancelled_in_heap += 1
        cancelled = self._cancelled_in_heap
        if cancelled >= _COMPACTION_MIN_CANCELLED and cancelled > len(self._heap) - cancelled:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify.

        Pop order is unaffected: events are totally ordered by
        ``(time, priority, seq)`` with a unique sequence number, so any heap
        holding the same live events pops them in the same order.
        """
        live = [
            item
            for item in self._heap
            if type(item[1]) is not Event or not item[1].cancelled
        ]
        # In-place replacement: hot-path producers (the GPU engine) hold a
        # direct reference to the heap list, which must survive compaction.
        self._heap[:] = live
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    # ------------------------------------------------------------------- run

    def run_until(self, end_time: float) -> None:
        """Run events with timestamps strictly up to and including ``end_time``.

        The clock is advanced to ``end_time`` even if the queue drains early so
        that rate-based measurements (jobs per second) use the intended
        horizon.
        """
        self._stopped = False
        limit = end_time + 1e-12
        pop = heapq.heappop
        heap = self._heap  # compaction replaces the contents in place
        fired = 0
        while heap and not self._stopped:
            key, payload = heap[0]
            time = key[0]
            if time > limit:
                break
            pop(heap)
            if type(payload) is Event:
                payload.in_heap = False
                if payload.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                callback = payload.callback
            else:
                callback = payload
            if time > self.now:
                self.now = time
            if callback is not None:
                callback(self)
            fired += 1
        self._fired += fired
        if end_time > self.now:
            self.now = end_time

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue is empty or ``max_events`` events have fired."""
        self._stopped = False
        fired_here = 0
        pop = heapq.heappop
        while self._heap and not self._stopped:
            key, payload = pop(self._heap)
            if type(payload) is Event:
                payload.in_heap = False
                if payload.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                callback = payload.callback
            else:
                callback = payload
            time = key[0]
            if time > self.now:
                self.now = time
            if callback is not None:
                callback(self)
            self._fired += 1
            fired_here += 1
            if max_events is not None and fired_here >= max_events:
                break

    def peek_next_time(self) -> Optional[float]:
        """Return the timestamp of the next non-cancelled event, if any."""
        heap = self._heap
        while heap:
            key, payload = heap[0]
            if type(payload) is Event and payload.cancelled:
                heapq.heappop(heap)
                payload.in_heap = False
                self._cancelled_in_heap -= 1
                continue
            return key[0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f} ms, pending={len(self._heap)})"
