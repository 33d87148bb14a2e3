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
Fire-and-forget paths (:meth:`Simulator.schedule_series` and the GPU
engine's direct pushes) use the bare form: no ``Event`` object is allocated
at all, which matters because dispatch/release scheduling is one of the
hottest allocation sites of a scenario run.  Keys draw sequence numbers from
the shared event counter, so the deterministic total order is unchanged.
A series keeps only its next entry in the heap, so a run's release streams
cost one heap entry each, whatever the horizon.

Pending entries hold callbacks into the components of a run (its scheduler,
GPU engine and fault injector), and each of those holds the simulator, so a
run that ends with events still pending is a reference cycle.  The run's
owner therefore calls :meth:`Simulator.drop_pending` once it has summarized
the run: the clock and the counters stay readable, and reference counting
frees the rest.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Sequence

from repro.sim.events import Event, EventHandle, next_sequence

# Compact only once this many cancelled events have accumulated *and* they
# outnumber the live events: both conditions keep compaction amortized O(1).
_COMPACTION_MIN_CANCELLED = 64


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class _Series:
    """The one heap entry of a :meth:`Simulator.schedule_series` series.

    Firing it pushes itself again, keyed by the next time.  Only the heap
    refers to it, so a finished series frees its times and callback without
    waiting for the cycle collector.
    """

    __slots__ = ("heap", "times", "floor", "priority", "seq", "callback", "position")

    def __init__(
        self,
        heap: List[tuple],
        times: Sequence[float],
        floor: float,
        priority: int,
        seq: int,
        callback: Callable[["Simulator", int], None],
    ):
        self.heap = heap  # compaction replaces the heap's contents in place
        self.times = times
        self.floor = floor
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.position = 0

    def __call__(self, simulator: "Simulator") -> None:
        index = self.position
        following = self.position = index + 1
        times = self.times
        if following < len(times):
            time = times[following]
            floor = self.floor
            heapq.heappush(
                self.heap, ((time if time > floor else floor, self.priority, self.seq), self)
            )
        self.callback(simulator, index)


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

    def schedule_series(
        self,
        times: Sequence[float],
        priority: int,
        callback: Callable[["Simulator", int], None],
    ) -> None:
        """Schedule ``callback(simulator, i)`` at each of the non-decreasing ``times``.

        The series holds at most one heap entry: firing entry ``i`` pushes
        entry ``i + 1``.  Every entry is keyed ``(times[i], priority, seq)``
        with one sequence number drawn now.  Pop order is bit-identical to
        pushing every entry up front, each with its own sequence number:

        * up front, the entries would draw a contiguous block of sequence
          numbers here.  The series' one number is drawn at the same point
          of the global sequence, so it compares against every other
          event's number exactly as each number of that block would;
        * keys stay unique, because a series has at most one entry in the
          heap;
        * two series that share a time and priority pop in the order they
          were scheduled, as before.  Within a series, entry ``i + 1`` can
          enter the heap only after entry ``i`` has popped, and the entries
          not yet pushed sort after the one that is, so leaving them out
          never changes which entry is the smallest.

        The past-time rule of :meth:`schedule_at` applies to the first
        entry; later entries are clamped to at least its clamped time.  An
        empty series schedules nothing.  ``times`` is read as the series
        fires, so it must not change afterwards.
        """
        if len(times) == 0:
            return
        now = self.now
        first = times[0]
        if first < now:
            if first < now - 1e-9:
                raise SimulationError(
                    f"cannot schedule event at {first:.6f} ms, current time is {now:.6f} ms"
                )
            first = now
        series = _Series(self._heap, times, first, priority, next_sequence(), callback)
        heapq.heappush(self._heap, ((first, priority, series.seq), series))

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    def drop_pending(self) -> None:
        """Drop every pending event without firing it.

        The clock, :attr:`events_fired` and :attr:`compactions` are kept.
        A handle of a dropped event may still be cancelled, which changes
        nothing.
        """
        heap = self._heap
        for _, payload in heap:
            if type(payload) is Event:
                payload.in_heap = False
        heap.clear()  # in place: the GPU engine holds the same list
        self._cancelled_in_heap = 0

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
