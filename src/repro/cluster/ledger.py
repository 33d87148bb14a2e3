"""The cluster's routing policies: an O(1)-per-event dispatch index.

The :class:`DispatchLedger` keeps mutable per-device arrays
(``outstanding_ms``, ``queue_depth``, ``alive``) that the workers and the
fault injectors update in place as requests enqueue, complete, time out or
migrate and as devices enter and leave degraded episodes.  Per-eligible-subset
index structures (:class:`DeviceGroup`) read them and answer every dispatch,
so the ledger *defines* the three ``ClusterConfig.router`` policies:

* ``least_loaded`` — the member with the least outstanding predicted work,
  ties toward the lowest index.  A lazily-invalidated min-heap of
  ``(outstanding_ms, index)`` entries: every load delta pushes the device's
  new key; stale entries (whose value no longer matches the ledger) are
  discarded at peek time, so a dispatch is O(log G) amortized.  An entry
  that *matches* the ledger value is by construction the device's current
  key, so the surviving heap minimum is exactly ``min`` over the members.
* ``deadline_aware`` — bin-pack onto the most loaded member that still
  meets the deadline (``now + outstanding + predicted <= deadline + eps``),
  keeping headroom on the others for tighter requests; with no feasible
  member, least loaded.  A bisect-maintained ascending ordering of the same
  pairs: float addition is monotone, so the feasible members are a prefix
  of the ordering, and a binary search that evaluates the *identical* float
  expression finds its end bit-exactly.
* ``round_robin`` — load-blind rotation.  One cursor per run counts
  dispatches (not device positions) and indexes the group's members at
  ``cursor mod len(members)``: when the members shrink (a device degrades,
  or migration moves a model onto one device) traffic stays uniform over the
  current members instead of resuming where a vanished device left off, and
  when they grow back the rotation re-covers every device within one lap.

*Members.*  A group routes over its alive devices, or over all of its
devices when none is alive; a device is not alive while its fault injector
reports it degraded (crash recovery or a slowdown window).  A flip of a
device's alive flag rebuilds the index of each group holding the device,
and load changes of non-members are skipped with one set test, so the
per-dispatch cost stays independent of the cluster size.

The migration trigger rides the same ledger: each group counts its devices
(members or not) with ``queue_depth < migration_backlog``
(``below_backlog``), updated only when a depth delta crosses the threshold,
so the sustained-backlog window check is one integer compare.

The reference scans these structures replace — ``min``/``max`` over
freshly built :class:`~repro.cluster.server.GpuLoadView` tuples — live in
``tests/test_perf_equivalence.py``, which checks every pick of the golden
cluster matrix against them; ``tests/test_golden_digests.py`` pins the
routed runs.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

#: Slack of the deadline-feasibility test.
_EPS = 1e-9


class DeviceGroup:
    """Routing index over one eligible-device tuple of the placement map.

    Groups are created lazily per distinct device tuple (replicated placement
    has one, partitioned placement one per model, migration adds singleton
    groups) and updated through the owning ledger whenever a device's load,
    depth or alive flag changes.  The three policy methods share one
    signature, so the server binds the configured one by name.
    """

    __slots__ = (
        "ledger",
        "devices",
        "members",
        "_member_set",
        "heap",
        "pairs",
        "below_backlog",
    )

    def __init__(self, ledger: "DispatchLedger", devices: Tuple[int, ...]):
        self.ledger = ledger
        self.devices = devices
        self.heap: Optional[List[Tuple[float, int]]] = None
        self.pairs: Optional[List[Tuple[float, int]]] = None
        self.reindex()
        backlog = ledger.backlog
        if backlog:
            depth = ledger.queue_depth
            self.below_backlog = sum(1 for g in devices if depth[g] < backlog)
        else:
            self.below_backlog = len(devices)

    # -------------------------------------------------------------- policies

    def least_loaded(self, now: float, deadline: float, predicted_ms: float) -> int:
        """The least-loaded member (the request itself is not consulted)."""
        heap = self.heap
        outstanding = self.ledger.outstanding_ms
        while True:
            value, gpu = heap[0]
            if value == outstanding[gpu]:
                return gpu
            heapq.heappop(heap)  # stale: the device moved since this push

    def deadline_aware(self, now: float, deadline: float, predicted_ms: float) -> int:
        """The most loaded feasible member, else the least loaded one."""
        pairs = self.pairs
        limit = deadline + _EPS
        if not (now + pairs[0][0] + predicted_ms <= limit):
            return pairs[0][1]  # nothing feasible -> least loaded
        lo, hi = 0, len(pairs) - 1
        while lo < hi:  # invariant: pairs[lo] feasible; find the last one
            mid = (lo + hi + 1) >> 1
            if now + pairs[mid][0] + predicted_ms <= limit:
                lo = mid
            else:
                hi = mid - 1
        load = pairs[lo][0]
        # Ties on outstanding_ms break toward the lowest index: equal loads
        # are contiguous and index-sorted, so walk to the leftmost.
        while lo and pairs[lo - 1][0] == load:
            lo -= 1
        return pairs[lo][1]

    def round_robin(self, now: float, deadline: float, predicted_ms: float) -> int:
        """The member at the run's dispatch cursor (load-blind)."""
        ledger = self.ledger
        members = self.members
        choice = members[ledger.cursor % len(members)]
        ledger.cursor += 1
        return choice

    # ---------------------------------------------------------- invalidation

    def reindex(self) -> None:
        """Recompute the members and rebuild the load index over them."""
        ledger = self.ledger
        alive = ledger.alive
        self.members = tuple(g for g in self.devices if alive[g]) or self.devices
        self._member_set = frozenset(self.members)
        outstanding = ledger.outstanding_ms
        if ledger.track_order:
            self.pairs = sorted((outstanding[g], g) for g in self.members)
        elif ledger.track_load:
            self.heap = [(outstanding[g], g) for g in self.members]
            heapq.heapify(self.heap)

    def load_changed(self, old: float, new: float, gpu: int) -> None:
        if gpu not in self._member_set:
            return  # indexed again by reindex() when it rejoins
        if self.pairs is not None:
            pairs = self.pairs
            pairs.pop(bisect_left(pairs, (old, gpu)))
            insort(pairs, (new, gpu))
        elif self.heap is not None:
            heap = self.heap
            heapq.heappush(heap, (new, gpu))
            if len(heap) > 4 * len(self.members) + 16:
                self.reindex()  # compaction: drop the stale entries

    def depth_changed(self, old: int, new: int) -> None:
        backlog = self.ledger.backlog
        if old < backlog <= new:
            self.below_backlog -= 1
        elif new < backlog <= old:
            self.below_backlog += 1


class DispatchLedger:
    """Mutable per-device state shared by the workers and the routing index.

    One instance per :meth:`ClusterServer.serve` run.  Workers funnel every
    ``outstanding_ms`` / ``queue_depth`` delta through ``load_changed`` /
    ``depth_changed`` and fault injectors report degraded episodes through
    ``degraded_changed``; the server resolves a model's :class:`DeviceGroup`
    once per placement change and asks it for every dispatch.
    """

    __slots__ = (
        "num_gpus",
        "track_load",
        "track_order",
        "backlog",
        "outstanding_ms",
        "queue_depth",
        "alive",
        "cursor",
        "_groups",
        "_groups_by_device",
    )

    def __init__(self, num_gpus: int, router: str, backlog: int = 0):
        self.num_gpus = num_gpus
        self.track_order = router == "deadline_aware"
        self.track_load = self.track_order or router == "least_loaded"
        self.backlog = backlog
        self.outstanding_ms = [0.0] * num_gpus
        self.queue_depth = [0] * num_gpus
        self.alive = [True] * num_gpus
        #: Dispatches made so far; the ``round_robin`` rotation position.
        self.cursor = 0
        self._groups: Dict[Tuple[int, ...], DeviceGroup] = {}
        self._groups_by_device: List[List[DeviceGroup]] = [
            [] for _ in range(num_gpus)
        ]

    def group_for(self, devices: Tuple[int, ...]) -> DeviceGroup:
        """The (cached) index over one eligible-device tuple."""
        group = self._groups.get(devices)
        if group is None:
            group = DeviceGroup(self, devices)
            self._groups[devices] = group
            for gpu in devices:
                self._groups_by_device[gpu].append(group)
        return group

    def load_changed(self, gpu: int, new: float) -> None:
        """A device's outstanding predicted work moved; reindex it."""
        old = self.outstanding_ms[gpu]
        if new == old:
            return
        self.outstanding_ms[gpu] = new
        for group in self._groups_by_device[gpu]:
            group.load_changed(old, new, gpu)

    def depth_changed(self, gpu: int, old: int, new: int) -> None:
        """A device's queue depth moved; update the backlog counters."""
        self.queue_depth[gpu] = new
        for group in self._groups_by_device[gpu]:
            group.depth_changed(old, new)

    def degraded_changed(self, gpu: int, degraded: bool) -> None:
        """Fault-injector hook: device ``gpu`` entered/left a degraded episode."""
        self.alive[gpu] = not degraded
        for group in self._groups_by_device[gpu]:
            group.reindex()
