"""O(1)-per-event dispatch index for cluster routing.

A router handed a fresh tuple of :class:`~repro.cluster.router.GpuLoadView`
dataclasses on every released request, scanned with a lambda-keyed
``min``/``max``, costs O(num_gpus) allocation and comparison per release,
so the cluster would get slower per job the bigger it grew.  The
:class:`DispatchLedger` replaces those snapshots with mutable per-device
arrays (``outstanding_ms``, ``queue_depth``) that the workers update in place
as requests enqueue, complete, time out or migrate, plus per-eligible-subset
index structures (:class:`DeviceGroup`) the routers read directly:

* ``least_loaded`` — a lazily-invalidated min-heap of ``(outstanding_ms,
  index)`` entries.  Every load delta pushes the device's new key; stale
  entries (whose value no longer matches the ledger) are discarded at peek
  time, so a dispatch is O(log G) amortized instead of an O(G) scan.  An
  entry that *matches* the ledger value is by construction the device's
  current key, so the surviving heap minimum is exactly the router's
  ``min(views, key=(outstanding_ms, index))``.
* ``deadline_aware`` — a bisect-maintained ascending ordering of the same
  ``(outstanding_ms, index)`` pairs.  Floating-point addition is monotone,
  so the router's feasibility predicate ``now + outstanding + predicted <=
  deadline + eps`` is true on a prefix of the ordering; a binary search that
  evaluates the *identical* float expression finds the boundary bit-exactly,
  and the pack target (max outstanding, min index among ties) is the end of
  that prefix walked left over equal loads.
* ``round_robin`` — needs no load structure; the router's cursor indexes the
  group's device tuple directly (see ``RoundRobinRouter.select_index``).

The migration trigger rides the same ledger: each group counts its member
devices with ``queue_depth < migration_backlog`` (``below_backlog``), updated
only when a depth delta crosses the threshold, so the sustained-backlog
window check collapses from a per-release min-scan to one integer compare.

Equivalence contract: every structure answers *exactly* what the router
policy's ``select`` scan answers over views of the same ledger state — same
floats, same tie-breaks, same epsilon — and ``tests/test_golden_digests.py``
pins the routed runs across the router x placement x fault x migration
matrix.  The alive filter is handled by engagement, not emulation: the
server only consults the index while no device is degraded (tracked O(1)
via the fault injector's degraded-flip hook) and routes through views
inside fault windows, where the filtered candidate list is no longer a pure
function of the ledger.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

from repro.cluster.router import _EPS


class DeviceGroup:
    """Routing index over one eligible-device tuple of the placement map.

    Groups are created lazily per distinct device tuple (replicated placement
    has one, partitioned placement one per model, migration adds singleton
    groups) and updated through the owning ledger whenever a member device's
    load or depth changes.
    """

    __slots__ = ("ledger", "devices", "heap", "pairs", "below_backlog")

    def __init__(self, ledger: "DispatchLedger", devices: Tuple[int, ...]):
        self.ledger = ledger
        self.devices = devices
        outstanding = ledger.outstanding_ms
        self.heap: Optional[List[Tuple[float, int]]] = None
        self.pairs: Optional[List[Tuple[float, int]]] = None
        if ledger.track_order:
            self.pairs = sorted((outstanding[g], g) for g in devices)
        elif ledger.track_load:
            self.heap = [(outstanding[g], g) for g in devices]
            heapq.heapify(self.heap)
        backlog = ledger.backlog
        if backlog:
            depth = ledger.queue_depth
            self.below_backlog = sum(1 for g in devices if depth[g] < backlog)
        else:
            self.below_backlog = len(devices)

    # -------------------------------------------------------------- selection

    def least_loaded(self) -> int:
        """The ``min(views, key=(outstanding_ms, index))`` answer."""
        heap = self.heap
        outstanding = self.ledger.outstanding_ms
        while True:
            value, gpu = heap[0]
            if value == outstanding[gpu]:
                return gpu
            heapq.heappop(heap)  # stale: the device moved since this push

    def deadline_aware(self, now: float, deadline: float, predicted_ms: float) -> int:
        """The pack-most-loaded-feasible / least-loaded-fallback answer.

        Evaluates the router's predicate ``now + outstanding + predicted <=
        deadline + eps`` verbatim at O(log G) probe points; monotonicity of
        float addition makes the feasible set a prefix of the ordering.
        """
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

    # ---------------------------------------------------------- invalidation

    def load_changed(self, old: float, new: float, gpu: int) -> None:
        if self.pairs is not None:
            pairs = self.pairs
            pairs.pop(bisect_left(pairs, (old, gpu)))
            insort(pairs, (new, gpu))
        elif self.heap is not None:
            heap = self.heap
            heapq.heappush(heap, (new, gpu))
            if len(heap) > 4 * len(self.devices) + 16:
                self._compact()

    def _compact(self) -> None:
        outstanding = self.ledger.outstanding_ms
        self.heap = [(outstanding[g], g) for g in self.devices]
        heapq.heapify(self.heap)

    def depth_changed(self, old: int, new: int) -> None:
        backlog = self.ledger.backlog
        if old < backlog <= new:
            self.below_backlog -= 1
        elif new < backlog <= old:
            self.below_backlog += 1


class DispatchLedger:
    """Mutable per-device load state shared by the workers and the router.

    One instance per :meth:`ClusterServer.serve` run.  Workers funnel every
    ``outstanding_ms`` / ``queue_depth`` delta through ``load_changed`` /
    ``depth_changed``; the server resolves a model's :class:`DeviceGroup`
    once per placement change and reads it per dispatch.
    """

    __slots__ = (
        "num_gpus",
        "track_load",
        "track_order",
        "backlog",
        "outstanding_ms",
        "queue_depth",
        "degraded_devices",
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
        #: Devices currently degraded (crash recovery / slowdown window);
        #: maintained by the fault injectors' degraded-flip hooks so the
        #: "is the alive-filter a no-op?" guard is one integer compare.
        self.degraded_devices = 0
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

    def degraded_changed(self, degraded: bool) -> None:
        """Fault-injector hook: a device entered/left a degraded episode."""
        self.degraded_devices += 1 if degraded else -1
