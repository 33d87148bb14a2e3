"""Pluggable dispatch policies for the cluster router.

A router is consulted once per released request, with a snapshot of every
*eligible* device's load (:class:`GpuLoadView`).  Policies are pure with
respect to the simulation — they draw no randomness and see only the views
they are handed — so routing decisions are bit-identical per seed and the
behavioral invariants (least-loaded never picks a strictly more-loaded
device, deadline-aware never strands a feasible request) are unit-testable
without a simulator.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, Sequence

_EPS = 1e-9


@dataclass(frozen=True)
class GpuLoadView:
    """One device's load as the router sees it at dispatch time.

    Attributes:
        index: device index within the cluster.
        outstanding_ms: predicted service time of everything queued or
            running on the device (the Clockwork-style isolated-latency
            ledger).
        queue_depth: requests queued or running on the device.
        alive: False while the device is degraded (crash recovery or a
            slowdown window); the dispatcher prefers alive devices and only
            falls back to degraded ones when no eligible device is healthy.
    """

    index: int
    outstanding_ms: float
    queue_depth: int
    alive: bool = True


class RouterPolicy(abc.ABC):
    """One dispatch policy; ``select`` returns the chosen device index."""

    name: ClassVar[str] = ""

    @abc.abstractmethod
    def select(
        self,
        now: float,
        deadline: float,
        predicted_ms: float,
        gpus: Sequence[GpuLoadView],
    ) -> int:
        """Pick a device index from the (non-empty) eligible views."""


class LeastLoadedRouter(RouterPolicy):
    """Dispatch to the device with the least outstanding predicted work.

    Invariant: the chosen device's ``outstanding_ms`` is <= every other
    eligible device's (ties break toward the lowest index).
    """

    name: ClassVar[str] = "least_loaded"

    def select(
        self,
        now: float,
        deadline: float,
        predicted_ms: float,
        gpus: Sequence[GpuLoadView],
    ) -> int:
        return min(gpus, key=lambda view: (view.outstanding_ms, view.index)).index


class RoundRobinRouter(RouterPolicy):
    """Rotate over the eligible devices, load-blind (consistent-hash style).

    The rotation counter is per-run state, so the dispatch sequence is a
    pure function of the release sequence — deterministic per seed.

    Rotation semantics under *filtered* views: the cursor counts dispatches,
    not device positions.  When the eligible list shrinks (a device dies or
    a partitioned/migrated placement narrows it) the policy keeps selecting
    position ``cursor mod len(eligible)`` of whatever list it is handed, so
    traffic stays uniform over the *current* eligible devices; it does not
    try to resume where a vanished device left off.  When the list grows
    back the rotation re-covers every device within one lap.  The dedicated
    unit test (``test_round_robin_rotation_under_filtered_views``) pins this
    distribution.
    """

    name: ClassVar[str] = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select(
        self,
        now: float,
        deadline: float,
        predicted_ms: float,
        gpus: Sequence[GpuLoadView],
    ) -> int:
        choice = gpus[self._cursor % len(gpus)].index
        self._cursor += 1
        return choice

    def select_index(self, devices: Sequence[int]) -> int:
        """View-free rotation over raw device indexes (the indexed fast path).

        Shares ``_cursor`` with :meth:`select`, so a run that mixes indexed
        dispatches with view-built ones (e.g. inside fault windows) rotates
        exactly like a run that builds views for every dispatch.
        """
        choice = devices[self._cursor % len(devices)]
        self._cursor += 1
        return choice


class DeadlineAwareRouter(RouterPolicy):
    """Bin-pack onto the most loaded device that still meets the deadline.

    A device is *feasible* when ``now + outstanding + predicted`` is within
    the request's deadline.  Among feasible devices the policy picks the
    most loaded one (preserving headroom on the others for tighter future
    requests); with no feasible device it degrades to least-loaded, which
    minimizes the lateness the per-device admission test then sees.
    """

    name: ClassVar[str] = "deadline_aware"

    def select(
        self,
        now: float,
        deadline: float,
        predicted_ms: float,
        gpus: Sequence[GpuLoadView],
    ) -> int:
        feasible = [
            view
            for view in gpus
            if now + view.outstanding_ms + predicted_ms <= deadline + _EPS
        ]
        if feasible:
            return max(feasible, key=lambda view: (view.outstanding_ms, -view.index)).index
        return min(gpus, key=lambda view: (view.outstanding_ms, view.index)).index


_ROUTER_TYPES = {
    LeastLoadedRouter.name: LeastLoadedRouter,
    RoundRobinRouter.name: RoundRobinRouter,
    DeadlineAwareRouter.name: DeadlineAwareRouter,
}


def make_router(name: str) -> RouterPolicy:
    """Fresh router instance for one run (policies may carry run state)."""
    try:
        router_cls = _ROUTER_TYPES[name]
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; choose from {', '.join(_ROUTER_TYPES)}"
        ) from None
    return router_cls()
