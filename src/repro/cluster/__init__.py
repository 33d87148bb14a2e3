"""Multi-GPU cluster serving: router, placement, migration, per-GPU loops.

The paper's serving story at fleet shape: N simulated GPUs behind a
dispatcher, as one composite :class:`~repro.backends.base.SchedulerBackend`
(registered as ``cluster``) on one simulator event graph — so cluster
scenarios stay bit-identical per seed and inherit caching, replication,
parallel fan-out and sharded sweeps unchanged.

* :mod:`repro.cluster.config` — ``ClusterConfig``: ``num_gpus`` / ``router``
  / ``placement`` / migration fields as first-class config axes.
* :mod:`repro.cluster.placement` — the initial model -> device-subset
  placement (``replicated`` / ``partitioned``).
* :mod:`repro.cluster.ledger` — the routing policies (``least_loaded`` /
  ``round_robin`` / ``deadline_aware``) as an O(1)-per-event dispatch index
  over each model's alive devices (incremental load heap / bisect ordering /
  cursor / backlog counters).
* :mod:`repro.cluster.server` — the runtime: per-GPU Clockwork executors
  (the repository's one EDF serving loop, also behind the single-GPU
  ``clockwork`` backend), cluster-level release routing through the ledger,
  GPU-targetable fault injection, per-device telemetry, metrics merge, and
  the :class:`GpuLoadView` snapshots an ``on_dispatch`` observer receives.
* :mod:`repro.cluster.backend` — the registered ``cluster`` backend.
"""

from repro.cluster.backend import ClusterBackend
from repro.cluster.config import PLACEMENT_POLICIES, ROUTER_POLICIES, ClusterConfig
from repro.cluster.ledger import DeviceGroup, DispatchLedger
from repro.cluster.placement import PlacementSpec
from repro.cluster.server import ClusterServer, GpuLoadView

__all__ = [
    "PLACEMENT_POLICIES",
    "ROUTER_POLICIES",
    "ClusterBackend",
    "ClusterConfig",
    "ClusterServer",
    "DeviceGroup",
    "DispatchLedger",
    "GpuLoadView",
    "PlacementSpec",
]
