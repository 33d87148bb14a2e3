"""Baseline servers the paper compares against.

* :mod:`repro.baselines.gslice` — a GSlice-like inference server: static
  spatial partitions (no oversubscription), batching inside each partition,
  no task priorities (Section VI-B comparison).  Its saturated run is the
  one closed loop behind three baselines: the single-tenant *lower
  baseline* (Table I ``min``) and the saturated pure-batching *upper
  baseline* (Table I ``max``, Figure 1) are one-partition runs at batch size
  1 and ``b``.
* :mod:`repro.baselines.batching_server` — the pure-batching server driven
  by rate-based arrivals with deadlines.

The remaining baselines are scheduler backends (:mod:`repro.backends`):
``rtgpu`` runs the DARIS scheduler with every priority feature off, and
``clockwork`` (one DNN at a time, EDF, drop-if-late) runs
:class:`repro.cluster.ClusterServer` on one GPU.
"""

from repro.baselines.results import single_class_metrics
from repro.baselines.batching_server import BatchingArrivalResult, BatchingServer
from repro.baselines.gslice import GSliceResult, GSliceServer

__all__ = [
    "BatchingArrivalResult",
    "BatchingServer",
    "GSliceResult",
    "GSliceServer",
    "single_class_metrics",
]
