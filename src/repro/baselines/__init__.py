"""Baseline executors and schedulers the paper compares against.

* :mod:`repro.baselines.single` — the *lower baseline*: one inference at a
  time on the whole GPU (Table I ``min`` column).
* :mod:`repro.baselines.batching_server` — the *upper baseline*: saturated
  input batching on the whole GPU (Table I ``max`` column, Figure 1), plus
  rate-driven arrivals with deadlines.
* :mod:`repro.baselines.gslice` — a GSlice-like inference server: static
  spatial partitions (no oversubscription), batching inside each partition,
  no task priorities (Section VI-B comparison).  Its saturated run is the
  one closed loop behind all three: the single and saturated batching
  baselines are one-partition GSlice runs at batch size 1 and ``b``.
* :mod:`repro.baselines.rtgpu` — an RTGPU-like real-time scheduler: EDF with
  admission but without task prioritization.

The Clockwork-like baseline (one DNN at a time, EDF, drop-if-late) is the
``clockwork`` backend, which runs :class:`repro.cluster.ClusterServer` on
one GPU.
"""

from repro.baselines.results import JpsResult, single_class_metrics
from repro.baselines.single import SingleTenantExecutor
from repro.baselines.batching_server import (
    BatchingArrivalResult,
    BatchingServer,
    saturated_batching_jps,
)
from repro.baselines.gslice import GSliceResult, GSliceServer
from repro.baselines.rtgpu import RtgpuScheduler

__all__ = [
    "BatchingArrivalResult",
    "BatchingServer",
    "GSliceResult",
    "GSliceServer",
    "JpsResult",
    "RtgpuScheduler",
    "SingleTenantExecutor",
    "saturated_batching_jps",
    "single_class_metrics",
]
