"""SM allocation: two-level water-filling with oversubscription.

The engine (:class:`repro.gpu.engine.GpuEngine`) re-plans the allocation
incrementally whenever the set of running kernels changes, calling
:func:`water_fill` for each changed context that runs several kernels.
Allocation proceeds in two steps:

1. *Within each context* the context quota is water-filled across its running
   kernels, each capped by its own parallelism.
2. *Across contexts* the physical SM count is enforced.  When quotas are
   oversubscribed the summed per-context demand may exceed the device; demand
   is then scaled down proportionally and the overshoot is reported as
   contention *pressure* (>= 1.0), which the calibration converts into an
   efficiency penalty.

``tests/test_gpu_allocation.py`` holds the from-scratch plan of both steps
and checks the engine against it after every replan.
"""

from __future__ import annotations

from typing import List, Sequence


def water_fill(capacity: float, demands: Sequence[float]) -> List[float]:
    """Distribute ``capacity`` across ``demands`` fairly.

    Each receiver gets at most its demand; surplus left by small demands is
    redistributed among the others.  The returned allocations sum to
    ``min(capacity, sum(demands))``.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    allocations = [0.0] * len(demands)
    if not demands or capacity == 0:
        return allocations

    remaining_capacity = float(capacity)
    unsatisfied = [i for i, demand in enumerate(demands) if demand > 0]
    while unsatisfied and remaining_capacity > 1e-12:
        share = remaining_capacity / len(unsatisfied)
        still_unsatisfied = []
        for index in unsatisfied:
            need = demands[index] - allocations[index]
            grant = min(need, share)
            allocations[index] += grant
            remaining_capacity -= grant
            if allocations[index] < demands[index] - 1e-12:
                still_unsatisfied.append(index)
        if len(still_unsatisfied) == len(unsatisfied):
            # Everyone got a full equal share and still wants more: capacity
            # is exhausted up to floating-point error.
            break
        unsatisfied = still_unsatisfied
    return allocations
