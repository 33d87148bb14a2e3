"""SM allocation: two-level water-filling with oversubscription.

The engine calls :func:`allocate_sms` whenever the set of running kernels
changes.  Allocation proceeds in two steps:

1. *Within each context* the context quota is water-filled across its running
   kernels, each capped by its own parallelism.
2. *Across contexts* the physical SM count is enforced.  When quotas are
   oversubscribed the summed per-context demand may exceed the device; demand
   is then scaled down proportionally and the overshoot is reported as
   contention *pressure* (>= 1.0), which the calibration converts into an
   efficiency penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.numeric import left_sum


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


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one allocation round.

    Attributes:
        kernel_sms: SMs granted to each kernel, keyed by kernel uid.
        context_concurrency: number of running kernels per context id.
        pressure: summed (pre-scaling) context demand divided by the physical
            SM count; values above 1.0 indicate oversubscription contention.
        utilization: fraction of physical SMs actually allocated.
    """

    kernel_sms: Mapping[int, float]
    context_concurrency: Mapping[int, int]
    pressure: float
    utilization: float


def allocate_sms(
    num_sms: int,
    context_quotas: Mapping[int, float],
    running: Mapping[int, Sequence[Tuple[int, float]]],
) -> AllocationResult:
    """Allocate physical SMs to running kernels.

    Args:
        num_sms: physical SM count of the device.
        context_quotas: SM quota per context id.
        running: per context id, a sequence of ``(kernel_uid, parallelism)``
            pairs describing the currently runnable kernels.

    Returns:
        An :class:`AllocationResult` with per-kernel SM grants.
    """
    if num_sms <= 0:
        raise ValueError("num_sms must be positive")

    per_context_alloc: Dict[int, List[float]] = {}
    per_context_uids: Dict[int, List[int]] = {}
    context_demand: Dict[int, float] = {}
    context_concurrency: Dict[int, int] = {}

    for context_id, kernels in running.items():
        if not kernels:
            continue
        quota = context_quotas[context_id]
        uids = [uid for uid, _ in kernels]
        demands = [min(parallelism, quota) for _, parallelism in kernels]
        allocations = water_fill(quota, demands)
        per_context_alloc[context_id] = allocations
        per_context_uids[context_id] = uids
        context_demand[context_id] = left_sum(allocations)
        context_concurrency[context_id] = len(kernels)

    total_demand = left_sum(context_demand.values())
    pressure = total_demand / num_sms if num_sms else 0.0
    scale = 1.0
    if total_demand > num_sms:
        scale = num_sms / total_demand

    kernel_sms: Dict[int, float] = {}
    granted = 0.0
    for context_id, allocations in per_context_alloc.items():
        for uid, allocation in zip(per_context_uids[context_id], allocations):
            grant = allocation * scale
            kernel_sms[uid] = grant
            granted += grant

    utilization = min(1.0, granted / num_sms) if num_sms else 0.0
    return AllocationResult(
        kernel_sms=kernel_sms,
        context_concurrency=context_concurrency,
        pressure=max(pressure, 1.0) if total_demand > 0 else 0.0,
        utilization=utilization,
    )
