"""Tests for the SM water-filling allocation.

``allocate_sms`` below is the from-scratch two-level plan the engine's
incremental replanning reproduces operation for operation; it lives here as
the reference the engine is checked against after every replan.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.gpu.allocation import water_fill
from repro.gpu.engine import GpuEngine
from repro.gpu.kernel import KernelSpec
from repro.gpu.spec import RTX_2080_TI
from repro.numeric import left_sum
from repro.sim.simulator import Simulator


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


def test_water_fill_satisfies_small_demands_fully():
    assert water_fill(10.0, [2.0, 3.0]) == [2.0, 3.0]


def test_water_fill_splits_capacity_fairly_when_oversubscribed():
    allocations = water_fill(10.0, [8.0, 8.0])
    assert allocations == [5.0, 5.0]


def test_water_fill_redistributes_surplus_from_small_demands():
    allocations = water_fill(12.0, [2.0, 20.0, 20.0])
    assert allocations[0] == pytest.approx(2.0)
    assert allocations[1] == pytest.approx(5.0)
    assert allocations[2] == pytest.approx(5.0)


def test_water_fill_empty_and_zero_capacity():
    assert water_fill(5.0, []) == []
    assert water_fill(0.0, [1.0, 2.0]) == [0.0, 0.0]


def test_water_fill_negative_capacity_rejected():
    with pytest.raises(ValueError):
        water_fill(-1.0, [1.0])


@given(
    capacity=st.floats(min_value=0.0, max_value=200.0),
    demands=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=0, max_size=12),
)
def test_property_water_fill_conservation_and_caps(capacity, demands):
    allocations = water_fill(capacity, demands)
    assert len(allocations) == len(demands)
    for allocation, demand in zip(allocations, demands):
        assert allocation <= demand + 1e-9
        assert allocation >= 0.0
    assert sum(allocations) <= capacity + 1e-6
    assert sum(allocations) <= sum(demands) + 1e-6
    # Work-conserving: either capacity or every demand is exhausted.
    if demands:
        assert (
            sum(allocations) >= min(capacity, sum(demands)) - 1e-6
        )


def test_allocate_sms_single_kernel_gets_its_parallelism():
    result = allocate_sms(68, {0: 68.0}, {0: [(1, 40.0)]})
    assert result.kernel_sms[1] == pytest.approx(40.0)
    assert result.pressure == pytest.approx(1.0)
    assert result.utilization == pytest.approx(40.0 / 68.0)


def test_allocate_sms_respects_context_quota():
    result = allocate_sms(68, {0: 12.0}, {0: [(1, 40.0)]})
    assert result.kernel_sms[1] == pytest.approx(12.0)


def test_allocate_sms_scales_down_when_oversubscribed():
    running = {0: [(1, 68.0)], 1: [(2, 68.0)], 2: [(3, 68.0)]}
    quotas = {0: 68.0, 1: 68.0, 2: 68.0}
    result = allocate_sms(68, quotas, running)
    total = sum(result.kernel_sms.values())
    assert total == pytest.approx(68.0)
    assert result.pressure == pytest.approx(3.0)


def test_allocate_sms_idle_context_sms_flow_to_oversubscribed_context():
    # Context 0 idles; context 1 (oversubscribed quota) can use the whole GPU.
    result = allocate_sms(68, {0: 68.0, 1: 68.0}, {1: [(5, 60.0)]})
    assert result.kernel_sms[5] == pytest.approx(60.0)


def test_allocate_sms_isolated_quotas_do_not_expand():
    # With OS=1 quotas, a single busy context cannot exceed its own quota even
    # though the rest of the GPU is idle -- the core cost of SM isolation.
    result = allocate_sms(68, {0: 12.0, 1: 12.0}, {0: [(1, 60.0)]})
    assert result.kernel_sms[1] == pytest.approx(12.0)
    assert result.utilization < 0.2


def test_allocate_sms_reports_context_concurrency():
    running = {0: [(1, 10.0), (2, 10.0)], 1: [(3, 10.0)]}
    result = allocate_sms(68, {0: 30.0, 1: 30.0}, running)
    assert result.context_concurrency[0] == 2
    assert result.context_concurrency[1] == 1


@given(
    data=st.data(),
    num_sms=st.integers(min_value=4, max_value=128),
)
def test_property_allocation_never_exceeds_device_or_quota(data, num_sms):
    num_contexts = data.draw(st.integers(min_value=1, max_value=6))
    quotas = {
        cid: float(data.draw(st.integers(min_value=2, max_value=num_sms)))
        for cid in range(num_contexts)
    }
    running = {}
    uid = 0
    for cid in range(num_contexts):
        kernels = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            kernels.append((uid, data.draw(st.floats(min_value=0.5, max_value=128.0))))
            uid += 1
        running[cid] = kernels
    result = allocate_sms(num_sms, quotas, running)
    assert sum(result.kernel_sms.values()) <= num_sms + 1e-6
    per_context = {}
    for cid, kernels in running.items():
        per_context[cid] = sum(result.kernel_sms.get(k, 0.0) for k, _ in kernels)
        assert per_context[cid] <= quotas[cid] + 1e-6
    assert 0.0 <= result.utilization <= 1.0 + 1e-9


def _assert_engine_matches_reference(engine: GpuEngine) -> None:
    """The engine's current plan equals the from-scratch one, bit for bit."""
    running: Dict[int, List[Tuple[int, float]]] = {}
    for kernel in engine._running.values():  # global start order
        running.setdefault(kernel.context_id, []).append(
            (kernel.uid, kernel.spec.parallelism)
        )
    plan = allocate_sms(engine.spec.num_sms, engine._quotas, running)
    assert engine.current_pressure == plan.pressure
    assert engine.current_utilization == plan.utilization
    min_rate = engine.calibration.min_rate_sms
    for kernel in engine._running.values():
        assert kernel.allocated_sms == max(plan.kernel_sms[kernel.uid], min_rate)


@pytest.mark.parametrize("seed", range(12))
def test_engine_replans_match_the_reference_plan(seed):
    """Random multi-context, multi-stream launches: after every replan the
    engine's pressure, utilization and per-kernel grants (clamped at
    ``min_rate_sms``) equal :func:`allocate_sms` over the running set."""
    draw = random.Random(seed)
    simulator = Simulator()
    engine = GpuEngine(simulator, RTX_2080_TI)
    num_sms = RTX_2080_TI.num_sms
    streams = []
    for position in range(draw.randint(2, 4)):
        # Quotas up to the whole device, so contexts often oversubscribe it;
        # context 0 runs two streams, so some replans water-fill a context.
        context = engine.create_context(sm_quota=float(draw.randint(2, num_sms)))
        count = 2 if position == 0 else draw.randint(1, 3)
        streams += [engine.create_stream(context) for _ in range(count)]

    replans = []
    replan = engine._replan

    def checked_replan() -> None:
        replan()
        _assert_engine_matches_reference(engine)
        replans.append(len(engine._running))

    engine._replan = checked_replan
    for index in range(150):
        # One kernel in four is narrower than ``min_rate_sms``.
        narrow = draw.random() < 0.25
        spec = KernelSpec(
            f"k{index}",
            work=draw.uniform(1.0, 300.0),
            parallelism=draw.uniform(0.05, 0.5) if narrow else draw.uniform(0.5, 80.0),
            num_launches=draw.randint(1, 4),
            memory_intensity=draw.random(),
        )
        stream = draw.choice(streams)
        simulator.schedule_at(
            draw.uniform(0.0, 200.0), lambda _sim, s=stream, k=spec: engine.launch(s, k)
        )
    simulator.run_until(10_000.0)

    assert engine.completed_kernels == 150
    assert max(replans) >= 3, "the launches never overlapped"
    assert engine.fast_path_hits > 0 and engine.full_replans > 0
