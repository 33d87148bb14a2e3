"""Tests for the baseline servers and the baseline backends."""

import pytest

from repro.backends import get_backend
from repro.backends.configs import BatchingConfig, ClockworkConfig, GSliceConfig, SingleConfig
from repro.baselines.batching_server import BatchingServer
from repro.baselines.gslice import GSliceServer
from repro.baselines.results import accepted_miss_rate
from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.scenarios import named_fault
from repro.gpu.engine import GpuEngine
from repro.numeric import left_sum
from repro.rt.taskset import make_taskset
from repro.scheduler.config import DarisConfig
from repro.sim.workload import POISSON_WORKLOAD, SATURATED_WORKLOAD

HORIZON = 800.0


def _saturated(model, config, scheduler):
    """Metrics of a saturated one-model request to a baseline backend."""
    taskset = make_taskset([model], num_high=0, num_low=1, task_jps=1.0)
    request = ScenarioRequest(
        taskset, config, HORIZON, scheduler=scheduler, workload=SATURATED_WORKLOAD
    )
    return get_backend(scheduler).execute(request).metrics


def _single_jps(model) -> float:
    return _saturated(model, SingleConfig(), "single").total_jps


def _batching_jps(model, batch_size: int) -> float:
    config = BatchingConfig(batch_size=batch_size)
    return _saturated(model, config, "batching_server").total_jps


def test_single_tenant_matches_table1_min_jps(resnet18):
    metrics = _saturated(resnet18, SingleConfig(), "single")
    assert metrics.total_jps == pytest.approx(627.0, rel=0.05)
    latencies = metrics.low.response_times
    assert left_sum(latencies) / len(latencies) == pytest.approx(1.6, rel=0.1)


def test_single_tenant_unet_and_inception(unet, inceptionv3):
    assert _single_jps(unet) == pytest.approx(241.0, rel=0.05)
    assert _single_jps(inceptionv3) == pytest.approx(142.0, rel=0.06)


def test_single_tenant_rejects_bad_horizon(resnet18):
    with pytest.raises(ValueError):
        GSliceServer([resnet18], batch_sizes=[1]).run_saturated(0.0)


def test_batching_server_saturated_approaches_table1_max(resnet18):
    assert _batching_jps(resnet18, 16) == pytest.approx(1025.0, rel=0.07)


def test_batching_server_gain_ordering_across_models(unet, inceptionv3):
    unet_gain = _batching_jps(unet, 8) / 241.0
    inception_gain = _batching_jps(inceptionv3, 8) / 142.0
    assert inception_gain > 2.0
    assert unet_gain < 1.3


def test_batching_server_records_batch_latencies(resnet18):
    low = GSliceServer([resnet18], batch_sizes=[4]).run_saturated(200.0).metrics.low
    assert low.completed > 0 and low.completed % 4 == 0  # whole batches only
    # Every job reports its batch's latency.
    latencies = low.response_times
    assert len(latencies) == low.completed
    assert all(latency > 0 for latency in latencies)
    assert all(len(set(latencies[i : i + 4])) == 1 for i in range(0, len(latencies), 4))


def test_batching_server_rejects_invalid_batch(resnet18):
    with pytest.raises(ValueError):
        BatchingServer(resnet18, batch_size=0)


def test_batching_with_arrivals_reports_deadline_misses(resnet18):
    server = BatchingServer(resnet18, batch_size=8)
    # Slow arrivals with tight deadlines: waiting for the batch to fill causes misses,
    # which is the paper's argument against batching for real-time inference.
    summary = server.run_with_arrivals(
        arrival_rate_jps=100.0, deadline_ms=20.0, horizon_ms=1000.0
    )
    assert summary.completed > 0
    assert summary.deadline_miss_rate > 0.2


def test_gslice_partitions_run_every_model(resnet18, unet):
    server = GSliceServer([resnet18, unet], batch_sizes=[8, 2])
    results = server.run_saturated(HORIZON)
    per_model = results.per_model_jps
    assert per_model["resnet18"] > 0 and per_model["unet"] > 0
    assert results.total_jps == pytest.approx(per_model["resnet18"] + per_model["unet"])
    # Isolated halves cannot beat the whole-GPU batching baseline per model.
    assert per_model["resnet18"] < 1025.0


def test_batched_runs_reuse_their_kernel_specs(monkeypatch):
    """The engine memoizes launch invariants per spec object, so a batched
    loop that built fresh specs per batch would grow that memo per launch.
    Full and partial batches must reuse at most stages x batch size specs."""
    launched = []
    launch = GpuEngine.launch

    def recording_launch(self, stream, spec, on_complete=None):
        launched.append(spec)
        return launch(self, stream, spec, on_complete=on_complete)

    monkeypatch.setattr(GpuEngine, "launch", recording_launch)
    model = build_model("resnet50")
    bound = model.num_stages * 16

    GSliceServer([model], batch_sizes=[16]).run_saturated(2000.0)
    assert len(launched) > bound
    assert len({id(spec) for spec in launched}) <= bound

    launched.clear()
    BatchingServer(model, batch_size=16).run_with_arrivals(
        arrival_rate_jps=300.0, deadline_ms=100.0, horizon_ms=2000.0, timeout_ms=20.0
    )
    assert len(launched) > bound
    assert len({id(spec) for spec in launched}) <= bound


def test_gslice_validation(resnet18):
    with pytest.raises(ValueError):
        GSliceServer([])
    with pytest.raises(ValueError):
        GSliceServer([resnet18], batch_sizes=[1, 2])


def _clockwork(taskset):
    request = ScenarioRequest(taskset, ClockworkConfig(), HORIZON, scheduler="clockwork")
    return get_backend("clockwork").execute(request).metrics


def _drop_rate(metrics):
    """Requests rejected up front over requests released."""
    released = metrics.high.released + metrics.low.released
    return (metrics.high.rejected + metrics.low.rejected) / max(1, released)


def test_clockwork_serves_feasible_load_without_misses(resnet18):
    taskset = make_taskset([resnet18], num_high=2, num_low=2, task_jps=20.0)
    metrics = _clockwork(taskset)
    assert metrics.total_jps > 0
    assert accepted_miss_rate(metrics) <= 0.05
    assert _drop_rate(metrics) <= 0.05


def test_clockwork_drops_when_overloaded(resnet18):
    taskset = make_taskset([resnet18], num_high=10, num_low=30, task_jps=30.0)
    metrics = _clockwork(taskset)
    # One-DNN-at-a-time throughput is bounded by the single-stream rate, and
    # the excess demand is dropped up front rather than missed.
    assert metrics.total_jps < 700.0
    assert _drop_rate(metrics) > 0.3
    assert accepted_miss_rate(metrics) < 0.2


def test_rtgpu_has_no_priority_differentiation(resnet18):
    taskset = make_taskset([resnet18], num_high=6, num_low=12, task_jps=30.0)
    request = ScenarioRequest(
        taskset, DarisConfig.mps_config(4, 4.0), HORIZON, seed=2, scheduler="rtgpu"
    )
    metrics = get_backend("rtgpu").execute(request).metrics
    assert metrics.total_jps > 0
    # Without prioritization both classes see similar treatment: HP is not
    # shielded, so its miss/rejection behaviour is no longer strictly better.
    hp_resp = metrics.high.response_time_stats()["mean"]
    lp_resp = metrics.low.response_time_stats()["mean"]
    assert hp_resp == pytest.approx(lp_resp, rel=0.5)


#: What one batch in flight at the horizon can hold: its ``BatchRun``, the
#: bound kernel callback, the finishing ``partial`` and its arguments, the
#: running kernel and that kernel's pending event.
IN_FLIGHT_BATCH_OBJECTS = 16


@pytest.mark.parametrize(
    "scheduler, partitions, rate_driven",
    [
        ("single", 1, False),
        ("gslice", 2, False),
        ("batching_server", 1, False),
        ("batching_server", 1, True),
    ],
    ids=["single", "gslice", "batching-saturated", "batching-storm"],
)
def test_closed_loops_leave_no_garbage_per_batch(
    scheduler, partitions, rate_driven, resnet18, unet, unreachable_after
):
    models = [resnet18, unet][:partitions]
    if rate_driven:
        # 1,600 requests/s overload batches of eight, so the queue outlives
        # the storm profile's client timeout.
        taskset = make_taskset(models, num_high=0, num_low=20, task_jps=80.0)
        workload, faults = POISSON_WORKLOAD, named_fault("storm")
    else:
        taskset = make_taskset(models, num_high=0, num_low=partitions, task_jps=1.0)
        workload, faults = SATURATED_WORKLOAD, named_fault("none")
    config = {
        "single": SingleConfig(),
        "gslice": GSliceConfig(),
        "batching_server": BatchingConfig(batch_size=8),
    }[scheduler]

    def unreachable(horizon: float):
        request = ScenarioRequest(
            taskset, config, horizon, scheduler=scheduler, workload=workload, faults=faults
        )
        result, found = unreachable_after(lambda: get_backend(scheduler).execute(request))
        return result.metrics, len(found)

    _, short = unreachable(HORIZON)
    metrics, long = unreachable(2 * HORIZON)
    assert metrics.total_completed > 0
    if rate_driven:
        assert metrics.low.dropped and metrics.low.timed_out and metrics.low.failed
    assert long - short <= IN_FLIGHT_BATCH_OBJECTS * partitions
