"""End-to-end invariants of the full stack (scheduler + GPU + task model).

These tests run small but complete scenarios and check properties that must
hold regardless of calibration: conservation of jobs, causality of timestamps,
stage ordering within jobs, and the paper's headline qualitative relations on
a reduced workload.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import get_backend
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.runner import run_daris_scenario
from repro.experiments.scenarios import named_fault
from repro.rt.task import Job, JobState, Priority, StageInstance
from repro.rt.taskset import make_taskset, table2_taskset
from repro.rt.trace import TraceRecorder
from repro.scheduler.config import DarisConfig
from repro.scheduler.daris import DarisScheduler
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator


def _run(taskset, config, horizon=1000.0, seed=3):
    simulator = Simulator()
    trace = TraceRecorder(enabled=True)
    scheduler = DarisScheduler(simulator, taskset, config, rng=RngFactory(seed), trace=trace)
    metrics = scheduler.run(horizon)
    return scheduler, metrics, trace


def test_stage_timestamps_are_causal_and_ordered(resnet18):
    taskset = make_taskset([resnet18], num_high=2, num_low=4, task_jps=15.0)
    _, _, trace = _run(taskset, DarisConfig.mps_config(3, 3.0))
    per_job = {}
    for record in trace.stage_records:
        per_job.setdefault((record.task_name, record.job_index), []).append(record)
    assert per_job
    for records in per_job.values():
        records.sort(key=lambda r: r.stage_index)
        finish_times = [r.time_ms for r in records]
        # Stages of one job finish in stage order (they are sequential).
        assert finish_times == sorted(finish_times)
        assert all(r.execution_time_ms > 0 for r in records)


def test_job_records_match_completed_counts(resnet18):
    taskset = make_taskset([resnet18], num_high=2, num_low=4, task_jps=15.0)
    _, metrics, trace = _run(taskset, DarisConfig.mps_config(3, 3.0, warmup_ms=0.0))
    assert len(trace.job_records) == metrics.total_completed
    missed_in_trace = sum(1 for r in trace.job_records if r.missed_deadline)
    assert missed_in_trace == metrics.high.missed + metrics.low.missed
    assert all(r.response_time_ms > 0 for r in trace.job_records)


def test_completed_jobs_never_exceed_released(resnet18, unet):
    taskset = make_taskset([resnet18, unet], num_high=3, num_low=6, task_jps=18.0)
    _, metrics, _ = _run(taskset, DarisConfig.mps_str_config(2, 2, 2.0))
    for bucket in (metrics.high, metrics.low):
        assert bucket.completed <= bucket.admitted <= bucket.released
        assert bucket.missed <= bucket.completed


def test_policy_headline_relations_on_reduced_workload(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18)
    configs = {
        "MPS": DarisConfig.mps_config(6, 6.0),
        "MPS_OS1": DarisConfig.mps_config(6, 1.0),
        "STR": DarisConfig.str_config(6),
    }
    results = {}
    for name, config in configs.items():
        _, metrics, _ = _run(taskset, config, horizon=1500.0)
        results[name] = metrics
    # MPS with full oversubscription beats both SM isolation and streams-only.
    assert results["MPS"].total_jps > results["MPS_OS1"].total_jps
    assert results["MPS"].total_jps > results["STR"].total_jps
    # Nobody misses HP deadlines on the reduced workload.
    assert all(m.high.deadline_miss_rate == 0.0 for m in results.values())


def test_gpu_never_reports_impossible_utilization(resnet18):
    taskset = make_taskset([resnet18], num_high=2, num_low=4, task_jps=20.0)
    scheduler, metrics, _ = _run(taskset, DarisConfig.mps_config(2, 2.0))
    assert 0.0 <= metrics.average_gpu_utilization <= 1.0
    assert scheduler.platform.engine.current_utilization <= 1.0 + 1e-9


def test_hpa_eliminates_hp_misses_under_pure_hp_overload(resnet18):
    overload = make_taskset([resnet18], num_high=40, num_low=0, task_jps=30.0)
    _, without_hpa, _ = _run(overload, DarisConfig.mps_config(6, 6.0), horizon=1500.0)
    _, with_hpa, _ = _run(
        overload, DarisConfig.mps_config(6, 6.0, hp_admission=True), horizon=1500.0
    )
    assert with_hpa.high.deadline_miss_rate <= without_hpa.high.deadline_miss_rate
    assert with_hpa.high.deadline_miss_rate <= 0.02
    assert with_hpa.high.rejection_rate > 0.0


def test_staging_improves_throughput_over_no_staging(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.6)
    _, staged, _ = _run(taskset, DarisConfig.mps_config(6, 6.0), horizon=1500.0)
    _, unstaged, _ = _run(
        taskset, DarisConfig.mps_config(6, 6.0, staging=False), horizon=1500.0
    )
    assert staged.total_jps >= unstaged.total_jps * 0.95


_TERMINAL = frozenset(
    {JobState.COMPLETED, JobState.REJECTED, JobState.DROPPED, JobState.TIMED_OUT, JobState.FAILED}
)


@pytest.mark.parametrize("case", ["periodic", "traced", "storm", "rtgpu"])
def test_ended_jobs_are_freed_by_reference_counting(
    case, resnet18, monkeypatch, unreachable_after
):
    # Sixty HP tasks overload the GPU: LP jobs are rejected, and under the
    # storm profile admitted HP jobs wait past the client timeout too.
    taskset = make_taskset([resnet18], num_high=60, num_low=6, task_jps=30.0)
    config = DarisConfig.mps_config(6, 6.0, warmup_ms=0.0)
    # Every scheduler stays alive through the collection, so what it still
    # holds at the horizon (queued stages, kernels in flight, pending
    # timeouts) is reachable: only what the run let go of is found.
    schedulers = []
    run = DarisScheduler.run

    def kept_run(self, horizon_ms):
        schedulers.append(self)
        return run(self, horizon_ms)

    monkeypatch.setattr(DarisScheduler, "run", kept_run)
    if case == "rtgpu":
        request = ScenarioRequest(taskset, config, 1000.0, scheduler="rtgpu")
        result, found = unreachable_after(lambda: get_backend("rtgpu").execute(request))
    else:
        # The default resilience policy retries no launch, so the storm's
        # launch failures end jobs (the daris backend retries three times).
        faults = named_fault("storm" if case == "storm" else "none")
        result, found = unreachable_after(
            lambda: run_daris_scenario(
                taskset, config, 1000.0, with_trace=case == "traced", faults=faults
            )
        )

    assert len(schedulers) == 1
    buckets = (result.metrics.high, result.metrics.low)
    causes = ["completed", "rejected"]
    if case == "storm":
        causes += ["dropped", "timed_out", "failed"]
    for cause in causes:
        assert sum(getattr(bucket, cause) for bucket in buckets) > 0, cause
    ended_jobs = [obj for obj in found if isinstance(obj, Job) and obj.state in _TERMINAL]
    ended_stages = [
        obj for obj in found if isinstance(obj, StageInstance) and obj.job.state in _TERMINAL
    ]
    assert ended_jobs == []
    assert ended_stages == []


@settings(deadline=None, max_examples=8)
@given(
    num_contexts=st.integers(min_value=1, max_value=6),
    streams=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_job_conservation_across_configurations(num_contexts, streams, seed):
    model = _MODEL_CACHE["resnet18"]
    if num_contexts == 1:
        config = DarisConfig.str_config(streams)
    elif streams == 1:
        config = DarisConfig.mps_config(num_contexts, float(num_contexts))
    else:
        config = DarisConfig.mps_str_config(num_contexts, streams, float(num_contexts))
    taskset = make_taskset([model], num_high=2, num_low=4, task_jps=15.0)
    simulator = Simulator()
    scheduler = DarisScheduler(simulator, taskset, config, rng=RngFactory(seed))
    metrics = scheduler.run(600.0)
    released = metrics.high.released + metrics.low.released
    admitted = metrics.high.admitted + metrics.low.admitted
    rejected = metrics.high.rejected + metrics.low.rejected
    assert admitted + rejected == released
    assert metrics.total_completed <= admitted
    assert metrics.high.missed <= metrics.high.completed
    assert metrics.low.missed <= metrics.low.completed


# Built once at import time so hypothesis examples do not pay the zoo cost.
from repro.dnn.zoo import build_model as _build_model  # noqa: E402

_MODEL_CACHE = {"resnet18": _build_model("resnet18")}
