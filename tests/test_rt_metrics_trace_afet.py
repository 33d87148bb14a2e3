"""Tests for metrics collection, trace recording and AFET estimation."""

import pytest

from repro.gpu.platform import PlatformConfig
from repro.rt.afet import estimate_afet_analytic, profile_afet
from repro.rt.metrics import MetricsCollector
from repro.rt.task import Priority, Task, TaskSpec
from repro.rt.trace import JobTraceRecord, StageTraceRecord, TraceRecorder, underprediction_rate


def _task(model, priority=Priority.HIGH, period=40.0, task_id=0):
    task = Task(TaskSpec(task_id=task_id, model=model, period_ms=period, priority=priority))
    task.timing.set_afet([1.0] * task.num_stages)
    return task


def _completed_job(task, release, completion):
    job = task.release_job(release)
    job.completion_time = completion
    return job


def test_metrics_throughput_and_dmr(resnet18):
    collector = MetricsCollector()
    hp = _task(resnet18, Priority.HIGH)
    lp = _task(resnet18, Priority.LOW, task_id=1)
    for release, completion in ((0.0, 10.0), (40.0, 90.0)):  # second job misses (deadline 40)
        job = _completed_job(hp, release, completion)
        collector.record_release(job)
        collector.record_admission(job)
        collector.record_completion(job)
    rejected = lp.release_job(0.0)
    collector.record_release(rejected)
    collector.record_rejection(rejected)
    summary = collector.summarize(horizon_ms=1000.0)
    assert summary.high.admitted == 2
    assert summary.high.missed == 1
    assert summary.high.deadline_miss_rate == pytest.approx(0.5)
    assert summary.low.rejection_rate == pytest.approx(1.0)
    assert summary.total_jps == pytest.approx(2.0)
    assert summary.overall_dmr == pytest.approx(0.5)
    assert summary.per_task_completed[hp.name] == 2


def test_metrics_warmup_excludes_early_jobs(resnet18):
    collector = MetricsCollector()
    collector.set_warmup(100.0)
    task = _task(resnet18)
    early = _completed_job(task, 10.0, 20.0)
    late = _completed_job(task, 200.0, 210.0)
    for job in (early, late):
        collector.record_release(job)
        collector.record_admission(job)
        collector.record_completion(job)
    summary = collector.summarize(horizon_ms=1100.0)
    assert summary.high.completed == 1
    assert summary.total_jps == pytest.approx(1.0)


def test_metrics_validation(resnet18):
    collector = MetricsCollector()
    with pytest.raises(ValueError):
        collector.set_warmup(-1.0)
    with pytest.raises(ValueError):
        collector.summarize(horizon_ms=0.0)
    collector.set_warmup(100.0)
    with pytest.raises(ValueError):
        collector.summarize(horizon_ms=50.0)


def test_response_time_stats_empty_and_filled(resnet18):
    collector = MetricsCollector()
    stats = collector.priority_metrics(Priority.HIGH).response_time_stats()
    assert stats["mean"] == 0.0
    task = _task(resnet18)
    job = _completed_job(task, 0.0, 12.0)
    collector.record_release(job)
    collector.record_admission(job)
    collector.record_completion(job)
    stats = collector.priority_metrics(Priority.HIGH).response_time_stats()
    assert stats["mean"] == pytest.approx(12.0)
    assert stats["max"] == pytest.approx(12.0)


def test_trace_recorder_filters_and_aggregates():
    trace = TraceRecorder(enabled=True)
    for job_index, (exec_time, mret) in enumerate([(2.0, 3.0), (4.0, 3.0)]):
        for stage_index in range(2):
            trace.record_stage(
                StageTraceRecord(
                    time_ms=10.0 * job_index + stage_index,
                    task_name="resnet18/task0",
                    priority=Priority.HIGH,
                    job_index=job_index,
                    stage_index=stage_index,
                    execution_time_ms=exec_time / 2,
                    mret_prediction_ms=mret / 2,
                    virtual_deadline_ms=20.0,
                    missed_virtual_deadline=False,
                    context_index=0,
                )
            )
    series = trace.execution_vs_mret("resnet18/task0")
    assert len(series) == 2
    assert series[0][1] == pytest.approx(2.0)
    assert underprediction_rate(series) == pytest.approx(0.5)
    assert len(trace.stage_series(stage_index=1)) == 2
    assert trace.stage_series(task_name="other") == []


def test_trace_recorder_disabled_records_nothing():
    trace = TraceRecorder(enabled=False)
    trace.record_job(
        JobTraceRecord(
            time_ms=1.0,
            task_name="t",
            priority=Priority.LOW,
            job_index=0,
            release_time_ms=0.0,
            response_time_ms=1.0,
            missed_deadline=False,
            context_index=0,
        )
    )
    assert trace.job_records == []
    assert trace.job_series(Priority.LOW) == []


def test_analytic_afet_is_pessimistic_versus_isolated(resnet18):
    afets = estimate_afet_analytic(resnet18, sm_quota=68.0, concurrent_jobs=6)
    isolated = [stage.isolated_duration_ms(68.0) for stage in resnet18.stages]
    assert len(afets) == resnet18.num_stages
    assert all(afet >= iso - 1e-9 for afet, iso in zip(afets, isolated))


def test_analytic_afet_respects_quota(resnet18):
    wide = estimate_afet_analytic(resnet18, sm_quota=68.0, concurrent_jobs=1)
    narrow = estimate_afet_analytic(resnet18, sm_quota=12.0, concurrent_jobs=1)
    assert sum(narrow) > sum(wide)
    with pytest.raises(ValueError):
        estimate_afet_analytic(resnet18, sm_quota=68.0, concurrent_jobs=0)


def test_profiled_afet_runs_the_measurement_procedure(resnet18, unet):
    config = PlatformConfig(num_contexts=2, streams_per_context=1, oversubscription=2.0)
    afets = profile_afet(resnet18, [unet], config, repetitions=3, seed=0)
    assert len(afets) == resnet18.num_stages
    assert all(value > 0 for value in afets)
    # Full-load AFET should not be faster than the isolated stage time.
    isolated = [stage.isolated_duration_ms(68.0) for stage in resnet18.stages]
    assert sum(afets) >= sum(isolated) * 0.9
