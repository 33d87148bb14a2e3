"""The DARIS online scheduler (paper Figure 3 and Section IV-B).

``DarisScheduler`` binds a task set to the simulated GPU platform:

* periodic job releases trigger virtual-deadline assignment and the admission
  test (with migration),
* admitted stages are kept in per-context ready queues ordered by the eight
  fixed priority levels + EDF,
* whenever a context has an idle stream, the highest-priority ready stage is
  dispatched to it,
* completed stages feed the MRET estimators, may raise the priority of their
  successor (missed virtual deadline), and completed jobs feed the metrics.

With one context (the STR policy) the per-context queue degenerates into the
single global queue the paper describes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from repro.dnn.batching import batched_stage_specs
from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.kernel import KernelInstance
from repro.gpu.platform import GpuPlatform, PlatformConfig
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.rt.deadlines import assign_virtual_deadlines
from repro.rt.metrics import FaultImpact, MetricsCollector, ScenarioMetrics
from repro.rt.task import Job, JobState, Priority, StageInstance, Task
from repro.rt.taskset import TaskSetSpec
from repro.rt.trace import JobTraceRecord, StageTraceRecord, TraceRecorder
from repro.scheduler.admission import AdmissionController
from repro.scheduler.config import DarisConfig
from repro.scheduler.offline import initialize_timing, populate_contexts
from repro.scheduler.priorities import stage_queue_key
from repro.sim.faults import (
    DEFAULT_POLICY,
    FaultInjector,
    FaultSpec,
    ResiliencePolicy,
    deferred_launch,
)
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import PERIODIC_WORKLOAD, ReleaseStream, WorkloadSpec


class DarisScheduler:
    """Deadline-aware real-time DNN inference scheduler on the simulated GPU."""

    def __init__(
        self,
        simulator: Simulator,
        taskset: TaskSetSpec,
        config: DarisConfig,
        gpu: GpuSpec = RTX_2080_TI,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
        rng: Optional[RngFactory] = None,
        trace: Optional[TraceRecorder] = None,
        workload: Optional[WorkloadSpec] = None,
        faults: Optional[FaultSpec] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ):
        self.simulator = simulator
        self.config = config
        self.gpu = gpu
        self.calibration = calibration
        self.rng = rng if rng is not None else RngFactory(seed=0)
        self.workload = workload if workload is not None else PERIODIC_WORKLOAD
        if self.workload.saturated:
            raise ValueError(
                "DARIS schedules released jobs against deadlines; saturated"
                " workloads (no arrival process) do not apply"
            )
        self.metrics = MetricsCollector()
        self.metrics.set_warmup(config.warmup_ms)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.resilience = resilience if resilience is not None else DEFAULT_POLICY
        self.injector = FaultInjector(faults, rng=self.rng, policy=self.resilience)
        # Per-component flags keep the fault-free hot paths untouched.
        spec = self.injector.spec
        self._drop_faults = spec.requests is not None and spec.requests.drop_prob > 0.0
        self._launch_faults = spec.launch is not None and spec.launch.failure_prob > 0.0
        self._timeout_ms = self.injector.timeout_ms
        self._shed_degraded = self.resilience.shed_when_degraded and (
            spec.slowdown is not None or spec.crash is not None
        )

        self.platform = GpuPlatform(
            simulator,
            PlatformConfig(
                num_contexts=config.num_contexts,
                streams_per_context=config.streams_per_context,
                oversubscription=config.oversubscription,
            ),
            spec=gpu,
            calibration=calibration,
            noise_rng=self.rng.stream("gpu-noise"),
        )

        self.tasks: List[Task] = [self._build_task(spec) for spec in taskset.tasks]
        self._task_by_id = {task.task_id: task for task in self.tasks}

        # Offline phase: AFET seeding plus Algorithm 1 context assignment.
        initialize_timing(self.tasks, config, gpu=gpu, calibration=calibration, seed=self.rng.seed)
        populate_contexts(self.tasks, config.num_contexts)

        self.admission = AdmissionController(config, self.tasks)
        self._queues: List[List[Tuple[Tuple[int, float, int], StageInstance]]] = [
            [] for _ in range(config.num_contexts)
        ]
        self._sequence = itertools.count()
        self._active_jobs: List[Dict[int, Job]] = [dict() for _ in range(config.num_contexts)]

    # ------------------------------------------------------------------ setup

    def _build_task(self, spec) -> Task:
        """Instantiate the runtime task, applying staging and batching choices."""
        model = spec.model
        if not self.config.staging:
            model = model.merged()
        if spec.batch_size > 1:
            stages = batched_stage_specs(model, spec.batch_size)
        else:
            stages = list(model.stages)
        return Task(spec, stages=stages, window_size=self.config.window_size)

    def start(self, horizon_ms: float) -> None:
        """Schedule every task's job releases up to ``horizon_ms``.

        The release process per task comes from the scheduler's
        :class:`~repro.sim.workload.WorkloadSpec`, driven through the shared
        :class:`~repro.sim.workload.ReleaseStream` pipeline (periodic at the
        task's period/phase by default; poisson/mmpp at the same mean rate,
        trace replay, jitter and diurnal modulation all come for free).  The
        default workload reproduces the historical behaviour exactly (same
        arrival times, same RNG stream usage).
        """
        if horizon_ms <= 0:
            raise ValueError("horizon must be positive")
        self.injector.install(self.simulator, self.platform, horizon_ms)
        stream = ReleaseStream(self.workload, self.rng)
        for task in self.tasks:
            stream.drive(
                self.simulator,
                horizon_ms,
                task_id=task.task_id,
                period_ms=task.spec.period_ms,
                phase_ms=task.spec.phase_ms,
                callback=lambda event, task=task: self._on_release(task, event.time),
            )

    def run(self, horizon_ms: float) -> ScenarioMetrics:
        """Run the scenario to ``horizon_ms`` and return the summary metrics.

        Once the metrics are summarized, the run ends: the simulator drops
        its pending events (:meth:`~repro.sim.simulator.Simulator.drop_pending`),
        kernels still in flight drop their callbacks and jobs still in
        flight give up their stage lists.  Reference counting then frees
        the scheduler, its simulator and its engine as soon as the caller
        lets go of them.  Counters stay readable.  To go on simulating past
        the horizon, call :meth:`start` and the simulator's ``run_until``
        instead.
        """
        self.start(horizon_ms)
        self.simulator.run_until(horizon_ms)
        metrics = self.metrics.summarize(
            horizon_ms,
            gpu_utilization=self.platform.average_utilization(),
            fault_impact=FaultImpact.from_summary(self.injector.summary()),
        )
        self.simulator.drop_pending()
        self.platform.engine.drop_callbacks()
        for jobs in self._active_jobs:
            for job in jobs.values():
                job.stages = ()  # the cycle Job.end cuts for ended jobs
        return metrics

    # -------------------------------------------------------------- releases

    def _on_release(self, task: Task, release_time: float) -> None:
        job = task.release_job(release_time)
        self.metrics.record_release(job)
        if self._drop_faults and self.injector.drop_request():
            job.end(JobState.DROPPED)
            self.metrics.record_drop(job)
            return
        assign_virtual_deadlines(job)

        finish_inflation = 1.0
        if self._shed_degraded and self.injector.degraded:
            factor = self.injector.slowdown_factor
            if factor < 1.0:
                finish_inflation = 1.0 / factor
        decision = self.admission.decide(
            job, self._predicted_finish, finish_inflation=finish_inflation
        )
        if not decision.admitted:
            job.end(JobState.REJECTED)
            task.jobs_rejected += 1
            self.metrics.record_rejection(job, shed=decision.reason == "shed")
            return

        context_index = decision.context_index
        job.state = JobState.ADMITTED
        job.context_index = context_index
        task.jobs_admitted += 1
        if decision.migrated and job.priority is Priority.LOW:
            # The paper's zero-delay migration: the LP task simply changes its
            # current context; no state transfer is modelled because weights
            # are resident in every context's address space under MPS.
            task.context_index = context_index
        self.metrics.record_admission(job)
        self.admission.register_admission(job, context_index)
        self._active_jobs[context_index][job.uid] = job

        if self._timeout_ms is not None:
            self.simulator.schedule_after(
                self._timeout_ms,
                lambda _sim, job=job: self._on_request_timeout(job),
                label="request-timeout",
            )
        self._enqueue_stage(job.current_stage, context_index)
        self._dispatch(context_index)

    def _predicted_finish(self, context_index: int) -> float:
        """Predicted finish time of a new job in ``context_index``.

        The prediction adds the MRET backlog of the context's queued and
        active stages (divided by the stream count) to the current time.
        """
        backlog = 0.0
        for _, stage in self._queues[context_index]:
            backlog += stage.job.task.timing.stage_value(stage.stage_index)
        for job in self._active_jobs[context_index].values():
            backlog += job.remaining_mret()
        return self.simulator.now + backlog / self.config.streams_per_context

    # ---------------------------------------------------------------- queues

    def _enqueue_stage(self, stage: StageInstance, context_index: int) -> None:
        stage.context_index = context_index
        stage.enqueue_time = self.simulator.now
        # stage_queue_key / stage_priority_level inlined (one call per stage
        # of every admitted job): (fixed level, EDF virtual deadline, FIFO).
        job = stage.job
        config = self.config
        if config.fixed_priority_levels:
            is_last = stage.stage_index == job.num_stages - 1 and config.prioritize_last_stage
            predecessor_missed = stage.predecessor_missed and config.boost_missed_predecessor
            if is_last:
                within = 0 if predecessor_missed else 1
            else:
                within = 2 if predecessor_missed else 3
            level = within if job.priority is Priority.HIGH else 4 + within
        else:
            level = 0
        key = (level, stage.virtual_deadline, next(self._sequence))
        heapq.heappush(self._queues[context_index], (key, stage))

    def _dispatch(self, context_index: int) -> None:
        """Dispatch ready stages to idle streams of ``context_index``."""
        queue = self._queues[context_index]
        if not queue:
            return
        platform = self.platform
        timed_out = JobState.TIMED_OUT
        pop = heapq.heappop
        while queue:
            stream_index = platform.idle_stream_index(context_index)
            if stream_index is None:
                return
            _, stage = pop(queue)
            if stage.job.state is timed_out:
                # Lazily discard stages of client-abandoned jobs on pop.
                continue
            stage.dispatch_time = self.simulator.now
            # The unlabeled conversion is memoized on the stage spec; a
            # per-job label would force a fresh KernelSpec per dispatch and
            # is only cosmetic.
            spec = stage.spec.to_kernel_spec()
            if self._launch_faults:
                outcome = self.injector.launch_attempt()
                if outcome.retries:
                    self.metrics.record_launch_retries(stage.job, outcome.retries)
                if not outcome.succeeded or outcome.delay_ms > 0.0:
                    # Hold the stream slot through the retry delay so other
                    # stages cannot double-book it.
                    self.platform.reserve_stream(context_index, stream_index)
                    deferred_launch(
                        self.simulator,
                        outcome,
                        do_launch=lambda ctx=context_index, si=stream_index, sp=spec, st=stage: (
                            self.platform.launch(
                                ctx,
                                si,
                                sp,
                                on_complete=lambda kernel, stage=st: self._on_stage_complete(
                                    stage, kernel
                                ),
                            )
                        ),
                        on_failed=lambda ctx=context_index, si=stream_index, st=stage: (
                            self._on_launch_failed(st, ctx, si)
                        ),
                    )
                    continue
            platform.launch(
                context_index,
                stream_index,
                spec,
                on_complete=lambda kernel, stage=stage: self._on_stage_complete(stage, kernel),
            )

    # ---------------------------------------------------------------- faults

    def _on_launch_failed(self, stage: StageInstance, context_index: int, stream_index: int) -> None:
        """A stage exhausted its launch-retry budget: the owning job dies."""
        job = stage.job
        job.end(JobState.FAILED)
        self.metrics.record_failure(job)
        self._active_jobs[job.context_index].pop(job.uid, None)
        self.admission.register_completion(job, job.context_index)
        self.platform.release_stream(context_index, stream_index)
        self._dispatch(context_index)

    def _on_request_timeout(self, job: Job) -> None:
        """Client abandonment: drop a job still waiting for its first dispatch."""
        if job.state is not JobState.ADMITTED:
            return
        if job.current_stage_index > 0 or job.current_stage.dispatch_time is not None:
            return  # already in service; completion stands
        job.end(JobState.TIMED_OUT)
        self.metrics.record_timeout(job)
        context = job.context_index
        self._active_jobs[context].pop(job.uid, None)
        self.admission.register_completion(job, context)

    # ------------------------------------------------------------ completions

    def _on_stage_complete(self, stage: StageInstance, kernel: KernelInstance) -> None:
        now = self.simulator.now
        stage.start_time = kernel.start_time
        stage.finish_time = kernel.finish_time
        # The observed stage time is measured the way the paper's LibTorch
        # implementation measures it: from the submission of the stage's
        # kernels to the return of its synchronization point.  It therefore
        # includes the launch gaps and any SM sharing the stage experienced,
        # but not the time the stage spent waiting in the scheduler's ready
        # queue.
        dispatch_time = stage.dispatch_time if stage.dispatch_time is not None else kernel.start_time
        execution_time = kernel.finish_time - dispatch_time
        job = stage.job
        task = job.task

        task.timing.observe(stage.stage_index, execution_time)
        stage.missed_virtual_deadline = stage.finish_time > stage.virtual_deadline + 1e-9

        if self.trace.enabled:
            self.trace.record_stage(
                StageTraceRecord(
                    time_ms=now,
                    task_name=task.name,
                    priority=task.priority,
                    job_index=job.index,
                    stage_index=stage.stage_index,
                    execution_time_ms=execution_time,
                    mret_prediction_ms=stage.mret_at_release,
                    virtual_deadline_ms=stage.virtual_deadline,
                    missed_virtual_deadline=stage.missed_virtual_deadline,
                    context_index=stage.context_index,
                )
            )

        job.current_stage_index = new_index = job.current_stage_index + 1  # job.advance() inlined
        if new_index >= job.num_stages:
            self._complete_job(job, now)
        else:
            next_stage = job.stages[new_index]
            next_stage.predecessor_missed = stage.missed_virtual_deadline
            next_context = self._next_stage_context(job, stage.context_index)
            self._enqueue_stage(next_stage, next_context)
            if next_context != stage.context_index:
                self._move_active_job(job, stage.context_index, next_context)
            self._dispatch(next_context)

        # The completed stage freed a stream slot in its context.
        self._dispatch(stage.context_index)

    def _next_stage_context(self, job: Job, current_context: int) -> int:
        """Context for the job's next stage (zero-delay stage migration for LP)."""
        if not self.config.stage_migration or job.priority is Priority.HIGH:
            return current_context
        if self.platform.idle_stream_index(current_context) is not None:
            return current_context
        if self._queues[current_context]:
            for candidate in range(self.config.num_contexts):
                if candidate == current_context:
                    continue
                if (
                    self.platform.idle_stream_index(candidate) is not None
                    and not self._queues[candidate]
                ):
                    return candidate
        return current_context

    def _move_active_job(self, job: Job, old_context: int, new_context: int) -> None:
        self._active_jobs[old_context].pop(job.uid, None)
        self._active_jobs[new_context][job.uid] = job
        self.admission.register_completion(job, old_context)
        self.admission.register_admission(job, new_context)
        job.context_index = new_context

    def _complete_job(self, job: Job, now: float) -> None:
        job.end(JobState.COMPLETED)
        job.completion_time = now
        task = job.task
        task.jobs_completed += 1
        if job.missed_deadline:
            task.jobs_missed += 1
        self.metrics.record_completion(job)
        self.injector.note_completion(now, on_time=not job.missed_deadline)
        self.admission.register_completion(job, job.context_index)
        self._active_jobs[job.context_index].pop(job.uid, None)
        if self.trace.enabled:
            self.trace.record_job(
                JobTraceRecord(
                    time_ms=now,
                    task_name=task.name,
                    priority=task.priority,
                    job_index=job.index,
                    release_time_ms=job.release_time,
                    response_time_ms=job.response_time or 0.0,
                    missed_deadline=bool(job.missed_deadline),
                    context_index=job.context_index,
                )
            )

    # ------------------------------------------------------------------ views

    def queue_depth(self, context_index: int) -> int:
        """Number of ready (not yet dispatched) stages in one context."""
        return len(self._queues[context_index])

    def context_tasks(self, context_index: int) -> List[Task]:
        """Tasks currently assigned to a context."""
        return [task for task in self.tasks if task.context_index == context_index]
