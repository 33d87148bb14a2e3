"""The built-in scheduler backends: DARIS plus the paper's five baselines.

Each backend adapts one existing scheduler/server to the uniform
:class:`~repro.backends.base.SchedulerBackend` protocol.  The heterogeneous
entry points — ``run_daris_scenario``, ``RtgpuScheduler.run_taskset``,
``ClusterServer.serve`` (one GPU, for ``clockwork``),
``GSliceServer.run_saturated`` (also behind ``SingleTenantExecutor.run`` and
``BatchingServer.run_saturated``, as a one-partition server) and
``BatchingServer.run_with_arrivals`` — all normalize to *(request in, result
out)*, so every system gets caching, seed replication, CI aggregation and
sharded sweeps from the experiment engine for free.

Seeding: every backend builds its randomness from
``RngFactory(request.seed)``, so a backend run twice with the same seed is
bit-identical (the determinism contract the pipeline tests pin).  The purely
deterministic servers ignore the seed by construction, which satisfies the
same contract trivially.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Tuple, Type

from repro.backends.base import BackendRequestError, SchedulerBackend
from repro.backends.configs import (
    BatchingConfig,
    ClockworkConfig,
    GSliceConfig,
    SingleConfig,
)
from repro.backends.registry import register_backend
from repro.baselines.batching_server import BatchingServer
from repro.baselines.gslice import GSliceServer
from repro.baselines.rtgpu import RtgpuScheduler
from repro.baselines.single import SingleTenantExecutor
from repro.cluster.config import ClusterConfig
from repro.cluster.server import ClusterServer
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.runner import ScenarioResult, run_daris_scenario
from repro.rt.metrics import ScenarioMetrics
from repro.rt.taskset import TaskSetSpec
from repro.scheduler.config import DarisConfig
from repro.sim.faults import ResiliencePolicy
from repro.sim.rng import RngFactory


def _result(request: ScenarioRequest, metrics: ScenarioMetrics) -> ScenarioResult:
    """Uniform result assembly: explicit label, else the config's own."""
    label = request.label if request.label is not None else request.config.label()
    return ScenarioResult(label=label, config=request.config, metrics=metrics)


def _check_warmup(backend: SchedulerBackend, request: ScenarioRequest) -> None:
    """DARIS metrics exclude the warm-up, so the horizon must outlast it."""
    warmup_ms = request.config.warmup_ms
    if request.horizon_ms <= warmup_ms:
        raise BackendRequestError(
            f"the {backend.name!r} backend excludes a {warmup_ms:g} ms warm-up"
            f" from its metrics; horizon_ms={request.horizon_ms:g} must exceed it"
        )


def _min_relative_deadline_ms(taskset: TaskSetSpec) -> float:
    """Tightest per-request deadline in the task set (the honest bound for
    aggregate request streams, which carry no per-task identity)."""
    return min(task.relative_deadline_ms for task in taskset.tasks)


class DarisBackend(SchedulerBackend):
    """The paper's scheduler, unchanged — the reference backend."""

    name: ClassVar[str] = "daris"
    title: ClassVar[str] = "DARIS: deadline-aware staged scheduler (the paper's system)"
    config_type: ClassVar[Type] = DarisConfig
    supported_arrivals: ClassVar[Tuple[str, ...]] = ("periodic", "poisson", "mmpp", "trace")
    supports_traces: ClassVar[bool] = True
    # Deadline-aware scheduler, deadline-aware degradation: retry failed
    # launches with backoff and shed admissions while the GPU is degraded.
    resilience: ClassVar[ResiliencePolicy] = ResiliencePolicy(
        max_launch_retries=3, retry_backoff=1.5, shed_when_degraded=True
    )

    def validate_request(self, request: ScenarioRequest) -> None:
        super().validate_request(request)
        _check_warmup(self, request)

    def run(self, request: ScenarioRequest) -> ScenarioResult:
        return run_daris_scenario(
            request.taskset,
            request.config,
            request.horizon_ms,
            seed=request.seed,
            with_trace=request.with_trace,
            gpu=request.gpu,
            calibration=request.calibration,
            label=request.label,
            workload=request.workload,
            faults=request.faults,
            resilience=self.resilience,
        )


class RtgpuBackend(SchedulerBackend):
    """RTGPU-like EDF scheduling: DARIS machinery, priorities disabled."""

    name: ClassVar[str] = "rtgpu"
    title: ClassVar[str] = "RTGPU-like: EDF real-time scheduling without task priorities"
    config_type: ClassVar[Type] = DarisConfig
    supported_arrivals: ClassVar[Tuple[str, ...]] = ("periodic", "poisson", "mmpp", "trace")
    # Retries launches like DARIS but — lacking priorities — never sheds.
    resilience: ClassVar[ResiliencePolicy] = ResiliencePolicy(max_launch_retries=3)

    def validate_request(self, request: ScenarioRequest) -> None:
        super().validate_request(request)
        _check_warmup(self, request)

    def run(self, request: ScenarioRequest) -> ScenarioResult:
        scheduler = RtgpuScheduler(
            request.config, gpu=request.gpu, calibration=request.calibration
        )
        metrics = scheduler.run_taskset(
            request.taskset,
            request.horizon_ms,
            seed=request.seed,
            workload=request.workload,
            faults=request.faults,
            resilience=self.resilience,
        )
        return _result(request, metrics)


class ClockworkBackend(SchedulerBackend):
    """Clockwork-like predictable serving: one DNN at a time, drop-if-late.

    Clockwork (Gujarati et al., OSDI 2020) achieves predictable latency by
    executing exactly one DNN at a time, relying on the resulting
    deterministic execution times to decide up front whether a request can
    meet its deadline; requests that cannot are dropped.  The DARIS paper
    cites it as the design point that trades throughput for
    predictability.  The backend runs the cluster's per-GPU EDF worker on a
    single GPU (:class:`~repro.cluster.server.ClusterServer` with
    ``num_gpus=1``), so there is one serving loop for both backends.
    """

    name: ClassVar[str] = "clockwork"
    title: ClassVar[str] = "Clockwork-like: one DNN at a time, EDF, admission by predicted latency"
    config_type: ClassVar[Type] = ClockworkConfig
    deterministic: ClassVar[bool] = True
    supported_arrivals: ClassVar[Tuple[str, ...]] = ("periodic", "poisson", "mmpp", "trace")
    # Predictability-first: one quick retry, then shed by (degradation-
    # inflated) predicted latency — Clockwork's own admission mechanism.
    resilience: ClassVar[ResiliencePolicy] = ResiliencePolicy(
        max_launch_retries=1, shed_when_degraded=True
    )

    def run(self, request: ScenarioRequest) -> ScenarioResult:
        server = ClusterServer(
            ClusterConfig(num_gpus=1),
            gpu=request.gpu,
            calibration=request.calibration,
            admission_slack=request.config.admission_slack,
        )
        metrics = server.serve(
            request.taskset,
            request.horizon_ms,
            workload=request.workload,
            rng=RngFactory(request.seed),
            # One GPU: a spec targeted at any device applies to it, where a
            # 1-GPU cluster would drop a spec targeted past device 0.
            faults=request.faults.targeting(None),
            resilience=self.resilience,
        )
        # A single-device result carries no per-GPU telemetry and reports
        # no utilization, as a non-cluster backend.
        metrics = dataclasses.replace(
            metrics, gpu_breakdown=None, average_gpu_utilization=0.0
        )
        return _result(request, metrics)


class SingleBackend(SchedulerBackend):
    """Single-tenant lower baseline: one inference at a time, no batching."""

    name: ClassVar[str] = "single"
    title: ClassVar[str] = "Single-tenant: one inference at a time on the whole GPU (Table I min)"
    config_type: ClassVar[Type] = SingleConfig
    deterministic: ClassVar[bool] = True
    supported_arrivals: ClassVar[Tuple[str, ...]] = ("saturated",)
    # No queue to fall back on: persistent retries are the only answer.
    resilience: ClassVar[ResiliencePolicy] = ResiliencePolicy(max_launch_retries=3)

    def run(self, request: ScenarioRequest) -> ScenarioResult:
        executor = SingleTenantExecutor(
            self.single_model(request.taskset),
            gpu=request.gpu,
            calibration=request.calibration,
        )
        outcome = executor.run(
            request.horizon_ms,
            faults=request.faults,
            resilience=self.resilience,
            rng=RngFactory(request.seed),
        )
        return _result(request, outcome.metrics)


class BatchingBackend(SchedulerBackend):
    """Pure-batching upper baseline; saturated or rate-driven with deadlines."""

    name: ClassVar[str] = "batching_server"
    title: ClassVar[str] = "Pure batching: fixed-size batches on the whole GPU (Table I max)"
    config_type: ClassVar[Type] = BatchingConfig
    deterministic: ClassVar[bool] = True
    supported_arrivals: ClassVar[Tuple[str, ...]] = (
        "saturated",
        "periodic",
        "poisson",
        "mmpp",
        "trace",
    )

    # Batches amortize launches, so one retry; when degraded, stop waiting
    # for full batches (partial-batch fallback) instead of queuing deeper.
    resilience: ClassVar[ResiliencePolicy] = ResiliencePolicy(
        max_launch_retries=1, degraded_fallback="partial-batch"
    )

    def run(self, request: ScenarioRequest) -> ScenarioResult:
        model = self.single_model(request.taskset)
        batch_size = request.config.batch_size or model.profile.preferred_batch_size
        server = BatchingServer(
            model, batch_size, gpu=request.gpu, calibration=request.calibration
        )
        if request.workload.saturated:
            outcome = server.run_saturated(
                request.horizon_ms,
                faults=request.faults,
                resilience=self.resilience,
                rng=RngFactory(request.seed),
            )
            return _result(request, outcome.metrics)
        outcome = server.run_with_arrivals(
            arrival_rate_jps=request.taskset.total_demand_jps,
            deadline_ms=_min_relative_deadline_ms(request.taskset),
            horizon_ms=request.horizon_ms,
            timeout_ms=request.config.timeout_ms,
            workload=request.workload,
            rng=RngFactory(request.seed),
            faults=request.faults,
            resilience=self.resilience,
        )
        return _result(request, outcome.metrics)


class GSliceBackend(SchedulerBackend):
    """GSlice-like spatial sharing: one isolated partition per model."""

    name: ClassVar[str] = "gslice"
    title: ClassVar[str] = "GSlice-like: static spatial partitions with per-partition batching"
    config_type: ClassVar[Type] = GSliceConfig
    deterministic: ClassVar[bool] = True
    supported_arrivals: ClassVar[Tuple[str, ...]] = ("saturated",)
    # Isolated partitions contain the blast radius; one retry per batch.
    resilience: ClassVar[ResiliencePolicy] = ResiliencePolicy(max_launch_retries=1)

    def run(self, request: ScenarioRequest) -> ScenarioResult:
        models = self.taskset_models(request.taskset)
        batch_sizes = request.config.batch_sizes
        if request.config.oversubscription > len(models):
            raise BackendRequestError(
                f"gslice oversubscription {request.config.oversubscription:g} exceeds"
                f" the partition count ({len(models)} model(s) in the task set)"
            )
        server = GSliceServer(
            models,
            batch_sizes=list(batch_sizes) if batch_sizes is not None else None,
            gpu=request.gpu,
            calibration=request.calibration,
            oversubscription=request.config.oversubscription,
        )
        outcome = server.run_saturated(
            request.horizon_ms,
            faults=request.faults,
            resilience=self.resilience,
            rng=RngFactory(request.seed),
        )
        return _result(request, outcome.metrics)


BUILTIN_BACKENDS = tuple(
    register_backend(backend)
    for backend in (
        DarisBackend(),
        RtgpuBackend(),
        ClockworkBackend(),
        SingleBackend(),
        BatchingBackend(),
        GSliceBackend(),
    )
)
