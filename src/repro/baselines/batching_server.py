"""Pure-batching server driven by rate-based arrivals with deadlines.

The batching server accumulates incoming requests into fixed-size batches and
executes one batch at a time on the whole GPU.  Driven by rate-based arrivals
with deadlines (fixed-rate by default; Poisson, bursty MMPP, trace replay and
jittered or diurnally modulated variants via a
:class:`~repro.sim.workload.WorkloadSpec`) it shows why batching alone is
problematic for real-time workloads (jobs wait for their batch to fill).

Its *saturated* throughput -- requests always waiting, so every batch is
full -- is the paper's upper baseline (Table I ``max`` column, Figure 1):
a one-partition :class:`~repro.baselines.gslice.GSliceServer` at the batch
size, which the ``batching_server`` backend runs for saturated requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.baselines.results import single_class_metrics
from repro.dnn.batching import batched_kernel_specs
from repro.dnn.model import DnnModel
from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.kernel import KernelSpec
from repro.gpu.platform import GpuPlatform, PlatformConfig
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.rt.metrics import FaultImpact, ScenarioMetrics
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


@dataclass(frozen=True)
class BatchingArrivalResult:
    """Typed summary of a rate-driven batching run."""

    metrics: ScenarioMetrics
    released: int

    @property
    def throughput_jps(self) -> float:
        """Completed requests per second."""
        return self.metrics.total_jps

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completed requests that finished past their deadline."""
        return self.metrics.overall_dmr

    @property
    def completed(self) -> int:
        """Requests that completed within the horizon."""
        return self.metrics.total_completed


class BatchingServer:
    """Executes one fixed-size batch at a time on the full GPU."""

    def __init__(
        self,
        model: DnnModel,
        batch_size: int,
        gpu: GpuSpec = RTX_2080_TI,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = batch_size
        self.gpu = gpu
        self.calibration = calibration
        self.kernels = batched_kernel_specs(model, batch_size)

    def run_with_arrivals(
        self,
        arrival_rate_jps: float,
        deadline_ms: float,
        horizon_ms: float,
        timeout_ms: Optional[float] = None,
        workload: Optional[WorkloadSpec] = None,
        rng: Union[np.random.Generator, RngFactory, None] = None,
        faults: Optional[FaultSpec] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> BatchingArrivalResult:
        """Drive the server with rate-based request arrivals and deadlines.

        Requests are queued until ``batch_size`` of them are available (or the
        optional ``timeout_ms`` forces a partial batch); the returned summary
        reports throughput and the fraction of requests that finished after
        their deadline — the effect the paper cites when arguing that real-time
        inference cannot simply rely on batching.

        ``workload`` selects the arrival process, driven in aggregate mode
        through the shared :class:`~repro.sim.workload.ReleaseStream`: the
        default (``periodic``) is the historical fixed-rate stream at
        ``arrival_rate_jps``; ``poisson`` / ``mmpp`` draw memoryless / bursty
        inter-arrivals at the same mean rate (``rng`` required — an
        :class:`~repro.sim.rng.RngFactory` or a bare generator), ``trace``
        replays explicit times, and jitter / diurnal modulators compose on
        any rate-driven kind.  Saturated workloads have no arrival stream —
        run a one-partition :class:`~repro.baselines.gslice.GSliceServer`.

        ``faults`` / ``resilience`` inject the scenario's fault processes:
        requests can be dropped at arrival or abandoned by their client
        after the fault spec's timeout while queued, a batch launch that
        exhausts its retry budget fails the whole batch, and — with the
        ``"partial-batch"`` degraded fallback — the server stops waiting
        for full batches while the GPU is degraded, trading efficiency for
        latency exactly when throttling already inflates service times.
        """
        if arrival_rate_jps <= 0 or deadline_ms <= 0 or horizon_ms <= 0:
            raise ValueError("arrival rate, deadline and horizon must be positive")
        workload = workload if workload is not None else PERIODIC_WORKLOAD
        if workload.saturated:
            raise ValueError(
                "saturated workloads have no arrival stream; run a one-partition GSliceServer"
            )
        policy = resilience if resilience is not None else DEFAULT_POLICY
        injector = FaultInjector(
            faults, rng=rng if isinstance(rng, RngFactory) else None, policy=policy
        )
        faults_active = faults is not None and faults.active
        simulator = Simulator()
        platform = GpuPlatform(
            simulator,
            PlatformConfig(num_contexts=1, streams_per_context=1, oversubscription=1.0),
            spec=self.gpu,
            calibration=self.calibration,
        )
        injector.install(simulator, platform, horizon_ms)
        client_timeout = injector.timeout_ms
        # Partial-batch kernels per batch length, built once per run: the
        # engine memoizes launch invariants per spec object.
        partial_kernels: Dict[int, List[KernelSpec]] = {}
        pending: List[float] = []  # release times of queued requests
        busy = {"running": False}
        completed = {"count": 0, "missed": 0}
        fault_counts = {"dropped": 0, "timed_out": 0, "failed": 0, "retries": 0}
        response_times: List[float] = []

        def maybe_launch(force: bool = False) -> None:
            if busy["running"]:
                return
            if client_timeout is not None and pending:
                # Clients abandon requests that sat queued past their timeout.
                fresh = [r for r in pending if simulator.now - r <= client_timeout + 1e-9]
                fault_counts["timed_out"] += len(pending) - len(fresh)
                pending[:] = fresh
            if not pending:
                return
            if policy.degraded_fallback == "partial-batch" and injector.degraded:
                # Degraded mode: don't wait for a full batch on a slow GPU.
                force = True
            if len(pending) < self.batch_size and not force:
                return
            batch = pending[: self.batch_size]
            del pending[: len(batch)]
            busy["running"] = True
            stages = self.kernels
            if len(batch) < self.batch_size:
                stages = partial_kernels.get(len(batch))
                if stages is None:
                    scale = len(batch) / float(self.batch_size)
                    stages = [
                        spec.scaled(scale, 1.0, float(self.gpu.num_sms))
                        for spec in self.kernels
                    ]
                    partial_kernels[len(batch)] = stages
            state = {"stage": 0}

            def on_stage_done(_kernel) -> None:
                state["stage"] += 1
                if state["stage"] < len(stages):
                    submit_stage()
                    return
                busy["running"] = False
                for release in batch:
                    completed["count"] += 1
                    response_times.append(simulator.now - release)
                    late = simulator.now > release + deadline_ms
                    if late:
                        completed["missed"] += 1
                    injector.note_completion(simulator.now, on_time=not late)
                maybe_launch(force=False)

            def submit_stage() -> None:
                platform.launch(0, 0, stages[state["stage"]], on_complete=on_stage_done)

            outcome = injector.launch_attempt()
            fault_counts["retries"] += outcome.retries
            if not outcome.succeeded or outcome.delay_ms > 0.0:

                def on_launch_failed(batch=batch) -> None:
                    fault_counts["failed"] += len(batch)
                    busy["running"] = False
                    maybe_launch(force=False)

                deferred_launch(simulator, outcome, submit_stage, on_launch_failed)
                return
            submit_stage()

        def on_arrival(simulator_now: float) -> None:
            if injector.drop_request():
                fault_counts["dropped"] += 1
                return
            pending.append(simulator_now)
            maybe_launch(force=False)
            if timeout_ms is not None:
                simulator.schedule_after(
                    timeout_ms, lambda _sim: maybe_launch(force=True), label="batch-timeout"
                )

        released = ReleaseStream(workload, rng).drive_aggregate(
            simulator, horizon_ms, arrival_rate_jps, lambda event: on_arrival(event.time)
        )
        simulator.run_until(horizon_ms)

        # Fault-free runs keep the historical metrics layout byte-identical:
        # the cause counters stay zero and ``admitted`` keeps its
        # completed-count default, so the gate below only fires when a fault
        # process is actually configured.
        fault_kwargs: Dict[str, object] = {}
        if faults_active:
            fault_kwargs = dict(
                admitted=released - fault_counts["dropped"],
                dropped=fault_counts["dropped"],
                timed_out=fault_counts["timed_out"],
                failed=fault_counts["failed"],
                launch_retries=fault_counts["retries"],
                fault_impact=FaultImpact.from_summary(injector.summary()),
            )
        metrics = single_class_metrics(
            horizon_ms,
            completed=completed["count"],
            missed=completed["missed"],
            released=released,
            response_times=response_times,
            per_task_completed={self.model.name: completed["count"]},
            **fault_kwargs,
        )
        return BatchingArrivalResult(metrics=metrics, released=released)
