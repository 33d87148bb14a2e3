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
from functools import partial
from typing import Dict, List, Optional

from repro.baselines.gslice import BatchRun
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
from repro.sim.workload import PERIODIC_WORKLOAD, ArrivalEvent, ReleaseStream, WorkloadSpec


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


class _ArrivalLoop:
    """The queue and batch loop of one rate-driven run.

    One slotted object in place of closures that call one another: only
    pending events and the kernels of the batch in flight refer to it, so
    it is freed once the run's owner drops them.
    """

    __slots__ = (
        "server",
        "simulator",
        "platform",
        "injector",
        "policy",
        "deadline_ms",
        "timeout_ms",
        "client_timeout",
        "partial_kernels",
        "pending",
        "running",
        "completed",
        "missed",
        "dropped",
        "timed_out",
        "failed",
        "retries",
        "response_times",
    )

    def __init__(
        self,
        server: "BatchingServer",
        simulator: Simulator,
        platform: GpuPlatform,
        injector: FaultInjector,
        policy: ResiliencePolicy,
        deadline_ms: float,
        timeout_ms: Optional[float],
    ):
        self.server = server
        self.simulator = simulator
        self.platform = platform
        self.injector = injector
        self.policy = policy
        self.deadline_ms = deadline_ms
        self.timeout_ms = timeout_ms
        self.client_timeout = injector.timeout_ms
        # Partial-batch kernels per batch length, built once per run: the
        # engine memoizes launch invariants per spec object.
        self.partial_kernels: Dict[int, List[KernelSpec]] = {}
        self.pending: List[float] = []  # release times of queued requests
        self.running = False
        self.completed = 0
        self.missed = 0
        self.dropped = 0
        self.timed_out = 0
        self.failed = 0
        self.retries = 0
        self.response_times: List[float] = []

    def maybe_launch(self, force: bool = False) -> None:
        if self.running:
            return
        simulator = self.simulator
        pending = self.pending
        client_timeout = self.client_timeout
        if client_timeout is not None and pending:
            # Clients abandon requests that sat queued past their timeout.
            fresh = [r for r in pending if simulator.now - r <= client_timeout + 1e-9]
            self.timed_out += len(pending) - len(fresh)
            pending[:] = fresh
        if not pending:
            return
        injector = self.injector
        if self.policy.degraded_fallback == "partial-batch" and injector.degraded:
            # Degraded mode: don't wait for a full batch on a slow GPU.
            force = True
        server = self.server
        batch_size = server.batch_size
        if len(pending) < batch_size and not force:
            return
        batch = pending[:batch_size]
        del pending[: len(batch)]
        self.running = True
        stages = server.kernels
        if len(batch) < batch_size:
            stages = self.partial_kernels.get(len(batch))
            if stages is None:
                scale = len(batch) / float(batch_size)
                stages = [
                    spec.scaled(scale, 1.0, float(server.gpu.num_sms))
                    for spec in server.kernels
                ]
                self.partial_kernels[len(batch)] = stages
        run = BatchRun(self.platform, 0, stages, partial(self.finish_batch, batch))
        outcome = injector.launch_attempt()
        self.retries += outcome.retries
        if not outcome.succeeded or outcome.delay_ms > 0.0:
            deferred_launch(simulator, outcome, run.submit, partial(self.lose_batch, batch))
            return
        run.submit()

    def finish_batch(self, batch: List[float]) -> None:
        self.running = False
        now = self.simulator.now
        deadline_ms = self.deadline_ms
        for release in batch:
            self.completed += 1
            self.response_times.append(now - release)
            late = now > release + deadline_ms
            if late:
                self.missed += 1
            self.injector.note_completion(now, on_time=not late)
        self.maybe_launch(force=False)

    def lose_batch(self, batch: List[float]) -> None:
        self.failed += len(batch)
        self.running = False
        self.maybe_launch(force=False)

    def on_arrival(self, event: ArrivalEvent) -> None:
        if self.injector.drop_request():
            self.dropped += 1
            return
        self.pending.append(event.time)
        self.maybe_launch(force=False)
        if self.timeout_ms is not None:
            self.simulator.schedule_after(
                self.timeout_ms, self.on_batch_timeout, label="batch-timeout"
            )

    def on_batch_timeout(self, _simulator: Simulator) -> None:
        self.maybe_launch(force=True)


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
        rng: Optional[RngFactory] = None,
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
        inter-arrivals at the same mean rate (``rng``, an
        :class:`~repro.sim.rng.RngFactory`, required), ``trace``
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

        Once the metrics are summarized, the run drops its pending events
        and the callbacks of the batch still in flight, so reference
        counting frees the whole run when this returns.
        """
        if arrival_rate_jps <= 0 or deadline_ms <= 0 or horizon_ms <= 0:
            raise ValueError("arrival rate, deadline and horizon must be positive")
        workload = workload if workload is not None else PERIODIC_WORKLOAD
        if workload.saturated:
            raise ValueError(
                "saturated workloads have no arrival stream; run a one-partition GSliceServer"
            )
        policy = resilience if resilience is not None else DEFAULT_POLICY
        injector = FaultInjector(faults, rng=rng, policy=policy)
        faults_active = faults is not None and faults.active
        simulator = Simulator()
        platform = GpuPlatform(
            simulator,
            PlatformConfig(num_contexts=1, streams_per_context=1, oversubscription=1.0),
            spec=self.gpu,
            calibration=self.calibration,
        )
        injector.install(simulator, platform, horizon_ms)
        loop = _ArrivalLoop(self, simulator, platform, injector, policy, deadline_ms, timeout_ms)
        released = ReleaseStream(workload, rng).drive_aggregate(
            simulator, horizon_ms, arrival_rate_jps, loop.on_arrival
        )
        simulator.run_until(horizon_ms)

        # Fault-free runs keep the historical metrics layout byte-identical:
        # the cause counters stay zero and ``admitted`` keeps its
        # completed-count default, so the gate below only fires when a fault
        # process is actually configured.
        fault_kwargs: Dict[str, object] = {}
        if faults_active:
            fault_kwargs = dict(
                admitted=released - loop.dropped,
                dropped=loop.dropped,
                timed_out=loop.timed_out,
                failed=loop.failed,
                launch_retries=loop.retries,
                fault_impact=FaultImpact.from_summary(injector.summary()),
            )
        metrics = single_class_metrics(
            horizon_ms,
            completed=loop.completed,
            missed=loop.missed,
            released=released,
            response_times=loop.response_times,
            per_task_completed={self.model.name: loop.completed},
            **fault_kwargs,
        )
        simulator.drop_pending()
        platform.engine.drop_callbacks()
        return BatchingArrivalResult(metrics=metrics, released=released)
