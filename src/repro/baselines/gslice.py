"""GSlice-like spatial-sharing inference server (paper Section VI-B).

GSlice (Dhakal et al., SoCC 2020) controls spatial sharing by giving each
model a fixed fraction of the GPU's SMs and batching requests inside each
partition.  Compared to DARIS it has no oversubscription (partitions are
isolated), no task priorities and no staging; its gain over pure batching is
therefore modest (the paper quotes ~3.5 % for ResNet50).

:meth:`GSliceServer.run_saturated` is also the repository's one saturated
closed loop: a one-partition server at batch size 1 is the single-tenant
lower baseline and at batch size ``b`` the pure-batching upper baseline
(the ``single`` and saturated ``batching_server`` backends).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence

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


class BatchRun:
    """One batch's progress through its kernels, one kernel at a time.

    The bound :meth:`on_kernel_done` is the kernel callback, so a batch in
    flight is held only by its current kernel and holds nothing that points
    back at it: reference counting frees it once its last kernel is done.
    """

    __slots__ = ("platform", "context", "kernels", "next_kernel", "on_done")

    def __init__(
        self,
        platform: GpuPlatform,
        context: int,
        kernels: Sequence[KernelSpec],
        on_done: Callable[[], None],
    ):
        self.platform = platform
        self.context = context
        self.kernels = kernels
        self.next_kernel = 0
        self.on_done = on_done

    def submit(self) -> None:
        """Launch the next kernel on the context's only stream."""
        self.platform.launch(
            self.context, 0, self.kernels[self.next_kernel], on_complete=self.on_kernel_done
        )

    def on_kernel_done(self, _kernel) -> None:
        """Launch the next kernel, or finish the batch after its last one."""
        self.next_kernel += 1
        if self.next_kernel < len(self.kernels):
            self.submit()
        else:
            self.on_done()


@dataclass(frozen=True)
class GSliceResult:
    """Typed summary of a saturated GSlice run: metrics plus per-model JPS."""

    metrics: ScenarioMetrics
    per_model_jps: Mapping[str, float]

    @property
    def total_jps(self) -> float:
        """Throughput summed over every partition."""
        return self.metrics.total_jps


class GSliceServer:
    """Static spatial partitions, one model per partition, batching inside each.

    The partitions are realised as MPS contexts with ``OS = 1`` (no SM quota
    overlap), which is exactly the isolation GSlice enforces through CUDA MPS
    resource provisioning.
    """

    def __init__(
        self,
        models: Sequence[DnnModel],
        batch_sizes: Optional[Sequence[int]] = None,
        gpu: GpuSpec = RTX_2080_TI,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
        oversubscription: float = 1.0,
    ):
        if not models:
            raise ValueError("at least one model is required")
        self.models = list(models)
        if batch_sizes is None:
            batch_sizes = [model.profile.preferred_batch_size for model in self.models]
        if len(batch_sizes) != len(self.models):
            raise ValueError("one batch size per model is required")
        if not 1.0 <= oversubscription <= max(1.0, float(len(self.models))):
            raise ValueError(
                f"oversubscription must be in [1, {len(self.models)}], got {oversubscription}"
            )
        self.batch_sizes = list(batch_sizes)
        self.gpu = gpu
        self.calibration = calibration
        self.oversubscription = oversubscription

    def run_saturated(
        self,
        horizon_ms: float,
        faults: Optional[FaultSpec] = None,
        resilience: Optional[ResiliencePolicy] = None,
        rng: Optional[RngFactory] = None,
    ) -> GSliceResult:
        """Run every partition at saturation; returns per-model and total JPS.

        ``faults`` / ``resilience`` inject the scenario's fault processes:
        throttle windows and context crashes slow/stall the partitions, and
        a batch launch that exhausts its retry budget loses that batch
        (``failed`` counts one per request in the batch).  Request-level
        drops/timeouts do not apply to the saturated closed loop.
        """
        if horizon_ms <= 0:
            raise ValueError("horizon must be positive")
        policy = resilience if resilience is not None else DEFAULT_POLICY
        injector = FaultInjector(faults, rng=rng, policy=policy)
        simulator = Simulator()
        num_partitions = len(self.models)
        platform = GpuPlatform(
            simulator,
            PlatformConfig(
                num_contexts=num_partitions,
                streams_per_context=1,
                oversubscription=self.oversubscription,
            ),
            spec=self.gpu,
            calibration=self.calibration,
        )
        injector.install(simulator, platform, horizon_ms)
        # Each partition's batched kernels, built once per run: the engine
        # memoizes launch invariants per spec object.
        kernels = [
            batched_kernel_specs(model, batch)
            for model, batch in zip(self.models, self.batch_sizes)
        ]
        completed_jobs = {model.name: 0 for model in self.models}
        batch_latencies: Dict[str, List[float]] = {model.name: [] for model in self.models}
        fault_counts = {"failed": 0, "retries": 0}

        def launch_batch(partition: int) -> None:
            run = BatchRun(
                platform,
                partition,
                kernels[partition],
                partial(finish_batch, partition, simulator.now),
            )
            outcome = injector.launch_attempt()
            fault_counts["retries"] += outcome.retries
            if not outcome.succeeded or outcome.delay_ms > 0.0:
                deferred_launch(simulator, outcome, run.submit, partial(lose_batch, partition))
                return
            run.submit()

        def finish_batch(partition: int, start_time: float) -> None:
            name = self.models[partition].name
            completed_jobs[name] += self.batch_sizes[partition]
            batch_latencies[name].append(simulator.now - start_time)
            injector.note_completion(simulator.now, on_time=True)
            if simulator.now < horizon_ms:
                launch_batch(partition)

        def lose_batch(partition: int) -> None:
            fault_counts["failed"] += self.batch_sizes[partition]
            if simulator.now < horizon_ms:
                launch_batch(partition)

        for partition in range(num_partitions):
            launch_batch(partition)
        simulator.run_until(horizon_ms)

        per_model = {
            name: 1000.0 * count / horizon_ms for name, count in completed_jobs.items()
        }
        response_times = [
            latency
            for partition, model in enumerate(self.models)
            for latency in batch_latencies[model.name]
            for _ in range(self.batch_sizes[partition])
        ]
        completed = sum(completed_jobs.values())
        served = completed + fault_counts["failed"]
        metrics = single_class_metrics(
            horizon_ms,
            completed=completed,
            released=served,
            admitted=served,
            failed=fault_counts["failed"],
            launch_retries=fault_counts["retries"],
            response_times=response_times,
            per_task_completed=completed_jobs,
            fault_impact=FaultImpact.from_summary(injector.summary()),
        )
        return GSliceResult(metrics=metrics, per_model_jps=per_model)
