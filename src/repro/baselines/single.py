"""Single-tenant lower baseline: one inference at a time on the full GPU."""

from __future__ import annotations

from typing import Optional

from repro.baselines.gslice import GSliceServer
from repro.baselines.results import JpsResult
from repro.dnn.model import DnnModel
from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.sim.faults import FaultSpec, ResiliencePolicy
from repro.sim.rng import RngFactory


class SingleTenantExecutor:
    """Runs back-to-back single inferences of one model on an otherwise idle GPU.

    This reproduces the ``min`` column of Table I: the throughput of a single
    CUDA stream with no co-location and no batching.  It is a one-partition
    :class:`~repro.baselines.gslice.GSliceServer` at batch size 1, whose
    batched stages are the model's own.
    """

    def __init__(
        self,
        model: DnnModel,
        gpu: GpuSpec = RTX_2080_TI,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
    ):
        self.model = model
        self.gpu = gpu
        self.calibration = calibration

    def run(
        self,
        horizon_ms: float,
        faults: Optional[FaultSpec] = None,
        resilience: Optional[ResiliencePolicy] = None,
        rng: Optional[RngFactory] = None,
    ) -> JpsResult:
        """Execute jobs until ``horizon_ms`` and return the measured JPS.

        The return value *is* the jobs-per-second float it always was
        (:class:`~repro.baselines.results.JpsResult` subclasses ``float``),
        and additionally carries ``.metrics`` — the uniform
        :class:`~repro.rt.metrics.ScenarioMetrics` the scheduler-backend API
        consumes, with each job's latency as its response time.

        ``faults`` / ``resilience`` inject the scenario's fault processes
        (throttle windows slow the engine, flaky launches cost retries, a
        launch that exhausts its retry budget loses the job).  Request-level
        drops and client timeouts do not apply to a saturated closed loop —
        there are no external requests to drop — and are ignored by
        construction of the fault spec's grid pairing.
        """
        server = GSliceServer(
            [self.model], batch_sizes=[1], gpu=self.gpu, calibration=self.calibration
        )
        outcome = server.run_saturated(
            horizon_ms, faults=faults, resilience=resilience, rng=rng
        )
        return JpsResult(outcome.total_jps, outcome.metrics)
