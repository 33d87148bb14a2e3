"""The DARIS scenario runner and the result type every backend returns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.rt.metrics import ScenarioMetrics
from repro.rt.taskset import TaskSetSpec
from repro.rt.trace import TraceRecorder
from repro.scheduler.config import DarisConfig
from repro.scheduler.daris import DarisScheduler
from repro.sim.faults import FaultSpec, ResiliencePolicy
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import WorkloadSpec


@dataclass(frozen=True)
class ScenarioResult:
    """One scheduling run: configuration label, metrics and optional trace.

    ``config`` is the scheduler configuration of the originating request —
    a :class:`DarisConfig` for the DARIS/RTGPU backends, a
    :class:`~repro.backends.configs.BackendConfig` for the baseline servers;
    both serialize canonically and round-trip through :meth:`from_dict`.
    """

    label: str
    config: Any
    metrics: ScenarioMetrics
    trace: Optional[TraceRecorder] = None

    @property
    def total_jps(self) -> float:
        """Total completed jobs per second."""
        return self.metrics.total_jps

    @property
    def lp_dmr(self) -> float:
        """Low-priority deadline miss rate."""
        return self.metrics.low.deadline_miss_rate

    @property
    def hp_dmr(self) -> float:
        """High-priority deadline miss rate."""
        return self.metrics.high.deadline_miss_rate

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-safe form of the result.

        The ``"trace"`` key appears only on traced results, so an untraced
        result serializes exactly as it did before traces were cacheable.
        """
        data: Dict[str, object] = {
            "label": self.label,
            "config": self.config.to_dict(),
            "metrics": self.metrics.to_dict(),
        }
        if self.trace is not None:
            data["trace"] = self.trace.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioResult":
        """Rebuild a result (and its trace, if any) from :meth:`to_dict` output.

        Backend configs serialize with a ``"kind"`` tag and dispatch to
        their own class; untagged config dictionaries are ``DarisConfig``
        (the historical cache-entry shape).
        """
        # Imported here, not at module top: the backends package imports this
        # module when its built-ins load, and config deserialization is the
        # only place the dependency points the other way.
        from repro.backends.configs import config_from_dict

        return cls(
            label=str(data["label"]),
            config=config_from_dict(data["config"]),
            metrics=ScenarioMetrics.from_dict(data["metrics"]),
            trace=TraceRecorder.from_dict(data["trace"]) if "trace" in data else None,
        )


def run_daris_scenario(
    taskset: TaskSetSpec,
    config: DarisConfig,
    horizon_ms: float,
    seed: int = 1,
    with_trace: bool = False,
    gpu: GpuSpec = RTX_2080_TI,
    calibration: GpuCalibration = DEFAULT_CALIBRATION,
    label: Optional[str] = None,
    workload: Optional[WorkloadSpec] = None,
    faults: Optional[FaultSpec] = None,
    resilience: Optional[ResiliencePolicy] = None,
) -> ScenarioResult:
    """Run one DARIS configuration against a task set and return the result.

    ``workload`` selects the release process (periodic by default,
    ``poisson`` for memoryless releases at the tasks' mean rates);
    ``faults`` injects the scenario's fault processes and ``resilience``
    sets the scheduler's answer to them (see :mod:`repro.sim.faults`).
    """
    simulator = Simulator()
    trace = TraceRecorder(enabled=with_trace)
    scheduler = DarisScheduler(
        simulator,
        taskset,
        config,
        gpu=gpu,
        calibration=calibration,
        rng=RngFactory(seed),
        trace=trace,
        workload=workload,
        faults=faults,
        resilience=resilience,
    )
    metrics = scheduler.run(horizon_ms)
    return ScenarioResult(
        label=label if label is not None else config.label(),
        config=config,
        metrics=metrics,
        trace=trace if with_trace else None,
    )
