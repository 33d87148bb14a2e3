"""Fault-injection grid: every backend x fault profile x load.

The robustness companion to the cross-backend grid: each cell runs one
scheduler backend under one named fault profile (:data:`NAMED_FAULTS` —
throttle windows, flaky kernel launches, MPS context crashes, lossy request
streams, or the all-four ``storm``) and reports the *cause breakdown* of
lost work next to throughput: how many requests finished on time, missed,
were dropped by the fault process, shed by degraded-mode admission, timed
out, or failed after exhausting launch retries — plus the injector's
recovery telemetry (fault episodes and mean time-to-recover).

Every cell is an ordinary :class:`ScenarioRequest` carrying its
:class:`~repro.sim.faults.FaultSpec`, so the grid inherits caching, seed
replication (``--seeds N`` CIs) and sharded sweeps unchanged.  Fault draws
come from dedicated named RNG streams, so each cell is bit-identical per
seed, and the ``none`` column's requests fingerprint exactly like their
pre-fault counterparts (byte-identical cache keys).

Parameters: ``--scheduler`` restricts the grid to one backend and
``--fault`` to one named fault profile (the CI smoke lane runs slices).
"""

from __future__ import annotations

from typing import Dict, List

from repro.backends import get_backend
from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    register,
)
from repro.experiments.scenarios import (
    POISSON_BACKENDS,
    SATURATED_BACKENDS,
    backend_grid_config,
    load_scaled_taskset,
    named_fault,
    named_workload,
)

#: One anchor model: the paper's Section VI-B comparison point.
MODEL = "resnet50"

#: Every named fault profile is a grid column, fault-free ``none`` first —
#: the baseline column each resilience policy is judged against.
FAULT_PROFILES = ("none", "throttle", "flaky-launch", "crashy", "lossy", "storm")


def _loads(quick: bool) -> List[float]:
    """Demand levels relative to the batching upper baseline."""
    return [1.2] if quick else [1.0, 1.5]


def _grid_taskset(model, load_factor: float):
    return load_scaled_taskset(
        model, load_factor, name=f"faults-grid/{model.name}/load{load_factor:.2f}"
    )


def _build(ctx: BuildContext) -> ExperimentPlan:
    horizon = 800.0 if ctx.quick else 2500.0
    scheduler_filter = ctx.param("scheduler")
    fault_filter = ctx.param("fault")
    if scheduler_filter is not None:
        get_backend(str(scheduler_filter))  # unknown backend -> clean KeyError
    if fault_filter is not None:
        named_fault(str(fault_filter))  # unknown label -> clean KeyError
    model = build_model(MODEL)

    requests: List[ScenarioRequest] = []
    cells: List[Dict[str, object]] = []

    def add(backend_name: str, taskset, workload_name: str, fault_name: str, load: object) -> None:
        if scheduler_filter is not None and backend_name != scheduler_filter:
            return
        if fault_filter is not None and fault_name != fault_filter:
            return
        requests.append(
            ScenarioRequest(
                taskset,
                backend_grid_config(backend_name, model),
                horizon,
                seed=ctx.seed,
                scheduler=backend_name,
                workload=named_workload(workload_name),
                faults=named_fault(fault_name),
            )
        )
        cells.append(
            {
                "backend": backend_name,
                "fault": fault_name,
                "workload": workload_name,
                "load": load,
            }
        )

    saturated_taskset = _grid_taskset(model, 1.0)
    loads = _loads(ctx.quick)
    load_tasksets = [(load, _grid_taskset(model, load)) for load in loads]
    for fault_name in FAULT_PROFILES:
        # Saturated cells: demand is infinite by construction, so they use
        # the canonical load-1.0 task set and appear once per backend/fault.
        for backend_name in SATURATED_BACKENDS:
            add(backend_name, saturated_taskset, "saturated", fault_name, "-")
        for load, taskset in load_tasksets:
            for backend_name in POISSON_BACKENDS:
                add(backend_name, taskset, "poisson", fault_name, load)

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for cell, result in zip(cells, row_ctx.results):
            metrics = result.metrics
            causes = metrics.cause_breakdown()
            impact = metrics.fault_impact
            rows.append(
                {
                    "backend": cell["backend"],
                    "fault": cell["fault"],
                    "workload": cell["workload"],
                    "load": cell["load"],
                    "jps": round(metrics.total_jps, 1),
                    "goodput_jps": round(metrics.goodput_jps, 1),
                    "dmr": round(metrics.overall_dmr, 4),
                    "on_time": causes["on_time"],
                    "missed": causes["missed"],
                    "dropped": causes["dropped"],
                    "shed": causes["shed"],
                    "timed_out": causes["timed_out"],
                    "failed": causes["failed"],
                    "retries": metrics.high.launch_retries + metrics.low.launch_retries,
                    "episodes": impact.episodes if impact is not None else 0,
                    "ttr_ms": round(impact.time_to_recover_ms, 2)
                    if impact is not None and impact.time_to_recover_ms is not None
                    else "-",
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="faults",
        title="Fault-injection grid: every backend x fault profile x load, with miss/loss cause breakdown",
        build=_build,
        defaults={"scheduler": None, "fault": None},
    )
)
