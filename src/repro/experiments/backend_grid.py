"""Cross-backend comparison grid: every scheduler x model x workload.

The paper's Section VI-B comparison fixes one model (ResNet50) and one
arrival model; this experiment widens it into the scenario-diversity grid
the backend API makes cheap: every registered backend runs ResNet50 and
InceptionV3 under the workloads it supports — the request-server baselines
(single / batching / GSlice) at saturation, the deadline-driven schedulers
(DARIS / RTGPU / Clockwork, plus the batching server's rate-driven mode)
under Poisson arrivals at one or more load levels relative to the batching
upper baseline, plus bursty (two-phase MMPP) and diurnal (sinusoidally
rate-modulated Poisson) columns at the highest load level.

Every cell is an ordinary :class:`ScenarioRequest`, so the whole grid is
cacheable, seed-replicable (``--seeds N`` CIs) and shardable (``sweep``).

Parameters: ``--model`` restricts the grid to one zoo model, ``--scheduler``
to one backend and ``--workload`` to one named workload column (the CI smoke
lanes run single-backend and single-workload slices).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.analysis.tables import format_table
from repro.backends import get_backend
from repro.backends.configs import BatchingConfig, ClockworkConfig, GSliceConfig, SingleConfig
from repro.dnn.zoo import build_model
from repro.experiments.cache import ResultCache
from repro.experiments.engine import run_experiment
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    register,
)
from repro.experiments.scenarios import best_config_for, named_workload
from repro.numeric import left_sum
from repro.rt.taskset import make_taskset
from repro.sim.workload import POISSON_WORKLOAD, SATURATED_WORKLOAD

#: The two SOTA-anchor models of the comparison (PAPERS.md: Clockwork, GSlice).
MODELS = ("resnet50", "inceptionv3")

#: Backends measured at saturation (request servers; load level is moot).
SATURATED_BACKENDS = ("single", "batching_server", "gslice")

#: Backends driven by rate-based arrivals at the task sets' mean rates.
POISSON_BACKENDS = ("daris", "rtgpu", "clockwork", "batching_server")

#: The rate-driven workload columns beyond plain Poisson: bursty MMPP and a
#: sinusoidal diurnal profile, both run at the grid's highest load level.
MODULATED_WORKLOADS = ("bursty", "diurnal")


def _loads(quick: bool) -> List[float]:
    """Demand levels relative to the batching upper baseline."""
    return [1.5] if quick else [1.0, 1.5]


def _grid_taskset(model, load_factor: float):
    """A homogeneous task set demanding ``load_factor`` x the batching baseline."""
    task_jps = 25.0
    total_tasks = max(3, int(round(load_factor * model.profile.batched_max_jps / task_jps)))
    num_high = max(1, total_tasks // 3)
    return make_taskset(
        [model],
        num_high=num_high,
        num_low=total_tasks - num_high,
        task_jps=task_jps,
        name=f"backend-grid/{model.name}/load{load_factor:.2f}",
    )


def _config_for(backend_name: str, model):
    """The canonical per-backend configuration of the grid."""
    if backend_name in ("daris", "rtgpu"):
        return best_config_for(model.name)
    if backend_name == "clockwork":
        return ClockworkConfig()
    if backend_name == "single":
        return SingleConfig()
    if backend_name == "batching_server":
        return BatchingConfig(batch_size=model.profile.preferred_batch_size)
    if backend_name == "gslice":
        return GSliceConfig(batch_sizes=(model.profile.preferred_batch_size,))
    raise KeyError(f"no grid configuration for backend {backend_name!r}")


def _build(ctx: BuildContext) -> ExperimentPlan:
    horizon = 800.0 if ctx.quick else 2500.0
    model_filter = ctx.param("model_name")
    scheduler_filter = ctx.param("scheduler")
    workload_filter = ctx.param("workload")
    if scheduler_filter is not None:
        get_backend(str(scheduler_filter))  # unknown backend -> clean KeyError
    if workload_filter is not None:
        named_workload(str(workload_filter))  # unknown label -> clean KeyError
    model_names = [str(model_filter)] if model_filter else list(MODELS)

    requests: List[ScenarioRequest] = []
    cells: List[Dict[str, object]] = []

    def add(backend_name: str, model, taskset, workload_name: str, load: object) -> None:
        if scheduler_filter is not None and backend_name != scheduler_filter:
            return
        if workload_filter is not None and workload_name != workload_filter:
            return
        requests.append(
            ScenarioRequest(
                taskset,
                _config_for(backend_name, model),
                horizon,
                seed=ctx.seed,
                scheduler=backend_name,
                workload=named_workload(workload_name),
            )
        )
        cells.append(
            {
                "backend": backend_name,
                "model": model.name,
                "workload": workload_name,
                "load": load,
            }
        )

    for model_name in model_names:
        model = build_model(model_name)
        # Saturated cells: demand is infinite by construction, so they use
        # the canonical load-1.0 task set (the rates are ignored anyway) and
        # appear once per backend/model, not once per load level.
        saturated_taskset = _grid_taskset(model, 1.0)
        for backend_name in SATURATED_BACKENDS:
            add(backend_name, model, saturated_taskset, "saturated", "-")
        loads = _loads(ctx.quick)
        for load in loads:
            taskset = _grid_taskset(model, load)
            for backend_name in POISSON_BACKENDS:
                add(backend_name, model, taskset, "poisson", load)
        # Bursty / diurnal columns stress the rate-driven backends at the
        # grid's highest load level (one row per backend/model/workload).
        peak_load = max(loads)
        peak_taskset = _grid_taskset(model, peak_load)
        for workload_name in MODULATED_WORKLOADS:
            for backend_name in POISSON_BACKENDS:
                add(backend_name, model, peak_taskset, workload_name, peak_load)

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for cell, result in zip(cells, row_ctx.results):
            metrics = result.metrics
            responses = metrics.high.response_times + metrics.low.response_times
            rows.append(
                {
                    "backend": cell["backend"],
                    "model": cell["model"],
                    "workload": cell["workload"],
                    "load": cell["load"],
                    "config": result.label,
                    "jps": round(metrics.total_jps, 1),
                    "dmr": round(metrics.overall_dmr, 4),
                    "mean_resp_ms": round(left_sum(responses) / len(responses), 3)
                    if responses
                    else "-",
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="backends",
        title="Cross-backend grid: every scheduler x ResNet50/InceptionV3 x saturated/Poisson/bursty/diurnal",
        build=_build,
        defaults={"model_name": None, "scheduler": None, "workload": None},
    )
)


def run(
    quick: bool = True,
    seed: int = 1,
    seeds: int = 1,
    processes: Optional[int] = 1,
    cache: Union[ResultCache, str, None] = None,
    model_name: Optional[str] = None,
    scheduler: Optional[str] = None,
    workload: Optional[str] = None,
) -> List[Dict[str, object]]:
    """One row per (backend, model, workload, load) grid cell."""
    report = run_experiment(
        SPEC,
        quick=quick,
        seeds=seeds,
        base_seed=seed,
        processes=processes,
        cache=cache,
        params={"model_name": model_name, "scheduler": scheduler, "workload": workload},
    )
    return report.rows


def main(quick: bool = True) -> str:
    """Run and render the cross-backend comparison grid."""
    table = format_table(run(quick))
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main(quick=False)
