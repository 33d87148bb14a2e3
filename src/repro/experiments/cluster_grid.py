"""Cluster serving grid: router policy x GPU count x workload x load.

The multi-GPU counterpart of the ``backends`` grid: one model served by the
``cluster`` backend across every router policy, at several cluster sizes,
under rate-driven workloads (Poisson plus the bursty MMPP and diurnal
columns) and load levels relative to the cluster's aggregate serial
capacity.  Every cell is an ordinary :class:`ScenarioRequest` carrying a
:class:`~repro.cluster.config.ClusterConfig`, so the grid is cacheable,
seed-replicable and shardable like any other, and its rows are
heatmap-ready (``analysis/heatmap.py`` renders e.g. miss rate over
router x gpus).

Parameters: ``--workload`` restricts the grid to one workload column and
``--scheduler cluster`` is accepted as a no-op filter (the grid only runs
the cluster backend); ``--set cluster.placement=partitioned`` or
``--set cluster.migration_backlog=3`` overlay the placement/migration axes
onto every cell.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.registry import (
    BuildContext,
    ConfigAxis,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    register,
)
from repro.experiments.scenarios import named_workload
from repro.gpu.calibration import DEFAULT_CALIBRATION
from repro.rt.taskset import make_taskset

#: The grid's model: the paper's SOTA anchor, heavy enough that a handful of
#: per-GPU serial executors saturate at a manageable release count.
MODEL = "resnet50"

#: Rate-driven workload columns (saturated is meaningless for a
#: deadline-driven admission server).
WORKLOADS = ("poisson", "bursty", "diurnal")


def _routers(quick: bool) -> List[str]:
    return ["least_loaded", "round_robin"] if quick else [
        "least_loaded",
        "round_robin",
        "deadline_aware",
    ]


def _gpu_counts(quick: bool) -> List[int]:
    return [2, 4] if quick else [2, 4, 8]


def _workloads(quick: bool) -> List[str]:
    return ["poisson", "bursty"] if quick else list(WORKLOADS)


def _loads(quick: bool) -> List[float]:
    """Demand levels relative to the cluster's aggregate serial capacity."""
    return [0.7] if quick else [0.7, 1.5]


def _grid_taskset(model, num_gpus: int, load_factor: float):
    """A task set demanding ``load_factor`` x the cluster's serial capacity.

    Each device executes one DNN at a time, so its capacity is the isolated
    rate ``1000 / isolated_latency``; the cluster's is ``num_gpus`` times
    that.  The same task set is shared by every router at one (gpus, load)
    point, so router columns differ only by dispatch policy.
    """
    serial_jps = 1000.0 / model.isolated_latency_ms(DEFAULT_CALIBRATION)
    task_jps = 25.0
    total_tasks = max(
        2, int(round(load_factor * num_gpus * serial_jps / task_jps))
    )
    num_high = max(1, total_tasks // 3)
    return make_taskset(
        [model],
        num_high=num_high,
        num_low=total_tasks - num_high,
        task_jps=task_jps,
        name=f"cluster-grid/{model.name}/g{num_gpus}/load{load_factor:.2f}",
    )


def _build(ctx: BuildContext) -> ExperimentPlan:
    horizon = 800.0 if ctx.quick else 2500.0
    workload_filter = ctx.param("workload")
    if workload_filter is not None:
        named_workload(str(workload_filter))  # unknown label -> clean KeyError
    scheduler_filter = ctx.param("scheduler")
    if scheduler_filter is not None and scheduler_filter != "cluster":
        raise KeyError(
            f"the cluster grid only runs the 'cluster' backend, not {scheduler_filter!r}"
        )
    model = build_model(MODEL)

    requests: List[ScenarioRequest] = []
    cells: List[Dict[str, object]] = []

    def add(router: str, num_gpus: int, taskset, workload_name: str, load: float) -> None:
        if workload_filter is not None and workload_name != workload_filter:
            return
        requests.append(
            ScenarioRequest(
                taskset,
                ClusterConfig(num_gpus=num_gpus, router=router),
                horizon,
                seed=ctx.seed,
                scheduler="cluster",
                workload=named_workload(workload_name),
            )
        )
        cells.append(
            {
                "router": router,
                "gpus": num_gpus,
                "workload": workload_name,
                "load": load,
            }
        )

    loads = _loads(ctx.quick)
    peak_load = max(loads)
    for num_gpus in _gpu_counts(ctx.quick):
        for load in loads:
            taskset = _grid_taskset(model, num_gpus, load)
            for router in _routers(ctx.quick):
                add(router, num_gpus, taskset, "poisson", load)
        # Bursty / diurnal columns stress the routers at the peak load level.
        peak_taskset = _grid_taskset(model, num_gpus, peak_load)
        for workload_name in _workloads(ctx.quick):
            if workload_name == "poisson":
                continue
            for router in _routers(ctx.quick):
                add(router, num_gpus, peak_taskset, workload_name, peak_load)

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for cell, result in zip(cells, row_ctx.results):
            metrics = result.metrics
            responses = metrics.high.response_times + metrics.low.response_times
            released = metrics.high.released + metrics.low.released
            shed = metrics.high.shed + metrics.low.shed
            breakdown = metrics.gpu_breakdown or ()
            # Router/size come from the result's config (not the grid cell),
            # so --set cluster.* overrides report what actually ran.
            rows.append(
                {
                    "router": result.config.router,
                    "gpus": result.config.num_gpus,
                    "workload": cell["workload"],
                    "load": cell["load"],
                    "jps": round(metrics.total_jps, 1),
                    "goodput": round(metrics.goodput_jps, 1),
                    "miss_rate": round(metrics.overall_dmr, 4),
                    "shed_rate": round(shed / released, 4) if released else 0.0,
                    "p99_ms": round(float(np.percentile(responses, 99)), 3)
                    if responses
                    else 0.0,
                    "utilization": round(metrics.average_gpu_utilization, 4),
                    "max_queue": max((gpu.max_queue_depth for gpu in breakdown), default=0),
                    "migrations": sum(gpu.migrations for gpu in breakdown),
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


SPEC = register(
    ExperimentSpec(
        name="cluster",
        title="Cluster grid: router policy x GPU count x Poisson/bursty/diurnal x load",
        build=_build,
        defaults={"workload": None, "scheduler": None},
        axes=(
            ConfigAxis(
                "cluster",
                "router",
                ("least_loaded", "round_robin", "deadline_aware"),
                "dispatch policy",
            ),
            ConfigAxis("cluster", "num_gpus", (2, 4, 8), "cluster size"),
            ConfigAxis(
                "cluster",
                "placement",
                ("replicated", "partitioned"),
                "model placement (override axis; the grid default is replicated)",
            ),
            ConfigAxis(
                "cluster",
                "migration_backlog",
                (),
                "queue-depth threshold for migrating a model's queue (0 = off)",
            ),
        ),
    )
)
