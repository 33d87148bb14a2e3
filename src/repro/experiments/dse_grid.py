"""Design-space exploration grid: config axes x hardware points x Pareto.

Where :mod:`repro.experiments.backend_grid` crosses *scenarios* (models,
workloads, load levels) against fixed per-backend configurations, this grid
crosses *configurations*: scheduler tunables — DARIS's MRET window and MPS
oversubscription, Clockwork's admission slack — against GPU hardware points
(SM count), under one fixed scenario (ResNet50, Poisson arrivals at 1.5x
the batching baseline).  Every cell is an ordinary
:class:`ScenarioRequest`, so the whole design grid is cacheable,
seed-replicable (``--seeds N`` CIs) and shardable (``run --shard``) exactly like
every other experiment.

The rows are heatmap-ready (one row per design point with its axis settings
as columns) and feed :func:`frontier_from_rows`, which lifts them into
:mod:`repro.analysis.pareto` points — objectives: deadline-miss rate down,
p99 response down, GPU utilization up, GPU cost down — and returns the
CI-aware Pareto split the ``dse`` CLI command renders.

Caveat: the Clockwork backend never reports GPU utilization (its metrics
carry ``average_gpu_utilization = 0``), so in a mixed-backend frontier its
points sit at the pessimal utilization; restrict to ``--scheduler daris``
or drop the utilization objective for clockwork-only analysis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    ParetoResult,
    gpu_cost_per_hour,
    pareto_frontier,
    points_from_rows,
)
from repro.backends import get_backend
from repro.backends.configs import ClockworkConfig
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
from repro.experiments.scenarios import load_scaled_taskset
from repro.gpu.spec import RTX_2080_TI
from repro.scheduler.config import DarisConfig
from repro.sim.workload import POISSON_WORKLOAD

#: The scenario every design point runs: one model, one load level.
MODEL_NAME = "resnet50"
LOAD_FACTOR = 1.5

#: DARIS lane: MRET window x MPS oversubscription (6 contexts, paper's best).
DARIS_CONTEXTS = 6
WINDOWS_QUICK = (3, 5)
WINDOWS_FULL = (3, 5, 8)
OVERSUBSCRIPTIONS_QUICK = (1.0, 6.0)
OVERSUBSCRIPTIONS_FULL = (1.0, 2.0, 6.0)

#: Clockwork lane: admission slack (>1 sheds earlier, <1 admits deeper).
SLACKS_QUICK = (1.0, 1.25)
SLACKS_FULL = (0.9, 1.0, 1.25)

#: Hardware axis: swept SM counts (the anchor RTX 2080 Ti has 68).
SM_COUNTS_QUICK = (40, 68)
SM_COUNTS_FULL = (40, 54, 68)


def _axis_values(quick_values: Sequence, full_values: Sequence, quick: bool) -> Sequence:
    return quick_values if quick else full_values


def _build(ctx: BuildContext) -> ExperimentPlan:
    horizon = 800.0 if ctx.quick else 2500.0
    scheduler_filter = ctx.param("scheduler")
    if scheduler_filter is not None:
        get_backend(str(scheduler_filter))  # unknown backend -> clean KeyError
    model = build_model(MODEL_NAME)
    # The grid's one scenario: LOAD_FACTOR x the batching baseline.
    taskset = load_scaled_taskset(
        model, LOAD_FACTOR, name=f"dse/{model.name}/load{LOAD_FACTOR:.2f}"
    )
    sm_counts = _axis_values(SM_COUNTS_QUICK, SM_COUNTS_FULL, ctx.quick)

    requests: List[ScenarioRequest] = []
    cells: List[Dict[str, object]] = []

    def add(backend_name: str, config, gpu, cell: Dict[str, object]) -> None:
        if scheduler_filter is not None and backend_name != scheduler_filter:
            return
        requests.append(
            ScenarioRequest(
                taskset,
                config,
                horizon,
                seed=ctx.seed,
                scheduler=backend_name,
                workload=POISSON_WORKLOAD,
                gpu=gpu,
            )
        )
        cells.append({"backend": backend_name, **cell, "gpu": gpu})

    for sms in sm_counts:
        gpu = RTX_2080_TI.with_field("num_sms", int(sms))
        for window in _axis_values(WINDOWS_QUICK, WINDOWS_FULL, ctx.quick):
            for oversubscription in _axis_values(
                OVERSUBSCRIPTIONS_QUICK, OVERSUBSCRIPTIONS_FULL, ctx.quick
            ):
                add(
                    "daris",
                    DarisConfig.mps_config(
                        DARIS_CONTEXTS, oversubscription, window_size=window
                    ),
                    gpu,
                    {"window": window, "os": oversubscription, "slack": "-", "sms": sms},
                )
        for slack in _axis_values(SLACKS_QUICK, SLACKS_FULL, ctx.quick):
            add(
                "clockwork",
                ClockworkConfig(admission_slack=slack),
                gpu,
                {"window": "-", "os": "-", "slack": slack, "sms": sms},
            )

    def make_rows(row_ctx: RowContext) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for cell, result in zip(cells, row_ctx.results):
            metrics = result.metrics
            responses = metrics.high.response_times + metrics.low.response_times
            p99 = float(np.percentile(np.asarray(responses), 99)) if responses else 0.0
            rows.append(
                {
                    "backend": cell["backend"],
                    "window": cell["window"],
                    "os": cell["os"],
                    "slack": cell["slack"],
                    "sms": cell["sms"],
                    "jps": round(metrics.total_jps, 1),
                    "miss_rate": round(metrics.overall_dmr, 4),
                    "p99_ms": round(p99, 3),
                    "utilization": round(metrics.average_gpu_utilization, 4),
                    # Analysis-time cost model: deterministic per hardware
                    # point, so it stays constant across seeds (no CI columns).
                    "gpu_cost": round(gpu_cost_per_hour(cell["gpu"]), 4),
                }
            )
        return rows

    return ExperimentPlan(requests=requests, make_rows=make_rows)


#: Identity columns of a design-point row (everything that is not a metric).
KEY_COLUMNS = ("backend", "window", "os", "slack", "sms")


def frontier_from_rows(
    rows: Sequence[Dict[str, object]],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
) -> ParetoResult:
    """The CI-aware Pareto split of a DSE report's rows.

    Replicated runs carry ``_ci95`` companions next to each objective column
    (the engine's Student-t aggregation); they become each point's CI
    half-widths, so frontier membership is decided on statistically
    meaningful differences only.
    """
    points = points_from_rows(rows, objectives=objectives, key_columns=KEY_COLUMNS)
    return pareto_frontier(points, objectives)


SPEC = register(
    ExperimentSpec(
        name="dse",
        title="Design-space exploration: DARIS window/OS + Clockwork slack x GPU SM count, Pareto frontier",
        build=_build,
        defaults={"scheduler": None},
        axes=(
            ConfigAxis(
                "daris", "window_size", WINDOWS_FULL, "MRET window (requests)"
            ),
            ConfigAxis(
                "daris",
                "oversubscription",
                OVERSUBSCRIPTIONS_FULL,
                "MPS SM-quota oversubscription",
            ),
            ConfigAxis(
                "clockwork",
                "admission_slack",
                SLACKS_FULL,
                "admission predicted-latency slack",
            ),
            ConfigAxis("gpu", "num_sms", SM_COUNTS_FULL, "streaming multiprocessors"),
        ),
    )
)
