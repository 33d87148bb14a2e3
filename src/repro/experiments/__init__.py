"""Experiment harness: one module per table / figure of the paper's evaluation.

Every module declares an :class:`ExperimentSpec` (its scenario grid plus row
aggregator) in the shared registry; the shared engine executes any spec with
parallel fan-out, ``--seeds N`` replication (mean / stdev / 95 %-CI columns)
and a disk-backed result cache; the sharded sweep driver
(:mod:`repro.experiments.sweep`) partitions the same grids across machines
by cache-key range with append-only, resumable per-shard row stores.
``python -m repro.experiments`` is the CLI front end
(``list`` / ``run`` / ``cache`` / ``sweep plan|run|status|merge``).

Run an experiment with ``run_experiment(name, params=...)`` or the CLI
(``python -m repro.experiments run <name>``).  ``quick=True`` (the default,
``--quick``) selects a reduced configuration grid and shorter simulation
horizon; ``quick=False`` (``--full``) runs the full grids.

==========================  =======================================
Module (registry name)      Paper artefact
==========================  =======================================
``fig1_table1_batching``    Figure 1 and Table I (``fig1_table1``)
``table2_tasksets``         Table II (``table2``)
``fig2_staging``            Figure 2 (``fig2``)
``fig4_6_main``             Figures 4-6 (``fig4_6``)
``fig7_mixed``              Figure 7 (``fig7``)
``fig8_ablations``          Figure 8 (``fig8``)
``fig9_mret``               Figure 9 (``fig9``)
``fig10_batched``           Figure 10 (``fig10``)
``fig11_overload``          Figure 11 (``fig11``)
``sota_comparison``         Section VI-B (``sota``)
``backend_grid``            Cross-backend grid (``backends``)
``faults_grid``             Fault/resilience grid (``faults``)
``dse_grid``                Design-space exploration (``dse``)
``cluster_grid``            Multi-GPU serving grid (``cluster``)
==========================  =======================================

Every scenario names its scheduler *backend* (``ScenarioRequest.scheduler``,
default ``"daris"``): the engine dispatches through
:mod:`repro.backends`, so the five baseline systems get the same caching,
replication and sweep machinery as DARIS.
"""

from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    ExpandedExperiment,
    ExperimentReport,
    expand_experiment,
    rows_for_expanded,
    run_cached_scenarios,
    run_experiment,
)
from repro.experiments.parallel import ScenarioRequest, run_scenarios_parallel
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    all_experiments,
    get_experiment,
    load_all_experiments,
    register,
)
from repro.experiments.runner import ScenarioResult, run_daris_scenario
from repro.experiments.sweep import (
    ShardRunReport,
    SweepError,
    SweepGridMismatch,
    SweepIncomplete,
    SweepMergeReport,
    build_sweep_grid,
    merge_sweep,
    plan_sweep,
    run_sweep_shard,
    shard_for_key,
    sweep_status,
)

__all__ = [
    "BuildContext",
    "ExpandedExperiment",
    "ExperimentPlan",
    "ExperimentReport",
    "ExperimentSpec",
    "ResultCache",
    "RowContext",
    "ScenarioRequest",
    "ScenarioResult",
    "ShardRunReport",
    "SweepError",
    "SweepGridMismatch",
    "SweepIncomplete",
    "SweepMergeReport",
    "all_experiments",
    "build_sweep_grid",
    "expand_experiment",
    "get_experiment",
    "load_all_experiments",
    "merge_sweep",
    "plan_sweep",
    "register",
    "rows_for_expanded",
    "run_cached_scenarios",
    "run_daris_scenario",
    "run_experiment",
    "run_scenarios_parallel",
    "run_sweep_shard",
    "shard_for_key",
    "sweep_status",
]
