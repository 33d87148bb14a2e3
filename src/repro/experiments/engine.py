"""Shared experiment execution engine.

One code path executes every registered experiment:

1. **Expand** — the spec's ``build`` produces the per-seed request grid,
   which is crossed with the ``--seeds N`` replication axis by shifting each
   request's seed (seed structure within a grid is preserved).
2. **Serve or simulate** — each request is first looked up in the optional
   :class:`~repro.experiments.cache.ResultCache`; misses are fanned out
   through :func:`run_scenarios_parallel`, and completed scenarios are
   written back to the cache *as they stream in* (``imap``), not after the
   whole sweep — an interrupted sweep therefore resumes from what already
   finished.  Traced requests are cached like any other: their records are
   plain values stored with the metrics.
3. **Aggregate** — the spec's ``make_rows`` folds each seed's results into
   that seed's report rows; with several seeds the engine aggregates the
   per-seed rows column-wise into mean / stdev / 95 %-CI columns.  With one
   seed the rows pass through untouched, bit-identical to the pre-registry
   modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.stats import replication_summary
from repro.analysis.tables import CI_SUFFIX, STD_SUFFIX
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import ScenarioRequest, run_scenarios_parallel
from repro.experiments.registry import (
    BuildContext,
    ExperimentPlan,
    ExperimentSpec,
    RowContext,
    get_experiment,
)
from repro.experiments.runner import ScenarioResult

Row = Dict[str, object]


@dataclass
class _ExecutionStats:
    """Cache / simulation accounting for one batch of requests."""

    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0


def _serve_or_simulate(
    requests: Sequence[ScenarioRequest],
    processes: Optional[int],
    cache: Optional[ResultCache],
) -> Tuple[List[ScenarioResult], _ExecutionStats]:
    """Serve each request from the cache or simulate it; results in order.

    This is the single cache-consistency-critical path shared by
    :func:`run_experiment` and :func:`run_cached_scenarios`: misses are
    written back as they stream off the pool (``on_result``), not after the
    sweep completes.

    Value-identical requests (e.g. a seed-insensitive backend replicated
    across the ``--seeds`` axis) are simulated once and the one result
    serves every occurrence.
    """
    stats = _ExecutionStats()
    results: List[Optional[ScenarioResult]] = [None] * len(requests)
    # Each pending entry is one simulation serving one or more result slots.
    pending: List[Tuple[ScenarioRequest, List[int]]] = []
    pending_slot: Dict[ScenarioRequest, int] = {}

    for index, request in enumerate(requests):
        if cache is not None:
            cached = cache.get(request)
            if cached is not None:
                results[index] = cached
                stats.cache_hits += 1
                continue
            stats.cache_misses += 1
        slot = pending_slot.get(request)
        if slot is None:
            pending_slot[request] = len(pending)
            pending.append((request, [index]))
        else:
            pending[slot][1].append(index)
    if pending:

        def _store(pending_index: int, result: ScenarioResult) -> None:
            request, indices = pending[pending_index]
            for index in indices:
                results[index] = result
            if cache is not None:
                cache.put(request, result)

        run_scenarios_parallel(
            [request for request, _ in pending], processes=processes, on_result=_store
        )
        stats.simulated = len(pending)
    return results, stats  # type: ignore[return-value]


@dataclass
class ExperimentReport:
    """Everything the CLI (or a caller) needs from one experiment run.

    Attributes:
        spec: the executed experiment.
        quick: whether the reduced grid was used.
        seeds: the seed values actually run (length 1 for non-replicable
            specs regardless of the requested count).
        rows: the report rows — the spec's own rows for a single seed, or
            the CI-aggregated rows for a replicated run.
        rows_by_seed: the raw per-seed rows behind ``rows``.
        cache_hits / cache_misses: cache outcomes of the requests.
        simulated: scenarios that actually ran through the simulator.
        uncached: always 0, since every request is cacheable, traced
            ones included.  Kept because ``perfbench`` reads it.
    """

    spec: ExperimentSpec
    quick: bool
    seeds: List[int]
    rows: List[Row]
    rows_by_seed: List[List[Row]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0
    uncached: int = 0

    @property
    def replicated(self) -> bool:
        """True when the rows aggregate more than one seed."""
        return len(self.seeds) > 1


def _resolve_cache(cache: Union[ResultCache, str, None]) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


@dataclass(frozen=True)
class ExpandedExperiment:
    """One spec's flat request grid, crossed with the seed replication axis.

    The expansion step of :func:`run_experiment`, reified so external drivers
    (the sharded sweep in :mod:`repro.experiments.sweep`) can enumerate the
    exact same grid — same requests, same seed-major order — without running
    anything.

    Attributes:
        spec: the expanded experiment.
        quick: whether the reduced grid was used.
        params: the merged (defaults + caller) parameters the grid was built
            with.
        plan: the spec's single-seed plan (requests + row aggregator).
        seed_values: the seeds actually expanded (length 1 for non-replicable
            specs regardless of the requested count).
        requests: the flat, seed-major request list —
            ``requests[s * len(plan.requests) + i]`` is grid request ``i``
            shifted to ``seed_values[s]`` (seed-insensitive requests — see
            :meth:`SchedulerBackend.seed_sensitive` — keep their base seed,
            so their replicates are value-identical and share one cache
            entry).
    """

    spec: ExperimentSpec
    quick: bool
    params: Dict[str, object]
    plan: ExperimentPlan
    seed_values: List[int]
    requests: List[ScenarioRequest]

    @property
    def requests_per_seed(self) -> int:
        """Grid width: requests per single seed."""
        return len(self.plan.requests)


def expand_experiment(
    spec: Union[ExperimentSpec, str],
    quick: bool = True,
    seeds: int = 1,
    base_seed: int = 1,
    params: Optional[Mapping[str, object]] = None,
) -> ExpandedExperiment:
    """Expand a spec into its flat request grid without executing it."""
    if isinstance(spec, str):
        spec = get_experiment(spec)
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    merged_params = spec.merged_params(params)
    plan = spec.build(BuildContext(quick=quick, seed=base_seed, params=merged_params))
    override_specs = merged_params.get("config_overrides") or ()
    if override_specs:
        # Config axes are applied here — after the spec built its grid — so
        # every experiment gets `--set target.field=value` support without
        # knowing about it, and the sharded sweep (which re-expands the same
        # grid from the manifest's params) sees the exact same requests.
        from repro.experiments.scenarios import (
            apply_config_overrides,
            parse_config_overrides,
        )

        overrides = parse_config_overrides(override_specs)
        plan = ExperimentPlan(
            requests=[
                apply_config_overrides(request, overrides) for request in plan.requests
            ],
            make_rows=plan.make_rows,
        )
    seed_values = (
        [base_seed + offset for offset in range(seeds)] if spec.replicable else [base_seed]
    )

    def _seed_sensitive(request: ScenarioRequest) -> bool:
        # Deferred import: the backend modules import this package.
        from repro.backends import get_backend

        return get_backend(request.scheduler).seed_sensitive(
            request.workload, faults=request.faults
        )

    shiftable = (
        [_seed_sensitive(request) for request in plan.requests]
        if len(seed_values) > 1
        else []
    )
    flat_requests: List[ScenarioRequest] = []
    for seed_value in seed_values:
        offset = seed_value - base_seed
        for grid_index, request in enumerate(plan.requests):
            flat_requests.append(
                replace(request, seed=request.seed + offset)
                if offset and shiftable[grid_index]
                else request
            )
    return ExpandedExperiment(
        spec=spec,
        quick=quick,
        params=merged_params,
        plan=plan,
        seed_values=seed_values,
        requests=flat_requests,
    )


def rows_for_expanded(
    expanded: ExpandedExperiment, flat_results: Sequence[ScenarioResult]
) -> Tuple[List[Row], List[List[Row]]]:
    """Fold a grid's flat results into ``(rows, rows_by_seed)``.

    The aggregation step of :func:`run_experiment`, shared with external
    drivers: ``flat_results`` must be in the grid's seed-major request order
    (regardless of where each result came from — simulator, cache, or a
    sweep's row store), and the returned rows are then identical to a direct
    ``run_experiment`` of the same grid.
    """
    rows_by_seed: List[List[Row]] = []
    width = expanded.requests_per_seed
    for seed_index, seed_value in enumerate(expanded.seed_values):
        row_ctx = RowContext(
            quick=expanded.quick,
            seed=seed_value,
            results=flat_results[seed_index * width : (seed_index + 1) * width],
            params=expanded.params,
        )
        rows_by_seed.append(expanded.plan.make_rows(row_ctx))
    if len(expanded.seed_values) == 1:
        return rows_by_seed[0], rows_by_seed
    return aggregate_replicated_rows(rows_by_seed), rows_by_seed


def run_experiment(
    spec: Union[ExperimentSpec, str],
    quick: bool = True,
    seeds: int = 1,
    base_seed: int = 1,
    processes: Optional[int] = 1,
    cache: Union[ResultCache, str, None] = None,
    params: Optional[Mapping[str, object]] = None,
) -> ExperimentReport:
    """Execute one registered experiment end to end.

    Args:
        spec: an :class:`ExperimentSpec` or its registry name.
        quick: reduced grid / shorter horizon (the default everywhere).
        seeds: replication count; seeds ``base_seed .. base_seed+seeds-1``
            are run and aggregated.  Ignored for non-replicable specs.
        base_seed: first (and reference) seed.
        processes: worker processes for the scenario fan-out (``None`` = one
            per CPU, ``1`` = serial in-process).
        cache: a :class:`ResultCache`, a cache directory path, or ``None``
            to disable caching.
        params: spec parameters (e.g. ``{"model_name": "unet"}``), overlaid
            on the spec's defaults.
    """
    expanded = expand_experiment(
        spec, quick=quick, seeds=seeds, base_seed=base_seed, params=params
    )
    flat_results, stats = _serve_or_simulate(
        expanded.requests, processes, _resolve_cache(cache)
    )
    rows, rows_by_seed = rows_for_expanded(expanded, flat_results)
    return ExperimentReport(
        spec=expanded.spec,
        quick=quick,
        seeds=expanded.seed_values,
        rows=rows,
        rows_by_seed=rows_by_seed,
        cache_hits=stats.cache_hits,
        cache_misses=stats.cache_misses,
        simulated=stats.simulated,
    )


def aggregate_replicated_rows(rows_by_seed: Sequence[Sequence[Row]]) -> List[Row]:
    """Column-wise aggregation of per-seed rows into mean / stdev / CI rows.

    A column is treated as a replicated metric when at least one of its rows
    is numeric across every seed *and* varies across seeds; in such a column
    every numeric row ``x`` becomes its across-seed mean plus companions
    ``x_std`` / ``x_ci95`` (Student-t 95 % half-width), while non-numeric
    cells (e.g. a baseline's ``"-"`` placeholder) pass through with ``"-"``
    companions so the row schema stays uniform.  Fully constant and fully
    non-numeric columns (labels, configuration echo columns, paper reference
    values) pass through untouched from the first seed that has them.

    The inputs are the modules' *display* rows, so the statistics are
    computed over display-rounded values (jps to 0.1, rates to 1e-4).  That
    is deliberate — it keeps single-seed rows bit-identical to the
    pre-registry modules — but it means dispersion below a column's display
    precision is reported as zero.
    """
    first = list(rows_by_seed[0])
    for seed_rows in rows_by_seed[1:]:
        if len(seed_rows) != len(first):
            raise ValueError("per-seed row lists must have identical lengths")

    def _is_number(value: object) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def _numeric_row(row_index: int, column: str) -> bool:
        return all(
            _is_number(seed_rows[row_index].get(column)) for seed_rows in rows_by_seed
        )

    # Scan the union of keys across every row of every seed, not just the
    # first row's: report schemas may be ragged (a column introduced by a
    # later row — e.g. a metric only some variants report) and such a column
    # must still earn its _std/_ci95 companions.
    columns: Dict[str, None] = {}
    for seed_rows in rows_by_seed:
        for row in seed_rows:
            for column in row:
                columns.setdefault(column)

    replicated_columns = set()
    for column in columns:
        for row_index in range(len(first)):
            if _numeric_row(row_index, column) and (
                len({seed_rows[row_index][column] for seed_rows in rows_by_seed}) > 1
            ):
                replicated_columns.add(column)
                break

    aggregated: List[Row] = []
    for row_index in range(len(first)):
        # Each output row spans the union of this row's columns across all
        # seeds (a column emitted only by later seeds must not be dropped);
        # the base value comes from the first seed that has the column.
        row_columns: Dict[str, None] = {}
        for seed_rows in rows_by_seed:
            for column in seed_rows[row_index]:
                row_columns.setdefault(column)
        row: Row = {}
        for column in row_columns:
            base_value = next(
                seed_rows[row_index][column]
                for seed_rows in rows_by_seed
                if column in seed_rows[row_index]
            )
            if column not in replicated_columns:
                row[column] = base_value
            elif _numeric_row(row_index, column):
                summary = replication_summary(
                    [seed_rows[row_index][column] for seed_rows in rows_by_seed]
                )
                row[column] = round(summary["mean"], 4)
                row[f"{column}{STD_SUFFIX}"] = round(summary["std"], 4)
                row[f"{column}{CI_SUFFIX}"] = round(summary["ci95"], 4)
            else:
                row[column] = base_value
                row[f"{column}{STD_SUFFIX}"] = "-"
                row[f"{column}{CI_SUFFIX}"] = "-"
        aggregated.append(row)
    return aggregated


def run_cached_scenarios(
    requests: Sequence[ScenarioRequest],
    processes: Optional[int] = None,
    cache: Union[ResultCache, str, None] = None,
) -> List[ScenarioResult]:
    """Cache-aware drop-in for :func:`run_scenarios_parallel` (request order).

    Used by ad-hoc sweeps (the ``examples/`` scripts) that want memoization
    without defining a registry spec: cached scenarios are served from disk,
    the rest are simulated in parallel and written back as they complete.
    """
    results, _ = _serve_or_simulate(list(requests), processes, _resolve_cache(cache))
    return results
