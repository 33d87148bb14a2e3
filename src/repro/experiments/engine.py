"""Shared experiment execution engine.

One code path executes every registered experiment, one spec
(:func:`run_experiment`) or a whole selection (:func:`run_experiments`):

1. **Expand** — every selected spec's ``build`` produces its per-seed
   request grid, crossed with the ``--seeds N`` replication axis by shifting
   each request's seed (seed structure within a grid is preserved).  The
   whole plan is expanded before anything runs.
2. **Look up** — :func:`lookup` reads each request through
   :meth:`ResultCache.get`.
3. **Simulate** — :func:`simulate` runs each distinct miss once on one
   :func:`run_scenarios_parallel` pool and writes each result back to the
   cache *as it streams in*, so an interrupted run resumes from what
   already finished, and it counts the results the cache could not store.
   Traced requests are cached like any other.
4. **Aggregate** — the spec's ``make_rows`` folds each seed's results into
   that seed's report rows; with several seeds the engine aggregates the
   per-seed rows column-wise into mean / stdev / 95 %-CI columns.  With one
   seed the rows pass through untouched, bit-identical to the pre-registry
   modules.

``lookup`` and ``simulate`` are the only place a request is served or
simulated: :func:`run_cached_scenarios` and :func:`run_shard` call them too.

:func:`run_shard` spreads one plan over machines.  Each distinct request
belongs to one of ``N`` shards by its cache key (:func:`shard_for_key`), and
a shard only fills the cache with the results it owns.  Cache entries are
content-addressed and written atomically, so a killed shard resumes by
running again, shards merge by copying their cache directories into one,
and the rows come from an ordinary run over the merged cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

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


def lookup(
    requests: Sequence[ScenarioRequest], cache: Optional[ResultCache]
) -> Iterator[Optional[ScenarioResult]]:
    """Each request's cached result in request order, ``None`` for a miss.

    Every request is read through :meth:`ResultCache.get`, duplicates
    included, so each occurrence counts one hit or one miss.  Without a
    cache every request misses.  Results are read lazily: a caller that
    commits each one as it comes holds one result at a time.
    """
    for request in requests:
        yield cache.get(request) if cache is not None else None


def simulate(
    requests: Sequence[ScenarioRequest],
    processes: Optional[int],
    cache: Optional[ResultCache],
    on_result: Optional[Callable[[int, ScenarioResult], None]] = None,
) -> Tuple[List[ScenarioResult], List[ScenarioRequest]]:
    """Simulate each distinct request once on one pool.

    Value-identical requests (a seed-insensitive backend replicated across
    ``--seeds``, or a scenario two specs share) run once, and the one result
    fills every position.  Each result is put in the cache the moment it
    streams off the pool and then handed to ``on_result(index, result)``,
    where ``index`` is the position of the request's first occurrence;
    callbacks arrive in completion order.

    Returns ``(results, unwritten)``: the results in request order, and the
    distinct requests whose result the cache could not store
    (:meth:`ResultCache.put` returned ``False``), in completion order.
    """
    positions: Dict[ScenarioRequest, List[int]] = {}
    for index, request in enumerate(requests):
        positions.setdefault(request, []).append(index)
    distinct = list(positions.items())
    results: List[Optional[ScenarioResult]] = [None] * len(requests)
    unwritten: List[ScenarioRequest] = []

    def _deliver(slot: int, result: ScenarioResult) -> None:
        request, indices = distinct[slot]
        if cache is not None and not cache.put(request, result):
            unwritten.append(request)
        for index in indices:
            results[index] = result
        if on_result is not None:
            on_result(indices[0], result)

    run_scenarios_parallel(
        [request for request, _ in distinct], processes=processes, on_result=_deliver
    )
    return results, unwritten  # type: ignore[return-value]


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
        cache_hits / cache_misses: cache outcomes of the requests, one per
            request occurrence; both are 0 without a cache.
        simulated: distinct scenarios this spec ran through the simulator.
        unwritten: of those, the ones whose result the cache could not
            store (an unwritable directory, a full disk); 0 without a cache.
        uncached: always 0, since every request is cacheable, traced
            ones included.  Kept because ``perfbench`` reads it.

    When :func:`run_experiments` serves several specs as one plan, a
    request that more than one of them needs is simulated once, and the
    counts follow the order of the specs as if they ran one after another:
    the first spec that misses the request counts it as simulated (and
    every occurrence of it in that spec as a miss), and each later spec
    counts its occurrences as cache hits — with a cache, that is where a
    serial run would have found them.  Without a cache a later spec counts
    such a request in neither field.
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
    unwritten: int = 0

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

    The expansion step of :func:`run_experiment`, reified so other drivers
    (:func:`run_shard`) can enumerate the exact same grid — same requests,
    same seed-major order — without running anything.

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
        # knowing about it, and every shard of a plan sees the exact same
        # requests.
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
    (regardless of where each result came from — simulator or cache), and
    the returned rows are then identical to a direct ``run_experiment`` of
    the same grid.
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


def run_experiments(
    specs: Sequence[Union[ExperimentSpec, str]],
    quick: bool = True,
    seeds: int = 1,
    base_seed: int = 1,
    processes: Optional[int] = 1,
    cache: Union[ResultCache, str, None] = None,
    params: Optional[Mapping[str, object]] = None,
) -> List[ExperimentReport]:
    """Execute several registered experiments as one plan; one report each.

    Every spec is expanded first, then the whole plan is served by one
    :func:`lookup` and one :func:`simulate`: one worker pool for the whole
    selection, and a scenario that several specs share runs once.  The
    arguments are :func:`run_experiment`'s, applied to every spec; see
    :class:`ExperimentReport` for how shared requests are counted.
    """
    result_cache = _resolve_cache(cache)
    plan = [
        expand_experiment(spec, quick=quick, seeds=seeds, base_seed=base_seed, params=params)
        for spec in specs
    ]
    requests = [request for expanded in plan for request in expanded.requests]
    cached = list(lookup(requests, result_cache))
    missed = [request for request, result in zip(requests, cached) if result is None]
    fresh_results, unwritten = simulate(missed, processes, result_cache)
    fresh = iter(fresh_results)
    served = iter(cached)
    first_miss: Dict[ScenarioRequest, int] = {}  # each missed request -> its first spec
    counted = result_cache is not None
    reports: List[ExperimentReport] = []
    for number, expanded in enumerate(plan):
        results: List[ScenarioResult] = []
        misses = 0
        for request in expanded.requests:
            result = next(served)
            if result is None:
                result = next(fresh)
                # A miss that an earlier spec of the plan simulates is a hit.
                misses += first_miss.setdefault(request, number) == number
            results.append(result)
        rows, rows_by_seed = rows_for_expanded(expanded, results)
        reports.append(
            ExperimentReport(
                spec=expanded.spec,
                quick=quick,
                seeds=expanded.seed_values,
                rows=rows,
                rows_by_seed=rows_by_seed,
                cache_hits=len(results) - misses if counted else 0,
                cache_misses=misses if counted else 0,
                simulated=sum(first == number for first in first_miss.values()),
                unwritten=sum(first_miss.get(request) == number for request in unwritten),
            )
        )
    return reports


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

    The one-spec case of :func:`run_experiments`.

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
    (report,) = run_experiments(
        [spec], quick=quick, seeds=seeds, base_seed=base_seed,
        processes=processes, cache=cache, params=params,
    )
    return report


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
    result_cache = _resolve_cache(cache)
    requests = list(requests)
    cached = list(lookup(requests, result_cache))
    missed = [request for request, result in zip(requests, cached) if result is None]
    fresh = iter(simulate(missed, processes, result_cache)[0])
    return [result if result is not None else next(fresh) for result in cached]


#: Hex digits of the cache key used for range bucketing.  16**8 ≈ 4.3e9
#: buckets keeps shard boundaries far finer than any realistic shard count
#: while staying in exact integer arithmetic.
KEY_PREFIX_LEN = 8


def shard_for_key(key: str, num_shards: int, prefix_len: int = KEY_PREFIX_LEN) -> int:
    """Deterministic shard of a cache key: contiguous hex-prefix ranges.

    The first ``prefix_len`` hex digits of ``key``, read as an integer
    ``p``, select shard ``p * num_shards // 16**prefix_len`` — i.e. the key
    space ``[0, 16**prefix_len)`` is cut into ``num_shards`` contiguous,
    near-equal ranges.  SHA-256 keys are uniform, so shard sizes are
    balanced to within sampling noise.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    prefix = int(key[:prefix_len], 16)
    return prefix * num_shards // (16 ** prefix_len)


@dataclass(frozen=True)
class ShardReport:
    """What one :func:`run_shard` call did.

    Attributes:
        total: distinct scenarios (cache keys) of the whole plan.
        owned: those whose key falls in this shard.
        from_cache: owned scenarios the cache already held.
        simulated: owned scenarios this call simulated.
        unwritten: of those, the ones whose result the cache could not
            store, so the shard did not commit them.
    """

    total: int
    owned: int
    from_cache: int
    simulated: int
    unwritten: int


def run_shard(
    specs: Sequence[Union[ExperimentSpec, str]],
    shard_index: int,
    num_shards: int,
    quick: bool = True,
    seeds: int = 1,
    base_seed: int = 1,
    processes: Optional[int] = None,
    cache: Union[ResultCache, str] = ".cache/experiments",
    params: Optional[Mapping[str, object]] = None,
) -> ShardReport:
    """Fill the cache with the scenarios of one key-range shard of a plan.

    The plan expands exactly as in :func:`run_experiments`.  Of its distinct
    requests, the shard owns those whose cache key falls in shard
    ``shard_index`` of ``num_shards`` (:func:`shard_for_key`); it reads them
    through :func:`lookup` and simulates the misses through
    :func:`simulate`, which puts each result in the cache as it streams in.
    Running the same call again resumes whatever a killed run left undone.
    """
    if not 0 <= shard_index < num_shards:
        raise ValueError("shard_index must be within [0, num_shards)")
    result_cache = _resolve_cache(cache)
    distinct: Dict[str, ScenarioRequest] = {}
    for spec in specs:
        expanded = expand_experiment(
            spec, quick=quick, seeds=seeds, base_seed=base_seed, params=params
        )
        for request in expanded.requests:
            distinct.setdefault(request.cache_key(), request)
    owned = [
        request
        for key, request in distinct.items()
        if shard_for_key(key, num_shards) == shard_index
    ]
    misses = [
        request
        for request, result in zip(owned, lookup(owned, result_cache))
        if result is None
    ]
    _, unwritten = simulate(misses, processes, result_cache)
    return ShardReport(
        total=len(distinct),
        owned=len(owned),
        from_cache=len(owned) - len(misses),
        simulated=len(misses),
        unwritten=len(unwritten),
    )
