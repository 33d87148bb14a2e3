"""Tests for the declarative experiment pipeline.

Covers the registry/engine/cache stack: request value identity and cache-key
invalidation, lossless metric round-trips, cache hit/miss behaviour with
bit-identical cached rows, seed replication against a hand-rolled serial
loop, traced results cached like any other, and the CLI round-trip (second
invocation served entirely from cache, zero simulator runs).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.stats import replication_summary, t_critical_95
from repro.analysis.tables import format_replicated_table
from repro.experiments import cli
from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    aggregate_replicated_rows,
    run_cached_scenarios,
    run_experiment,
)
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.registry import (
    ExperimentPlan,
    ExperimentSpec,
    all_experiments,
    get_experiment,
)
from repro.experiments.runner import ScenarioResult, run_daris_scenario
from repro.gpu.calibration import GpuCalibration
from repro.gpu.spec import JETSON_XAVIER
from repro.rt.taskset import table2_taskset
from repro.scheduler.config import DarisConfig

TINY_HORIZON = 600.0
TINY_CONFIGS = [DarisConfig.mps_config(2, 2.0), DarisConfig.str_config(2)]


def _tiny_taskset(scale: float = 0.25):
    return table2_taskset("resnet18", scale=scale)


def _tiny_row(config: DarisConfig, result: ScenarioResult) -> dict:
    return {
        "config": config.label(),
        "total_jps": round(result.total_jps, 1),
        "lp_dmr": round(result.lp_dmr, 4),
        "hp_resp_p95": round(result.metrics.high.response_time_stats()["p95"], 3),
    }


def _tiny_spec(with_trace: bool = False) -> ExperimentSpec:
    def build(ctx):
        taskset = _tiny_taskset()
        requests = [
            ScenarioRequest(taskset, config, TINY_HORIZON, seed=ctx.seed, with_trace=with_trace)
            for config in TINY_CONFIGS
        ]

        def make_rows(row_ctx):
            rows = [
                _tiny_row(config, result)
                for config, result in zip(TINY_CONFIGS, row_ctx.results)
            ]
            if with_trace:
                for result, row in zip(row_ctx.results, rows):
                    assert result.trace is not None and result.trace.stage_records
            return rows

        return ExperimentPlan(requests=requests, make_rows=make_rows)

    return ExperimentSpec(name="tiny", title="tiny test spec", build=build)


# --------------------------------------------------------------------- identity


def test_scenario_request_value_identity():
    first = ScenarioRequest(_tiny_taskset(), TINY_CONFIGS[0], TINY_HORIZON, seed=3)
    second = ScenarioRequest(_tiny_taskset(), TINY_CONFIGS[0], TINY_HORIZON, seed=3)
    assert first == second
    assert hash(first) == hash(second)
    assert first.cache_key() == second.cache_key()
    assert len({first, second}) == 1


def test_cache_key_changes_when_any_request_field_changes():
    base = ScenarioRequest(_tiny_taskset(), TINY_CONFIGS[0], TINY_HORIZON, seed=3)
    variants = [
        base,
        ScenarioRequest(_tiny_taskset(0.3), TINY_CONFIGS[0], TINY_HORIZON, seed=3),
        ScenarioRequest(
            _tiny_taskset(), TINY_CONFIGS[0].with_overrides(window_size=7), TINY_HORIZON, seed=3
        ),
        ScenarioRequest(_tiny_taskset(), TINY_CONFIGS[0], TINY_HORIZON + 100.0, seed=3),
        ScenarioRequest(_tiny_taskset(), TINY_CONFIGS[0], TINY_HORIZON, seed=4),
        ScenarioRequest(_tiny_taskset(), TINY_CONFIGS[0], TINY_HORIZON, seed=3, with_trace=True),
        ScenarioRequest(_tiny_taskset(), TINY_CONFIGS[0], TINY_HORIZON, seed=3, label="renamed"),
        ScenarioRequest(
            _tiny_taskset(), TINY_CONFIGS[0], TINY_HORIZON, seed=3, gpu=JETSON_XAVIER
        ),
        ScenarioRequest(
            _tiny_taskset(),
            TINY_CONFIGS[0],
            TINY_HORIZON,
            seed=3,
            calibration=GpuCalibration(intra_stream_penalty=0.06),
        ),
    ]
    keys = [request.cache_key() for request in variants]
    assert len(set(keys)) == len(variants)


# ------------------------------------------------------------------ round-trips


def test_metrics_round_trip_is_lossless(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.3)
    result = run_daris_scenario(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2)
    restored = ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert restored == result  # dataclass equality: every field, every float, bit-exact
    assert restored.metrics.high.response_time_stats() == result.metrics.high.response_time_stats()
    assert restored.config.label() == result.config.label()


def test_traced_results_round_trip_through_json(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.3)
    result = run_daris_scenario(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2, with_trace=True)
    payload = json.loads(json.dumps(result.to_dict()))
    # Records are stored by column, priorities as their ints.
    assert set(payload["trace"]["stages"]["priority"]) <= {0, 1}
    restored = ScenarioResult.from_dict(payload)
    assert restored == result
    assert repr(restored.trace.stage_records) == repr(result.trace.stage_records)
    assert repr(restored.trace.job_records) == repr(result.trace.job_records)
    # An untraced result serializes without a trace key at all.
    assert set(dataclasses.replace(result, trace=None).to_dict()) == {
        "label",
        "config",
        "metrics",
    }


# ------------------------------------------------------------------------ cache


def test_cache_hit_miss_and_traced_round_trip(tmp_path, resnet18):
    cache = ResultCache(tmp_path / "cache")
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.3)
    request = ScenarioRequest(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2)
    assert cache.get(request) is None  # cold miss
    result = run_daris_scenario(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2)
    assert cache.put(request, result)
    cached = cache.get(request)
    assert cached == result
    # mutating any field invalidates: a different seed misses
    assert cache.get(ScenarioRequest(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=3)) is None
    # a traced request is its own entry, stored with its trace
    traced_request = ScenarioRequest(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2, with_trace=True)
    traced_result = run_daris_scenario(
        taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2, with_trace=True
    )
    assert cache.put(traced_request, traced_result)
    assert len(cache) == 2
    assert cache.get(traced_request) == traced_result
    assert cache.get(request).trace is None


def test_unwritable_cache_degrades_to_uncached(tmp_path, resnet18, monkeypatch):
    """A broken cache (read-only dir, disk full) must return False, not raise —
    an exception here would abort a sweep whose scenarios already simulated."""
    import repro.experiments.cache as cache_module

    cache = ResultCache(tmp_path / "cache")
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.3)
    request = ScenarioRequest(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2)
    result = run_daris_scenario(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2)

    def _unwritable(*args, **kwargs):
        raise PermissionError("read-only cache directory")

    monkeypatch.setattr(cache_module.tempfile, "mkstemp", _unwritable)
    assert cache.put(request, result) is False
    assert cache.get(request) is None
    monkeypatch.undo()
    assert cache.put(request, result) is True  # healthy path still works


def test_cache_directory_is_created_lazily(tmp_path, resnet18):
    """Regression: constructing (or probing) a cache must not mkdir — only a
    successful put may create the store on disk."""
    cache_dir = tmp_path / "cache"
    cache = ResultCache(cache_dir)
    assert not cache_dir.exists() and not cache.exists()
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.3)
    request = ScenarioRequest(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2)
    assert cache.get(request) is None
    assert not cache.contains(cache.key_for(request))
    assert len(cache) == 0
    assert not cache_dir.exists()  # still pure inspection
    result = run_daris_scenario(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2)
    assert cache.put(request, result)
    assert cache_dir.is_dir() and cache.exists()
    assert cache.contains(cache.key_for(request))
    assert list(cache.iter_keys()) == [cache.key_for(request)]


def test_cache_prune_and_clear(tmp_path, resnet18):
    cache = ResultCache(tmp_path / "cache")
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.3)
    result = run_daris_scenario(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2)
    for seed in (1, 2, 3, 4):
        cache.put(ScenarioRequest(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=seed), result)
    assert len(cache) == 4
    assert cache.prune(max_entries=2) == 2
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0


def test_negative_prune_bounds_are_rejected_before_deleting(tmp_path, resnet18, capsys):
    """Regression: a negative bound used to empty the cache (``max_entries
    = -1`` kept ``len - (-1)`` too few; a negative age moved the cutoff
    into the future)."""
    cache = ResultCache(tmp_path / "cache")
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.3)
    result = run_daris_scenario(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=2)
    for seed in (1, 2, 3):
        cache.put(ScenarioRequest(taskset, TINY_CONFIGS[0], TINY_HORIZON, seed=seed), result)
    with pytest.raises(ValueError, match="max_entries"):
        cache.prune(max_entries=-1)
    with pytest.raises(ValueError, match="max_age_days"):
        cache.prune(max_age_days=-1.0)
    for flag in ("--prune-max-entries", "--prune-max-age-days"):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["cache", "--cache-dir", str(cache.cache_dir), flag, "-1"])
        assert excinfo.value.code == 2  # argparse usage error
        assert flag in capsys.readouterr().err
    assert len(cache) == 3


def test_cached_rows_are_bit_identical_to_fresh(tmp_path):
    spec = _tiny_spec()
    cache = ResultCache(tmp_path / "cache")
    fresh = run_experiment(spec, quick=True, processes=1, cache=cache)
    assert fresh.simulated == len(TINY_CONFIGS) and fresh.cache_hits == 0
    cached = run_experiment(spec, quick=True, processes=1, cache=cache)
    assert cached.simulated == 0
    assert cached.cache_hits == len(TINY_CONFIGS)
    assert cached.rows == fresh.rows  # bit-identical, not approximately equal


def test_run_cached_scenarios_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    taskset = _tiny_taskset()
    requests = [
        ScenarioRequest(taskset, config, TINY_HORIZON, seed=5) for config in TINY_CONFIGS
    ]
    first = run_cached_scenarios(requests, processes=1, cache=cache)
    assert cache.misses == len(requests)
    second = run_cached_scenarios(requests, processes=1, cache=cache)
    assert cache.hits == len(requests)
    assert first == second


def test_traced_requests_are_served_from_cache_in_engine(tmp_path):
    spec = _tiny_spec(with_trace=True)  # its rows assert each result's trace
    cache = ResultCache(tmp_path / "cache")
    first = run_experiment(spec, quick=True, processes=1, cache=cache)
    assert first.simulated == first.cache_misses == len(TINY_CONFIGS)
    second = run_experiment(spec, quick=True, processes=1, cache=cache)
    assert second.simulated == 0 and second.cache_hits == len(TINY_CONFIGS)
    assert second.rows == first.rows
    assert first.uncached == second.uncached == 0
    assert len(cache) == len(TINY_CONFIGS)


# -------------------------------------------------------------------- replication


def test_seed_replication_matches_hand_rolled_serial_loop(tmp_path):
    spec = _tiny_spec()
    cache = ResultCache(tmp_path / "cache")
    base_seed, seeds = 5, 3
    report = run_experiment(
        spec, quick=True, seeds=seeds, base_seed=base_seed, processes=1, cache=cache
    )
    assert report.seeds == [5, 6, 7]

    # Hand-rolled reference: serial scenarios, per-seed rows, column stats.
    taskset = _tiny_taskset()
    rows_by_seed = []
    for seed in range(base_seed, base_seed + seeds):
        rows_by_seed.append(
            [
                _tiny_row(config, run_daris_scenario(taskset, config, TINY_HORIZON, seed=seed))
                for config in TINY_CONFIGS
            ]
        )
    assert report.rows_by_seed == rows_by_seed
    for row_index, row in enumerate(report.rows):
        for column in ("total_jps", "lp_dmr", "hp_resp_p95"):
            values = [rows[row_index][column] for rows in rows_by_seed]
            if len(set(values)) == 1:  # constant columns pass through un-annotated
                assert row[column] == values[0]
                assert f"{column}_ci95" not in row or row[f"{column}_ci95"] == 0.0
                continue
            summary = replication_summary(values)
            assert row[column] == pytest.approx(round(summary["mean"], 4))
            assert row[f"{column}_std"] == pytest.approx(round(summary["std"], 4))
            assert row[f"{column}_ci95"] == pytest.approx(round(summary["ci95"], 4))


def test_aggregate_replicated_rows_mixed_type_columns():
    # sota-style column: numeric for some rows, "-" placeholder for others
    rows_by_seed = [
        [{"system": "baseline", "lp_dmr": "-"}, {"system": "daris", "lp_dmr": 0.01}],
        [{"system": "baseline", "lp_dmr": "-"}, {"system": "daris", "lp_dmr": 0.03}],
    ]
    aggregated = aggregate_replicated_rows(rows_by_seed)
    assert aggregated[0]["lp_dmr"] == "-"
    assert aggregated[0]["lp_dmr_ci95"] == "-"  # uniform schema, non-numeric cell
    assert aggregated[1]["lp_dmr"] == pytest.approx(0.02)  # numeric cells aggregate
    assert aggregated[1]["lp_dmr_std"] == pytest.approx(
        round(replication_summary([0.01, 0.03])["std"], 4)
    )


def test_aggregate_replicated_rows_mixed_schema_columns():
    """Regression: replicated columns were detected from the first row's keys
    only, so a numeric column introduced by a later row never earned its
    _std/_ci95 companions."""
    rows_by_seed = [
        [{"name": "a", "x": 1.0}, {"name": "b", "x": 2.0, "extra": 5.0}],
        [{"name": "a", "x": 3.0}, {"name": "b", "x": 4.0, "extra": 9.0}],
    ]
    aggregated = aggregate_replicated_rows(rows_by_seed)
    assert aggregated[1]["extra"] == pytest.approx(7.0)
    assert aggregated[1]["extra_std"] == pytest.approx(
        round(replication_summary([5.0, 9.0])["std"], 4)
    )
    assert "extra_ci95" in aggregated[1]
    # the column stays absent from rows that never had it
    assert "extra" not in aggregated[0]
    # a column emitted only by later *seeds* passes through instead of
    # vanishing (it cannot aggregate — some seeds lack it entirely)
    ragged = aggregate_replicated_rows(
        [[{"x": 1.0}], [{"x": 2.0, "rare_metric": 5.0}]]
    )
    assert ragged[0]["rare_metric"] == 5.0
    assert "rare_metric_std" not in ragged[0]


def test_aggregate_replicated_rows_column_rules():
    rows_by_seed = [
        [{"name": "a", "metric": 1.0, "constant": 7, "flag": True}],
        [{"name": "a", "metric": 3.0, "constant": 7, "flag": True}],
    ]
    aggregated = aggregate_replicated_rows(rows_by_seed)
    row = aggregated[0]
    assert row["metric"] == 2.0
    expected_std = replication_summary([1.0, 3.0])["std"]
    assert row["metric_std"] == pytest.approx(round(expected_std, 4))
    assert row["metric_ci95"] == pytest.approx(
        round(t_critical_95(1) * expected_std / (2 ** 0.5), 4)
    )
    # constants, strings and booleans pass through without companions
    assert row["constant"] == 7 and "constant_std" not in row
    assert row["name"] == "a" and row["flag"] is True
    rendered = format_replicated_table(aggregated)
    assert "±" in rendered and "metric_std" not in rendered


def test_non_replicable_specs_ignore_the_seed_axis():
    report = run_experiment("table2", quick=True, seeds=3)
    assert report.seeds == [1]
    assert len(report.rows_by_seed) == 1 and report.rows


def test_single_seed_rows_pass_through_unchanged(tmp_path):
    spec = _tiny_spec()
    report = run_experiment(spec, quick=True, seeds=1, processes=1)
    for row in report.rows:
        assert set(row) == {"config", "total_jps", "lp_dmr", "hp_resp_p95"}


# --------------------------------------------------------- scheduler backends


def _backend_matrix():
    """One small valid (scheduler, config, workload) cell per backend mode."""
    from repro.backends.configs import (
        BatchingConfig,
        ClockworkConfig,
        GSliceConfig,
        SingleConfig,
    )
    from repro.cluster.config import ClusterConfig
    from repro.sim.workload import POISSON_WORKLOAD, SATURATED_WORKLOAD, WorkloadSpec

    periodic = WorkloadSpec()
    return [
        ("daris", TINY_CONFIGS[0], periodic),
        ("daris", TINY_CONFIGS[0], POISSON_WORKLOAD),
        ("rtgpu", TINY_CONFIGS[0], periodic),
        ("rtgpu", TINY_CONFIGS[0], POISSON_WORKLOAD),
        ("clockwork", ClockworkConfig(), periodic),
        ("clockwork", ClockworkConfig(), POISSON_WORKLOAD),
        ("single", SingleConfig(), SATURATED_WORKLOAD),
        ("batching_server", BatchingConfig(batch_size=4), SATURATED_WORKLOAD),
        ("batching_server", BatchingConfig(batch_size=4), POISSON_WORKLOAD),
        ("gslice", GSliceConfig(), SATURATED_WORKLOAD),
        ("cluster", ClusterConfig(), periodic),
        ("cluster", ClusterConfig(), POISSON_WORKLOAD),
    ]


def _backend_requests(seed: int = 3):
    taskset = _tiny_taskset()
    return [
        ScenarioRequest(
            taskset, config, TINY_HORIZON, seed=seed, scheduler=scheduler, workload=workload
        )
        for scheduler, config, workload in _backend_matrix()
    ]


def test_every_backend_is_deterministic_for_a_fixed_seed():
    """Satellite: every registered backend (in every workload mode it
    supports) run twice with the same RngFactory seed yields bit-identical
    ScenarioMetrics."""
    from repro.backends import backend_names, get_backend

    requests = _backend_requests()
    assert {request.scheduler for request in requests} == set(backend_names())
    for request in requests:
        backend = get_backend(request.scheduler)
        first = backend.execute(request)
        second = backend.execute(request)
        # dataclass equality is field-by-field and float-exact
        assert first.metrics == second.metrics, (request.scheduler, request.workload)
        assert first == second


def test_cached_vs_fresh_rows_bit_identical_per_backend(tmp_path):
    """Satellite: a cache round-trip is lossless for every backend — the
    deterministic servers included, now that they flow through the engine."""
    cache = ResultCache(tmp_path / "cache")
    requests = _backend_requests()
    fresh = run_cached_scenarios(requests, processes=1, cache=cache)
    assert cache.misses == len(requests) and len(cache) == len(requests)
    cached = run_cached_scenarios(requests, processes=1, cache=cache)
    assert cache.hits == len(requests)
    for request, fresh_result, cached_result in zip(requests, fresh, cached):
        assert cached_result == fresh_result, request.scheduler


def test_backend_cache_keys_are_distinct_per_scheduler_and_workload():
    keys = [request.cache_key() for request in _backend_requests()]
    assert len(set(keys)) == len(keys)


# --------------------------------------------------------------------- registry


def test_registry_lists_every_paper_artefact():
    names = [spec.name for spec in all_experiments()]
    assert names == [
        "fig1_table1",
        "table2",
        "fig2",
        "fig4_6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "sota",
        "backends",
        "faults",
        "dse",
        "cluster",
    ]
    with pytest.raises(KeyError):
        get_experiment("fig99")


# -------------------------------------------------------------------------- CLI


def test_cli_list_and_unknown_experiment(capsys):
    assert cli.main(["list"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "fig4_6" in out
    # the listing grows a scheduler-backends section
    assert "scheduler backends" in out
    for backend in ("daris", "clockwork", "gslice", "rtgpu", "single", "batching_server"):
        assert backend in out
    assert cli.main(["run", "fig99", "--no-cache"]) == cli.EXIT_UNKNOWN_EXPERIMENT
    # naming experiments and passing --all is a conflict, not a silent override
    assert cli.main(["run", "fig2", "--all", "--no-cache"]) == cli.EXIT_UNKNOWN_EXPERIMENT


def test_cli_list_json_includes_backends(capsys):
    assert cli.main(["list", "--json"]) == cli.EXIT_OK
    listing = json.loads(capsys.readouterr().out)
    assert {spec["name"] for spec in listing["experiments"]} >= {"fig4_6", "sota", "backends"}
    backends = {entry["name"]: entry for entry in listing["backends"]}
    assert set(backends) == {
        "daris", "batching_server", "clockwork", "gslice", "rtgpu", "single", "cluster",
    }
    assert backends["gslice"]["workloads"] == ["saturated"]
    assert backends["cluster"]["config"] == "ClusterConfig"
    assert backends["rtgpu"]["config"] == "DarisConfig"
    assert backends["daris"]["workloads"] == ["periodic", "poisson", "mmpp", "trace"]
    workloads = {entry["name"]: entry for entry in listing["workloads"]}
    assert set(workloads) == {"periodic", "poisson", "saturated", "bursty", "diurnal"}
    assert workloads["bursty"]["arrival"] == "mmpp"
    assert workloads["diurnal"]["label"] == "poisson+diurnal"


def test_cli_rejects_unknown_scheduler_backend():
    """Satellite: `--scheduler nosuch` is a clean argparse usage error (exit 2)
    naming the registered backends, not a KeyError traceback mid-run."""
    for argv in (
        ["run", "backends", "--no-cache", "--scheduler", "nosuch"],
        ["sweep", "plan", "backends", "--shards", "2", "--scheduler", "nosuch"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2


def test_cli_rejects_unknown_workload_label(capsys):
    """Satellite: `--workload nosuch` is a clean argparse usage error (exit 2)
    listing the named workload vocabulary, not a KeyError traceback mid-run."""
    for argv in (
        ["run", "backends", "--no-cache", "--workload", "nosuch"],
        ["sweep", "plan", "backends", "--shards", "2", "--workload", "nosuch"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "bursty" in captured.err and "diurnal" in captured.err


def test_cli_workload_slice_runs_and_caches(tmp_path, capsys):
    """`run backends --workload bursty` runs exactly the MMPP column and a
    repeat is served entirely from cache (--expect-cached passes)."""
    cache_dir = str(tmp_path / "wlcache")
    argv = [
        "run", "backends", "--quick", "--jobs", "1",
        "--workload", "bursty", "--scheduler", "clockwork",
        "--model", "resnet50", "--cache-dir", cache_dir,
    ]
    assert cli.main(argv + ["--json"]) == cli.EXIT_OK
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.strip().startswith("{")]
    assert rows and all(row["workload"] == "bursty" for row in rows)
    assert cli.main(argv + ["--expect-cached"]) == cli.EXIT_OK


def test_cli_rejects_invalid_counts():
    """Regression: `run --seeds 0` (and sibling count oddities) used to leak a
    raw ValueError traceback from the engine instead of a usage error."""
    for argv in (
        ["run", "fig2", "--no-cache", "--seeds", "0"],
        ["run", "fig2", "--no-cache", "--seeds", "-3"],
        ["run", "fig2", "--no-cache", "--jobs", "0"],
        ["run", "fig2", "--no-cache", "--jobs", "-2"],
        ["run", "fig2", "--no-cache", "--base-seed", "-1"],
        ["sweep", "plan", "fig2", "--shards", "0"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2  # argparse usage error, not a traceback


def test_cli_warns_on_parameters_a_spec_does_not_declare(capsys):
    """`run --all --model X` must flag specs that silently ignore the model
    parameter instead of pretending it applied."""
    assert cli.main(["run", "fig2", "--no-cache", "--model", "unet"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "fig2 does not declare parameter(s) model_name" in captured.err
    # a spec that does declare model_name raises no flag
    assert get_experiment("fig8").unknown_params({"model_name": "unet"}) == []


def test_cli_cache_reports_missing_directory(tmp_path, capsys):
    """Regression: `cache --cache-dir X` used to mkdir X as a side effect of
    pure inspection; now it reports the absence and touches nothing."""
    missing = tmp_path / "never-created"
    assert cli.main(["cache", "--cache-dir", str(missing)]) == cli.EXIT_NO_CACHE
    assert "no such cache" in capsys.readouterr().err
    assert not missing.exists()


def test_cli_run_analytic_experiment(capsys):
    assert cli.main(["run", "fig2", "--quick", "--no-cache"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "fig2" in out and "0 simulated" in out


def test_cli_repeat_invocation_served_from_cache(tmp_path, capsys):
    """Acceptance: a repeated CLI run completes via cache hits, zero simulator
    runs — for every backend, the deterministic baseline servers included.
    sota is 6 systems x 2 seeds = 12 cacheable scenarios, of which the three
    seed-insensitive baselines (batching/gslice/clockwork) share one
    simulation across both seeds: 3 x 2 + 3 = 9 simulated."""
    cache_dir = str(tmp_path / "cache")
    args = ["run", "sota", "--quick", "--seeds", "2", "--jobs", "1", "--cache-dir", cache_dir]
    assert cli.main(args) == cli.EXIT_OK
    first_out = capsys.readouterr().out
    assert "9 simulated" in first_out
    # second pass must be served entirely from cache: --expect-cached turns
    # any simulator run into a non-zero exit
    assert cli.main(args + ["--expect-cached"]) == cli.EXIT_OK
    second_out = capsys.readouterr().out
    assert "0 simulated" in second_out and "12 scenario(s) from cache" in second_out
    # ... and a cold cache fails --expect-cached
    cold = ["run", "sota", "--quick", "--jobs", "1", "--cache-dir", str(tmp_path / "cold")]
    assert cli.main(cold + ["--expect-cached"]) == cli.EXIT_NOT_CACHED
    capsys.readouterr()


def test_cli_expect_cached_covers_traced_and_table1_scenarios(tmp_path, capsys):
    """fig9's traced scenarios and Table I's baseline runs are cached like
    every other scenario: 2 + 12 simulate once, then replay from cache, and
    --expect-cached exempts nothing."""
    args = ["run", "fig1_table1", "fig9", "--quick", "--jobs", "1"]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert cli.main(args + cache) == cli.EXIT_OK
    assert "0 scenario(s) from cache, 14 simulated" in capsys.readouterr().out
    assert cli.main(args + cache + ["--expect-cached"]) == cli.EXIT_OK
    assert "14 scenario(s) from cache, 0 simulated" in capsys.readouterr().out
    cold = ["run", "fig9", "--quick", "--jobs", "1", "--cache-dir", str(tmp_path / "cold")]
    assert cli.main(cold + ["--expect-cached"]) == cli.EXIT_NOT_CACHED
    capsys.readouterr()
