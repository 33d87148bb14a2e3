"""Tests for the sharded, resumable sweep driver.

Covers the key-range partitioner (stability, disjoint covering shards), the
acceptance path (two shards + merge byte-identical to an unsharded run), the
resume guarantee (a killed shard re-simulates only what had not committed,
asserted via cache hit/miss counters), store robustness (truncated tails,
grid mismatch detection), merge semantics (incomplete sweeps, traced
scenarios), the pinned fingerprint of a trace-free grid and the CLI
surface.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

import repro.experiments.engine as engine_module
import repro.experiments.sweep as sweep_module
from repro.backends.configs import GSliceConfig
from repro.experiments import cli
from repro.experiments.cache import ResultCache
from repro.experiments.engine import run_experiment
from repro.experiments.parallel import ScenarioRequest, _run_request
from repro.experiments.registry import ExperimentPlan, ExperimentSpec
from repro.experiments.sweep import (
    KEY_PREFIX_LEN,
    ShardStore,
    SweepGridMismatch,
    SweepIncomplete,
    build_sweep_grid,
    merge_sweep,
    plan_sweep,
    run_sweep_shard,
    shard_for_key,
    sweep_status,
)
from repro.rt.taskset import table2_taskset
from repro.scheduler.config import DarisConfig
from repro.sim.workload import SATURATED_WORKLOAD

TINY_HORIZON = 600.0
TINY_CONFIGS = [DarisConfig.mps_config(2, 2.0), DarisConfig.str_config(2)]


def _tiny_taskset(scale: float = 0.25):
    return table2_taskset("resnet18", scale=scale)


def _tiny_row(config: DarisConfig, result) -> dict:
    return {
        "config": config.label(),
        "total_jps": round(result.total_jps, 1),
        "lp_dmr": round(result.lp_dmr, 4),
    }


def _tiny_spec(with_trace: bool = False) -> ExperimentSpec:
    def build(ctx):
        taskset = _tiny_taskset()
        requests = [
            ScenarioRequest(taskset, config, TINY_HORIZON, seed=ctx.seed, with_trace=with_trace)
            for config in TINY_CONFIGS
        ]

        def make_rows(row_ctx):
            if with_trace:
                for result in row_ctx.results:
                    assert result.trace is not None
            return [
                _tiny_row(config, result)
                for config, result in zip(TINY_CONFIGS, row_ctx.results)
            ]

        return ExperimentPlan(requests=requests, make_rows=make_rows)

    return ExperimentSpec(name="tiny_sweep", title="tiny sweep spec", build=build)


def _split_shard_count(grid, max_shards: int = 64) -> int:
    """Smallest shard count that actually splits this grid's keys."""
    for num_shards in range(2, max_shards):
        if len({shard_for_key(unit.key, num_shards) for unit in grid.units}) >= 2:
            return num_shards
    pytest.fail("grid keys never split across shards")


# ----------------------------------------------------------------- partitioner


def test_shard_for_key_is_deterministic_disjoint_and_covering():
    keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(500)]
    for num_shards in (1, 2, 3, 7, 16):
        shards = [shard_for_key(key, num_shards) for key in keys]
        assert all(0 <= shard < num_shards for shard in shards)
        # deterministic: recomputation agrees (no per-process salting)
        assert shards == [shard_for_key(key, num_shards) for key in keys]
        # hex-prefix ranges: sorting by key prefix sorts by shard
        by_prefix = sorted(zip(keys, shards))
        assert [s for _, s in by_prefix] == sorted(s for _, s in by_prefix)
    # 500 uniform keys over 16 shards: every shard owns something
    assert len(set(shard_for_key(key, 16) for key in keys)) == 16


def test_shard_for_key_only_reads_the_prefix():
    key = "ab" * 32
    mutated = key[:KEY_PREFIX_LEN] + "0" * (64 - KEY_PREFIX_LEN)
    assert shard_for_key(key, 8) == shard_for_key(mutated, 8)
    with pytest.raises(ValueError):
        shard_for_key(key, 0)


# ------------------------------------------------------------------ acceptance


def test_two_shard_sweep_then_merge_is_byte_identical_to_run(tmp_path):
    spec = _tiny_spec()
    baseline = run_experiment(spec, quick=True, seeds=2, processes=1)

    grid = build_sweep_grid([spec], quick=True, seeds=2)
    num_shards = _split_shard_count(grid)
    cache = ResultCache(tmp_path / "cache")
    reports = [
        run_sweep_shard(
            [spec],
            shard_index=shard,
            num_shards=num_shards,
            quick=True,
            seeds=2,
            processes=1,
            sweep_dir=tmp_path / "sweep",
            cache=cache,
        )
        for shard in range(num_shards)
    ]
    assert sum(report.shard_units for report in reports) == len(grid.units) == 4
    assert all(report.complete for report in reports)
    assert sum(report.simulated for report in reports) == 4

    merged = merge_sweep(
        [spec], quick=True, seeds=2, sweep_dir=tmp_path / "sweep", cache=cache
    )
    assert merged.simulated == 0 and merged.from_store == 4
    report = merged.reports[0]
    assert report.rows == baseline.rows
    assert report.rows_by_seed == baseline.rows_by_seed
    # byte-identical, not approximately equal
    assert json.dumps(report.rows) == json.dumps(baseline.rows)


def test_rerunning_a_complete_shard_simulates_nothing(tmp_path):
    spec = _tiny_spec()
    kwargs = dict(
        quick=True,
        seeds=2,
        processes=1,
        sweep_dir=tmp_path / "sweep",
        cache=ResultCache(tmp_path / "cache"),
    )
    first = run_sweep_shard([spec], shard_index=0, num_shards=1, **kwargs)
    assert first.shard_units == 4 and first.simulated == 4
    second = run_sweep_shard([spec], shard_index=0, num_shards=1, **kwargs)
    assert second.already_committed == 4
    assert second.simulated == 0 and second.from_cache == 0


@pytest.mark.parametrize("with_trace", [False, True], ids=["untraced", "traced"])
def test_shard_commits_the_bytes_of_a_cache_that_run_filled(tmp_path, with_trace):
    """A cache hit is committed as its rebuilt result's ``to_dict()``; the
    JSON of that payload equals the cache entry's ``result`` byte for byte."""
    spec = _tiny_spec(with_trace=with_trace)
    cache = ResultCache(tmp_path / "cache")
    run_experiment(spec, quick=True, seeds=2, processes=1, cache=cache)
    report = run_sweep_shard(
        [spec], shard_index=0, num_shards=1, quick=True, seeds=2, processes=1,
        sweep_dir=tmp_path / "sweep", cache=cache,
    )
    assert report.from_cache == report.shard_units == 4 and report.simulated == 0

    def _result_json(text: str) -> str:
        # The envelope's "result" is its last key: the payload runs to the
        # envelope's closing brace.
        return text.split('"result":', 1)[1][:-1]

    lines = ShardStore(tmp_path / "sweep", 0, 1).rows_path.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        record = json.loads(line)
        assert record["source"] == "cache"
        entry = cache.path_for(record["key"]).read_text(encoding="utf-8")
        assert _result_json(line) == _result_json(entry)


# ---------------------------------------------------------------------- resume


def test_killed_shard_resumes_only_uncommitted_scenarios(tmp_path, monkeypatch):
    """Acceptance: after a mid-run kill, a re-run simulates exactly the
    scenarios that had not yet committed (cache counters prove no re-work)."""
    spec = _tiny_spec()
    kwargs = dict(quick=True, seeds=2, processes=1, sweep_dir=tmp_path / "sweep")

    def _killed_after_one(requests, processes=None, on_result=None, ordered=True):
        result = _run_request(requests[0])
        if on_result is not None:
            on_result(0, result)  # one scenario commits (cache + rows.jsonl) ...
        raise KeyboardInterrupt  # ... then the machine dies

    monkeypatch.setattr(engine_module, "run_scenarios_parallel", _killed_after_one)
    with pytest.raises(KeyboardInterrupt):
        run_sweep_shard(
            [spec], shard_index=0, num_shards=1,
            cache=ResultCache(tmp_path / "cache"), **kwargs,
        )
    monkeypatch.undo()

    store = ShardStore(tmp_path / "sweep", 0, 1)
    assert len(store.committed_records()) == 1  # the in-flight rest was lost

    resume_cache = ResultCache(tmp_path / "cache")
    report = run_sweep_shard(
        [spec], shard_index=0, num_shards=1, cache=resume_cache, **kwargs
    )
    assert report.already_committed == 1  # served by the row store, not probed
    assert report.from_cache == 0
    assert report.simulated == 3  # only what had not committed
    assert resume_cache.misses == 3 and resume_cache.hits == 0


def test_shard_store_skips_truncated_tail_lines(tmp_path):
    store = ShardStore(tmp_path, 0, 1)
    store.directory.mkdir(parents=True)
    good = {"key": "aa" * 32, "result": {"label": "x"}}
    with store.rows_path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(good) + "\n")
        handle.write('{"key": "bb", "result": {"label"')  # killed mid-append
    records = store.committed_records()
    assert list(records) == [good["key"]]
    assert records[good["key"]]["result"] == {"label": "x"}
    assert store.committed_keys() == {good["key"]}


def test_appender_truncates_a_partial_tail_before_resuming(tmp_path):
    """Regression: resuming after a kill mid-append must neither concatenate
    the first new record onto the dangling partial line (both lost) nor leave
    the damaged line in the file's interior — a partial payload that already
    contains the "key"/"result" fields would then fool the fast key scan into
    counting a scenario that never committed."""
    store = ShardStore(tmp_path, 0, 1)
    store.directory.mkdir(parents=True)
    good = {"key": "aa" * 32, "result": {"label": "x"}}
    damaged = {"key": "bb" * 32, "result": {"label": "big payload", "extra": 1}}
    with store.rows_path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(good) + "\n")
        handle.write(json.dumps(damaged)[:-4])  # killed mid-payload, no newline
    fresh = {"key": "cc" * 32, "result": {"label": "y"}}
    with store.appender() as append:
        append(fresh)
    assert store.committed_keys() == {good["key"], fresh["key"]}  # not damaged's
    records = store.committed_records()
    assert records[fresh["key"]]["result"] == {"label": "y"}
    assert damaged["key"] not in records
    assert store.rows_path.read_text().count("\n") == 2  # partial tail is gone


def test_shard_store_refuses_concurrent_writers(tmp_path):
    """The store is single-writer: a second appender on the same shard must
    fail fast instead of truncating the live writer's in-flight tail."""
    store = ShardStore(tmp_path, 0, 1)
    with store.appender() as append:
        append({"key": "aa" * 32, "result": {"label": "x"}})
        with pytest.raises(sweep_module.SweepError):
            with ShardStore(tmp_path, 0, 1).appender():
                pass
    # the lock is released on exit; a later resume can append again
    with store.appender() as append:
        append({"key": "bb" * 32, "result": {"label": "y"}})
    assert store.committed_keys() == {"aa" * 32, "bb" * 32}


def test_corrupt_manifest_is_never_complete_and_rejected(tmp_path):
    """A store whose manifest cannot be read must not report itself complete
    (status) nor be silently adopted by run/plan/merge (grid unverifiable)."""
    spec = _tiny_spec()
    kwargs = dict(
        quick=True, seeds=1, processes=1,
        sweep_dir=tmp_path / "sweep", cache=ResultCache(tmp_path / "cache"),
    )
    run_sweep_shard([spec], shard_index=0, num_shards=1, **kwargs)
    store = ShardStore(tmp_path / "sweep", 0, 1)
    store.manifest_path.write_text("{ not json")
    (status,) = sweep_status(tmp_path / "sweep")
    assert not status.manifest_ok and not status.complete
    with pytest.raises(SweepGridMismatch):
        run_sweep_shard([spec], shard_index=0, num_shards=1, **kwargs)
    with pytest.raises(SweepGridMismatch):
        merge_sweep([spec], quick=True, seeds=1,
                    sweep_dir=tmp_path / "sweep", cache=tmp_path / "cache")


def test_mismatched_grid_is_rejected(tmp_path):
    spec = _tiny_spec()
    kwargs = dict(
        quick=True, processes=1,
        sweep_dir=tmp_path / "sweep", cache=ResultCache(tmp_path / "cache"),
    )
    run_sweep_shard([spec], shard_index=0, num_shards=1, seeds=1, **kwargs)
    with pytest.raises(SweepGridMismatch):
        run_sweep_shard([spec], shard_index=0, num_shards=1, seeds=2, **kwargs)
    with pytest.raises(SweepGridMismatch):
        merge_sweep([spec], quick=True, seeds=2,
                    sweep_dir=tmp_path / "sweep", cache=tmp_path / "cache")
    with pytest.raises(SweepGridMismatch):
        plan_sweep([spec], num_shards=1, quick=True, seeds=2,
                   sweep_dir=tmp_path / "sweep", cache=tmp_path / "cache")


def test_corrupt_cache_payload_degrades_to_resimulation(tmp_path):
    """A cache entry with a valid envelope but a damaged result payload must
    cost a re-simulation, not poison the row store or abort the merge."""
    spec = _tiny_spec()
    cache = ResultCache(tmp_path / "cache")
    grid = build_sweep_grid([spec], quick=True, seeds=1)
    for unit in grid.units:  # plant damaged-but-parseable entries
        path = cache.path_for(unit.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"entry_schema": 1, "key": unit.key, "result": {"label": "broken"}}
        ))
    report = run_sweep_shard(
        [spec], shard_index=0, num_shards=1, quick=True, processes=1,
        sweep_dir=tmp_path / "sweep", cache=cache,
    )
    assert report.from_cache == 0 and report.simulated == 2
    merged = merge_sweep([spec], quick=True,
                         sweep_dir=tmp_path / "sweep", cache=cache)
    assert merged.from_store == 2
    assert merged.reports[0].rows == run_experiment(spec, quick=True, processes=1).rows


# ----------------------------------------------------------------------- merge


def test_merge_of_incomplete_sweep_raises_then_simulates_on_request(tmp_path):
    spec = _tiny_spec()
    grid = build_sweep_grid([spec], quick=True, seeds=2)
    num_shards = _split_shard_count(grid)
    counts = Counter(shard_for_key(unit.key, num_shards) for unit in grid.units)
    ran_shard = min(shard for shard in counts)  # run one shard, leave the rest
    cache = ResultCache(tmp_path / "cache")
    run_sweep_shard(
        [spec], shard_index=ran_shard, num_shards=num_shards,
        quick=True, seeds=2, processes=1, sweep_dir=tmp_path / "sweep", cache=cache,
    )
    missing = len(grid.units) - counts[ran_shard]
    assert missing > 0

    with pytest.raises(SweepIncomplete) as excinfo:
        merge_sweep([spec], quick=True, seeds=2,
                    sweep_dir=tmp_path / "sweep", cache=cache)
    assert excinfo.value.missing == missing

    merged = merge_sweep(
        [spec], quick=True, seeds=2, processes=1,
        sweep_dir=tmp_path / "sweep", cache=cache, simulate_missing=True,
    )
    assert merged.simulated == missing
    baseline = run_experiment(spec, quick=True, seeds=2, processes=1)
    assert merged.reports[0].rows == baseline.rows

    # the merge committed its simulations to the cache: a second merge is clean
    again = merge_sweep([spec], quick=True, seeds=2,
                        sweep_dir=tmp_path / "sweep", cache=cache)
    assert again.simulated == 0 and again.from_cache == missing


def test_merge_simulates_a_request_its_replicates_share_once(tmp_path, executed_requests):
    """Regression: ``merge --simulate-missing`` simulated a seed-insensitive
    request (here a saturated GSlice server) once per seed replicate."""
    request = ScenarioRequest(
        _tiny_taskset(), GSliceConfig(batch_sizes=(16,)), TINY_HORIZON,
        scheduler="gslice", workload=SATURATED_WORKLOAD,
    )
    spec = ExperimentSpec(
        name="saturated_gslice",
        title="one saturated GSlice request",
        build=lambda ctx: ExperimentPlan(
            requests=[request],
            make_rows=lambda row_ctx: [{"jps": round(row_ctx.results[0].total_jps, 1)}],
        ),
    )
    assert len(build_sweep_grid([spec], quick=True, seeds=2).units) == 2
    merged = merge_sweep(
        [spec], quick=True, seeds=2, processes=1, simulate_missing=True,
        sweep_dir=tmp_path / "sweep", cache=ResultCache(tmp_path / "cache"),
    )
    assert executed_requests == [request]
    assert merged.simulated == 1 and merged.reports[0].simulated == 1
    assert merged.reports[0].rows == run_experiment(spec, quick=True, seeds=2).rows


def test_traced_scenarios_shard_commit_and_merge_without_simulating(tmp_path):
    spec = _tiny_spec(with_trace=True)  # its rows assert each result's trace
    shard_units = 0
    for shard_index in range(2):
        report = run_sweep_shard(
            [spec], shard_index=shard_index, num_shards=2, quick=True, processes=1,
            sweep_dir=tmp_path / "sweep", cache=ResultCache(tmp_path / "cache"),
        )
        assert report.complete and report.simulated == report.shard_units
        shard_units += report.shard_units
    assert shard_units == 2

    # No cache: the traced results come back from the row stores alone.
    merged = merge_sweep([spec], quick=True, processes=1,
                         sweep_dir=tmp_path / "sweep", cache=None)
    assert merged.from_store == 2 and merged.simulated == 0
    assert merged.reports[0].rows == run_experiment(spec, quick=True, processes=1).rows
    assert len(ResultCache(tmp_path / "cache")) == 2


#: A trace-free grid's fingerprint, recorded while traced requests were
#: still kept out of the sweep grid: shard stores written then still resume.
PINNED_SOTA_TWO_SEED_FINGERPRINT = (
    "6829d9edb8350e782d19951bf6c598d774e18f43d1b2fda3a9308fe55fd76812"
)


def test_trace_free_grid_fingerprint_is_pinned():
    grid = build_sweep_grid(["sota"], quick=True, seeds=2)
    assert grid.fingerprint == PINNED_SOTA_TWO_SEED_FINGERPRINT


# ------------------------------------------------------------------------ plan


def test_plan_probes_without_simulating_or_creating_directories(tmp_path, monkeypatch):
    spec = _tiny_spec()

    def _forbidden(*args, **kwargs):
        raise AssertionError("plan must not simulate")

    monkeypatch.setattr(engine_module, "run_scenarios_parallel", _forbidden)
    grid, entries = plan_sweep(
        [spec], num_shards=2, quick=True, seeds=2,
        sweep_dir=tmp_path / "sweep", cache=tmp_path / "cache",
    )
    assert sum(entry.units for entry in entries) == len(grid.units) == 4
    assert all(entry.committed == 0 and entry.cached == 0 for entry in entries)
    assert sum(entry.misses for entry in entries) == 4
    assert not (tmp_path / "sweep").exists()  # pure inspection
    assert not (tmp_path / "cache").exists()
    monkeypatch.undo()

    # after one shard runs, plan sees its commits; a warm cache turns the
    # other shard's misses into "cached" without reading a single entry
    cache = ResultCache(tmp_path / "cache")
    run_sweep_shard([spec], shard_index=0, num_shards=1, quick=True, seeds=2,
                    processes=1, sweep_dir=tmp_path / "sweep", cache=cache)
    _, entries = plan_sweep(
        [spec], num_shards=1, quick=True, seeds=2,
        sweep_dir=tmp_path / "sweep", cache=cache,
    )
    assert entries[0].committed == 4 and entries[0].misses == 0
    hits_before, misses_before = cache.hits, cache.misses
    _, entries = plan_sweep(
        [spec], num_shards=1, quick=True, seeds=2,
        sweep_dir=tmp_path / "fresh-sweep", cache=cache,
    )
    assert entries[0].cached == 4 and entries[0].misses == 0
    assert (cache.hits, cache.misses) == (hits_before, misses_before)  # stat-only


# ------------------------------------------------------------------------- CLI


def test_cli_sweep_round_trip_matches_run_output(tmp_path, capsys):
    """Acceptance (CLI face): shard 0/2 + shard 1/2 + merge --json emits rows
    byte-identical to an unsharded `run --json` of the same spec/seeds."""
    sweep_dir, cache_dir = str(tmp_path / "sweep"), str(tmp_path / "cache")
    common = ["sota", "--quick", "--seeds", "2", "--base-seed", "1"]
    for shard in ("0/2", "1/2"):
        code = cli.main(
            ["sweep", "run", *common, "--shard", shard, "--jobs", "1",
             "--sweep-dir", sweep_dir, "--cache-dir", cache_dir]
        )
        assert code == cli.EXIT_OK
    capsys.readouterr()

    assert cli.main(["sweep", "status", "--sweep-dir", sweep_dir]) == cli.EXIT_OK
    status_out = capsys.readouterr().out
    assert "2/2 shard store(s) complete" in status_out

    assert cli.main(
        ["sweep", "merge", *common, "--json",
         "--sweep-dir", sweep_dir, "--cache-dir", cache_dir]
    ) == cli.EXIT_OK
    merged_out = capsys.readouterr().out

    assert cli.main(["run", *common, "--json", "--jobs", "1", "--no-cache"]) == cli.EXIT_OK
    run_out = capsys.readouterr().out
    assert merged_out == run_out  # byte-identical rows
    assert merged_out.strip()


def test_cli_sweep_status_without_stores(tmp_path, capsys):
    assert cli.main(
        ["sweep", "status", "--sweep-dir", str(tmp_path / "nothing")]
    ) == cli.EXIT_SWEEP_INCOMPLETE
    assert "no shard stores" in capsys.readouterr().err


def test_cli_sweep_status_flags_never_started_shards(tmp_path, capsys):
    """A complete shard 0 of 2 is not a complete sweep: the store that shard
    1's machine never created must keep status (and pollers) at exit 5."""
    spec = _tiny_spec()
    grid = build_sweep_grid([spec], quick=True, seeds=2)
    num_shards = _split_shard_count(grid)
    ran = min(shard_for_key(unit.key, num_shards) for unit in grid.units)
    run_sweep_shard(
        [spec], shard_index=ran, num_shards=num_shards, quick=True, seeds=2,
        processes=1, sweep_dir=tmp_path / "sweep", cache=ResultCache(tmp_path / "cache"),
    )
    assert cli.main(
        ["sweep", "status", "--sweep-dir", str(tmp_path / "sweep")]
    ) == cli.EXIT_SWEEP_INCOMPLETE
    captured = capsys.readouterr()
    assert "not started yet" in captured.err


def test_cli_sweep_plan_rejects_mismatched_store_cleanly(tmp_path, capsys):
    sweep_dir, cache_dir = str(tmp_path / "sweep"), str(tmp_path / "cache")
    run_sweep_shard(
        ["sota"], shard_index=0, num_shards=1, quick=True, processes=1,
        sweep_dir=sweep_dir, cache=cache_dir,
    )
    code = cli.main(
        ["sweep", "plan", "sota", "--shards", "1", "--seeds", "3",
         "--sweep-dir", sweep_dir, "--cache-dir", cache_dir]
    )
    assert code == cli.EXIT_SWEEP_MISMATCH  # a permanent error, not "poll again"
    assert "different grid" in capsys.readouterr().err


def test_cli_sweep_plan_prints_shard_sizes(tmp_path, capsys):
    code = cli.main(
        ["sweep", "plan", "sota", "--shards", "2", "--seeds", "2",
         "--sweep-dir", str(tmp_path / "sweep"), "--cache-dir", str(tmp_path / "cache")]
    )
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    # sota expands to 6 systems (every backend is a cacheable unit) x 2 seeds,
    # minus the seed-insensitive baselines (batching/gslice/clockwork), whose
    # replicates share one unit: 3 x 2 + 3 = 9
    assert "9 unit(s) across 2 shard(s)" in out
    assert "shard 0/2" in out and "shard 1/2" in out
    assert not (tmp_path / "sweep").exists() and not (tmp_path / "cache").exists()


def test_cli_shard_argument_is_validated():
    for bad in ("2/2", "-1/2", "x/2", "1", "1/0"):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "run", "sota", "--shard", bad])
        assert excinfo.value.code == 2
