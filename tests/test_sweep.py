"""Tests for sharded runs: a sweep is a ``run`` over a cache-key range.

Covers the key-range partitioner (stability, disjoint covering shards), the
acceptance path (two shards, merged by copying their cache directories,
give rows byte-identical to an uncached run), the resume guarantee (a
killed shard re-simulates only what the cache lacks, asserted via cache
hit/miss counters), damaged entries, seed-insensitive replicates, traced
scenarios and the CLI surface.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import pytest

import repro.experiments.engine as engine_module
import repro.experiments.registry as registry_module
from repro.backends.configs import GSliceConfig
from repro.experiments import cli
from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    KEY_PREFIX_LEN,
    expand_experiment,
    run_experiment,
    run_shard,
    shard_for_key,
)
from repro.experiments.parallel import ScenarioRequest, _run_request
from repro.experiments.registry import ExperimentPlan, ExperimentSpec
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


def _split_shard_count(spec: ExperimentSpec, seeds: int, max_shards: int = 64) -> int:
    """Smallest shard count that actually splits this grid's keys."""
    keys = {request.cache_key() for request in expand_experiment(spec, seeds=seeds).requests}
    for num_shards in range(2, max_shards):
        if len({shard_for_key(key, num_shards) for key in keys}) >= 2:
            return num_shards
    pytest.fail("grid keys never split across shards")


def _shard_caches(tmp_path, num_shards: int):
    return [ResultCache(tmp_path / f"shard-{index}") for index in range(num_shards)]


def _merge(caches, merged_dir) -> ResultCache:
    """Merge shard caches the way a user does: copy the directories into one."""
    for cache in caches:
        if cache.exists():  # a shard that owns nothing writes nothing
            shutil.copytree(cache.cache_dir, merged_dir, dirs_exist_ok=True)
    return ResultCache(merged_dir)


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

    num_shards = _split_shard_count(spec, seeds=2)
    caches = _shard_caches(tmp_path, num_shards)
    reports = [
        run_shard([spec], shard, num_shards, seeds=2, processes=1, cache=caches[shard])
        for shard in range(num_shards)
    ]
    assert all(report.total == 4 for report in reports)
    assert sum(report.owned for report in reports) == 4
    assert sum(report.simulated for report in reports) == 4

    merged = _merge(caches, tmp_path / "merged")
    report = run_experiment(spec, quick=True, seeds=2, processes=1, cache=merged)
    assert report.simulated == 0 and (merged.hits, merged.misses) == (4, 0)
    assert report.rows == baseline.rows
    assert report.rows_by_seed == baseline.rows_by_seed
    # byte-identical, not approximately equal
    assert json.dumps(report.rows) == json.dumps(baseline.rows)


def test_rerunning_a_complete_shard_simulates_nothing(tmp_path):
    spec = _tiny_spec()
    first = run_shard([spec], 0, 1, seeds=2, processes=1, cache=ResultCache(tmp_path))
    assert (first.owned, first.from_cache, first.simulated) == (4, 0, 4)
    cache = ResultCache(tmp_path)
    second = run_shard([spec], 0, 1, seeds=2, processes=1, cache=cache)
    assert (second.owned, second.from_cache, second.simulated) == (4, 4, 0)
    assert (cache.hits, cache.misses) == (4, 0)


# ---------------------------------------------------------------------- resume


def test_killed_shard_resumes_only_uncommitted_scenarios(tmp_path, monkeypatch):
    """Acceptance: after a mid-run kill, a re-run simulates exactly the
    scenarios the cache lacks (cache counters prove no re-work)."""
    spec = _tiny_spec()

    def _killed_after_one(requests, processes=None, on_result=None):
        on_result(0, _run_request(requests[0]))  # one scenario reaches the cache ...
        raise KeyboardInterrupt  # ... then the machine dies

    monkeypatch.setattr(engine_module, "run_scenarios_parallel", _killed_after_one)
    with pytest.raises(KeyboardInterrupt):
        run_shard([spec], 0, 1, seeds=2, processes=1, cache=ResultCache(tmp_path))
    monkeypatch.undo()
    assert len(ResultCache(tmp_path)) == 1  # the in-flight rest was lost

    resume_cache = ResultCache(tmp_path)
    report = run_shard([spec], 0, 1, seeds=2, processes=1, cache=resume_cache)
    assert (report.from_cache, report.simulated) == (1, 3)
    assert (resume_cache.hits, resume_cache.misses) == (1, 3)


def test_corrupt_cache_payload_degrades_to_resimulation(tmp_path):
    """A cache entry with a valid envelope but a damaged result payload must
    cost a shard a re-simulation, not poison the merged rows."""
    spec = _tiny_spec()
    cache = ResultCache(tmp_path)
    for request in expand_experiment(spec).requests:  # plant damaged entries
        key = request.cache_key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"entry_schema": 1, "key": key, "result": {"label": "broken"}}))
    report = run_shard([spec], 0, 1, processes=1, cache=cache)
    assert (report.from_cache, report.simulated) == (0, 2)
    merged = run_experiment(spec, processes=1, cache=ResultCache(tmp_path))
    assert merged.simulated == 0
    assert merged.rows == run_experiment(spec, processes=1).rows


# ----------------------------------------------------------------------- merge


def test_merge_of_incomplete_sweep_raises_then_simulates_on_request(
    tmp_path, monkeypatch, capsys
):
    """`run --expect-cached` over a merge that lacks a shard simulates exactly
    the missing scenarios and exits 3; a repeat is served from the cache."""
    spec = _tiny_spec()
    monkeypatch.setitem(registry_module._REGISTRY, spec.name, spec)
    num_shards = _split_shard_count(spec, seeds=2)
    caches = _shard_caches(tmp_path, num_shards)
    first_key = expand_experiment(spec, seeds=2).requests[0].cache_key()
    owner = shard_for_key(first_key, num_shards)  # run one shard, leave the rest
    ran = run_shard([spec], owner, num_shards, seeds=2, processes=1, cache=caches[owner])
    missing = ran.total - ran.owned
    assert ran.owned > 0 and missing > 0

    merged = _merge(caches, tmp_path / "merged")
    argv = ["run", spec.name, "--seeds", "2", "--jobs", "1",
            "--cache-dir", str(merged.cache_dir), "--expect-cached"]
    assert cli.main(argv) == cli.EXIT_NOT_CACHED
    captured = capsys.readouterr()
    assert f"{ran.owned} scenario(s) from cache, {missing} simulated" in captured.out
    assert f"--expect-cached: {missing} scenario(s) had to be simulated" in captured.err
    assert cli.main(argv) == cli.EXIT_OK
    assert "4 scenario(s) from cache, 0 simulated" in capsys.readouterr().out


def test_merge_simulates_a_request_its_replicates_share_once(tmp_path, executed_requests):
    """Regression: merging shards simulated a seed-insensitive request (here
    a saturated GSlice server) once per seed replicate.  Its shard runs it
    once, and so does a run over a merge that lacks it."""
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
    assert len(expand_experiment(spec, seeds=2).requests) == 2
    shard_cache = ResultCache(tmp_path / "shard")
    report = run_shard([spec], 0, 1, seeds=2, processes=1, cache=shard_cache)
    assert executed_requests == [request]
    assert (report.total, report.owned, report.simulated) == (1, 1, 1)

    del executed_requests[:]
    merged = run_experiment(spec, seeds=2, processes=1, cache=ResultCache(tmp_path / "merged"))
    assert executed_requests == [request] and merged.simulated == 1
    assert merged.rows == run_experiment(spec, seeds=2, cache=shard_cache).rows


def test_traced_scenarios_shard_commit_and_merge_without_simulating(tmp_path):
    spec = _tiny_spec(with_trace=True)  # its rows assert each result's trace
    caches = _shard_caches(tmp_path, 2)
    owned = 0
    for shard_index in range(2):
        report = run_shard([spec], shard_index, 2, processes=1, cache=caches[shard_index])
        assert report.from_cache == 0 and report.simulated == report.owned
        owned += report.owned
    assert owned == 2

    merged = _merge(caches, tmp_path / "merged")
    report = run_experiment(spec, processes=1, cache=merged)
    assert report.simulated == 0 and (merged.hits, merged.misses) == (2, 0)
    assert report.rows == run_experiment(spec, processes=1).rows


# ------------------------------------------------------------------------- CLI


def test_cli_sweep_round_trip_matches_run_output(tmp_path, capsys):
    """Acceptance (CLI face): shard 0/2 and shard 1/2, each in its own cache
    directory, merged by copying; `run --expect-cached --json` over the merge
    emits rows byte-identical to an uncached `run --json`."""
    common = ["sota", "--quick", "--seeds", "2", "--base-seed", "1", "--jobs", "1"]
    shard_dirs = [tmp_path / "shard-0", tmp_path / "shard-1"]
    assert cli.main(
        ["run", *common, "--shard", "0/2", "--cache-dir", str(shard_dirs[0])]
    ) == cli.EXIT_OK
    assert capsys.readouterr().out == (
        "shard 0/2: 3 of 9 scenario(s); 0 from cache, 3 simulated\n"
    )
    # --expect-cached on a cold shard counts what the shard simulated.
    assert cli.main(
        ["run", *common, "--shard", "1/2", "--cache-dir", str(shard_dirs[1]), "--expect-cached"]
    ) == cli.EXIT_NOT_CACHED
    captured = capsys.readouterr()
    assert captured.out == "shard 1/2: 6 of 9 scenario(s); 0 from cache, 6 simulated\n"
    assert "--expect-cached: 6 scenario(s) had to be simulated" in captured.err
    for index, shard_dir in enumerate(shard_dirs):
        assert cli.main(
            ["run", *common, "--shard", f"{index}/2", "--cache-dir", str(shard_dir),
             "--expect-cached"]
        ) == cli.EXIT_OK
        assert "0 simulated" in capsys.readouterr().out

    merged = tmp_path / "merged"
    for shard_dir in shard_dirs:
        shutil.copytree(shard_dir, merged, dirs_exist_ok=True)
    assert cli.main(
        ["run", *common, "--json", "--cache-dir", str(merged), "--expect-cached"]
    ) == cli.EXIT_OK
    merged_out = capsys.readouterr().out
    assert cli.main(["run", *common, "--json", "--no-cache"]) == cli.EXIT_OK
    run_out = capsys.readouterr().out
    assert merged_out == run_out  # byte-identical rows
    assert merged_out.strip()


def test_cli_reports_results_an_unwritable_cache_lost(tmp_path, monkeypatch, capsys):
    """A cache directory that is a regular file stores nothing.  A shard's
    entries are its only product, so `run --shard` names the lost results
    and exits 4; a plain `run` and `dse` warn once and keep their exit codes."""
    spec = _tiny_spec()
    monkeypatch.setitem(registry_module._REGISTRY, spec.name, spec)
    blocked = tmp_path / "cache"
    blocked.write_text("not a directory", encoding="utf-8")
    lost = f"2 simulated result(s) could not be written to the cache at {blocked}\n"
    argv = ["run", spec.name, "--jobs", "1", "--cache-dir", str(blocked)]

    assert cli.main([*argv, "--shard", "0/1"]) == cli.EXIT_NO_CACHE
    captured = capsys.readouterr()
    assert captured.out == "shard 0/1: 2 of 2 scenario(s); 0 from cache, 2 simulated\n"
    assert captured.err == f"shard 0/1: {lost}"

    assert cli.main(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "total: 1 experiment(s), 0 scenario(s) from cache, 2 simulated" in captured.out
    assert captured.err == f"warning: {lost}"

    dse = ["dse", "--scheduler", "clockwork", "--jobs", "1", "--cache-dir", str(blocked)]
    assert cli.main(dse) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "scenarios: 0 cached, 4 simulated" in captured.out
    assert captured.err == (
        f"warning: 4 simulated result(s) could not be written to the cache at {blocked}\n"
    )
    assert blocked.read_text(encoding="utf-8") == "not a directory"


def test_cli_shard_argument_is_validated(tmp_path, executed_requests):
    """Bad shard specs, `--shard` with `--no-cache` or `--json`, and the
    retired `sweep` command are usage errors raised before anything runs."""
    cache_dir = str(tmp_path / "cache")
    for argv in (
        *(["run", "sota", "--shard", bad] for bad in ("2/2", "-1/2", "x/2", "1", "1/0")),
        ["run", "sota", "--shard", "0/2", "--no-cache"],
        ["run", "sota", "--shard", "0/2", "--json"],
        ["sweep", "run", "sota", "--shard", "0/2"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--cache-dir", cache_dir])
        assert excinfo.value.code == 2, argv
    assert executed_requests == []
    assert not (tmp_path / "cache").exists()
