"""Tests for the fault-injection subsystem and its resilience plumbing.

Covers the :class:`FaultSpec` vocabulary (validation, round-trips, labels),
the :class:`FaultInjector` determinism contract (same seed + spec =>
bit-identical results, twice, on every backend), the cause-breakdown
accounting invariants, fingerprint/cache-key compatibility (fault-free
requests keep their pre-fault keys byte-identical), the ``faults``
experiment grid, and the crash-robustness satellites: cache-entry
quarantine and the parallel fan-out's pool-crash retry.
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os

import pytest

from repro.backends import get_backend
from repro.backends.configs import BatchingConfig, ClockworkConfig, GSliceConfig, SingleConfig
from repro.baselines.batching_server import BatchingServer
from repro.dnn.zoo import build_model
from repro.experiments.cache import ResultCache
from repro.experiments.engine import run_cached_scenarios, run_experiment, run_shard
from repro.experiments.parallel import ScenarioRequest, _run_request, run_scenarios_parallel
from repro.experiments.registry import ExperimentPlan, ExperimentSpec
from repro.experiments.scenarios import NAMED_FAULTS, fault_names, named_fault
from repro.rt.metrics import FaultImpact
from repro.rt.taskset import make_taskset, table2_taskset
from repro.scheduler.config import DarisConfig
from repro.sim.faults import (
    DEFAULT_POLICY,
    NO_FAULTS,
    CrashFault,
    FaultInjector,
    FaultSpec,
    LaunchFault,
    RequestFaults,
    ResiliencePolicy,
    SlowdownFault,
)
from repro.sim.workload import PERIODIC_WORKLOAD, POISSON_WORKLOAD, SATURATED_WORKLOAD

HORIZON = 600.0
DARIS_CONFIG = DarisConfig.mps_config(2, 2.0)

STORM = (
    FaultSpec.throttle(period_ms=300.0, duration_ms=60.0, factor=0.5)
    .with_launch(LaunchFault(failure_prob=0.08, retry_cost_ms=1.0))
    .with_crash(CrashFault(mtbf_ms=900.0, recovery_ms=25.0))
    .with_requests(RequestFaults(drop_prob=0.05, timeout_ms=250.0))
)


def _taskset():
    return table2_taskset("resnet18", scale=0.25)


# ----------------------------------------------------------------- FaultSpec


def test_fault_spec_defaults_and_labels():
    assert NO_FAULTS.is_default and not NO_FAULTS.active and not NO_FAULTS.randomized
    assert NO_FAULTS.label() == "none"
    assert STORM.active and STORM.randomized
    assert STORM.label() == "slowdown+launch+crash+requests"
    throttle = FaultSpec.throttle()
    assert throttle.label() == "slowdown" and not throttle.randomized


def test_fault_spec_round_trips_through_dict_and_fingerprint():
    for spec in (NO_FAULTS, STORM, *NAMED_FAULTS.values()):
        rebuilt = FaultSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.fingerprint() == spec.fingerprint()
    # Distinct specs fingerprint distinctly.
    prints = {json.dumps(spec.fingerprint(), sort_keys=True) for spec in NAMED_FAULTS.values()}
    assert len(prints) == len(NAMED_FAULTS)


def test_fault_component_validation():
    with pytest.raises(ValueError):
        SlowdownFault(period_ms=100.0, duration_ms=50.0, factor=0.0)
    with pytest.raises(ValueError):
        SlowdownFault(period_ms=-1.0, duration_ms=50.0, factor=0.5)
    with pytest.raises(ValueError):
        LaunchFault(failure_prob=1.5)
    with pytest.raises(ValueError):
        CrashFault(mtbf_ms=0.0)
    with pytest.raises(ValueError):
        RequestFaults(drop_prob=-0.1)


def test_randomized_spec_requires_an_rng():
    with pytest.raises(ValueError):
        FaultInjector(STORM, rng=None, policy=DEFAULT_POLICY)
    # Deterministic specs need no RNG at all.
    FaultInjector(FaultSpec.throttle(), rng=None, policy=DEFAULT_POLICY)


def test_named_fault_vocabulary():
    assert fault_names() == ["none", "throttle", "flaky-launch", "crashy", "lossy", "storm"]
    assert named_fault("none") is NO_FAULTS
    with pytest.raises(KeyError):
        named_fault("meteor-strike")


# --------------------------------------------------------------- fingerprints


def test_fault_free_fingerprint_and_cache_key_are_unchanged():
    """The acceptance pin: a request without faults fingerprints exactly as
    before the faults field existed, so every pre-existing cache key is
    byte-identical (the full pinned-hash set lives in test_backends.py)."""
    bare = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=3)
    explicit = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=3, faults=NO_FAULTS)
    assert "faults" not in bare.fingerprint()
    assert bare.cache_key() == explicit.cache_key()


def test_non_default_faults_change_the_cache_key():
    base = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=3)
    faulted = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=3, faults=STORM)
    assert faulted.fingerprint()["faults"] == STORM.fingerprint()
    assert base.cache_key() != faulted.cache_key()
    # Different profiles key differently too.
    lossy = ScenarioRequest(
        _taskset(), DARIS_CONFIG, HORIZON, seed=3, faults=named_fault("lossy")
    )
    assert len({base.cache_key(), faulted.cache_key(), lossy.cache_key()}) == 3


def test_randomized_faults_make_deterministic_backends_seed_sensitive():
    clockwork = get_backend("clockwork")
    assert not clockwork.seed_sensitive(PERIODIC_WORKLOAD)
    assert clockwork.seed_sensitive(PERIODIC_WORKLOAD, faults=STORM)
    # A deterministic fault profile adds no seed sensitivity.
    assert not clockwork.seed_sensitive(PERIODIC_WORKLOAD, faults=FaultSpec.throttle())


# ---------------------------------------------------------------- determinism


def _faulted_requests():
    taskset = _taskset()
    return [
        ScenarioRequest(taskset, DARIS_CONFIG, HORIZON, seed=7, faults=STORM),
        ScenarioRequest(
            taskset, DARIS_CONFIG, HORIZON, seed=7, scheduler="rtgpu",
            workload=POISSON_WORKLOAD, faults=STORM,
        ),
        ScenarioRequest(
            taskset, ClockworkConfig(), HORIZON, seed=7, scheduler="clockwork",
            workload=POISSON_WORKLOAD, faults=STORM,
        ),
        ScenarioRequest(
            taskset, SingleConfig(), HORIZON, seed=7, scheduler="single",
            workload=SATURATED_WORKLOAD, faults=STORM,
        ),
        ScenarioRequest(
            taskset, BatchingConfig(batch_size=8), HORIZON, seed=7,
            scheduler="batching_server", workload=POISSON_WORKLOAD, faults=STORM,
        ),
        ScenarioRequest(
            taskset, GSliceConfig(batch_sizes=(8,)), HORIZON, seed=7,
            scheduler="gslice", workload=SATURATED_WORKLOAD, faults=STORM,
        ),
    ]


def test_same_seed_and_fault_spec_is_bit_identical_twice_on_every_backend():
    for request in _faulted_requests():
        first = _run_request(request).metrics.to_dict()
        second = _run_request(request).metrics.to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True), (
            request.scheduler
        )


def test_faulted_metrics_round_trip_through_the_cache_format(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for request in _faulted_requests():
        result = _run_request(request)
        assert cache.put(request, result)
        cached = cache.get(request)
        assert cached is not None
        assert cached.metrics == result.metrics


# ----------------------------------------------------------------- accounting


def test_cause_breakdown_counts_sum_to_released_jobs():
    """On the DARIS-machinery backends every released request is accounted
    for exactly once: admitted + rejected + dropped == released, and the
    admitted split into on-time/missed/timed-out/failed/in-flight."""
    taskset = _taskset()
    for scheduler in ("daris", "rtgpu"):
        request = ScenarioRequest(
            taskset, DARIS_CONFIG, HORIZON, seed=7, scheduler=scheduler, faults=STORM
        )
        metrics = _run_request(request).metrics
        for bucket in (metrics.high, metrics.low):
            assert bucket.admitted + bucket.rejected + bucket.dropped == bucket.released
            assert bucket.shed <= bucket.rejected
            in_flight = bucket.admitted - bucket.completed - bucket.timed_out - bucket.failed
            assert in_flight >= 0
            assert (
                bucket.on_time + bucket.missed + bucket.timed_out + bucket.failed + in_flight
                == bucket.admitted
            )
        causes = metrics.cause_breakdown()
        released = metrics.high.released + metrics.low.released
        in_flight = causes["in_flight"]
        assert (
            causes["on_time"] + causes["missed"] + causes["timed_out"] + causes["failed"]
            + causes["dropped"] + causes["rejected"] + in_flight
            == released
        )


def test_fault_free_metrics_serialize_without_fault_keys():
    request = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=7)
    payload = _run_request(request).metrics.to_dict()
    assert "fault_impact" not in payload
    for bucket in ("high", "low"):
        for key in ("dropped", "shed", "timed_out", "failed", "launch_retries"):
            assert key not in payload[bucket]


def test_throttle_and_crashes_slow_the_single_executor_down():
    taskset = make_taskset([build_model("resnet18")], num_high=0, num_low=1, task_jps=1.0)

    def single(faults, seed=1):
        request = ScenarioRequest(
            taskset,
            SingleConfig(),
            HORIZON,
            seed=seed,
            scheduler="single",
            workload=SATURATED_WORKLOAD,
            faults=faults,
        )
        return get_backend("single").execute(request).metrics

    clean = single(NO_FAULTS)
    throttled = single(FaultSpec.throttle())
    crashy = single(FaultSpec.crashes(mtbf_ms=200.0, recovery_ms=20.0), seed=7)
    assert throttled.total_jps < clean.total_jps
    assert crashy.total_jps < clean.total_jps
    impact = throttled.fault_impact
    assert impact is not None and impact.episodes > 0 and impact.downtime_ms > 0
    assert clean.fault_impact is None


def test_client_timeouts_purge_stale_batching_queues():
    model = build_model("resnet18")
    server = BatchingServer(model, batch_size=32)
    outcome = server.run_with_arrivals(
        arrival_rate_jps=100.0,
        deadline_ms=50.0,
        horizon_ms=HORIZON,
        faults=FaultSpec.lossy(drop_prob=0.0, timeout_ms=5.0),
    )
    low = outcome.metrics.low
    assert low.timed_out > 0
    assert low.admitted == low.released  # drop_prob 0: everything admitted
    assert low.completed + low.timed_out <= low.admitted


def test_fault_impact_from_summary_handles_absent_telemetry():
    assert FaultImpact.from_summary(None) is None
    impact = FaultImpact.from_summary(
        {"episodes": 2, "downtime_ms": 120.0, "time_to_recover_ms": 3.5}
    )
    assert impact.episodes == 2 and impact.downtime_ms == 120.0
    assert FaultImpact.from_dict(impact.to_dict()) == impact


# ---------------------------------------------------------------- faults grid


def test_faults_grid_expands_runs_and_filters(tmp_path):
    from repro.experiments.engine import run_experiment

    def run_faults_grid(cache=None, scheduler=None, fault=None):
        params = {"scheduler": scheduler, "fault": fault}
        return run_experiment("faults", quick=True, cache=cache, params=params).rows

    rows = run_faults_grid(cache=str(tmp_path / "cache"), scheduler="daris", fault="lossy")
    assert len(rows) == 1
    row = rows[0]
    assert row["backend"] == "daris" and row["fault"] == "lossy"
    for key in ("jps", "goodput_jps", "on_time", "missed", "dropped", "shed",
                "timed_out", "failed", "retries", "episodes", "ttr_ms"):
        assert key in row
    assert row["dropped"] > 0  # the lossy profile actually drops requests

    with pytest.raises(KeyError):
        run_faults_grid(fault="meteor-strike")
    with pytest.raises(KeyError):
        run_faults_grid(scheduler="nosuch")


# ------------------------------------------------------- quarantine satellite


def test_corrupt_cache_entries_are_quarantined_and_rewritten(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    request = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=5)
    result = _run_request(request)
    assert cache.put(request, result)
    key = cache.key_for(request)
    path = cache.path_for(key)

    # Truncated JSON (a torn write) is a miss, quarantined aside.
    path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
    assert cache.get(request) is None
    quarantined = path.with_suffix(path.suffix + ".corrupt")
    assert quarantined.is_file() and not path.exists()
    # Quarantined files are invisible to key probes and entry counting.
    assert not cache.path_for(key).is_file()
    assert len(cache) == 0

    # Re-simulating rewrites a clean entry under the same key; the
    # quarantined bytes stay for post-mortem.
    assert cache.put(request, result)
    restored = cache.get(request)
    assert restored is not None and restored.metrics == result.metrics
    assert quarantined.is_file()


def test_unrebuildable_payloads_are_quarantined_too(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    request = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=5)
    assert cache.put(request, _run_request(request))
    key = cache.key_for(request)
    path = cache.path_for(key)
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["result"] = {"label": "x"}  # valid JSON, not a rebuildable result
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(request) is None
    assert path.with_suffix(path.suffix + ".corrupt").is_file()
    assert not path.exists()


@pytest.fixture(scope="module")
def traced_entry():
    """A traced request and its result, simulated once for the module."""
    request = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=5, with_trace=True)
    return request, _run_request(request)


def _ragged_column(trace):
    column = trace["stages"]["time_ms"]  # packed: drop its last float's 8 bytes
    column["<f8"] = base64.b64encode(base64.b64decode(column["<f8"])[:-8]).decode("ascii")


def _missing_column(trace):
    del trace["jobs"]["context_index"]


def _foreign_priority(trace):
    trace["stages"]["priority"][0] = 2


@pytest.mark.parametrize("damage", [_ragged_column, _missing_column, _foreign_priority])
def test_damaged_trace_columns_are_quarantined(tmp_path, traced_entry, damage):
    """A cached trace is checked column by column when the entry is read."""
    request, result = traced_entry
    cache = ResultCache(tmp_path / "cache")
    assert cache.put(request, result)
    path = cache.path_for(cache.key_for(request))
    entry = json.loads(path.read_text(encoding="utf-8"))
    damage(entry["result"]["trace"])
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(request) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert path.with_suffix(path.suffix + ".corrupt").is_file()
    assert not path.exists()


def _set_packed(payload):
    def damage(marker):
        assert set(marker) == {"<f8"}
        marker["<f8"] = payload

    return damage


# Packed float lists that do not decode: invalid base64, 7 bytes (not a
# whole float64), and a payload that is not text at all.
DAMAGED_PACKED_FLOATS = {
    "bad-base64": _set_packed("not base64!"),
    "seven-bytes": _set_packed(base64.b64encode(bytes(7)).decode("ascii")),
    "number": _set_packed(3),
}


@pytest.mark.parametrize(
    "damage", DAMAGED_PACKED_FLOATS.values(), ids=list(DAMAGED_PACKED_FLOATS)
)
def test_damaged_packed_floats_are_quarantined(tmp_path, untraced_entry, damage):
    """A packed float list that does not decode is one miss, quarantined."""
    request, result = untraced_entry
    cache = ResultCache(tmp_path / "cache")
    assert cache.put(request, result)
    path = cache.path_for(cache.key_for(request))
    entry = json.loads(path.read_text(encoding="utf-8"))
    damage(entry["result"]["metrics"]["high"]["response_times"])
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(request) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert path.with_suffix(path.suffix + ".corrupt").is_file()
    assert not path.exists()


@pytest.fixture(scope="module")
def untraced_entry():
    """An untraced request and its result, simulated once for the module."""
    request = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=5)
    return request, _run_request(request)


def _result_field_as_list(name):
    def damage(entry):
        entry["result"][name] = []
        return entry

    return damage


# Parseable entries of the wrong shape: what is left of an entry after a
# foreign writer or a bad edit, rather than a torn write.
WRONGLY_SHAPED = {
    "null": lambda entry: None,
    "number": lambda entry: 3,
    "string": lambda entry: "x",
    "array": lambda entry: [1, 2],
    "config-array": _result_field_as_list("config"),
    "metrics-array": _result_field_as_list("metrics"),
}


def _one_request_spec(request):
    return ExperimentSpec(
        name="one_request",
        title="one cached request",
        build=lambda ctx: ExperimentPlan(
            requests=[request],
            make_rows=lambda row_ctx: [{"jps": row_ctx.results[0].total_jps}],
        ),
    )


def _read_through_get(cache, request):
    assert cache.get(request) is None


def _read_through_sweep_run(cache, request):
    # One shard of a sweep: `run --shard 0/1`.
    report = run_shard([_one_request_spec(request)], 0, 1, processes=1, cache=cache)
    assert (report.from_cache, report.simulated) == (0, 1)


def _read_through_sweep_merge(cache, request):
    # Merged shards are read by a plain run over the merged cache.
    report = run_experiment(_one_request_spec(request), processes=1, cache=cache)
    assert (report.cache_hits, report.simulated) == (0, 1)


@pytest.mark.parametrize(
    "read",
    [_read_through_get, _read_through_sweep_run, _read_through_sweep_merge],
    ids=["get", "sweep-run", "sweep-merge"],
)
@pytest.mark.parametrize("damage", list(WRONGLY_SHAPED.values()), ids=list(WRONGLY_SHAPED))
def test_wrongly_shaped_entries_are_quarantined(tmp_path, untraced_entry, damage, read):
    """Valid JSON of the wrong shape is one miss and a re-simulation, never an abort."""
    request, result = untraced_entry
    cache = ResultCache(tmp_path / "cache")
    assert cache.put(request, result)
    path = cache.path_for(cache.key_for(request))
    entry = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(damage(entry)), encoding="utf-8")
    read(cache, request)
    assert (cache.hits, cache.misses) == (0, 1)
    assert path.with_suffix(path.suffix + ".corrupt").is_file()


@pytest.mark.parametrize("scan", ["size_bytes", "prune"])
def test_entries_gone_between_glob_and_stat_are_skipped(
    tmp_path, untraced_entry, monkeypatch, scan
):
    """Another process sharing the directory quarantines an entry mid-scan."""
    _, result = untraced_entry
    cache = ResultCache(tmp_path / "cache")
    for seed in (1, 2, 3):
        assert cache.put(ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=seed), result)
    entry_bytes = cache.size_bytes() // 3
    globbed = cache._entry_paths

    def racing_glob():
        for index, path in enumerate(globbed()):
            if index == 0:
                os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
            yield path

    monkeypatch.setattr(cache, "_entry_paths", racing_glob)
    if scan == "size_bytes":
        assert cache.size_bytes() == 2 * entry_bytes
    else:
        assert cache.prune(max_entries=0) == 2
        monkeypatch.undo()
        assert len(cache) == 0


def test_missing_entries_are_plain_misses_without_quarantine(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    request = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=5)
    assert cache.get(request) is None
    assert cache.misses == 1
    assert not list((tmp_path / "cache").glob("**/*.corrupt"))


def test_engine_resimulates_over_a_corrupted_entry(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    request = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=5)
    [first] = run_cached_scenarios([request], processes=1, cache=cache)
    path = cache.path_for(cache.key_for(request))
    path.write_text("{ not json", encoding="utf-8")
    [second] = run_cached_scenarios([request], processes=1, cache=cache)
    assert second.metrics == first.metrics
    # The entry was rewritten clean: a third pass is a pure hit.
    hits_before = cache.hits
    [third] = run_cached_scenarios([request], processes=1, cache=cache)
    assert cache.hits == hits_before + 1
    assert third.metrics == first.metrics


# ------------------------------------------------------- pool-crash satellite


class _CrashOncePool:
    """Fake multiprocessing pool: dies once mid-stream, then works."""

    crashed = False

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def imap(self, fn, batch, chunksize=1):
        for index, item in enumerate(batch):
            if not _CrashOncePool.crashed and index == 1:
                _CrashOncePool.crashed = True
                raise EOFError("worker process died")
            yield fn(item)

    def imap_unordered(self, fn, batch, chunksize=1):
        return self.imap(fn, batch, chunksize)


class _AlwaysCrashPool(_CrashOncePool):
    def imap(self, fn, batch, chunksize=1):
        raise EOFError("worker process died")
        yield  # pragma: no cover


class _FakeContext:
    def __init__(self, pool_type):
        self.pool_type = pool_type

    def Pool(self, processes):
        return self.pool_type(processes)


def test_pool_crash_retries_undelivered_scenarios_once(monkeypatch):
    _CrashOncePool.crashed = False
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda: _FakeContext(_CrashOncePool)
    )
    taskset = _taskset()
    requests = [
        ScenarioRequest(taskset, DARIS_CONFIG, HORIZON, seed=seed) for seed in (1, 2, 3)
    ]
    seen = []
    results = run_scenarios_parallel(
        requests, processes=2, on_result=lambda index, result: seen.append(index)
    )
    assert all(result is not None for result in results)
    assert sorted(seen) == [0, 1, 2]  # each scenario delivered exactly once
    serial = [_run_request(request) for request in requests]
    for parallel_result, serial_result in zip(results, serial):
        assert parallel_result.metrics == serial_result.metrics  # retry is bit-identical


def test_second_pool_crash_propagates(monkeypatch):
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda: _FakeContext(_AlwaysCrashPool)
    )
    taskset = _taskset()
    requests = [
        ScenarioRequest(taskset, DARIS_CONFIG, HORIZON, seed=seed) for seed in (1, 2)
    ]
    with pytest.raises(EOFError):
        run_scenarios_parallel(requests, processes=2)
