"""Tests for the pluggable scheduler-backend API.

Covers the backend registry and protocol (validation, dispatch), the
canonical backend configs (round-trips, kind dispatch), the WorkloadSpec
vocabulary, the backward-compatible request fingerprints, the typed baseline
results, and the migrated SOTA comparison (engine rows numerically equivalent
to direct baseline calls).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.backends import backend_names, get_backend
from repro.backends.base import BackendRequestError
from repro.backends.configs import (
    BatchingConfig,
    ClockworkConfig,
    GSliceConfig,
    SingleConfig,
    config_from_dict,
)
from repro.baselines.batching_server import BatchingServer
from repro.baselines.gslice import GSliceServer
from repro.baselines.results import accepted_miss_rate
from repro.cluster.config import ClusterConfig
from repro.cluster.server import ClusterServer
from repro.experiments.engine import run_cached_scenarios, run_experiment
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.runner import ScenarioResult, run_daris_scenario
from repro.experiments.scenarios import load_scaled_taskset
from repro.dnn.zoo import build_model
from repro.rt.taskset import make_taskset, mixed_taskset, table2_taskset
from repro.scheduler.config import DarisConfig
from repro.sim.workload import (
    PERIODIC_WORKLOAD,
    POISSON_WORKLOAD,
    SATURATED_WORKLOAD,
    WorkloadSpec,
)

HORIZON = 600.0
DARIS_CONFIG = DarisConfig.mps_config(2, 2.0)


def _taskset():
    return table2_taskset("resnet18", scale=0.25)


# ------------------------------------------------------------------- registry


def test_registry_lists_the_builtin_backends():
    assert backend_names() == [
        "daris",
        "batching_server",
        "clockwork",
        "gslice",
        "rtgpu",
        "single",
        "cluster",
    ]


def test_unknown_backend_raises_with_the_registered_list():
    with pytest.raises(KeyError) as excinfo:
        get_backend("tetris")
    message = str(excinfo.value)
    assert "tetris" in message and "daris" in message and "clockwork" in message


def test_backend_declarations_are_consistent():
    from repro.sim.workload import ARRIVAL_KINDS

    for name in backend_names():
        backend = get_backend(name)
        assert backend.name == name
        assert backend.title
        assert backend.supported_arrivals
        assert set(backend.supported_arrivals) <= set(ARRIVAL_KINDS)


# ------------------------------------------------------------------- workloads


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(arrival="sawtooth")  # unknown kind lists the vocabulary
    with pytest.raises(ValueError):
        WorkloadSpec(jitter_ms=-1.0)
    with pytest.raises(ValueError):
        WorkloadSpec(arrival="saturated", jitter_ms=2.0)  # not rate-driven
    with pytest.raises(ValueError):
        SATURATED_WORKLOAD.with_diurnal()  # not rate-driven
    with pytest.raises(ValueError):
        WorkloadSpec.trace([])  # a trace needs at least one release
    with pytest.raises(ValueError):
        WorkloadSpec.trace([3.0, 1.0])  # trace times must be sorted
    with pytest.raises(ValueError):
        WorkloadSpec.mmpp(rate_factors=(1.0,), dwell_ms=(10.0,))  # >= 2 phases
    with pytest.raises(ValueError):
        POISSON_WORKLOAD.with_diurnal(amplitude=1.5)  # amplitude in [0, 1)
    with pytest.raises(ValueError):
        POISSON_WORKLOAD.with_diurnal(shape="piecewise")  # levels required
    with pytest.raises(ValueError):
        POISSON_WORKLOAD.with_diurnal(levels=(1.0, 2.0))  # levels are piecewise-only
    # Jitter now composes with any rate-driven base, not just periodic.
    assert WorkloadSpec(arrival="poisson", jitter_ms=2.0).randomized
    assert WorkloadSpec().is_default
    assert not WorkloadSpec(jitter_ms=1.0).is_default
    assert SATURATED_WORKLOAD.saturated and not POISSON_WORKLOAD.saturated


def test_workload_spec_round_trips_and_labels():
    from repro.sim.workload import DIURNAL_WORKLOAD, MMPP_WORKLOAD

    for workload in (
        PERIODIC_WORKLOAD,
        POISSON_WORKLOAD,
        SATURATED_WORKLOAD,
        WorkloadSpec(jitter_ms=2.5),
        MMPP_WORKLOAD,
        DIURNAL_WORKLOAD,
        WorkloadSpec.mmpp(rate_factors=(0.1, 1.0, 4.0), dwell_ms=(300.0, 200.0, 50.0)),
        WorkloadSpec.trace([0.0, 4.5, 9.0]),
        POISSON_WORKLOAD.with_diurnal(shape="piecewise", levels=(0.25, 1.0, 2.75)),
        MMPP_WORKLOAD.with_jitter(1.5),
    ):
        restored = WorkloadSpec.from_dict(json.loads(json.dumps(workload.to_dict())))
        assert restored == workload
    assert WorkloadSpec(jitter_ms=2.5).label() == "periodic+j2.5"
    assert POISSON_WORKLOAD.label() == "poisson"
    assert MMPP_WORKLOAD.label() == "mmpp"
    assert DIURNAL_WORKLOAD.label() == "poisson+diurnal"
    assert MMPP_WORKLOAD.with_jitter(1.5).label() == "mmpp+j1.5"
    assert WorkloadSpec.trace([1.0]).label() == "trace"


def test_workload_from_dict_tolerates_missing_optional_keys():
    """Satellite: older serialized specs (and hand-written JSON grids) that
    predate a field keep loading — absent keys fall back to the defaults."""
    assert WorkloadSpec.from_dict({"arrival": "poisson"}) == POISSON_WORKLOAD
    assert WorkloadSpec.from_dict({}) == PERIODIC_WORKLOAD
    # A parameterized kind with its params key absent gets the default params.
    from repro.sim.workload import MMPP_WORKLOAD

    assert WorkloadSpec.from_dict({"arrival": "mmpp"}) == MMPP_WORKLOAD
    # Unknown arrival kinds still fail loudly, listing the vocabulary.
    with pytest.raises(ValueError, match="periodic"):
        WorkloadSpec.from_dict({"arrival": "sawtooth"})


def test_backend_config_from_dict_tolerates_missing_optional_keys():
    """The same forward-compatibility rule applies to backend configs."""
    assert BatchingConfig.from_dict({"kind": "batching_server"}) == BatchingConfig()
    assert config_from_dict({"kind": "batching_server", "batch_size": 4}) == BatchingConfig(
        batch_size=4
    )


def test_saturated_workload_has_no_arrival_process():
    with pytest.raises(ValueError):
        SATURATED_WORKLOAD.arrival_for_task(period_ms=10.0)


# ------------------------------------------------------------------- configs


def test_backend_configs_round_trip_with_kind_dispatch():
    configs = [
        ClockworkConfig(),
        SingleConfig(),
        BatchingConfig(batch_size=8, timeout_ms=5.0),
        BatchingConfig(),  # batch 0 = the model's preferred size
        GSliceConfig(batch_sizes=(8, 2)),
        GSliceConfig(),
    ]
    for config in configs:
        data = json.loads(json.dumps(config.to_dict()))
        assert data["kind"]
        restored = config_from_dict(data)
        assert restored == config and type(restored) is type(config)


def test_untagged_config_dictionaries_are_daris():
    restored = config_from_dict(DARIS_CONFIG.to_dict())
    assert restored == DARIS_CONFIG
    with pytest.raises(KeyError):
        config_from_dict({"kind": "tetris"})


def test_config_validation():
    with pytest.raises(ValueError):
        BatchingConfig(batch_size=-1)
    with pytest.raises(ValueError):
        BatchingConfig(batch_size=4, timeout_ms=0.0)
    with pytest.raises(ValueError):
        GSliceConfig(batch_sizes=(0,))


# --------------------------------------------------------- request validation


def test_backend_rejects_wrong_config_type():
    request = ScenarioRequest(
        _taskset(), ClockworkConfig(), HORIZON, scheduler="daris"
    )
    with pytest.raises(BackendRequestError):
        get_backend("daris").execute(request)


def test_backend_rejects_unsupported_workload():
    request = ScenarioRequest(
        _taskset(), DARIS_CONFIG, HORIZON, scheduler="daris", workload=SATURATED_WORKLOAD
    )
    with pytest.raises(BackendRequestError):
        get_backend("daris").execute(request)
    request = ScenarioRequest(
        _taskset(), SingleConfig(), HORIZON, scheduler="single", workload=POISSON_WORKLOAD
    )
    with pytest.raises(BackendRequestError):
        get_backend("single").execute(request)


@pytest.mark.parametrize("scheduler", ["daris", "rtgpu"])
def test_daris_family_rejects_horizons_within_the_warmup(scheduler):
    """The metrics exclude ``config.warmup_ms``; a horizon at or below it is
    rejected up front instead of raising mid-run from the metrics layer."""
    warmup = DARIS_CONFIG.warmup_ms
    for horizon in (warmup, warmup / 2):
        request = ScenarioRequest(
            _taskset(), DARIS_CONFIG, horizon, scheduler=scheduler
        )
        with pytest.raises(BackendRequestError, match="warm-up"):
            get_backend(scheduler).validate_request(request)
    request = ScenarioRequest(_taskset(), DARIS_CONFIG, warmup + 1.0, scheduler=scheduler)
    get_backend(scheduler).validate_request(request)


@pytest.mark.parametrize("horizon", [0.0, -5.0, float("nan"), float("inf")])
@pytest.mark.parametrize("scheduler", backend_names())
def test_every_backend_rejects_a_horizon_that_is_not_finite_and_positive(
    scheduler, horizon, monkeypatch
):
    """Zero, negative, NaN and infinite horizons fail validation, never a run."""
    backend = get_backend(scheduler)
    workload = {
        "periodic": PERIODIC_WORKLOAD,
        "saturated": SATURATED_WORKLOAD,
    }[backend.supported_arrivals[0]]
    request = ScenarioRequest(
        _taskset(), _grid_config_for(scheduler), HORIZON, scheduler=scheduler, workload=workload
    )
    backend.validate_request(request)  # the same request with a valid horizon passes

    def must_not_run(self, request):
        raise AssertionError("an invalid horizon reached run()")

    monkeypatch.setattr(type(backend), "run", must_not_run)
    bad = dataclasses.replace(request, horizon_ms=horizon)
    with pytest.raises(BackendRequestError, match="horizon_ms"):
        backend.validate_request(bad)
    with pytest.raises(BackendRequestError, match="horizon_ms"):
        backend.execute(bad)


def test_only_daris_records_traces():
    request = ScenarioRequest(
        _taskset(), ClockworkConfig(), HORIZON, scheduler="clockwork", with_trace=True
    )
    with pytest.raises(BackendRequestError):
        get_backend("clockwork").execute(request)


def test_single_model_backends_reject_mixed_tasksets():
    request = ScenarioRequest(
        mixed_taskset(scale=0.2),
        SingleConfig(),
        HORIZON,
        scheduler="single",
        workload=SATURATED_WORKLOAD,
    )
    with pytest.raises(BackendRequestError):
        get_backend("single").execute(request)


def test_gslice_serves_every_model_of_a_mixed_taskset():
    request = ScenarioRequest(
        mixed_taskset(scale=0.2),
        GSliceConfig(),
        HORIZON,
        scheduler="gslice",
        workload=SATURATED_WORKLOAD,
    )
    result = get_backend("gslice").execute(request)
    assert len(result.metrics.per_task_completed) == 3
    assert result.total_jps > 0


# ------------------------------------------------------ fingerprints / cache


def test_default_request_fingerprint_is_unchanged_by_the_backend_fields():
    """Backward compatibility: a plain DARIS request fingerprints exactly as
    it did before the scheduler/workload fields existed, so existing caches
    stay valid."""
    request = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=3)
    fingerprint = request.fingerprint()
    assert "scheduler" not in fingerprint and "workload" not in fingerprint
    assert fingerprint == {
        "schema": 1,
        "taskset": request.taskset.fingerprint(),
        "config": DARIS_CONFIG.to_dict(),
        "horizon_ms": HORIZON,
        "seed": 3,
        "with_trace": False,
        "label": None,
        "gpu": request.gpu.to_dict(),
        "calibration": request.calibration.to_dict(),
    }


def test_non_default_scheduler_and_workload_change_the_cache_key():
    base = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=3)
    rtgpu = ScenarioRequest(_taskset(), DARIS_CONFIG, HORIZON, seed=3, scheduler="rtgpu")
    poisson = ScenarioRequest(
        _taskset(), DARIS_CONFIG, HORIZON, seed=3, workload=POISSON_WORKLOAD
    )
    assert "scheduler" in rtgpu.fingerprint() and "workload" in poisson.fingerprint()
    assert len({base.cache_key(), rtgpu.cache_key(), poisson.cache_key()}) == 3


#: Acceptance pin: cache keys computed on the PR 4 flat-WorkloadSpec code for
#: every pre-hierarchy request shape.  The composable spec layer must keep
#: them byte-identical so no existing cache entry is invalidated.
PINNED_PR4_CACHE_KEYS = {
    "default_periodic": "d7f9a8c7ffc922264810ee3c58fbe5da9aff17841e71f5663f675cea64003bc7",
    "periodic_jitter": "6dbd3fa2edfe068cfa3d03a30102967c96faa86a035fc17a2322c38429c0f149",
    "poisson": "4a77aabd4e68275d60cd384a6602b8f0033bbabd04cf42cf3ba130d52dc1c202",
    "rtgpu_poisson": "d8f0e1b4af53db97634c85734b8b2ef9e8f4e216cc2b3d03340a1836b979c9f5",
    "single_saturated": "37ff5f2b8b511db38201b2aa033f1b3ebd6448754ff01e11b638157ef190f366",
    "batching_saturated": "f9622b4cf74e18b7d7f03da25c5044cae60b2301b4e99c902d4e4098c05526a3",
}


def test_pre_existing_request_cache_keys_are_pinned():
    taskset = _taskset()
    requests = {
        "default_periodic": ScenarioRequest(taskset, DARIS_CONFIG, HORIZON, seed=3),
        "periodic_jitter": ScenarioRequest(
            taskset, DARIS_CONFIG, HORIZON, seed=3, workload=WorkloadSpec(jitter_ms=2.5)
        ),
        "poisson": ScenarioRequest(
            taskset, DARIS_CONFIG, HORIZON, seed=3, workload=POISSON_WORKLOAD
        ),
        "rtgpu_poisson": ScenarioRequest(
            taskset, DARIS_CONFIG, HORIZON, seed=3, scheduler="rtgpu", workload=POISSON_WORKLOAD
        ),
        "single_saturated": ScenarioRequest(
            taskset,
            SingleConfig(),
            HORIZON,
            seed=3,
            scheduler="single",
            workload=SATURATED_WORKLOAD,
        ),
        "batching_saturated": ScenarioRequest(
            taskset,
            BatchingConfig(batch_size=8),
            HORIZON,
            seed=3,
            scheduler="batching_server",
            workload=SATURATED_WORKLOAD,
        ),
    }
    assert {name: request.cache_key() for name, request in requests.items()} == (
        PINNED_PR4_CACHE_KEYS
    )


def test_flat_workload_fingerprints_are_byte_identical_to_pr4():
    """The serialized shape itself (not just the hash) matches the flat spec."""
    assert PERIODIC_WORKLOAD.to_dict() == {"arrival": "periodic", "jitter_ms": 0.0}
    assert POISSON_WORKLOAD.to_dict() == {"arrival": "poisson", "jitter_ms": 0.0}
    assert SATURATED_WORKLOAD.to_dict() == {"arrival": "saturated", "jitter_ms": 0.0}
    assert WorkloadSpec(jitter_ms=2.5).to_dict() == {
        "arrival": "periodic",
        "jitter_ms": 2.5,
    }


def test_new_workload_kinds_produce_distinct_round_trippable_fingerprints():
    from repro.sim.workload import DIURNAL_WORKLOAD, MMPP_WORKLOAD

    taskset = _taskset()
    specs = [
        MMPP_WORKLOAD,
        WorkloadSpec.mmpp(rate_factors=(0.1, 5.0), dwell_ms=(100.0, 100.0)),
        MMPP_WORKLOAD.with_jitter(1.0),
        DIURNAL_WORKLOAD,
        POISSON_WORKLOAD.with_diurnal(shape="piecewise", levels=(0.5, 1.5)),
        WorkloadSpec.trace([0.0, 10.0, 20.0]),
        WorkloadSpec.trace([0.0, 10.0, 21.0]),
    ]
    keys = set()
    for workload in specs:
        request = ScenarioRequest(taskset, DARIS_CONFIG, HORIZON, seed=3, workload=workload)
        assert "workload" in request.fingerprint()
        keys.add(request.cache_key())
        restored = WorkloadSpec.from_dict(
            json.loads(json.dumps(request.fingerprint()["workload"]))
        )
        assert restored == workload
    assert len(keys) == len(specs)  # every new shape is its own cache entry


def test_baseline_results_round_trip_through_the_cache_format():
    for scheduler, config, workload in (
        ("clockwork", ClockworkConfig(), PERIODIC_WORKLOAD),
        ("gslice", GSliceConfig(batch_sizes=(4,)), SATURATED_WORKLOAD),
        ("batching_server", BatchingConfig(batch_size=4), POISSON_WORKLOAD),
    ):
        request = ScenarioRequest(
            _taskset(), config, HORIZON, seed=2, scheduler=scheduler, workload=workload
        )
        result = get_backend(scheduler).execute(request)
        restored = ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result  # config, label and metrics, float-exact


def _grid_config_for(backend_name: str):
    return {
        "daris": DARIS_CONFIG,
        "rtgpu": DARIS_CONFIG,
        "clockwork": ClockworkConfig(),
        "batching_server": BatchingConfig(batch_size=4),
        "single": SingleConfig(),
        "gslice": GSliceConfig(),
        "cluster": ClusterConfig(),
    }[backend_name]


def test_new_workload_kinds_run_deterministically_on_every_backend():
    """Acceptance: mmpp, trace and diurnal workloads run bit-identically for
    a fixed seed on every registered backend that supports their base kind."""
    from repro.sim.workload import DIURNAL_WORKLOAD, MMPP_WORKLOAD

    taskset = _taskset()
    workloads = (MMPP_WORKLOAD, DIURNAL_WORKLOAD, WorkloadSpec.trace(
        [7.5 * index for index in range(40)]
    ))
    covered = 0
    for name in backend_names():
        backend = get_backend(name)
        for workload in workloads:
            if workload.arrival not in backend.supported_arrivals:
                continue
            request = ScenarioRequest(
                taskset,
                _grid_config_for(name),
                HORIZON,
                seed=5,
                scheduler=name,
                workload=workload,
            )
            first = backend.execute(request)
            second = backend.execute(request)
            assert first.metrics == second.metrics, (name, workload.label())
            covered += 1
    # daris/rtgpu/clockwork/batching_server/cluster each cover all three kinds.
    assert covered == 15


# ------------------------------------------------------ typed baseline results


def _clockwork_metrics(taskset, **kwargs):
    request = ScenarioRequest(
        taskset, ClockworkConfig(), HORIZON, scheduler="clockwork", **kwargs
    )
    return get_backend("clockwork").execute(request).metrics


def test_clockwork_backend_reports_single_gpu_metrics(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.25)
    metrics = _clockwork_metrics(taskset)
    assert metrics.total_jps > 0
    assert 0.0 <= accepted_miss_rate(metrics) <= 1.0
    # The one-GPU cluster underneath reports like any single-device backend.
    assert metrics.gpu_breakdown is None
    assert metrics.average_gpu_utilization == 0.0


def test_gslice_typed_result(resnet18):
    outcome = GSliceServer([resnet18], batch_sizes=[4]).run_saturated(HORIZON)
    assert outcome.total_jps == pytest.approx(outcome.per_model_jps["resnet18"])


def test_single_backend_metrics_count_every_completed_job(resnet18):
    taskset = make_taskset([resnet18], num_high=0, num_low=1, task_jps=1.0)
    request = ScenarioRequest(
        taskset, SingleConfig(), HORIZON, scheduler="single", workload=SATURATED_WORKLOAD
    )
    metrics = get_backend("single").execute(request).metrics
    assert metrics.low.completed == int(round(metrics.total_jps * HORIZON / 1000.0))
    assert len(metrics.low.response_times) == metrics.low.completed


def test_batching_arrivals_typed_result(resnet18):
    server = BatchingServer(resnet18, batch_size=8)
    outcome = server.run_with_arrivals(
        arrival_rate_jps=100.0, deadline_ms=20.0, horizon_ms=HORIZON
    )
    assert outcome.completed == outcome.metrics.total_completed
    assert outcome.throughput_jps == outcome.metrics.total_jps
    assert outcome.deadline_miss_rate == outcome.metrics.overall_dmr


# ------------------------------------------------------------ sota / the grid


def test_sota_engine_rows_match_legacy_direct_baseline_calls():
    """Acceptance: the migrated sota spec produces the same numbers the
    pre-backend implementation computed by calling each baseline's bespoke
    entry point directly (same seeds, float-exact)."""
    model = build_model("resnet50")
    taskset = load_scaled_taskset(model, 1.5, name="resnet50-sota")
    seed = 1

    requests = [
        ScenarioRequest(
            taskset,
            BatchingConfig(batch_size=16),
            HORIZON,
            seed=seed,
            scheduler="batching_server",
            workload=SATURATED_WORKLOAD,
        ),
        ScenarioRequest(
            taskset,
            GSliceConfig(batch_sizes=(16,)),
            HORIZON,
            seed=seed,
            scheduler="gslice",
            workload=SATURATED_WORKLOAD,
        ),
        ScenarioRequest(
            taskset, ClockworkConfig(), HORIZON, seed=seed, scheduler="clockwork"
        ),
        ScenarioRequest(
            taskset,
            DarisConfig.mps_config(6, 6.0),
            HORIZON,
            seed=seed,
            scheduler="rtgpu",
        ),
    ]
    batching, gslice, clockwork, rtgpu = run_cached_scenarios(requests, processes=1)

    assert batching.metrics == GSliceServer([model], batch_sizes=[16]).run_saturated(
        HORIZON
    ).metrics
    assert gslice.total_jps == GSliceServer([model], batch_sizes=[16]).run_saturated(
        HORIZON
    ).total_jps
    direct_clockwork = ClusterServer(ClusterConfig(num_gpus=1)).serve(taskset, HORIZON)
    assert clockwork.total_jps == direct_clockwork.total_jps
    priorities_off = DarisConfig.mps_config(6, 6.0).with_overrides(
        fixed_priority_levels=False,
        prioritize_last_stage=False,
        boost_missed_predecessor=False,
        hp_admission=True,
    )
    legacy_rtgpu = run_daris_scenario(taskset, priorities_off, HORIZON, seed=seed)
    assert rtgpu.metrics == legacy_rtgpu.metrics


def test_backend_grid_spec_expands_and_filters(tmp_path):
    from repro.experiments.engine import expand_experiment

    full = expand_experiment("backends", quick=True)
    grid_backends = {request.scheduler for request in full.requests}
    # The cluster backend has its own dedicated grid (the ``cluster``
    # experiment); the single-GPU backend grid covers everything else.
    assert grid_backends == set(backend_names()) - {"cluster"}
    assert {request.workload.arrival for request in full.requests} == {
        "saturated",
        "poisson",
        "mmpp",
    }
    assert {request.workload.label() for request in full.requests} == {
        "saturated",
        "poisson",
        "mmpp",
        "poisson+diurnal",
    }

    filtered = expand_experiment(
        "backends", quick=True, params={"scheduler": "clockwork"}
    )
    assert filtered.requests
    assert {request.scheduler for request in filtered.requests} == {"clockwork"}

    bursty = expand_experiment("backends", quick=True, params={"workload": "bursty"})
    assert bursty.requests
    assert {request.workload.arrival for request in bursty.requests} == {"mmpp"}
    diurnal = expand_experiment("backends", quick=True, params={"workload": "diurnal"})
    assert {request.workload.label() for request in diurnal.requests} == {
        "poisson+diurnal"
    }
    with pytest.raises(KeyError):
        expand_experiment("backends", quick=True, params={"workload": "sawtooth"})

    report = run_experiment(
        "backends",
        quick=True,
        processes=1,
        cache=str(tmp_path / "cache"),
        params={"scheduler": "single", "model_name": "resnet18"},
    )
    assert [row["backend"] for row in report.rows] == ["single"]
    assert report.rows[0]["model"] == "resnet18"
    assert report.simulated == 1
    again = run_experiment(
        "backends",
        quick=True,
        processes=1,
        cache=str(tmp_path / "cache"),
        params={"scheduler": "single", "model_name": "resnet18"},
    )
    assert again.simulated == 0 and again.cache_hits == 1
    assert again.rows == report.rows

    with pytest.raises(KeyError):
        expand_experiment("backends", quick=True, params={"scheduler": "tetris"})


def test_seed_insensitive_replicates_share_one_request_and_simulation(tmp_path):
    """Deterministic servers replicated across --seeds keep their base seed
    (value-identical requests, one cache entry) and simulate exactly once,
    while seed-sensitive backends still get one shifted request per seed."""
    from repro.experiments.engine import expand_experiment
    from repro.experiments.registry import ExperimentPlan, ExperimentSpec

    taskset = _taskset()

    def build(ctx):
        requests = [
            ScenarioRequest(taskset, DARIS_CONFIG, HORIZON, seed=ctx.seed),
            ScenarioRequest(
                taskset, ClockworkConfig(), HORIZON, seed=ctx.seed, scheduler="clockwork"
            ),
            ScenarioRequest(
                taskset,
                ClockworkConfig(),
                HORIZON,
                seed=ctx.seed,
                scheduler="clockwork",
                workload=POISSON_WORKLOAD,  # rng-driven: stays seed-sensitive
            ),
        ]
        return ExperimentPlan(
            requests=requests,
            make_rows=lambda row_ctx: [
                {"jps": round(result.total_jps, 1)} for result in row_ctx.results
            ],
        )

    spec = ExperimentSpec(name="seedprobe", title="seed probe", build=build)
    expanded = expand_experiment(spec, quick=True, seeds=3)
    daris_seeds = {request.seed for request in expanded.requests if request.scheduler == "daris"}
    clockwork_periodic = [
        request
        for request in expanded.requests
        if request.scheduler == "clockwork" and request.workload.arrival == "periodic"
    ]
    clockwork_poisson_seeds = {
        request.seed
        for request in expanded.requests
        if request.scheduler == "clockwork" and request.workload.arrival == "poisson"
    }
    assert daris_seeds == {1, 2, 3}
    assert clockwork_poisson_seeds == {1, 2, 3}
    assert len(set(clockwork_periodic)) == 1  # value-identical across replicates

    report = run_experiment(spec, quick=True, seeds=3, processes=1, cache=str(tmp_path / "c"))
    # 3 daris + 3 poisson-clockwork + 1 shared periodic-clockwork simulation
    assert report.simulated == 7
    assert len(report.rows_by_seed) == 3 and all(len(rows) == 3 for rows in report.rows_by_seed)
    again = run_experiment(spec, quick=True, seeds=3, processes=1, cache=str(tmp_path / "c"))
    assert again.simulated == 0 and again.cache_hits == 9
    assert again.rows == report.rows


#: Acceptance pin (PR 8): default-config cache keys for every backend,
#: computed on the PR 7 code before the config-axis fields existed.  New
#: tunables (Clockwork's admission_slack, GSlice's oversubscription) follow
#: the EXTENDED_FIELDS only-when-non-default rule, so these keys must stay
#: byte-identical — no pre-existing cache entry is ever invalidated.
PINNED_PR7_DEFAULT_CONFIG_KEYS = {
    "daris": "df7c3e31e7f4fafd9213c76169d5b49533007c1e12b03e972a3e8350228e861f",
    "rtgpu": "d07ffb43db5a14203ea17e87b9640209ba8076afe46ff0f47457cb276a14013e",
    "clockwork": "28df04d8cac290175ee5f646d17a541c31c9458847a2ce7c0010522fb2c2a44d",
    "single": "b7288065ae118fca859b186f1f1ff5bdd8bd1dc8f38705bbab6ad5b55f36f521",
    "batching_server": "e67f1aae47bc3c2d4e6876ee3a8be6480e4b86e94e3cfc069db0b755648cb861",
    "gslice": "8cfc3abcedb25e2240e7674a1edc1cd54ea47f5e3860b5e76595e0e68485edb0",
}

#: PR 9 pin: the cluster backend's default-config key on the same pin
#: scenario.  ClusterConfig is a new kind with no EXTENDED_FIELDS, so every
#: field always serializes; this key must only change with a deliberate
#: config-shape change.
PINNED_PR9_CLUSTER_DEFAULT_KEY = (
    "9b731342b2af134259060392fa29aab20ff70045c9c199c474cf031d33d16568"
)


def test_default_config_cache_keys_for_every_backend_are_pinned_to_pr7():
    from repro.rt.taskset import make_taskset

    model = build_model("resnet18")
    taskset = make_taskset([model], num_high=1, num_low=2, task_jps=20.0, name="pin")
    horizon = 400.0
    daris_config = DarisConfig.mps_config(2, 2.0)
    requests = {
        "daris": ScenarioRequest(taskset, daris_config, horizon, seed=3),
        "rtgpu": ScenarioRequest(
            taskset, daris_config, horizon, seed=3, scheduler="rtgpu",
            workload=POISSON_WORKLOAD,
        ),
        "clockwork": ScenarioRequest(
            taskset, ClockworkConfig(), horizon, seed=3, scheduler="clockwork",
            workload=POISSON_WORKLOAD,
        ),
        "single": ScenarioRequest(
            taskset, SingleConfig(), horizon, seed=3, scheduler="single",
            workload=SATURATED_WORKLOAD,
        ),
        "batching_server": ScenarioRequest(
            taskset, BatchingConfig(), horizon, seed=3, scheduler="batching_server",
            workload=SATURATED_WORKLOAD,
        ),
        "gslice": ScenarioRequest(
            taskset, GSliceConfig(), horizon, seed=3, scheduler="gslice",
            workload=SATURATED_WORKLOAD,
        ),
    }
    assert {name: request.cache_key() for name, request in requests.items()} == (
        PINNED_PR7_DEFAULT_CONFIG_KEYS
    )
    cluster = ScenarioRequest(
        taskset, ClusterConfig(), horizon, seed=3, scheduler="cluster",
        workload=POISSON_WORKLOAD,
    )
    assert cluster.cache_key() == PINNED_PR9_CLUSTER_DEFAULT_KEY


def test_extended_config_fields_serialize_only_when_non_default():
    # Default values leave the fingerprint exactly as it was before the
    # field existed; non-default values must show up (distinct cache keys).
    assert ClockworkConfig().to_dict() == {"kind": "clockwork"}
    assert ClockworkConfig(admission_slack=1.25).to_dict() == {
        "kind": "clockwork",
        "admission_slack": 1.25,
    }
    assert GSliceConfig().to_dict() == {"kind": "gslice", "batch_sizes": None}
    assert GSliceConfig(oversubscription=2.0).to_dict() == {
        "kind": "gslice",
        "batch_sizes": None,
        "oversubscription": 2.0,
    }


def test_extended_config_fields_are_range_checked():
    with pytest.raises(ValueError):
        ClockworkConfig(admission_slack=0.0)
    with pytest.raises(ValueError):
        GSliceConfig(oversubscription=0.5)


def test_clockwork_admission_slack_changes_admission_behavior():
    taskset = _taskset()
    strict = ScenarioRequest(
        taskset, ClockworkConfig(admission_slack=5.0), HORIZON, seed=3,
        scheduler="clockwork", workload=POISSON_WORKLOAD,
    )
    default = ScenarioRequest(
        taskset, ClockworkConfig(), HORIZON, seed=3,
        scheduler="clockwork", workload=POISSON_WORKLOAD,
    )
    strict_result, default_result = run_cached_scenarios([strict, default])
    strict_rejected = (
        strict_result.metrics.high.rejected + strict_result.metrics.low.rejected
    )
    default_rejected = (
        default_result.metrics.high.rejected + default_result.metrics.low.rejected
    )
    # A 5x-inflated latency prediction must shed at least as aggressively.
    assert strict_rejected >= default_rejected
    strict_completed = (
        strict_result.metrics.high.completed + strict_result.metrics.low.completed
    )
    default_completed = (
        default_result.metrics.high.completed + default_result.metrics.low.completed
    )
    assert strict_completed <= default_completed


def test_gslice_oversubscription_beyond_partition_count_is_a_request_error():
    request = ScenarioRequest(
        _taskset(), GSliceConfig(oversubscription=4.0), HORIZON, seed=3,
        scheduler="gslice", workload=SATURATED_WORKLOAD,
    )
    with pytest.raises(BackendRequestError, match="oversubscription"):
        get_backend("gslice").execute(request)
