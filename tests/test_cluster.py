"""Tests for the multi-GPU cluster subsystem.

Covers the ``ClusterConfig`` axis surface (validation, aliases, parse-time
errors), the ledger's routing policies (unit invariants plus an end-to-end
dispatch invariant), determinism and cache round-trips, GPU-targeted fault
injection with router failover, queue migration, per-GPU telemetry
serialization, the registered ``cluster`` experiment grid, and the text
heatmap renderer the grid's rows feed.
"""

from __future__ import annotations

import json

import pytest

from repro.backends import get_backend
from repro.backends.base import BackendRequestError
from repro.backends.configs import config_from_dict
from repro.cluster import ClusterConfig, ClusterServer, DispatchLedger, PlacementSpec
from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.runner import ScenarioResult
from repro.experiments.scenarios import named_workload, parse_config_override
from repro.rt.metrics import GpuTelemetry, ScenarioMetrics
from repro.rt.taskset import make_taskset, table2_taskset
from repro.sim.faults import FaultSpec
from repro.sim.rng import RngFactory
from repro.sim.workload import POISSON_WORKLOAD, SATURATED_WORKLOAD

HORIZON = 600.0


def _taskset():
    return table2_taskset("resnet18", scale=0.25)


def _serve(config, seed=7, faults=None, workload=POISSON_WORKLOAD, on_dispatch=None):
    backend = get_backend("cluster")
    server = ClusterServer(config)
    return server.serve(
        _taskset(),
        HORIZON,
        workload=workload,
        rng=RngFactory(seed),
        faults=faults,
        resilience=backend.resilience,
        on_dispatch=on_dispatch,
    )


# ------------------------------------------------------------------ config


def test_cluster_config_validates_its_vocabulary():
    with pytest.raises(ValueError, match="num_gpus must be >= 1"):
        ClusterConfig(num_gpus=0)
    with pytest.raises(ValueError) as excinfo:
        ClusterConfig(router="random")
    assert "least_loaded" in str(excinfo.value)
    assert "round_robin" in str(excinfo.value)
    assert "deadline_aware" in str(excinfo.value)
    with pytest.raises(ValueError) as excinfo:
        ClusterConfig(placement="sharded")
    assert "replicated" in str(excinfo.value) and "partitioned" in str(excinfo.value)
    with pytest.raises(ValueError):
        ClusterConfig(migration_backlog=-1)
    with pytest.raises(ValueError):
        ClusterConfig(migration_window_ms=0.0)


def test_cluster_config_round_trips_and_dispatches_by_kind():
    config = ClusterConfig(
        num_gpus=4,
        router="deadline_aware",
        placement="partitioned",
        migration_backlog=3,
    )
    data = json.loads(json.dumps(config.to_dict()))
    assert data["kind"] == "cluster"
    assert config_from_dict(data) == config
    # New kind: every field always serializes (no EXTENDED_FIELDS games) —
    # the kind itself is new, so no pre-existing fingerprint can change.
    assert set(data) == {
        "kind",
        "num_gpus",
        "router",
        "placement",
        "migration_backlog",
        "migration_window_ms",
    }


def test_cluster_axes_parse_with_validation_and_aliases():
    target, field, value = parse_config_override("cluster.num_gpus=4")
    assert (target, field, value) == ("cluster", "num_gpus", 4)
    assert parse_config_override("cluster.gpus=8")[1:] == ("num_gpus", 8)
    assert parse_config_override("cluster.policy=round_robin")[1:] == (
        "router",
        "round_robin",
    )
    with pytest.raises(ValueError, match="num_gpus must be >= 1"):
        parse_config_override("cluster.num_gpus=0")
    with pytest.raises(ValueError) as excinfo:
        parse_config_override("cluster.router=fastest")
    assert "least_loaded" in str(excinfo.value)


def test_single_gpu_cluster_warns_and_bad_fault_target_is_rejected():
    request = ScenarioRequest(
        _taskset(),
        ClusterConfig(num_gpus=1),
        HORIZON,
        seed=7,
        scheduler="cluster",
        workload=POISSON_WORKLOAD,
    )
    with pytest.warns(UserWarning, match="equivalent to the plain 'clockwork'"):
        get_backend("cluster").validate_request(request)

    targeted = ScenarioRequest(
        _taskset(),
        ClusterConfig(num_gpus=2),
        HORIZON,
        seed=7,
        scheduler="cluster",
        workload=POISSON_WORKLOAD,
        faults=FaultSpec.crashes(mtbf_ms=100.0).targeting(5),
    )
    with pytest.raises(BackendRequestError, match="targets GPU 5"):
        get_backend("cluster").validate_request(targeted)


def test_cluster_rejects_saturated_workloads():
    with pytest.raises(ValueError, match="deadline-driven"):
        _serve(ClusterConfig(num_gpus=2), workload=SATURATED_WORKLOAD)


# ------------------------------------------------------------------ routers


def _ledger(router, *loads):
    """A ledger holding ``loads`` (one device each) and its all-device group."""
    ledger = DispatchLedger(len(loads), router)
    for gpu, load in enumerate(loads):
        ledger.load_changed(gpu, load)
    return ledger, ledger.group_for(tuple(range(len(loads))))


def test_least_loaded_router_picks_the_minimum_with_index_tiebreak():
    _, group = _ledger("least_loaded", 4.0, 2.0, 7.0)
    assert group.least_loaded(0.0, 100.0, 5.0) == 1
    _, group = _ledger("least_loaded", 3.0, 3.0)
    assert group.least_loaded(0.0, 100.0, 5.0) == 0  # tie -> low index


def test_round_robin_router_cycles_deterministically():
    _, group = _ledger("round_robin", 0.0, 0.0, 0.0)
    picks = [group.round_robin(0.0, 100.0, 5.0) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_round_robin_rotation_under_filtered_views():
    """The cursor counts dispatches, not device positions: a narrowed member
    tuple is indexed at ``cursor mod len(members)``, keeping traffic uniform
    over whatever devices are currently up (pinned semantics — see the
    ``repro.cluster.ledger`` docstring)."""
    ledger, group = _ledger("round_robin", 0.0, 0.0, 0.0, 0.0)

    def pick():
        return group.round_robin(0.0, 100.0, 5.0)

    assert pick() == 0  # cursor 0 -> position 0
    assert pick() == 1  # cursor 1 -> position 1
    # Device 1 degrades: three members, cursor 2 -> position 2 -> index 3.
    ledger.degraded_changed(1, True)
    assert group.members == (0, 2, 3)
    assert pick() == 3
    # Narrower still (devices 2 and 3): cursor 3 -> position 1 -> index 3.
    ledger.degraded_changed(0, True)
    assert pick() == 3
    # Both recover: cursor 4 -> position 0, a fresh lap over all four.
    ledger.degraded_changed(0, False)
    ledger.degraded_changed(1, False)
    assert [pick() for _ in range(3)] == [0, 1, 2]
    # With every device degraded the group falls back to all of them.
    for gpu in range(4):
        ledger.degraded_changed(gpu, True)
    assert group.members == (0, 1, 2, 3)
    assert pick() == 3  # cursor 7


def test_deadline_aware_router_packs_feasible_and_falls_back():
    _, group = _ledger("deadline_aware", 2.0, 10.0, 30.0)
    # GPU 1 is the most loaded that still meets the deadline -> packed there.
    assert group.deadline_aware(0.0, 20.0, 5.0) == 1
    # Nothing feasible -> least-loaded fallback.
    assert group.deadline_aware(0.0, 4.0, 5.0) == 0


@pytest.mark.parametrize(
    ("router", "degraded", "picks"),
    [("least_loaded", 1, [0, 0, 1, 1]), ("deadline_aware", 2, [0, 0, 0, 2])],
)
def test_ledger_routes_over_alive_members_and_reindexes_on_recovery(
    router, degraded, picks
):
    """A degraded device leaves its groups' index (here: the device each
    policy would pick); load changes it sees while out are skipped, and it
    rejoins at its current load when it recovers."""
    ledger, group = _ledger(router, 4.0, 2.0, 7.0)
    route = getattr(group, router)
    seen = []
    ledger.degraded_changed(degraded, True)
    seen.append(route(0.0, 100.0, 5.0))
    ledger.load_changed(degraded, 1.0)  # a non-member moves: not indexed
    ledger.load_changed(0, 5.0)
    seen.append(route(0.0, 100.0, 5.0))
    ledger.degraded_changed(degraded, False)
    seen.append(route(0.0, 100.0, 5.0))
    seen.append(route(0.0, 6.5, 5.0))  # only the 1.0-loaded device is feasible
    assert seen == picks


def test_least_loaded_dispatch_invariant_end_to_end():
    """Every dispatched request lands on a GPU no more loaded than any other
    alive candidate at dispatch time — observed via the dispatch hook."""
    observed = []

    def on_dispatch(now, model_name, chosen, views, deadline, predicted_ms):
        observed.append((chosen, views))

    _serve(ClusterConfig(num_gpus=3), on_dispatch=on_dispatch)
    assert observed, "no dispatches observed"
    for chosen, views in observed:
        chosen_view = next(view for view in views if view.index == chosen)
        alive = [view for view in views if view.alive]
        assert all(chosen_view.outstanding_ms <= view.outstanding_ms for view in alive)


# ------------------------------------------------------------ determinism


def test_cluster_metrics_are_bit_identical_per_seed():
    config = ClusterConfig(num_gpus=3, router="deadline_aware")
    first = _serve(config, seed=11)
    second = _serve(config, seed=11)
    assert first == second
    assert first.gpu_breakdown is not None and len(first.gpu_breakdown) == 3
    other_seed = _serve(config, seed=12)
    assert other_seed != first  # the seed actually matters


def test_cluster_result_round_trips_through_serialization():
    request = ScenarioRequest(
        _taskset(),
        ClusterConfig(num_gpus=2),
        HORIZON,
        seed=9,
        scheduler="cluster",
        workload=POISSON_WORKLOAD,
    )
    result = get_backend("cluster").execute(request)
    restored = ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert restored == result  # config, label, metrics incl. gpu_breakdown
    assert restored.metrics.gpu_breakdown == result.metrics.gpu_breakdown


# ------------------------------------------------------------------ faults


def test_targeted_crash_fault_fails_over_to_the_other_gpus():
    config = ClusterConfig(num_gpus=2)
    faults = FaultSpec.crashes(mtbf_ms=80.0, recovery_ms=150.0).targeting(1)
    metrics = _serve(config, faults=faults)
    assert metrics.fault_impact is not None
    assert metrics.fault_impact.episodes >= 1
    breakdown = {gpu.gpu: gpu for gpu in metrics.gpu_breakdown}
    # The healthy device absorbs the shed traffic while GPU 1 is down.
    assert breakdown[0].routed > breakdown[1].routed
    healthy = _serve(config)
    assert metrics.goodput_jps <= healthy.goodput_jps


def test_targeted_fault_leaves_other_devices_untouched():
    """A slowdown pinned to GPU 1 must not alter draws on GPU 0's timeline:
    an untargeted 2-GPU run and a run targeting a non-existent load pattern
    differ, but targeting vs global faulting are distinct behaviors."""
    config = ClusterConfig(num_gpus=2)
    slowdown = FaultSpec.throttle(period_ms=120.0, duration_ms=60.0, factor=0.3)
    targeted = _serve(config, faults=slowdown.targeting(1))
    globally = _serve(config, faults=slowdown)
    assert targeted != globally


# --------------------------------------------------------------- placement


def test_placement_spec_builds_replicated_and_partitioned_maps():
    replicated = PlacementSpec.build("replicated", ["a", "b"], 4)
    assert replicated.gpus_for("a") == (0, 1, 2, 3)
    partitioned = PlacementSpec.build("partitioned", ["a", "b"], 4)
    assert partitioned.gpus_for("a") == (0, 2)
    assert partitioned.gpus_for("b") == (1, 3)
    # More models than devices: every model still gets at least one GPU.
    crowded = PlacementSpec.build("partitioned", ["a", "b", "c"], 2)
    assert crowded.gpus_for("c") == (0,)


def test_migration_moves_a_backlogged_queue_and_counts_it():
    models = [build_model("resnet18"), build_model("resnet50")]
    taskset = make_taskset(
        models, num_high=2, num_low=6, task_jps=30.0, name="migration"
    )
    # Partitioned placement pins each model to a device subset; a low
    # threshold with a short window forces at least one migration under
    # bursty arrivals.
    config = ClusterConfig(
        num_gpus=3,
        placement="partitioned",
        migration_backlog=1,
        migration_window_ms=5.0,
    )
    server = ClusterServer(config)
    metrics = server.serve(
        taskset,
        HORIZON,
        workload=named_workload("bursty"),
        rng=RngFactory(3),
    )
    assert sum(gpu.migrations for gpu in metrics.gpu_breakdown) >= 1
    # Determinism holds with migration enabled.
    again = ClusterServer(config).serve(
        taskset, HORIZON, workload=named_workload("bursty"), rng=RngFactory(3)
    )
    assert again == metrics


def test_migration_counts_only_contributing_devices(monkeypatch):
    """``migrations`` telemetry counts a device only when ``take_queued``
    actually moved requests off it (PR 9 counted every eligible device,
    inflating the telemetry whenever a device's queue was already empty)."""
    from repro.cluster import server as server_module

    contributed: list = []
    original_take = server_module._GpuWorker.take_queued

    def recording_take(self, model_name):
        taken = original_take(self, model_name)
        if taken:
            contributed.append(self.index)
        return taken

    monkeypatch.setattr(server_module._GpuWorker, "take_queued", recording_take)
    models = [build_model("resnet18"), build_model("resnet50")]
    taskset = make_taskset(
        models, num_high=2, num_low=6, task_jps=30.0, name="migration-count"
    )
    config = ClusterConfig(
        num_gpus=3,
        placement="partitioned",
        migration_backlog=1,
        migration_window_ms=5.0,
    )
    metrics = ClusterServer(config).serve(
        taskset, HORIZON, workload=named_workload("bursty"), rng=RngFactory(3)
    )
    per_device = {g: contributed.count(g) for g in set(contributed)}
    assert sum(per_device.values()) >= 1, "scenario produced no migrations"
    for telemetry in metrics.gpu_breakdown:
        assert telemetry.migrations == per_device.get(telemetry.gpu, 0)


# ------------------------------------------------------------- telemetry


def test_gpu_breakdown_serializes_only_when_present():
    plain = ScenarioMetrics.from_priority_metrics(100.0)
    assert "gpu_breakdown" not in plain.to_dict()
    assert ScenarioMetrics.from_dict(plain.to_dict()) == plain

    telemetry = (
        GpuTelemetry(gpu=0, routed=5, completed=4, missed=1, utilization=0.5),
        GpuTelemetry(gpu=1, routed=3, completed=3, max_queue_depth=2, migrations=1),
    )
    annotated = ScenarioMetrics.from_priority_metrics(100.0, gpu_breakdown=telemetry)
    data = json.loads(json.dumps(annotated.to_dict()))
    assert [entry["gpu"] for entry in data["gpu_breakdown"]] == [0, 1]
    assert ScenarioMetrics.from_dict(data) == annotated


def test_fault_spec_gpu_target_serializes_only_when_set():
    spec = FaultSpec.crashes(mtbf_ms=50.0)
    assert "gpu" not in spec.to_dict()
    targeted = spec.targeting(2)
    assert targeted.to_dict()["gpu"] == 2
    assert FaultSpec.from_dict(targeted.to_dict()) == targeted
    assert "@gpu2" in targeted.label()
    with pytest.raises(ValueError):
        spec.targeting(-1)


# ------------------------------------------------------------------- grid


def test_cluster_grid_expands_filters_and_caches(tmp_path):
    from repro.experiments.engine import expand_experiment, run_experiment

    plan = expand_experiment("cluster", quick=True)
    routers = {request.config.router for request in plan.requests}
    gpu_counts = {request.config.num_gpus for request in plan.requests}
    assert len(routers) >= 2 and len(gpu_counts) >= 2
    assert all(request.scheduler == "cluster" for request in plan.requests)

    def run(cache=None, workload=None):
        return run_experiment(
            "cluster", quick=True, cache=cache, params={"workload": workload}
        ).rows

    cache_dir = str(tmp_path / "cache")
    rows = run(cache=cache_dir, workload="poisson")
    assert rows and {row["workload"] for row in rows} == {"poisson"}
    for row in rows:
        assert {"router", "gpus", "load", "miss_rate", "max_queue"} <= set(row)
    # Cached re-run reproduces the rows bit-identically.
    assert run(cache=cache_dir, workload="poisson") == rows

    with pytest.raises(KeyError):
        run(workload="does-not-exist")


# ---------------------------------------------------------------- heatmap


def test_heatmap_renders_means_and_marks_missing_cells():
    from repro.analysis.heatmap import heatmap_csv, render_heatmap

    rows = [
        {"router": "ll", "gpus": 2, "miss_rate": 0.2},
        {"router": "ll", "gpus": 2, "miss_rate": 0.4},  # averaged with the first
        {"router": "ll", "gpus": 4, "miss_rate": 0.1},
        {"router": "rr", "gpus": 2, "miss_rate": 0.5},
        # (rr, 4) intentionally absent
    ]
    text = render_heatmap(rows, x="gpus", y="router", metric="miss_rate")
    lines = text.splitlines()
    assert "mean miss_rate" in lines[0]
    ll_line = next(line for line in lines if line.startswith("ll"))
    assert "0.3" in ll_line and "0.1" in ll_line
    rr_line = next(line for line in lines if line.startswith("rr"))
    assert "-" in rr_line

    csv_text = heatmap_csv(rows, x="gpus", y="router", metric="miss_rate")
    assert csv_text.splitlines()[0] == "router\\gpus,2,4"
    assert csv_text.splitlines()[2].endswith(",")  # missing cell -> empty

    with pytest.raises(ValueError, match="available:"):
        render_heatmap(rows, x="nope", y="router", metric="miss_rate")
    with pytest.raises(ValueError, match="numeric"):
        render_heatmap(rows, x="gpus", y="miss_rate", metric="router")


def test_heatmap_works_on_cluster_grid_rows(tmp_path):
    from repro.analysis.heatmap import render_heatmap
    from repro.experiments.engine import run_experiment

    rows = run_experiment(
        "cluster", quick=True, cache=str(tmp_path / "cache"), params={"workload": "poisson"}
    ).rows
    text = render_heatmap(rows, x="gpus", y="router", metric="miss_rate")
    assert "least_loaded" in text and "round_robin" in text
