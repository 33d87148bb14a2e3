"""Engagement and infrastructure tests for the simulation fast paths.

The GPU engine's incremental replanning, the cluster's ledger dispatch and
the simulator's heap compaction are pure optimizations: for a fixed seed
they must not change a single result.  ``tests/test_golden_digests.py`` pins
that end to end against digests recorded before the reference paths were
deleted; the tests here check that the fast paths actually engage, that
every pick of the cluster's ledger equals the reference scan over the
candidate devices' load views, and the simulator/runner infrastructure
around them.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.cluster import ROUTER_POLICIES, ClusterConfig, ClusterServer, PlacementSpec
from repro.cluster import server as server_module
from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest, run_scenarios_parallel
from repro.gpu.engine import GpuEngine
from repro.rt.taskset import make_taskset, table2_taskset
from repro.scheduler.config import DarisConfig
from repro.scheduler.daris import DarisScheduler
from repro.sim.faults import CrashFault, FaultSpec
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import POISSON_WORKLOAD

from test_golden_digests import CLUSTER_MATRIX, GOLDEN_DIGESTS, digest


# ---------------------------------------------------------------- engagement


def test_fast_path_actually_engages():
    """The specialized replan paths fire during a normal scheduling run."""
    # MPS 6x1: every context runs at most one kernel, so replans collapse to
    # the single-pass fast paths and the generic plan never runs.
    simulator = Simulator()
    scheduler = DarisScheduler(
        simulator,
        table2_taskset("resnet18"),
        DarisConfig.mps_config(6, 1.0),
        rng=RngFactory(1),
    )
    scheduler.run(800.0)
    engine = scheduler.platform.engine
    assert engine.fast_path_hits > 0
    assert engine.full_replans == 0

    # MPS+STR 2x2: contexts run several kernels concurrently, exercising the
    # generic incremental plan (cached water-fills + per-context recompute).
    simulator = Simulator()
    scheduler = DarisScheduler(
        simulator,
        table2_taskset("resnet18"),
        DarisConfig.mps_str_config(2, 2, 2.0),
        rng=RngFactory(1),
    )
    scheduler.run(800.0)
    engine = scheduler.platform.engine
    assert engine.full_replans > 0


# ---------------------------------------------------------- heap compaction


def test_simulator_compacts_cancelled_events():
    """Cancelled events are physically removed once they dominate the heap."""
    simulator = Simulator()
    handles = [simulator.schedule_at(float(i + 1), lambda _sim: None) for i in range(300)]
    assert simulator.pending_events == 300
    assert simulator.live_events == 300

    for handle in handles[:299]:
        handle.cancel()

    assert simulator.live_events == 1
    assert simulator.compactions >= 1
    # Compaction physically dropped the cancelled entries.
    assert simulator.pending_events < 300


def test_compaction_preserves_firing_order_and_counts():
    """A compacting run fires the same events, in the same order, as a naive one."""
    fired = []
    simulator = Simulator()
    keep = []
    for i in range(200):
        handle = simulator.schedule_at(float(i), lambda _sim, i=i: fired.append(i))
        if i % 3 == 0:
            keep.append(i)
        else:
            handle.cancel()
    simulator.run_until(500.0)
    assert fired == keep
    assert simulator.live_events == 0


def test_live_events_counter_tracks_cancellations():
    simulator = Simulator()
    a = simulator.schedule_at(1.0, lambda _sim: None)
    simulator.schedule_at(2.0, lambda _sim: None)
    assert simulator.live_events == 2
    a.cancel()
    a.cancel()  # idempotent
    assert simulator.live_events == 1
    simulator.run_until(3.0)
    assert simulator.live_events == 0


# ------------------------------------------------------------------ heap size


def test_engine_replanning_does_not_bloat_heap():
    """The heap holds one pending release per task plus a few engine events.

    A probe series samples the heap size every simulated millisecond of an
    MPS 6x1 and an MPS+STR 3x3 run.  With every release pushed up front, the
    largest sample held 1,530 entries besides the probe's.  With one pending
    release per task the samples stay within the task count plus two
    entries per GPU stream, room for the probe itself and the engine's
    kernel-ready and completion events (58 at most on both runs).
    """
    taskset = table2_taskset("resnet18")
    horizon = 1000.0
    for config in (DarisConfig.mps_config(6, 6.0), DarisConfig.mps_str_config(3, 3, 1.0)):
        simulator = Simulator()
        scheduler = DarisScheduler(simulator, taskset, config, rng=RngFactory(2))
        samples = []
        simulator.schedule_series(
            [float(t) for t in range(int(horizon))],
            0,
            lambda sim, _index: samples.append(sim.pending_events),
        )
        result = scheduler.run(horizon)
        assert result.total_jps > 0
        assert len(samples) == int(horizon)
        platform = scheduler.platform
        streams = platform.num_contexts * platform.streams_per_context
        assert max(samples) <= len(taskset.tasks) + 2 * streams, config.label()


def test_start_keeps_one_release_per_task_in_the_heap():
    """Scheduling a long horizon holds one heap entry per task, in little memory."""
    simulator = Simulator()
    taskset = table2_taskset("resnet18")
    scheduler = DarisScheduler(
        simulator, taskset, DarisConfig.mps_config(6, 6.0), rng=RngFactory(1)
    )
    tracemalloc.start()
    try:
        scheduler.start(50_000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert simulator.pending_events == len(taskset.tasks) == 51
    # With every release pushed up front, the peak was 38.5 MB (76,501 entries).
    assert peak < 2_000_000


# ------------------------------------------------------ windowed utilization


def test_average_utilization_windowed_measurement():
    """The windowed average uses the integral captured at the window start."""
    from repro.gpu.kernel import KernelSpec
    from repro.gpu.spec import RTX_2080_TI

    simulator = Simulator()
    engine = GpuEngine(simulator, RTX_2080_TI)
    context = engine.create_context(sm_quota=float(RTX_2080_TI.num_sms))
    stream = engine.create_stream(context)

    # Idle until t=100, then one full-width kernel for ~100 ms.
    simulator.run_until(100.0)
    mark = engine.utilization_integral()
    assert mark == pytest.approx(0.0)
    work = 100.0 * RTX_2080_TI.num_sms
    engine.launch(stream, KernelSpec("k", work=work, parallelism=float(RTX_2080_TI.num_sms)))
    simulator.run_until(250.0)

    windowed = engine.average_utilization(since=100.0, integral_at_since=mark)
    overall = engine.average_utilization()
    # The kernel ran at full width for ~100 of the 150 ms window...
    assert windowed == pytest.approx(100.0 / 150.0, rel=0.05)
    # ...but only ~100 of the 250 ms total horizon: the old truncated-horizon
    # formula would have reported the windowed value as ~1.67x too high.
    assert overall == pytest.approx(100.0 / 250.0, rel=0.05)
    assert windowed < 1.0


# ------------------------------------------------------------ parallel runner


def test_parallel_runner_matches_serial_results():
    """Fan-out over processes returns ordered, seed-stable, identical results."""
    taskset = table2_taskset("resnet18")
    requests = [
        ScenarioRequest(taskset, DarisConfig.mps_config(2, 2.0), 600.0, seed=5, label="a"),
        ScenarioRequest(taskset, DarisConfig.mps_config(6, 6.0), 600.0, seed=5, label="b"),
    ]
    serial = run_scenarios_parallel(requests, processes=1)
    parallel = run_scenarios_parallel(requests, processes=2)
    assert [r.label for r in parallel] == ["a", "b"]
    for left, right in zip(serial, parallel):
        assert left.metrics == right.metrics


def test_parallel_runner_empty_and_single():
    assert run_scenarios_parallel([]) == []
    taskset = table2_taskset("resnet18")
    request = ScenarioRequest(taskset, DarisConfig.mps_config(2, 2.0), 600.0, seed=9)
    (result,) = run_scenarios_parallel([request], processes=8)
    assert result.total_jps > 0


def test_parallel_runner_unordered_mode_returns_request_order():
    """imap_unordered streaming (the pool's only mode) may deliver
    completions in any order, but the returned list and the callback indices
    must still line up with the request list."""
    taskset = table2_taskset("resnet18")
    requests = [
        ScenarioRequest(taskset, DarisConfig.mps_config(2, 2.0), 600.0, seed=5, label="a"),
        ScenarioRequest(taskset, DarisConfig.mps_config(6, 6.0), 600.0, seed=5, label="b"),
        ScenarioRequest(taskset, DarisConfig.str_config(2), 600.0, seed=5, label="c"),
    ]
    seen = {}
    results = run_scenarios_parallel(
        requests, processes=2, on_result=lambda i, r: seen.__setitem__(i, r.label),
    )
    assert [r.label for r in results] == ["a", "b", "c"]
    assert seen == {0: "a", 1: "b", 2: "c"}
    ordered = run_scenarios_parallel(requests, processes=1)
    for left, right in zip(ordered, results):
        assert left.metrics == right.metrics


# ---------------------------------------------------- cluster ledger dispatch
#
# The dispatch ledger (heap/bisect/cursor routing index over each model's
# alive devices) must answer every routing question exactly as the
# reference scans below answer it over ``GpuLoadView`` snapshots of the same
# devices — same floats, same tie-breaks, same epsilon.  These scans were the
# router policies' ``select`` methods before the ledger became the only
# routing implementation.

_EPS = 1e-9


def _least_loaded(now, deadline, predicted_ms, views):
    return min(views, key=lambda view: (view.outstanding_ms, view.index)).index


def _deadline_aware(now, deadline, predicted_ms, views):
    feasible = [
        view for view in views if now + view.outstanding_ms + predicted_ms <= deadline + _EPS
    ]
    if feasible:
        return max(feasible, key=lambda view: (view.outstanding_ms, -view.index)).index
    return _least_loaded(now, deadline, predicted_ms, views)


def _round_robin_scan():
    """Rotation over the handed views; the cursor counts dispatches."""
    cursor = 0

    def select(now, deadline, predicted_ms, views):
        nonlocal cursor
        choice = views[cursor % len(views)].index
        cursor += 1
        return choice

    return select


def _reference_scan(router):
    if router == "round_robin":
        return _round_robin_scan()
    return {"least_loaded": _least_loaded, "deadline_aware": _deadline_aware}[router]


#: Every device throttled and crashing on its own random timeline.  Unlike
#: the golden rows, these runs change the load of degraded devices and
#: degrade all candidates at once (the fall-back-to-everyone case).
_EVERY_GPU_FAULTED = FaultSpec.throttle(
    period_ms=60.0, duration_ms=30.0, factor=0.5, random=True
).with_crash(CrashFault(mtbf_ms=150.0, recovery_ms=40.0))

_DISPATCH_ROWS = {
    **CLUSTER_MATRIX,
    # No golden row routes round-robin around a degraded device.
    "round_robin-targeted-crash": (
        dict(num_gpus=4, router="round_robin"),
        FaultSpec.crashes(mtbf_ms=100.0, recovery_ms=60.0).targeting(1),
    ),
    **{
        f"{router}-every-gpu-faulted": (dict(num_gpus=4, router=router), _EVERY_GPU_FAULTED)
        for router in ROUTER_POLICIES
    },
}


@pytest.mark.parametrize(
    ("name", "cfg_kwargs", "faults"),
    [(name, *row) for name, row in _DISPATCH_ROWS.items()],
    ids=list(_DISPATCH_ROWS),
)
def test_cluster_indexed_dispatch_trace_identical(name, cfg_kwargs, faults, monkeypatch):
    """Every ledger pick equals the reference scan over the alive-filtered
    eligible views, on the golden runs themselves (observing changes nothing),
    and ``indexed_engagements`` counts every dispatch."""
    workers = []
    init = server_module._GpuWorker.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        workers.append(self)

    monkeypatch.setattr(server_module._GpuWorker, "__init__", recording_init)
    config = ClusterConfig(**cfg_kwargs)
    # Without migration a model stays on its placement subset, so the
    # candidates are fully determined by the devices' degraded flags.
    migrating = config.migration_backlog > 0
    placement = PlacementSpec.build(config.placement, ["resnet18"], config.num_gpus)
    for seed in (3, 11):
        workers.clear()
        select = _reference_scan(config.router)
        dispatches = narrowed = 0

        def on_dispatch(now, model_name, chosen, views, deadline, predicted_ms):
            nonlocal dispatches, narrowed
            dispatches += 1
            if not migrating:
                eligible = placement.gpus_for(model_name)
                alive = [g for g in eligible if not workers[g].injector.degraded]
                expected = alive or list(eligible)
                assert views == tuple(workers[g].load_view() for g in expected)
                narrowed += len(expected) < len(eligible)
            assert chosen == select(now, deadline, predicted_ms, views)

        server = ClusterServer(config)
        metrics = server.serve(
            make_taskset(
                [build_model("resnet18")],
                num_high=3,
                num_low=5,
                task_jps=40.0,
                name="cluster-eq",
            ),
            1500.0,
            workload=POISSON_WORKLOAD,
            rng=RngFactory(seed),
            faults=faults,
            on_dispatch=on_dispatch,
        )
        routed = sum(gpu.routed for gpu in metrics.gpu_breakdown)
        assert dispatches == routed == server.indexed_engagements > 0
        if name in CLUSTER_MATRIX:
            assert digest(metrics) == GOLDEN_DIGESTS[f"cluster/{name}/seed{seed}"]
        if faults is not None:
            assert narrowed > 0, "no dispatch saw a degraded device"
