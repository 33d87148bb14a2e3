"""Engagement and infrastructure tests for the simulation fast paths.

The GPU engine's incremental replanning, the cluster's ledger dispatch and
the simulator's heap compaction are pure optimizations: for a fixed seed
they must not change a single result.  ``tests/test_golden_digests.py`` pins
that end to end against digests recorded before the reference paths were
deleted; the tests here check that the fast paths actually engage, that the
cluster's ledger routing agrees with the view-based routing it falls back
to, and the simulator/runner infrastructure around them.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, ClusterServer
from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest, run_scenarios_parallel
from repro.experiments.runner import run_daris_scenario
from repro.gpu.engine import GpuEngine
from repro.rt.taskset import make_taskset, table2_taskset
from repro.scheduler.config import DarisConfig
from repro.scheduler.daris import DarisScheduler
from repro.sim.faults import FaultSpec
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import POISSON_WORKLOAD

from test_golden_digests import CLUSTER_MATRIX


def _run_traced(seed: int = 1, horizon: float = 1000.0):
    return run_daris_scenario(
        table2_taskset("resnet18"),
        DarisConfig.mps_config(6, 6.0),
        horizon,
        seed=seed,
        with_trace=True,
    )


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


def test_engine_replanning_does_not_bloat_heap():
    """Replan churn (cancel + reschedule per event) stays bounded via compaction."""
    result = _run_traced(seed=2, horizon=600.0)
    assert result.metrics.total_jps > 0


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
    """imap_unordered streaming (the sweep driver's mode) may deliver
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
        ordered=False,
    )
    assert [r.label for r in results] == ["a", "b", "c"]
    assert seen == {0: "a", 1: "b", 2: "c"}
    ordered = run_scenarios_parallel(requests, processes=1)
    for left, right in zip(ordered, results):
        assert left.metrics == right.metrics


# ---------------------------------------------------- cluster ledger dispatch
#
# The dispatch ledger (heap/bisect routing index, incremental migration
# trigger) must answer every routing question exactly as the router
# policies' ``select`` scans over ``GpuLoadView`` tuples would — same floats,
# same tie-breaks, same epsilon.  The view path stays in the server for the
# ``on_dispatch`` observer and for degraded windows, so an observed run
# routes every release through it; these tests pin the router x placement x
# targeted-fault x migration matrix bit-identical between the two, per seed,
# by comparing complete ``ScenarioMetrics`` (deep dataclass equality
# including the per-request response-time lists and the per-GPU breakdown).


def _serve_cluster_traced(cfg_kwargs, faults=None, seed=3, on_dispatch=None):
    model = build_model("resnet18")
    taskset = make_taskset(
        [model], num_high=3, num_low=5, task_jps=40.0, name="cluster-eq"
    )
    server = ClusterServer(ClusterConfig(**cfg_kwargs))
    metrics = server.serve(
        taskset,
        1500.0,
        workload=POISSON_WORKLOAD,
        rng=RngFactory(seed),
        faults=faults,
        on_dispatch=on_dispatch,
    )
    return metrics, server.indexed_engagements


@pytest.mark.parametrize(
    ("cfg_kwargs", "faults"), list(CLUSTER_MATRIX.values()), ids=list(CLUSTER_MATRIX)
)
def test_cluster_indexed_dispatch_trace_identical(cfg_kwargs, faults):
    """Ledger routing vs view routing: merged metrics are bit-identical per seed."""
    for seed in (3, 11):
        fast, engaged = _serve_cluster_traced(cfg_kwargs, faults, seed=seed)
        viewed, view_engaged = _serve_cluster_traced(
            cfg_kwargs, faults, seed=seed, on_dispatch=lambda *_: None
        )
        assert fast == viewed
        assert engaged > 0
        assert view_engaged == 0


def test_cluster_indexed_dispatch_actually_engages():
    """Fault-free runs resolve every dispatch through the index; targeted
    faults fall back to view routing only inside degraded windows."""
    metrics, engaged = _serve_cluster_traced(dict(num_gpus=4, router="least_loaded"))
    dispatches = (
        metrics.high.admitted
        + metrics.high.rejected
        + metrics.low.admitted
        + metrics.low.rejected
    )
    assert engaged > 0
    assert engaged >= dispatches  # every release routed through the index

    faults = FaultSpec.crashes(mtbf_ms=100.0, recovery_ms=60.0).targeting(1)
    _, engaged_faulted = _serve_cluster_traced(
        dict(num_gpus=4, router="least_loaded"), faults
    )
    assert 0 < engaged_faulted < engaged


def test_cluster_on_dispatch_hook_forces_reference_views():
    """An observed run builds router views for every dispatch, so the hook
    sees exactly what the router policy saw — and the observed choices match
    the run's telemetry."""
    observed = []
    model = build_model("resnet18")
    taskset = make_taskset([model], num_high=2, num_low=2, task_jps=30.0, name="hook")
    server = ClusterServer(ClusterConfig(num_gpus=3, router="least_loaded"))
    metrics = server.serve(
        taskset,
        800.0,
        workload=POISSON_WORKLOAD,
        rng=RngFactory(5),
        on_dispatch=lambda now, name, chosen, views: observed.append((chosen, views)),
    )
    assert server.indexed_engagements == 0  # the hook pins view routing
    assert len(observed) > 0
    for chosen, views in observed:
        eligible = [v for v in views if v.alive] or list(views)
        best = min(eligible, key=lambda v: (v.outstanding_ms, v.index))
        assert chosen == best.index
    routed = sum(t.routed for t in metrics.gpu_breakdown)
    assert routed == len(observed)
