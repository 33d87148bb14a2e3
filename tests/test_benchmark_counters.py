"""The public counters and profiled functions the repository benchmark reads.

``perfbench`` reads these names from ``src/repro`` on every unit; a deleted
or renamed one would otherwise only surface when the benchmark runs.  These
tests run one short DARIS scenario and one short cluster scenario under the
benchmark's own :class:`perfbench.tracing.InstanceProbe`, and check that
every profiled ``(module, function)`` pair the benchmark counts still names
a real function, so such a break fails the test suite instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from perfbench.tracing import _PROFILED_CALLS, InstanceProbe, Patches
from repro.cluster import ClusterConfig, ClusterServer
from repro.gpu.allocation import water_fill
from repro.gpu.engine import GpuEngine
from repro.rt.taskset import table2_taskset
from repro.scheduler.admission import AdmissionController
from repro.scheduler.config import DarisConfig
from repro.scheduler.daris import DarisScheduler
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import POISSON_WORKLOAD

#: Every counter ``InstanceProbe.harvest`` reports.
HARVESTED = (
    "sim.events",
    "sim.compactions",
    "gpu.engine.completed_kernels",
    "gpu.engine.fast_path_hits",
    "gpu.engine.full_replans",
    "gpu.engine.vector_engagements",
    "cluster.indexed_engagements",
)


def _harvest(run) -> dict:
    probe = InstanceProbe()
    with Patches() as patches:
        probe.install(patches)
        run()
        return probe.harvest()


def test_instance_probe_harvests_every_counter_from_a_daris_run():
    def run():
        DarisScheduler(
            Simulator(),
            table2_taskset("resnet18"),
            DarisConfig.mps_config(6, 6.0),
            rng=RngFactory(1),
        ).run(600.0)

    counts = _harvest(run)
    assert set(HARVESTED) <= set(counts)
    assert counts["sim.events"] > 0
    assert counts["gpu.engine.completed_kernels"] > 0
    assert counts["gpu.engine.fast_path_hits"] > 0
    assert counts["gpu.engine.vector_engagements"] == 0


def test_instance_probe_harvests_every_counter_from_a_cluster_run():
    def run():
        ClusterServer(ClusterConfig(num_gpus=2)).serve(
            table2_taskset("resnet18", scale=0.25),
            600.0,
            workload=POISSON_WORKLOAD,
            rng=RngFactory(1),
        )

    counts = _harvest(run)
    assert set(HARVESTED) <= set(counts)
    assert counts["cluster.indexed_engagements"] > 0
    assert counts["gpu.engine.completed_kernels"] > 0


@pytest.mark.parametrize(
    ("metric", "function"),
    [
        ("gpu.engine.completion_events", GpuEngine._on_completion),
        ("gpu.engine.launches", GpuEngine.launch),
        ("gpu.allocation.water_fill_calls", water_fill),
        ("scheduler.admission_decisions", AdmissionController.decide),
    ],
)
def test_profiled_functions_match_the_benchmark(metric, function):
    module, name = _PROFILED_CALLS[metric]
    code = function.__code__
    assert Path(code.co_filename).as_posix().endswith("repro/" + module)
    assert code.co_name == name
