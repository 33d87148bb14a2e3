"""Arrival-generation benchmarks: releases per second for every workload kind.

These do not correspond to a paper figure; they document the raw generation
rate of each arrival process (no simulator, no scheduler) at a large horizon,
so a regression in the workload layer's own cost is visible before it taxes
every backend.  A ``--benchmark-only`` session writes the rates to
``BENCH_workloads.json`` through the shared perf-report helper.
"""

import math

import pytest

from conftest import recording, run_once

from repro.experiments.perf_report import write_bench_summary
from repro.sim.rng import RngFactory
from repro.sim.workload import (
    DIURNAL_WORKLOAD,
    MMPP_WORKLOAD,
    PERIODIC_WORKLOAD,
    POISSON_WORKLOAD,
    ReleaseStream,
    WorkloadSpec,
)

#: Large-horizon generation: 120 s of simulated time at 1000 releases/s
#: nominal, i.e. ~120k events per kind.
HORIZON_MS = 120_000.0
RATE_JPS = 1000.0


def _trace_workload() -> WorkloadSpec:
    period = 1000.0 / RATE_JPS
    return WorkloadSpec.trace([period * index for index in range(int(RATE_JPS * HORIZON_MS / 1000.0))])


BENCH_WORKLOADS = {
    "periodic": PERIODIC_WORKLOAD,
    "periodic+jitter": WorkloadSpec(jitter_ms=0.5),
    "poisson": POISSON_WORKLOAD,
    "mmpp": MMPP_WORKLOAD,
    "mmpp+jitter": MMPP_WORKLOAD.with_jitter(0.5),
    "diurnal-sin": DIURNAL_WORKLOAD,
    "diurnal-piecewise": POISSON_WORKLOAD.with_diurnal(
        period_ms=1000.0, shape="piecewise", levels=(0.25, 1.0, 2.75)
    ),
    "trace": _trace_workload(),
}

#: label -> (seconds, releases), filled as the parametrized benchmarks run.
_RESULTS = {}


def _generate(workload: WorkloadSpec) -> int:
    """Generate (not simulate) every release up to the horizon; returns count."""
    stream = ReleaseStream(workload, RngFactory(1))
    arrival = stream.arrival_for(task_id=0, period_ms=1000.0 / RATE_JPS)
    count = 0
    for _ in arrival.events(HORIZON_MS):
        count += 1
    return count


@pytest.fixture(scope="module", autouse=True)
def _workload_perf_report(request):
    """Persist the collected rates as BENCH_workloads.json at module end."""
    yield
    timings = {label: seconds for label, (seconds, _) in _RESULTS.items() if seconds}
    if not timings or not recording(request.config):
        return  # smoke and plain test runs leave the committed file alone
    extras = {
        label: {
            "releases": _RESULTS[label][1],
            "releases_per_second": round(_RESULTS[label][1] / seconds, 1),
        }
        for label, seconds in timings.items()
    }
    try:
        path = write_bench_summary(
            timings,
            request.config.rootpath / "BENCH_workloads.json",
            title="arrival-generation benchmarks",
            extras=extras,
        )
    except OSError:  # pragma: no cover - read-only checkouts
        return
    if path is not None:
        print(f"\nworkload perf report written to {path}")


@pytest.mark.parametrize("label", sorted(BENCH_WORKLOADS))
def test_bench_arrival_generation(benchmark, label):
    """Releases/sec of one arrival kind generated against a large horizon."""
    workload = BENCH_WORKLOADS[label]
    count = run_once(benchmark, _generate, workload)
    # Every kind is calibrated to a mean rate of ~RATE_JPS, so the horizon
    # should produce on the order of 120k releases (trace: exactly).
    assert count > 0.5 * RATE_JPS * HORIZON_MS / 1000.0
    stats = getattr(benchmark, "stats", None)
    data = getattr(getattr(stats, "stats", None), "data", None) or getattr(
        stats, "data", None
    )
    seconds = min(data) if data else None
    if seconds and math.isfinite(seconds):
        _RESULTS[label] = (seconds, count)
