"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper in its reduced
("quick") form and prints the resulting rows, so running::

    pytest benchmarks/ --benchmark-only -s

both times the harness and shows the reproduced numbers.

All benchmarks are marked ``slow`` so that ``pytest -m "not slow"`` gives a
fast test lane.  Only a ``--benchmark-only`` session records timings: the
substrate benchmarks then write ``BENCH_substrate.json`` via
:mod:`repro.experiments.perf_report` (and the workload and cluster modules
their own ``BENCH_*.json``), so a plain test run never rewrites the committed
baselines.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Sequence

import pytest

from repro.analysis.tables import format_table
from repro.experiments.perf_report import write_bench_summary

_SUBSTRATE_PREFIX = "test_bench_engine_kernel_throughput", "test_bench_full_scheduling_run"


def pytest_collection_modifyitems(items) -> None:
    """Mark every benchmark test as slow (they simulate whole figures)."""
    slow = pytest.mark.slow
    for item in items:
        if "benchmarks" in str(item.fspath):
            item.add_marker(slow)


def recording(config) -> bool:
    """Whether this session records ``BENCH_*.json`` (``--benchmark-only``)."""
    return bool(config.getoption("benchmark_only", default=False))


def pytest_sessionfinish(session) -> None:
    """Persist substrate benchmark timings as a BENCH_*.json perf report."""
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None or not recording(session.config):
        return
    timings = {}
    for bench in getattr(benchmark_session, "benchmarks", []):
        if not bench.name.startswith(_SUBSTRATE_PREFIX):
            continue
        stats = getattr(bench, "stats", None)
        if stats is None or not getattr(stats, "data", None):
            continue  # --benchmark-disable smoke mode collects no data
        timings[bench.name] = min(stats.data)
    try:
        path = write_bench_summary(timings, session.config.rootpath / "BENCH_substrate.json")
    except OSError:  # pragma: no cover - read-only checkouts
        return
    if path is not None:
        print(f"\nsubstrate perf report written to {path}")


def run_once(benchmark, func: Callable, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit(title: str, rows: Sequence[Mapping[str, object]]) -> None:
    """Print a reproduced table under a banner."""
    print(f"\n=== {title} ===")
    print(format_table(list(rows)))
