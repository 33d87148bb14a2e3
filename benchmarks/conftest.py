"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper in its reduced
("quick") form and prints the resulting rows, so running::

    pytest benchmarks/ --benchmark-only -s

both times the harness and shows the reproduced numbers.

All benchmarks are marked ``slow`` so that ``pytest -m "not slow"`` gives a
fast test lane.  The simulator's own speed is measured by ``perfbench/``,
whose exact work counters ``benchmarks/perf_counters.py`` gates.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import pytest

from repro.analysis.tables import format_table


def pytest_collection_modifyitems(items) -> None:
    """Mark every benchmark test as slow (they simulate whole figures)."""
    slow = pytest.mark.slow
    for item in items:
        if "benchmarks" in str(item.fspath):
            item.add_marker(slow)


def run_once(benchmark, func: Callable, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit(title: str, rows: Sequence[Mapping[str, object]]) -> None:
    """Print a reproduced table under a banner."""
    print(f"\n=== {title} ===")
    print(format_table(list(rows)))
