"""The perf-counter gate, ``benchmarks/perf_counters.py``, on doctored result lines.

Each test builds a perfbench result line from the committed
``benchmarks/perf_counters.json``, without running perfbench, and pipes it
to the script as the ``perf-counters`` CI lane does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_counters.py"
RECORDED_FILE = SCRIPT.with_name("perf_counters.json")
RECORDED = json.loads(RECORDED_FILE.read_text())


def gate(result):
    """Pipe one result line to the script; returns the finished process."""
    return subprocess.run(
        [sys.executable, str(SCRIPT)],
        input=json.dumps(result) + "\n",
        capture_output=True,
        text=True,
        timeout=60,
    )


def traced_line():
    """A ``--trace 1`` line carrying the recorded counters."""
    metrics = {name: dict(metric) for name, metric in RECORDED["counters"].items()}
    # Metrics the gate leaves alone: seconds, profiler call totals, trace ratios.
    metrics["daris-mps/sim.self_s"] = {"value": 1.25, "unit": "s"}
    metrics["daris-mps/sim.calls"] = {"value": 123456, "unit": "count"}
    metrics["daris-mps/trace.overhead"] = {"value": 3.0, "unit": "ratio"}
    return {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}


def untraced_line(factor=1.0):
    """A ``--trace 0`` line whose timings are ``factor`` x their references."""
    metrics = {
        name: {"value": reference * factor, "unit": "s"}
        for name, reference in RECORDED["seconds"].items()
    }
    # Metrics the time gate leaves alone.
    metrics["daris-mps/setup_s"] = {"value": 100.0, "unit": "s"}
    metrics["daris-mps/peak_rss_mb"] = {"value": 1e6, "unit": "MB"}
    return {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}


def test_the_recorded_file_covers_three_workloads():
    for section in ("counters", "seconds"):
        workloads = {name.split("/")[0] for name in RECORDED[section]}
        assert workloads == {"daris-mps", "pipeline-quick", "cluster-64gpu"}, section
    assert {name.split("/")[1] for name in RECORDED["seconds"]} == {"cold_s", "warm_s"}


def test_the_unchanged_traced_line_passes():
    done = gate(traced_line())
    assert done.returncode == 0, done.stderr


def test_timings_at_199_percent_of_their_references_pass():
    done = gate(untraced_line(1.99))
    assert done.returncode == 0, done.stderr


def test_a_cold_time_at_201_percent_of_its_reference_fails():
    line = untraced_line()
    line["metrics"]["pipeline-quick/cold_s"]["value"] *= 2.01
    done = gate(line)
    assert done.returncode == 1
    assert "pipeline-quick/cold_s" in done.stderr
    assert "pipeline-quick/warm_s" not in done.stderr


@pytest.mark.parametrize(
    "name",
    ["daris-mps/sim.events", "pipeline-quick/experiments.cache_hits", "cluster-64gpu/output.digest"],
)
def test_a_counter_off_by_one_fails(name):
    line = traced_line()
    line["metrics"][name]["value"] += 1
    done = gate(line)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"{name}: {RECORDED['counters'][name]['value'] + 1} != recorded"
        f" {RECORDED['counters'][name]['value']}"
    ]


def test_every_recorded_counter_is_compared():
    line = traced_line()
    for name in RECORDED["counters"]:
        line["metrics"][name]["value"] += 1
    done = gate(line)
    assert done.returncode == 1
    named = {problem.split(":")[0] for problem in done.stderr.splitlines()}
    assert named == set(RECORDED["counters"])


def test_a_missing_recorded_counter_fails():
    line = traced_line()
    del line["metrics"]["cluster-64gpu/cluster.dispatches"]
    done = gate(line)
    assert done.returncode == 1
    assert "cluster-64gpu/cluster.dispatches: missing" in done.stderr


def test_a_missing_timing_fails():
    line = untraced_line()
    del line["metrics"]["daris-mps/warm_s"]
    done = gate(line)
    assert done.returncode == 1
    assert "daris-mps/warm_s: missing" in done.stderr


def test_an_exact_metric_that_is_not_recorded_fails():
    line = traced_line()
    line["metrics"]["daris-mps/sim.stale_events"] = {"value": 0, "unit": "count"}
    done = gate(line)
    assert done.returncode == 1
    assert "daris-mps/sim.stale_events: exact metric not recorded" in done.stderr


@pytest.mark.parametrize("line", [traced_line, untraced_line])
def test_a_run_whose_output_checks_failed_fails(line):
    result = line()
    result["correct"] = False
    done = gate(result)
    assert done.returncode == 1
    assert "correct is False" in done.stderr


@pytest.mark.parametrize("text", ["", "== daris-mps\n", '{"metrics": {"sim.events": 1}}\n'])
def test_input_that_is_not_a_result_line_fails(text):
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], input=text, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1
    assert done.stderr.startswith("perf counters: ")


def test_record_rewrites_the_committed_file(tmp_path):
    """Counters from the traced line, each timing the median of the untraced ones."""
    script = tmp_path / SCRIPT.name
    shutil.copy(SCRIPT, script)
    lines = (untraced_line(1.5), traced_line(), untraced_line(), untraced_line(0.5))
    done = subprocess.run(
        [sys.executable, str(script), "--record"],
        input="".join(json.dumps(line) + "\n" for line in lines),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / RECORDED_FILE.name).read_text() == RECORDED_FILE.read_text()
