#!/usr/bin/env python3
"""Gate a perfbench result line against the committed ``perf_counters.json``.

    python3 perfbench/run.py --workload all --seed 1 --trace 1 | tail -n 1 | python3 benchmarks/perf_counters.py
    python3 perfbench/run.py --workload all --seed 1 --trace 0 --seconds 20 | tail -n 1 | python3 benchmarks/perf_counters.py

The script reads the last line of standard input, perfbench's one-line JSON
result, and compares it with the recorded file:

- A traced line (``--trace 1``) must carry every recorded counter with the
  recorded value, and no exact metric that is not recorded.  A metric is
  exact when its unit is not ``s``, except the profiler's ``*.calls``
  totals (they differ between CPython versions: 3.12 inlines
  comprehensions) and the ``trace.*`` ratios of seconds.
- An untraced line (one that carries ``cold_s`` or ``warm_s``) must carry
  every recorded timing, each at most ``TIME_FACTOR`` times its reference.

Either fails on ``"correct": false``.  The exit status is 0 when the line
passes and 1 otherwise; every failure names its ``workload/metric``.

``--record`` rewrites the file from every line on standard input instead:
a traced line replaces the counters, and untraced lines replace the
timings with their medians (see ``benchmarks/README.md``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RECORDED = Path(__file__).resolve().with_name("perf_counters.json")
#: The timings an untraced line is gated on, per workload.
TIMES = ("cold_s", "warm_s")
#: A timing fails above this multiple of its recorded reference.
TIME_FACTOR = 2.0


def metric_name(name: str) -> str:
    """``sim.events`` of ``daris-mps/sim.events``."""
    return name.rsplit("/", 1)[-1]


def is_exact(name: str, unit: str) -> bool:
    metric = metric_name(name)
    return unit != "s" and not metric.endswith(".calls") and not metric.startswith("trace.")


def is_untraced(metrics) -> bool:
    return any(metric_name(name) in TIMES for name in metrics)


def check_counters(metrics, counters):
    problems = []
    for name, recorded in counters.items():
        if name not in metrics:
            problems.append(f"{name}: missing (recorded {recorded['value']})")
        elif metrics[name]["value"] != recorded["value"]:
            problems.append(f"{name}: {metrics[name]['value']} != recorded {recorded['value']}")
    for name, metric in metrics.items():
        if name not in counters and is_exact(name, metric["unit"]):
            problems.append(f"{name}: exact metric not recorded ({metric['value']} {metric['unit']})")
    return problems


def check_times(metrics, seconds):
    problems = []
    for name, reference in seconds.items():
        if name not in metrics:
            problems.append(f"{name}: missing (reference {reference:.3f} s)")
            continue
        value = metrics[name]["value"]
        print(f"{name:<28} {value:8.3f} s = {value / reference:.2f}x reference {reference:.3f} s")
        if value > TIME_FACTOR * reference:
            problems.append(
                f"{name}: {value:.3f} s is above {TIME_FACTOR:g}x its reference {reference:.3f} s"
            )
    return problems


def check(result, recorded):
    """The failures of one result line, as ``workload/metric: ...`` lines."""
    metrics = result["metrics"]
    if is_untraced(metrics):
        problems = check_times(metrics, recorded["seconds"])
        passed = f"{len(recorded['seconds'])} timings within {TIME_FACTOR:g}x of their references"
    else:
        problems = check_counters(metrics, recorded["counters"])
        passed = f"{len(recorded['counters'])} exact metrics equal their recorded values"
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}: an output check failed")
    if not problems:
        print(f"perf counters: {passed}")
    return problems


def record(results, recorded):
    """Replace the counters and/or timings with those of ``results``."""
    if not all(result.get("correct") is True for result in results):
        raise ValueError("refusing to record a run whose output checks failed")
    traced = [result["metrics"] for result in results if not is_untraced(result["metrics"])]
    untraced = [result["metrics"] for result in results if is_untraced(result["metrics"])]
    if traced:
        recorded["counters"] = {
            name: metric
            for name, metric in traced[-1].items()
            if is_exact(name, metric["unit"])
        }
    if untraced:
        names = [name for name in untraced[0] if metric_name(name) in TIMES]
        recorded["seconds"] = {
            name: round(statistics.median(metrics[name]["value"] for metrics in untraced), 4)
            for name in names
        }
    return recorded


def dump(recorded) -> str:
    """The file's text: one metric per line, so a moved counter is one diff line."""
    sections = []
    for section in ("counters", "seconds"):
        body = ",\n".join(
            f"    {json.dumps(name)}: {json.dumps(value)}"
            for name, value in sorted(recorded[section].items())
        )
        sections.append(f"  {json.dumps(section)}: {{\n{body}\n  }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def read_results(text: str, every_line: bool):
    """The result lines of ``text``: every line, or only the last one."""
    lines = [line for line in text.splitlines() if line.strip()]
    results = [json.loads(line) for line in (lines if every_line else lines[-1:])]
    if not results:
        raise ValueError("no perfbench result line on stdin")
    for result in results:
        metrics = result.get("metrics") if isinstance(result, dict) else None
        if not isinstance(metrics, dict) or not all(
            isinstance(metric, dict) and {"value", "unit"} <= metric.keys()
            for metric in metrics.values()
        ):
            raise ValueError("stdin holds a line that is not a perfbench result")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--record", action="store_true", help=f"rewrite {RECORDED.name} from the lines on stdin"
    )
    args = parser.parse_args(argv)
    try:
        results = read_results(sys.stdin.read(), args.record)
        if args.record:
            recorded = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
            recorded.setdefault("counters", {})
            recorded.setdefault("seconds", {})
            RECORDED.write_text(dump(record(results, recorded)))
            print(f"recorded {RECORDED}")
            return 0
    except ValueError as error:
        print(f"perf counters: {error}", file=sys.stderr)
        return 1
    problems = check(results[0], json.loads(RECORDED.read_text()))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
