"""One command-line entry point for every experiment of the paper.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig4_6 --quick --seeds 5 --jobs 8 --cache-dir .cache
    python -m repro.experiments run --all --quick
    python -m repro.experiments run backends --quick --scheduler clockwork
    python -m repro.experiments run backends --quick --workload bursty
    python -m repro.experiments run faults --quick --fault storm
    python -m repro.experiments run fig9 --quick --set daris.mret_window=8 --set gpu.sm_count=40
    python -m repro.experiments dse --quick --seeds 3 --cache-dir .cache
    python -m repro.experiments run fig4_6 --quick --no-cache --profile
    python -m repro.experiments cache --cache-dir .cache [--prune-max-entries N] [--clear]
    python -m repro.experiments sweep plan --all --shards 8 --seeds 5
    python -m repro.experiments sweep run --all --shard 3/8 --seeds 5
    python -m repro.experiments sweep status --sweep-dir .cache/sweep
    python -m repro.experiments sweep merge --all --seeds 5

``run`` executes one or more registered experiments through the shared
engine: scenario grids are fanned out over worker processes, replicated
across seeds, served from / written back to the disk cache, and rendered as
text tables (with ``mean ±ci95`` cells when ``--seeds > 1``).  Scenarios
dispatch through the scheduler-backend registry (``list`` prints the
registered backends plus the named workload and fault-profile
vocabularies); ``--scheduler``, ``--workload`` and ``--fault`` narrow the
parameterized specs (the ``backends`` / ``faults`` grids) to one backend /
one named arrival process / one fault profile and reject unknown names as a
usage error.

``--expect-cached`` turns the run into an assertion that *zero* scenarios
had to be simulated — CI uses it to verify that a repeated invocation is
served entirely from cache.

``sweep`` is the multi-machine face of the same grids: ``plan`` sizes the
shards without simulating, ``run --shard i/N`` executes (or resumes) one
deterministic cache-key-range shard, ``status`` reports per-shard progress
from the row stores alone, and ``merge`` folds the stores back into rows
byte-identical to a single-machine ``run``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import format_replicated_table, format_table
from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentReport, run_experiment
from repro.experiments.registry import (
    ExperimentSpec,
    all_experiments,
    get_experiment,
    load_all_experiments,
)
from repro.experiments.sweep import (
    SweepError,
    SweepGridMismatch,
    merge_sweep,
    plan_sweep,
    run_sweep_shard,
    sweep_status,
)

EXIT_OK = 0
EXIT_UNKNOWN_EXPERIMENT = 2
EXIT_NOT_CACHED = 3
EXIT_NO_CACHE = 4
#: The sweep is not done yet — polling again later can succeed.
EXIT_SWEEP_INCOMPLETE = 5
#: The sweep directory belongs to a different grid — retrying cannot help.
EXIT_SWEEP_MISMATCH = 6


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected with a clean usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0, rejected with a clean usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type: a number >= 0, rejected with a clean usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _backend_name(text: str) -> str:
    """argparse type: a registered scheduler backend, rejected cleanly.

    An unknown backend is a usage error (exit 2) listing the registry, in
    the same style as the other argument validators — not a KeyError
    traceback out of the engine mid-run.
    """
    from repro.backends import backend_names

    names = backend_names()
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"unknown scheduler backend {text!r}; registered: {', '.join(names)}"
        )
    return text


def _workload_label(text: str) -> str:
    """argparse type: a named workload label, rejected cleanly.

    An unknown label is a usage error (exit 2) listing the vocabulary, in
    the same style as ``--scheduler`` — not a KeyError traceback out of the
    engine mid-run.
    """
    from repro.experiments.scenarios import workload_names

    names = workload_names()
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"unknown workload {text!r}; known: {', '.join(names)}"
        )
    return text


def _fault_label(text: str) -> str:
    """argparse type: a named fault-profile label, rejected cleanly.

    An unknown label is a usage error (exit 2) listing the vocabulary, in
    the same style as ``--workload`` — not a KeyError traceback out of the
    engine mid-run.
    """
    from repro.experiments.scenarios import fault_names

    names = fault_names()
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"unknown fault profile {text!r}; known: {', '.join(names)}"
        )
    return text


def _config_override(text: str) -> str:
    """argparse type for ``--set TARGET.FIELD=VALUE``: a validated config axis.

    Parse-time validation catches unknown targets/fields, wrong value types
    and out-of-range values (a negative SM count, a zero batching cap) as a
    clean usage error listing the axis vocabulary — not a traceback out of
    the engine mid-sweep.  The canonical string form (aliases resolved) is
    what flows into the spec params, so the sweep manifest and the cache see
    one spelling per axis point.
    """
    from repro.experiments.scenarios import parse_config_override

    try:
        return parse_config_override(text).spec_string()
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _shard_spec(text: str) -> Tuple[int, int]:
    """argparse type for ``--shard i/N``: 0-based index out of N shards."""
    try:
        index_text, _, count_text = text.partition("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected I/N (e.g. 0/4), got {text!r}"
        )
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard index must satisfy 0 <= I < N, got {text!r}"
        )
    return index, count


def _add_selection_arguments(parser: argparse.ArgumentParser) -> None:
    """Experiment-selection and grid arguments shared by run and sweep."""
    parser.add_argument("experiments", nargs="*", help="registry names (e.g. fig4_6 sota)")
    parser.add_argument("--all", action="store_true", help="select every registered experiment")
    grid = parser.add_mutually_exclusive_group()
    grid.add_argument(
        "--quick",
        dest="quick",
        action="store_true",
        default=True,
        help="reduced grid / shorter horizon (default)",
    )
    grid.add_argument(
        "--full", dest="quick", action="store_false", help="the paper's full grids"
    )
    parser.add_argument(
        "--seeds", type=_positive_int, default=1, help="replication count (default 1)"
    )
    parser.add_argument(
        "--base-seed", type=_nonnegative_int, default=1, help="first seed (default 1)"
    )
    parser.add_argument(
        "--model",
        default=None,
        help="model parameter for model-parameterized specs (fig4_6, fig8, fig10, backends)",
    )
    parser.add_argument(
        "--scheduler",
        type=_backend_name,
        default=None,
        help=(
            "scheduler-backend parameter for backend-parameterized specs"
            " (the backends grid); unknown names are a usage error listing"
            " the registry"
        ),
    )
    parser.add_argument(
        "--workload",
        type=_workload_label,
        default=None,
        help=(
            "workload parameter for workload-parameterized specs (the"
            " backends grid): one of the named arrival processes"
            " (periodic/poisson/saturated/bursty/diurnal); unknown labels"
            " are a usage error listing the vocabulary"
        ),
    )
    parser.add_argument(
        "--fault",
        type=_fault_label,
        default=None,
        help=(
            "fault-profile parameter for fault-parameterized specs (the"
            " faults grid): one of the named profiles"
            " (none/throttle/flaky-launch/crashy/lossy/storm); unknown"
            " labels are a usage error listing the vocabulary"
        ),
    )
    parser.add_argument(
        "--set",
        dest="config_overrides",
        type=_config_override,
        action="append",
        default=None,
        metavar="TARGET.FIELD=VALUE",
        help=(
            "override one config axis on every request the grid builds, e.g."
            " --set daris.mret_window=8 --set gpu.sm_count=40 (repeatable;"
            " backend overrides apply to that backend's requests, gpu"
            " overrides to all); unknown axes, wrong types and out-of-range"
            " values are a usage error listing the axis vocabulary"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments through the shared registry/engine.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list registered experiments")
    list_parser.add_argument("--json", action="store_true", help="machine-readable output")

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    _add_selection_arguments(run_parser)
    run_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes (default: one per CPU; 1 = serial)",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=".cache/experiments",
        help="result cache directory (default .cache/experiments)",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache entirely"
    )
    run_parser.add_argument(
        "--expect-cached",
        action="store_true",
        help=f"exit {EXIT_NOT_CACHED} if any scenario had to be simulated",
    )
    run_parser.add_argument("--json", action="store_true", help="emit rows as JSON lines")
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run under cProfile and print the top 25 functions by cumulative"
            " time; forces --jobs 1 (worker processes are invisible to the"
            " parent's profiler)"
        ),
    )

    dse_parser = subparsers.add_parser(
        "dse",
        help="run the design-space exploration grid and render its Pareto frontier",
    )
    grid = dse_parser.add_mutually_exclusive_group()
    grid.add_argument(
        "--quick",
        dest="quick",
        action="store_true",
        default=True,
        help="reduced design grid (default)",
    )
    grid.add_argument(
        "--full", dest="quick", action="store_false", help="the full design grid"
    )
    dse_parser.add_argument(
        "--seeds",
        type=_positive_int,
        default=1,
        help="replication count; > 1 makes the frontier CI-aware (default 1)",
    )
    dse_parser.add_argument(
        "--base-seed", type=_nonnegative_int, default=1, help="first seed (default 1)"
    )
    dse_parser.add_argument(
        "--scheduler",
        type=_backend_name,
        default=None,
        help="restrict the design grid to one backend lane (daris/clockwork)",
    )
    dse_parser.add_argument(
        "--set",
        dest="config_overrides",
        type=_config_override,
        action="append",
        default=None,
        metavar="TARGET.FIELD=VALUE",
        help="override one config axis on every design point (repeatable)",
    )
    dse_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes (default: one per CPU; 1 = serial)",
    )
    dse_parser.add_argument(
        "--cache-dir",
        default=".cache/experiments",
        help="result cache directory (default .cache/experiments)",
    )
    dse_parser.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache entirely"
    )
    dse_parser.add_argument(
        "--expect-cached",
        action="store_true",
        help=f"exit {EXIT_NOT_CACHED} if any scenario had to be simulated",
    )
    dse_parser.add_argument(
        "--json", action="store_true", help="emit frontier-annotated rows as JSON lines"
    )
    dse_parser.add_argument(
        "--heatmap",
        action="store_true",
        help="render a text ablation heatmap of the design grid after the frontier",
    )
    dse_parser.add_argument(
        "--heatmap-x",
        default="sms",
        metavar="COLUMN",
        help="heatmap column axis (a row column; default sms)",
    )
    dse_parser.add_argument(
        "--heatmap-y",
        default="window",
        metavar="COLUMN",
        help="heatmap row axis (a row column; default window)",
    )
    dse_parser.add_argument(
        "--heatmap-metric",
        default="miss_rate",
        metavar="COLUMN",
        help="numeric row column averaged into each cell (default miss_rate)",
    )
    dse_parser.add_argument(
        "--csv",
        dest="heatmap_csv",
        default=None,
        metavar="PATH",
        help="also write the heatmap matrix as CSV to PATH (implies --heatmap)",
    )

    cache_parser = subparsers.add_parser("cache", help="inspect or trim the result cache")
    cache_parser.add_argument(
        "--cache-dir", default=".cache/experiments", help="cache directory to manage"
    )
    cache_parser.add_argument("--clear", action="store_true", help="remove every entry")
    cache_parser.add_argument(
        "--prune-max-entries",
        type=_nonnegative_int,
        default=None,
        help="keep only the newest N entries",
    )
    cache_parser.add_argument(
        "--prune-max-age-days",
        type=_nonnegative_float,
        default=None,
        help="drop entries older than N days",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="sharded, resumable sweeps across machines"
    )
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command", required=True)

    plan_parser = sweep_sub.add_parser(
        "plan", help="size every shard (committed / cached / to simulate) without simulating"
    )
    _add_selection_arguments(plan_parser)
    plan_parser.add_argument(
        "--shards", type=_positive_int, required=True, help="total shard count N"
    )

    shard_run_parser = sweep_sub.add_parser(
        "run", help="execute (or resume) one cache-key-range shard of the grid"
    )
    _add_selection_arguments(shard_run_parser)
    shard_run_parser.add_argument(
        "--shard",
        type=_shard_spec,
        required=True,
        metavar="I/N",
        help="this machine's shard, e.g. 0/4 (0-based index out of N)",
    )
    shard_run_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes (default: one per CPU; 1 = serial)",
    )

    status_parser = sweep_sub.add_parser(
        "status", help="per-shard progress, read from the row stores alone"
    )

    merge_parser = sweep_sub.add_parser(
        "merge", help="fold shard row stores into the usual report rows"
    )
    _add_selection_arguments(merge_parser)
    merge_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for missing scenarios (default: one per CPU)",
    )
    merge_parser.add_argument(
        "--simulate-missing",
        action="store_true",
        help="simulate units no shard committed instead of failing",
    )
    merge_parser.add_argument("--json", action="store_true", help="emit rows as JSON lines")

    for sweep_command in (plan_parser, shard_run_parser, status_parser, merge_parser):
        sweep_command.add_argument(
            "--sweep-dir",
            default=".cache/sweep",
            help="shard row-store directory (default .cache/sweep)",
        )
        if sweep_command is not status_parser:
            sweep_command.add_argument(
                "--cache-dir",
                default=".cache/experiments",
                help="shared result cache directory (default .cache/experiments)",
            )
    return parser


def _command_list(args: argparse.Namespace) -> int:
    from repro.backends import all_backends
    from repro.experiments.scenarios import NAMED_FAULTS, NAMED_WORKLOADS

    specs = all_experiments()
    backends = all_backends()

    def _json_default(value: object) -> object:
        # Spec defaults / axis levels may carry non-JSON values (enums);
        # their string form is the canonical CLI spelling anyway.
        return getattr(value, "value", str(value))

    if args.json:
        print(
            json.dumps(
                {
                    "experiments": [
                        {
                            "name": spec.name,
                            "title": spec.title,
                            "replicable": spec.replicable,
                            # The spec's declared parameters (defaults double
                            # as the declaration) and swept config axes.
                            "params": dict(spec.defaults),
                            "axes": [
                                {
                                    "axis": axis.spec_string(),
                                    "values": list(axis.values),
                                    "description": axis.description,
                                }
                                for axis in spec.axes
                            ],
                        }
                        for spec in specs
                    ],
                    "backends": [
                        {
                            "name": backend.name,
                            "workloads": list(backend.supported_arrivals),
                            "config": backend.config_type.__name__,
                            "title": backend.title,
                        }
                        for backend in backends
                    ],
                    "workloads": [
                        {
                            "name": name,
                            "arrival": workload.arrival,
                            "label": workload.label(),
                            "randomized": workload.randomized,
                        }
                        for name, workload in NAMED_WORKLOADS.items()
                    ],
                    "faults": [
                        {
                            "name": name,
                            "label": spec.label(),
                            "randomized": spec.randomized,
                        }
                        for name, spec in NAMED_FAULTS.items()
                    ],
                },
                default=_json_default,
            )
        )
        return EXIT_OK
    rows = [
        {
            "name": spec.name,
            "seeds_axis": "yes" if spec.replicable else "no (deterministic)",
            "params": ",".join(sorted(spec.defaults)) or "-",
            "title": spec.title,
        }
        for spec in specs
    ]
    print(format_table(rows))
    axis_specs = [spec for spec in specs if spec.axes]
    if axis_specs:
        print()
        print("declared config axes (override any axis with --set TARGET.FIELD=VALUE):")
        axis_rows = [
            {
                "experiment": spec.name,
                "axis": axis.spec_string(),
                "values": ",".join(str(value) for value in axis.values) or "-",
                "description": axis.description,
            }
            for spec in axis_specs
            for axis in spec.axes
        ]
        print(format_table(axis_rows))
    print()
    print("scheduler backends (run ... --scheduler NAME where a spec declares it):")
    backend_rows = [
        {
            "name": backend.name,
            "workloads": "/".join(backend.supported_arrivals),
            "config": backend.config_type.__name__,
            "title": backend.title,
        }
        for backend in backends
    ]
    print(format_table(backend_rows))
    print()
    print("named workloads (run ... --workload NAME where a spec declares it):")
    workload_rows = [
        {
            "name": name,
            "arrival": workload.arrival,
            "label": workload.label(),
            "seeded": "yes" if workload.randomized else "no",
        }
        for name, workload in NAMED_WORKLOADS.items()
    ]
    print(format_table(workload_rows))
    print()
    print("named fault profiles (run ... --fault NAME where a spec declares it):")
    fault_rows = [
        {
            "name": name,
            "faults": spec.label(),
            "seeded": "yes" if spec.randomized else "no",
        }
        for name, spec in NAMED_FAULTS.items()
    ]
    print(format_table(fault_rows))
    return EXIT_OK


def _print_report(report: ExperimentReport, as_json: bool) -> None:
    spec = report.spec
    if as_json:
        for row in report.rows:
            print(json.dumps({"experiment": spec.name, **row}))
        return
    seeds_note = (
        f"seeds {report.seeds[0]}..{report.seeds[-1]}" if report.replicated else f"seed {report.seeds[0]}"
    )
    print(f"== {spec.name} — {spec.title} [{'quick' if report.quick else 'full'}, {seeds_note}] ==")
    renderer = format_replicated_table if report.replicated else format_table
    print(renderer(report.rows))
    if spec.highlights:
        print(f"paper highlights: {json.dumps(spec.highlights)}")
    print(f"scenarios: {report.cache_hits} cached, {report.simulated} simulated")
    print()


def _select_specs(args: argparse.Namespace) -> Tuple[Optional[List[ExperimentSpec]], int]:
    """Resolve the run/sweep experiment selection; ``(None, exit_code)`` on error."""
    load_all_experiments()
    if args.all and args.experiments:
        print("pass either experiment names or --all, not both", file=sys.stderr)
        return None, EXIT_UNKNOWN_EXPERIMENT
    if args.all:
        return all_experiments(), EXIT_OK
    if args.experiments:
        try:
            return [get_experiment(name) for name in args.experiments], EXIT_OK
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return None, EXIT_UNKNOWN_EXPERIMENT
    print("nothing to run: name experiments or pass --all", file=sys.stderr)
    return None, EXIT_UNKNOWN_EXPERIMENT


def _params_for(args: argparse.Namespace) -> Optional[dict]:
    params = {}
    if args.model:
        params["model_name"] = args.model
    if getattr(args, "scheduler", None):
        params["scheduler"] = args.scheduler
    if getattr(args, "workload", None):
        params["workload"] = args.workload
    if getattr(args, "fault", None):
        params["fault"] = args.fault
    if getattr(args, "config_overrides", None):
        params["config_overrides"] = tuple(args.config_overrides)
    return params or None


def _warn_unknown_params(specs: Sequence[ExperimentSpec], params: Optional[dict]) -> None:
    """Flag parameters a spec does not declare instead of dropping them silently."""
    for spec in specs:
        unknown = spec.unknown_params(params)
        if unknown:
            print(
                f"warning: {spec.name} does not declare parameter(s)"
                f" {', '.join(unknown)}; they are ignored by its grid",
                file=sys.stderr,
            )


def _command_run(args: argparse.Namespace) -> int:
    specs, exit_code = _select_specs(args)
    if specs is None:
        return exit_code
    cache: Optional[ResultCache] = None if args.no_cache else ResultCache(args.cache_dir)
    params = _params_for(args)
    _warn_unknown_params(specs, params)
    profiler = None
    jobs = args.jobs
    if args.profile:
        import cProfile

        # Worker processes run their own interpreters; only a serial run
        # gives the profiler the actual simulation work.
        jobs = 1
        profiler = cProfile.Profile()
        profiler.enable()
    total_simulated = total_hits = total_misses = 0
    for spec in specs:
        report = run_experiment(
            spec,
            quick=args.quick,
            seeds=args.seeds,
            base_seed=args.base_seed,
            processes=jobs,
            cache=cache,
            params=params,
        )
        _print_report(report, args.json)
        total_simulated += report.simulated
        total_hits += report.cache_hits
        total_misses += report.cache_misses
    if profiler is not None:
        import pstats

        profiler.disable()
        print("== cProfile: top 25 by cumulative time ==")
        pstats.Stats(profiler, stream=sys.stdout).sort_stats("cumulative").print_stats(25)

    if not args.json:
        print(
            f"total: {len(specs)} experiment(s), {total_hits} scenario(s) from cache,"
            f" {total_simulated} simulated"
        )
    if args.expect_cached and (total_misses > 0 or args.no_cache):
        print(
            f"--expect-cached: {total_misses} scenario(s) had to be simulated",
            file=sys.stderr,
        )
        return EXIT_NOT_CACHED
    return EXIT_OK


def _command_dse(args: argparse.Namespace) -> int:
    """Run the DSE grid and render its CI-aware Pareto frontier."""
    from repro.analysis.pareto import frontier_rows
    from repro.experiments.dse_grid import SPEC, frontier_from_rows

    params = {}
    if args.scheduler:
        params["scheduler"] = args.scheduler
    if args.config_overrides:
        params["config_overrides"] = tuple(args.config_overrides)
    cache: Optional[ResultCache] = None if args.no_cache else ResultCache(args.cache_dir)
    report = run_experiment(
        SPEC,
        quick=args.quick,
        seeds=args.seeds,
        base_seed=args.base_seed,
        processes=args.jobs,
        cache=cache,
        params=params or None,
    )
    result = frontier_from_rows(report.rows)
    annotated = frontier_rows(result)
    heatmap_text: Optional[str] = None
    if args.heatmap or args.heatmap_csv:
        from repro.analysis.heatmap import heatmap_csv, render_heatmap

        try:
            heatmap_text = render_heatmap(
                report.rows, args.heatmap_x, args.heatmap_y, args.heatmap_metric
            )
            if args.heatmap_csv:
                with open(args.heatmap_csv, "w", encoding="utf-8") as handle:
                    handle.write(
                        heatmap_csv(
                            report.rows,
                            args.heatmap_x,
                            args.heatmap_y,
                            args.heatmap_metric,
                        )
                    )
        except ValueError as error:
            print(f"--heatmap: {error}", file=sys.stderr)
            return EXIT_UNKNOWN_EXPERIMENT
    if args.json:
        for row in annotated:
            print(json.dumps({"experiment": SPEC.name, **row}))
    else:
        seeds_note = (
            f"seeds {report.seeds[0]}..{report.seeds[-1]}"
            if report.replicated
            else f"seed {report.seeds[0]}"
        )
        print(
            f"== dse — {SPEC.title}"
            f" [{'quick' if report.quick else 'full'}, {seeds_note}] =="
        )
        renderer = format_replicated_table if report.replicated else format_table
        print(renderer(report.rows))
        print()
        objectives = " x ".join(
            f"{objective.label} ({objective.sense})" for objective in result.objectives
        )
        print(f"Pareto frontier over {objectives}:")
        print(format_table([row for row in annotated if row["frontier"] == "yes"]))
        dominated = [row for row in annotated if row["frontier"] == "no"]
        print(
            f"frontier: {len(result.frontier)} design point(s);"
            f" dominated: {len(dominated)}"
            + (
                " (max dominated_by "
                + str(max(row["dominated_by"] for row in dominated))
                + ")"
                if dominated
                else ""
            )
        )
        if report.replicated:
            print(
                "dominance is CI-aware: a point is dominated only when it loses"
                " by more than the combined 95% CIs on some objective"
            )
        if heatmap_text is not None:
            print()
            print(heatmap_text)
        print(f"scenarios: {report.cache_hits} cached, {report.simulated} simulated")
    if args.heatmap_csv:
        print(f"heatmap CSV written to {args.heatmap_csv}", file=sys.stderr)
    if args.expect_cached and (report.cache_misses > 0 or args.no_cache):
        print(
            f"--expect-cached: {report.cache_misses} scenario(s) had to be simulated",
            file=sys.stderr,
        )
        return EXIT_NOT_CACHED
    return EXIT_OK


def _command_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if not cache.exists():
        # Inspection must not fabricate an empty cache directory as a side
        # effect — report the absence instead.
        print(f"no such cache: {args.cache_dir}", file=sys.stderr)
        return EXIT_NO_CACHE
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
        return EXIT_OK
    if args.prune_max_entries is not None or args.prune_max_age_days is not None:
        removed = cache.prune(
            max_entries=args.prune_max_entries, max_age_days=args.prune_max_age_days
        )
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'}")
    entries = len(cache)
    print(f"{cache.cache_dir}: {entries} entr{'y' if entries == 1 else 'ies'},"
          f" {cache.size_bytes() / 1024.0:.1f} KiB")
    return EXIT_OK


def _command_sweep_plan(args: argparse.Namespace) -> int:
    specs, exit_code = _select_specs(args)
    if specs is None:
        return exit_code
    params = _params_for(args)
    _warn_unknown_params(specs, params)
    try:
        grid, entries = plan_sweep(
            specs,
            num_shards=args.shards,
            quick=args.quick,
            seeds=args.seeds,
            base_seed=args.base_seed,
            sweep_dir=args.sweep_dir,
            cache=args.cache_dir,
            params=params,
        )
    except SweepGridMismatch as error:
        print(str(error), file=sys.stderr)
        return EXIT_SWEEP_MISMATCH
    except SweepError as error:
        print(str(error), file=sys.stderr)
        return EXIT_SWEEP_INCOMPLETE
    print(
        f"sweep plan: {len(grid.unique_units())} unit(s) across {args.shards} shard(s),"
        f" grid {grid.fingerprint[:12]}"
    )
    for entry in entries:
        print(
            f"shard {entry.shard_index}/{args.shards}: {entry.units} unit(s) —"
            f" {entry.committed} committed, {entry.cached} cached,"
            f" {entry.misses} to simulate"
        )
    return EXIT_OK


def _command_sweep_run(args: argparse.Namespace) -> int:
    specs, exit_code = _select_specs(args)
    if specs is None:
        return exit_code
    shard_index, num_shards = args.shard
    params = _params_for(args)
    _warn_unknown_params(specs, params)
    try:
        report = run_sweep_shard(
            specs,
            shard_index=shard_index,
            num_shards=num_shards,
            quick=args.quick,
            seeds=args.seeds,
            base_seed=args.base_seed,
            processes=args.jobs,
            sweep_dir=args.sweep_dir,
            cache=args.cache_dir,
            params=params,
        )
    except SweepGridMismatch as error:
        print(str(error), file=sys.stderr)
        return EXIT_SWEEP_MISMATCH
    except SweepError as error:
        print(str(error), file=sys.stderr)
        return EXIT_SWEEP_INCOMPLETE
    print(
        f"shard {report.shard_index}/{report.num_shards}:"
        f" {report.shard_units}/{report.total_units} unit(s);"
        f" {report.already_committed} already committed,"
        f" {report.from_cache} served from cache, {report.simulated} simulated"
    )
    return EXIT_OK


def _command_sweep_status(args: argparse.Namespace) -> int:
    statuses = sweep_status(args.sweep_dir)
    if not statuses:
        print(f"no shard stores under {args.sweep_dir}", file=sys.stderr)
        return EXIT_SWEEP_INCOMPLETE
    fingerprints = {status.grid_fingerprint for status in statuses}
    complete = 0
    for status in statuses:
        if status.complete:
            state = "complete"
        elif not status.manifest_ok:
            state = "incomplete: manifest unreadable"
        else:
            state = "incomplete"
        complete += status.complete
        print(
            f"shard {status.shard_index}/{status.num_shards}:"
            f" {status.committed}/{status.num_units} committed ({state})"
        )
    if len(fingerprints) > 1:
        print(
            f"warning: {len(fingerprints)} different grids share this sweep dir",
            file=sys.stderr,
        )
    # A shard whose machine never started leaves no store at all; every
    # manifest records the sweep's shard count, so its absence is visible.
    missing_stores = 0
    for fingerprint in fingerprints:
        group = [status for status in statuses if status.grid_fingerprint == fingerprint]
        expected = max(status.num_shards for status in group)
        missing_stores += max(0, expected - len(group))
    if missing_stores:
        print(f"{missing_stores} shard store(s) not started yet", file=sys.stderr)
    print(f"{complete}/{len(statuses)} shard store(s) complete")
    return (
        EXIT_OK
        if complete == len(statuses) and not missing_stores
        else EXIT_SWEEP_INCOMPLETE
    )


def _command_sweep_merge(args: argparse.Namespace) -> int:
    specs, exit_code = _select_specs(args)
    if specs is None:
        return exit_code
    params = _params_for(args)
    _warn_unknown_params(specs, params)
    try:
        merged = merge_sweep(
            specs,
            quick=args.quick,
            seeds=args.seeds,
            base_seed=args.base_seed,
            sweep_dir=args.sweep_dir,
            cache=args.cache_dir,
            params=params,
            processes=args.jobs,
            simulate_missing=args.simulate_missing,
        )
    except SweepGridMismatch as error:
        print(str(error), file=sys.stderr)
        return EXIT_SWEEP_MISMATCH
    except SweepError as error:  # includes SweepIncomplete
        print(str(error), file=sys.stderr)
        return EXIT_SWEEP_INCOMPLETE
    for report in merged.reports:
        _print_report(report, args.json)
    if not args.json:
        print(
            f"merge: {merged.from_store} unit(s) from shard stores,"
            f" {merged.from_cache} from cache, {merged.simulated} simulated"
        )
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(list(argv) if argv is not None else None)
    if args.command == "list":
        return _command_list(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "dse":
        return _command_dse(args)
    if args.command == "sweep":
        handlers = {
            "plan": _command_sweep_plan,
            "run": _command_sweep_run,
            "status": _command_sweep_status,
            "merge": _command_sweep_merge,
        }
        return handlers[args.sweep_command](args)
    return _command_cache(args)
