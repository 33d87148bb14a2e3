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
    python -m repro.experiments cache --cache-dir .cache [--prune-max-entries N] [--clear]
    python -m repro.experiments run --all --seeds 5 --shard 3/8 --cache-dir shard3
    python -m repro.experiments run --all --seeds 5 --cache-dir merged --expect-cached

``run`` executes one or more registered experiments through the shared
engine as one plan: every selected grid is expanded and replicated across
seeds, served from / written back to the disk cache, its misses fanned out
over one pool of worker processes, and each experiment is then rendered as
a text table (with ``mean ±ci95`` cells when ``--seeds > 1``).  Scenarios
dispatch through the scheduler-backend registry (``list`` prints the
registered backends plus the named workload and fault-profile
vocabularies); ``--scheduler``, ``--workload`` and ``--fault`` narrow the
parameterized specs (the ``backends`` / ``faults`` grids) to one backend /
one named arrival process / one fault profile and reject unknown names as a
usage error.

``--expect-cached`` turns the run into an assertion that *zero* scenarios
had to be simulated — CI uses it to verify that a repeated invocation is
served entirely from cache.  It cannot be combined with ``--no-cache``.

To profile a run, run it serially (worker processes are invisible to the
parent's profiler) under the standard-library profiler, which writes its
table to a file and leaves standard output to the run::

    python -m cProfile -o run.prof -m repro.experiments run fig4_6 --quick --no-cache --jobs 1

``run --shard I/N`` spreads the same plan over machines: it only fills the
cache with the distinct scenarios whose cache key falls in shard ``I`` of
``N`` and prints one summary line instead of rows.  Running it again
resumes a killed shard; copying the shards' cache directories into one
merges them, and a plain ``run`` over the merged cache prints the rows,
byte-identical to an unsharded run.

A shard's cache entries are its only product, so ``run --shard`` exits 4
when the cache could not store a result it simulated.  A plain ``run`` and
``dse`` still print their rows; they warn on standard error and keep their
exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import format_replicated_table, format_table
from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    ExperimentReport,
    run_experiment,
    run_experiments,
    run_shard,
)
from repro.experiments.registry import (
    ExperimentSpec,
    all_experiments,
    get_experiment,
    load_all_experiments,
)

EXIT_OK = 0
#: A usage error: an unknown experiment, a bad selection or option.
EXIT_UNKNOWN_EXPERIMENT = 2
#: ``--expect-cached``, and a scenario had to be simulated.
EXIT_NOT_CACHED = 3
#: The cache is missing or could not be written.
EXIT_NO_CACHE = 4


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
    what flows into the spec params, so the cache sees one spelling per
    axis point.
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
    """Experiment-selection and grid arguments of ``run``."""
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
    caching = run_parser.add_mutually_exclusive_group()
    caching.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache entirely"
    )
    caching.add_argument(
        "--expect-cached",
        action="store_true",
        help=f"exit {EXIT_NOT_CACHED} if any scenario had to be simulated",
    )
    run_parser.add_argument("--json", action="store_true", help="emit rows as JSON lines")
    run_parser.add_argument(
        "--shard",
        type=_shard_spec,
        default=None,
        metavar="I/N",
        help=(
            "only fill the cache with the scenarios whose cache key falls in"
            " shard I of N (e.g. 0/4) and print a summary line, no rows"
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
    caching = dse_parser.add_mutually_exclusive_group()
    caching.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache entirely"
    )
    caching.add_argument(
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
    """Resolve the run experiment selection; ``(None, exit_code)`` on error."""
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


def _warn_unwritten(unwritten: int, cache_dir: str, prefix: str = "warning") -> None:
    """Say on standard error how many simulated results the cache lost."""
    if unwritten:
        print(
            f"{prefix}: {unwritten} simulated result(s) could not be written"
            f" to the cache at {cache_dir}",
            file=sys.stderr,
        )


def _expect_cached(args: argparse.Namespace, simulated: int) -> int:
    """The exit code of a run that simulated ``simulated`` scenarios."""
    if args.expect_cached and simulated:
        print(
            f"--expect-cached: {simulated} scenario(s) had to be simulated",
            file=sys.stderr,
        )
        return EXIT_NOT_CACHED
    return EXIT_OK


def _command_run(args: argparse.Namespace) -> int:
    specs, exit_code = _select_specs(args)
    if specs is None:
        return exit_code
    params = _params_for(args)
    _warn_unknown_params(specs, params)
    if args.shard is not None:
        shard_index, num_shards = args.shard
        shard = run_shard(
            specs,
            shard_index,
            num_shards,
            quick=args.quick,
            seeds=args.seeds,
            base_seed=args.base_seed,
            processes=args.jobs,
            cache=args.cache_dir,
            params=params,
        )
        print(
            f"shard {shard_index}/{num_shards}: {shard.owned} of {shard.total}"
            f" scenario(s); {shard.from_cache} from cache, {shard.simulated} simulated"
        )
        exit_code = _expect_cached(args, shard.simulated)
        if shard.unwritten:
            _warn_unwritten(
                shard.unwritten, args.cache_dir, prefix=f"shard {shard_index}/{num_shards}"
            )
            return EXIT_NO_CACHE
        return exit_code
    cache: Optional[ResultCache] = None if args.no_cache else ResultCache(args.cache_dir)
    reports = run_experiments(
        specs,
        quick=args.quick,
        seeds=args.seeds,
        base_seed=args.base_seed,
        processes=args.jobs,
        cache=cache,
        params=params,
    )
    for report in reports:
        _print_report(report, args.json)

    simulated = sum(report.simulated for report in reports)
    if not args.json:
        print(
            f"total: {len(specs)} experiment(s),"
            f" {sum(report.cache_hits for report in reports)} scenario(s) from cache,"
            f" {simulated} simulated"
        )
    _warn_unwritten(sum(report.unwritten for report in reports), args.cache_dir)
    return _expect_cached(args, simulated)


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
        except OSError as error:
            print(f"--csv: {error}", file=sys.stderr)
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
    _warn_unwritten(report.unwritten, args.cache_dir)
    return _expect_cached(args, report.simulated)


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "run" and args.shard is not None and (args.no_cache or args.json):
        parser.error(
            "run --shard fills the cache and prints no rows;"
            " it takes neither --no-cache nor --json"
        )
    if args.command == "list":
        return _command_list(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "dse":
        return _command_dse(args)
    return _command_cache(args)
