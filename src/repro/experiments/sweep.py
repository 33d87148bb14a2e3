"""Sharded, resumable sweep driver on top of the registry and result cache.

The paper's evaluation is a cross-product of ``(task set, configuration,
seed)`` scenarios; :func:`~repro.experiments.engine.run_experiment` handles
one machine and one uninterrupted run.  This module scales the same grids
past both limits:

* **Sharding** — any registered spec (or all of them) expands into its flat
  request grid, and each request is assigned to exactly one of ``N`` shards
  by its *cache-key range* (:func:`shard_for_key`): the hex key space is cut
  into ``N`` contiguous, near-equal prefix buckets.  Assignment depends only
  on ``(key, N)``, so it is stable across machines, re-runs and Python
  versions — every machine that runs ``--shard i/N`` of the same grid agrees
  on who owns what, with no coordinator.
* **The cache as the dedup/commit layer** — a shard executes only its own
  cache misses through :func:`run_scenarios_parallel` (unordered streaming,
  so completions commit the moment any worker finishes) and commits every
  completed scenario twice: to the shared
  :class:`~repro.experiments.cache.ResultCache` (global dedup across shards,
  sweeps and plain ``run`` invocations) and to the shard's own append-only
  row store.
* **Resume for free** — the row store is a ``manifest.json`` plus an
  append-only ``rows.jsonl`` (one self-describing line per committed
  scenario, flushed per line).  Killing a shard loses only in-flight
  scenarios: re-running the same command skips everything already in the
  row store or the cache and simulates just the remainder.  A truncated
  final line (the signature of a kill) is ignored on read.
* **Merge** — :func:`merge_sweep` folds every shard's row store (plus the
  cache as fallback) back into each spec's seed-major result order, then
  reuses the engine's :func:`~repro.experiments.engine.rows_for_expanded`,
  so the merged rows are byte-identical to a single-machine
  ``run_experiment`` of the same grid.

Traced requests (Figure 9) are ordinary units: their results serialize with
their trace records, so they shard, commit and merge like every other
scenario.

**Config sweeps need no special handling here.**  ``--set`` config-axis
overrides (see :mod:`repro.experiments.scenarios`) travel inside ``params``
as the reserved ``config_overrides`` tuple and are applied by
:func:`~repro.experiments.engine.expand_experiment` when the grid is
(re-)expanded — so ``plan`` / ``run --shard`` / ``merge`` invoked with the
same ``--set`` flags all see the exact same overridden requests, the grid
fingerprint (built from the requests' cache keys) distinguishes every
override combination, and ``merge == run`` byte-equality holds for design
grids exactly as for scenario grids.

Store layout::

    <sweep_dir>/
        shard-0000-of-0002/
            manifest.json   grid fingerprint + unit counts (atomic write)
            rows.jsonl      append-only commit log, one scenario per line

Every manifest embeds the *grid fingerprint* — a digest of the expanded
request keys and the sweep arguments — so shards from a different grid
(other specs, seeds, quick/full, parameters) can never be silently mixed
into a run or a merge.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    ExpandedExperiment,
    ExperimentReport,
    _resolve_cache,
    expand_experiment,
    rows_for_expanded,
)
from repro.experiments.parallel import ScenarioRequest, run_scenarios_parallel
from repro.experiments.registry import ExperimentSpec, get_experiment
from repro.experiments.runner import ScenarioResult

#: Manifest / row-record schema; bump when the store layout changes.
SWEEP_SCHEMA = 1

#: Hex digits of the cache key used for range bucketing.  16**8 ≈ 4.3e9
#: buckets keeps shard boundaries far finer than any realistic shard count
#: while staying in exact integer arithmetic.
KEY_PREFIX_LEN = 8

#: Envelope key extractor for the payload-free row-store scan: the writer
#: puts ``"key"`` before ``"result"``, so the leftmost match is the envelope.
_KEY_FIELD = re.compile(r'"key"\s*:\s*"([0-9a-fA-F]+)"')


class SweepError(RuntimeError):
    """Base class for sweep-driver failures."""


class SweepGridMismatch(SweepError):
    """A shard store on disk was written for a different grid."""


class SweepIncomplete(SweepError):
    """Merge found grid units that no shard store (or the cache) holds."""

    def __init__(self, message: str, missing: int) -> None:
        super().__init__(message)
        self.missing = missing


def shard_for_key(key: str, num_shards: int, prefix_len: int = KEY_PREFIX_LEN) -> int:
    """Deterministic shard of a cache key: contiguous hex-prefix ranges.

    The first ``prefix_len`` hex digits of ``key``, read as an integer
    ``p``, select shard ``p * num_shards // 16**prefix_len`` — i.e. the key
    space ``[0, 16**prefix_len)`` is cut into ``num_shards`` contiguous,
    near-equal ranges.  SHA-256 keys are uniform, so shard sizes are
    balanced to within sampling noise; contiguity means each shard owns a
    literal key *range*, which makes ``ResultCache.iter_keys(prefix)``-style
    range scans line up with shard ownership.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    prefix = int(key[:prefix_len], 16)
    return prefix * num_shards // (16 ** prefix_len)


@dataclass(frozen=True)
class SweepUnit:
    """One shardable scenario of a sweep: a request plus its identity."""

    experiment: str
    flat_index: int  # position in the spec's seed-major flat request grid
    seed: int
    request: ScenarioRequest
    key: str  # the request's cache key


@dataclass(frozen=True)
class SweepGrid:
    """Every selected spec's expanded grid, flattened into shardable units."""

    expanded: Tuple[ExpandedExperiment, ...]
    units: Tuple[SweepUnit, ...]  # every spec's units, in spec order
    fingerprint: str

    def expanded_by_name(self) -> Dict[str, ExpandedExperiment]:
        return {expansion.spec.name: expansion for expansion in self.expanded}

    def unique_units(self) -> List[SweepUnit]:
        """One unit per distinct cache key (first occurrence wins).

        Seed-insensitive requests replicated across the ``--seeds`` axis
        expand to several value-identical units sharing one key; executing
        (and counting) them once per key is what makes shard progress
        accounting line up with the key-deduplicated row stores.  ``merge``
        still iterates :attr:`units` in full — every duplicate placement
        resolves from the same committed record.
        """
        unique: List[SweepUnit] = []
        seen: set = set()
        for unit in self.units:
            if unit.key not in seen:
                seen.add(unit.key)
                unique.append(unit)
        return unique


def _resolve_specs(
    experiments: Sequence[Union[ExperimentSpec, str]]
) -> List[ExperimentSpec]:
    return [
        spec if isinstance(spec, ExperimentSpec) else get_experiment(spec)
        for spec in experiments
    ]


def build_sweep_grid(
    experiments: Sequence[Union[ExperimentSpec, str]],
    quick: bool = True,
    seeds: int = 1,
    base_seed: int = 1,
    params: Optional[Mapping[str, object]] = None,
) -> SweepGrid:
    """Expand specs into the flat unit list every sweep subcommand shares.

    The returned grid (and its fingerprint) is a pure function of the
    arguments: ``plan``, every ``run --shard i/N`` and ``merge`` invoked with
    the same arguments — on any machine — see the same units, the same
    ownership, and the same fingerprint.
    """
    units: List[SweepUnit] = []
    expanded: List[ExpandedExperiment] = []
    for spec in _resolve_specs(experiments):
        expansion = expand_experiment(
            spec, quick=quick, seeds=seeds, base_seed=base_seed, params=params
        )
        expanded.append(expansion)
        width = expansion.requests_per_seed
        for flat_index, request in enumerate(expansion.requests):
            units.append(
                SweepUnit(
                    experiment=spec.name,
                    flat_index=flat_index,
                    seed=expansion.seed_values[flat_index // width],
                    request=request,
                    key=request.cache_key(),
                )
            )

    keys_digest = hashlib.sha256(
        "".join(sorted(unit.key for unit in units)).encode("ascii")
    ).hexdigest()
    payload = {
        "schema": SWEEP_SCHEMA,
        "experiments": [expansion.spec.name for expansion in expanded],
        "quick": quick,
        "seeds": seeds,
        "base_seed": base_seed,
        "num_units": len(units),
        # Traced units were once kept out of the grid and counted here; the
        # constant keeps every trace-free grid's fingerprint, so its shard
        # stores still resume.
        "num_traced": 0,
        "keys": keys_digest,
    }
    fingerprint = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return SweepGrid(
        expanded=tuple(expanded),
        units=tuple(units),
        fingerprint=fingerprint,
    )


# --------------------------------------------------------------------- stores


class ShardStore:
    """Append-only commit log for one shard of one sweep grid.

    ``rows.jsonl`` holds one JSON record per committed scenario::

        {"key": ..., "experiment": ..., "flat_index": ..., "seed": ...,
         "source": "simulated" | "cache", "result": {...}}

    Records are self-describing (they embed the result payload, not a cache
    pointer), so a merge needs only the shard directories — the cache is a
    fallback, not a requirement.  Appends are flushed per line; a killed
    process leaves at most one truncated final line, which
    :meth:`committed_records` skips.
    """

    def __init__(
        self, sweep_dir: Union[str, Path], shard_index: int, num_shards: int
    ) -> None:
        self.shard_index = shard_index
        self.num_shards = num_shards
        self.directory = (
            Path(sweep_dir) / f"shard-{shard_index:04d}-of-{num_shards:04d}"
        )
        self.manifest_path = self.directory / "manifest.json"
        self.rows_path = self.directory / "rows.jsonl"

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    def load_manifest(self) -> Optional[Dict[str, object]]:
        """The shard's manifest, or ``None`` if absent/unreadable."""
        try:
            with self.manifest_path.open("r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def write_manifest(self, manifest: Dict[str, object]) -> None:
        """Atomically persist the manifest (tempfile + fsync + ``os.replace``).

        The fsync before the rename makes the write crash-safe, not just
        atomic: without it a power loss shortly after ``os.replace`` can
        leave the *new name* pointing at *unwritten bytes* on journaled
        filesystems, which is exactly the torn state the rename was meant
        to prevent.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            prefix=".manifest.", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, self.manifest_path)
        except OSError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def _iter_records(self) -> Iterator[Dict[str, object]]:
        """Parse ``rows.jsonl`` leniently, skipping damaged lines.

        Unparsable lines (a truncated tail from a killed shard) and records
        without a key/result are skipped — an interrupted append can cost at
        most the one in-flight scenario, never the store.
        """
        try:
            with self.rows_path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    key = record.get("key") if isinstance(record, dict) else None
                    if isinstance(key, str) and key and "result" in record:
                        yield record
        except OSError:
            return

    def committed_records(self) -> Dict[str, Dict[str, object]]:
        """Every durable record in the row store, keyed by cache key."""
        return {record["key"]: record for record in self._iter_records()}  # type: ignore[misc]

    def committed_keys(self) -> set:
        """Only the committed keys — result payloads are never deserialized.

        Every line except the last is complete by construction: the store is
        single-writer and line-flushed, a kill can only truncate the tail,
        and :meth:`appender` truncates any such partial tail away before a
        resume appends again.  Keys are therefore pulled out with a string
        scan, and only the final line pays for the full lenient parse that
        rejects a truncated tail.
        Status/plan polls therefore scan the commit log without parsing the
        embedded results.
        """
        keys: set = set()

        def _scan(line: str, final: bool) -> None:
            line = line.strip()
            if not line:
                return
            if not final:
                match = _KEY_FIELD.search(line)
                if match is not None and '"result"' in line:
                    keys.add(match.group(1))
                    return
            try:
                record = json.loads(line)
            except ValueError:
                return
            key = record.get("key") if isinstance(record, dict) else None
            if isinstance(key, str) and key and "result" in record:
                keys.add(key)

        previous: Optional[str] = None
        try:
            with self.rows_path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    if previous is not None:
                        _scan(previous, final=False)
                    previous = line
        except OSError:
            return keys
        if previous is not None:
            _scan(previous, final=True)
        return keys

    @contextmanager
    def appender(self) -> Iterator[Callable[[Dict[str, object]], None]]:
        """Context manager yielding an append-one-record callable.

        Each record becomes one line, flushed immediately, so concurrent
        readers (``status``) and a post-kill resume see every completed
        scenario that reached the OS.  If a previous run was killed
        mid-append, the file ends in a partial line with no newline; that
        dangling tail is *truncated away* before appending resumes — not
        merely newline-terminated, which would leave a damaged line in the
        interior of the file and break :meth:`committed_keys`' invariant
        that only the final line can be incomplete.  The dropped bytes are
        an uncommitted scenario by definition (readers already skip them).

        The store is single-writer by design; an advisory lock enforces it,
        so a second concurrent ``sweep run`` of the same shard fails fast
        with :class:`SweepError` instead of truncating the live writer's
        in-flight tail and interleaving appends.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        lock_descriptor = os.open(self.directory / ".lock", os.O_CREAT | os.O_RDWR)
        try:
            try:
                import fcntl

                fcntl.flock(lock_descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except ImportError:  # non-POSIX: proceed without the advisory lock
                pass
            except OSError:
                raise SweepError(
                    f"{self.directory} is already being written by another"
                    " process; one writer per shard store"
                )
            self._truncate_partial_tail()
            with self.rows_path.open("a", encoding="utf-8") as handle:

                def append(record: Dict[str, object]) -> None:
                    handle.write(json.dumps(record, separators=(",", ":")) + "\n")
                    # flush pushes the record to the OS (safe against this
                    # process dying); fsync pushes it to disk (safe against
                    # the machine dying) — each committed scenario is durable
                    # the moment append returns, so a crashed shard resumes
                    # from its last completed scenario, not its last sync.
                    handle.flush()
                    os.fsync(handle.fileno())

                yield append
        finally:
            os.close(lock_descriptor)  # releases the flock, if held

    def _truncate_partial_tail(self) -> None:
        """Drop a kill-truncated final line (one without a newline), if any."""
        try:
            with self.rows_path.open("rb+") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) == b"\n":
                    return
                # Scan backwards for the last newline; the partial line is at
                # most one record, so this touches a few KiB, not the file.
                position, keep = size, 0
                while position > 0:
                    step = min(4096, position)
                    handle.seek(position - step)
                    chunk = handle.read(step)
                    newline = chunk.rfind(b"\n")
                    if newline != -1:
                        keep = position - step + newline + 1
                        break
                    position -= step
                handle.truncate(keep)
        except OSError:  # missing file: nothing to repair
            return


def discover_shard_stores(sweep_dir: Union[str, Path]) -> List[ShardStore]:
    """Every shard store under ``sweep_dir`` (sorted), regardless of grid."""
    stores: List[ShardStore] = []
    root = Path(sweep_dir)
    if not root.is_dir():
        return stores
    for directory in sorted(root.glob("shard-*-of-*")):
        name_parts = directory.name.split("-")
        try:
            shard_index, num_shards = int(name_parts[1]), int(name_parts[3])
        except (IndexError, ValueError):
            continue
        store = ShardStore(root, shard_index, num_shards)
        if store.exists():
            stores.append(store)
    return stores


def _check_store_grid(store: ShardStore, grid: SweepGrid) -> None:
    manifest = store.load_manifest()
    if manifest is None:
        if store.exists():
            # A manifest file that cannot be read can no longer be attributed
            # to any grid — refusing it beats silently adopting the store.
            raise SweepGridMismatch(
                f"{store.directory} has an unreadable manifest; its grid cannot"
                " be verified — repair it or use a fresh --sweep-dir"
            )
        return
    if manifest.get("grid_fingerprint") != grid.fingerprint:
        raise SweepGridMismatch(
            f"{store.directory} was written for a different grid"
            f" (manifest fingerprint {manifest.get('grid_fingerprint')!r},"
            f" this command expands to {grid.fingerprint!r});"
            " use a fresh --sweep-dir or re-run with the original arguments"
        )


def _result_from_payload(payload: object) -> Optional[ScenarioResult]:
    """Rebuild a result from a stored payload; ``None`` if it is damaged.

    Mirrors the cache's damaged-entry contract: a payload that cannot be
    rebuilt costs a re-simulation (or a fallback source), never an abort.
    """
    try:
        return ScenarioResult.from_dict(payload)  # type: ignore[arg-type]
    except (ValueError, KeyError, TypeError):
        return None


def _record_for(unit: SweepUnit, result_payload: Mapping[str, object], source: str) -> Dict[str, object]:
    return {
        "schema": SWEEP_SCHEMA,
        "key": unit.key,
        "experiment": unit.experiment,
        "flat_index": unit.flat_index,
        "seed": unit.seed,
        "source": source,
        "result": dict(result_payload),
    }


# ------------------------------------------------------------------ run/plan


@dataclass
class ShardRunReport:
    """What one ``sweep run --shard i/N`` invocation did."""

    shard_index: int
    num_shards: int
    total_units: int  # distinct units in the whole grid
    shard_units: int  # units this shard owns
    already_committed: int = 0  # served by the row store (a previous run)
    from_cache: int = 0  # committed now from a cache hit, no simulation
    simulated: int = 0  # actually simulated by this invocation

    @property
    def complete(self) -> bool:
        return self.already_committed + self.from_cache + self.simulated == self.shard_units


def run_sweep_shard(
    experiments: Sequence[Union[ExperimentSpec, str]],
    shard_index: int,
    num_shards: int,
    quick: bool = True,
    seeds: int = 1,
    base_seed: int = 1,
    processes: Optional[int] = None,
    sweep_dir: Union[str, Path] = ".cache/sweep",
    cache: Union[ResultCache, str, None] = ".cache/experiments",
    params: Optional[Mapping[str, object]] = None,
) -> ShardRunReport:
    """Execute (or resume) one shard of a sweep grid.

    Only this shard's units are considered; of those, units already in the
    row store are skipped outright, units present in the shared cache are
    committed to the store without simulating, and the remainder is fanned
    out through :func:`run_scenarios_parallel` in unordered streaming mode —
    every completion is written to the cache *and* appended to the row store
    the moment it arrives, so an interrupt loses only in-flight scenarios
    and re-running the identical command resumes from the committed state.
    """
    if not 0 <= shard_index < num_shards:
        raise ValueError("shard_index must be within [0, num_shards)")
    grid = build_sweep_grid(
        experiments, quick=quick, seeds=seeds, base_seed=base_seed, params=params
    )
    result_cache = _resolve_cache(cache)
    unique_units = grid.unique_units()
    shard_units = [
        unit for unit in unique_units if shard_for_key(unit.key, num_shards) == shard_index
    ]
    store = ShardStore(sweep_dir, shard_index, num_shards)
    _check_store_grid(store, grid)
    if not store.exists():
        store.write_manifest(
            {
                "manifest_schema": SWEEP_SCHEMA,
                "grid_fingerprint": grid.fingerprint,
                "shard_index": shard_index,
                "num_shards": num_shards,
                "num_units": len(shard_units),
                "total_units": len(unique_units),
                "sweep": {
                    "experiments": [e.spec.name for e in grid.expanded],
                    "quick": quick,
                    "seeds": seeds,
                    "base_seed": base_seed,
                    "params": dict(params or {}),
                },
            }
        )

    committed = store.committed_keys()
    pending = [unit for unit in shard_units if unit.key not in committed]
    report = ShardRunReport(
        shard_index=shard_index,
        num_shards=num_shards,
        total_units=len(unique_units),
        shard_units=len(shard_units),
        already_committed=len(shard_units) - len(pending),
    )
    if not pending:
        return report

    with store.appender() as append:
        misses: List[SweepUnit] = []
        for unit in pending:
            # The raw cached payload is committed byte-for-byte, but only
            # after it survives a ScenarioResult rebuild — a damaged cache
            # entry degrades to a re-simulation instead of poisoning the
            # row store.
            entry = result_cache.read_entry(unit.key) if result_cache else None
            payload = entry["result"] if entry is not None else None
            if payload is not None and _result_from_payload(payload) is not None:
                append(_record_for(unit, payload, source="cache"))  # type: ignore[arg-type]
                report.from_cache += 1
            else:
                misses.append(unit)

        def _commit(index: int, result: ScenarioResult) -> None:
            unit = misses[index]
            if result_cache is not None:
                result_cache.put(unit.request, result)
            append(_record_for(unit, result.to_dict(), source="simulated"))
            report.simulated += 1

        run_scenarios_parallel(
            [unit.request for unit in misses],
            processes=processes,
            on_result=_commit,
            ordered=False,
        )
    return report


@dataclass(frozen=True)
class ShardPlanEntry:
    """Predicted work for one shard: committed / cached / still to simulate."""

    shard_index: int
    units: int
    committed: int
    cached: int
    misses: int


def plan_sweep(
    experiments: Sequence[Union[ExperimentSpec, str]],
    num_shards: int,
    quick: bool = True,
    seeds: int = 1,
    base_seed: int = 1,
    sweep_dir: Union[str, Path] = ".cache/sweep",
    cache: Union[ResultCache, str, None] = ".cache/experiments",
    params: Optional[Mapping[str, object]] = None,
) -> Tuple[SweepGrid, List[ShardPlanEntry]]:
    """Size every shard of a prospective sweep without simulating anything.

    Pure inspection: the grid is expanded, each unit is assigned to its
    shard, cache entries are probed with ``stat``-level operations
    (:meth:`ResultCache.contains`) and existing row stores with the
    payload-free key scan (:meth:`ShardStore.committed_keys`) — no result
    is deserialized, no directory is created, no scenario runs.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    grid = build_sweep_grid(
        experiments, quick=quick, seeds=seeds, base_seed=base_seed, params=params
    )
    result_cache = _resolve_cache(cache)
    probe_cache = result_cache is not None and result_cache.exists()
    entries: List[ShardPlanEntry] = []
    by_shard: Dict[int, List[SweepUnit]] = {index: [] for index in range(num_shards)}
    for unit in grid.unique_units():
        by_shard[shard_for_key(unit.key, num_shards)].append(unit)
    for shard_index in range(num_shards):
        units = by_shard[shard_index]
        store = ShardStore(sweep_dir, shard_index, num_shards)
        _check_store_grid(store, grid)
        committed_keys = store.committed_keys() if store.exists() else set()
        committed = sum(1 for unit in units if unit.key in committed_keys)
        cached = (
            sum(
                1
                for unit in units
                if unit.key not in committed_keys and result_cache.contains(unit.key)
            )
            if probe_cache
            else 0
        )
        entries.append(
            ShardPlanEntry(
                shard_index=shard_index,
                units=len(units),
                committed=committed,
                cached=cached,
                misses=len(units) - committed - cached,
            )
        )
    return grid, entries


# --------------------------------------------------------------- status/merge


@dataclass(frozen=True)
class ShardStatus:
    """Progress of one shard store on disk."""

    shard_index: int
    num_shards: int
    num_units: int
    committed: int
    grid_fingerprint: str
    manifest_ok: bool = True

    @property
    def complete(self) -> bool:
        # Without a readable manifest the unit count is unknowable, so the
        # shard can never report itself complete.
        return self.manifest_ok and self.committed >= self.num_units


def sweep_status(sweep_dir: Union[str, Path]) -> List[ShardStatus]:
    """Progress of every shard store under ``sweep_dir`` (manifest order).

    Works purely from the stores — no grid expansion, no cache access, no
    result payloads held in memory — so it can run on any machine that sees
    the sweep directory, mid-sweep.
    """
    statuses: List[ShardStatus] = []
    for store in discover_shard_stores(sweep_dir):
        manifest = store.load_manifest()
        committed = store.committed_keys()
        num_units = (manifest or {}).get("num_units")
        statuses.append(
            ShardStatus(
                shard_index=store.shard_index,
                num_shards=store.num_shards,
                num_units=int(num_units) if isinstance(num_units, int) else len(committed),
                committed=len(committed),
                grid_fingerprint=str((manifest or {}).get("grid_fingerprint", "")),
                manifest_ok=manifest is not None and isinstance(num_units, int),
            )
        )
    return statuses


@dataclass
class SweepMergeReport:
    """Merged rows for every spec of a sweep, plus provenance accounting."""

    reports: List[ExperimentReport] = field(default_factory=list)
    from_store: int = 0  # units served by shard row stores
    from_cache: int = 0  # units the stores lacked but the cache held
    simulated: int = 0  # units simulated by the merge itself


def merge_sweep(
    experiments: Sequence[Union[ExperimentSpec, str]],
    quick: bool = True,
    seeds: int = 1,
    base_seed: int = 1,
    sweep_dir: Union[str, Path] = ".cache/sweep",
    cache: Union[ResultCache, str, None] = ".cache/experiments",
    params: Optional[Mapping[str, object]] = None,
    processes: Optional[int] = None,
    simulate_missing: bool = False,
) -> SweepMergeReport:
    """Fold every shard's row store back into per-spec report rows.

    Results are sourced per unit: shard row stores first, the shared cache
    second, the simulator last — and only when ``simulate_missing`` is set.
    With every shard
    complete the merge touches no simulator at all and its rows are
    byte-identical to a single-machine ``run_experiment`` of the same grid,
    because both paths share the grid expansion and row aggregation code.

    Raises:
        SweepGridMismatch: a store under ``sweep_dir`` belongs to another grid.
        SweepIncomplete: units are missing everywhere and
            ``simulate_missing`` is off.
    """
    grid = build_sweep_grid(
        experiments, quick=quick, seeds=seeds, base_seed=base_seed, params=params
    )
    result_cache = _resolve_cache(cache)
    report = SweepMergeReport()

    committed: Dict[str, Dict[str, object]] = {}
    for store in discover_shard_stores(sweep_dir):
        _check_store_grid(store, grid)
        committed.update(store.committed_records())

    results: Dict[str, List[Optional[ScenarioResult]]] = {
        expansion.spec.name: [None] * len(expansion.requests)
        for expansion in grid.expanded
    }
    served: Dict[str, Dict[str, int]] = {
        expansion.spec.name: {"store": 0, "cache": 0, "simulated": 0}
        for expansion in grid.expanded
    }
    pending: List[SweepUnit] = []
    for unit in grid.units:
        record = committed.get(unit.key)
        result = _result_from_payload(record["result"]) if record is not None else None
        if result is not None:
            results[unit.experiment][unit.flat_index] = result
            report.from_store += 1
            served[unit.experiment]["store"] += 1
            continue
        entry = result_cache.read_entry(unit.key) if result_cache else None
        result = _result_from_payload(entry["result"]) if entry is not None else None
        if result is not None:
            results[unit.experiment][unit.flat_index] = result
            report.from_cache += 1
            served[unit.experiment]["cache"] += 1
            continue
        pending.append(unit)
    # Every record has been consulted exactly once; drop the raw payloads
    # before the simulation fan-out so peak memory is one result set, not two.
    committed.clear()
    if pending and not simulate_missing:
        raise SweepIncomplete(
            f"{len(pending)} scenario(s) of the grid are in no shard store and not"
            " in the cache; finish the shards (sweep run) or pass --simulate-missing",
            missing=len(pending),
        )

    if pending:

        def _place(index: int, result: ScenarioResult) -> None:
            unit = pending[index]
            results[unit.experiment][unit.flat_index] = result
            served[unit.experiment]["simulated"] += 1
            if result_cache is not None:
                result_cache.put(unit.request, result)
            report.simulated += 1

        run_scenarios_parallel(
            [unit.request for unit in pending],
            processes=processes,
            on_result=_place,
            ordered=False,
        )

    for expansion in grid.expanded:
        name = expansion.spec.name
        rows, rows_by_seed = rows_for_expanded(expansion, results[name])
        report.reports.append(
            ExperimentReport(
                spec=expansion.spec,
                quick=quick,
                seeds=expansion.seed_values,
                rows=rows,
                rows_by_seed=rows_by_seed,
                cache_hits=served[name]["store"] + served[name]["cache"],
                simulated=served[name]["simulated"],
            )
        )
    return report
