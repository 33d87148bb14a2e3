"""Disk-backed, content-addressed cache of completed scenario results.

Every figure of the paper re-runs scenarios that earlier sweeps (or earlier
seeds of the same sweep) already simulated.  The cache memoizes each completed
:class:`~repro.experiments.runner.ScenarioResult` under the SHA-256 of its
request's canonical fingerprint (task set + configuration + horizon + seed +
GPU + calibration + label), so a repeated sweep is served entirely from disk
and is bit-identical to a fresh one: metrics round-trip losslessly through
JSON (see ``ScenarioMetrics.to_dict``).

Layout::

    <cache_dir>/
        <key[:2]>/<key>.json     one entry per scenario (atomic writes)

Sharding by the first two hex digits keeps directories small even with
hundreds of thousands of entries.  Entries are self-describing (they embed
the full request fingerprint), so ``prune`` / external tooling can inspect
them without the originating code.

Traced requests (Figure 9) are cached like any other: the result's stage
and job records are stored by column next to its metrics, and an untraced
entry carries no ``"trace"`` key at all.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.experiments.parallel import ScenarioRequest
from repro.experiments.runner import ScenarioResult

_ENTRY_SCHEMA = 1

_LOG = logging.getLogger(__name__)


class ResultCache:
    """Content-addressed scenario result store under one directory.

    Attributes:
        hits: number of :meth:`get` calls served from disk.
        misses: number of :meth:`get` calls that found nothing (or an
            unreadable / stale entry, which is treated as a miss).
    """

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        # The directory is created lazily, on the first successful `put`:
        # constructing a cache (or inspecting one through the CLI) must not
        # fabricate an empty store as a side effect.
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0

    def exists(self) -> bool:
        """Whether the cache directory is present on disk at all."""
        return self.cache_dir.is_dir()

    # ------------------------------------------------------------------ keys

    @staticmethod
    def key_for(request: ScenarioRequest) -> str:
        """The content-addressed key of a request (SHA-256 hex digest)."""
        return request.cache_key()

    def path_for(self, key: str) -> Path:
        """Filesystem location of the entry with the given key."""
        return self.cache_dir / key[:2] / f"{key}.json"

    # ---------------------------------------------------------------- access

    def contains(self, key: str) -> bool:
        """Whether an entry with ``key`` exists on disk.

        A pure ``stat`` — nothing is read or deserialized and the hit/miss
        counters are untouched, so sweep planners can probe huge grids
        cheaply.  (The entry may still turn out corrupt on :meth:`get`, which
        then counts a miss and re-simulates.)
        """
        return self.path_for(key).is_file()

    def iter_keys(self, prefix: str = "") -> Iterator[str]:
        """Stored keys, optionally restricted to a hex-prefix range.

        Keys are recovered from filenames alone — no entry is opened — so
        iterating a million-entry cache is directory walks, not JSON parses.
        ``prefix`` selects the contiguous key range ``[prefix000…, prefixfff…]``
        that sharded sweep drivers partition the key space into.
        """
        if len(prefix) >= 2:
            pattern = f"{prefix[:2]}/{prefix}*.json"
        elif prefix:
            pattern = f"{prefix}?/{prefix}*.json"
        else:
            pattern = "??/*.json"
        for path in self.cache_dir.glob(pattern):
            yield path.stem

    def read_entry(self, key: str) -> Optional[Dict[str, object]]:
        """The raw stored entry for ``key`` (fingerprint + result payload).

        Returns the entry dictionary without rebuilding a
        :class:`ScenarioResult`, which lets sweep drivers re-commit cached
        payloads to their row stores byte-for-byte.  Corrupt, unreadable or
        schema-stale entries count as misses, exactly like :meth:`get` —
        and are *quarantined* (renamed to ``<entry>.json.corrupt``) so the
        damaged bytes stop shadowing the key: the scenario re-simulates and
        the rewritten entry is clean, while the quarantined file survives
        for post-mortem inspection.  A missing entry is a plain miss.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("entry_schema") != _ENTRY_SCHEMA:
                raise ValueError("stale cache entry schema")
            if "result" not in entry:
                raise KeyError("result")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as error:
            self.misses += 1
            self._quarantine(path, error)
            return None
        self.hits += 1
        return entry

    def _quarantine(self, path: Path, error: Exception) -> None:
        """Move a damaged entry aside as ``<name>.json.corrupt`` and log it.

        The ``.corrupt`` suffix removes the file from every ``*.json`` glob
        (``iter_keys`` / ``prune`` / ``__len__``), so a torn entry — e.g.
        from a machine that lost power mid-write on a filesystem without
        atomic rename durability — costs exactly one re-simulation and
        nothing else.  Failure to rename degrades to the old leave-in-place
        behaviour (the entry still reads as a miss every time).
        """
        quarantined = path.with_suffix(path.suffix + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            return
        _LOG.warning(
            "quarantined corrupt cache entry %s -> %s (%s: %s); the scenario"
            " will be re-simulated and the entry rewritten",
            path.name,
            quarantined.name,
            type(error).__name__,
            error,
        )

    def get(self, request: ScenarioRequest) -> Optional[ScenarioResult]:
        """Return the cached result for ``request``, or ``None`` on a miss.

        Corrupt, unreadable or schema-stale entries count as misses and are
        quarantined to ``*.json.corrupt``, so a damaged cache can never
        poison an experiment — it costs a re-simulation, after which the
        clean result is rewritten under the same key.
        """
        key = self.key_for(request)
        entry = self.read_entry(key)
        if entry is None:
            return None
        try:
            return ScenarioResult.from_dict(entry["result"])  # type: ignore[arg-type]
        except (ValueError, KeyError, TypeError) as error:
            # Undo read_entry's optimistic hit: a payload that cannot be
            # rebuilt is a miss like any other damaged entry — quarantine it
            # too, so the re-simulated result overwrites a clean slot.
            self.hits -= 1
            self.misses += 1
            self._quarantine(self.path_for(key), error)
            return None

    def put(self, request: ScenarioRequest, result: ScenarioResult) -> bool:
        """Store a completed result; returns whether it was written.

        Writes are atomic (tempfile + ``os.replace``) so concurrent experiment
        processes sharing one cache directory can never observe a torn entry.
        """
        key = self.key_for(request)
        path = self.path_for(key)
        entry = {
            "entry_schema": _ENTRY_SCHEMA,
            "key": key,
            "fingerprint": request.fingerprint(),
            "result": result.to_dict(),
        }
        # Any filesystem failure (unwritable/read-only dir, disk full, ...)
        # degrades to "not cached" — a broken cache must never abort a sweep
        # whose scenarios already simulated successfully.
        temp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(
                prefix=f".{key[:8]}.", suffix=".tmp", dir=path.parent
            )
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                # One dumps() call, not dump(): dump() streams through the
                # pure-Python encoder, several times slower on the
                # megabyte-sized entries of traced results.
                handle.write(json.dumps(entry, separators=(",", ":")))
            os.replace(temp_name, path)
        except OSError:
            if temp_name is not None:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
            return False
        return True

    # ------------------------------------------------------------ management

    def _entry_paths(self) -> Iterator[Path]:
        yield from self.cache_dir.glob("??/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def size_bytes(self) -> int:
        """Total size of all entries on disk."""
        return sum(path.stat().st_size for path in self._entry_paths())

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_age_days: Optional[float] = None,
    ) -> int:
        """Evict entries, oldest (by mtime) first; returns the number removed.

        Args:
            max_entries: keep at most this many of the most recently written
                entries.
            max_age_days: additionally drop entries older than this many days.

        Raises:
            ValueError: a bound is negative.
        """
        import time

        for name, bound in (("max_entries", max_entries), ("max_age_days", max_age_days)):
            if bound is not None and bound < 0:
                raise ValueError(f"{name} must be >= 0, got {bound}")

        entries: List[tuple] = sorted(
            (path.stat().st_mtime, path) for path in self._entry_paths()
        )
        doomed: List[Path] = []
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            doomed.extend(path for mtime, path in entries if mtime < cutoff)
        if max_entries is not None:
            doomed_set = set(doomed)
            survivors = [path for _, path in entries if path not in doomed_set]
            excess = len(survivors) - max_entries
            if excess > 0:
                doomed.extend(survivors[:excess])
        removed = 0
        for path in doomed:  # age pass and entry pass are disjoint by construction
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
