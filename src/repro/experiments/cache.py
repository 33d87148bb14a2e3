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
hundreds of thousands of entries.  An entry holds its schema, its key and
the result payload, and nothing else: the key already commits to every
request field, so no reader needs the request's fingerprint back.  Older
entries also carry a ``"fingerprint"`` object, which no reader looks at.

Entry schema 2 packs every non-empty list of floats in the payload
(response times, trace columns) as ``{"<f8": "<base64>"}``: the base64 of
the floats' little-endian float64 bytes.  Decoding those bytes is far
cheaper than parsing each float's digits, the packed form is smaller, and
the round trip is bit-exact (NaN, infinities, ``-0.0`` and subnormals
included).  Empty lists and lists that hold anything but floats stay
plain JSON.  Only this module knows the packed form:
:meth:`ResultCache.put` packs the result's :meth:`~ScenarioResult.to_dict`
and :meth:`ResultCache.get` unpacks it before
:meth:`ScenarioResult.from_dict` sees it.  The schema had to change: a
schema-1 reader given a packed object where a list belongs would build a
wrong result (``list({"<f8": ...})`` is ``["<f8"]``), whereas it finds a
schema-2 entry stale and re-simulates it.  ``get`` still reads schema 1,
which holds no packed objects, so a cache written before the change keeps
hitting; ``put`` writes schema 2 only.

:meth:`ResultCache.get` is the one read: ``run``, ``run --shard`` and
``dse`` all reach the cache through it (by way of
:func:`repro.experiments.engine.lookup`), and each call counts one hit or
one miss.  A damaged entry is a miss, quarantined aside.

Because an entry is addressed by its key and written atomically, the
cache is also the commit layer of a sharded run: shards that each fill
their own directory merge by copying the directories into one, and an
entry found in two directories holds the same result in both.

Traced requests (Figure 9) are cached like any other: the result's stage
and job records are stored by column next to its metrics, and an untraced
entry carries no ``"trace"`` key at all.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import struct
import tempfile
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.experiments.parallel import ScenarioRequest
from repro.experiments.runner import ScenarioResult

#: The schema :meth:`ResultCache.put` writes, and the schemas ``get`` reads.
_ENTRY_SCHEMA = 2
_READABLE_SCHEMAS = (1, 2)

#: The one key of a packed float list: numpy's name for little-endian float64.
_PACKED = "<f8"
_CONTAINERS = frozenset((dict, list))

#: What rebuilding a result from a damaged but parseable payload can raise:
#: a missing key, a wrong type, a bad value, or a list or scalar where an
#: object belongs (``"config": []`` has no ``.get``).
PAYLOAD_ERRORS = (ValueError, KeyError, TypeError, AttributeError)

_LOG = logging.getLogger(__name__)


def _pack(value: object) -> object:
    """``value`` with every non-empty all-float list packed as ``{"<f8": base64}``.

    The walk descends only into dicts and into lists that hold a container,
    and the all-float test runs in C (``set(map(type, ...))``), so a long
    column costs no Python call per item.
    """
    if type(value) is dict:
        return {
            key: _pack(item) if type(item) in _CONTAINERS else item
            for key, item in value.items()
        }
    kinds = set(map(type, value))
    if kinds == {float}:
        packed = struct.pack(f"<{len(value)}d", *value)
        return {_PACKED: base64.b64encode(packed).decode("ascii")}
    if kinds.isdisjoint(_CONTAINERS):
        return value
    return [_pack(item) if type(item) in _CONTAINERS else item for item in value]


def _unpack(obj: dict) -> object:
    """``json.load`` object hook: a packed float list back as its floats.

    Raises ``ValueError`` unless the payload is a string of valid base64
    whose byte count is a multiple of 8, so a damaged marker is never
    passed on as a dict.
    """
    if len(obj) != 1 or _PACKED not in obj:
        return obj
    payload = obj[_PACKED]
    if type(payload) is not str:
        raise ValueError(f"packed floats are a {type(payload).__name__}, not base64 text")
    data = base64.b64decode(payload, validate=True)  # binascii.Error is a ValueError
    if len(data) % 8:
        raise ValueError(f"packed floats hold {len(data)} bytes, not a multiple of 8")
    return np.frombuffer(data, dtype="<f8").tolist()


class ResultCache:
    """Content-addressed scenario result store under one directory.

    Attributes:
        hits: number of :meth:`get` calls served from disk.
        misses: number of :meth:`get` calls that found nothing (or a damaged
            or stale entry, which is treated as a miss).
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

    def get(self, request: ScenarioRequest) -> Optional[ScenarioResult]:
        """Return the cached result for ``request``, or ``None`` on a miss.

        This is the cache's one read.  It takes schema-1 and schema-2
        entries and unpacks packed float lists as it parses.  Corrupt,
        unreadable, wrongly shaped or schema-stale entries, packed lists
        that do not decode, and results that cannot be rebuilt, count
        as misses like a missing entry — and are *quarantined* (renamed to
        ``<entry>.json.corrupt``) so the damaged bytes stop shadowing the
        key: the scenario re-simulates and the rewritten entry is clean,
        while the quarantined file survives for post-mortem inspection.  A
        damaged cache can therefore never poison an experiment.
        """
        path = self.path_for(self.key_for(request))
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle, object_hook=_unpack)
            if not isinstance(entry, dict):
                raise TypeError(f"cache entry is a {type(entry).__name__}, not an object")
            if entry.get("entry_schema") not in _READABLE_SCHEMAS:
                raise ValueError("stale cache entry schema")
            result = ScenarioResult.from_dict(entry["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError,) + PAYLOAD_ERRORS as error:
            self.misses += 1
            self._quarantine(path, error)
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path, error: Exception) -> None:
        """Move a damaged entry aside as ``<name>.json.corrupt`` and log it.

        The ``.corrupt`` suffix removes the file from every ``*.json`` glob
        (``prune`` / ``__len__``), so a torn entry — e.g. from a machine
        that lost power mid-write on a filesystem without atomic rename
        durability — costs exactly one re-simulation and nothing else.
        Failure to rename degrades to the old leave-in-place behaviour (the
        entry still reads as a miss every time).
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

    def put(self, request: ScenarioRequest, result: ScenarioResult) -> bool:
        """Store a completed result as a schema-2 entry; returns whether it was written.

        The result's float lists are packed (see the module docstring).
        Writes are atomic (tempfile + ``os.replace``) so concurrent experiment
        processes sharing one cache directory can never observe a torn entry.
        """
        key = self.key_for(request)
        path = self.path_for(key)
        entry = {"entry_schema": _ENTRY_SCHEMA, "key": key, "result": _pack(result.to_dict())}
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

    def _entry_stats(self) -> Iterator[Tuple[Path, os.stat_result]]:
        """Each entry with its ``stat``, skipping entries that have gone.

        Another process sharing the directory may quarantine or prune an
        entry between the glob and the ``stat``.
        """
        for path in self._entry_paths():
            try:
                yield path, path.stat()
            except FileNotFoundError:
                continue

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def size_bytes(self) -> int:
        """Total size of all entries on disk."""
        return sum(stat.st_size for _, stat in self._entry_stats())

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
            (stat.st_mtime, path) for path, stat in self._entry_stats()
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
