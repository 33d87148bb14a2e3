"""Parallel scenario fan-out for the experiment sweeps.

Every figure of the paper is produced by sweeping many independent
``(task set, configuration, seed)`` scenarios through the simulator.  The
scenarios share nothing at runtime, which makes them embarrassingly parallel:
:func:`run_scenarios_parallel` fans a list of :class:`ScenarioRequest` objects
out over a multiprocessing pool and returns the results *in request order*,
each produced with its own fixed seed — so a parallel sweep is bit-identical
to the serial one, only faster.

Usage::

    requests = [ScenarioRequest(taskset, config, horizon_ms=2500.0) for config in grid]
    results = run_scenarios_parallel(requests, processes=8)

``processes=1`` (or a single request) runs serially in-process, which keeps
unit tests deterministic-cheap and avoids pool overhead for tiny sweeps.
``processes=None`` uses one worker per CPU, capped by the number of requests.

Results are *streamed*: the pool is consumed with ``imap_unordered``, so the
optional ``on_result`` callback fires the moment any worker finishes, in
completion order — a slow early scenario never holds back the ones behind
it.  The experiment engine uses this to persist cache entries while later
scenarios are still running, so a crash or interrupt loses only the
in-flight scenarios.  There is no ordered mode: the *returned* list is in
request order all the same (its callers need every result to build report
rows); a consumer that wants bounded memory can do its own fold/discard
inside ``on_result`` and ignore the return value.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.canonical import splice_json
from repro.experiments.runner import ScenarioResult
from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.rt.taskset import TaskSetSpec
from repro.sim.faults import NO_FAULTS, FaultSpec
from repro.sim.workload import PERIODIC_WORKLOAD, WorkloadSpec

# Bump when the fingerprint layout (or anything that changes simulated
# behaviour without changing the fingerprint) is modified, so stale cache
# entries can never be mistaken for current ones.
FINGERPRINT_SCHEMA = 1

#: The backend every request runs on unless it says otherwise.
DEFAULT_SCHEDULER = "daris"


@dataclass(frozen=True)
class ScenarioRequest:
    """One scenario to run on one scheduler backend.

    ``scheduler`` names the registered backend (``"daris"`` by default) that
    interprets the request; ``config`` carries that backend's canonical
    configuration (a :class:`~repro.scheduler.config.DarisConfig` for the
    DARIS/RTGPU backends, a :class:`~repro.backends.configs.BackendConfig`
    subclass for the baseline servers); ``workload`` selects the arrival
    process (periodic / poisson / saturated).

    Requests compare (and hash) by value: every field is an immutable
    value-comparable object — ``TaskSetSpec`` and ``DnnModel`` store their
    sequences as tuples, and the default calibration is the shared
    ``DEFAULT_CALIBRATION`` constant rather than a per-instance factory — so
    two independently built but identical requests are equal, land in the
    same set/dict slot, and produce the same :meth:`cache_key`.
    """

    taskset: TaskSetSpec
    config: Any
    horizon_ms: float
    seed: int = 1
    with_trace: bool = False
    label: Optional[str] = None
    gpu: GpuSpec = RTX_2080_TI
    calibration: GpuCalibration = DEFAULT_CALIBRATION
    scheduler: str = DEFAULT_SCHEDULER
    workload: WorkloadSpec = PERIODIC_WORKLOAD
    faults: FaultSpec = NO_FAULTS

    def fingerprint(self) -> Dict[str, object]:
        """Canonical nested dictionary of everything that shapes the result.

        Covers the task set (down to per-stage calibrated work), the
        scheduler backend and its configuration, the workload, the horizon,
        the seed, the GPU spec, the interference calibration and the result
        label — mutate any of them and the fingerprint (hence the cache key)
        changes.

        Backward compatibility: the ``scheduler`` / ``workload`` / ``faults``
        keys appear only for non-default values, so every pre-backend (and
        every fault-free) request fingerprints exactly as before and existing
        caches stay valid.
        """
        data: Dict[str, object] = {
            "schema": FINGERPRINT_SCHEMA,
            "taskset": self.taskset.fingerprint(),
        }
        data.update(self._settings_fingerprint())
        return data

    def _settings_fingerprint(self) -> Dict[str, object]:
        """Every :meth:`fingerprint` entry after the schema and the task set."""
        data: Dict[str, object] = {
            "config": self.config.to_dict(),
            "horizon_ms": self.horizon_ms,
            "seed": self.seed,
            "with_trace": self.with_trace,
            "label": self.label,
            "gpu": self.gpu.to_dict(),
            "calibration": self.calibration.to_dict(),
        }
        if self.scheduler != DEFAULT_SCHEDULER:
            data["scheduler"] = self.scheduler
        if not self.workload.is_default:
            data["workload"] = self.workload.fingerprint()
        if not self.faults.is_default:
            data["faults"] = self.faults.fingerprint()
        return data

    def cache_key(self) -> str:
        """Stable content-addressed key: SHA-256 of the canonical fingerprint.

        The fingerprint is serialized with sorted keys and no whitespace;
        floats use Python's shortest-repr JSON form, which is deterministic
        and round-trips exactly.  The task set's part is its memoized
        :attr:`~repro.rt.taskset.TaskSetSpec.fingerprint_json`, spliced
        between the keys that sort before ``"taskset"`` and those after it
        (:func:`~repro.canonical.splice_json`), so the bytes hashed are
        exactly those of
        ``json.dumps(self.fingerprint(), sort_keys=True, separators=(",", ":"))``.
        """
        settings = self._settings_fingerprint()
        settings["schema"] = FINGERPRINT_SCHEMA
        canonical = splice_json(settings, "taskset", self.taskset.fingerprint_json)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run_request(request: ScenarioRequest) -> ScenarioResult:
    """Worker entry point (top-level so it pickles under spawn too).

    Dispatches through the scheduler-backend registry, so the pool runs any
    registered backend — DARIS or a baseline — behind the same request shape.
    The import is deferred because the backend modules import this module's
    :class:`ScenarioRequest`.
    """
    from repro.backends import get_backend

    return get_backend(request.scheduler).execute(request)


def _run_indexed(indexed: Tuple[int, ScenarioRequest]) -> Tuple[int, ScenarioResult]:
    """Worker entry point for the pool: tags each result with its index."""
    index, request = indexed
    return index, _run_request(request)


def default_process_count(num_requests: int) -> int:
    """Worker count used when the caller does not specify one."""
    return max(1, min(num_requests, os.cpu_count() or 1))


#: Exceptions that signal pool *infrastructure* failure (a worker process
#: died, its pipe broke) rather than a scenario raising — the sweep retries
#: the un-delivered scenarios once on a fresh pool before giving up.
_POOL_CRASH_ERRORS: Tuple[type, ...]
try:
    from concurrent.futures.process import BrokenProcessPool

    _POOL_CRASH_ERRORS = (OSError, EOFError, BrokenProcessPool)
except ImportError:  # pragma: no cover - BrokenProcessPool exists on 3.3+
    _POOL_CRASH_ERRORS = (OSError, EOFError)


def run_scenarios_parallel(
    requests: Sequence[ScenarioRequest],
    processes: Optional[int] = None,
    on_result: Optional[Callable[[int, ScenarioResult], None]] = None,
) -> List[ScenarioResult]:
    """Run scenarios across worker processes; results come back in order.

    Args:
        requests: the scenarios to run.  Each carries its own seed, so the
            result stream is reproducible regardless of worker scheduling.
        processes: worker process count.  ``None`` chooses one per CPU
            (capped by the request count); ``1`` runs serially in-process.
        on_result: optional ``(index, result)`` callback invoked as each
            scenario completes, in completion order — results are streamed
            off the pool, so callers can persist or aggregate them
            incrementally instead of waiting for the slowest scenario.
            ``index`` is the request's position in ``requests``.

    Returns:
        One :class:`ScenarioResult` per request, in request order.
    """
    requests = list(requests)
    if not requests:
        return []
    if processes is None:
        processes = default_process_count(len(requests))
    if processes <= 1 or len(requests) == 1:
        results: List[ScenarioResult] = []
        for index, request in enumerate(requests):
            result = _run_request(request)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results

    import multiprocessing

    context = multiprocessing.get_context()
    slots: List[Optional[ScenarioResult]] = [None] * len(requests)

    def _fan_out(pending: List[Tuple[int, ScenarioRequest]]) -> None:
        """Run ``pending`` (original-index, request) pairs on a fresh pool."""
        with context.Pool(min(processes, len(pending))) as pool:
            for index, result in pool.imap_unordered(_run_indexed, pending, chunksize=1):
                if on_result is not None:
                    on_result(index, result)
                slots[index] = result

    try:
        _fan_out(list(enumerate(requests)))
    except _POOL_CRASH_ERRORS:
        # A worker process died (OOM-killed, segfaulted, lost its pipe).
        # Everything already delivered is committed in ``slots``; the
        # un-delivered remainder is retried exactly once on a fresh pool —
        # each request carries its own seed, so the retry is bit-identical
        # to what the crashed worker would have produced.  A second crash
        # propagates: systematic failure, not transient worker loss.
        remaining = [
            (index, request)
            for index, request in enumerate(requests)
            if slots[index] is None
        ]
        if remaining:
            _fan_out(remaining)
    return slots  # type: ignore[return-value]
