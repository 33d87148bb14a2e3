"""Properties of every request the scenario vocabulary can build.

One bounded hypothesis test draws requests from the registered backends,
the named workloads and fault profiles, the model zoo and a few load
levels, with cluster axes and ``--set`` overrides on top.  It checks only
what holds on every backend today:

* a request either fails ``validate_request`` with ``BackendRequestError``
  or runs without an exception;
* the same seed gives the same result;
* ``to_dict()`` is byte-identical after a cache ``put`` and ``get``;
* the per-task completions add up to the completed count;
* in each priority bucket, ``missed <= completed`` and no job is in flight
  a negative number of times;
* on ``cluster`` runs, the GPUs routed every released request that was not
  dropped;
* a finished run leaves nothing for the cyclic collector: reference
  counting frees all of it.

Released-job conservation is not asserted: the request servers and the
cluster's per-GPU loops do not yet account for work still queued at the
horizon.
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter

from hypothesis import example, given, settings, strategies as st
from leaks import unreachable_after_run

from repro.backends import backend_names, get_backend
from repro.backends.base import BackendRequestError
from repro.cluster.config import PLACEMENT_POLICIES, ROUTER_POLICIES, ClusterConfig
from repro.dnn.zoo import available_models, build_model
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.scenarios import (
    NAMED_FAULTS,
    NAMED_WORKLOADS,
    apply_config_overrides,
    backend_grid_config,
    load_scaled_taskset,
    parse_config_overrides,
)

#: Demand relative to each model's batching baseline.
LOADS = (0.25, 0.5, 1.0, 1.5)

#: ``--set`` overrides; each addresses one backend, or every request (gpu).
OVERRIDES = (
    (),
    ("daris.mret_window=3",),
    ("daris.staging=false",),
    ("rtgpu.mret_window=8",),
    ("clockwork.slack=1.2",),
    ("batching_server.batch_size=4",),
    ("gslice.os=2.0",),
    ("cluster.migration_backlog=2",),
    ("gpu.sm_count=40",),
)


def _request(backend, workload, fault, model_name, load, horizon_ms, seed, config=None,
             with_trace=False, overrides=()):
    model = build_model(model_name)
    taskset = load_scaled_taskset(model, load, name=f"property/{model_name}/{load}")
    request = ScenarioRequest(
        taskset,
        config if config is not None else backend_grid_config(backend, model),
        horizon_ms,
        seed=seed,
        with_trace=with_trace,
        scheduler=backend,
        workload=NAMED_WORKLOADS[workload],
        faults=NAMED_FAULTS[fault],
    )
    return apply_config_overrides(request, parse_config_overrides(overrides))


@st.composite
def scenario_requests(draw):
    backend = draw(st.sampled_from(backend_names()))
    # Only DARIS records traces; a traced request to another backend would
    # only ever exercise the rejection that unsupported workloads reach too.
    with_trace = get_backend(backend).supports_traces and draw(st.booleans())
    config = None
    if backend == "cluster":
        config = ClusterConfig(
            num_gpus=draw(st.integers(min_value=2, max_value=4)),
            router=draw(st.sampled_from(ROUTER_POLICIES)),
            placement=draw(st.sampled_from(PLACEMENT_POLICIES)),
            migration_backlog=draw(st.sampled_from((0, 2))),
        )
    return _request(
        backend,
        draw(st.sampled_from(list(NAMED_WORKLOADS))),
        draw(st.sampled_from(list(NAMED_FAULTS))),
        draw(st.sampled_from(available_models())),
        draw(st.sampled_from(LOADS)),
        float(draw(st.integers(min_value=600, max_value=1000))),
        draw(st.integers(min_value=0, max_value=2**16)),
        config=config,
        with_trace=with_trace,
        overrides=draw(st.sampled_from(OVERRIDES)),
    )


def _json(result) -> str:
    return json.dumps(result.to_dict())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(request=scenario_requests())
@example(
    request=_request(
        "cluster", "poisson", "lossy", "resnet18", 1.5, 800.0, 3,
        config=ClusterConfig(num_gpus=3, router="round_robin"),
    )
)
@example(request=_request("daris", "periodic", "storm", "resnet18", 1.0, 700.0, 5, with_trace=True))
@example(request=_request("batching_server", "bursty", "crashy", "unet", 1.0, 900.0, 7))
@example(request=_request("rtgpu", "poisson", "flaky-launch", "resnet18", 1.5, 600.0, 11))
@example(request=_request("clockwork", "bursty", "lossy", "resnet50", 1.5, 600.0, 13))
@example(request=_request("gslice", "saturated", "crashy", "resnet18", 1.0, 600.0, 17))
@example(request=_request("single", "saturated", "throttle", "unet", 1.0, 600.0, 19))
def test_every_drawn_request_is_rejected_cleanly_or_keeps_its_invariants(request):
    backend = get_backend(request.scheduler)
    try:
        backend.validate_request(request)
    except BackendRequestError:
        return
    result = backend.execute(request)
    again, unreachable = unreachable_after_run(lambda: backend.execute(request))
    assert not unreachable, Counter(type(obj).__name__ for obj in unreachable).most_common(5)
    assert _json(again) == _json(result)

    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        assert cache.put(request, result)
        cached = cache.get(request)
    assert cached is not None
    assert _json(cached) == _json(result)

    metrics = result.metrics
    assert sum(metrics.per_task_completed.values()) == metrics.total_completed
    for bucket in (metrics.high, metrics.low):
        assert bucket.missed <= bucket.completed
        assert bucket.cause_breakdown()["in_flight"] >= 0
    if request.scheduler == "cluster":
        released = metrics.high.released + metrics.low.released
        dropped = metrics.high.dropped + metrics.low.dropped
        assert sum(gpu.routed for gpu in metrics.gpu_breakdown) == released - dropped
