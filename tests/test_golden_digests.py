"""Golden digests: per-seed bit identity, pinned as literal SHA-256 values.

Each digest is the SHA-256 of the canonical ``ScenarioMetrics.to_dict()``
JSON (sorted keys, no whitespace); traced DARIS runs append ``repr()`` of
their stage and job trace records.  The values below were recorded with
CPython 3.11 and numpy 2.4.6, before the engine's numpy tier, the
incremental MRET backlog, the reference cluster dispatch path and the
standalone Clockwork loop were deleted, so they pin that the remaining code
produces the traces those paths produced.

Float sums that feed results add left to right (``repro.numeric``), so the
digests do not depend on the CPython version even though 3.12's builtin
``sum()`` rounds differently.  They do depend on numpy's RNG streams: the CI
lanes that run this suite pin numpy 2.4.6, so a stream change shows up as a
deliberate pin bump rather than as a red golden test.

The matrix:

* traced DARIS at seeds 1 and 7 on MPS 6x1, MPS+STR 2x2, STR 32 under
  poisson (the wide running set) and MPS 6x1 under ``storm`` with jittered
  diurnal poisson arrivals;
* every backend x each named workload it supports x {``none``, ``storm``};
* ``clockwork`` at admission slack 1.0 and 0.8 x {``lossy``, ``storm``,
  ``storm`` targeted at GPU 2};
* seven cluster scenarios (routers, placement, migration, targeted faults)
  x seeds 3 and 11, plus a two-model partitioned cluster whose backlog
  trigger migrates queues, under two routers x the same seeds.
"""

from __future__ import annotations

import builtins
import hashlib
import json
from typing import Callable, Dict

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.configs import ClockworkConfig
from repro.cluster import ClusterConfig, ClusterServer
from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.scenarios import NAMED_WORKLOADS, named_fault
from repro.rt.taskset import make_taskset, table2_taskset
from repro.scheduler.config import DarisConfig
from repro.sim.faults import NO_FAULTS, FaultSpec
from repro.sim.rng import RngFactory
from repro.sim.workload import POISSON_WORKLOAD, WorkloadSpec

HORIZON_MS = 1000.0

#: The numpy version the digests were recorded with.
RECORDED_NUMPY = "2.4.6"

#: Named backends in registry order (the cluster backend runs its default
#: two-GPU config).
BACKENDS = ("daris", "rtgpu", "clockwork", "single", "batching_server", "gslice", "cluster")

STORM = named_fault("storm")


def digest(metrics, trace=None) -> str:
    """SHA-256 of the canonical metrics JSON (plus the trace records' repr)."""
    text = json.dumps(metrics.to_dict(), sort_keys=True, separators=(",", ":"))
    if trace is not None:
        text += "\n" + repr(trace.stage_records) + "\n" + repr(trace.job_records)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _execute(request: ScenarioRequest):
    return get_backend(request.scheduler).execute(request)


# ------------------------------------------------------------ traced DARIS

_TRACED_DARIS = {
    "mps6x1": (DarisConfig.mps_config(6, 6.0), None, NO_FAULTS),
    "mps+str2x2": (DarisConfig.mps_str_config(2, 2, 2.0), None, NO_FAULTS),
    "str32-poisson": (DarisConfig.str_config(32), POISSON_WORKLOAD, NO_FAULTS),
    "mps6x1-storm-diurnal": (
        DarisConfig.mps_config(6, 6.0),
        WorkloadSpec("poisson", jitter_ms=0.4).with_diurnal(period_ms=600.0, amplitude=0.6),
        STORM,
    ),
}


def _traced_daris(name: str, seed: int) -> str:
    config, workload, faults = _TRACED_DARIS[name]
    request = ScenarioRequest(
        table2_taskset("resnet18"),
        config,
        HORIZON_MS,
        seed=seed,
        with_trace=True,
        workload=workload if workload is not None else NAMED_WORKLOADS["periodic"],
        faults=faults,
    )
    result = _execute(request)
    assert result.trace.stage_records, "a traced run must record stages"
    return digest(result.metrics, result.trace)


# ------------------------------------------------------- backend x workload


def _backend_config(name: str):
    if name in ("daris", "rtgpu"):
        return DarisConfig.mps_config(6, 6.0)
    return get_backend(name).config_type()


def _backend_run(name: str, workload: str, fault: str) -> str:
    request = ScenarioRequest(
        table2_taskset("resnet18"),
        _backend_config(name),
        HORIZON_MS,
        seed=1,
        scheduler=name,
        workload=NAMED_WORKLOADS[workload],
        faults=named_fault(fault),
    )
    return digest(_execute(request).metrics)


# --------------------------------------------------------------- clockwork

_CLOCKWORK_FAULTS = {
    "lossy": named_fault("lossy"),
    "storm": STORM,
    "storm@gpu2": STORM.targeting(2),
}


def _clockwork(slack: float, fault: str) -> str:
    request = ScenarioRequest(
        table2_taskset("resnet18"),
        ClockworkConfig(admission_slack=slack),
        HORIZON_MS,
        seed=3,
        scheduler="clockwork",
        workload=POISSON_WORKLOAD,
        faults=_CLOCKWORK_FAULTS[fault],
    )
    return digest(_execute(request).metrics)


# ----------------------------------------------------------------- cluster

#: Frozen with the digests (``tests/test_perf_equivalence.py`` runs the same
#: rows): editing a row means recording its digests again.
CLUSTER_MATRIX: Dict[str, tuple] = {
    "least_loaded": (dict(num_gpus=4, router="least_loaded"), None),
    "round_robin": (dict(num_gpus=4, router="round_robin"), None),
    "deadline_aware": (dict(num_gpus=4, router="deadline_aware"), None),
    "partitioned": (dict(num_gpus=4, router="least_loaded", placement="partitioned"), None),
    "partitioned-migration": (
        dict(
            num_gpus=4,
            router="deadline_aware",
            placement="partitioned",
            migration_backlog=2,
            migration_window_ms=40.0,
        ),
        None,
    ),
    "targeted-crash": (
        dict(num_gpus=4, router="least_loaded"),
        FaultSpec.crashes(mtbf_ms=100.0, recovery_ms=60.0).targeting(1),
    ),
    "targeted-throttle": (
        dict(num_gpus=4, router="deadline_aware"),
        FaultSpec.throttle(period_ms=120.0, duration_ms=50.0, factor=0.5).targeting(0),
    ),
}


def _cluster(name: str, seed: int) -> str:
    """A ResNet18 task set on the named cluster shape under poisson load."""
    cfg_kwargs, faults = CLUSTER_MATRIX[name]
    taskset = make_taskset(
        [build_model("resnet18")], num_high=3, num_low=5, task_jps=40.0, name="cluster-eq"
    )
    metrics = ClusterServer(ClusterConfig(**cfg_kwargs)).serve(
        taskset, 1500.0, workload=POISSON_WORKLOAD, rng=RngFactory(seed), faults=faults
    )
    return digest(metrics)


def _cluster_migration(router: str, seed: int) -> str:
    """Two models pinned to disjoint devices; bursty load forces migrations."""
    taskset = make_taskset(
        [build_model("resnet18"), build_model("resnet50")],
        num_high=2,
        num_low=6,
        task_jps=30.0,
        name="migration",
    )
    config = ClusterConfig(
        num_gpus=3,
        router=router,
        placement="partitioned",
        migration_backlog=1,
        migration_window_ms=5.0,
    )
    metrics = ClusterServer(config).serve(
        taskset, 600.0, workload=NAMED_WORKLOADS["bursty"], rng=RngFactory(seed)
    )
    assert sum(gpu.migrations for gpu in metrics.gpu_breakdown) >= 1
    return digest(metrics)


# ------------------------------------------------------------------ matrix


def scenarios() -> Dict[str, Callable[[], str]]:
    """Scenario id -> thunk computing its digest, in a stable order."""
    table: Dict[str, Callable[[], str]] = {}
    for name in _TRACED_DARIS:
        for seed in (1, 7):
            table[f"daris-traced/{name}/seed{seed}"] = (
                lambda name=name, seed=seed: _traced_daris(name, seed)
            )
    for backend in BACKENDS:
        supported = get_backend(backend).supported_arrivals
        for workload, spec in NAMED_WORKLOADS.items():
            if spec.arrival not in supported:
                continue
            for fault in ("none", "storm"):
                table[f"backend/{backend}/{workload}/{fault}"] = (
                    lambda b=backend, w=workload, f=fault: _backend_run(b, w, f)
                )
    for slack in (1.0, 0.8):
        for fault in _CLOCKWORK_FAULTS:
            table[f"clockwork/slack{slack:g}/{fault}"] = (
                lambda s=slack, f=fault: _clockwork(s, f)
            )
    for name in CLUSTER_MATRIX:
        for seed in (3, 11):
            table[f"cluster/{name}/seed{seed}"] = lambda n=name, s=seed: _cluster(n, s)
    for router in ("least_loaded", "deadline_aware"):
        for seed in (3, 11):
            table[f"cluster-migration/{router}/seed{seed}"] = (
                lambda r=router, s=seed: _cluster_migration(r, s)
            )
    return table


GOLDEN_DIGESTS: Dict[str, str] = {
    "daris-traced/mps6x1/seed1":
        "b32af51146bfa8ab393b219c8b395eb9e7a1dd734402f422ff92c1beba3fd53c",
    "daris-traced/mps6x1/seed7":
        "d4cc520c4fb3f0e59e8140cd979424e67c8bc5c6447fa4013ae6d3bf927883a0",
    "daris-traced/mps+str2x2/seed1":
        "caea997f189599dbd9c38617103c4d57d6e879598b023dd2cdf77516f1e2738e",
    "daris-traced/mps+str2x2/seed7":
        "4c9927ac0bc2281f8a27681e1dd2553e9899a560c2b2f16bd43455b150214ef2",
    "daris-traced/str32-poisson/seed1":
        "792772654b174ac05ec382aeab8bbc8b3a69f9cca901bef23b96c4b2528e475c",
    "daris-traced/str32-poisson/seed7":
        "afb215a28155d449c44c2c1ec454b24e1b9e07d0c2aab66d3fc41c0765507135",
    "daris-traced/mps6x1-storm-diurnal/seed1":
        "6667b4db2955b6d84f3299f555630ac176301b5d55f94a5d41f181ce80782611",
    "daris-traced/mps6x1-storm-diurnal/seed7":
        "d2ea4b7f885873e7c24da4cebe2ae3996e2ffef74f97875df8fc036ba76a0fe9",
    "backend/daris/periodic/none":
        "5a77a7a17a4efc41e036695c5954c2245fe222092d2276bfefed350f6b22c404",
    "backend/daris/periodic/storm":
        "04bb4937607d692ebd7bd698e90be235f8e785c72d754e4f16304467c52223e0",
    "backend/daris/poisson/none":
        "e4366b7770b45875d5135cbd566f52aa3bbade6b6a66ab104512a1d130b10497",
    "backend/daris/poisson/storm":
        "6373ec9b03e16179148aa288dbfc09c8ba1c740b1169a887918beaa116ebe749",
    "backend/daris/bursty/none":
        "35f2418e35ff245d2395f05746844a538e80daaadd1b580656cebdbfca28e0ec",
    "backend/daris/bursty/storm":
        "ec6b069fd4121ad3e8e2e3d1ab585acbbf779ed634d819b811328d873623d199",
    "backend/daris/diurnal/none":
        "6cf9f83a24829499b1492dbc62d6163281fb65bd969667ff967edec78fa96398",
    "backend/daris/diurnal/storm":
        "ee39edebbd0513b006a40170debd692934909628219d7c9f7f5f04af4f37ac27",
    "backend/rtgpu/periodic/none":
        "8e2fea284671ff10a7b9ba25258169f09b8ffd332a233f7e13308ec401fbe132",
    "backend/rtgpu/periodic/storm":
        "c6fc17ec34d8b65adb1cadbca1aeccbeed851a000028ac949e9a25c6d4d20af8",
    "backend/rtgpu/poisson/none":
        "c4e6870cdf82d1b1e38bfc6ea138360e344592cb26cb1be827425a5d4db97f54",
    "backend/rtgpu/poisson/storm":
        "b5450133326508a07e848903212923d02da508519bde8903a197459f24e6f29f",
    "backend/rtgpu/bursty/none":
        "3eb24b1b9f2e29316932d5573acfdef0f35e22ef0b9bf3c93f30556f34402151",
    "backend/rtgpu/bursty/storm":
        "55db72af2c16a95b025bdc4d94297db888e0892b30d8368b48734edb1209ea64",
    "backend/rtgpu/diurnal/none":
        "379f87e7b7844bb0cf7c942420975f5501b45d92dcdf6a3ed8d0a00a08912b42",
    "backend/rtgpu/diurnal/storm":
        "87c5614ff8150ba7c3096f22204dc89911dc79faaa57d6b40ebdee4f628dbfab",
    "backend/clockwork/periodic/none":
        "d9b3bdebc30d37d78b3be901beae0259396370fb4368d7a526403736829e403b",
    "backend/clockwork/periodic/storm":
        "7a0b1a1736471424203622196b615432bc86f35101fb31ff6d44e439d01bb2de",
    "backend/clockwork/poisson/none":
        "79f99ed4998e75af318f8f8fd62dd25549ba00d8e9cb60585af3beffda2a849e",
    "backend/clockwork/poisson/storm":
        "366b870f89eace039d4332141dcb83d85d9b8f21875ef0b4dd69dc5bc6dcfe5a",
    "backend/clockwork/bursty/none":
        "2baf3fc0c7aaf8a8d511cdaf2008940a0563616f554ba8e0b5bc60f7c8a9df31",
    "backend/clockwork/bursty/storm":
        "51616a643c02c5f459498faa052495bf2f7dca6cba619674cebfe8083a110569",
    "backend/clockwork/diurnal/none":
        "0a8819b694c17dc6324b30f4765f62c93c8ae70db875abc492d7848e15a1977f",
    "backend/clockwork/diurnal/storm":
        "9943d11c4c297be3eea7301b5e9f1398c8b8f60867aa0673df29d55b5f73b729",
    "backend/single/saturated/none":
        "ef5f1aa0bb70bc3c24bc46645fac38ae45aacdfad43139dd0aba9bf0ba591dd8",
    "backend/single/saturated/storm":
        "585c580818508898c395c2c0d4f6cf1f9be9d5bf5e4aa910975836b3228a5219",
    "backend/batching_server/periodic/none":
        "70942baa21d173d46e8a7e8c4bb8cb216dcbed6ab896eb7619a94abac8d126af",
    "backend/batching_server/periodic/storm":
        "63ecf69f736ec8e2c7ab1879414d7f8bdc06513420c4ab494841aaf6abc7523f",
    "backend/batching_server/poisson/none":
        "aa0eb964928fb1b2ec8f34f2a4f2399bb7439dd1185e1d24b82a9c0012ef473a",
    "backend/batching_server/poisson/storm":
        "40adf73cfd96d2587bdacc376697684a5bf076f831f4728025e473facdadc5a3",
    "backend/batching_server/saturated/none":
        "f21277ff519a60956bc403ce329010ca639163f8dc34be0ca1d39733c122ed57",
    "backend/batching_server/saturated/storm":
        "46ba36359415c6f693c72765edbf56493d192945d10416f3de1ae129d43f8fdd",
    "backend/batching_server/bursty/none":
        "e6c222c40229183bcf72d5bd5dde9136c1af6bc5df71f0c4e6dcb8245a3a2b0a",
    "backend/batching_server/bursty/storm":
        "f3c7bdd1808ad3f9a39440631fa441ce7943baf0d842eaf4c096238ec489112f",
    "backend/batching_server/diurnal/none":
        "a696fd90ebad959bb982f64091d08bd71ec6752d2c017d9bff287d62179e0560",
    "backend/batching_server/diurnal/storm":
        "9996a5d1f8b726d9617f4fb4cdd7efcc6825f074063175b128900e483d8157dc",
    "backend/gslice/saturated/none":
        "f21277ff519a60956bc403ce329010ca639163f8dc34be0ca1d39733c122ed57",
    "backend/gslice/saturated/storm":
        "46ba36359415c6f693c72765edbf56493d192945d10416f3de1ae129d43f8fdd",
    "backend/cluster/periodic/none":
        "72780014f7f94054e4ad8d9fc5a1f14fd0a74d6fff8217bd509e7564e61c6d7c",
    "backend/cluster/periodic/storm":
        "34bc9317972fad52cda2b8d15820e99ebaed2d6a81436bbe9a3892d1c8cb018b",
    "backend/cluster/poisson/none":
        "5f19c6cff3ed4f8b66ac61047738942083f703326605d22f8398a6a61c119205",
    "backend/cluster/poisson/storm":
        "fed90a6fc3944d039ef4181c710db2b2767f5b444607df104252fcaad0d6e286",
    "backend/cluster/bursty/none":
        "a79532dd096548b0a9357127eb7014cb0f6095b8aa27cbf28e592ec0ae0542b8",
    "backend/cluster/bursty/storm":
        "7dead122abd7f9dd18cb1b2f0f589e99544b41e7d50d002fc67b738bd31fc8fd",
    "backend/cluster/diurnal/none":
        "084cebbaf9aa14b7b91e69a574b9ae1af26d9299c2c95c11c4c43d48ba4e3fb3",
    "backend/cluster/diurnal/storm":
        "5011d3526a0984b430e8bcd9919ddad81716c75d7c61bf2a8f0e81d81cd910e3",
    "clockwork/slack1/lossy":
        "c80b5e4347b5e68759cbb229f2aa86967a9a1c9aa02756a362047e65cfc31717",
    "clockwork/slack1/storm":
        "5700f77732078ca52a5027f417f3141f683d89c572201ba934872a08acbdbefd",
    "clockwork/slack1/storm@gpu2":
        "5700f77732078ca52a5027f417f3141f683d89c572201ba934872a08acbdbefd",
    "clockwork/slack0.8/lossy":
        "2ea408016c4954d6bc1b119911088cfe8cf53d1dbb4fb8f080d19de0fff09aff",
    "clockwork/slack0.8/storm":
        "e87a89e8245a084f7dad1f36accf524853f8ac4597862ad005674268dcb30c61",
    "clockwork/slack0.8/storm@gpu2":
        "e87a89e8245a084f7dad1f36accf524853f8ac4597862ad005674268dcb30c61",
    "cluster/least_loaded/seed3":
        "cb3e931a9c022f268169c0aa3de03b2783173959897a2bc2ff9eb71429a97932",
    "cluster/least_loaded/seed11":
        "0ed32832b6a6a790ff0c6360dd6b5e0077f3f01be8844d871d5cc37da8ea4e93",
    "cluster/round_robin/seed3":
        "cb4fd2596148ca425d4fa8c626cb3a9e2aacf28010c12710066c6bbd53eb3ce8",
    "cluster/round_robin/seed11":
        "8da9aac01279419bf328222eacb1462bc4b799b0dc8740dbeccdf34d6d17d283",
    "cluster/deadline_aware/seed3":
        "1c36bcda613bf706e805c8a6db022810e7e0a07e91e4bfc35ab664793c45f138",
    "cluster/deadline_aware/seed11":
        "14517583ce2ccad83eceffdd7c776d41201296df8eb6683781a14095c07423ac",
    "cluster/partitioned/seed3":
        "cb3e931a9c022f268169c0aa3de03b2783173959897a2bc2ff9eb71429a97932",
    "cluster/partitioned/seed11":
        "0ed32832b6a6a790ff0c6360dd6b5e0077f3f01be8844d871d5cc37da8ea4e93",
    "cluster/partitioned-migration/seed3":
        "1c36bcda613bf706e805c8a6db022810e7e0a07e91e4bfc35ab664793c45f138",
    "cluster/partitioned-migration/seed11":
        "14517583ce2ccad83eceffdd7c776d41201296df8eb6683781a14095c07423ac",
    "cluster/targeted-crash/seed3":
        "a70840837bec9c17212f3a4fbfd0f2607e67997d2b3ecbd8b09b6a4aa1288d46",
    "cluster/targeted-crash/seed11":
        "039643db2fe807f229596e64972a2c4f534a85c064a097cc9ce006490f5162fc",
    "cluster/targeted-throttle/seed3":
        "3b5a28d30e94776f1496f6ce50d5e058f84cad2570322c829965262f70a2daa8",
    "cluster/targeted-throttle/seed11":
        "13f78b88e5540dc2f89b629a137ae79634325a2fb0e0cc32348d61fd1e9ce16b",
    "cluster-migration/least_loaded/seed3":
        "2963b3e8808566c7ae885700d45d42628a5341ba208fd9950ec81da38b9e025e",
    "cluster-migration/least_loaded/seed11":
        "b4827ee5519eef23ebc101e4873d0d3539cbce7b2802173d02c4b1fbf3a6bf57",
    "cluster-migration/deadline_aware/seed3":
        "21764b75cce0c3330600405fff4b1488002d14187469aa88fbf1689c92a1b428",
    "cluster-migration/deadline_aware/seed11":
        "c012e25d43ba6018b555cc15e4eba9848ae158b6386892f6ff5153b0a2d4a2f8",
}


def test_golden_matrix_covers_every_pinned_scenario():
    assert list(scenarios()) == list(GOLDEN_DIGESTS)


@pytest.mark.parametrize("scenario", list(GOLDEN_DIGESTS))
def test_golden_digest(scenario):
    assert scenarios()[scenario]() == GOLDEN_DIGESTS[scenario], (
        f"results moved (digests recorded with numpy {RECORDED_NUMPY}, "
        f"running numpy {np.__version__})"
    )


def _compensated_sum(values, start=0):
    """Float ``sum()`` as CPython 3.12 computes it (Neumaier compensation)."""
    total, compensation = start, 0.0
    for value in values:
        if type(value) is float and type(total) is float:
            partial = total + value
            if abs(total) >= abs(value):
                compensation += (total - partial) + value
            else:
                compensation += (value - partial) + total
            total = partial
        else:
            total = total + value
    return total + compensation if compensation else total


@pytest.mark.parametrize(
    "scenario",
    [
        "daris-traced/str32-poisson/seed1",
        "backend/rtgpu/bursty/none",
        "backend/single/saturated/none",
        "clockwork/slack0.8/storm",
        "cluster/targeted-crash/seed11",
    ],
)
def test_golden_digest_holds_under_compensated_sum(scenario, monkeypatch):
    """Each of these digests moved at the parent commit when ``sum()``
    compensated; results must not depend on how the interpreter sums."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert scenarios()[scenario]() == GOLDEN_DIGESTS[scenario]
