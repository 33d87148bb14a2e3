"""Declarative experiment registry.

Every figure/table module declares *what* it sweeps — an
:class:`ExperimentSpec` whose ``build`` callback expands into
:class:`~repro.experiments.parallel.ScenarioRequest` objects plus a row
aggregator — and registers it here.  *How* the sweep is executed (parallel
fan-out, seed replication, disk caching, CI aggregation) lives once, in
:mod:`repro.experiments.engine`, instead of being hand-rolled per module.

A spec's ``build(ctx)`` returns an :class:`ExperimentPlan`:

* ``plan.requests`` — the scenario grid for one seed (the engine crosses it
  with the ``--seeds N`` replication axis by shifting each request's seed);
* ``plan.make_rows(row_ctx)`` — turns one seed's results back into the
  module's report rows.  Called once per seed; with a single seed the rows
  are therefore *identical* to what the module produced before the registry
  existed, and with several seeds the engine aggregates the per-seed rows
  into mean / stdev / 95 %-CI columns.

Analytic experiments (Table II, Figure 2) return an empty request list and
compute their rows directly in ``make_rows``.  They, and the deterministic
baseline curves of Table I, mark themselves ``replicable=False`` so the
engine does not pointlessly replicate a deterministic computation across
seeds.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments.parallel import ScenarioRequest
from repro.experiments.runner import ScenarioResult

#: Modules that register an experiment spec on import (one per paper artefact).
EXPERIMENT_MODULES = (
    "repro.experiments.fig1_table1_batching",
    "repro.experiments.table2_tasksets",
    "repro.experiments.fig2_staging",
    "repro.experiments.fig4_6_main",
    "repro.experiments.fig7_mixed",
    "repro.experiments.fig8_ablations",
    "repro.experiments.fig9_mret",
    "repro.experiments.fig10_batched",
    "repro.experiments.fig11_overload",
    "repro.experiments.sota_comparison",
    "repro.experiments.backend_grid",
    "repro.experiments.faults_grid",
    "repro.experiments.dse_grid",
    "repro.experiments.cluster_grid",
)


@dataclass(frozen=True)
class BuildContext:
    """Inputs available when a spec expands into concrete requests."""

    quick: bool = True
    seed: int = 1
    params: Mapping[str, object] = field(default_factory=dict)

    def param(self, name: str, default: object = None) -> object:
        """Convenience lookup for spec parameters (e.g. ``model_name``)."""
        return self.params.get(name, default)


@dataclass(frozen=True)
class RowContext:
    """Inputs available when one seed's results are folded into rows."""

    quick: bool
    seed: int
    results: Sequence[ScenarioResult]
    params: Mapping[str, object] = field(default_factory=dict)

    def param(self, name: str, default: object = None) -> object:
        """Convenience lookup for spec parameters (e.g. ``model_name``)."""
        return self.params.get(name, default)


@dataclass(frozen=True)
class ExperimentPlan:
    """One seed's worth of work: the request grid plus the row aggregator."""

    requests: List[ScenarioRequest]
    make_rows: Callable[[RowContext], List[Dict[str, object]]]


@dataclass(frozen=True)
class ConfigAxis:
    """One config dimension a spec sweeps (or accepts overrides on).

    An axis addresses one fingerprintable field of a config dataclass by
    its ``target.field`` spelling from the shared axis vocabulary
    (:func:`repro.experiments.scenarios.config_axis_vocabulary`) — e.g.
    ``daris.window_size``, ``clockwork.admission_slack``, ``gpu.num_sms``.
    ``values`` lists the levels a declared grid crosses (empty for a
    free-form axis that only accepts ``--set`` overrides).
    """

    target: str
    field: str
    values: Sequence[object] = ()
    description: str = ""

    def spec_string(self) -> str:
        """The canonical ``target.field`` spelling of this axis."""
        return f"{self.target}.{self.field}"


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one paper artefact's experiment.

    Attributes:
        name: registry key, e.g. ``"fig4_6"`` (what the CLI accepts).
        title: one-line human description shown by ``list`` and reports.
        build: expands the spec into an :class:`ExperimentPlan` for one seed.
        highlights: the paper's reported numbers for quick comparison.
        replicable: whether the ``--seeds`` axis applies; ``False`` for
            purely analytic experiments whose output is seed-independent.
        defaults: default ``params`` merged under any caller-supplied ones
            (e.g. ``{"model_name": "resnet18"}``).
        axes: the config axes the spec's grid crosses (design-space
            dimensions); shown by ``list`` and exported by ``list --json``.
    """

    name: str
    title: str
    build: Callable[[BuildContext], ExperimentPlan]
    highlights: Mapping[str, object] = field(default_factory=dict)
    replicable: bool = True
    defaults: Mapping[str, object] = field(default_factory=dict)
    axes: Sequence[ConfigAxis] = ()

    def merged_params(self, params: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """Spec defaults overlaid with caller-supplied parameters."""
        merged = dict(self.defaults)
        if params:
            merged.update(params)
        return merged

    def unknown_params(self, params: Optional[Mapping[str, object]] = None) -> List[str]:
        """Caller-supplied parameter names the spec does not declare.

        ``defaults`` doubles as the spec's parameter declaration: anything
        outside it is still merged (forward compatibility) but is almost
        certainly ignored by ``build`` — e.g. ``--model`` applied to a spec
        that sweeps no model.  Callers use this to warn instead of silently
        dropping the parameter.

        ``config_overrides`` is reserved: the engine applies it to every
        spec's requests generically (``--set`` config axes), so it is never
        unknown.
        """
        if not params:
            return []
        return sorted(set(params) - set(self.defaults) - {"config_overrides"})


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (idempotent per name); returns the spec.

    Re-registering the same name replaces the entry, which keeps module
    reloads (pytest importmode quirks, interactive use) harmless.
    """
    _REGISTRY[spec.name] = spec
    return spec


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered spec, loading the experiment modules on demand."""
    if name not in _REGISTRY:
        load_all_experiments()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(experiment_names()) or '(none)'}"
        )
    return _REGISTRY[name]


#: Canonical (paper) ordering of the built-in experiment names; listings are
#: sorted by this rather than import order, which varies with test ordering.
_CANONICAL_ORDER = (
    "fig1_table1",
    "table2",
    "fig2",
    "fig4_6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "sota",
    "backends",
    "faults",
    "dse",
    "cluster",
)


def _canonical_rank(name: str) -> tuple:
    try:
        return (0, _CANONICAL_ORDER.index(name))
    except ValueError:
        return (1, 0)  # user-registered specs trail the built-ins, stably


def experiment_names() -> List[str]:
    """Registered experiment names, built-ins first in paper order."""
    return sorted(_REGISTRY, key=_canonical_rank)


def all_experiments() -> List[ExperimentSpec]:
    """Every registered spec, loading the experiment modules on demand."""
    load_all_experiments()
    return [_REGISTRY[name] for name in experiment_names()]


def load_all_experiments() -> None:
    """Import every experiment module so its spec registers itself.

    Imports are deferred to first use (rather than done at package import)
    to keep ``import repro`` light and to avoid import cycles: the modules
    themselves import this registry.
    """
    for module_name in EXPERIMENT_MODULES:
        importlib.import_module(module_name)
