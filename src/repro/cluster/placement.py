"""Model-to-device placement for the cluster backend.

A :class:`PlacementSpec` maps each distinct model of a task set to the
subset of devices allowed to serve it.  ``replicated`` placement serves
every model everywhere (the router balances freely); ``partitioned``
placement splits the devices into disjoint per-model subsets (device ``g``
serves model ``g % num_models``), the GSlice-style isolation answer at
cluster scale.  The spec is the *initial* map of a run, built from the
fingerprinted ``ClusterConfig.placement`` policy; migration later narrows a
model to one device by switching the model's
:class:`~repro.cluster.ledger.DeviceGroup`, which is then the only record of
where it runs.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.cluster.config import PLACEMENT_POLICIES


class PlacementSpec:
    """Initial model -> eligible-device map of one cluster run."""

    def __init__(self, assignments: Dict[str, Tuple[int, ...]]):
        if not assignments:
            raise ValueError("a placement needs at least one model")
        for model_name, gpus in assignments.items():
            if not gpus:
                raise ValueError(f"model {model_name!r} is placed on no device")
        self._assignments = dict(assignments)

    @classmethod
    def build(
        cls, policy: str, model_names: Sequence[str], num_gpus: int
    ) -> "PlacementSpec":
        """Initial placement of ``model_names`` under a named policy."""
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement {policy!r}; choose from {', '.join(PLACEMENT_POLICIES)}"
            )
        everyone = tuple(range(num_gpus))
        if policy == "replicated" or len(model_names) == 1 or num_gpus == 1:
            return cls({name: everyone for name in model_names})
        # Partitioned: device g serves model g % num_models, so every device
        # is used and the per-model subsets are disjoint.
        assignments: Dict[str, Tuple[int, ...]] = {}
        for position, name in enumerate(model_names):
            gpus = tuple(g for g in everyone if g % len(model_names) == position)
            # More models than devices: wrap the overflow models back onto
            # device position % num_gpus instead of leaving them unplaced.
            assignments[name] = gpus if gpus else (position % num_gpus,)
        return cls(assignments)

    def gpus_for(self, model_name: str) -> Tuple[int, ...]:
        """Devices initially eligible to serve ``model_name``."""
        return self._assignments[model_name]
