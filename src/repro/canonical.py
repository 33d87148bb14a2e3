"""Canonical JSON: the bytes that a request's cache key hashes.

Canonical means ``json.dumps(data, sort_keys=True, separators=(",", ":"))``.
Floats use Python's shortest-repr form, which is deterministic and
round-trips exactly.

A cache key's bytes are mostly the task set, and a task's bytes are mostly
its calibrated model, and grids share both among many requests.  So a
model and a task set each encode their canonical JSON once, and the
object that holds them splices that JSON in with :func:`splice_json`
instead of encoding it again.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping


#: ``data`` as canonical JSON.  One shared encoder: ``json.dumps`` with
#: these arguments builds the same encoder anew on every call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def splice_json(fields: Mapping[str, object], key: str, value_json: str) -> str:
    """:func:`canonical_json` of ``fields`` plus ``key``, given ``key``'s value as JSON.

    ``value_json`` must be the canonical JSON of the value.  The fields that
    sort before ``key`` and those after it are encoded in one call each, and
    ``value_json`` goes between them, so the result is byte for byte
    ``canonical_json({**fields, key: value})``.
    """
    before: Dict[str, object] = {}
    after: Dict[str, object] = {}
    for name, value in fields.items():
        if name < key:
            before[name] = value
        elif name > key:
            after[name] = value
    parts = (
        canonical_json(before)[1:-1],
        f"{canonical_json(key)}:{value_json}",
        canonical_json(after)[1:-1],
    )
    return "{" + ",".join(filter(None, parts)) + "}"
