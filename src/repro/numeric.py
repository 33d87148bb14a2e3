"""Left-to-right float summation that rounds the same on every CPython.

CPython 3.12 made ``sum()`` over floats compensated (Neumaier summation), so
it rounds differently from the plain left-to-right addition of 3.11 and
earlier.  Sums that feed simulation results go through :func:`left_sum` (or
an explicit ``+=`` loop on the hottest paths) so that results, traces and
the digests pinned in ``tests/test_golden_digests.py`` do not depend on the
interpreter version.  Sums of integers are exact and keep using ``sum()``.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``0 + v0 + v1 + ...`` in iteration order with plain float addition.

    Bit-identical to ``sum(values)`` on CPython 3.11; returns ``0`` for an
    empty iterable, as ``sum()`` does.
    """
    total = 0
    for value in values:
        total += value
    return total
