"""What a run leaves for the cyclic collector.

A plain module rather than a fixture, so hypothesis tests (which reject
function-scoped fixtures) can call it too; ``conftest.py`` serves it as the
``unreachable_after`` fixture.
"""

from __future__ import annotations

import gc


def unreachable_after_run(run):
    """Run ``run()`` with the cyclic collector paused; report what it left behind.

    Returns ``(run's result, objects)``, where ``objects`` are those a
    collection right after the run finds unreachable.  With the collector
    paused, everything the run let go of that reference counting could not
    free is still there to be found.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return result, found
