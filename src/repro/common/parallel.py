"""Worker count of the relational batch pipeline.

Every query runs its operators on the calling thread: the runtime overlaps
*different* queries on its pool, but no query fans its own work out to
threads.
"""

from __future__ import annotations

from typing import Any


def resolve_parallelism(setting: Any = None) -> int:
    """Return 1, the worker count every query runs with.

    ``setting`` is accepted and ignored so callers that still record a
    parallelism value (the benchmark's environment record) keep working.
    """
    return 1
