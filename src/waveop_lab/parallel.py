"""Optional task-level threading for independent lambda nodes.

Dense linear algebra already releases the GIL, so a small thread pool
speeds up the per-lambda inversions.  Results are collected in input
order, so values are identical whatever the thread count.
"""

from __future__ import annotations

import os

_THREADS = 1


def set_threads(n: int) -> None:
    global _THREADS
    if n in (None, 0):
        _THREADS = 1
    else:
        _THREADS = max(1, min(int(n), os.cpu_count() or 1))


def pmap(fn, items):
    items = list(items)
    if _THREADS <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here, so that serial runs skip its import (queue, logging)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=min(_THREADS, len(items))) as ex:
        return list(ex.map(fn, items))
