"""The one process pool of a command: an order-preserving map over its
independent work items."""

from __future__ import annotations

import os
from typing import Callable, Iterator


def parallel_map(fn: Callable, items: list, jobs: int = 1) -> Iterator:
    """Yield ``fn(item)`` for each item in item order, each as soon as it and
    every earlier one are done.  The pool has at most one process per item
    and per CPU; with one process the map runs in this process."""
    processes = min(jobs, len(items), os.cpu_count() or 1)
    if processes <= 1:
        yield from map(fn, items)
        return
    import multiprocessing

    with multiprocessing.Pool(processes=processes) as pool:
        yield from pool.imap(fn, items)
