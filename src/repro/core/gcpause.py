"""Scoped suspension of Python's cyclic garbage collector.

Bulk passes -- a campaign's record allocation, a traceroute batch's
resolution -- allocate hundreds of thousands of small objects that form
no reference cycles.  With a large live heap (worlds, planned-path
caches, earlier datasets) each automatic gen-2 collection those
allocations trigger is a full multi-millisecond traversal that finds
nothing to free, and it fires again and again mid-pass.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Suspend cyclic collection for the block.

    The collector is restored to its previous state on exit (including
    on error), so nested use and callers that already disabled it are
    both safe.  Reference counting still frees acyclic garbage.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
