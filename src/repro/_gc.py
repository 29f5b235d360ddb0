"""Pausing Python's cyclic garbage collector around acyclic build bursts."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector disabled, then restore it.

    Building many containers at once (m edge tuples and a dict over them,
    or one dict per vertex) runs a gen-0 pass every 700 allocations, and
    right after a large build those passes tip into full collections of
    the whole heap.  When what the block builds holds no reference cycles
    those passes free nothing, so the block runs without them.  The
    collector's state is restored on exit, exception or not: a caller that
    had disabled it finds it still disabled.

    >>> import gc
    >>> with collector_paused():
    ...     gc.isenabled()
    False
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
