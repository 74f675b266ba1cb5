"""One helper thread for a call's numpy work that releases the GIL.

BLAS products and numpy's random fills run without the GIL, so a second
thread can do a share of a long call's arithmetic while the caller does the
rest.  :func:`worker` gives the call a one-thread executor, used as a
``with`` block that joins its thread however the block is left, or, when
the call is too short to share, a stand-in that runs each task at once on
the caller; either way the call reads a task's value by ``.result()``, so
the short and the long call run one code path.  A task never waits on the
caller, so the join never waits on a task that cannot finish.

The executor is made per call, never kept: a pool's worker thread does not
survive a ``fork``, and a process pool for Monte Carlo trials forks its
workers.  A thread per call is also the faster: on a 2-core host, one
reused, queue-fed helper made a T = 20000 trial of the proposed method take
45.0-46.6 ms against 40.7-42.2 ms (median per trial, 6 alternating runs).
A helper woken while the caller waits appears to share the caller's core,
while a thread started while the caller is busy lands on the idle one, so a
caller submits its first task before its own share of the work.  Tasks run
numpy only, never a function a tracer might wrap, since a tracer that keeps
one span stack assumes a single thread.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

__all__ = ["worker"]


class _Done:
    """The value of a task already run, read as a future's is."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def result(self):
        return self.value


class _OnCaller:
    """The executor's stand-in: each task runs at once on the caller."""

    def __enter__(self) -> "_OnCaller":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def submit(self, fn, /, *args, **kwargs) -> _Done:
        return _Done(fn(*args, **kwargs))


_ON_CALLER = _OnCaller()


def worker(threaded: bool) -> ThreadPoolExecutor | _OnCaller:
    """A new one-thread executor if ``threaded``, else the on-caller stand-in.

    The executor's thread, ``canf-helper_0``, starts at the first
    ``submit`` and runs under the numpy error state in force here, which a
    new thread does not inherit.  Leaving its ``with`` block runs every
    task already submitted and joins the thread; an exception a task raised
    is raised by its ``.result()``, and one the block raises is raised
    after the join in place of any a task raised.
    """
    if not threaded:
        return _ON_CALLER
    return ThreadPoolExecutor(1, "canf-helper", initializer=partial(np.seterr, **np.geterr()))
