"""One helper thread beside the caller, for numpy work that releases the GIL.

BLAS products and numpy's random fills run without the GIL, so a second
thread can do a share of a long call's arithmetic while the caller does the
rest.  The helper is started per call and joined before the call returns,
never kept in a pool: a pool's worker thread does not survive a ``fork``,
and a process pool for Monte Carlo trials forks its workers.  A thread per
call is also the faster: on a 2-core host, one reused, queue-fed helper made
a T = 20000 trial of the proposed method take 45.0-46.6 ms against
40.7-42.2 ms (median per trial, 6 alternating runs).  A helper woken while
the caller waits appears to share the caller's core, while a thread started
while the caller is busy lands on the idle one.  The helper
runs numpy only, never a function a tracer might wrap, since a tracer that
keeps one span stack assumes a single thread.
"""
from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

__all__ = ["beside"]


@contextmanager
def beside(work: Callable[[], object], stop: Callable[[], object] | None = None) -> Iterator[None]:
    """Run ``work()`` in one helper thread while the ``with`` body runs.

    The helper runs under the caller's numpy error state, which a new thread
    does not inherit.  On leaving the body, however it leaves, ``stop()`` is
    called (to release a helper that waits on the caller) and the helper is
    joined; an exception the helper raised is then raised in the caller,
    chained to the body's own if both raised.
    """
    settings = np.geterr()
    failure: list[BaseException] = []

    def run() -> None:
        try:
            with np.errstate(**settings):
                work()
        except BaseException as exc:  # handed to the caller
            failure.append(exc)

    helper = threading.Thread(target=run, name="canf-helper")
    helper.start()
    try:
        yield
    finally:
        if stop is not None:
            stop()
        helper.join()
        if failure:
            raise failure[0]
