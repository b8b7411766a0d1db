"""The second lane: one worker thread that runs half of a large pass.

`split(fn, first, second)` runs fn(*first) on the worker and
fn(*second) on the calling thread, waits for both and re-raises an
error from either.  numpy releases the interpreter lock inside its FFT
and ufunc loops, so two halves of one whole-field pass run on two
cores.  The transforms (spectral), with the pointwise map that runs in
the forward transform's first phase, and the step's row arithmetic
(integrator) use it on 3D fields whose coefficient arrays have at least
MIN_SPLIT_ENTRIES entries; below that a hand-off (tens of microseconds)
costs more than half a pass saves.  `halves(shape, axis)` is that rule,
the one place that reads MIN_SPLIT_ENTRIES, and the cut of the axis.

The lane is one process-wide worker, started by the first split and
held by this module; importing the module starts nothing.  Each call:

- claims the lane without waiting.  When another thread holds it (for
  example integrations on a sweep's thread pool), or a half running on
  the worker splits again, both halves run inline on the caller, so a
  call never queues behind the lane or nests inside it;
- carries its own completion, so an error or interrupt in the caller's
  half leaves nothing for the next call to mistake for its own, and the
  caller waits for the worker's half before it raises or returns;
- runs the worker's half in a copy of the caller's contextvars context,
  so numpy's errstate and buffer size apply to both halves.

The worker drops every reference to a task before it signals the task
done, so a split holds none of its arguments past its return.  A forked
child gets a new, unstarted lane (os.register_at_fork): the parent's
worker does not exist there.
"""
from __future__ import annotations

import contextvars
import math
import os
import queue
import threading
from typing import Callable, Optional

__all__ = ["MIN_SPLIT_ENTRIES", "halves", "split"]

# the coefficient entries from which a 3D field's passes run in two
# halves.  An ETDRK4 step in halves against whole, on a 2-core VM: sh3
# 1.80x at 24^3 (7,488 entries), 0.95x at 32^3 (17,408) and 0.76x at
# 40^3 (33,600); gl3 1.06x at 24^3 (13,824) and 0.94x at 32^3 (32,768);
# schnak3 1.00x at 32^3 (34,816)
MIN_SPLIT_ENTRIES = 32768


def halves(shape: tuple, axis: int) -> Optional[tuple]:
    """The index tuples of the two halves of axis (-3 or -2) of an array
    shaped shape, the 3D field's coefficients (the caller knows it is
    3D), when it has at least MIN_SPLIT_ENTRIES entries; else None, and
    the field runs whole."""
    if math.prod(shape) < MIN_SPLIT_ENTRIES:
        return None
    cut, rest = shape[axis] // 2, (slice(None),) * (-1 - axis)
    return (Ellipsis, slice(None, cut), *rest), (Ellipsis, slice(cut, None), *rest)


class _Lane:
    """The worker's task queue, the lock a split holds while it uses the
    worker, and the thread once started."""

    __slots__ = ("claim", "tasks", "thread")

    def __init__(self) -> None:
        self.claim = threading.Lock()
        self.tasks: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = None


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        context, fn, args, errors, done = tasks.get()
        try:
            context.run(fn, *args)
        except BaseException as exc:  # handed to the caller, which re-raises it
            errors.append(exc)
        # nothing of the task may outlive its completion
        del context, fn, args, errors
        done.release()
        del done


_lane = _Lane()


def _forget() -> None:
    global _lane
    _lane = _Lane()


os.register_at_fork(after_in_child=_forget)


def _wait(done: threading.Lock) -> None:
    """Acquire done, through interrupts, then re-raise the last of them."""
    interrupt = None
    while True:
        try:
            done.acquire()
            break
        except BaseException as exc:  # re-raised below, once the worker is done
            interrupt = exc
    if interrupt is not None:
        raise interrupt


def split(fn: Callable, first: tuple, second: tuple) -> None:
    """Run fn(*first) on the lane's worker and fn(*second) here, and
    return once both are done; an error in either reaches the caller
    (the caller's own first).  When the lane is busy both run here, first
    then second.  The two halves must not write memory the other reads."""
    lane = _lane
    if not lane.claim.acquire(blocking=False):
        fn(*first)
        fn(*second)
        return
    try:
        if lane.thread is None:
            lane.thread = threading.Thread(target=_serve, args=(lane.tasks,),
                                           name="phistep-lane", daemon=True)
            lane.thread.start()
        done, errors = threading.Lock(), []
        done.acquire()
        lane.tasks.put((contextvars.copy_context(), fn, first, errors, done))
        try:
            fn(*second)
        finally:
            _wait(done)
        if errors:
            raise errors.pop()
    finally:
        lane.claim.release()
