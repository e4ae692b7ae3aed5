"""Scalar and array primitives: centered modulo folding, the guarded floor
and ceiling, the sup norm, plus :func:`map_blocks`, which spreads row blocks
over the :func:`usable_cpus`.

Everything downstream is built from these operators.  The fold and rounding
functions are pure and return numpy arrays.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import DomainError

#: Relative guard band applied before float floor/ceil so that values sitting
#: on a grid line (up to accumulated rounding) do not flip to the wrong side.
GUARD = 1e-12


def usable_cpus() -> int:
    """CPUs this process may run on; sched_getaffinity (Linux only) honours
    taskset and cpusets."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def map_blocks(fn, starts, scratch=None) -> list:
    """``[fn(s) for s in starts]``, worked by the calling thread beside
    ``usable_cpus() - 1`` pool threads, each taking the next block in order.

    Each call handles one row block and writes only its own output rows; numpy
    releases the GIL inside the block's array operations, so blocks overlap.
    With ``scratch``, a callable of no arguments, every worker gets one
    ``scratch()`` object, all of them built on the calling thread before any
    block runs, and the calls are ``fn(s, obj)``: buffers a block reuses then
    come from the caller's heap, and no pool thread's malloc arena keeps a
    block-sized high-water mark of its own.  The pool lives for this call
    only: its threads are gone when the call returns, so a process forked
    later (the sweep's worker pool) inherits none.  With one block or one
    usable CPU no thread is started.  Results come back in the order of
    ``starts``.  Once a block raises, no later block is started, and when
    every running block has finished the exception of the first block, in
    the order of ``starts``, that raised one is raised.
    """
    starts = list(starts)
    workers = max(1, min(len(starts), usable_cpus()))
    args = [() if scratch is None else (scratch(),) for _ in range(workers)]
    results, errors = [None] * len(starts), {}
    lock = threading.Lock()
    order = iter(range(len(starts)))

    def work(*arg):
        while True:
            with lock:
                # blocks are taken in order, so every block before a failed
                # one has been taken already
                i = None if errors else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(starts[i], *arg)
            except BaseException as exc:
                errors[i] = exc

    pool = [threading.Thread(target=work, args=arg) for arg in args[1:]]
    try:
        for t in pool:
            t.start()
        work(*args[0])
    finally:
        for t in pool:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[min(errors)]
    return results


def sup_norm(a: np.ndarray) -> float:
    """``max |a|`` over every element, without the ``|a|`` copy: +0.0 for an
    all-zero or empty array, NaN if any element is NaN, inf if any is
    infinite and none is NaN."""
    # + 0.0 turns -0.0 into 0.0
    return max(float(a.max(initial=0.0)), -float(a.min(initial=0.0))) + 0.0


def guarded_floor(x):
    """Floor with a small relative guard band toward +inf."""
    x = np.asarray(x, dtype=float)
    return np.floor(x + GUARD * np.maximum(1.0, np.abs(x)))


def guarded_ceil(x):
    """Ceil with a small relative guard band toward -inf."""
    x = np.asarray(x, dtype=float)
    return np.ceil(x - GUARD * np.maximum(1.0, np.abs(x)))


def modulo_fold(t, lam: float) -> np.ndarray:
    """Centered fold of t into [-lam, lam), the half-range ``lam`` being the
    fold threshold.

    Computes ``t - 2*lam*floor((t + lam) / (2*lam))`` elementwise, in that
    order of operations, in one output buffer; a value that rounding puts a
    few ulps outside [-lam, lam) is pinned to the nearer end.  The result is
    a new array of the shape of ``t``.

    Raises
    ------
    DomainError
        If ``lam`` is not a positive finite real, ``2*lam`` overflows, any
        input value is not finite, or the quotient ``(max|t| + lam)/(2*lam)``
        overflows (all checked before any arithmetic on the samples).
    """
    if not np.isfinite(lam) or lam <= 0.0:
        raise DomainError(f"threshold must be a positive finite real, got {lam}")
    lam = float(lam)  # a numpy scalar would warn where the checks below overflow
    two_lam = 2.0 * lam
    if not math.isfinite(two_lam):
        raise DomainError(f"threshold {lam} is too large: 2*lam overflows")
    arr = np.asarray(t, dtype=float)
    peak = sup_norm(arr)
    if not math.isfinite(peak):
        raise DomainError("modulo_fold requires finite input")
    # |t + lam| <= max|t| + lam bounds every quotient the fold divides out
    if not math.isfinite((peak + lam) / two_lam):
        raise DomainError(f"cannot fold samples up to {peak} at threshold {lam}: "
                          "(max|t| + lam)/(2*lam) overflows")
    out = np.add(arr, lam, out=np.empty_like(arr))
    out /= two_lam
    np.floor(out, out=out)
    out *= two_lam
    np.subtract(arr, out, out=out)
    np.maximum(out, -lam, out=out)
    np.minimum(out, math.nextafter(lam, -math.inf), out=out)
    return out
