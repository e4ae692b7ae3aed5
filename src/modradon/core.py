"""Scalar and array primitives: centered modulo folding, the guarded floor
and ceiling, the sup norm, plus :func:`map_blocks`, which spreads row blocks
over the :func:`usable_cpus`.

Everything downstream is built from these operators.  The fold and rounding
functions are pure and return numpy arrays.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

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


def map_blocks(fn, starts) -> list:
    """``[fn(s) for s in starts]``, run on one thread per usable CPU.

    Each call handles one row block and writes only its own output rows; numpy
    releases the GIL inside the block's array operations, so blocks overlap.
    The pool lives for this call only: its threads are gone when the call
    returns, so a process forked later (the sweep's worker pool) inherits
    none.  With one block or one usable CPU the calls run inline.  Results
    come back in the order of ``starts``, and an exception is raised from the
    first block, in that order, that raised one.
    """
    starts = list(starts)
    threads = min(len(starts), usable_cpus())
    if threads <= 1:
        return [fn(s) for s in starts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, starts))


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
