"""Scalar and array primitives: centered modulo folding, the guarded floor
and ceiling, the sup norm, plus :func:`map_blocks`, which spreads row blocks
over the usable CPUs.

Everything downstream is built from these operators.  The fold and rounding
functions are pure and accept either scalars or numpy arrays.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Relative guard band applied before float floor/ceil so that values sitting
#: on a grid line (up to accumulated rounding) do not flip to the wrong side.
GUARD = 1e-12


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
    # sched_getaffinity (Linux only) honours taskset and cpusets
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(len(starts), cpus or 1)
    if threads <= 1:
        return [fn(s) for s in starts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, starts))


def sup_norm(a: np.ndarray) -> float:
    """``max |a|`` over every element, without the ``|a|`` copy: +0.0 for an
    all-zero array, NaN if any element is NaN."""
    return max(float(a.max()), -float(a.min())) + 0.0  # + 0.0 turns -0.0 into 0.0


def guarded_floor(x):
    """Floor with a small relative guard band toward +inf."""
    x = np.asarray(x, dtype=float)
    return np.floor(x + GUARD * np.maximum(1.0, np.abs(x)))


def guarded_ceil(x):
    """Ceil with a small relative guard band toward -inf."""
    x = np.asarray(x, dtype=float)
    return np.ceil(x - GUARD * np.maximum(1.0, np.abs(x)))


@dataclass(frozen=True)
class Threshold:
    """Half-range of the centered fold; values are folded into [-lam, lam).

    Parameters
    ----------
    lam : float
        Positive fold threshold, in signal units.
    """

    lam: float

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam <= 0.0:
            raise DomainError(f"threshold must be a positive finite real, got {self.lam}")


def modulo_fold(t, thr: Threshold):
    """Centered fold of t into [-lam, lam).

    Computes ``t - 2*lam*floor((t + lam) / (2*lam))`` elementwise; a value
    that rounding puts a few ulps outside [-lam, lam) is pinned to the nearer
    end.  Scalars return a float, arrays an array of the same shape.

    Raises
    ------
    DomainError
        If any input value is not finite.
    """
    lam = thr.lam
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("modulo_fold requires finite input")
    two_lam = 2.0 * lam
    out = arr - two_lam * np.floor((arr + lam) / two_lam)
    top = math.nextafter(lam, -math.inf)
    if np.isscalar(t) or arr.ndim == 0:
        return float(min(max(out, -lam), top))
    np.maximum(out, -lam, out=out)
    return np.minimum(out, top, out=out)
