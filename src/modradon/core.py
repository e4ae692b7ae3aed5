"""Scalar and sequence primitives: centered modulo folding and running sums
(anti-differences), plus :func:`map_blocks`, which spreads row blocks over
the usable CPUs.

Everything downstream is built from these operators.  The fold and sum
functions are pure and accept either scalars or numpy arrays where that makes
sense; sequences with an explicit (possibly negative) base index are carried
by :class:`SampleSeq`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError

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


@dataclass(frozen=True, eq=False)
class SampleSeq:
    """A finite run of real samples indexed from an explicit base index.

    The absolute index k maps to ``values[k - base_index]``; base indices may
    be negative, which is how extended left margins are represented.

    Parameters
    ----------
    base_index : int
        Absolute index of the first element.
    values : array_like
        Non-empty 1-D sequence of finite reals.
    """

    base_index: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise SizeError("SampleSeq requires a non-empty 1-D value array")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "base_index", int(self.base_index))

    def __len__(self) -> int:
        return self.values.size


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


def anti_diff(a: np.ndarray) -> np.ndarray:
    """Running sum along the last axis starting at zero, one sample longer than
    the input.

    Keeps the input dtype (int64 fold counts stay exact) and inverts
    ``np.diff`` up to the first value: ``anti_diff(np.diff(x)) == x - x[0]``.
    """
    a = np.asarray(a)
    out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,), dtype=a.dtype)
    out[..., 0] = 0
    np.cumsum(a, axis=-1, out=out[..., 1:])
    return out


def anti_diff_bilateral(a: np.ndarray, base: int) -> np.ndarray:
    """Running sum along the last axis anchored at absolute index 0, extended
    to both sides.

    ``a[..., i]`` sits at absolute index ``base + i``.  ``result[0] = 0``;
    ``result[k] = sum_{j=0}^{k-1} a[j]`` for k > 0 and
    ``result[k] = -sum_{j=k}^{-1} a[j]`` for k < 0.  The result covers
    ``[base, base+len]`` and keeps the input dtype.

    Raises
    ------
    DomainError
        If the input does not cover index 0 (``base <= 0 < base+len``).
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if not (base <= 0 < base + n):
        raise DomainError(
            f"bilateral running sum needs index 0 inside [{base}, {base + n - 1}]"
        )
    c = anti_diff(a)
    # subtracting the cumulative value at index 0 re-anchors the sum there
    return c - c[..., -base, None]
