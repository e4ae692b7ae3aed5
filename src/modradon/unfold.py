"""Recovery of unfolded samples from modulo samples.

:func:`unfold_sinogram` is the one unfold entry for sinograms.  It checks the
window once, then unfolds ``_UNFOLD_ROWS`` angle rows at a time through one
block core, the blocks spread over the usable CPUs by
:func:`~modradon.core.map_blocks` (every row is unfolded on its own, so the
result does not depend on the CPU count), in one of two modes:

* general — for rows of a signal whose samples decay at +infinity;
  integration constants are resolved by a slope probe (the kappa correction,
  one per row) and a tail limit.
* compact exceedance — for signals whose magnitude exceeds the fold threshold
  only inside a compact region; an extended left margin of quiet samples
  anchors every running sum, which removes all integration ambiguities.  Its
  core, ``compact_counts``, unfolds a block of rows with per-row start
  columns; the synthetic sweep and demo share it for all their trials.

``unfold_compact`` unfolds one sample run as a one-row call of the same core.

Unfolding reads the threshold lam from the sinogram it unfolds and takes the
difference order N as an input, which the caller that owns the sampling
decision picks once with :func:`select_order`.

Both modes reduce folding to integer bookkeeping in one layout: the
fold-count residual of the N-th forward difference is snapped to integer
multiples of 2*lam once and placed right-aligned in a zeroed int64 block,
which N in-place running sums along each row turn into the fold counts
(general mode re-anchors each sum at index 0 and adds its slope correction
between the passes).  Integer sums are exact, so results on the fold grid are
exact by construction.  The returned fold counts are multiplied by 2*lam as a
single product per sample, which makes a successful recovery bit-identical to
the unfolded input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import guarded_ceil, guarded_floor, map_blocks, modulo_fold
from .errors import (
    ConditionError,
    ConfigError,
    DomainError,
    MarginError,
    SizeError,
    check_counts,
    check_positive,
)
from .forward import Sinogram

GENERAL = "general"
COMPACT = "compact_exceedance"
#: Angle rows per block in :func:`unfold_sinogram`, one thread's work; small
#: for the reason given at ``forward._CONV_ROWS``.
_UNFOLD_ROWS = 32


@dataclass
class UnfoldReport:
    """Diagnostics of one unfolding run.

    ``residual_grid_deviation`` is the largest distance of the computed fold
    residual from the 2*lam grid before integer snapping; it is a float-health
    indicator (the residual lies on the grid in exact arithmetic regardless of
    whether recovery succeeds).  ``success`` reflects the no-ground-truth
    health checks: grid residual below 1e-9*lam and, in general mode, a
    settled tail plateau.
    """

    n_used: int
    j_used: int | None
    residual_grid_deviation: float
    success: bool
    tail_plateau_ok: bool | None = None

    CSV_HEADER = "n_used,j_used,residual_grid_deviation,success,tail_plateau_ok"

    def to_csv_line(self) -> str:
        j = "" if self.j_used is None else str(self.j_used)
        t = "" if self.tail_plateau_ok is None else str(int(self.tail_plateau_ok))
        return f"{self.n_used},{j},{self.residual_grid_deviation!r},{int(self.success)},{t}"


def write_unfold_reports(reports, path) -> None:
    """Per-row report CSV: a ``row,`` + ``CSV_HEADER`` line, then one line per row."""
    with open(path, "w") as f:
        f.write("row," + UnfoldReport.CSV_HEADER + "\n")
        for i, r in enumerate(reports):
            f.write(f"{i},{r.to_csv_line()}\n")


def grid_upper_bound(beta: float, lam: float) -> float:
    """Round an amplitude bound up to the next even multiple of lam; a positive
    bound rounds to at least 2*lam."""
    grid = 2.0 * lam
    steps = float(guarded_ceil(beta / grid))
    if beta > 0:
        steps = max(steps, 1.0)  # the guard band takes beta/grid <= 1e-12 to -0.0
    return grid * steps


def select_order(lam: float, beta: float, omega: float, T: float) -> int:
    """Difference order from the amplitude bound beta of the unfolded signal,
    sampled at spacing T with bandwidth omega and folded at lam:
    ceil(log(lam/beta)/log(T*omega*e)), at least 0.

    Order 0 (beta <= lam, where no sample can fold) unfolds to the identity in
    compact mode; general unfolding raises it to 1.

    Raises
    ------
    ConfigError
        If lam, beta, omega or T is not positive and finite.
    ConditionError
        If T*omega*e >= 1 (the formula is meaningless without oversampling), or
        if it underflows to 0.
    """
    check_positive(lam=lam, beta=beta, omega=omega, T=T)
    oversampling = T * omega * np.e
    if oversampling >= 1.0:
        raise ConditionError(f"T*omega*e = {oversampling:.6f} >= 1; supply an order or "
                             "sample faster")
    if oversampling == 0.0:
        raise ConditionError(f"T*omega*e underflows to 0 at T={T!r}, omega={omega!r}; "
                             "the order formula needs it above 0")
    if beta <= lam:
        return 0
    return max(0, int(guarded_ceil((np.log(lam) - np.log(beta)) / np.log(oversampling))))


def required_margin(rho, T: float, N, K: int):
    """Left index bound guaranteeing anchor samples: ceil(max(K, rho/T + N)).

    ``rho`` and ``N`` may be arrays, which broadcast to an int64 array of
    bounds; scalars give an int.
    """
    rho, N = np.asarray(rho), np.asarray(N)
    if np.any(rho < 0) or T <= 0 or np.any(N < 0) or K < 1:
        raise ConfigError("required_margin needs rho >= 0, T > 0, N >= 0, K >= 1")
    bound = np.maximum(K, guarded_ceil(rho / T + N)).astype(np.int64)
    return int(bound) if bound.ndim == 0 else bound


def samples_general(K: int, J: int, N: int) -> int:
    """Samples per angle needed by the general unfolder alongside a [-K, K] grid.

    The slope probe reads running sums at absolute offsets 1 and J+1 with the
    sums evaluated in place, so the raw window must reach index J+N+1 after N
    differences; with the leading index 0 that is J+N+2 samples.
    """
    return max(2 * K + 1, J + N + 2)


def samples_compact(K: int, K_prime: int) -> int:
    """Samples per angle needed by the compact-exceedance unfolder."""
    return max(2 * K + 1, K_prime + K + 1)


def cost_j(beta_grid: float, lam: float) -> int:
    """Slope-probe span J = 6*beta/lam (integer when beta is on the 2*lam grid)."""
    return int(round(6.0 * beta_grid / lam))


def _fold_residual_ints(values: np.ndarray, lam: float, N: int):
    """Integer fold-count residual ``m = rint(e0 / (2*lam))`` of the N-th
    difference ``d`` of a block of rows, with ``e0 = fold(d) - d``, placed
    right-aligned in a zeroed int64 block of the rows' shape; plus each snap
    error ``|e0 - 2*lam*m|``.  The steps after the fold run in place."""
    d = np.diff(values, n=N)
    e0 = modulo_fold(d, lam)
    e0 -= d
    m = np.divide(e0, 2.0 * lam, out=d)
    np.rint(m, out=m)
    counts = np.zeros(values.shape, dtype=np.int64)
    counts[:, N:] = m
    m *= 2.0 * lam
    e0 -= m
    return counts, np.abs(e0, out=e0)


def compact_counts(rows: np.ndarray, lam: float, N: int, start):
    """int64 fold counts of folded rows, row r starting at column ``start[r]``, and
    each row's largest snap error.  Residuals whose stencil reaches the padding
    left of ``start[r]`` are zeroed before the N running sums, so every row
    comes out as if unfolded on its own (with no row starting late there is
    no padding to mask)."""
    counts, dev = _fold_residual_ints(rows, lam, N)
    start = np.asarray(start)
    used = True
    if start.any():
        used = np.arange(dev.shape[1]) >= start[:, None]
        counts[:, N:][~used] = 0
    for _ in range(N):
        np.cumsum(counts, axis=1, out=counts)
    return counts, np.max(dev, axis=1, where=used, initial=0.0)


def unfold_compact(values: np.ndarray, base: int, lam: float, N: int, K: int):
    """Unfold one run of modulo samples of a signal with compact fold
    exceedance, folded at lam, at order N: ``values[i]`` at absolute index
    ``base + i``; returns the values over [-K, K] and the report.

    The run must open with a quiet left margin (no folds in its first N
    samples).  A convenience for tests: the program unfolds through
    :func:`unfold_sinogram` and :func:`compact_counts`, and the benchmark's
    patch table names this one-row call of their block core too.

    Raises
    ------
    MarginError
        If the window does not extend to -K on the left or K on the right
        (callers may retry with a larger margin).
    SizeError
        If fewer than N+1 samples are available.
    DomainError
        If a sample lies outside the folded range [-lam, lam).
    """
    out, [report] = _unfold_rows(np.asarray(values, dtype=float)[None, :], int(base), lam, N,
                                 None, int(K))
    return out[0], report


def unfold_sinogram(ms: Sinogram, N: int, K: int | None = None, *, mode: str = COMPACT,
                    beta: float | None = None):
    """Unfold every angle row of a folded sinogram at its threshold
    ``ms.params.lam`` and difference order N, in ``mode``.

    General mode raises an order of 0 to 1 and needs ``beta``, the amplitude
    bound on the 2*lam grid, for its slope probe; compact mode does not use
    ``beta``.  Returns a sinogram over the symmetric [-K, K] grid, whose
    params carry the order used, together with the per-row reports.

    Raises
    ------
    ConfigError
        If beta is given but not positive and finite, if the mode is
        unknown, if general mode lacks a beta on the 2*lam grid, if N is
        negative, or if K is below 1.
    DomainError
        If a sample lies outside the folded range [-lam, lam), or, in general
        mode, if [-K, K] is not inside the stored window.
    MarginError
        In compact mode, if the stored window stops short of -K or K.
    SizeError
        If the rows are too short for the difference order, or, in general
        mode, for the slope probe (end index J+N-1).
    """
    p = ms.params
    check_positive(beta=beta)
    if mode == COMPACT:
        beta = None
    elif mode != GENERAL:
        raise ConfigError(f"unknown mode {mode!r}")
    elif beta is None or abs(beta / (2.0 * p.lam) - round(beta / (2.0 * p.lam))) > 1e-9:
        raise ConfigError(f"general mode requires beta on the 2*lam grid; got {beta}")
    if N < 0:
        raise ConfigError("order must be >= 0")
    N = int(N) if beta is None else max(1, int(N))
    K = p.K if K is None else int(K)
    out, reports = _unfold_rows(ms.rows, ms.base_index, p.lam, N, beta, K)
    return Sinogram(replace(p, K_prime=K, K=K, N=N), out), reports


def _unfold_rows(rows: np.ndarray, base: int, lam: float, N: int, beta: float | None, K: int):
    """Unfold folded rows that each cover absolute indices [base, base+width-1]
    onto [-K, K] at threshold lam and order N, in compact mode for
    ``beta=None``: the window is checked once, then ``_UNFOLD_ROWS`` rows at
    a time go through :func:`_unfold_block`, one block per thread
    (:func:`~modradon.core.map_blocks`).  Returns the (rows, 2K+1) result and
    one report per row, in row order; a bad sample raises the error of the
    first block, in row order, that holds one."""
    check_counts(K=K)
    width = rows.shape[1]
    end = base + width - 1
    J = None
    if beta is None:
        if base > -K:
            raise MarginError(f"left margin too small: base {base} > {-K}; enlarge K_prime")
        if end < K:
            raise MarginError(f"window ends at {end}, needs to reach {K}")
        if N > 0 and width <= N:
            raise SizeError(f"need more than {N} samples, got {width}")
    else:
        J = cost_j(beta, lam)
        if end < J + N - 1:
            raise SizeError(f"window too short: need end index >= {J + N - 1}, got {end}")
        if base > -K or end < K:
            raise DomainError(f"window [{-K}, {K}] outside [{base}, {end}]")
    bound = lam * (1.0 + 1e-12)
    out = np.empty((rows.shape[0], 2 * K + 1))

    def one_block(r0):
        block = rows[r0 : r0 + _UNFOLD_ROWS]
        if not (np.max(block) <= bound and np.min(block) >= -bound):  # NaN fails both
            raise DomainError("folded values must lie within [-lam, lam)")
        out[r0 : r0 + _UNFOLD_ROWS], reports = _unfold_block(block, base, lam, N, beta, J, K)
        return reports

    blocks = map_blocks(one_block, range(0, rows.shape[0], _UNFOLD_ROWS))
    return out, [r for reports in blocks for r in reports]


def _unfold_block(rows: np.ndarray, base: int, lam: float, N: int, beta: float | None,
                  J: int | None, K: int):
    """The [-K, K] columns of a block of checked folded rows, unfolded at order
    N, and one report per row; compact mode for ``beta=None``.

    Both modes integrate the fold counts of the N-th difference back N times
    with in-place int64 running sums over one right-aligned block.  General
    mode anchors each sum at index 0, and after each but the last a slope
    probe at offsets 1 and J+1 fixes each row's unknown linear drift (kappa);
    the final additive constant is removed by the settled tail value.  The
    tail plateau check fails (success=False) when the last max(8, N) running
    sums disagree, which signals unreliable recovery.
    """
    cols = slice(-K - base, K - base + 1)
    if N == 0:
        return rows[:, cols], [UnfoldReport(0, None, 0.0, True) for _ in rows]
    if beta is None:
        counts, residual = compact_counts(rows, lam, N, np.zeros(len(rows), dtype=int))
        reports = [UnfoldReport(N, None, float(r), bool(r < 1e-9 * lam)) for r in residual]
    else:
        counts, dev = _fold_residual_ints(rows, lam, N)
        for i in range(1, N):
            np.cumsum(counts, axis=1, out=counts)
            # the i-th sum covers [base, base+width-N+i); anchored at index 0,
            # its own running sum is 0 at offset 1 and sum(u[0..J]) at offset
            # J+1; 0.0 - vj keeps the sign of a zero
            u = counts[:, N - i :]
            u -= u[:, -base, None]
            vj = 2.0 * lam * np.sum(u[:, -base : J + 1 - base], axis=1)
            kappa = guarded_floor((0.0 - vj) / (12.0 * beta) + 0.5).astype(np.int64)
            u += kappa[:, None]
        # the last sum's constant is taken out by the tail value below
        np.cumsum(counts, axis=1, out=counts)
        tail = counts[:, -max(8, N) :]
        plateau_ok = np.all(tail == tail[:, -1:], axis=1)
        counts -= counts[:, -1:]
        reports = [UnfoldReport(N, J, float(r), bool(ok and r < 1e-9 * lam),
                                tail_plateau_ok=bool(ok))
                   for r, ok in zip(np.max(dev, axis=1), plateau_ok)]
    return rows[:, cols] + (2.0 * lam) * counts[:, cols], reports
