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


@dataclass(frozen=True)
class UnfoldConfig:
    """Inputs of the unfolding algorithms.

    Parameters
    ----------
    lam : float
        Fold threshold.
    beta : float
        Uniform amplitude bound for the unfolded signal.  In general mode it
        must be an even multiple of lam.
    omega : float
        Signal bandwidth.
    T : float
        Sample spacing.
    mode : str
        ``"general"`` or ``"compact_exceedance"``.
    order_override : int, optional
        Difference order to use instead of the one derived from the bound.
    """

    lam: float
    beta: float
    omega: float
    T: float
    mode: str = COMPACT
    order_override: int | None = None

    def __post_init__(self):
        check_positive(lam=self.lam, beta=self.beta, omega=self.omega, T=self.T)
        if self.mode not in (GENERAL, COMPACT):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == GENERAL:
            grid = 2.0 * self.lam
            if abs(self.beta / grid - round(self.beta / grid)) > 1e-9:
                raise ConfigError(
                    f"general mode requires beta on the 2*lam grid; got {self.beta}"
                )
        if self.order_override is not None and self.order_override < 0:
            raise ConfigError("order_override must be >= 0")

    @property
    def oversampling(self) -> float:
        return self.T * self.omega * np.e


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


def select_order(cfg: UnfoldConfig) -> int:
    """Difference order from the amplitude bound: ceil(log(lam/beta)/log(T*omega*e)).

    General mode clamps the order below at 1; compact mode at 0, where order 0
    short-circuits to the identity (no sample can fold when beta <= lam).

    Raises
    ------
    ConditionError
        If T*omega*e >= 1 and no override is given (the formula is
        meaningless without oversampling).
    """
    if cfg.order_override is not None:
        return int(cfg.order_override)
    if cfg.oversampling >= 1.0:
        raise ConditionError(
            f"T*omega*e = {cfg.oversampling:.6f} >= 1; supply order_override or sample faster"
        )
    floor_n = 1 if cfg.mode == GENERAL else 0
    if cfg.beta <= cfg.lam:
        return floor_n
    n = int(guarded_ceil((np.log(cfg.lam) - np.log(cfg.beta)) / np.log(cfg.oversampling)))
    return max(floor_n, n)


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


def unfold_compact(values: np.ndarray, base: int, cfg: UnfoldConfig, K: int):
    """Unfold one run of modulo samples of a signal with compact fold
    exceedance, ``values[i]`` at absolute index ``base + i``; returns the
    values over [-K, K] and the report.

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
    if cfg.mode != COMPACT:
        raise ConfigError("unfold_compact requires a compact-exceedance config")
    K = int(K)
    out, [report] = _unfold_rows(np.asarray(values, dtype=float)[None, :], int(base), cfg, K)
    return out[0], report


def unfold_sinogram(ms: Sinogram, cfg: UnfoldConfig, K: int | None = None):
    """Unfold every angle row of a folded sinogram, routed by ``cfg.mode``.

    Returns a sinogram over the symmetric [-K, K] grid together with the
    per-row reports.

    Raises
    ------
    DomainError
        If a sample lies outside the folded range [-lam, lam), or, in general
        mode, if [-K, K] is not inside the stored window.
    ConfigError
        If K is below 1.
    MarginError
        In compact mode, if the stored window stops short of -K or K.
    SizeError
        If the rows are too short for the difference order, or, in general
        mode, for the slope probe (end index J+N-1).
    """
    p = ms.params
    K = p.K if K is None else int(K)
    out, reports = _unfold_rows(ms.rows, ms.base_index, cfg, K)
    params_out = replace(p, K_prime=K, K=K, N=reports[0].n_used)
    return Sinogram(params_out, out), reports


def _unfold_rows(rows: np.ndarray, base: int, cfg: UnfoldConfig, K: int):
    """Unfold folded rows that each cover absolute indices [base, base+width-1]
    onto [-K, K]: the window is checked once, then ``_UNFOLD_ROWS`` rows at a
    time go through :func:`_unfold_block`, one block per thread
    (:func:`~modradon.core.map_blocks`).  Returns the (rows, 2K+1) result and
    one report per row, in row order; a bad sample raises the error of the
    first block, in row order, that holds one."""
    check_counts(K=K)
    width = rows.shape[1]
    end = base + width - 1
    J = None
    if cfg.mode == COMPACT:
        if base > -K:
            raise MarginError(f"left margin too small: base {base} > {-K}; enlarge K_prime")
        if end < K:
            raise MarginError(f"window ends at {end}, needs to reach {K}")
        N = select_order(cfg)
        if N > 0 and width <= N:
            raise SizeError(f"need more than {N} samples, got {width}")
    else:
        N = max(1, select_order(cfg))
        J = cost_j(cfg.beta, cfg.lam)
        if end < J + N - 1:
            raise SizeError(f"window too short: need end index >= {J + N - 1}, got {end}")
        if base > -K or end < K:
            raise DomainError(f"window [{-K}, {K}] outside [{base}, {end}]")
    bound = cfg.lam * (1.0 + 1e-12)
    out = np.empty((rows.shape[0], 2 * K + 1))

    def one_block(r0):
        block = rows[r0 : r0 + _UNFOLD_ROWS]
        if not (np.max(block) <= bound and np.min(block) >= -bound):  # NaN fails both
            raise DomainError("folded values must lie within [-lam, lam)")
        out[r0 : r0 + _UNFOLD_ROWS], reports = _unfold_block(block, base, cfg, N, J, K)
        return reports

    blocks = map_blocks(one_block, range(0, rows.shape[0], _UNFOLD_ROWS))
    return out, [r for reports in blocks for r in reports]


def _unfold_block(rows: np.ndarray, base: int, cfg: UnfoldConfig, N: int, J: int | None,
                  K: int):
    """The [-K, K] columns of a block of checked folded rows, unfolded at order
    N, and one report per row.

    Both modes integrate the fold counts of the N-th difference back N times
    with in-place int64 running sums over one right-aligned block.  General
    mode anchors each sum at index 0, and after each but the last a slope
    probe at offsets 1 and J+1 fixes each row's unknown linear drift (kappa);
    the final additive constant is removed by the settled tail value.  The
    tail plateau check fails (success=False) when the last max(8, N) running
    sums disagree, which signals unreliable recovery.
    """
    lam = cfg.lam
    cols = slice(-K - base, K - base + 1)
    if N == 0:
        return rows[:, cols], [UnfoldReport(0, None, 0.0, True) for _ in rows]
    if cfg.mode == COMPACT:
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
            kappa = guarded_floor((0.0 - vj) / (12.0 * cfg.beta) + 0.5).astype(np.int64)
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
