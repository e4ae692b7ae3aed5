"""Batch experiment harness: end-to-end pipeline runs, Monte-Carlo success
sweeps over the sampling-rate grid, and the sampling-rate-halving demo.

Every entry point is deterministic given its configuration and seed; CSV
output uses shortest round-trip float formatting so reruns are byte-identical.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .core import guarded_ceil, modulo_fold, sup_norm, usable_cpus
from .errors import (
    ConfigError,
    MarginError,
    ParseError,
    SizeError,
    check_counts,
    check_indexable,
    check_positive,
    check_seed,
)
from .fbp import FilterSpec, fbp_reconstruct, rmse, write_pgm16, write_raw_f64
from .forward import (
    RandomBandlimitedSignal,
    SamplingParams,
    Sinogram,
    check_lattice,
    fold_sinogram,
    load_sinogram,
    phantom_rows,
    read_csv_rows,
    save_sinogram,
    scan_exceedance,
    scan_forward,  # unused here; bench/tracing.py's patch table names it
    scan_from_raw,
    support_index,
)
from .phantom import ImageGrid, rasterize
from .unfold import (
    compact_counts,
    cost_j,
    grid_upper_bound,
    required_margin,
    samples_compact,
    samples_general,
    select_order,
    unfold_compact,  # unused here; bench/tracing.py's patch table names it
    unfold_sinogram,
    write_unfold_reports,
)

METRICS_HEADER = (
    "tag,omega,T,M,K,K_prime,lam,beta,beta_grid,N,J,"
    "extra_samples_compact,extra_samples_general,sino_parity_max,image_parity_max,"
    "images_bit_identical,rmse_clean,rmse_recovered,success"
)
#: Largest sample error at which a synthetic recovery still counts as exact.
_SUCCESS_TOL = 1e-6


@dataclass
class PipelineResult:
    """What a pipeline run produced, for inspection and CSV export: the
    figures of the metrics CSV, the clean sinogram over [-K', K], the
    unfolded one over [-K, K], both reconstructions and the per-row unfold
    reports.  The folded measurement is not kept: it is
    ``fold_sinogram(res.clean)``, which folds deterministically to the same
    bits."""

    tag: str
    params: SamplingParams
    beta_grid: float
    N: int
    J: int
    extra_samples_compact: int
    extra_samples_general: int
    sino_parity_max: float
    image_parity_max: float
    images_bit_identical: bool
    rmse_clean: float | None
    rmse_recovered: float | None
    success: bool
    clean: Sinogram = field(repr=False, default=None)
    unfolded: Sinogram = field(repr=False, default=None)
    image_clean: ImageGrid = field(repr=False, default=None)
    image_recovered: ImageGrid = field(repr=False, default=None)
    reports: list = field(repr=False, default=None)

    def to_csv_row(self) -> str:
        p = self.params

        def opt(v):
            return "" if v is None else repr(v)

        return ",".join([
            self.tag, repr(p.omega), repr(p.T), str(p.M), str(p.K), str(p.K_prime),
            repr(p.lam), opt(p.beta), repr(self.beta_grid), str(self.N), str(self.J),
            str(self.extra_samples_compact), str(self.extra_samples_general),
            repr(self.sino_parity_max), repr(self.image_parity_max),
            str(int(self.images_bit_identical)), opt(self.rmse_clean), opt(self.rmse_recovered),
            str(int(self.success)),
        ])


def _scan_with_clear_tail(raw, omega, T, lam, K):
    """Scan the raw rows, widening the window until the exceedance region closes.

    The first window reaches radius 4, or index K if that lies further out;
    the radius doubles up to 32.  Every window reaches K, so its rows are
    stored over [-k_scan, K], which holds every acquisition window [-K', K]
    with K' <= k_scan.  Past radius 32 it raises :class:`MarginError`.  The
    FFT length of this scan, and so every bit of the clean sinogram, depends
    on its radius, and the recorded benchmark digests pin this schedule.
    """
    radius = max(4.0, K * T)
    while radius <= 32.0:
        scan = scan_from_raw(raw, omega, T, radius=radius, K=K)
        try:
            return scan, scan.exceedance_index(lam)
        except MarginError:
            radius *= 2.0
    raise MarginError(f"no scan window within |t| <= 32 reaches index {K} and "
                      f"bounds the samples at or above lam={lam}")


def prepare_forward(source, *, lam: float, omega: float,
                    t_frac: float = 0.5, T: float | None = None, M: int | None = None,
                    K: int | None = None, normalize: bool = False) -> tuple[Sinogram, float]:
    """Resolve parameters, scan the tails, and cut out the acquisition window.

    ``source`` is either a :class:`Phantom` (analytic forward model) or a raw
    :class:`Sinogram` of measured projection samples (e.g. from ingest), which
    is band-limited the same way.  With ``normalize=True`` the raw samples are
    scaled to unit sup-norm before the anti-aliasing filter (the convention
    for measured datasets).  ``t_frac`` does not apply to a sinogram source,
    which brings its own T.  A value that is not positive and finite, a
    count below 1, a ``T`` that differs from a sinogram source's, a raw row,
    the M raw rows or a scan window too long for numpy to index, or an
    all-zero source to normalize raises :class:`ConfigError`, and an ``M``
    that differs from a sinogram source's angle count raises
    :class:`SizeError`, before anything is scanned; M rows of a scan window
    too long to index raise :class:`ConfigError` before that scan allocates.

    The order N is 0 when no sample can fold (beta and every filtered
    sample below lam), else :func:`select_order` of beta rounded up to the
    2*lam grid.  The margin is measured, not set: K' =
    ``required_margin(rho, T, N, K)`` from the scan's exceedance radius rho
    and N; a K' past the scanned window raises :class:`MarginError`, which
    names N, the exceedance index and the ways out.  Returns the clean sinogram
    over [-K', K], whose params carry beta, rho and N, and the normalisation
    scale (1.0 without ``normalize``).
    """
    check_positive(lam=lam, t_frac=t_frac, omega=omega, T=T)
    check_counts(M=M, K=K)
    if isinstance(source, Sinogram):
        sp = source.params
        M = sp.M if M is None else M
        K = sp.K if K is None else K
        if M != sp.M:
            raise SizeError(f"angle count mismatch: {M} != {sp.M}")
        if T is not None and T != sp.T:
            raise ConfigError(f"sample spacing mismatch: T={T!r} given, the sinogram's "
                              f"T={sp.T!r}")
        T = sp.T
        raw = source.symmetric_rows().copy()
    else:
        if T is None:
            T = t_frac / (omega * np.e)
            spacing, reach = f"t_frac={t_frac!r} at omega={omega!r}", omega * np.e / t_frac
        else:
            spacing, reach = f"T={T!r}", 1.0 / T
        # a raw row covers |t| <= 1; a derived T may underflow to 0
        check_lattice(f"{spacing} samples too finely", "a raw row", reach)
        if K is None:
            K = support_index(T)
        if M is None:
            M = int(round(omega))
        # T and M may have been derived from t_frac and omega
        check_positive(T=T)
        check_counts(M=M)
        raw = phantom_rows(source, T, M)
    norm_scale = 1.0
    if normalize:
        norm_scale = sup_norm(raw)
        if norm_scale == 0.0:
            raise ConfigError("all raw samples are zero; cannot normalize")
        raw /= norm_scale
    scan, kstar = _scan_with_clear_tail(raw, omega, T, lam, K)
    beta = sup_norm(raw)
    del raw  # freed before the window is copied out of the scan
    # order 0 exactly where no sample can fold: beta and every filtered sample
    # (the prefilter can overshoot beta) below lam; otherwise the order of
    # beta rounded up to the 2*lam grid, which is at least 2*lam
    quiet = beta <= lam and sup_norm(scan.peak) < lam
    N = select_order(lam, beta if quiet else grid_upper_bound(beta, lam), omega, T)
    rho = kstar * T
    K_prime = required_margin(rho, T, N, K)
    if K_prime > scan.k_scan:
        finer = ("rows sampled at a finer T" if isinstance(source, Sinogram)
                 else "a smaller t_frac")
        raise MarginError(f"margin K'={K_prime} (order N={N}, exceedance index {kstar}) "
                          f"exceeds the scanned range [-{scan.k_scan}, {scan.k_scan}]; "
                          f"use {finer} or a larger lam")
    params = SamplingParams(omega=omega, T=T, lam=lam, K=K, K_prime=K_prime, M=M,
                            beta=beta, rho=rho, N=N)
    lo = scan.k_scan - K_prime
    return Sinogram(params, scan.rows[:, lo : lo + K_prime + K + 1].copy()), norm_scale


def run_pipeline(source, *, lam: float, omega: float, t_frac: float = 0.5,
                 T: float | None = None, M: int | None = None, K: int | None = None,
                 filter_window: str = "cosine", grid_size: int = 256,
                 normalize: bool = False, outdir: str | None = None,
                 tag: str = "pipeline") -> PipelineResult:
    """End-to-end run: forward model, fold, unfold, and both reconstructions.

    A bad reconstruction setting (window, grid size, bandwidth) raises before
    the forward model runs.  Once the clean sinogram is cut out (and a
    phantom rasterised for the RMSE reference), ``source`` is dropped, so a
    sinogram the caller holds no reference to is freed before the fold.  The
    folded rows live only until they are unfolded; ``outdir`` output folds
    the clean rows again for ``{tag}_modulo.mrts``."""
    grid = ImageGrid(grid_size, grid_size)
    spec = FilterSpec(omega, filter_window)
    clean, norm_scale = prepare_forward(source, lam=lam, omega=omega, t_frac=t_frac, T=T,
                                        M=M, K=K, normalize=normalize)
    truth = None if isinstance(source, Sinogram) else rasterize(source, grid)
    del source
    params = clean.params
    K, K_prime, N = params.K, params.K_prime, params.N
    beta_grid = grid_upper_bound(params.beta, params.lam)
    unfolded, reports = unfold_sinogram(fold_sinogram(clean), N, K)

    # an exact recovery has the bits of the clean [-K, K] block (compared as uint64,
    # so that -0.0 differs from +0.0), hence a parity of 0.0 and the clean image's pixels
    sym = clean.symmetric_rows()
    exact = np.array_equal(unfolded.rows.view(np.uint64), sym.view(np.uint64))
    sino_parity = 0.0 if exact else float(np.max(np.abs(unfolded.rows - sym)))
    img_clean = fbp_reconstruct(clean, spec, grid)
    if exact:
        img_recovered = ImageGrid(grid.width, grid.height, img_clean.pixels.copy())
    else:
        img_recovered = fbp_reconstruct(unfolded, spec, grid)
    image_parity = float(np.max(np.abs(img_clean.pixels - img_recovered.pixels)))
    bit_identical = bool(np.array_equal(img_clean.pixels, img_recovered.pixels))

    rmse_clean = rmse_recovered = None
    if truth is not None:
        ref = ImageGrid(grid.width, grid.height, truth.pixels / norm_scale)
        rmse_clean = rmse(img_clean, ref)
        rmse_recovered = rmse(img_recovered, ref)

    J = cost_j(beta_grid, params.lam)
    res = PipelineResult(
        tag=tag, params=params, beta_grid=beta_grid, N=N, J=J,
        extra_samples_compact=samples_compact(K, K_prime) - (2 * K + 1),
        extra_samples_general=samples_general(K, J, N) - (2 * K + 1),
        sino_parity_max=sino_parity, image_parity_max=image_parity,
        images_bit_identical=bit_identical, rmse_clean=rmse_clean, rmse_recovered=rmse_recovered,
        success=bool(all(r.success for r in reports) and sino_parity < 1e-9),
        clean=clean, unfolded=unfolded,
        image_clean=img_clean, image_recovered=img_recovered, reports=reports,
    )
    if outdir:
        _write_pipeline_outputs(res, outdir)
    return res


def _write_pipeline_outputs(res: PipelineResult, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    tag = res.tag
    save_sinogram(res.clean, os.path.join(outdir, f"{tag}_sinogram.mrts"))
    save_sinogram(fold_sinogram(res.clean), os.path.join(outdir, f"{tag}_modulo.mrts"))
    save_sinogram(res.unfolded, os.path.join(outdir, f"{tag}_unfolded.mrts"))
    for name, img in (("fbp_clean", res.image_clean),
                      ("fbp_recovered", res.image_recovered)):
        write_pgm16(img, os.path.join(outdir, f"{tag}_{name}.pgm"))
        write_raw_f64(img, os.path.join(outdir, f"{tag}_{name}.f64"))
    with open(os.path.join(outdir, f"{tag}_metrics.csv"), "w") as f:
        f.write(METRICS_HEADER + "\n" + res.to_csv_row() + "\n")
    write_unfold_reports(res.reports, os.path.join(outdir, f"{tag}_unfold_reports.csv"))


def base_order(lam: float, omega: float) -> int:
    """Difference order anchored at twice the guaranteed-recovery spacing."""
    t_us = 1.0 / (omega * np.e)
    return int(guarded_ceil(np.log(lam) / np.log(0.5 * t_us * omega * np.e)))


@dataclass
class SweepCell:
    """Success rates for one (lam, omega) cell of the sampling-rate sweep."""

    lam: float
    omega: float
    t_over_shannon: np.ndarray
    orders: tuple
    rates: np.ndarray            # shape (len(t), len(orders))
    rates_smooth3: np.ndarray    # centered 3-point median of each order curve

    def to_csv(self) -> str:
        lines = [
            f"# modradon-success lam={self.lam!r} omega={self.omega!r} "
            f"orders={','.join(str(n) for n in self.orders)}",
            "t_over_shannon,order,success_rate,success_rate_smooth3",
        ]
        for it, tf in enumerate(self.t_over_shannon):
            for iN, n in enumerate(self.orders):
                lines.append(
                    f"{float(tf)!r},{n},{float(self.rates[it, iN])!r},"
                    f"{float(self.rates_smooth3[it, iN])!r}"
                )
        return "\n".join(lines) + "\n"


def _median3(r: np.ndarray) -> np.ndarray:
    """Centered 3-point median along the first axis, as ``np.median`` of each
    window ``r[i-1 : i+2]``: the middle of three values inside the series,
    the mean of the two values at each end, and a one-value series itself."""
    out = r.copy()
    if len(r) > 1:
        a, b, c = r[:-2], r[1:-1], r[2:]
        out[1:-1] = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
        out[0] = (r[0] + r[1]) / 2.0
        out[-1] = (r[-2] + r[-1]) / 2.0
    return out


def _recover(sigs, T: float, lams, orders_per_lam):
    """Yield per threshold ``lams[j]``: the window block of the signals sampled
    at spacing ``T``, that block folded at ``lams[j]``, and the |error| over
    [-K, K] of each signal unfolded at each order of ``orders_per_lam[j]``,
    shape (orders, signals, 2K+1).  Callers reduce the errors to what they
    report.

    Each signal is sampled once for every threshold, over the window that
    :func:`~modradon.forward.scan_exceedance` certifies; a head left of that
    window is sampled only where a margin reaches past it.  Each threshold's
    windows ``[-K'(max order), K]`` are sliced from it and right-aligned in
    one zero-padded block: one fold, one :func:`compact_counts` per order."""
    K = support_index(T)
    margins, lattices = [], []
    for sig, (kstars, lo, values) in zip(sigs, scan_exceedance(sigs, T, lams)):
        # (thresholds, orders) margins of this signal
        margins.append(required_margin(np.multiply(kstars, T)[:, None], T,
                                       np.array(orders_per_lam), K))
        k_lo = -int(np.max(margins[-1]))
        if k_lo < lo:
            values = np.concatenate([sig.sample(np.arange(k_lo, lo) * T), values])
            lo = k_lo
        lattices.append((lo, values))
    for j, (lam, orders) in enumerate(zip(lams, orders_per_lam)):
        m = np.array([per_lam[j] for per_lam in margins])
        width = K + 1 + np.max(m)
        wide = np.zeros((len(sigs), width))
        for row, m_lo, (lo, values) in zip(wide, np.max(m, axis=1), lattices):
            row[width - (K + 1 + m_lo) :] = values[-m_lo - lo : K - lo + 1]
        folded = modulo_fold(wide, lam)
        sym = slice(width - (2 * K + 1), width)
        err = np.empty((len(orders), len(sigs), 2 * K + 1))
        for i, N in enumerate(orders):
            counts, _ = compact_counts(folded, lam, N, width - (m[:, i] + K + 1))
            err[i] = np.abs(folded[:, sym] + (2.0 * lam) * counts[:, sym] - wide[:, sym])
        yield wide, folded, err


def _sweep_orders(lam: float, omega: float) -> tuple:
    nb = base_order(lam, omega)
    return (nb, 2 * nb, 3 * nb)


def _sweep_hits(args) -> np.ndarray:
    """Exact recoveries of one bandwidth's trial range at every threshold, rate
    step and order: int64 counts, shape (thresholds, rate steps, 3)."""
    lams, omega, ts, trials, seed = args
    orders = [_sweep_orders(lam, omega) for lam in lams]
    sigs = [RandomBandlimitedSignal.draw(omega, np.random.SeedSequence([seed, trial]))
            for trial in trials]
    hits = np.zeros((len(lams), ts.size, 3), dtype=np.int64)
    for it, T in enumerate(ts):
        for j, (_, _, err) in enumerate(_recover(sigs, T, lams, orders)):
            hits[j, it] = np.count_nonzero(np.max(err, axis=2) < _SUCCESS_TOL, axis=1)
    return hits


def success_sweep(*, lams=(0.1, 0.05), omegas=(10 * np.pi, 20 * np.pi, 30 * np.pi),
                  trials: int = 1000, tsteps: int = 100, seed: int = 42, workers: int = 1,
                  outdir: str | None = None) -> list[SweepCell]:
    """Success-rate grid over sampling rates from the guaranteed spacing to the
    Nyquist spacing, for three difference orders per (lam, omega) cell.

    Per-trial signals come from PCG64 streams seeded by (seed, trial).  A job
    is one bandwidth's range of trials and carries every threshold; with
    ``workers`` > 1 each bandwidth's trials are split into up to ``workers``
    ranges, whose integer hit counts sum exactly, so the cells do not depend
    on the worker count.  A threshold not in (0, 1), a bandwidth that is not
    positive and finite, whose Nyquist spacing is not finite, or whose
    support lattice (|t| <= 1 at the guaranteed spacing, which every sampled
    window holds) is too long for numpy to index, fewer than one trial, rate
    step or worker, more trials or rate steps than numpy can index, a
    negative seed, or two cells that would write one file in ``outdir``
    raise :class:`ConfigError` before any job runs.
    """
    for lam in lams:
        check_positive(lam=lam)
        if lam >= 1.0:
            # base_order would be 0 or negative
            raise ConfigError(f"lam must be below 1, got {lam}")
    for om in omegas:
        check_positive(omega=om)
        check_positive(T=np.pi / om)  # the Nyquist spacing, infinite for a tiny omega
        # 1/T at T = 1/(omega*e)
        check_lattice(f"omega={om / np.pi!r}pi is too large", "the support lattice",
                      om * np.e)
    check_counts(trials=trials, tsteps=tsteps, workers=workers)
    check_indexable(trials=trials, tsteps=tsteps)
    check_seed(seed)
    keys = [(lam, om) for lam in lams for om in omegas]
    names = [f"success_lam{lam:g}_omega{om / np.pi:g}pi.csv" for lam, om in keys]
    dup = [name for name in names if names.count(name) > 1]
    if outdir and dup:
        (lam0, om0), (lam, om) = [k for k, name in zip(keys, names) if name == dup[0]][:2]
        raise ConfigError(f"cells lam={lam0!r} omega={om0 / np.pi!r}pi and lam={lam!r} "
                          f"omega={om / np.pi!r}pi would both write {dup[0]}")
    # rate grids from the guaranteed spacing 1/(omega*e) to the Nyquist spacing
    ts = {om: np.linspace(1.0 / (om * np.e), np.pi / om, tsteps) for om in omegas}
    n = min(workers, trials)
    ranges = [range(trials * i // n, trials * (i + 1) // n) for i in range(n)]
    jobs = [(lams, om, ts[om], r, seed) for om in omegas for r in ranges]
    if workers > 1:
        # a fork start method forks every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs), usable_cpus())) as pool:
            hits = list(pool.map(_sweep_hits, jobs))
    else:
        hits = [_sweep_hits(j) for j in jobs]
    hits = np.sum(np.reshape(hits, (len(omegas), n, len(lams), tsteps, 3)), axis=1)
    cells = []
    for (lam, om), h in zip(keys, hits.swapaxes(0, 1).reshape(-1, tsteps, 3)):
        rates = h / float(trials)
        cells.append(SweepCell(lam, om, ts[om] / (np.pi / om), _sweep_orders(lam, om),
                               rates, _median3(rates)))
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        for name, cell in zip(names, cells):
            with open(os.path.join(outdir, name), "w") as f:
                f.write(cell.to_csv())
    return cells


@dataclass
class DemoAttempt:
    stage: str
    T: float
    order: int
    fold_count: int
    mse: float
    max_err: float
    success: bool

    CSV_HEADER = "stage,T,order,fold_count,mse,max_err,success"

    def to_csv_line(self) -> str:
        return (f"{self.stage},{self.T!r},{self.order},{self.fold_count},"
                f"{self.mse!r},{self.max_err!r},{int(self.success)}")


def downsample_demo(*, omega: float = 10 * np.pi, lam: float = 0.1, seed: int = 0,
                    t0_frac: float = 0.5, factor: int = 2,
                    outdir: str | None = None) -> list[DemoAttempt]:
    """Sampling-rate-halving demonstration on a synthetic folded row.

    At the base rate a first-order recovery succeeds; after downsampling by
    ``factor`` the first differences exceed the fold threshold and order 1
    fails, while order 2 recovers the samples exactly.  A parameter that is
    not positive and finite, a negative seed, a downsampled spacing that is
    not finite, or a base spacing whose support lattice (|t| <= 1, which
    every sampled window holds) is too long for numpy to index, raises
    :class:`ConfigError`.
    """
    check_positive(omega=omega, lam=lam, t0_frac=t0_frac, factor=factor)
    check_seed(seed)
    check_lattice(f"omega={omega!r} with t0_frac={t0_frac!r} samples too finely",
                  "the support lattice", omega * np.e / t0_frac)
    t0 = t0_frac / (omega * np.e)
    check_positive(T=factor * t0)  # infinite for a tiny omega or a huge t0_frac
    sig = RandomBandlimitedSignal.draw(omega, np.random.SeedSequence(seed))
    attempts = []
    for stage, T, N in (("base_rate", t0, 1), ("downsampled", factor * t0, 1),
                        ("downsampled", factor * t0, 2)):
        [(wide, folded, [[err]])] = _recover([sig], T, (lam,), ((N,),))
        max_err = np.max(err)
        folds = np.count_nonzero(folded != wide)  # the zero padding never folds
        attempts.append(DemoAttempt(stage, T, N, folds, float(np.mean(err**2)),
                                    float(max_err), bool(max_err < _SUCCESS_TOL)))
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "downsample_demo.csv"), "w") as f:
            f.write(DemoAttempt.CSV_HEADER + "\n")
            for a in attempts:
                f.write(a.to_csv_line() + "\n")
    return attempts


def ingest_raw_csv(path: str, *, omega: float, T: float, M: int, K: int, lam: float,
                   normalize: bool = True) -> Sinogram:
    """Read raw projection samples: a plain CSV (M rows, 2K+1 columns) or the
    [-K, K] block of a ``.mrts`` sinogram.

    With ``normalize=True`` the data is scaled to unit sup-norm.  Malformed
    input, a ``.mrts`` source whose header T, M or K differs from the one
    given, and all-zero input that cannot be normalized, raise
    :class:`ParseError`; CSV errors name the offending row and column.
    """
    params = SamplingParams(omega=omega, T=T, lam=lam, K=K, K_prime=K, M=M)
    if str(path).endswith(".mrts"):
        src = load_sinogram(path)
        sp = src.params
        if sp.T != T:
            raise ParseError(f"{path}: header T={sp.T!r} differs from the given T={T!r}")
        if (sp.M, sp.K) != (M, K):
            raise ParseError(f"{path}: header M={sp.M}, K={sp.K} differs from the given "
                             f"M={M}, K={K}")
        rows = src.symmetric_rows().copy()
    else:
        with open(path, errors="replace") as f:
            rows = read_csv_rows(f, path, M, 2 * K + 1, 1)
    beta = sup_norm(rows)
    if normalize:
        if beta == 0.0:
            raise ParseError(f"{path}: all samples are zero; cannot normalize")
        rows /= beta
        beta = 1.0  # x/x == 1, and rounding is monotonic: no |y| <= x divides to more
    return Sinogram(replace(params, beta=beta), rows)

