"""Independent oracles used by the test suite.

These deliberately avoid the closed forms under test: line integrals come from
scanning the implicit quadric along the ray and refining the crossings by
bisection; filter kernels come from brute trapezoid quadrature of the inverse
transform; row convolutions are one ``scipy.signal.fftconvolve`` over all rows;
back projection is the plain per-angle loop over the whole image, and
reconstruction feeds it the filtered rows.
A phantom's line integrals are taken one angle at a time, each ellipse a masked
gather and scatter of its chord formula over every offset, and rasterization
tests every ellipse on every pixel.
The clear-band exceedance index reads each column's maximum and minimum.
The sweep sampler is the two-call-per-level sine-integral loop; the sweep cell
and the downsample demo scan for the exceedance, evaluate each window a second
time and unfold one row at a time, and the cell smooths its rates with one
``np.median`` per three-point window.  The sinogram unfold copies each angle row
into its own run and unfolds it on its own, with the general-mode unfolder
that preceded the block core and its running sums, ``anti_diff`` and
``anti_diff_bilateral``, each of which returns a new array; the compact
counts core is likewise taken one row at a time from its start column.
Rounding onto the 2*lam grid, the band-limit energy check, the raw image
reader, the standard parameter choice, the acquisition window cut from the
scan of raw rows and the lattice sampling helper serve the tests as
references only.
The CSV row reader parses one cell at a time with ``float()``.
"""

import os
from dataclasses import replace

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import sici

from modradon.core import guarded_ceil, guarded_floor, modulo_fold
from modradon.errors import DomainError, MarginError, ParseError, SizeError
from modradon.experiments import _SUCCESS_TOL, DemoAttempt, SweepCell, base_order
from modradon.fbp import filter_projections
from modradon.forward import (
    RandomBandlimitedSignal,
    SamplingParams,
    Sinogram,
    scan_from_raw,
    support_index,
)
from modradon.phantom import ImageGrid, Phantom
from modradon.unfold import (
    COMPACT,
    GENERAL,
    UnfoldReport,
    compact_counts,
    cost_j,
    required_margin,
    unfold_compact,
)


def line_integral_oracle(ellipse, theta, t, step=1e-5, span=2.0, bisect_tol=1e-13):
    """Chord length of the ellipse along <x, theta> = t, by root bracketing.

    The ray is parameterized as x(s) = t*dir + s*perp; the signed implicit
    value of the ellipse is scanned at the given step and every sign change is
    refined by bisection, which locates entry/exit points to bisect_tol.
    """
    ct, st = np.cos(theta), np.sin(theta)

    def implicit(s):
        x = t * ct - s * st
        y = t * st + s * ct
        cx, cy = ellipse.center
        a, b = ellipse.semi_axes
        c, sn = np.cos(ellipse.rotation), np.sin(ellipse.rotation)
        u = (x - cx) * c + (y - cy) * sn
        v = -(x - cx) * sn + (y - cy) * c
        return (u / a) ** 2 + (v / b) ** 2 - 1.0

    s = np.arange(-span, span + step, step)
    f = implicit(s)
    sign = f < 0.0
    flips = np.nonzero(sign[1:] != sign[:-1])[0]
    roots = []
    for i in flips:
        lo, hi = s[i], s[i + 1]
        flo = f[i]
        while hi - lo > bisect_tol:
            mid = 0.5 * (lo + hi)
            fm = implicit(np.array([mid]))[0]
            if (fm < 0.0) == (flo < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    total = 0.0
    for i in range(0, len(roots) - 1, 2):
        total += roots[i + 1] - roots[i]
    return ellipse.intensity * total


def radon_ellipse_oracle(e, theta, t):
    """Line integral of the ellipse's weighted indicator over <x, theta> = t,
    with the chord formula evaluated at every offset and kept where
    ``s**2 < r2``."""
    a, b = e.semi_axes
    cx, cy = e.center
    tt = np.asarray(t, dtype=float)
    r2 = a**2 * np.cos(theta - e.rotation) ** 2 + b**2 * np.sin(theta - e.rotation) ** 2
    s = tt - (cx * np.cos(theta) + cy * np.sin(theta))
    out = np.zeros_like(tt)
    inside = s**2 < r2
    out[inside] = 2.0 * e.intensity * a * b * np.sqrt(r2 - s[inside] ** 2) / r2
    if np.isscalar(t) or tt.ndim == 0:
        return float(out)
    return out


def radon_phantom_oracle(p: Phantom, theta, t):
    """``radon_phantom`` at one angle in [0, pi): :func:`radon_ellipse_oracle`
    of every ellipse added over the whole of ``t``."""
    tt = np.asarray(t, dtype=float)
    out = np.zeros_like(tt)
    for e in p.ellipses:
        out += radon_ellipse_oracle(e, theta, tt)
    return out


def rasterize_oracle(p: Phantom, grid: ImageGrid) -> np.ndarray:
    """The pixel array of ``rasterize``: every ellipse tested on every pixel."""
    X, Y = np.meshgrid(*grid.pixel_axes())
    img = np.zeros_like(X)
    for e in p.ellipses:
        img += np.where(e.contains(X, Y), e.intensity, 0.0)
    return img


def kernel_quadrature_oracle(omega, window_fn, t, n=2**16):
    """(1/pi) * int_0^omega w * W(w/omega) * cos(w t) dw by composite trapezoid."""
    w = np.linspace(0.0, omega, n + 1)
    g = w * window_fn(w / omega)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t.size)
    for i, ti in enumerate(t):
        out[i] = np.trapezoid(g * np.cos(w * ti), dx=omega / n)
    return out / np.pi


def convolve_rows_oracle(rows, kern, start, width):
    """``fftconvolve(rows[r], kern)[start : start + width]`` for every row, as one
    ``fftconvolve`` over all rows."""
    return fftconvolve(rows, kern[None, :], axes=1)[:, start : start + width]


def back_project_oracle(h, params, grid):
    """Plain per-pixel back projection of one filtered sinogram: the pixel array of
    ``T/(2M) * sum_m interp(h_m)(x . theta_m)``, zero outside the lattice.

    Angle m takes the (cos, sin) of its base angle b, negated or swapped by its
    class: b itself, the mirror M-b, and for even M the quarter turns M/2+b
    and M/2-b, each angle at its first appearance over ascending b.  Each class
    sums over ascending b, and the image is ``((A0 + A1) + A2) + A3``."""
    K, T, M = params.K, params.T, params.M
    X, Y = np.meshgrid(*grid.pixel_axes())
    classes = [np.zeros_like(X) for _ in range(4)]
    thetas = np.arange(M) * np.pi / M
    done = set()
    for b in range(M // 4 + 1 if M % 2 == 0 else M // 2 + 1):
        c, s = np.cos(thetas[b]), np.sin(thetas[b])
        angles = [(b, c, s), (M - b, -c, s)]
        if M % 2 == 0:
            angles += [(M // 2 + b, -s, c), (M // 2 - b, s, c)]
        for acc, (m, cm, sm) in zip(classes, angles):
            if m >= M or m in done:
                continue
            done.add(m)
            t = X * cm + Y * sm
            u = t / T + K
            inside = (u >= 0.0) & (u <= 2 * K)
            i0 = np.clip(np.floor(u).astype(np.int64), 0, 2 * K - 1)
            frac = u - i0
            row = h[m]
            vals = row[i0] * (1.0 - frac) + row[i0 + 1] * frac
            acc += np.where(inside, vals, 0.0)
    assert done == set(range(M))
    acc = ((classes[0] + classes[1]) + classes[2]) + classes[3]
    acc *= T / (2.0 * M)
    return acc


def fbp_oracle(s, spec, grid):
    """The pixel array of one sinogram's filtered rows, back-projected by
    :func:`back_project_oracle`."""
    return back_project_oracle(filter_projections(s, spec), s.params, grid)


def sample_oracle(sig, t):
    """``RandomBandlimitedSignal.sample`` with both sine integrals of every level
    evaluated on their own: 42 ``sici`` calls for the 21 levels."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    acc = np.zeros_like(t)
    for i, c in enumerate(sig.levels):
        acc += c * (
            sici(sig.omega * (t - sig.edges[i]))[0]
            - sici(sig.omega * (t - sig.edges[i + 1]))[0]
        )
    return acc / np.pi


def sup_norm_oracle(sig):
    """Max magnitude of a ``RandomBandlimitedSignal`` on a fine grid over [-3, 3]
    (step pi/(32*omega))."""
    step = np.pi / 32 / sig.omega
    t = np.arange(-3.0, 3.0 + step, step)
    return float(np.max(np.abs(sig.sample(t))))


def tail_bound_oracle(sig, t):
    """``(1/pi) [|F(t)|/omega + sum_j |a_j| (1/x_j**2 + 2/|x_j|**3)]`` at times t
    beyond every edge, with a_j the level jumps at the edges e_j,
    ``x_j = omega*(t - e_j)`` and ``F(t) = sum_j a_j exp(-i*omega*e_j)/(t - e_j)``,
    summed edge by edge."""
    t = np.asarray(t, dtype=float)
    f = np.zeros(t.shape, dtype=complex)
    rest = np.zeros(t.shape)
    for j, e in enumerate(sig.edges):
        a = (sig.levels[j] if j < len(sig.levels) else 0.0) - (sig.levels[j - 1] if j else 0.0)
        f += a * np.exp(-1j * sig.omega * e) / (t - e)
        x = np.abs(sig.omega * (t - e))
        rest += abs(a) * (1.0 / x**2 + 2.0 / x**3)
    return (np.abs(f) / sig.omega + rest) / np.pi


def exceedance_index_oracle(sig, T, lam):
    """Largest lattice |k| with |g(kT)| >= lam over |t| <= 16, from one plain
    scan of that whole lattice with :func:`sample_oracle`; 0 if there is none."""
    k = np.arange(-int(16.0 / T), int(16.0 / T) + 1)
    exc = np.abs(sample_oracle(sig, k * T)) >= lam
    return int(np.max(np.abs(k[exc]), initial=0))


def clear_band_exceedance_oracle(rows, lam):
    """The clear-band exceedance index of the columns of ``rows`` (the lattice
    window [-k, k]) by the rule that kept each column's ``[max; min]``: a
    column exceeds where its ``fmax`` reaches lam or its ``fmin`` reaches
    -lam, and :class:`MarginError` is raised where one of the outermost 32
    columns on either side does."""
    hi, lo = np.fmax.reduce(rows, axis=0), np.fmin.reduce(rows, axis=0)
    exc = (hi >= lam) | (lo <= -lam)
    if np.any(exc[:32]) or np.any(exc[-32:]):
        raise MarginError("exceedance reaches the scan boundary")
    cols = np.flatnonzero(exc) - (exc.size - 1) // 2
    return int(np.max(np.abs(cols), initial=0))


def sweep_cell_oracle(args):
    """One success-sweep cell that scans for the exceedance and then samples
    the margin window ``[k_lo, K]`` a second time, with :func:`sample_oracle`."""
    lam, omega, trials, tsteps, seed = args
    t_us = 1.0 / (omega * np.e)
    t_sh = np.pi / omega
    nb = base_order(lam, omega)
    orders = (nb, 2 * nb, 3 * nb)
    ts = np.linspace(t_us, t_sh, tsteps)
    hits = np.zeros((tsteps, len(orders)), dtype=np.int64)
    for trial in range(trials):
        sig = RandomBandlimitedSignal.draw(omega, np.random.SeedSequence([seed, trial]))
        for it, T in enumerate(ts):
            K = support_index(T)
            kstar = exceedance_index_oracle(sig, T, lam)
            k_lo = -required_margin(kstar * T, T, max(orders), K)
            wide = sample_oracle(sig, np.arange(k_lo, K + 1) * T)
            folded = modulo_fold(wide, lam)
            truth_sym = wide[-K - k_lo :]
            for iN, N in enumerate(orders):
                K_prime = required_margin(kstar * T, T, N, K)
                rec, _ = unfold_compact(folded[-K_prime - k_lo :], -K_prime, lam, N, K)
                if np.max(np.abs(rec - truth_sym)) < _SUCCESS_TOL:
                    hits[it, iN] += 1
    rates = hits / float(trials)
    smooth = np.column_stack([median3_oracle(rates[:, i]) for i in range(len(orders))])
    return SweepCell(lam, omega, ts / t_sh, orders, rates, smooth)


def median3_oracle(r):
    """Centered 3-point median of a series: one ``np.median`` per window
    ``r[i-1 : i+2]``, clipped at the ends."""
    out = np.empty_like(r)
    for i in range(r.size):
        out[i] = np.median(r[max(0, i - 1) : i + 2])
    return out


def demo_attempt_oracle(stage, sig, T, lam, N):
    """One downsample-demo attempt on its own row: the window ``[-K', K]`` is
    sampled with :func:`sample_oracle`, its folds are counted with the floor
    formula ``floor((t + lam) / (2*lam))`` and it is unfolded by ``unfold_compact``."""
    K = support_index(T)
    kstar = exceedance_index_oracle(sig, T, lam)
    K_prime = required_margin(kstar * T, T, N, K)
    truth = sample_oracle(sig, np.arange(-K_prime, K + 1) * T)
    fold_count = np.floor((truth + lam) / (2.0 * lam)).astype(np.int64)
    rec, _ = unfold_compact(modulo_fold(truth, lam), -K_prime, lam, N, K)
    err = np.abs(rec - truth[K_prime - K :])
    return DemoAttempt(stage, T, N, int(np.count_nonzero(fold_count)), float(np.mean(err**2)),
                       float(np.max(err)), bool(np.max(err) < _SUCCESS_TOL))


def window(values, base, k_lo, k_hi):
    """The entries at absolute indices [k_lo, k_hi] of a run whose first
    entry, ``values[0]``, sits at index ``base``."""
    if not base <= k_lo <= k_hi < base + len(values):
        raise DomainError(f"window [{k_lo}, {k_hi}] outside the run")
    return values[k_lo - base : k_hi - base + 1]


def lattice_samples(sig, T, k_lo, k_hi):
    """The signal's samples at the lattice points ``k*T``, k in [k_lo, k_hi]."""
    return sig.sample(np.arange(k_lo, k_hi + 1) * T)


def scan_window(raw_rows, params, radius=4.0):
    """The clean sinogram over [-K_prime, K] cut from the scan of ``raw_rows``
    out to ``radius``, with the largest raw magnitude as beta."""
    scan = scan_from_raw(raw_rows, params.omega, params.T, radius,
                         K=int(np.ceil(radius / params.T)))
    lo = scan.k_scan - params.K_prime
    rows = scan.rows[:, lo : scan.k_scan + params.K + 1].copy()
    return Sinogram(replace(params, beta=float(np.max(np.abs(raw_rows)))), rows)


def anti_diff(a):
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


def anti_diff_bilateral(a, base):
    """Running sum along the last axis anchored at absolute index 0, extended
    to both sides.

    ``a[..., i]`` sits at absolute index ``base + i``.  ``result[0] = 0``;
    ``result[k] = sum_{j=0}^{k-1} a[j]`` for k > 0 and
    ``result[k] = -sum_{j=k}^{-1} a[j]`` for k < 0.  The result covers
    ``[base, base+len]`` and keeps the input dtype.  Raises ``DomainError`` if
    the input does not cover index 0 (``base <= 0 < base+len``).
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


def unfold_general_oracle(values, base, lam, N, beta):
    """One run of general-mode unfolding at threshold lam, order N (at least
    1) and grid bound beta, ``values[0]`` at index ``base``: the fold counts
    of the N-th difference are integrated back N times with running sums
    anchored at index 0; after each integration a slope probe at offsets 1
    and J+1 fixes the linear drift (kappa), and the settled tail value
    removes the final constant.  Returns the recovered run over the input
    window and its report."""
    N = max(1, N)
    J = cost_j(beta, lam)
    d = np.diff(values, n=N)
    e0 = modulo_fold(d, lam) - d
    m = np.rint(e0 / (2.0 * lam))
    residual = float(np.max(np.abs(e0 - 2.0 * lam * m)))
    m = m.astype(np.int64)
    for _ in range(N - 1):
        u = anti_diff_bilateral(m, base)
        v = anti_diff_bilateral(u, base)
        v1 = 2.0 * lam * v[1 - base]
        vj = 2.0 * lam * v[J + 1 - base]
        kappa = int(guarded_floor((v1 - vj) / (12.0 * beta) + 0.5))
        m = u + kappa
    s_final = anti_diff_bilateral(m, base)
    tail = s_final[-max(8, N) :]
    plateau_ok = bool(np.all(tail == tail[-1]))
    counts = s_final - s_final[-1]
    gamma = values + (2.0 * lam) * counts
    ok = plateau_ok and residual < 1e-9 * lam
    return gamma, UnfoldReport(N, J, residual, ok, tail_plateau_ok=plateau_ok)


def compact_counts_oracle(rows, lam, N, start):
    """``compact_counts`` one row at a time: row r from column ``start[r]`` on,
    its N-th difference's fold residual snapped to integers, summed back N
    times with :func:`anti_diff`; each row's largest snap error (0.0 for none)."""
    counts = np.zeros(rows.shape, dtype=np.int64)
    dev = np.empty(len(rows))
    for r, s in enumerate(start):
        d = np.diff(rows[r, s:], n=N)
        e0 = modulo_fold(d, lam) - d
        m = np.rint(e0 / (2.0 * lam))
        c = m.astype(np.int64)
        for _ in range(N):
            c = anti_diff(c)
        counts[r, s:] = c
        dev[r] = np.max(np.abs(e0 - 2.0 * lam * m), initial=0.0)
    return counts, dev


def _unfold_compact_row_oracle(values, base, lam, N, K):
    """One run of compact-mode unfolding over [-K, K] at threshold lam and
    order N, ``compact_counts`` on one row."""
    if N == 0:
        return window(values, base, -K, K), UnfoldReport(0, None, 0.0, True)
    [counts], [residual] = compact_counts(values[None, :], lam, N, [0])
    gamma = values + (2.0 * lam) * counts
    report = UnfoldReport(N, None, float(residual), bool(residual < 1e-9 * lam))
    return window(gamma, base, -K, K), report


def unfold_sinogram_oracle(ms, N, K=None, *, mode=COMPACT, beta=None):
    """``unfold_sinogram`` one angle row at a time: each row is copied into its
    own run and unfolded on its own at the sinogram's threshold, at order N in
    ``mode``, general mode with the grid bound ``beta``."""
    p = ms.params
    K = p.K if K is None else int(K)
    out = np.empty((p.M, 2 * K + 1))
    reports = []
    for mi in range(p.M):
        row = ms.rows[mi].copy()
        if mode == GENERAL:
            gamma, rep = unfold_general_oracle(row, -p.K_prime, p.lam, N, beta)
            out[mi] = window(gamma, -p.K_prime, -K, K)
        else:
            out[mi], rep = _unfold_compact_row_oracle(row, -p.K_prime, p.lam, N, K)
        reports.append(rep)
    return Sinogram(replace(p, K_prime=K, K=K, N=reports[0].n_used), out), reports


def round_to_2lambda(x, lam: float):
    """Round onto the grid of even multiples of lam: ``2*lam*ceil(floor(x/lam)/2)``.

    Values already on the grid are fixed points; guard bands keep float
    representations of grid points from flipping to a neighbour.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("round_to_2lambda requires finite input")
    m = guarded_ceil(guarded_floor(arr / lam) / 2.0)
    out = (2.0 * lam) * m
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def highband_energy_fraction(values: np.ndarray, T: float, omega: float) -> float:
    """Fraction of DFT energy at frequencies above omega (band-limit check)."""
    v = np.asarray(values, dtype=float)
    spec = np.abs(np.fft.rfft(v)) ** 2
    freqs = 2.0 * np.pi * np.fft.rfftfreq(v.size, d=T)
    total = float(np.sum(spec))
    if total == 0.0:
        return 0.0
    return float(np.sum(spec[freqs > omega]) / total)


def read_raw_f64(path: str) -> ImageGrid:
    """Read back a raw dump written by ``modradon.fbp.write_raw_f64``."""
    meta = {}
    with open(str(path) + ".hdr") as f:
        for line in f:
            key, _, val = line.strip().partition(" ")
            meta[key] = val
    width, height = int(meta["width"]), int(meta["height"])
    data = np.fromfile(path, dtype="<f8")
    if data.size != width * height:
        raise SizeError(f"{path}: expected {width * height} pixels, found {data.size}")
    return ImageGrid(width, height, data.reshape(height, width).astype(float))


def design_params(omega, lam, t_frac=0.5, M=None, K=None, K_prime=None) -> SamplingParams:
    """Standard parameter choice: ``T = t_frac / (omega*e)``, ``K = ceil(1/T)``,
    ``M = omega`` rounded, margin defaulting to the symmetric grid."""
    T = t_frac / (omega * np.e)
    if K is None:
        K = support_index(T)
    if M is None:
        M = int(round(omega))
    if K_prime is None:
        K_prime = K
    return SamplingParams(omega=omega, T=T, lam=lam, K=K, K_prime=K_prime, M=M)


def read_csv_rows_oracle(f, path, M: int, width: int, first_line: int) -> np.ndarray:
    """``forward.read_csv_rows`` one cell at a time: every data line is split on
    commas and each cell parsed by ``float()``, with the same checks and
    messages."""
    size = os.fstat(f.fileno()).st_size
    if 2 * M * width - 1 > size:
        raise ParseError(f"{path}: {M} rows of {width} values cannot fit in {size} bytes")
    rows = np.empty((M, width))
    m = 0
    for lineno, line in enumerate(f, start=first_line):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if m >= M:
            raise ParseError(f"{path}: line {lineno}: more than {M} data rows")
        cols = body.split(",")
        if len(cols) != width:
            raise ParseError(f"{path}: row {m}: expected {width} columns, got {len(cols)}")
        for i, c in enumerate(cols):
            try:
                rows[m, i] = float(c)
            except ValueError:
                raise ParseError(f"{path}: row {m}, column {i}: not a number") from None
        for i, c in enumerate(cols):
            if not np.isfinite(rows[m, i]):
                raise ParseError(f"{path}: row {m}, column {i}: not a finite number ({c})")
        m += 1
    if m != M:
        raise ParseError(f"{path}: expected {M} data rows, found {m}")
    return rows
