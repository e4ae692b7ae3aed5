"""Forward measurement pipeline in parallel-beam geometry.

Projections are sampled on the radial lattice ``t_k = k*T`` for angles
``theta_m = m*pi/M``, band-limited by an ideal low-pass applied as a discrete
convolution with the sampled sinc kernel (digital anti-aliasing at the
acquisition rate), and finally folded into [-lam, lam) by the centered modulo.
The filtered samples are exactly the lattice samples of a band-limited
function, which is what the recovery guarantees operate on.

Row convolutions (this prefilter and the FBP ramp filter) run through
``numpy.fft`` on zero-padded row blocks, with one kernel spectrum per call;
their results equal ``scipy.signal.fftconvolve``'s bit for bit (numpy 2 and
scipy run the same pocketfft).
"""

from __future__ import annotations

import io
import os
import stat
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .core import guarded_ceil, map_blocks, modulo_fold
from .errors import (
    ConfigError,
    MarginError,
    ParseError,
    SizeError,
    check_positive,
    indexable,
)
from .phantom import Phantom, radon_phantom

_MAGIC = b"MRTS"
_VERSION = 1
_HEADER_BYTES = 44  # magic, four u32 (version, M, K, K_prime), three f64
#: Rows per FFT convolution block in :func:`convolve_rows`, one worker's
#: work.  The calling thread allocates every worker's FFT buffers, so a pool
#: thread's own glibc malloc arena holds only a block's small temporaries;
#: what a block frees there is kept for later blocks rather than returned to
#: the calling thread, and small blocks keep that share of the peak small.
_CONV_ROWS = 16
#: Outermost lattice positions of a tail scan that must stay below lam.
_CLEAR_BAND = 32
#: Lattice points from one tail probe of :func:`scan_exceedance` to the next.
_PROBE_STEP = 8
#: Probes, over signals and sides, that :func:`scan_exceedance` evaluates at once.
_PROBE_BLOCK = 1 << 14


@dataclass(frozen=True)
class SamplingParams:
    """Every sampling-theory quantity in one place.

    Parameters
    ----------
    omega : float
        Bandwidth of the anti-aliasing low-pass, rad per unit length.
    T : float
        Radial sample spacing.
    lam : float
        Fold threshold (half-range of the modulo detector).
    K : int
        Symmetric radial index bound; the detector grid is [-K, K].
    K_prime : int
        Extended left index bound; acquisition covers [-K_prime, K].
    M : int
        Number of projection angles over [0, pi).
    beta : float, optional
        Measured uniform amplitude bound for the projections.
    rho : float, optional
        Measured exceedance radius: |projection| < lam outside [-rho, rho].
    N : int, optional
        Difference order used by the unfolding stage.
    """

    omega: float
    T: float
    lam: float
    K: int
    K_prime: int
    M: int
    beta: float | None = None
    rho: float | None = None
    N: int | None = None

    def __post_init__(self):
        check_positive(omega=self.omega, T=self.T, lam=self.lam)
        for name in ("K", "K_prime", "M"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v}")
            object.__setattr__(self, name, int(v))
        if self.K_prime < self.K:
            raise ConfigError(f"K_prime ({self.K_prime}) must be >= K ({self.K})")


def projection_angles(M: int) -> np.ndarray:
    """The M projection angles ``theta_m = m*pi/M``, rounded as
    ``(m*pi)/M``; raises :class:`SizeError` when numpy cannot index M."""
    if not indexable(M):
        raise SizeError(f"M={M} angles are too many to index")
    return np.arange(M) * np.pi / M


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Radial-by-angular sample grid of band-limited projections.

    ``rows[m, i]`` holds the projection at angle ``theta_m`` and offset
    ``t_k = k*T`` with ``k = i - K_prime``; shape is (M, K_prime + K + 1).
    """

    params: SamplingParams
    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=float)
        want = (self.params.M, self.params.K_prime + self.params.K + 1)
        if arr.shape != want:
            raise SizeError(f"rows shape {arr.shape} != {want}")
        object.__setattr__(self, "rows", arr)

    @property
    def base_index(self) -> int:
        return -self.params.K_prime

    def symmetric_rows(self) -> np.ndarray:
        """The [-K, K] block used by back projection, shape (M, 2K+1)."""
        p = self.params
        lo = p.K_prime - p.K
        return self.rows[:, lo : lo + 2 * p.K + 1]


def lowpass_kernel(t, omega: float) -> np.ndarray:
    """Ideal low-pass impulse response sin(omega*t)/(pi*t), value omega/pi at 0."""
    t = np.asarray(t, dtype=float)
    return (omega / np.pi) * np.sinc(omega * t / np.pi)


def fast_len(m: int) -> int:
    """Smallest ``2**a * 3**b * 5**c >= m``, a length pocketfft transforms fast
    (``scipy.fft.next_fast_len(m, real=True)``)."""
    best = 1 << (m - 1).bit_length()
    p35 = p5 = 1
    while p5 < best:
        while p35 < best:
            # the least power of 2 that takes p35 to m or past it
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
        p35 = p5
    return best


def convolve_rows(rows: np.ndarray, kern: np.ndarray, start: int, width: int,
                  keep: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``full[r] = fftconvolve(rows[r], kern)[start : start + width]`` for every row,
    bit for bit, where rows and kernel hold two or more samples (``fftconvolve``
    multiplies a one-sample row or kernel without an FFT).

    Only the first ``keep`` columns of ``full`` (all of them by default) are
    stored; they are returned with the largest magnitude of each later column
    over the rows, ``max(fmax, -fmin)`` (``fmax``/``fmin`` skip NaN), a
    ``(width - keep,)`` array.

    These are ``fftconvolve``'s own steps on ``numpy.fft``: real FFTs at the
    fast length ``n`` of the full convolution, the product of the spectra, the
    inverse FFT.  The kernel's spectrum is computed once per call and shared
    by every block.  The rows are convolved ``_CONV_ROWS`` at a time into a
    fresh output array, the blocks spread over the usable CPUs
    (:func:`~modradon.core.map_blocks`).  Each worker owns one ``(_CONV_ROWS,
    n)`` real buffer and one ``(_CONV_ROWS, n//2 + 1)`` spectrum, allocated by
    the calling thread, which every block it runs reuses through the ``out=``
    of ``rfft`` and ``irfft``: a block is copied into the real buffer and its
    padding zeroed (the previous block's inverse FFT overwrote it), because
    ``numpy.fft`` pads many rows slower than it transforms a padded buffer.
    A block returns the magnitudes of its dropped columns alone, and they are
    merged into the first block's in place, not stacked into one more array.
    """
    keep = width if keep is None else keep
    n = fast_len(rows.shape[1] + kern.size - 1)
    kern_spec = np.fft.rfft(kern, n)
    out = np.empty((rows.shape[0], keep))
    height = min(rows.shape[0], _CONV_ROWS)

    def scratch():
        return np.empty((height, n)), np.empty((height, n // 2 + 1), complex)

    def block(r0, bufs):
        part = rows[r0 : r0 + _CONV_ROWS]
        buf, spec = (b[: part.shape[0]] for b in bufs)
        buf[:, : part.shape[1]] = part
        buf[:, part.shape[1] :] = 0.0
        np.fft.rfft(buf, axis=1, out=spec)
        spec *= kern_spec
        np.fft.irfft(spec, n, axis=1, out=buf)
        out[r0 : r0 + _CONV_ROWS] = buf[:, start : start + keep]
        return _column_peak(buf[:, start + keep : start + width])

    peak, *rest = map_blocks(block, range(0, rows.shape[0], _CONV_ROWS), scratch)
    for p in rest:
        np.fmax(peak, p, out=peak)
    return out, peak


def _column_peak(rows: np.ndarray) -> np.ndarray:
    """Largest magnitude of each column of ``rows``, ``max(fmax, -fmin)`` (an
    all-NaN column is NaN), with no temporary of the rows' size."""
    peak = np.fmin.reduce(rows, axis=0)
    np.negative(peak, out=peak)
    return np.fmax(np.fmax.reduce(rows, axis=0), peak, out=peak)


def phantom_rows(p: Phantom, T: float, M: int) -> np.ndarray:
    """Analytic projection samples at t = k*T, |k| <= ceil(1/T), for each of the
    M angles: the raw rows that :func:`scan_from_raw` band-limits.  Rows too
    many for numpy to index raise :class:`ConfigError` (:class:`SizeError`
    when M alone is) before anything is allocated."""
    k_half = support_index(T)
    if indexable(M):
        check_lattice(f"M={M} angles at T={T!r}", "the raw rows", k_half, M)
    return radon_phantom(p, projection_angles(M), np.arange(-k_half, k_half + 1) * T)


def check_lattice(what: str, lattice: str, reach: float, rows: int = 1) -> None:
    """Raise :class:`ConfigError` "<what>: <lattice> would hold <n> samples"
    when n = rows*(2*ceil(reach) + 1) float64 samples, ``rows`` rows that
    reach ``reach`` on each side of index 0, are too many for numpy to
    index."""
    points = rows * (2.0 * np.ceil(reach) + 1.0)
    if not indexable(points):
        raise ConfigError(f"{what}: {lattice} would hold {points:.3g} samples")


def support_index(T: float) -> int:
    """Last lattice index that can touch the unit-disk support: ceil(1/T), at
    least 1 (the guard band takes 1/T <= 1e-12 to 0)."""
    return max(1, int(guarded_ceil(1.0 / T)))


def fold_sinogram(s: Sinogram) -> Sinogram:
    """Fold every sample into [-lam, lam) with the centered modulo."""
    return Sinogram(s.params, modulo_fold(s.rows, s.params.lam))


@dataclass(frozen=True, eq=False)
class ForwardScan:
    """Prefiltered rows over a wide lattice window [-k_scan, k_scan], stored
    where a sinogram is cut from them and summarised where only their tails
    are measured.

    ``rows`` covers lattice indices [-k_scan, k] for every angle, for a
    ``k <= k_scan`` set by :func:`scan_from_raw`; ``peak`` is the largest
    magnitude of every column of the window over the angles (NaN only where
    the whole column is), a ``(2*k_scan + 1,)`` array.
    """

    k_scan: int
    rows: np.ndarray
    peak: np.ndarray

    def exceedance_index(self, lam: float) -> int:
        """:func:`clear_band_exceedance` of the scanned rows' column peaks."""
        return clear_band_exceedance(self.peak, lam)


def clear_band_exceedance(peak: np.ndarray, lam: float) -> int:
    """Largest |k| whose sample magnitude reaches lam, from the largest
    magnitude ``peak`` of each column of the samples over a symmetric lattice
    window [-k, k].

    Raises
    ------
    MarginError
        If the outermost ``_CLEAR_BAND`` lattice positions on either side are
        not strictly below lam (the window was too narrow to bound the tails).
    """
    exc = peak >= lam
    if np.any(exc[:_CLEAR_BAND]) or np.any(exc[-_CLEAR_BAND:]):
        raise MarginError("exceedance reaches the scan boundary; enlarge the scan radius")
    return _extent(exc, -((exc.size - 1) // 2))


def _extent(exc: np.ndarray, base: int) -> int:
    """Largest |k| of the True entries of ``exc``, whose first entry is lattice
    index ``base``; 0 if there are none."""
    cols = np.flatnonzero(exc)
    if cols.size == 0:
        return 0
    return int(max(abs(cols[0] + base), abs(cols[-1] + base)))


def scan_forward(p: Phantom, omega: float, T: float, M: int, radius: float = 4.0) -> ForwardScan:
    """:func:`scan_from_raw` of the phantom's :func:`phantom_rows`.

    A convenience for tests; the program scans through :func:`scan_from_raw`,
    and the benchmark's patch table names this function too.
    """
    return scan_from_raw(phantom_rows(p, T, M), omega, T, radius, K=int(np.ceil(radius / T)))


def scan_from_raw(raw_rows: np.ndarray, omega: float, T: float, radius: float = 4.0, *,
                  K: int) -> ForwardScan:
    """Band-limit raw projection samples over |t| <= radius:
    ``scan[m, k] = T * sum_j raw_rows[m, j] * lowpass_kernel((k - j)*T)`` for
    ``|k| <= k_scan = ceil(radius/T)``.

    ``raw_rows`` holds one row per angle over a symmetric lattice window (odd
    column count); values outside it are treated as zero.  The rows are
    stored over [-k_scan, min(K, k_scan)] (the whole window when K >= k_scan),
    the widest acquisition window a caller with grid bound K can cut; the
    column peaks cover the whole window.  Peaks taken from the unscaled
    columns and then multiplied by T > 0 equal those of the scaled ones,
    since rounding is monotonic and odd.  A window, or the rows convolved
    over it, too long for numpy to index raises :class:`ConfigError`.
    """
    raw_rows = np.asarray(raw_rows, dtype=float)
    if raw_rows.ndim != 2 or raw_rows.shape[1] % 2 != 1:
        raise SizeError("raw rows must be 2-D with an odd number of columns")
    M, k_half = raw_rows.shape[0], (raw_rows.shape[1] - 1) // 2
    check_lattice(f"T={T!r} samples too finely", "the scan window", radius / T)
    check_lattice(f"M={M} angles at T={T!r}", "the scanned rows", radius / T, M)
    k_scan = int(np.ceil(radius / T))
    keep = k_scan + 1 + min(int(K), k_scan)
    lags = np.arange(-k_scan - k_half, k_scan + k_half + 1) * T
    rows, tail = convolve_rows(raw_rows, lowpass_kernel(lags, omega), 2 * k_half,
                               2 * k_scan + 1, keep)
    rows *= T
    return ForwardScan(k_scan, rows, np.concatenate([_column_peak(rows), tail * T]))


@dataclass(frozen=True, eq=False)
class RandomBandlimitedSignal:
    """Random band-limited test signal with compact fold exceedance.

    A piecewise-constant profile with levels in [-1, 1] supported on [-1, 1]
    is convolved with the ideal low-pass at bandwidth ``omega``; the sine
    integral gives the convolution in closed form, so samples at any rate are
    exact.
    """

    omega: float
    edges: np.ndarray
    levels: np.ndarray

    @classmethod
    def draw(cls, omega: float, seed_seq) -> "RandomBandlimitedSignal":
        """Draw breakpoints and levels from a seeded generator.

        20 interior breakpoints uniform on (-1, 1); 21 levels i.i.d. uniform
        on [-1, 1].
        """
        rng = np.random.Generator(np.random.PCG64(seed_seq))
        breaks = np.sort(rng.uniform(-1.0, 1.0, size=20))
        edges = np.concatenate([[-1.0], breaks, [1.0]])
        levels = rng.uniform(-1.0, 1.0, size=21)
        return cls(omega, edges, levels)

    def sample(self, t) -> np.ndarray:
        """Evaluate the signal at times t (exact, via the sine integral).

        One ``sici`` call covers every edge, and one product every level's
        term ``c_i * (Si_i - Si_{i+1})``; the terms are then added in level
        order.  ``scipy.special`` is imported here, so only the processes
        that sample a signal (the sweep and the demo) load it.
        """
        from scipy.special import sici

        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = t - self.edges.reshape((-1,) + (1,) * t.ndim)
        x *= self.omega
        si = sici(x, out=(x, np.empty_like(x)))[0]  # Si overwrites x; Ci is dropped
        terms = si[:-1] - si[1:]
        terms *= self.levels.reshape((-1,) + (1,) * t.ndim)
        acc = np.zeros_like(t)
        for term in terms:
            acc += term
        return acc / np.pi


def scan_exceedance(sigs, T: float, lams):
    """Yield per signal of ``sigs``: for each threshold in ``lams`` the
    largest lattice |k| with |g(kT)| >= lam, and the window sampled to find
    them, as its first lattice index and its samples.

    Each signal is sampled once, over a window that holds [-K, K]
    (K = ceil(1/T)), outside which no sample can reach ``min(lams)``; a
    sample's bits do not depend on the window.  From K + 1 outward, each
    side ends with the outermost interval of ``_PROBE_STEP`` lattice points
    whose :func:`_probe_bounds` is not below ``min(lams)`` less a rounding
    margin, ``1e-12 * (lam + sum_j |a_j|)``, some hundred times what the
    rounding of ``sici`` and of the sums in samples and bounds can reach.
    Probing stops where the coarser bound ``(1/pi) sum_j |a_j| (u + u**2)``,
    ``u = 1/(omega*(|t| - 1))`` (from ``f(x) < 1/x``, ``g(x) < 1/x**2``),
    which falls as |t| grows, clears in closed form; where that lies past
    the lattice numpy can index, :class:`MarginError` is raised.  The probes of all signals are
    evaluated together, ``_PROBE_BLOCK`` at a time.
    """
    low, K = min(lams), support_index(T)
    omega = np.array([sig.omega for sig in sigs])
    edges = np.stack([sig.edges for sig in sigs])
    jumps = np.diff([sig.levels for sig in sigs], axis=1, prepend=0.0, append=0.0)
    total = np.sum(np.abs(jumps), axis=1)
    clear = low - 1e-12 * (low + total)
    with np.errstate(divide="ignore", over="ignore"):
        # the coarser bound is below clear where u < u_max, the positive root
        # of u**2 + u = 1/q, q = total/(pi*clear), so 1/u_max = (q + sqrt(q**2 + 4q))/2
        q = total / (np.pi * np.maximum(clear, 0.0))
        reach = 1.0 + (q + np.hypot(q, 2.0 * np.sqrt(q))) / (2.0 * omega)
        if not indexable(2.0 * np.max(reach) / T + 3.0):
            raise MarginError(f"lam={low!r} needs the tails sampled out to |t| = "
                              f"{np.max(reach):.3g}, past what numpy can index")
    stop = np.floor(reach / T).astype(np.int64) + 1  # the coarser bound clears |k| >= stop
    k = np.arange(K + 1, np.max(stop), _PROBE_STEP)
    ends = np.full((len(sigs), 2), K)  # the window's last |k|, left and right
    rows = max(1, _PROBE_BLOCK // (2 * k.size + 1))
    # no probes (a T past the closed-form reach): nothing to bound, and T*omega
    # may overflow
    for i in range(0, len(sigs) if k.size else 0, rows):
        b = slice(i, i + rows)
        fail = _probe_bounds(omega[b], edges[b], jumps[b], T, k) >= clear[b, None, None]
        fail &= k < stop[b, None, None]
        ends[b] += _PROBE_STEP * np.max(fail * np.arange(1, k.size + 1), axis=-1, initial=0)
    for sig, (left, right) in zip(sigs, ends.tolist()):
        g = sig.sample(np.arange(-left, right + 1) * T)
        yield [_extent(np.abs(g) >= lam, -left) for lam in lams], -left, g


def _probe_bounds(omega, edges, jumps, T: float, k) -> np.ndarray:
    """Bounds on |g| over the lattice intervals [k, k + _PROBE_STEP - 1] and
    their mirror images, all beyond the edges, of signals with bandwidths
    ``omega``, edges ``edges`` and level jumps ``jumps`` at them (one row a
    signal); shape (signals, 2, len(k)).

    With the level jumps a_j at the edges e_j (they sum to 0), the signal is
    ``(1/pi) sum_j a_j Si(x_j)`` with ``x_j = omega*(t - e_j)``.  Beyond every
    edge the x_j share a sign, and for x > 0
    ``Si(x) = pi/2 - f(x) cos x - g(x) sin x`` with ``0 < 1/x - f(x) < 2/x**3``
    and ``0 < g(x) < 1/x**2`` (Abramowitz & Stegun 5.2.8, 5.2.12-13; Si is
    odd).  So the pi/2 terms cancel, and with
    ``F(t) = sum_j a_j exp(-i*omega*e_j)/(t - e_j)``,
    ``|g(t)| <= (1/pi) [|F(t)|/omega + sum_j |a_j| (1/x_j**2 + 2/|x_j|**3)]``.
    Outward from p over a length L, |F| grows by at most
    ``L sum_j |a_j|/(p - e_j)**2`` and the other terms fall, so the bound at
    p plus that slack holds over the interval.
    """
    om = omega[:, None, None, None]
    r = np.abs(np.multiply.outer([-T, T], k)[..., None] - edges[:, None, None])
    r *= om
    np.divide(1.0, r, out=r)  # 1/|x_j| at each probe: (signals, side, probe, edge)
    f = np.abs(r @ (jumps * np.exp(-1j * omega[:, None] * edges))[:, None, :, None])
    r *= r * ((_PROBE_STEP - 1) * T * om + 1.0 + 2.0 * r)
    return ((f + r @ np.abs(jumps)[:, None, :, None]) / np.pi)[..., 0]


def save_sinogram(s: Sinogram, path: str) -> None:
    """Write a sinogram; format chosen by extension (.mrts binary, .csv text)."""
    if str(path).endswith(".csv"):
        _save_csv(s, path)
    else:
        _save_binary(s, path)


def load_sinogram(path: str) -> Sinogram:
    """Read a sinogram written by :func:`save_sinogram` (bit-exact round trip)."""
    if str(path).endswith(".csv"):
        return _load_csv(path)
    return _load_binary(path)


def _save_binary(s, path):
    p = s.params
    header = _MAGIC + struct.pack("<IIII", _VERSION, p.M, p.K, p.K_prime)
    header += struct.pack("<ddd", p.omega, p.T, p.lam)
    with open(path, "wb") as f:
        f.write(header)
        f.write(memoryview(np.ascontiguousarray(s.rows, dtype="<f8")).cast("B"))


def _load_binary(path) -> Sinogram:
    with open(path, "rb") as f:
        head = f.read(_HEADER_BYTES)
        if head[:4] != _MAGIC:
            raise ParseError(f"{path}: bad magic {head[:4]!r}, expected {_MAGIC!r}")
        if len(head) < _HEADER_BYTES:
            raise ParseError(f"{path}: truncated header: {len(head)} of {_HEADER_BYTES} bytes")
        version, M, K, K_prime = struct.unpack("<IIII", head[4:20])
        if version != _VERSION:
            raise ParseError(f"{path}: unsupported version {version}")
        omega, T, lam = struct.unpack("<ddd", head[20:44])
        try:
            params = SamplingParams(omega=omega, T=T, lam=lam, K=K, K_prime=K_prime, M=M)
        except ConfigError as exc:
            raise ParseError(f"{path}: bad header field ({exc})") from None
        n = M * (K_prime + K + 1)
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode):
            # sized before the rows are allocated, so a header cannot claim
            # more samples than the file holds
            found = st.st_size - _HEADER_BYTES
            if found == 8 * n:
                rows = np.empty((M, K_prime + K + 1), dtype="<f8")
                found = f.readinto(rows)
        else:  # a pipe has no size: read what it holds
            body = bytearray(f.read())
            found = len(body)
            if found == 8 * n:
                rows = np.frombuffer(body, dtype="<f8").reshape(M, K_prime + K + 1)
    if found != 8 * n:
        raise ParseError(f"{path}: expected {n} samples ({8 * n} bytes) after the header, "
                         f"found {found} bytes")
    finite = np.isfinite(rows)
    if not finite.all():
        m, i = np.argwhere(~finite)[0]
        raise ParseError(f"{path}: row {m}, column {i}: not a finite number ({rows[m, i]})")
    return Sinogram(params, rows)


def _save_csv(s, path):
    p = s.params
    head = (f"# modradon-sinogram omega={p.omega!r} T={p.T!r} lambda={p.lam!r}"
            f" M={p.M} K={p.K} K_prime={p.K_prime}")
    with open(path, "w") as f:
        f.write(head + "\n")
        for m in range(p.M):
            f.write(",".join(repr(v) for v in s.rows[m].tolist()) + "\n")


def _load_csv(path) -> Sinogram:
    with open(path, errors="replace") as f:
        head = f.readline().strip()
        if not head.startswith("# modradon-sinogram"):
            raise ParseError(f"{path}: line 1: missing sinogram header")
        kv = {}
        for tok in head.split()[2:]:
            key, _, val = tok.partition("=")
            kv[key] = val
        try:
            params = SamplingParams(
                omega=float(kv["omega"]), T=float(kv["T"]), lam=float(kv["lambda"]),
                K=int(kv["K"]), K_prime=int(kv["K_prime"]), M=int(kv["M"]),
            )
        except (KeyError, ValueError) as exc:
            raise ParseError(f"{path}: line 1: bad header field ({exc})") from None
        rows = read_csv_rows(f, path, params.M, params.K_prime + params.K + 1, 2)
    return Sinogram(params, rows)


def read_csv_rows(f, path, M: int, width: int, first_line: int) -> np.ndarray:
    """The M data rows of ``width`` values left in the open CSV ``f``.

    ``first_line`` is the file line number of the next line of ``f``.  Blank
    lines and ``#`` comment lines are skipped.  A row beyond the M-th raises
    :class:`ParseError` naming its file line, and so does a file with fewer
    than M rows.  Every value takes at least two bytes (a digit and a
    separator), so a declared shape that the file is too small to hold is
    rejected before anything of that size is allocated.  A pipe has no size
    and cannot seek back, so it is read into memory first and the check
    counts the characters it held.

    numpy's C reader parses the data lines in one pass.  A file it rejects,
    or whose rows are not M rows of ``width`` finite values, is read again
    cell by cell with :func:`parse_csv_row`, so every error names its row and
    column or its file line.
    """
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode):
        size = st.st_size
    else:
        f = io.StringIO(f.read())
        size = len(f.getvalue())
    if 2 * M * width - 1 > size:
        raise ParseError(f"{path}: {M} rows of {width} values cannot fit in {size} bytes")
    start = f.tell()
    rows = _loadtxt_rows(f, M + 1)
    if rows is not None and rows.shape == (M, width) and np.isfinite(rows).all():
        return rows
    f.seek(start)
    rows = np.empty((M, width))
    m = 0
    for lineno, line in enumerate(f, start=first_line):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if m >= M:
            raise ParseError(f"{path}: line {lineno}: more than {M} data rows")
        parse_csv_row(body, rows[m], path, m)
        m += 1
    if m != M:
        raise ParseError(f"{path}: expected {M} data rows, found {m}")
    return rows


def _loadtxt_rows(f, max_rows: int) -> np.ndarray | None:
    """Up to ``max_rows`` data lines of ``f`` parsed by ``np.loadtxt``, as a 2-D
    float array, or None where it fails or warns (as on a file with no data).

    Blank and ``#`` lines are dropped here, by the rule of
    :func:`read_csv_rows`; ``loadtxt`` strips no inline comment.
    """
    lines = (line for line in f if (body := line.strip()) and not body.startswith("#"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                              max_rows=max_rows)
    except (ValueError, Warning):
        return None


def parse_csv_row(line: str, out: np.ndarray, path, m: int) -> None:
    """Parse one comma-separated row of ``out.size`` finite floats into ``out``.

    A malformed row raises :class:`ParseError` naming ``path``, row ``m`` and
    the first bad column.
    """
    cols = line.strip().split(",")
    if len(cols) != out.size:
        raise ParseError(f"{path}: row {m}: expected {out.size} columns, got {len(cols)}")
    try:
        out[:] = [float(c) for c in cols]
    except ValueError:
        for i, c in enumerate(cols):
            try:
                float(c)
            except ValueError:
                raise ParseError(f"{path}: row {m}, column {i}: not a number") from None
    finite = np.isfinite(out)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ParseError(f"{path}: row {m}, column {bad}: not a finite number ({cols[bad]})")
