"""Discrete filtered back projection in parallel-beam geometry.

The reconstruction filter is defined in the frequency domain as
``|w| * W(w / omega)`` with an even window W supported in [-1, 1]; space-domain
closed forms are used for the rectangular (Ram-Lak) and half-cosine windows and
certified against a quadrature oracle in the test suite.  Filtering is a plain
discrete convolution over the detector lattice; the spacing factor T together
with the 1/2 of the inversion formula and the angular average enter once, as
the T/(2M) prefactor of the back projection.

Reconstruction takes one sinogram and returns one square image.  Back
projection uses the symmetries of ``theta_m = m*pi/M``:
``theta_{M-m} = pi - theta_m`` and, for even M, ``theta_{M/2+-m} = pi/2 +-
theta_m``.  Only the base angles (m <= M/4 for even M, m <= M/2 for odd M)
take ``np.cos``/``np.sin``; every other angle takes exact negated or swapped
values, so its interpolation geometry is a flipped or transposed view of its
base angle's on the exactly symmetric pixel axes of a square
:meth:`~modradon.phantom.ImageGrid.pixel_axes`.  Each
pixel sums its angles in four classes (base, mirror, quarter turn, mirrored
quarter turn), each in ascending base angle, and adds the four sums in that
order.  The image is split into bands of rows, which
:func:`~modradon.core.map_blocks` spreads over the usable CPUs; the order
depends on M alone, so a pixel's value does not depend on the grid's
partition or the number of CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import map_blocks
from .errors import ConfigError, SizeError, check_positive
from .forward import SamplingParams, Sinogram, convolve_rows, projection_angles
from .phantom import ImageGrid

RAM_LAK = "ram_lak"
COSINE = "cosine"

#: Image rows per back-projection band, the unit of work of one thread: a
#: 256-row image splits into two bands.  A band computes the geometry of its
#: rows once per base angle and adds each angle of the base's class group
#: into rows of that class's accumulator, in the class's own frame; the
#: frames are undone and the four classes summed once, after every band.
_ROW_TILE = 128


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """Reconstruction filter: bandwidth plus an even window on [-1, 1],
    either ``ram_lak`` (rectangular) or ``cosine`` (half-cosine)."""

    omega: float
    window: str = RAM_LAK

    def __post_init__(self):
        check_positive(omega=self.omega)
        if self.window not in (RAM_LAK, COSINE):
            raise ConfigError(f"unknown window {self.window!r}")


def _sinc(x):
    # sin(x)/x with the removable singularity filled in
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def filter_kernel(spec: FilterSpec, t) -> np.ndarray:
    """Space-domain filter values F(t) for the given spec.

    Closed forms:
      ram_lak: (omega^2 / 2 pi) * (2 sinc(omega t) - sinc^2(omega t / 2))
      cosine:  mean of two Ram-Lak-style terms shifted by +-pi/2 in phase,
               from the product-to-sum expansion of |w| cos(pi w / 2 omega).
    """
    om = spec.omega
    tt = np.asarray(t, dtype=float)
    if spec.window == RAM_LAK:
        out = (om**2 / (2.0 * np.pi)) * (2.0 * _sinc(om * tt) - _sinc(om * tt / 2.0) ** 2)
    else:
        xp = om * tt + np.pi / 2.0
        xm = om * tt - np.pi / 2.0
        out = (om**2 / (2.0 * np.pi)) * (
            _sinc(xp) + _sinc(xm) - 0.5 * _sinc(xp / 2.0) ** 2 - 0.5 * _sinc(xm / 2.0) ** 2
        )
    return out


def filter_projections(s: Sinogram, spec: FilterSpec) -> np.ndarray:
    """Discrete convolution h[m, i] = sum_k F((i-k) T) * s[m, k], i, k in [-K, K],
    as an (M, 2K+1) array.

    Rows with an extended left margin are cropped to the symmetric block; the
    lattice spacing factor is applied later, in :func:`back_project`.
    """
    p = s.params
    rows = s.symmetric_rows()
    lags = np.arange(-2 * p.K, 2 * p.K + 1) * p.T
    kern = filter_kernel(spec, lags)
    return convolve_rows(rows, kern, 2 * p.K, 2 * p.K + 1)[0]


def _angle_classes(M: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The base angles of M and the angles derived from each.

    Returns ``(b, [(k, m), ...])`` for every base angle b in ascending order,
    where angle m belongs to class k: 0 the base itself (cos, sin), 1 the
    mirror M-b (-cos, sin), 2 the quarter turn M/2+b (-sin, cos) and 3 the
    mirrored quarter turn M/2-b (sin, cos), with (cos, sin) those of
    ``theta_b``.  Classes 2 and 3 exist for even M only.  Every angle is
    listed once, at its first appearance in this order.
    """
    last = M // 4 if M % 2 == 0 else M // 2
    seen = set()
    groups = []
    for b in range(last + 1):
        derived = [b, M - b] + ([M // 2 + b, M // 2 - b] if M % 2 == 0 else [])
        members = []
        for k, m in enumerate(derived):
            if m < M and m not in seen:
                seen.add(m)
                members.append((k, m))
        groups.append((b, members))
    return groups


def back_project(h: np.ndarray, params: SamplingParams, grid: ImageGrid) -> ImageGrid:
    """Angular accumulation with linear interpolation between detector samples.

    ``image(x) = T/(2M) * sum_m interp(h_m)(x . theta_m)``; points projecting
    outside the filtered lattice contribute zero.  ``h`` holds the (M, 2K+1)
    filtered rows of ``params``.  Angle m has the (cos, sin) of its class in
    :func:`_angle_classes`, from ``np.cos``/``np.sin`` of its base angle.
    Every pixel sums each class over ascending base angles into its own
    accumulator A0..A3, and the image is ``((A0 + A1) + A2) + A3`` times
    T/(2M): the order depends on M alone, not on the grid or the CPU count.

    The grid must be square; any other raises :class:`SizeError`.  Its rows
    are split into bands of ``_ROW_TILE`` rows, one thread's work each.  A
    band computes the detector position ``u`` of its rows once per base
    angle; the mirror reads it column-reversed, and the quarter turns read
    it transposed and flipped.  Each class accumulates in the frame it reads
    ``u`` in, and the frames are undone at the end.
    """
    K, T, M = params.K, params.T, params.M
    if h.shape != (M, 2 * K + 1):
        raise SizeError(f"filtered rows shape {h.shape} != {(M, 2 * K + 1)}")
    if grid.width != grid.height:
        raise SizeError(f"back projection needs a square grid, got {grid.width}x{grid.height}")
    x, y = grid.pixel_axes()
    thetas = projection_angles(M)
    # (cos, sin, [(class, angle)]): the angles that share one geometry
    passes = [(np.cos(thetas[b]), np.sin(thetas[b]), members)
              for b, members in _angle_classes(M)]
    # one block for the four accumulators: four separate arrays raised the
    # pipeline's peak RSS by about 6 MB through heap placement
    acc = np.zeros((4, grid.height, grid.width))

    def band(r0):
        yt = y[r0 : r0 + _ROW_TILE]
        shape = (yt.size, x.size)
        u, w0, a, b = (np.empty(shape) for _ in range(4))
        i0 = np.empty(shape, np.int64)
        inside, upper = np.empty(shape, bool), np.empty(shape, bool)
        tiles = acc[:, r0 : r0 + _ROW_TILE]
        for c, sn, members in passes:
            # u = (x cos + y sin) / T + K with the operands and rounding order of
            # the per-pixel formula; the division is kept (1/T would move bits)
            np.add((x * c)[None, :], (yt * sn)[:, None], out=u)
            np.divide(u, T, out=u)
            np.add(u, K, out=u)
            np.greater_equal(u, 0.0, out=inside)
            np.less_equal(u, 2 * K, out=upper)
            np.logical_and(inside, upper, out=inside)
            # i0 = clip(floor(u)); frac = u - i0 overwrites u, and w0 = 1 - frac;
            # both weights are then zeroed outside the lattice
            np.floor(u, out=w0)
            np.clip(w0, 0, 2 * K - 1, out=w0)
            i0[...] = w0
            frac = np.subtract(u, w0, out=u)
            np.subtract(1.0, frac, out=w0)
            np.multiply(frac, inside, out=frac)
            np.multiply(w0, inside, out=w0)
            for k, m in members:
                row = h[m]
                # row[i0] * (1 - frac) + row[i0 + 1] * frac
                np.take(row, i0, out=a, mode="clip")
                np.take(row[1:], i0, out=b, mode="clip")
                np.multiply(a, w0, out=a)
                np.multiply(b, frac, out=b)
                np.add(a, b, out=a)
                # an outside pixel adds +-0.0, which leaves its sum's bits as
                # they are: a tile that starts at +0.0 never holds -0.0
                np.add(tiles[k], a, out=tiles[k])

    map_blocks(band, range(0, grid.height, _ROW_TILE))
    # x[n-1-j] == -x[j] and x[n-1-i] == y[i] (ImageGrid.pixel_axes): the mirror's
    # pixel (i, j) read u at (i, n-1-j), the quarter turn at (j, n-1-i) and its
    # mirror at (n-1-j, n-1-i)
    img = acc[0] + acc[1][:, ::-1]
    img += acc[2].T[::-1]
    img += acc[3].T[::-1, ::-1]
    img *= T / (2.0 * M)
    return ImageGrid(grid.width, grid.height, img)


def fbp_reconstruct(s: Sinogram, spec: FilterSpec, grid: ImageGrid) -> ImageGrid:
    """Filter the sinogram's [-K, K] rows and back-project them onto ``grid``."""
    return back_project(filter_projections(s, spec), s.params, grid)


def rmse(a: ImageGrid, b: ImageGrid) -> float:
    """Root mean square pixel difference of two equally sized images."""
    if (a.width, a.height) != (b.width, b.height):
        raise SizeError(
            f"image dimensions differ: {(a.width, a.height)} vs {(b.width, b.height)}"
        )
    return float(np.sqrt(np.mean((a.pixels - b.pixels) ** 2)))


def write_pgm16(grid: ImageGrid, path: str) -> None:
    """16-bit binary PGM, min-max normalized; the header comment records the
    original value range so the scaling is invertible."""
    lo = float(np.min(grid.pixels))
    hi = float(np.max(grid.pixels))
    span = hi - lo if hi > lo else 1.0
    scaled = np.round((grid.pixels - lo) / span * 65535.0).astype(">u2")
    header = (f"P5\n# min={lo!r} max={hi!r} (min-max normalized to 0..65535)\n"
              f"{grid.width} {grid.height}\n65535\n")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(scaled.tobytes())


def write_raw_f64(grid: ImageGrid, path: str) -> None:
    """Raw little-endian float64 dump plus a '<path>.hdr' text sidecar."""
    with open(path, "wb") as f:
        f.write(memoryview(np.ascontiguousarray(grid.pixels, dtype="<f8")).cast("B"))
    with open(str(path) + ".hdr", "w") as f:
        f.write(f"width {grid.width}\nheight {grid.height}\nextent -1 1 -1 1\n"
                f"dtype float64-le\norder row-major\n")

