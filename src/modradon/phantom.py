"""Analytic test objects: weighted-ellipse phantoms with closed-form line
integrals, plus rasterization onto a pixel grid for ground-truth images.

All phantoms live inside the closed unit disk; line integrals are exact chord
lengths, so sinograms derived from them carry no discretization error.
:func:`radon_phantom` takes every angle of a sinogram in one call and
evaluates each ellipse only over the offsets its chords reach;
:func:`rasterize` tests each ellipse only inside its bounding box.  Both give
the bits of the plain per-angle, whole-lattice evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError, SizeError, indexable


@dataclass(frozen=True)
class Ellipse:
    """A uniformly weighted ellipse.

    Parameters
    ----------
    center : (float, float)
        Center coordinates.
    semi_axes : (float, float)
        Positive semi-axis lengths (before rotation).
    rotation : float
        Counter-clockwise rotation, radians.
    intensity : float
        Additive density weight.
    """

    center: tuple
    semi_axes: tuple
    rotation: float
    intensity: float

    def __post_init__(self):
        for name in ("center", "semi_axes", "rotation", "intensity"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise DomainError(f"{name} must be finite, got {value}")
        a, b = self.semi_axes
        if a <= 0 or b <= 0:
            raise DomainError(f"semi-axes must be positive, got {self.semi_axes}")
        # sufficient containment test: center radius plus the larger semi-axis
        cx, cy = self.center
        if np.hypot(cx, cy) + max(a, b) > 1.0 + 1e-12:
            raise DomainError("ellipse is not contained in the closed unit disk")

    def contains(self, x, y):
        """Elementwise membership test for points (x, y)."""
        cx, cy = self.center
        a, b = self.semi_axes
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        u = (x - cx) * c + (y - cy) * s
        v = -(x - cx) * s + (y - cy) * c
        return (u / a) ** 2 + (v / b) ** 2 <= 1.0


@dataclass(frozen=True)
class Phantom:
    """A sum of weighted ellipses supported inside the closed unit disk."""

    ellipses: tuple

    def __post_init__(self):
        object.__setattr__(self, "ellipses", tuple(self.ellipses))


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """A rasterized image over the square [-1, 1]^2, row-major pixels.

    Pixel (i, j) has its center at ``x = (2j + 1 - width) / width`` and
    ``y = (height - 1 - 2i) / height`` (row 0 is the top of the image): one
    rounding of an exact integer ratio, so ``x[width-1-j] == -x[j]`` and
    ``y[height-1-i] == -y[i]`` (bit for bit but for the +0.0 middle of an odd
    side), and on a square grid ``x[n-1-i] == y[i]`` bit for bit.  Without ``pixels`` the grid reads as zeros through a
    read-only view.  A grid whose float64 pixel array numpy cannot index
    raises :class:`SizeError`.
    """

    width: int
    height: int
    pixels: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DomainError("image grid must have at least one pixel per axis")
        if not indexable(self.width * self.height):
            raise SizeError(f"image grid {self.width}x{self.height} is too large to index")
        if self.pixels is None:
            # a grid that only gives an image's geometry holds no pixel buffer
            # (the pipeline keeps its grid alive through the forward model)
            object.__setattr__(self, "pixels", np.broadcast_to(0.0, (self.height, self.width)))
        else:
            arr = np.asarray(self.pixels, dtype=float)
            if arr.shape != (self.height, self.width):
                raise SizeError(f"pixel array shape {arr.shape} != {(self.height, self.width)}")
            object.__setattr__(self, "pixels", arr)

    def pixel_axes(self):
        """1-D pixel-center coordinates: x per column (width), y per row (height)."""
        x = (2 * np.arange(self.width) + 1 - self.width) / self.width
        y = (self.height - 1 - 2 * np.arange(self.height)) / self.height
        return x, y


#: Angles whose rows one ellipse updates together, over the union of their
#: chord windows: about 0.8 MB of temporaries for a 3,263-sample row.
_ANGLE_BLOCK = 32
#: Widening of a chord window beyond its end points.  Rounding moves an end
#: point by a few ulps of the unit-disk scale, far less than this.
_WINDOW_SLACK = 1e-9


def radon_phantom(p: Phantom, theta, t) -> np.ndarray:
    """Line-integral transform of the whole phantom (sum over ellipses).

    ``theta`` is one angle or an array of angles, each in [0, pi), and ``t``
    an ascending offset or array of offsets.  The result is an array of shape
    ``np.shape(theta) + np.shape(t)``, so a 1-D ``theta`` and ``t`` give one
    row per angle, and one angle with a 1-D ``t`` gives one row.

    The chord of an ellipse with semi-axes (a, b) rotated by phi has squared
    half-width ``r^2 = a^2 cos^2(theta-phi) + b^2 sin^2(theta-phi)`` around the
    offset ``off`` of its center, giving ``2 a b sqrt(max(r^2 - s^2, 0)) / r^2``
    per unit weight at ``s = t - off``: zero whenever the line misses the
    ellipse.

    Each ellipse updates the rows of up to ``_ANGLE_BLOCK`` angles at a time,
    and touches only the columns within ``off +- sqrt(r^2)`` of some row of
    the block (widened by ``_WINDOW_SLACK``); the columns left out would each
    add an exact zero.  ``r^2`` and ``off`` are computed one angle at a time
    on float64 scalars, so a row has the same bits whichever angles share its
    call: a scalar ``** 2`` is C ``pow``, which differs from the ``x*x`` of an
    array ``** 2`` in the last bit of about one value in a thousand.
    """
    tt = np.asarray(t, dtype=float)
    thetas = np.asarray(theta, dtype=float)
    flat = tt.ravel()
    angles = [(a, float(np.cos(a)), float(np.sin(a))) for a in thetas.ravel().tolist()]
    out = np.zeros((len(angles), flat.size))
    for m0 in range(0, len(angles), _ANGLE_BLOCK):
        block = angles[m0 : m0 + _ANGLE_BLOCK]
        for e in p.ellipses:
            _add_chords(out[m0 : m0 + len(block)], e, block, flat)
    return out.reshape(thetas.shape + tt.shape)


def _add_chords(acc, e: Ellipse, block, t) -> None:
    """Add ellipse ``e``'s line integrals at the angles of ``block`` (angle,
    cos and sin) and ascending offsets ``t`` to the rows ``acc``."""
    a, b = e.semi_axes
    cx, cy = e.center
    a2, b2, phi = a**2, b**2, e.rotation
    r2, off = [], []
    lo, hi = math.inf, -math.inf
    for th, cos_th, sin_th in block:
        r = a2 * np.cos(th - phi) ** 2 + b2 * np.sin(th - phi) ** 2
        o = cx * cos_th + cy * sin_th
        if not r > 0.0:
            # no chord (an axis whose square underflows): a NaN offset makes
            # the row add zeros and leaves the window as it is
            r, o = 1.0, math.nan
        h = math.sqrt(r)
        lo, hi = min(lo, o - h), max(hi, o + h)
        r2.append(r)
        off.append(o)
    c0, c1 = t.searchsorted((lo - _WINDOW_SLACK, hi + _WINDOW_SLACK))
    if c0 >= c1:
        return
    r2 = np.array(r2)[:, None]
    # r^2 - s^2 > 0 exactly when s^2 < r^2, so every sample off the chord
    # adds c*0 = +-0.0, which leaves the accumulator's bits unchanged
    v = t[c0:c1] - np.array(off)[:, None]
    v *= v
    np.subtract(r2, v, out=v)
    np.fmax(v, 0.0, out=v)  # and a NaN offset to 0
    np.sqrt(v, out=v)
    v *= 2.0 * e.intensity * a * b
    v /= r2
    acc[:, c0:c1] += v


def rasterize(p: Phantom, grid: ImageGrid) -> ImageGrid:
    """Point-sample the phantom at pixel centers (no anti-aliasing).

    Each pixel receives the sum of intensities of the ellipses containing its
    center.  An ellipse is tested only on the pixels of its bounding box and
    one more on each side; every pixel outside would add 0.0.
    """
    x, y = grid.pixel_axes()
    img = np.zeros((grid.height, grid.width))
    for e in p.ellipses:
        (cx, cy), (a, b) = e.center, e.semi_axes
        c, s = np.cos(e.rotation), np.sin(e.rotation)
        hx, hy = np.hypot(a * c, b * s), np.hypot(a * s, b * c)
        j0, j1 = x.searchsorted((cx - hx, cx + hx))
        i0, i1 = (-y).searchsorted((-cy - hy, hy - cy))  # y falls with the row
        j0, j1 = max(j0 - 1, 0), min(j1 + 1, grid.width)
        i0, i1 = max(i0 - 1, 0), min(i1 + 1, grid.height)
        inside = e.contains(x[j0:j1], y[i0:i1, None])
        img[i0:i1, j0:j1] += np.where(inside, e.intensity, 0.0)
    return ImageGrid(grid.width, grid.height, img)


# Widely published modified-contrast Shepp-Logan parameter table
# (intensity, a, b, cx, cy, rotation in degrees); see README for provenance.
_SHEPP_LOGAN_TABLE = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.2, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.2, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.1, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.1, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.1, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.1, 0.0230, 0.0460, 0.06, -0.605, 0.0),
)

# Hand-built nut-like object: shell, kernel cavity, two lobes and a membrane.
# Used as a synthetic stand-in when no measured dataset is available.
_WALNUT_TABLE = (
    (1.0, 0.58, 0.72, 0.0, 0.0, 8.0),
    (-0.55, 0.50, 0.63, 0.0, 0.0, 8.0),
    (0.35, 0.20, 0.42, -0.16, -0.02, 14.0),
    (0.35, 0.20, 0.42, 0.16, -0.02, -14.0),
    (-0.25, 0.035, 0.50, 0.0, 0.0, 4.0),
    (0.18, 0.10, 0.08, 0.0, 0.42, 0.0),
    (0.18, 0.11, 0.07, -0.05, -0.38, -20.0),
    (-0.12, 0.05, 0.05, 0.22, 0.25, 0.0),
    (0.15, 0.06, 0.04, -0.24, 0.22, 30.0),
)


def _phantom_from_table(table) -> Phantom:
    return Phantom(
        tuple(
            Ellipse((cx, cy), (a, b), np.deg2rad(rot), inten)
            for (inten, a, b, cx, cy, rot) in table
        )
    )


def shepp_logan() -> Phantom:
    """The ten-ellipse modified-contrast Shepp-Logan head phantom."""
    return _phantom_from_table(_SHEPP_LOGAN_TABLE)


def walnut_standin() -> Phantom:
    """A synthetic walnut-like phantom (shell with interior structure)."""
    return _phantom_from_table(_WALNUT_TABLE)


NAMED_PHANTOMS = {
    "shepp-logan": shepp_logan,
    "walnut-standin": walnut_standin,
}


def save_phantom(p: Phantom, path) -> None:
    """Write a plain-text table: one ellipse per line, columns
    cx cy a b rot_deg intensity."""
    lines = ["# cx cy a b rot_deg intensity"]
    for e in p.ellipses:
        cx, cy = e.center
        a, b = e.semi_axes
        lines.append(
            " ".join(
                repr(float(v)) for v in (cx, cy, a, b, np.rad2deg(e.rotation), e.intensity)
            )
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_phantom(path) -> Phantom:
    """Read the plain-text ellipse table written by :func:`save_phantom`."""
    ellipses = []
    with open(path, errors="replace") as f:
        for lineno, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            cols = body.split()
            if len(cols) != 6:
                raise ParseError(f"{path}: line {lineno}: expected 6 columns, got {len(cols)}")
            try:
                cx, cy, a, b, rot_deg, inten = (float(c) for c in cols)
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: non-numeric column ({exc})") from None
            if not np.all(np.isfinite([cx, cy, a, b, rot_deg, inten])):
                raise ParseError(f"{path}: line {lineno}: non-finite column in {body!r}")
            try:
                ellipses.append(Ellipse((cx, cy), (a, b), np.deg2rad(rot_deg), inten))
            except DomainError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if not ellipses:
        raise ParseError(f"{path}: no ellipses found")
    return Phantom(tuple(ellipses))
