"""Analytic test objects: weighted-ellipse phantoms with closed-form line
integrals, plus rasterization onto a pixel grid for ground-truth images.

All phantoms live inside the closed unit disk; line integrals are exact chord
lengths, so sinograms derived from them carry no discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError, SizeError


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

    Pixel (i, j) has its center at ``x = -1 + (j + 1/2) * 2/width`` and
    ``y = 1 - (i + 1/2) * 2/height`` (row 0 is the top of the image).
    Without ``pixels`` the grid reads as zeros through a read-only view.
    """

    width: int
    height: int
    pixels: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DomainError("image grid must have at least one pixel per axis")
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
        x = -1.0 + (np.arange(self.width) + 0.5) * (2.0 / self.width)
        y = 1.0 - (np.arange(self.height) + 0.5) * (2.0 / self.height)
        return x, y

    def pixel_centers(self):
        """Meshgrids (X, Y) of pixel-center coordinates, shape (height, width)."""
        return np.meshgrid(*self.pixel_axes())


def radon_ellipse(e: Ellipse, theta: float, t) -> float | np.ndarray:
    """Line integral of the ellipse's weighted indicator over <x, theta> = t.

    The chord of an ellipse with semi-axes (a, b) rotated by phi has squared
    half-width ``r^2 = a^2 cos^2(theta-phi) + b^2 sin^2(theta-phi)`` around the
    offset of its center, giving ``2 a b sqrt(r^2 - s^2) / r^2`` per unit
    weight; zero whenever the line misses the ellipse.
    """
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


def radon_phantom(p: Phantom, theta: float, t) -> float | np.ndarray:
    """Line-integral transform of the whole phantom (sum over ellipses).

    Angles are reduced to [0, pi) with the offset negated, so the evenness
    identity value(theta + pi, -t) == value(theta, t) holds up to the one
    rounding step of representing the shifted angle.
    """
    theta = float(theta) % (2.0 * np.pi)
    tt = np.asarray(t, dtype=float)
    if theta >= np.pi:
        theta -= np.pi
        tt = -tt
    out = np.zeros_like(tt)
    for e in p.ellipses:
        out += radon_ellipse(e, theta, tt)
    if np.isscalar(t):
        return float(out)
    return out


def rasterize(p: Phantom, grid: ImageGrid) -> ImageGrid:
    """Point-sample the phantom at pixel centers (no anti-aliasing).

    Each pixel receives the sum of intensities of the ellipses containing its
    center.
    """
    X, Y = grid.pixel_centers()
    img = np.zeros_like(X)
    for e in p.ellipses:
        img += np.where(e.contains(X, Y), e.intensity, 0.0)
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
