"""Independent oracles used by the test suite.

These deliberately avoid the closed forms under test: line integrals come from
scanning the implicit quadric along the ray and refining the crossings by
bisection; filter kernels come from brute trapezoid quadrature of the inverse
transform; back projection is the plain per-angle loop over the whole image.
"""

import numpy as np


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


def kernel_quadrature_oracle(omega, window_fn, t, n=2**16):
    """(1/pi) * int_0^omega w * W(w/omega) * cos(w t) dw by composite trapezoid."""
    w = np.linspace(0.0, omega, n + 1)
    g = w * window_fn(w / omega)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t.size)
    for i, ti in enumerate(t):
        out[i] = np.trapezoid(g * np.cos(w * ti), dx=omega / n)
    return out / np.pi


def back_project_oracle(h, params, grid):
    """Plain per-angle back projection of one filtered sinogram: the pixel array of
    ``T/(2M) * sum_m interp(h_m)(x . theta_m)``, zero outside the lattice."""
    K, T, M = params.K, params.T, params.M
    X, Y = grid.pixel_centers()
    acc = np.zeros_like(X)
    thetas = params.thetas()
    for m in range(M):
        t = X * np.cos(thetas[m]) + Y * np.sin(thetas[m])
        u = t / T + K
        inside = (u >= 0.0) & (u <= 2 * K)
        i0 = np.clip(np.floor(u).astype(np.int64), 0, 2 * K - 1)
        frac = u - i0
        row = h.values[m]
        vals = row[i0] * (1.0 - frac) + row[i0 + 1] * frac
        acc += np.where(inside, vals, 0.0)
    acc *= T / (2.0 * M)
    return acc
