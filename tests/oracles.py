"""Independent reference computations used by the test suite.

Everything here deliberately avoids the production quadrature and solver
code paths: brute tensor scans, left-endpoint Riemann sums, a graded polar
mesh with Richardson extrapolation, and closed-form constants.  Agreement
between these routes and the library is what the tests certify.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# Lattice Green's function value at the origin for the 3d simple cubic
# lattice, via the product-of-Bessel representation
#   G = int_0^inf exp(-3s) I0(s)^3 ds
# evaluated offline with mpmath to 50 digits and rounded to double.
# The dispersion integral over the torus follows as (2pi)^3 * G / 3.
WATSON_G = 1.516386059151978
WATSON_I_EPS = 125.37996187790857  # (2pi)^3 * WATSON_G / 3

# Exact value of int v^2/eps at v = 1 restricted to the lower edge point:
# the edge integral carries the extra 1/2 from the quadratic normal form.
WATSON_HALF = WATSON_I_EPS / 2.0


def brute_band_endpoints(k, n: int = 201):
    """Tensor scan of the two-particle dispersion over an n^3 grid.

    Blunt on purpose: no separability tricks, no analytic minimizers.
    Chunked along the first axis to keep the transient arrays small.
    """
    k = np.asarray(k, dtype=float)
    g = -np.pi + (np.arange(n) + 0.5) * (TWO_PI / n)
    ek = float(np.sum(1.0 - np.cos(k)))
    lo, hi = np.inf, -np.inf
    for i0 in range(0, n, 32):
        px = g[i0:i0 + 32][:, None, None]
        py = g[None, :, None]
        pz = g[None, None, :]
        w = (ek
             + (2.0 - np.cos(k[0] + px) - np.cos(px))
             + (2.0 - np.cos(k[1] + py) - np.cos(py))
             + (2.0 - np.cos(k[2] + pz) - np.cos(pz)))
        lo = min(lo, float(w.min()))
        hi = max(hi, float(w.max()))
    return lo, hi


def left_riemann_integral(f, n: int = 128) -> float:
    """Left-endpoint Riemann sum over the torus.

    For smooth periodic integrands this is the trapezoid rule, hence
    spectrally accurate, and it uses a node offset the production
    cell-centered rule never touches.
    """
    g = -np.pi + np.arange(n) * (TWO_PI / n)
    px = g[:, None, None]
    py = g[None, :, None]
    pz = g[None, None, :]
    h3 = (TWO_PI / n) ** 3
    total = 0.0
    for i0 in range(0, n, 16):
        total += float(np.sum(f(px[i0:i0 + 16], py, pz)))
    return total * h3


def polar_cell_integral(integrand, center, base=(16, 32, 24)):
    """Graded polar quadrature over the periodic cube centered at a point.

    integrand(q) takes absolute points with shape (..., 3) and must be
    finite away from `center` with at worst a 1/|q - center|^2 blowup.
    The radial map r = R(omega) * y^2 clusters nodes at the singularity;
    two Richardson stages on the h^2 ladder sharpen the midpoint sums.

    Returns (value, error_estimate).  Expect ~1e-4 relative accuracy at
    the default base; this is a route check, not a precision oracle.
    """
    center = np.asarray(center, dtype=float)

    def one_level(n_mu, n_phi, n_y):
        mu = -1.0 + (np.arange(n_mu) + 0.5) * (2.0 / n_mu)
        phi = (np.arange(n_phi) + 0.5) * (TWO_PI / n_phi)
        y = (np.arange(n_y) + 0.5) * (1.0 / n_y)
        st = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
        om = np.empty((n_mu, n_phi, 3))
        om[..., 0] = st[:, None] * np.cos(phi)[None, :]
        om[..., 1] = st[:, None] * np.sin(phi)[None, :]
        om[..., 2] = np.broadcast_to(mu[:, None], (n_mu, n_phi))
        # distance from the center to the cube face along each direction
        R = np.pi / np.max(np.abs(om), axis=-1)
        r = R[..., None] * y[None, None, :] ** 2
        dr = R[..., None] * 2.0 * y[None, None, :] / n_y
        q = center[None, None, None, :] + om[:, :, None, :] * r[..., None]
        vals = integrand(q)
        w = vals * r * r * dr * (2.0 / n_mu) * (TWO_PI / n_phi)
        return float(np.sum(w))

    n_mu, n_phi, n_y = base
    levels = [one_level(n_mu * s, n_phi * s, n_y * s) for s in (1, 2, 4)]
    a = (4.0 * levels[1] - levels[0]) / 3.0
    b = (4.0 * levels[2] - levels[1]) / 3.0
    return (16.0 * b - a) / 15.0, abs(b - a)


def pi_point_roots(gamma: float, mu: float):
    """Exact shifted eigenvalues at the corner momentum for v = 1.

    There the fiber dispersion is identically 12, so the determinant
    condition collapses to the quadratic (w0 - z)(12 - z) = mu^2 (2pi)^3
    with w0 = gamma + 6.  Returns (below, above).  The root of smaller
    magnitude comes from the product of the roots, so neither cancels at
    large |gamma|."""
    w0 = gamma + 6.0
    s = w0 + 12.0
    product = 12.0 * w0 - mu * mu * TWO_PI ** 3
    root = np.sqrt((w0 - 12.0) ** 2 + 4.0 * mu * mu * TWO_PI ** 3)
    if s >= 0.0:
        above = 0.5 * (s + root)
        return product / above, above
    below = 0.5 * (s - root)
    return below, product / below
