"""Cross-check determinant roots against a direct matrix discretization.

Replacing the integral fiber operator by its arrowhead matrix on an
n^3 midpoint grid gives an independent eigenvalue route: one scalar row
and column coupled to a diagonal.  Its extreme eigenvalues converge to
the determinant roots as the grid refines; the table below shows the
error shrinking far faster than the n^-2 floor.
"""

import argparse

import numpy as np

from friedrichs3d import (
    ModelParams,
    discretize,
    extreme_eigenvalues,
    find_discrete_spectrum,
    parse_v,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=-2.0)
    ap.add_argument("--mu", type=float, default=0.6)
    ap.add_argument("--v", default="cos(p1) + 0.5")
    ap.add_argument("--k", default="0.5,0.1,-0.8")
    args = ap.parse_args()

    v = parse_v(args.v)
    k = [float(x) for x in args.k.split(",")]
    params = ModelParams(gamma=args.gamma, mu=args.mu)

    window = find_discrete_spectrum(params, v, k)
    if window.eigen_below is None:
        raise SystemExit("no state below the band for these parameters; try gamma < 0")
    print("determinant root below the band: %.12f" % window.eigen_below)
    print("%6s %18s %12s %8s" % ("n", "arrowhead lowest", "error", "order"))
    prev = None
    for n in (4, 8, 16, 32):
        low, _ = extreme_eigenvalues(discretize(params, v, k, n))
        err = abs(low - window.eigen_below)
        order = "" if prev is None or err == 0.0 else "%.2f" % np.log2(prev / err)
        print("%6d %18.12f %12.3e %8s" % (n, low, err, order))
        prev = err


if __name__ == "__main__":
    main()
