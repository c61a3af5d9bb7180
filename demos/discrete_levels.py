"""Watch discrete levels detach from the band as the coupling grows.

At a fixed total quasi-momentum the fiber operator keeps its essential
spectrum [m, M] for every coupling strength, but zeros of the Fredholm
determinant peel off below and above once the edge limits change sign.
At the pi corner the roots obey an exact quadratic, which the script
prints next to the solver output as a correctness witness.
"""

import argparse

import numpy as np

from friedrichs3d import ModelParams, PI_POINT, find_discrete_spectrum, parse_v, reduce_coords


def corner_roots(gamma: float, mu: float):
    w0 = gamma + 6.0
    disc = (w0 - 12.0) ** 2 + 4.0 * mu * mu * (2.0 * np.pi) ** 3
    r = np.sqrt(disc)
    return 0.5 * (w0 + 12.0 - r), 0.5 * (w0 + 12.0 + r)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=2.0)
    ap.add_argument("--v", default="1")
    ap.add_argument("--k", default="0.7,0.2,-0.4", help="comma separated momentum")
    args = ap.parse_args()

    v = parse_v(args.v)
    k = reduce_coords([float(x) for x in args.k.split(",")])

    print("fiber at k = %s, gamma = %g, v = %s" % (np.round(k, 3), args.gamma, args.v))
    print("%8s %14s %14s %10s %10s" % ("mu", "below", "above", "m", "M"))
    for mu in (0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6):
        w = find_discrete_spectrum(ModelParams(gamma=args.gamma, mu=mu), v, k)
        print(
            "%8.3f %14s %14s %10.5f %10.5f"
            % (
                mu,
                "-" if w.eigen_below is None else "%.8f" % w.eigen_below,
                "-" if w.eigen_above is None else "%.8f" % w.eigen_above,
                w.m,
                w.M,
            )
        )

    if v.is_zero or args.v.strip() == "1":
        print()
        print("corner check (closed form vs solver), mu = 0.4:")
        w = find_discrete_spectrum(ModelParams(gamma=args.gamma, mu=0.4), parse_v("1"), PI_POINT)
        exact = corner_roots(args.gamma, 0.4)
        print("  solver: below %.12f  above %.12f" % (w.eigen_below, w.eigen_above))
        print("  exact:  below %.12f  above %.12f" % exact)


if __name__ == "__main__":
    main()
