"""Walk the band edges along a path through the distinguished momenta.

The two-particle dispersion p -> eps(k+p) + eps(p) + eps(k) fills, for
each total quasi-momentum k, the interval [m(k), M(k)] given in closed
form by the library.  This script traces that interval along a straight
path 0 -> Lambda corner -> pi-corner and prints the exact values at the
three anchors.
"""

import argparse

import numpy as np

from friedrichs3d import ORIGIN, PI_POINT, band_endpoints, lambda_point, reduce_coords


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=12, help="samples per path segment")
    args = ap.parse_args()

    corner = lambda_point(8)  # all coordinates +2pi/3
    anchors = [("origin", ORIGIN), ("lambda corner", corner), ("pi corner", PI_POINT)]

    print("%-28s %12s %12s %12s" % ("k", "m(k)", "M(k)", "width"))
    for (name0, p0), (name1, p1) in zip(anchors[:-1], anchors[1:]):
        a = np.array(p0)
        b = np.array(p1)
        for t in np.linspace(0.0, 1.0, args.steps, endpoint=False):
            k = reduce_coords(a + t * (b - a))
            lo, hi = band_endpoints(k)
            tag = name0 if t == 0.0 else ""
            print("%-28s %12.8f %12.8f %12.8f" % (tag or np.array2string(k, precision=3), lo, hi, hi - lo))
    lo, hi = band_endpoints(PI_POINT)
    print("%-28s %12.8f %12.8f %12.8f" % ("pi corner", lo, hi, hi - lo))

    print()
    print("anchor values (exact):")
    for name, p in anchors:
        lo, hi = band_endpoints(p)
        print("  %-14s m = %-8g M = %g" % (name, lo, hi))
    print("every fiber interval contains 12; their union is [0, 13.5].")


if __name__ == "__main__":
    main()
