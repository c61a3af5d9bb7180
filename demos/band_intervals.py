"""Assemble the full spectral picture over the momentum torus.

Sampling every fiber on a coarse momentum grid (plus the distinguished
points, plus automatic refinement where branches detach) and merging
the fiber data produces the global spectrum as a union of at most three
intervals: an optional overhang below, the essential band [0, 13.5],
and an optional overhang above.
"""

import argparse

from friedrichs3d import ModelParams, assemble_bands, branch_extrema, parse_v


def describe(structure):
    print("  intervals:")
    for a, b in structure.intervals:
        print("    [%.9f, %.9f]" % (a, b))
    for side in ("below", "above"):
        ext = branch_extrema(structure, side)
        if ext is None:
            print("  no discrete branch %s the band" % side)
            continue
        lo, hi, arg_lo, arg_hi = ext
        print(
            "  branch %s: range [%.6f, %.6f], deepest at k = %s"
            % (side, lo, hi, tuple(round(c, 4) for c in arg_lo))
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution", type=int, default=6)
    ap.add_argument("--v", default="1")
    args = ap.parse_args()

    v = parse_v(args.v)
    for gamma, mu in ((6.0, 1e-6), (-1.5, 0.5), (8.0, 0.3), (11.0, 0.9)):
        print("gamma = %g, mu = %g:" % (gamma, mu))
        structure = assemble_bands(ModelParams(gamma=gamma, mu=mu), v, args.resolution)
        describe(structure)
        print()


if __name__ == "__main__":
    main()
