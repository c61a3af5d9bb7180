"""Eigenvalue or virtual level: the four canonical threshold cases.

Exactly at a critical coupling the determinant vanishes at the band
edge and the candidate pair (f0, f1) with f1 = -mu v / (w1 - z0) solves
the eigen-system formally.  Whether it is square-integrable depends
only on whether v vanishes at the singular momentum: near the origin
f1 ~ 1/|q|^2 (never integrable there unless v(0) = 0), near a corner
f1 ~ 1/|q - q0|^2 likewise.  Four coupling functions realize all four
(origin, corner) combinations.
"""

from friedrichs3d import (
    ModelParams,
    classify_threshold,
    fredholm_delta_threshold,
    mu_left,
    mu_right,
    parse_v,
)

CASES = [
    "1",
    "cos(p1) + 0.5",
    "1 - cos(p1)",
    "(1 - cos(p1)) * (cos(p1) + 0.5)",
]


def main():
    gamma = 2.0
    print("gamma = %g, classification at the matched critical coupling" % gamma)
    print("%-34s %-16s %-16s" % ("v", "origin", "corner lambda:1"))
    for text in CASES:
        v = parse_v(text)
        row = []
        for point, mu_c in (
            ("origin", mu_left(gamma, v)),
            ("lambda:1", mu_right(gamma, 1, v)),
        ):
            params = ModelParams(gamma=gamma, mu=mu_c)
            rep = classify_threshold(params, v, point)
            slope = 2.0 * rep.local_exponent - 1.0
            tag = "%s (s=%+.2f)" % (rep.verdict, slope)
            if rep.verdict == "eigenvalue":
                tag += " r=%.0e" % abs(fredholm_delta_threshold(params, v, point))
            row.append(tag)
        print("%-34s %-16s %-16s" % (text, row[0], row[1]))

    print()
    print("s = 2q - 1 comes from the exact vanishing order q of v at the")
    print("point: -1 marks a virtual level, s >= +1 a genuine edge eigenvalue.")
    print("r is the determinant at the threshold, the residual of the pair's")
    print("first row.")


if __name__ == "__main__":
    main()
