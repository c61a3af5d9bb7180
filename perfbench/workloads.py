"""Seeded inputs and output checks for the three workloads.

A workload is a sequence of rounds; a round is a fixed list of op slots,
so every run attempts the same mix of operations whatever its seed and
length.  Each op is one user task: one CLI invocation (argv for
``friedrichs3d.cli.main``), or three for a threshold study, with a fresh
form factor v drawn from the run's random stream, plus a check that judges
the reports with the independent computations of ``reference``.  A check
returns None when the output is right, or a one-line reason when it is
wrong.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

EDGE_MARGIN = 1e-6  # the solver reports a root closer than this at the margin
ROOT_RTOL = 1e-9  # exact roots: solver bisection goes to 1e-10
INTEGRAL_RTOL = 1e-8  # the reference threshold integrals agree with the program to ~1e-11
POLAR_RTOL = 2e-3  # the graded polar oracle is a ~1e-4 route check
FAR_FIELD_REASON = (
    "ResolventKernel far-field fault: 32 Gauss nodes on the first Laplace panel [0, 1] "
    "cannot resolve exp(-delta s) for a root 400 or more from the band"
)


@dataclass
class Op:
    """One user task: one or more CLI invocations judged together.

    `plan(outputs)` gives the next argv from the (code, stdout) pairs of
    the invocations so far, or None when the task is complete.
    """

    kind: str
    plan: Callable
    check: Callable  # (list of (code, stdout)) -> None or reason
    known_fault: Callable | None = None  # (outputs) -> True when a failure is the known fault
    untimed: tuple = ()  # argv lists run after the op, untimed; their outputs follow in `outputs`

    def verdict(self, outputs):
        """(reason, known): reason is None when the outputs are right; known
        is True when they are wrong in exactly the way of the known fault."""
        reason = self.check(outputs)
        known = reason is not None and self.known_fault is not None and bool(self.known_fault(outputs))
        return reason, known


def single(argv):
    """Plan of a one-invocation op."""
    return lambda outputs: None if outputs else argv


def _fmt(x: float) -> str:
    return repr(float(x))


def _k_arg(k) -> str:
    return ",".join(_fmt(x) for x in k)


def _report(outputs, i):
    code, text = outputs[i]
    if code != 0:
        return None, "invocation %d exited %d" % (i, code)
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, "invocation %d printed no JSON report: %s" % (i, exc)


def _close(got, want, rtol) -> bool:
    return got is not None and abs(got - want) <= rtol * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# form factors
# ---------------------------------------------------------------------------


def _product(a, b):
    """Term-list product of two FormFactor term lists (factors just concatenate)."""
    return [(ca * cb, fa + fb) for ca, fa in a for cb, fb in b]


def random_form_factor(rng, symmetric: bool) -> ref.FormFactor:
    """A generic v with a fixed shape and random axes and coefficients.

    v = a0 + a1 cos(p_i) + a2 h(2 p_j) + a3 cos(p_j) cos(p_k), with (i, j, k)
    a random permutation of the axes and h = cos when `symmetric` (then
    v(-p) = v(p)) or sin otherwise.  The shape fixes the number of Fourier
    modes of v^2, which sets the cost of a kernel build, so ops of one slot
    cost alike whatever the seed.
    """
    i, j, k = (int(a) for a in rng.permutation(3))
    signs = np.where(rng.integers(2, size=3) == 1, 1.0, -1.0)
    a = signs * rng.uniform(0.1, 0.35, size=3)
    return ref.FormFactor([
        (rng.uniform(0.6, 1.1), ()),
        (a[0], (("cos", 1, i),)),
        (a[1], (("cos" if symmetric else "sin", 2, j),)),
        (a[2], (("cos", 1, j), ("cos", 1, k))),
    ])


def _one_minus_cos(axis, a=1.0):
    return [(a, ()), (-a, (("cos", 1, axis),))]


def _cos_plus_half(axis, a=1.0):
    return [(a, (("cos", 1, axis),)), (0.5 * a, ())]


def threshold_form_factor(family: str, lam: int, rng) -> ref.FormFactor:
    """v built to vanish, or not, at the origin and at the Lambda point `lam`.

    constant     v = c                        nonzero at both
    zero_origin  sum a_j (1 - cos p_j) + b sin p_i sin p_j  zero at 0 only
    zero_lambda  sum a_j (cos p_j + 1/2) + b (sin p_j' - sin L_j')
                                               zero at Lambda_lam only
    zero_both    a (1 - cos p_i)(cos p_j + 1/2) + b (1 - cos p_l)(cos p_l + 1/2)
    """
    point = ref.lambda_point(lam)
    if family == "constant":
        return ref.FormFactor([(rng.uniform(0.5, 1.5), ())])
    if family == "zero_origin":
        terms = []
        for axis in range(3):
            terms += _one_minus_cos(axis, rng.uniform(0.3, 1.0))
        i, j = (int(a) for a in rng.choice(3, size=2, replace=False))
        terms.append((rng.uniform(-0.3, 0.3), (("sin", 1, i), ("sin", 1, j))))
        return ref.FormFactor(terms)
    if family == "zero_lambda":
        terms = []
        for axis in range(3):
            terms += _cos_plus_half(axis, rng.uniform(0.3, 1.0))
        axis = int(rng.integers(3))
        b = rng.uniform(-0.3, 0.3)
        terms += [(b, (("sin", 1, axis),)), (-b * math.sin(point[axis]), ())]
        return ref.FormFactor(terms)
    if family == "zero_both":
        i, j, l = (int(a) for a in rng.permutation(3))
        a, b = rng.uniform(0.5, 1.2), rng.uniform(-0.6, 0.6)
        terms = _product(_one_minus_cos(i, a), _cos_plus_half(j))
        terms += _product(_one_minus_cos(l, b), _cos_plus_half(l))
        return ref.FormFactor(terms)
    raise ValueError("unknown family %r" % family)


# ---------------------------------------------------------------------------
# fiber: single-fiber reports
# ---------------------------------------------------------------------------

PI_K = (math.pi, math.pi, math.pi)
PI_VOLUME = (2.0 * math.pi) ** 3
NEAR_BAND_SEED = 7000  # the near-band inputs come from this seed plus the round index


def _check_corner(gamma, mu, c, pinched_side=None):
    """Roots at k = (pi,pi,pi) for constant v against the exact quadratic."""
    exact = ref.pi_point_roots(gamma, mu, c)

    def check(outputs):
        rep, err = _report(outputs, 0)
        if err:
            return err
        res = rep["results"]
        for side, want in zip(("below", "above"), exact):
            got = res["eigen_" + side]
            if side == pinched_side:
                ok = got is not None and abs(got - want) <= EDGE_MARGIN + 1e-9
                ok = ok and (got < 12.0 if side == "below" else got > 12.0)
            else:
                ok = _close(got, want, ROOT_RTOL)
            if not ok:
                return "eigen_%s = %r, exact quadratic root %r" % (side, got, want)
        return None

    return check


def _far_field_fault(gamma, mu, c):
    """The signature of the ResolventKernel far-field fault at k = (pi,pi,pi).

    The report exits 0 with both roots, and each lies between the band and
    its exact root, off by 1e-6 to 1e-2 relative: the kernel underestimates
    the integral far from the band.  Any other failure (a crash, an exit
    code, a missing or misplaced root) is not this fault.
    """
    exact = ref.pi_point_roots(gamma, mu, c)
    m, M = ref.band_edges(PI_K)

    def is_fault(outputs):
        rep, err = _report(outputs, 0)
        if err or not isinstance(rep, dict):
            return False
        res = rep.get("results") or {}
        for side, want, edge in (("below", exact[0], m), ("above", exact[1], M)):
            got = res.get("eigen_" + side)
            if not isinstance(got, float) or not min(edge, want) < got < max(edge, want):
                return False
            if not 1e-6 <= abs(got - want) / abs(want) <= 1e-2:
                return False
        return True

    return is_fault


def _check_sign_changes(v, k, gamma, mu, verify=False):
    """Both roots are reported and each flips the sign of the trapezoid determinant."""

    def check(outputs):
        rep, err = _report(outputs, 0)
        if err:
            return err
        res = rep["results"]
        m, M = ref.band_edges(k)
        if abs(res["m"] - m) > 1e-12 or abs(res["M"] - M) > 1e-12:
            return "band edges (%r, %r), closed form (%r, %r)" % (res["m"], res["M"], m, M)
        if verify and res.get("agreement") is not True:
            return "verify reported agreement %r" % res.get("agreement")
        roots = [(s, res["eigen_" + s]) for s in ("below", "above")]
        for side, z in roots:
            if z is None:
                return "no eigenvalue %s the band where one was placed" % side
        dist = min(m - z if s == "below" else z - M for s, z in roots)
        if dist <= 0.0:
            return "an eigenvalue lies inside the band"
        det = ref.TrapezoidDeterminant(v, k, gamma, mu, ref.trapezoid_points(k, dist))
        for side, z in roots:
            if not ref.brackets_root(det, z):
                return "determinant keeps its sign across eigen_%s = %r" % (side, z)
        return None

    return check


def _placed_root(rng, v, k, dist_range, other_gap_range):
    """(gamma, mu) placing a root at a log-uniform distance from the band.

    w0 sits on the other side of the band, so the second root exists
    too and lies at least the drawn gap away.  mu comes from a coarse
    trapezoid J at the target, so the root lands near it, not on it.
    """
    m, M = ref.band_edges(k)
    side = ("below", "above")[int(rng.integers(2))]
    dist = math.exp(rng.uniform(*(math.log(d) for d in dist_range)))
    gap = rng.uniform(*other_gap_range)
    if side == "below":
        z, w0 = m - dist, M + gap
    else:
        z, w0 = M + dist, m - gap
    gamma = w0 - ref.eps(k)
    coarse = ref.TrapezoidDeterminant(v, k, gamma, 1.0, ref.trapezoid_points(k, dist, 12.0))
    return gamma, math.sqrt((w0 - z) / coarse.integral(z))


def _argv(command, **options):
    """CLI argv with --name=value pairs, so values starting with '-' stay values."""
    return [command] + ["--%s=%s" % (name.replace("_", "-"), value) for name, value in options.items()]


def _spectrum_argv(gamma, mu, v_expr, k, command="spectrum"):
    return _argv(command, gamma=_fmt(gamma), mu=_fmt(mu), v=v_expr, k=_k_arg(k))


def fiber_round(rng, round_index: int):
    """Nine ops: two corner fibers, three placed roots, one near band, two verify, one far field."""
    ops = []

    # corner, pinched: one root closer to the band than the edge margin
    c = rng.uniform(0.5, 1.5)
    g = rng.uniform(2.0, 20.0) * (1.0 if rng.integers(2) else -1.0)
    d = math.exp(rng.uniform(math.log(1e-8), math.log(8e-7)))
    mu = math.sqrt(d * (d + abs(g)) / PI_VOLUME) / c
    gamma = 12.0 + g - 6.0
    ops.append(Op("corner_pinched", single(_spectrum_argv(gamma, mu, "%.17g" % c, PI_K)),
                  _check_corner(gamma, mu, c, "below" if g > 0 else "above")))

    # corner, root 0.1 to 80 from the band
    c = rng.uniform(0.5, 1.5)
    g = rng.uniform(-10.0, 10.0)
    d = math.exp(rng.uniform(math.log(0.1), math.log(80.0)))
    mu = math.sqrt(d * (d + abs(g)) / PI_VOLUME) / c
    gamma = 12.0 + g - 6.0
    ops.append(Op("corner", single(_spectrum_argv(gamma, mu, "%.17g" % c, PI_K)),
                  _check_corner(gamma, mu, c)))

    # generic k and v, a root placed near, mid and far from the band
    for dist_range, symmetric in (((0.5, 1.0), True), ((1.0, 10.0), False), ((10.0, 60.0), True)):
        v = random_form_factor(rng, symmetric)
        k = tuple(rng.uniform(-math.pi, math.pi, size=3))
        gamma, mu = _placed_root(rng, v, k, dist_range, (0.5, 5.0))
        ops.append(Op("spectrum", single(_spectrum_argv(gamma, mu, v.expression(), k)),
                      _check_sign_changes(v, k, gamma, mu)))

    # near band: a root 0.13 to 0.16 from the band, where the audit refines
    # its grid once more on most k (8x the points, about 5x the op time and
    # 40 MB more memory).  Which k refine cannot be foreseen, so the inputs
    # follow the round index only, never the seed: every run has the same
    # eight near-band ops, and their cost is the same share of every run.
    fixed = np.random.default_rng(NEAR_BAND_SEED + round_index % 8)
    v = random_form_factor(fixed, True)
    k = tuple(fixed.uniform(-math.pi, math.pi, size=3))
    gamma, mu = _placed_root(fixed, v, k, (0.13, 0.16), (0.5, 5.0))
    ops.append(Op("near_band", single(_spectrum_argv(gamma, mu, v.expression(), k)),
                  _check_sign_changes(v, k, gamma, mu)))

    # verify on the 8,16,32 grid ladder: both roots at least 1 from the band
    for symmetric in (True, False):
        v = random_form_factor(rng, symmetric)
        k = tuple(rng.uniform(-math.pi, math.pi, size=3))
        gamma, mu = _placed_root(rng, v, k, (1.0, 20.0), (1.0, 5.0))
        argv = _spectrum_argv(gamma, mu, v.expression(), k, "verify") + ["--grids=8,16,32"]
        ops.append(Op("verify", single(argv),
                      _check_sign_changes(v, k, gamma, mu, verify=True)))

    # far field: roots about 470 c from the band.  Inputs follow the round
    # index only, never the seed, so the known fault fails the same share of
    # every run.
    c = 1.0 + 0.05 * (round_index % 8)
    ops.append(Op("far_field", single(_spectrum_argv(-2.0, 30.0, "%.17g" % c, PI_K)),
                  _check_corner(-2.0, 30.0, c), known_fault=_far_field_fault(-2.0, 30.0, c)))
    return ops


# ---------------------------------------------------------------------------
# bands: band assembly at resolution 8
# ---------------------------------------------------------------------------

BAND_REGIMES = (
    # (name, gamma range, mu range, v symmetric): branch below everywhere;
    # branch above everywhere; both branches detach inside the grid, so the
    # refinement pass runs.  Two of three v are reflection symmetric, so an
    # octant-symmetry solver has work to save.
    ("below", (-2.0, -1.0), (0.05, 0.2), True),
    ("above", (13.0, 15.0), (0.05, 0.2), False),
    ("detach", (2.5, 3.5), (0.05, 0.15), True),
)
BAND_RESOLUTION = 8
BAND_ROOT_SAMPLES = 2


def _parse_band_rows(text):
    lines = text.strip().split("\n")
    if lines[0] != "k1,k2,k3,m,M,eigen_below,eigen_above":
        raise ValueError("unexpected CSV header %r" % lines[0])
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        vals = [float(x) if x else None for x in cells]
        rows.append((tuple(vals[:3]), vals[3], vals[4], vals[5], vals[6]))
    return rows


def _check_intervals(outputs, rows):
    """The program's merged intervals (the JSON twin of a CSV op) hold
    [0, 27/2] and the range of each branch the CSV rows report."""
    rep, err = _report(outputs, 1)
    if err:
        return "JSON twin: " + err
    res = rep.get("results") or {}
    intervals = res.get("intervals") or []
    if res.get("interval_count") != len(intervals):
        return "interval_count %r for %d intervals" % (res.get("interval_count"), len(intervals))
    spans = [("essential band", 0.0, 13.5)]
    for i, side in ((3, "below"), (4, "above")):
        vals = [r[i] for r in rows if r[i] is not None]
        if vals:
            spans.append(("branch " + side, min(vals), max(vals)))
    for name, lo, hi in spans:
        if not any(a <= lo and hi <= b for a, b in intervals):
            return "merged intervals %r do not contain the %s [%r, %r]" % (intervals, name, lo, hi)
    return None


def _check_bands(v, gamma, mu, sample_seed):
    """Rows against the closed-form edges, plus sign changes at a few seeded rows."""

    def check(outputs):
        code, text = outputs[0]
        if code != 0:
            return "bands exited %d" % code
        try:
            rows = _parse_band_rows(text)
        except (ValueError, IndexError) as exc:
            return "unreadable bands CSV: %s" % exc
        base = BAND_RESOLUTION ** 3 + 10
        if len(rows) < base or len({r[0] for r in rows}) != len(rows):
            return "%d rows, expected %d or more distinct fibers" % (len(rows), base)
        for k, m, M, below, above in rows:
            m_ref, M_ref = ref.band_edges(k)
            if abs(m - m_ref) > 1e-12 or abs(M - M_ref) > 1e-12:
                return "row k=%r: (m, M) = (%r, %r), closed form (%r, %r)" % (k, m, M, m_ref, M_ref)
            if below is not None and not below < m:
                return "row k=%r: eigen_below %r is not below m %r" % (k, below, m)
            if above is not None and not above > M:
                return "row k=%r: eigen_above %r is not above M %r" % (k, above, M)
        # the origin (m = 0) and the Lambda points (M = 27/2) are sampled, so
        # the merged spectrum contains the whole essential band [0, 27/2]
        if abs(min(r[1] for r in rows)) > 1e-12 or abs(max(r[2] for r in rows) - 13.5) > 1e-12:
            return "sampled fiber bands do not span [0, 27/2]"
        if len(outputs) > 1:
            reason = _check_intervals(outputs, rows)
            if reason:
                return reason
        # sign changes of the trapezoid determinant at a few seeded rows
        candidates = []
        for k, m, M, below, above in rows:
            for side, z in (("below", below), ("above", above)):
                if z is not None:
                    dist = m - z if side == "below" else z - M
                    if 0.1 <= dist <= 60.0:
                        candidates.append((k, z, dist, side))
        n = min(len(candidates), BAND_ROOT_SAMPLES)
        for i in np.random.default_rng(sample_seed).choice(len(candidates), size=n, replace=False):
            k, z, dist, side = candidates[i]
            det = ref.TrapezoidDeterminant(v, k, gamma, mu, ref.trapezoid_points(k, dist))
            if not ref.brackets_root(det, z):
                return "row k=%r: determinant keeps its sign across eigen_%s = %r" % (k, side, z)
        return None

    return check


def bands_round(rng, round_index: int):
    """Three ops, one per (gamma, mu) regime, each with a fresh v.

    The CSV report carries the rows but not the merged intervals, so one op
    per round, its regime cycling with the round index, is run once more
    with --format=json, untimed, and its intervals are checked too.  A twin
    for every op would halve the timed ops of a run.
    """
    ops = []
    for index, (name, gamma_range, mu_range, symmetric) in enumerate(BAND_REGIMES):
        v = random_form_factor(rng, symmetric)
        gamma = rng.uniform(*gamma_range)
        mu = rng.uniform(*mu_range)
        sample_seed = int(rng.integers(2 ** 32))
        options = dict(gamma=_fmt(gamma), mu=_fmt(mu), v=v.expression(), resolution=BAND_RESOLUTION)
        twin = (_argv("bands", format="json", **options),) if index == round_index % len(BAND_REGIMES) else ()
        ops.append(Op("bands_" + name, single(_argv("bands", format="csv", **options)),
                      _check_bands(v, gamma, mu, sample_seed), untimed=twin))
    return ops


# ---------------------------------------------------------------------------
# threshold: scan-gamma plus classify at both thresholds
# ---------------------------------------------------------------------------

THRESHOLD_FAMILIES = ("constant", "zero_origin", "zero_lambda", "zero_both")
SCAN_WINDOW = (0.1, 8.9)
SCAN_SAMPLES = 16


def _check_threshold(v, lam, row_index):
    """Scan rows and gamma_star against reference integrals; verdicts against the theorem.

    Constant v: int v^2/den = c^2 (2pi)^3 W / 3 at both thresholds, W from
    its Gamma-product closed form.  Otherwise the lattice Green function
    sum, plus the polar oracle as a coarse second route.
    """
    origin = (0.0, 0.0, 0.0)
    point = ref.lambda_point(lam)
    if v.is_constant:
        i_min = i_max = v.terms[0][0] ** 2 * ref.inverse_eps_integral()
    else:
        i_min, i_max = ref.threshold_integral(v, origin), ref.threshold_integral(v, point)
    star = 9.0 * i_min / (2.0 * i_max + i_min)
    zero_at = {"origin": abs(v.at(origin)) < 1e-12, "lambda": abs(v.at(point)) < 1e-12}

    def check(outputs):
        scan, err = _report(outputs, 0)
        if err:
            return err
        res = scan["results"]
        if res["crossing_matches_star"] is not True:
            return "scan-gamma crossing_matches_star is %r" % res["crossing_matches_star"]
        if not _close(res["gamma_star"], star, INTEGRAL_RTOL):
            return "gamma_star %r, reference %r" % (res["gamma_star"], star)
        for g, left, right, _sign in res["rows"]:
            if not _close(left, math.sqrt(2.0 * g / i_min), INTEGRAL_RTOL):
                return "mu_left(%r) = %r, reference %r" % (g, left, math.sqrt(2.0 * g / i_min))
            if not _close(right, math.sqrt((9.0 - g) / i_max), INTEGRAL_RTOL):
                return "mu_right(%r) = %r, reference %r" % (g, right, math.sqrt((9.0 - g) / i_max))
        for which in (0, 1):
            rep, err = _report(outputs, 1 + which)
            if err:
                return err
            res = rep["results"]
            label = ("origin", "lambda")[which]
            want = "eigenvalue" if zero_at[label] else "virtual_level"
            if res["verdict"] != want or res["in_l2"] is not zero_at[label]:
                return "%s: verdict %r in_l2 %r, theorem gives %r in_l2 %r" % (
                    label, res["verdict"], res["in_l2"], want, zero_at[label])
        return None

    def polar_check(outputs):
        # coarse second route: the graded polar oracle of the test suite
        scan, _ = _report(outputs, 0)
        g, left, right, _ = scan["results"]["rows"][row_index]
        for got, p in ((2.0 * g / left ** 2, origin), ((9.0 - g) / right ** 2, point)):
            want = ref.polar_threshold_integral(v, p)
            if abs(got - want) > POLAR_RTOL * abs(want):
                return "threshold integral %r, polar oracle %r" % (got, want)
        return None

    def both(outputs):
        return check(outputs) or (None if v.is_constant else polar_check(outputs))

    return both


def threshold_round(rng, round_index: int):
    """Four ops, one per v family; each a scan plus two classify reports."""
    ops = []
    for family in THRESHOLD_FAMILIES:
        lam = int(rng.integers(1, 9))
        v = threshold_form_factor(family, lam, rng)
        row = int(rng.integers(SCAN_SAMPLES))
        expr = v.expression()
        scan = _argv("scan-gamma", v=expr, i=lam, gamma_min=_fmt(SCAN_WINDOW[0]),
                     gamma_max=_fmt(SCAN_WINDOW[1]), samples=SCAN_SAMPLES)
        ops.append(Op("threshold_" + family, _threshold_plan(scan, expr, lam, row),
                      _check_threshold(v, lam, row)))
    return ops


def _threshold_plan(scan, expr, lam, row):
    """scan-gamma, then classify at both thresholds at couplings from the scan's own row."""

    def plan(outputs):
        if not outputs:
            return scan
        scan_report, err = _report(outputs, 0)
        if err or len(outputs) == 3:
            return None  # the check reports a failed or unreadable scan
        g, left, right, _ = scan_report["results"]["rows"][row]
        if len(outputs) == 1:
            return _argv("classify", gamma=_fmt(g), mu=_fmt(left), v=expr, point="origin")
        return _argv("classify", gamma=_fmt(g), mu=_fmt(right), v=expr, point="lambda:%d" % lam)

    return plan


WORKLOADS = {
    "fiber": fiber_round,
    "bands": bands_round,
    "threshold": threshold_round,
}
