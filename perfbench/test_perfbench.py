"""Fast tests of the benchmark itself: its checks reject wrong answers.

    python3 -m pytest perfbench -q

Each check is fed a right answer, which it must pass, and a deliberately
wrong one (a root shifted by 1e-6 relative, a flipped verdict, an
integral off by 1e-3), which it must reject.  A smoke run drives the
real program for a fraction of a second.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

V = ref.FormFactor([(0.9, ()), (0.3, (("cos", 1, 0),)), (-0.2, (("sin", 2, 1), ("cos", 1, 2)))])
K = (0.5, 0.1, -0.8)


def _ok(report):
    return [(0, json.dumps(report))]


def _shift(z):
    return z * (1.0 + 1e-6)


def test_watson_closed_form_matches_green_function_at_the_origin():
    assert ref._green_function((0, 0, 0)) == pytest.approx(ref.watson_constant() / 3.0, rel=1e-13)
    assert ref.watson_constant() == pytest.approx(1.516386059151978018, rel=1e-15)


def test_band_edges_match_a_brute_scan():
    g = np.linspace(-math.pi, math.pi, 241)
    axes = [2.0 - np.cos(k + g) - np.cos(g) for k in K]
    w1 = ref.eps(K) + axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :]
    m, M = ref.band_edges(K)
    assert m == pytest.approx(w1.min(), abs=1e-3) and M == pytest.approx(w1.max(), abs=1e-3)
    assert m <= w1.min() and M >= w1.max()


def test_threshold_reference_matches_polar_oracle():
    v = wl.threshold_form_factor("zero_lambda", 3, np.random.default_rng(0))
    point = ref.lambda_point(3)
    assert abs(v.at(point)) < 1e-12
    assert ref.threshold_integral(v, point) == pytest.approx(
        ref.polar_threshold_integral(v, point), rel=wl.POLAR_RTOL)


def test_corner_check_rejects_shifted_root():
    gamma, mu, c = -2.0, 0.6, 0.8
    below, above = ref.pi_point_roots(gamma, mu, c)
    check = wl._check_corner(gamma, mu, c)
    assert check(_ok({"results": {"eigen_below": below, "eigen_above": above}})) is None
    assert check(_ok({"results": {"eigen_below": _shift(below), "eigen_above": above}}))
    assert check(_ok({"results": {"eigen_below": below, "eigen_above": None}}))
    assert check([(3, "")])


def test_pinched_corner_check_allows_the_margin_only():
    check = wl._check_corner(4.0, 1e-5, 1.0, "above")
    below, above = ref.pi_point_roots(4.0, 1e-5, 1.0)
    assert above - 12.0 < wl.EDGE_MARGIN
    clamped = 12.0 + wl.EDGE_MARGIN
    assert check(_ok({"results": {"eigen_below": below, "eigen_above": clamped}})) is None
    assert check(_ok({"results": {"eigen_below": below, "eigen_above": 12.0 + 3 * wl.EDGE_MARGIN}}))


def _true_roots(gamma, mu):
    m, M = ref.band_edges(K)
    det = ref.TrapezoidDeterminant(V, K, gamma, mu, 96)
    below = brentq(det.delta, m - 200.0, m - 0.05, xtol=1e-14, rtol=1e-15)
    above = brentq(det.delta, M + 0.05, M + 200.0, xtol=1e-14, rtol=1e-15)
    return m, M, below, above


def test_sign_change_check_rejects_shifted_root():
    gamma, mu = 8.0, 2.0
    m, M, below, above = _true_roots(gamma, mu)
    check = wl._check_sign_changes(V, K, gamma, mu)

    def report(b, a):
        return _ok({"results": {"m": m, "M": M, "eigen_below": b, "eigen_above": a}})

    assert check(report(below, above)) is None
    assert check(report(_shift(below), above))
    assert check(report(below, _shift(above)))
    assert check(report(below, None))


def test_verify_check_needs_agreement():
    gamma, mu = 8.0, 2.0
    m, M, below, above = _true_roots(gamma, mu)
    check = wl._check_sign_changes(V, K, gamma, mu, verify=True)
    base = {"m": m, "M": M, "eigen_below": below, "eigen_above": above}
    assert check(_ok({"results": dict(base, agreement=True)})) is None
    assert check(_ok({"results": dict(base, agreement=False)}))


def _band_csv(rows):
    lines = ["k1,k2,k3,m,M,eigen_below,eigen_above"]
    for k, m, M, b, a in rows:
        lines.append(",".join("" if x is None else repr(float(x)) for x in (*k, m, M, b, a)))
    return "\n".join(lines) + "\n"


def test_bands_check_rejects_wrong_rows():
    gamma, mu = 8.0, 2.0
    g = -math.pi + (np.arange(8) + 0.5) * (2 * math.pi / 8)
    points = [(a, b, c) for a in g for b in g for c in g]
    points += [(0.0, 0.0, 0.0), (math.pi,) * 3] + [ref.lambda_point(i) for i in range(1, 9)]
    rows = [(k, *ref.band_edges(k), None, None) for k in points]
    m, M, below, above = _true_roots(gamma, mu)
    rows.append((K, m, M, below, above))
    check = wl._check_bands(V, gamma, mu, sample_seed=0)  # two candidates: both sampled
    assert check([(0, _band_csv(rows))]) is None

    bad_edge = list(rows)
    k, m0, M0, _b, _a = bad_edge[3]
    bad_edge[3] = (k, m0 + 1e-9, M0, None, None)
    assert check([(0, _band_csv(bad_edge))])

    inside = list(rows)
    inside[5] = (inside[5][0], inside[5][1], inside[5][2], inside[5][1] + 0.1, None)
    assert check([(0, _band_csv(inside))])

    shifted = rows[:-1] + [(K, m, M, _shift(below), above)]
    assert check([(0, _band_csv(shifted))])

    def twin(intervals):
        return [(0, _band_csv(rows)),
                (0, json.dumps({"results": {"intervals": intervals, "interval_count": len(intervals)}}))]

    assert check(twin([[below, 13.5], [above, above]])) is None
    assert check(twin([[0.0, 13.5], [below, below]]))  # misses the branch above
    assert check(twin([[below, 13.4], [above, above]]))  # cuts the essential band
    assert check(twin([[below, 6.0], [6.5, 13.5], [above, above]]))  # splits it
    assert check([(0, _band_csv(rows)), (3, "")])


def _threshold_outputs(v, lam, row, i_min, i_max, verdicts):
    gammas = np.linspace(wl.SCAN_WINDOW[0], wl.SCAN_WINDOW[1], wl.SCAN_SAMPLES)
    rows = [[float(g), math.sqrt(2 * g / i_min), math.sqrt((9 - g) / i_max), 0.0] for g in gammas]
    star = 9.0 * i_min / (2.0 * i_max + i_min)
    scan = {"results": {"rows": rows, "gamma_star": star, "crossing_matches_star": True}}
    classify = [{"results": {"verdict": verdict, "in_l2": verdict == "eigenvalue"}} for verdict in verdicts]
    return [(0, json.dumps(r)) for r in [scan] + classify]


@pytest.mark.parametrize("family", ["constant", "zero_origin"])
def test_threshold_check_rejects_wrong_integral_and_verdict(family):
    lam, row = 2, 5
    v = wl.threshold_form_factor(family, lam, np.random.default_rng(1))
    i_min = ref.threshold_integral(v, (0.0, 0.0, 0.0))
    i_max = ref.threshold_integral(v, ref.lambda_point(lam))
    right = ("eigenvalue" if family == "zero_origin" else "virtual_level", "virtual_level")
    check = wl._check_threshold(v, lam, row)
    assert check(_threshold_outputs(v, lam, row, i_min, i_max, right)) is None
    assert check(_threshold_outputs(v, lam, row, i_min * (1 + 1e-3), i_max, right))
    assert check(_threshold_outputs(v, lam, row, i_min, i_max * (1 - 1e-3), right))
    flipped = ("virtual_level" if right[0] == "eigenvalue" else "eigenvalue", right[1])
    assert check(_threshold_outputs(v, lam, row, i_min, i_max, flipped))


def test_inputs_follow_the_seed():
    for name, round_fn in wl.WORKLOADS.items():
        plans = [[op.plan([]) for op in round_fn(np.random.default_rng(s), 0)] for s in (5, 5, 6)]
        assert plans[0] == plans[1], name
        assert plans[0] != plans[2], name


def test_far_field_and_near_band_inputs_do_not_follow_the_seed():
    rounds = [wl.fiber_round(np.random.default_rng(s), 3) for s in (1, 2)]
    for kind in ("far_field", "near_band"):
        ops = [op for ops in rounds for op in ops if op.kind == kind]
        assert len(ops) == 2 and ops[0].plan([]) == ops[1].plan([]), kind
    assert all(op.known_fault is not None for ops in rounds for op in ops if op.kind == "far_field")


def _far_field_op(round_index):
    return [op for op in wl.fiber_round(np.random.default_rng(0), round_index) if op.kind == "far_field"][0]


def test_far_field_failure_is_known_only_with_the_fault_signature():
    op = _far_field_op(0)  # gamma -2, mu 30, v = 1
    below, above = ref.pi_point_roots(-2.0, 30.0, 1.0)

    def report(b, a):
        return _ok({"results": {"eigen_below": b, "eigen_above": a}})

    assert op.verdict(report(below, above)) == (None, False)
    # the fault as the program shows it today: both roots pulled toward the band
    reason, known = op.verdict(report(-464.15315257294105, 480.1990693992245))
    assert reason and known
    crashed = [(-1, "")]
    for outputs in (crashed, [(3, "")], [(0, "not json")], report(below, None),
                    report(below * 1.2, above), report(below * 0.9, above), report(below, above * 0.5)):
        reason, known = op.verdict(outputs)
        assert reason and not known, outputs


def test_tracer_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    import friedrichs3d.cli as cli
    import friedrichs3d.quadrature as quadrature
    from spans import Tracer

    main, init = cli.main, quadrature.ResolventKernel.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not main
        cli.main(["spectrum", "--gamma=-2", "--mu=0.6", "--v=1", "--k=0.5,0.1,-0.8", "--output=/dev/null"])
    finally:
        tracer.uninstall()
    assert cli.main is main and quadrature.ResolventKernel.__init__ is init
    summary = tracer.summary()
    assert summary["calls"]["determinant.find_discrete_spectrum"] == 1
    assert summary["calls"]["quadrature.ResolventKernel.__init__"] == 1
    assert 0.0 < summary["cli_main_self"] < summary["seconds"]["cli.main"]


def test_smoke_run_fiber():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fiber", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] % 9 == 0 and result["failed"] * 9 == result["attempted"]
    assert set(result["metrics"]) == {"setup_s", "op_s_p50", "ops_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fiber", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
