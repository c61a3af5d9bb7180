import filecmp
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from friedrichs3d import cli, quadrature
from friedrichs3d.bands import assemble_bands
from friedrichs3d.determinant import ModelParams, find_discrete_spectrum
from friedrichs3d.lattice import band_endpoints
from friedrichs3d.vfunction import parse_v


def test_spectrum_json_round_trip(run_cli):
    code, out, err = run_cli(
        "spectrum", "--gamma", "-2", "--mu", "0.6", "--k", "0.5,0.1,-0.8"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["command"] == "spectrum"
    assert "version" in report
    window = find_discrete_spectrum(
        ModelParams(gamma=-2.0, mu=0.6), parse_v("1"), [0.5, 0.1, -0.8]
    )
    res = report["results"]
    assert res["eigen_below"] == pytest.approx(window.eigen_below, abs=1e-12)
    assert res["eigen_above"] == pytest.approx(window.eigen_above, abs=1e-12)
    assert res["m"] == pytest.approx(window.m, abs=1e-15)
    # the 2D-grid audit of the transform-kernel root must be tiny
    assert report["diagnostics"]["residuals"]["below"] < 5e-9


def test_spectrum_reports_no_eigenvalue_where_v_vanishes_on_the_minimizer_line(run_cli):
    # v = sin(p2 + k2/2) is zero on the fiber's line of edge minimizers, so
    # both edge limits are finite and neither root exists (the audit gives
    # Delta(m - 2e-6) = +1.78 and Delta(M + 2e-6) = -3.78)
    code, out, err = run_cli(
        "spectrum", "--gamma=5.0", "--mu=0.1", "--v", "0.7316888688738209*sin(p2) + -0.6816387600233341*cos(p2)",
        "--k=3.141592653589793,-1.5,0.7",
    )
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["eigen_below"] is None and results["eigen_above"] is None


def test_a_clamped_root_that_the_audit_refutes_exits_three(run_cli):
    # a nearly frozen axis makes the kernel clamp a root at m - 1e-6 that does
    # not exist (the true root is 0.005476); the audit gives Delta(m - 2e-6) =
    # -27276, which puts no root inside the margin
    code, out, err = run_cli(
        "spectrum", "--gamma=-1.5", "--mu", "0.5", "--v", "0.5 + sin(p1) + 0.7*cos(p2)*sin(p3)",
        "--k=2.98991137800306,3.1415926555897915,3.141593007162261",
    )
    assert code == 3
    assert out == "" and "numerical failure: the audit refutes the root clamped below the band" in err


def test_clamped_roots_at_pinched_corners_pass_the_sign_test(run_cli):
    # constant v = c at k = (pi, pi, pi) with one root 1e-8 to 8e-7 from the
    # band, closer than the margin: the clamped root is kept, unaudited, and
    # the other side's root keeps its residual
    rng = np.random.default_rng(20261020)
    volume = (2.0 * math.pi) ** 3
    for _ in range(200):
        c = rng.uniform(0.5, 1.5)
        g = rng.uniform(2.0, 20.0) * (1.0 if rng.integers(2) else -1.0)
        d = math.exp(rng.uniform(math.log(1e-8), math.log(8e-7)))
        mu = math.sqrt(d * (d + abs(g)) / volume) / c
        code, out, err = run_cli(
            "spectrum", "--gamma=%r" % (6.0 + g), "--mu=%r" % mu, "--v=%r" % c,
            "--k=3.141592653589793,3.141592653589793,3.141592653589793",
        )
        assert code == 0, err
        report = json.loads(out)
        results, diagnostics = report["results"], report["diagnostics"]
        pinched, other = ("below", "above") if g > 0 else ("above", "below")
        edge = results["m"] - 1e-6 if g > 0 else results["M"] + 1e-6
        assert results["eigen_" + pinched] == edge
        assert diagnostics["residuals"][pinched] is None
        assert diagnostics["quadrature_refinements"][pinched] is None
        assert diagnostics["residuals"][other] < 1e-8


def test_spectrum_of_zero_coupling_is_audited_on_no_grid(run_cli):
    # v = 0 leaves Delta = w0 - z: its one root is w0, and the audit adds an exact 0
    code, out, err = run_cli("spectrum", "--gamma=-2", "--mu=0.6", "--v=0", "--k=0.5,0.1,-0.8")
    assert code == 0, err
    report = json.loads(out)
    assert report["results"]["eigen_below"] == -1.5692934365155642
    assert report["results"]["eigen_above"] is None
    assert report["diagnostics"] == {
        "residuals": {"below": 0.0, "above": None},
        "quadrature_refinements": {"below": 0, "above": None},
    }


def test_rerun_from_embedded_config_is_byte_identical(run_cli, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, _, _ = run_cli(
        "spectrum",
        "--gamma", "1.2", "--mu", "0.8", "--k", "0,0,0",
        "--output", str(first),
    )
    assert code == 0
    code, _, _ = run_cli("--config", str(first), "--output", str(second))
    assert code == 0
    assert filecmp.cmp(first, second, shallow=False)
    # the embedded config never names the delivery path
    assert json.loads(first.read_text())["config"]["output"] is None


def test_bands_csv_shape(run_cli):
    code, out, _ = run_cli(
        "bands", "--gamma", "6", "--mu", "1e-6", "--resolution", "4", "--format", "csv",
    )
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines[0] == "k1,k2,k3,m,M,eigen_below,eigen_above"
    assert len(lines) == 4 ** 3 + 10 + 1
    cells = lines[1].split(",")
    assert len(cells) == 7


def test_bands_csv_writes_plain_floats(run_cli):
    # both branches detach inside the grid, so empty cells occur on both sides
    code, out, err = run_cli(
        "bands", "--gamma", "8", "--mu", "0.3", "--resolution", "4", "--format", "csv",
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert any(row[5] == "" for row in rows) and any(row[5] != "" for row in rows)
    for cell in (cell for row in rows for cell in row if cell):
        assert repr(float(cell)) == cell


def _csv_oracle(header, rows):
    """The CSV table formatted cell by cell: "" for NaN, repr(float) otherwise."""
    lines = [",".join("" if math.isnan(x) else repr(x) for x in row) for row in rows]
    return "\n".join([header] + lines) + "\n"


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


# NaN with several payloads and both signs (quiet and signalling), signed
# zeros and infinities, subnormals and 17-digit values
_SPECIAL_BITS = [
    0x7FF8000000000000, 0x7FF8000000000001, 0x7FF4000000000123, 0x7FF0000000000001,
    -0x0008000000000000, -0x0007FFFFFFFFFFFF, -0x000BFFFFFFFFFEDD,
] + [_bits(x) for x in (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
                         0.1 + 0.2, 1 / 3, -2.0 / 3, 13.5, math.pi)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    pool=st.lists(st.one_of(st.sampled_from(_SPECIAL_BITS), st.floats(allow_nan=False).map(_bits)),
                  min_size=1, max_size=12),
    shape=st.tuples(st.integers(0, 30), st.integers(1, 7)),
    data=st.data(),
)
def test_table_csv_matches_per_cell_formatting(pool, shape, data):
    # indices into a small pool, so that values repeat
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]))
    table = np.array([pool[j] for j in picks], dtype=np.int64).reshape(shape).view(float)
    assert cli._to_csv({}, ("a,b", table)) == _csv_oracle("a,b", table.tolist())


# the detach case of test_bands.py: both branches detach, so both sides have empty cells
_DETACH_ARGV = ("--gamma", "3.0", "--mu", "0.1", "--v", "0.9 + 0.2*cos(p1) + 0.3*cos(2*p2) - 0.2*cos(p2)*cos(p3)")


@pytest.mark.parametrize("resolution", [3, 4, 9])
def test_bands_csv_is_the_per_cell_formatting_of_the_branches(run_cli, resolution):
    code, out, err = run_cli("bands", *_DETACH_ARGV, "--resolution", str(resolution), "--format", "csv")
    assert code == 0, err
    branches = assemble_bands(ModelParams(gamma=3.0, mu=0.1), parse_v(_DETACH_ARGV[-1]), resolution).eigen_branches
    assert np.isnan(branches[:, 5:]).any(axis=0).all()
    assert out == _csv_oracle("k1,k2,k3,m,M,eigen_below,eigen_above", branches.tolist())


def test_scan_gamma_csv_is_the_per_cell_formatting_of_its_rows(run_cli):
    scan = ("scan-gamma", "--v", "1 - 0.5*cos(p1)", "--i", "3", "--gamma-min", "0.5", "--gamma-max", "8.5")
    code, out, err = run_cli(*scan, "--format", "csv")
    assert code == 0, err
    code, report, err = run_cli(*scan)
    assert code == 0, err
    assert out == _csv_oracle("gamma,mu_left,mu_right,sign", json.loads(report)["results"]["rows"])


@pytest.mark.parametrize(
    "argv, momenta",
    [
        pytest.param(
            ("bands", "--gamma", "-1.5", "--mu", "0.5", "--resolution", "4"),
            lambda res: [res[b][a] for b in ("branch_below", "branch_above") for a in ("argmin", "argmax")],
            id="bands",
        ),
        pytest.param(
            ("spectrum", "--gamma", "-2", "--mu", "0.6", "--k", "0.5,0.1,-7"),
            lambda res: [res["k"]],
            id="spectrum",
        ),
        pytest.param(
            ("verify", "--gamma", "-2", "--mu", "0.6", "--k", "0.5,0.1,-7", "--grids", "4"),
            lambda res: [res["k"]],
            id="verify",
        ),
    ],
)
def test_report_momenta_are_python_floats(run_cli, monkeypatch, argv, momenta):
    # a numpy scalar would print as np.float64(...) in a CSV cell
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, cfg, table: reports.append(report))
    code, _, err = run_cli(*argv)
    assert code in (0, 3), err
    points = momenta(reports[0]["results"])
    assert points and all(len(k) == 3 and all(type(c) is float for c in k) for k in points)


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("k", ["nan,0,0", "0,inf,0", "0,0,-inf"])
def test_malformed_momentum_exits_two(run_cli, tmp_path, command, k):
    code, out, err = run_cli(command, "--gamma", "-2", "--mu", "0.6", "--k", k)
    assert code == 2
    assert err == "error: torus coordinates must be finite\n" and out == ""
    config = tmp_path / "report.json"
    coords = [float(c) for c in k.split(",")]
    config.write_text(json.dumps({"config": {"command": command, "gamma": -2.0, "mu": 0.6, "k": coords}}))
    code, out, err = run_cli("--config", str(config))
    assert code == 2
    assert err == "error: torus coordinates must be finite\n" and out == ""


def test_bands_json_reports_intervals(run_cli):
    code, out, _ = run_cli(
        "bands", "--gamma", "6", "--mu", "1e-6", "--resolution", "4"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["intervals"] == [[0.0, 13.5]]
    assert res["interval_count"] == 1
    assert res["branch_below"]["n_k"] >= 1


def test_bands_reports_root_iterations(run_cli):
    # the README example: every fiber keeps its branches, so one solver pass
    code, out, err = run_cli("bands", "--gamma", "-1.5", "--mu", "0.5", "--v", "1", "--resolution", "8")
    assert code == 0, err
    diagnostics = json.loads(out)["diagnostics"]
    passes = 1 if diagnostics["n_fibers"] == 8 ** 3 + 10 else 2
    assert 0 < diagnostics["root_iterations"] <= 15 * passes


def test_bands_rerun_from_embedded_config_is_byte_identical(run_cli, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, _, _ = run_cli(
        "bands", "--gamma", "8", "--mu", "0.3", "--resolution", "4", "--output", str(first)
    )
    assert code == 0
    code, _, _ = run_cli("--config", str(first), "--output", str(second))
    assert code == 0
    assert filecmp.cmp(first, second, shallow=False)


# config keys of removed knobs, with the flag that used to set each
_REMOVED_KNOBS = {
    "threads": "--threads",
    "quad_singular_ball_radius": "--quad-ball-radius",
    "quad_base_grid": "--quad-base-grid",
    "quad_target_rel_tol": "--quad-tol",
    "quad_max_refinements": "--quad-max-refinements",
}


@pytest.mark.parametrize("key", list(_REMOVED_KNOBS))
def test_config_with_a_removed_key_is_rejected(run_cli, tmp_path, key):
    # reports written before a knob was removed name it: rerunning them exits 2
    old = tmp_path / "report.json"
    old.write_text(json.dumps({"config": {"command": "critical", "gamma": 2.0, key: 4}}))
    code, _, err = run_cli("--config", str(old))
    assert code == 2
    assert key in err
    code, _, _ = run_cli("critical", "--gamma", "2", _REMOVED_KNOBS[key], "4")
    assert code == 2


def test_spectrum_brackets_roots_far_from_the_band(run_cli):
    # the rank-one bound brackets the root above the band at any gamma
    gamma, mu, k = 1e8, 0.6, (0.5, 0.1, -0.8)
    code, out, err = run_cli("spectrum", "--gamma", "1e8", "--mu", "0.6", "--v", "1", "--k", "0.5,0.1,-0.8")
    assert code == 0, err
    res = json.loads(out)["results"]
    w0 = gamma + sum(1.0 - np.cos(c) for c in k)
    v_norm = (2.0 * np.pi) ** 1.5
    assert res["eigen_below"] is None
    assert w0 <= res["eigen_above"] <= w0 + mu * v_norm


def test_critical_json_values(run_cli):
    code, out, _ = run_cli("critical", "--gamma", "2")
    assert code == 0
    res = json.loads(out)["results"]
    assert len(res["mu_right"]) == 8
    assert res["mu_left"] == pytest.approx(np.sqrt(4.0 / 125.37996187790857), rel=1e-8)
    assert all(g == pytest.approx(3.0, abs=1e-8) for g in res["gamma_star"])
    integrals = json.loads(out)["diagnostics"]["threshold_integrals"]
    assert sorted(integrals) == ["lambda:%d" % i for i in range(1, 9)] + ["origin"]
    assert all(value == pytest.approx(125.37996187790857, rel=1e-13) for value in integrals.values())


def test_classify_reports_verdict(run_cli):
    code, out, _ = run_cli("critical", "--gamma", "2", "--v", "1 - cos(p1)")
    mu_c = json.loads(out)["results"]["mu_left"]
    code, out, _ = run_cli(
        "classify", "--gamma", "2", "--mu", repr(mu_c), "--v", "1 - cos(p1)",
        "--point", "origin",
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["verdict"] == "eigenvalue"
    assert res["in_l2"] is True
    assert json.loads(out)["diagnostics"] == {}


@pytest.mark.parametrize(
    "text, point, verdict, exponent",
    [
        ("cos(2*p1)*cos(2*p2)", "origin", "virtual_level", 0),
        ("sin(3*p1)", "origin", "eigenvalue", 1),
        ("sin(3*p1)", "lambda:1", "eigenvalue", 1),
        ("sin(2*p1)*sin(2*p2)*sin(2*p3)", "origin", "eigenvalue", 3),
        ("(1-cos(p1))*(1-cos(p2))*(1-cos(p3))", "origin", "eigenvalue", 6),
        ("1 - 0.999*cos(p1)", "origin", "virtual_level", 0),
    ],
)
def test_classify_reads_the_exact_vanishing_order(run_cli, text, point, verdict, exponent):
    # cases a shell-slope fit cannot settle; the exact order answers them all
    code, out, _ = run_cli("critical", "--gamma", "1", "--v", text)
    crit = json.loads(out)["results"]
    mu_c = crit["mu_left"] if point == "origin" else crit["mu_right"][0]
    code, out, err = run_cli(
        "classify", "--gamma", "1", "--mu", repr(mu_c), "--v", text, "--point", point,
    )
    assert code == 0, err
    res = json.loads(out)["results"]
    assert res["verdict"] == verdict
    assert res["local_exponent"] == exponent
    assert res["in_l2"] is (exponent >= 1)


def test_scan_gamma_csv_and_crossing(run_cli):
    code, out, _ = run_cli(
        "scan-gamma", "--gamma-min", "0.5", "--gamma-max", "8.5",
        "--samples", "17", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,mu_left,mu_right,sign"
    assert len(lines) == 18
    code, out, _ = run_cli(
        "scan-gamma", "--gamma-min", "0.5", "--gamma-max", "8.5", "--samples", "17"
    )
    res = json.loads(out)["results"]
    assert res["sign_changes"] == 1
    # constant v: I_min = I_max, so gamma_star = 9 I_min / (2 I_max + I_min) = 3
    assert res["gamma_star"] == pytest.approx(3.0, abs=1e-12)
    assert res["crossing_matches_star"] is True


def _v_text(terms):
    """The expression of sum c * b(m1, p1) b(m2, p2) b(m3, p3), b as in `vfunction`."""

    def factor(n, axis):
        return "%s(%d*p%d)" % ("cos" if n > 0 else "sin", abs(n), axis)

    return " + ".join(
        "*".join([repr(c)] + [factor(n, axis) for axis, n in enumerate(mode, 1) if n])
        for mode, c in terms
    )


_SCAN_MODES = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    # distinct modes, so v is never zero
    terms=st.lists(
        st.tuples(st.sampled_from(_SCAN_MODES), st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 0.05)),
        min_size=1,
        max_size=4,
        unique_by=lambda term: term[0],
    ),
    i=st.integers(1, 8),
    ends=st.tuples(st.floats(0.01, 8.99), st.floats(0.01, 8.99)).filter(lambda e: e[0] != e[1]),
    samples=st.integers(2, 20),
)
def test_scan_gamma_rows_agree_with_gamma_star(run_cli, terms, i, ends, samples):
    lo, hi = sorted(ends)
    code, out, err = run_cli(
        "scan-gamma", "--v=" + _v_text(terms), "--i", str(i),
        "--gamma-min=%r" % lo, "--gamma-max=%r" % hi, "--samples", str(samples),
    )
    assert code == 0, err
    res = json.loads(out)["results"]
    star = res["gamma_star"]
    # an end within rounding of gamma_star may read either sign
    assume(min(abs(lo - star), abs(hi - star)) > 1e-12 * star)
    # mu_left - mu_right increases strictly in gamma: its sign is sign(gamma - gamma_star)
    for g, _, _, sign in res["rows"]:
        assert sign == np.sign(g - star) or abs(g - star) <= 1e-12 * star, (g, star)
    assert res["sign_changes"] <= 1
    assert res["crossing_matches_star"] is (True if lo < star < hi else None)


# the four couplings of demos/threshold_zoo.py, on the benchmark's scan window
@pytest.mark.parametrize("text", ["1", "cos(p1) + 0.5", "1 - cos(p1)", "(1 - cos(p1)) * (cos(p1) + 0.5)"])
def test_scan_gamma_matches_star_on_the_zoo(run_cli, text):
    for i in range(1, 9):
        code, out, err = run_cli(
            "scan-gamma", "--v", text, "--i", str(i),
            "--gamma-min", "0.1", "--gamma-max", "8.9", "--samples", "16",
        )
        assert code == 0, err
        assert json.loads(out)["results"]["crossing_matches_star"] is True, i


@pytest.mark.parametrize("i", ["0", "9"])
def test_scan_gamma_refuses_a_lambda_index_outside_one_to_eight(run_cli, i):
    code, out, err = run_cli("scan-gamma", "--i", i, "--gamma-min", "0.5", "--gamma-max", "8.5")
    assert code == 2
    assert out == ""
    assert "lambda index must be in 1..8" in err


def test_verify_agrees_and_exits_clean(run_cli):
    code, out, _ = run_cli(
        "verify", "--gamma", "-2", "--mu", "0.6", "--k", "0.5,0.1,-0.8",
        "--grids", "8,16,32",
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["agreement"] is True
    errs = [row["err_low"] for row in res["rows"]]
    assert errs[0] > errs[-1]
    assert errs[-1] < 1e-3


def test_verify_confirms_a_missing_eigenvalue_inside_the_band(run_cli):
    # no eigenvalue on either side: the grid's extreme eigenvalues stay in
    # the band, although its diagonal hull misses the band edges by O(h^2)
    code, out, err = run_cli("verify", "--gamma", "2", "--mu", "1e-9", "--v", "1", "--k", "0.3,0,0")
    assert code == 0, err
    res = json.loads(out)["results"]
    assert res["eigen_below"] is None and res["eigen_above"] is None
    assert res["agreement"] is True
    for row in res["rows"]:
        assert res["m"] - 1e-3 <= row["oracle_low"] and row["oracle_high"] <= res["M"] + 1e-3
        assert row["err_low"] == max(res["m"] - row["oracle_low"], 0.0)
        assert row["err_high"] == max(row["oracle_high"] - res["M"], 0.0)


def test_verify_refuses_an_oracle_eigenvalue_beyond_the_band_on_a_side_without_one(run_cli, monkeypatch):
    # an oracle whose extreme eigenvalues leave [m, M] by 2 tol below and
    # by tol / 2 above: the excess is each side's err, and only the lower fails
    argv = ("verify", "--gamma", "2", "--mu", "1e-9", "--v", "1", "--k", "0.3,0,0", "--grids", "4")
    m, M = (float(e) for e in band_endpoints(np.array([0.3, 0.0, 0.0])))
    monkeypatch.setattr(cli, "extreme_eigenvalues", lambda op: (m - 2e-3, M + 5e-4))
    code, out, err = run_cli(*argv)
    res = json.loads(out)["results"]
    assert res["eigen_below"] is None and res["eigen_above"] is None
    (row,) = res["rows"]
    assert row["err_low"] == pytest.approx(2e-3, rel=1e-9)
    assert row["err_high"] == pytest.approx(5e-4, rel=1e-9)
    assert code == 3 and res["agreement"] is False


def test_verify_disagreement_sets_exit_three(run_cli):
    code, out, _ = run_cli(
        "verify", "--gamma", "-2", "--mu", "0.6", "--k", "0.5,0.1,-0.8",
        "--grids", "2,4", "--tol", "1e-9",
    )
    assert code == 3
    res = json.loads(out)["results"]  # the report is still emitted
    assert res["agreement"] is False


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
def test_verify_rejects_a_bad_tolerance(run_cli, tmp_path, tol):
    argv = ("verify", "--gamma", "-2", "--mu", "0.6", "--k", "0.5,0.1,-0.8", "--grids", "2,4")
    code, out, err = run_cli(*argv, "--tol", tol)
    assert code == 2
    assert "tol" in err and out == ""
    config = tmp_path / "report.json"
    config.write_text(json.dumps({"config": {
        "command": "verify", "gamma": -2.0, "mu": 0.6, "k": [0.5, 0.1, -0.8],
        "grids": [2, 4], "tol": float(tol),
    }}))
    code, out, err = run_cli("--config", str(config))
    assert code == 2
    assert "tol" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--gamma", "1", "--mu", "0.5", "--k", "1,2"),
        ("spectrum", "--gamma", "1", "--mu", "0.5", "--k", "a,b,c"),
        ("spectrum", "--gamma", "1", "--mu", "0", "--k", "0,0,0"),
        ("spectrum", "--gamma", "1", "--mu", "0.5", "--k", "0,0,0", "--v", "cos(q9)"),
        ("classify", "--gamma", "-1", "--mu", "0.5", "--point", "origin"),
        ("classify", "--gamma", "2", "--mu", "0.5", "--point", "lambda:11"),
        ("scan-gamma", "--gamma-min", "5", "--gamma-max", "2"),
        ("scan-gamma", "--gamma-min", "-1", "--gamma-max", "8"),
        # mu^2 overflows
        ("spectrum", "--gamma", "2", "--mu", "2e154", "--v", "1", "--k", "0.5,0,0"),
        ("bands", "--gamma", "2", "--mu", "1e200", "--v", "1"),
        ("classify", "--gamma", "2", "--mu", "1e200", "--v", "1", "--point", "origin"),
        ("verify", "--gamma", "2", "--mu", "1e200", "--v", "1", "--k", "0,0,0"),
        # nested deeper than the parser takes
        ("spectrum", "--gamma", "1", "--mu", "0.5", "--k", "0,0,0", "--v", "(" * 400 + "1" + ")" * 400),
        ("spectrum", "--gamma", "1", "--mu", "0.5", "--k", "0,0,0", "--v=" + "-" * 1200 + "1"),
        # critical takes gamma without building ModelParams
        ("critical", "--gamma", "nan"),
        ("critical", "--gamma", "inf"),
        # v^2 overflows
        ("spectrum", "--gamma", "2", "--mu", "0.5", "--v", "1e200", "--k", "0.5,0,0"),
        ("bands", "--gamma", "2", "--mu", "0.5", "--v", "1e200", "--resolution", "4"),
        ("critical", "--gamma", "2", "--v", "1e200"),
        ("classify", "--gamma", "2", "--mu", "1", "--v", "1e200", "--point", "origin"),
        # mu^2 underflows: at a frozen axis it met the infinite edge limit as 0 * inf
        ("spectrum", "--v", "1", "--gamma=-1e-9", "--mu=1e-300", "--k=3.141592653589793,0.3,0.2"),
        ("bands", "--gamma", "2", "--mu", "1e-170", "--v", "1", "--resolution", "2"),
        # too large to allocate: the first array that fails is 6.9 EiB, 727 TiB
        # and 727 TiB, beyond any address space, after arrays of at most 80 MB
        ("bands", "--gamma", "2", "--mu", "0.5", "--resolution=1000000"),
        ("verify", "--gamma", "2", "--mu", "0.5", "--k", "0.5,0.1,-0.8", "--grids=10000000"),
        ("scan-gamma", "--gamma-min", "1", "--gamma-max", "8", "--samples=100000000000000"),
    ],
)
def test_validation_failures_exit_two(run_cli, argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert err.strip()  # a diagnostic lands on stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("critical", "--gamma", "2", "--v", "1e153"),
        ("critical", "--gamma", "2", "--v", "1.3e153"),
        ("classify", "--gamma", "2", "--mu", "1", "--v", "1.3e153", "--point", "origin"),
        ("critical", "--gamma", "2", "--v", "1e154"),
    ],
)
def test_overflowing_threshold_quantities_exit_three(run_cli, argv):
    # every threshold integral, coupling and crossover is finite in exact
    # arithmetic: at v = 1e153 gamma_star overflows, at 1.3e153 the origin
    # integral does, though v^2 = 1.69e306 is finite, and at 1e154 the
    # kernel's own tail coefficients do
    code, out, err = run_cli(*argv)
    assert code == 3
    assert out == "" and "numerical failure" in err


@pytest.mark.parametrize(
    "argv, why",
    [
        # mu^2 J overflows in the audit: the report would hold residual inf
        (("spectrum", "--v", "100000000.0*cos(1*p1)*cos(1*p2)", "--gamma=1e+300", "--mu=1e+150",
          "--k=1e+300,1e+150,1e+150"), "diagnostics.residuals.below is not a finite number"),
        (("spectrum", "--v", "100000000.0*cos(1*p1)*cos(1*p2)", "--gamma=1e+300", "--mu=1e+150",
          "--k=1e+300,1e+150,1e+150", "--format", "csv"), "diagnostics.residuals.below is not a finite number"),
        # ||v||^2 / delta beyond the float range next to the band
        (("bands", "--v", "1e+150*cos(4*p3) + 1e+150*sin(3*p1)*sin(1*p2) + 1000.0*sin(1*p1)*sin(1*p2)*sin(1*p3)"
          " + 3.0*sin(4*p1)*cos(2*p2)*cos(2*p3)", "--gamma=0.0", "--mu=1e-12", "--resolution=3"),
         "the resolvent integral exceeds the float range"),
        # the oracle's border mu v h^(3/2) has a squared norm beyond the float range
        (("verify", "--v", "-0.5*cos(2*p1)*sin(2*p2)*sin(3*p3) + -1e+150*cos(4*p1)*cos(3*p3)"
          " + 100000000.0*sin(2*p1)*cos(1*p2)*sin(1*p3)", "--gamma=1e+300", "--mu=100000000.0",
          "--k=2.0,0.3,-0.3", "--grids=4,8"), "the squared norm of the border"),
    ],
)
def test_numbers_beyond_the_float_range_exit_three_without_a_warning(run_cli, argv, why):
    # filterwarnings = error turns any numpy warning into an exception out of main
    code, out, err = run_cli(*argv)
    assert code == 3
    assert out == "" and "numerical failure: " + why in err


def test_deeply_nested_config_exits_two(run_cli, tmp_path):
    config = tmp_path / "nested.json"
    config.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli("--config", str(config))
    assert code == 2
    assert out == "" and "cannot load config" in err


def test_numerical_failure_exits_three(run_cli, monkeypatch):
    # the grid audit of `spectrum` cannot converge without refining
    monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", 0)
    code, out, err = run_cli(
        "spectrum", "--gamma", "-2", "--mu", "0.6", "--k", "0.5,0.1,-0.8",
        "--v", "1 + 0.1 * cos(3*p1)",
    )
    assert code == 3
    assert "no convergence after 0 refinements" in err
    assert out == ""  # a numerical failure emits no report


def test_near_band_audit_certifies_with_the_defaults(run_cli):
    # a root 9.7e-5 above the band: the audit grid, graded toward the edge
    # minimizer, certifies it with its defaults in a few doublings
    code, out, err = run_cli(
        "spectrum", "--gamma=-1.115", "--mu", "0.331", "--k=0.7789,-2.4694,-0.1161",
        "--v", "0.8681 + -0.3394*cos(p1) + 0.2634*sin(2*p2) + 0.3069*cos(p2)*cos(p3)",
    )
    assert code == 0, err
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["residuals"]["below"] < 1e-9
    assert diagnostics["residuals"]["above"] < 1e-9
    assert diagnostics["quadrature_refinements"]["above"] <= 4


def test_repeated_calls_share_no_parser_state(run_cli):
    spectrum = ("spectrum", "--gamma", "-2", "--mu", "0.6", "--k", "0.5,0.1,-0.8")
    code, first, _ = run_cli(*spectrum)
    assert code == 0
    code, out, _ = run_cli("bands", "--gamma", "6", "--mu", "1e-6", "--resolution", "4", "--format", "csv")
    assert code == 0 and out.startswith("k1,k2,k3,")
    code, again, _ = run_cli(*spectrum)
    assert code == 0
    assert again == first
    assert json.loads(again)["config"]["format"] == "json"


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("friedrichs3d ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_run(run_cli, tmp_path, argv):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, _, err = run_cli(*argv, "--output", str(first))
    assert code == 0, err
    report = json.loads(first.read_text())
    assert report["command"] == argv[0]
    # reports carry answers and evidence, not bulk: encoding stays cheap
    assert first.stat().st_size <= 4096
    if argv[0] == "classify":
        assert set(report["results"]) == {"point", "verdict", "mu_critical", "v_at_point", "local_exponent", "in_l2"}
    # and its report reruns byte for byte
    code, _, err = run_cli("--config", str(first), "--output", str(second))
    assert code == 0, err
    assert filecmp.cmp(first, second, shallow=False)


def test_the_cli_runs_without_loading_scipy():
    # a fresh interpreter: the test process itself may have imported scipy
    (argv,) = [a for a in _readme_commands() if a[0] == "spectrum"]
    script = (
        "import contextlib, io, sys\n"
        "import friedrichs3d.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = friedrichs3d.cli.main(%r)\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n" % argv
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "[]"]


_SPECTRUM = {"command": "spectrum", "gamma": -2.0, "mu": 0.6, "k": [0.5, 0.1, -0.8]}

# malformed configs: each exits 2, as bad argv does
_BAD_CONFIGS = {
    "v_terms_not_the_parse_of_v": dict(_SPECTRUM, v="1", v_terms=[[[1, 0, 0], 1.0]]),
    "string_mu": {"command": "bands", "gamma": 6.0, "mu": "0.5", "resolution": 4},
    "fractional_samples": {"command": "scan-gamma", "gamma_min": 0.5, "gamma_max": 8.5, "samples": 2.5},
    "string_tol": dict(_SPECTRUM, command="verify", tol="abc"),
    "string_gamma": {"command": "critical", "gamma": "2"},
    "unknown_format": {"command": "critical", "gamma": 2.0, "format": "xml"},
    "mu_on_critical": {"command": "critical", "gamma": 2.0, "mu": 0.5},
    "missing_k": {"command": "spectrum", "gamma": -2.0, "mu": 0.6},
    "scalar_grids": dict(_SPECTRUM, command="verify", grids=8),
    "unknown_command": {"command": "zzz"},
    "json_list": [_SPECTRUM],
}


@pytest.mark.parametrize("name", list(_BAD_CONFIGS))
def test_malformed_config_exits_two(run_cli, tmp_path, name):
    config = tmp_path / "report.json"
    config.write_text(json.dumps(_BAD_CONFIGS[name]))
    code, out, err = run_cli("--config", str(config))
    assert code == 2
    assert err.strip() and out == ""


def test_config_takes_no_command(run_cli, tmp_path):
    config = tmp_path / "report.json"
    config.write_text(json.dumps({"config": {"command": "critical", "gamma": 2.0}}))
    code, out, err = run_cli("--config", str(config), "critical", "--gamma", "3")
    assert code == 2
    assert "--config" in err and out == ""


def test_config_file_rejects_unknown_keys(run_cli, tmp_path):
    bogus = tmp_path / "report.json"
    bogus.write_text(json.dumps({"config": {"command": "critical", "gamma": 2.0, "zzz": 1}}))
    code, _, err = run_cli("--config", str(bogus))
    assert code == 2
    assert "zzz" in err


def test_missing_config_file_exits_two(run_cli, tmp_path):
    code, _, err = run_cli("--config", str(tmp_path / "absent.json"))
    assert code == 2


def test_output_writes_file_and_keeps_stdout_quiet(run_cli, tmp_path):
    target = tmp_path / "bands.json"
    code, out, _ = run_cli(
        "bands", "--gamma", "6", "--mu", "1e-6", "--resolution", "4",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]["interval_count"] == 1


def test_output_flag_before_subcommand_still_writes_file(run_cli, tmp_path):
    # top-level --output must survive the subparser's defaults
    target = tmp_path / "bands.json"
    code, out, _ = run_cli(
        "--output", str(target), "--format", "json",
        "bands", "--gamma", "6", "--mu", "1e-6", "--resolution", "4",
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]["interval_count"] == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_to_an_unwritable_path_exits_two(run_cli, tmp_path, fmt):
    report = tmp_path / "report.json"
    unwritable = str(tmp_path / "absent" / "report.out")
    argv = ("spectrum", "--gamma", "-2", "--mu", "0.6", "--v", "1", "--k", "0.5,0.1,-0.8", "--format", fmt)
    code, out, err = run_cli(*argv, "--output", unwritable)
    assert code == 2
    assert out == "" and err.startswith("error: cannot write the report: ") and err.count("\n") == 1
    # a --config rerun delivers to --output the same way
    code, _, _ = run_cli(*argv[:-2], "--output", str(report))
    assert code == 0
    code, out, err = run_cli("--config", str(report), "--output", unwritable)
    assert code == 2
    assert out == "" and err.startswith("error: cannot write the report: ") and err.count("\n") == 1


def test_report_v_terms_are_the_parse_of_v(run_cli, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, _, err = run_cli("critical", "--gamma", "1", "--v", "1 - cos(p1)", "--output", str(first))
    assert code == 0, err
    config = json.loads(first.read_text())["config"]
    assert config["v_terms"] == parse_v("1 - cos(p1)").to_terms()
    code, _, err = run_cli("--config", str(first), "--output", str(second))
    assert code == 0, err
    assert filecmp.cmp(first, second, shallow=False)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gamma=st.floats(allow_nan=False, allow_infinity=False))
@example(gamma=-0.0)
@example(gamma=5e-324)
@example(gamma=-2.2250738585072014e-308)
def test_critical_report_reruns_byte_identically(run_cli, tmp_path, gamma):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, _, err = run_cli("critical", "--gamma=%r" % gamma, "--output", str(first))
    assert code == 0, err
    code, _, err = run_cli("--config", str(first), "--output", str(second))
    assert code == 0, err
    assert filecmp.cmp(first, second, shallow=False)


# extreme values for every numeric flag: zero, tiny, ordinary, huge, and the torus ends
_FUZZ_VALUES = [0.0, 1e-300, -1e-300, 1e-12, 0.3, -0.3, 1.0, -1.5, 2.0, 13.5,
                1e8, -1e8, 1e150, 1e300, math.pi, -math.pi]
_FUZZ_MODES = [(a, b, c) for a in range(-4, 5) for b in range(-4, 5) for c in range(-4, 5)]
_FUZZ_COEFFS = st.sampled_from([1e-8, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e8, 1e150]).flatmap(
    lambda c: st.sampled_from([c, -c]))


def _fuzz_argv(data, command):
    value = st.sampled_from(_FUZZ_VALUES)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(_FUZZ_MODES), _FUZZ_COEFFS),
                               min_size=1, max_size=4, unique_by=lambda term: term[0]))
    argv = [command, "--v=" + _v_text(terms)]
    if command != "scan-gamma":
        argv.append("--gamma=%r" % data.draw(value))
    if command in ("spectrum", "bands", "classify", "verify"):
        argv.append("--mu=%r" % data.draw(value))
    if command in ("spectrum", "verify"):
        argv.append("--k=" + ",".join(repr(data.draw(value)) for _ in range(3)))
    if command == "bands":
        argv.append("--resolution=%d" % data.draw(st.integers(2, 4)))
    if command == "verify":
        argv.append("--grids=4,8")
    if command == "classify":
        argv.append("--point=" + data.draw(st.sampled_from(["origin"] + ["lambda:%d" % i for i in range(1, 9)])))
    if command == "scan-gamma":
        ends = sorted(data.draw(value) for _ in range(2))
        argv += ["--i=%d" % data.draw(st.integers(1, 8)), "--gamma-min=%r" % ends[0],
                 "--gamma-max=%r" % ends[1], "--samples=%d" % data.draw(st.integers(2, 4))]
    return argv


def _numbers(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)
    elif isinstance(obj, float):
        yield obj


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(cli._HANDLERS)), data=st.data())
def test_every_argv_exits_cleanly_with_a_finite_report(run_cli, command, data):
    # filterwarnings = error turns any numpy warning into an exception out of main
    argv = _fuzz_argv(data, command)
    code, out, err = run_cli(*argv)
    assert code in (0, 2, 3), (argv, err)
    if code == 0:
        numbers = list(_numbers(json.loads(out)))
        assert all(math.isfinite(x) for x in numbers), argv
