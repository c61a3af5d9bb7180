"""Command-line interface.

Every run emits a single report (JSON by default, CSV for tabular
output) that embeds the fully resolved configuration; rerunning with
`--config <report.json>` reproduces the report byte for byte.  Exit
codes: 0 success, 2 invalid input or out-of-domain request, 3 numerical
quality failure (non-convergence, unstable fit, oracle disagreement).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .bands import assemble_bands, branch_extrema
from .determinant import (
    EDGE_MARGIN,
    InsideEssentialSpectrum,
    ModelParams,
    find_discrete_spectrum,
    fredholm_delta,
)
from .lattice import TorusPoint
from .oracle import discretize, extreme_eigenvalues
from .quadrature import NonConvergence
from .thresholds import (
    DomainError,
    FitUnstable,
    ZeroCoupling,
    classify_threshold,
    critical_couplings,
    fredholm_delta_threshold,
    gamma_star,
    mu_left,
    mu_right,
    threshold_integral,
)
from .vfunction import VFunction, VParseError, parse_v

_VALIDATION_ERRORS = (
    VParseError,
    DomainError,
    ZeroCoupling,
    InsideEssentialSpectrum,
    ValueError,
)
_NUMERICAL_ERRORS = (NonConvergence, FitUnstable, RuntimeError)


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run parameters, embedded in every report."""

    command: str
    gamma: float | None = None
    mu: float | None = None
    v: str | None = None
    v_terms: list | None = None
    k: list | None = None
    point: str | None = None
    i: int | None = None
    resolution: int | None = None
    gamma_min: float | None = None
    gamma_max: float | None = None
    samples: int | None = None
    grids: list | None = None
    tol: float | None = None
    format: str = "json"
    output: str | None = None

    def coupling(self) -> VFunction:
        if self.v_terms is not None:
            return VFunction.from_terms(self.v_terms)
        fn = parse_v(self.v if self.v is not None else "1")
        self.v_terms = fn.to_terms()
        return fn

    def model(self) -> ModelParams:
        if self.gamma is None or self.mu is None:
            raise ValueError("this command needs both --gamma and --mu")
        return ModelParams(gamma=self.gamma, mu=self.mu)

    def torus_k(self) -> TorusPoint:
        if self.k is None:
            raise ValueError("this command needs --k")
        return TorusPoint(self.k)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        # the delivery destination is not part of the run's identity; keeping
        # it out makes --config reruns byte-identical wherever they are sent
        data["output"] = None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        if "command" not in data:
            raise ValueError("config is missing the command")
        return cls(**data)


def _parse_k(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated coordinates")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError("k coordinates must be numbers") from None


def _parse_grids(text: str) -> list:
    try:
        grids = [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("grid sizes must be integers") from None
    if not grids or any(g < 2 for g in grids):
        raise argparse.ArgumentTypeError("grid sizes must be >= 2")
    return grids


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing leaves the parser unchanged; every call gets a fresh namespace.
    """
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps an absent per-subcommand flag from clobbering the
    # top-level --output/--format parsed before the subcommand name.
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS, help="write the report to this path")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--gamma", type=float, required=True)
    model.add_argument("--v", default="1", help="coupling function, e.g. '1 - 0.5*cos(p1)'")

    top = argparse.ArgumentParser(
        prog="friedrichs3d",
        description="Spectral analysis of the two-channel lattice model on the 3-torus",
    )
    top.add_argument("--config", help="rerun the configuration embedded in a JSON report")
    top.add_argument("--output", default=None)
    top.add_argument("--format", choices=("json", "csv"), default=None)
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("spectrum", parents=[common, model], help="discrete spectrum of one fiber")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--k", type=_parse_k, required=True)

    p = sub.add_parser("bands", parents=[common, model], help="band intervals over the torus")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--resolution", type=int, default=8)

    p = sub.add_parser("critical", parents=[common, model], help="critical couplings at gamma")

    p = sub.add_parser("classify", parents=[common, model], help="threshold classification")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--point", required=True, help="'origin' or 'lambda:<i>'")

    p = sub.add_parser("scan-gamma", parents=[common], help="coupling crossover scan")
    p.add_argument("--v", default="1", help="coupling function, e.g. '1 - 0.5*cos(p1)'")
    p.add_argument("--i", type=int, default=1, help="Lambda index for the upper coupling")
    p.add_argument("--gamma-min", type=float, required=True)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--samples", type=int, default=25)

    p = sub.add_parser("verify", parents=[common, model], help="cross-check against discretization")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--k", type=_parse_k, required=True)
    p.add_argument("--grids", type=_parse_grids, default=[8, 16, 32])
    p.add_argument("--tol", type=float, default=1e-3)

    return top


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in (
        "gamma",
        "mu",
        "v",
        "k",
        "point",
        "i",
        "resolution",
        "gamma_min",
        "gamma_max",
        "samples",
        "grids",
        "tol",
    ):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "format", None):
        cfg.format = args.format
    if getattr(args, "output", None):
        cfg.output = args.output
    return cfg


# ---------------------------------------------------------------------------
# command implementations: each returns (results, diagnostics, exit_code)
# ---------------------------------------------------------------------------


def _point_list(p: TorusPoint) -> list:
    return [float(c) for c in p.coords]


def _cmd_spectrum(cfg: RunConfig):
    params = cfg.model()
    v = cfg.coupling()
    k = cfg.torus_k()
    window = find_discrete_spectrum(params, v, k)

    residuals = {}
    refinements = {}
    for side, root in (("below", window.eigen_below), ("above", window.eigen_above)):
        if root is None:
            residuals[side] = None
            refinements[side] = None
            continue
        try:
            value, integral = fredholm_delta(params, v, k, root, with_diagnostics=True)
            residuals[side] = abs(value)
            refinements[side] = integral.refinements_used if integral is not None else 0
        except InsideEssentialSpectrum:
            # root clamped at the edge margin; the grid route cannot audit it
            residuals[side] = None
            refinements[side] = None

    results = {
        "k": _point_list(window.k),
        "m": window.m,
        "M": window.M,
        "eigen_below": window.eigen_below,
        "eigen_above": window.eigen_above,
    }
    diagnostics = {"residuals": residuals, "quadrature_refinements": refinements}
    return results, diagnostics, 0


def _branch_summary(structure, side):
    ext = branch_extrema(structure, side)
    if ext is None:
        return None
    lo, hi, arg_lo, arg_hi = ext
    count = len(structure.branch_values(side))
    return {
        "min": lo,
        "max": hi,
        "argmin": _point_list(arg_lo),
        "argmax": _point_list(arg_hi),
        "n_k": count,
    }


def _cmd_bands(cfg: RunConfig):
    params = cfg.model()
    v = cfg.coupling()
    resolution = cfg.resolution if cfg.resolution is not None else 8
    structure = assemble_bands(params, v, resolution)
    results = {
        "intervals": [[a, b] for a, b in structure.intervals],
        "interval_count": len(structure.intervals),
        "k_grid_resolution": structure.k_grid_resolution,
        "branch_below": _branch_summary(structure, "below"),
        "branch_above": _branch_summary(structure, "above"),
    }
    diagnostics = {
        "n_fibers_solved": len(structure.eigen_branches),
        "root_iterations": structure.root_iterations,
    }
    return results, diagnostics, 0, structure


def _cmd_critical(cfg: RunConfig):
    if cfg.gamma is None:
        raise ValueError("critical needs --gamma")
    v = cfg.coupling()
    cc = critical_couplings(cfg.gamma, v)
    results = {
        "gamma": cc.gamma,
        "mu_left": cc.mu_l,
        "mu_right": list(cc.mu_r),
        "gamma_star": list(cc.gamma_star),
    }
    points = ["origin"] + ["lambda:%d" % i for i in range(1, 9)]
    diagnostics = {"threshold_integrals": {p: threshold_integral(v, p) for p in points}}
    return results, diagnostics, 0


def _cmd_classify(cfg: RunConfig):
    params = cfg.model()
    v = cfg.coupling()
    if cfg.point is None:
        raise ValueError("classify needs --point")
    report = classify_threshold(params, v, cfg.point)
    results = {
        "point": report.point,
        "verdict": report.verdict,
        "mu_critical": report.mu_critical,
        "v_at_point": report.v_at_point,
        "local_exponent": report.local_exponent,
        "in_l2": report.in_l2,
        "f0": report.f0,
        "f1_samples": [[_point_list(q), val] for q, val in report.f1_samples],
    }
    diagnostics = {
        "residuals": {"eigensystem_first": abs(fredholm_delta_threshold(params, v, cfg.point))}
    }
    return results, diagnostics, 0


def _cmd_scan_gamma(cfg: RunConfig):
    v = cfg.coupling()
    i = cfg.i if cfg.i is not None else 1
    lo, hi = cfg.gamma_min, cfg.gamma_max
    if lo is None or hi is None:
        raise ValueError("scan-gamma needs --gamma-min and --gamma-max")
    if not (0.0 < lo < hi < 9.0):
        raise ValueError("the scan window must satisfy 0 < gamma_min < gamma_max < 9")
    samples = cfg.samples if cfg.samples is not None else 25
    if samples < 2:
        raise ValueError("need at least 2 samples")

    def gap(gamma: float) -> float:
        return mu_left(gamma, v) - mu_right(gamma, i, v)

    gammas = np.linspace(lo, hi, samples)
    rows = []
    for g in gammas:
        left = mu_left(float(g), v)
        right = mu_right(float(g), i, v)
        rows.append([float(g), left, right, float(np.sign(left - right))])

    signs = [r[3] for r in rows if r[3] != 0.0]
    flips = sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b)

    crossing = None
    for (g0, *_, s0), (g1, *_, s1) in zip(rows[:-1], rows[1:]):
        if s0 != s1:
            a, b = g0, g1
            fa = gap(a)
            while b - a > 1e-6:
                mid = 0.5 * (a + b)
                fm = gap(mid)
                if (fm > 0.0) == (fa > 0.0):
                    a, fa = mid, fm
                else:
                    b = mid
            crossing = 0.5 * (a + b)
            break

    star = gamma_star(i, v)
    results = {
        "i": i,
        "rows": rows,
        "sign_changes": flips,
        "crossing_gamma": crossing,
        "gamma_star": star,
        "crossing_matches_star": (
            None if crossing is None else bool(abs(crossing - star) < 1e-4)
        ),
    }
    return results, {}, 0


def _cmd_verify(cfg: RunConfig):
    params = cfg.model()
    v = cfg.coupling()
    k = cfg.torus_k()
    tol = cfg.tol if cfg.tol is not None else 1e-3
    grids = cfg.grids if cfg.grids else [8, 16, 32]

    window = find_discrete_spectrum(params, v, k)
    target_low = window.eigen_below if window.eigen_below is not None else window.m
    target_high = window.eigen_above if window.eigen_above is not None else window.M

    rows = []
    for n in sorted(grids):
        op = discretize(params, v, k, n)
        low, high = extreme_eigenvalues(op)
        rows.append(
            {
                "n": n,
                "oracle_low": low,
                "oracle_high": high,
                "err_low": abs(low - target_low),
                "err_high": abs(high - target_high),
            }
        )

    last = rows[-1]
    agree = last["err_low"] <= tol and last["err_high"] <= tol
    results = {
        "k": _point_list(window.k),
        "m": window.m,
        "M": window.M,
        "eigen_below": window.eigen_below,
        "eigen_above": window.eigen_above,
        "rows": rows,
        "tol": tol,
        "agreement": bool(agree),
    }
    return results, {}, 0 if agree else 3


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _csv_escape(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flatten(prefix: str, obj, rows):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten("%s.%s" % (prefix, key) if prefix else str(key), obj[key], rows)
    elif isinstance(obj, (list, tuple)):
        for idx, item in enumerate(obj):
            _flatten("%s[%d]" % (prefix, idx), item, rows)
    else:
        rows.append((prefix, _csv_escape(obj)))


def _to_csv(report: dict, structure=None) -> str:
    results = report["results"]
    lines = []
    if report["command"] == "bands" and structure is not None:
        lines.append("k1,k2,k3,m,M,eigen_below,eigen_above")
        for w in structure.eigen_branches:
            lines.append(
                ",".join(
                    _csv_escape(x)
                    for x in (
                        w.k.coords[0],
                        w.k.coords[1],
                        w.k.coords[2],
                        w.m,
                        w.M,
                        w.eigen_below,
                        w.eigen_above,
                    )
                )
            )
    elif report["command"] == "scan-gamma":
        lines.append("gamma,mu_left,mu_right,sign")
        for row in results["rows"]:
            lines.append(",".join(_csv_escape(x) for x in row))
    else:
        lines.append("key,value")
        rows = []
        _flatten("", results, rows)
        for key, val in rows:
            lines.append("%s,%s" % (key, val))
    return "\n".join(lines) + "\n"


def _emit(report: dict, cfg: RunConfig, structure=None) -> None:
    if cfg.format == "csv":
        text = _to_csv(report, structure)
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "bands": _cmd_bands,
    "critical": _cmd_critical,
    "classify": _cmd_classify,
    "scan-gamma": _cmd_scan_gamma,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.config:
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
            data = payload.get("config", payload)
            cfg = RunConfig.from_dict(data)
        except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
            print("error: cannot load config: %s" % exc, file=sys.stderr)
            return 2
        if args.output is not None:
            cfg.output = args.output
        if args.format is not None:
            cfg.format = args.format
    elif args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    else:
        cfg = _config_from_args(args)

    handler = _HANDLERS.get(cfg.command)
    if handler is None:
        print("error: unknown command %r" % cfg.command, file=sys.stderr)
        return 2

    try:
        out = handler(cfg)
    except _NUMERICAL_ERRORS as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    structure = None
    if len(out) == 4:
        results, diagnostics, code, structure = out
    else:
        results, diagnostics, code = out

    report = {
        "tool": "friedrichs3d",
        "version": __version__,
        "command": cfg.command,
        "config": cfg.to_dict(),
        "results": results,
        "diagnostics": diagnostics,
    }
    _emit(report, cfg, structure)
    return code


def main_entry() -> None:
    raise SystemExit(main())
