"""Command-line interface.

Every run emits a single report (JSON by default, CSV for tabular
output) that embeds the fully resolved configuration; rerunning with
`--config <report.json>` reproduces the report byte for byte.  Exit
codes: 0 success, 2 invalid input, out-of-domain request, a request too
large to allocate or an unwritable --output, 3 numerical quality failure
(non-convergence, oracle disagreement, an audit that refutes a root).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .bands import BRANCH_COLUMNS, assemble_bands, branch_extrema
from .determinant import EDGE_MARGIN, InsideEssentialSpectrum, ModelParams, find_discrete_spectrum, fredholm_delta
from .oracle import discretize, extreme_eigenvalues
from .thresholds import classify_threshold, critical_couplings, gamma_star, mu_left, mu_right, threshold_integral
from .vfunction import VFunction, parse_v

# every refusal of an input (VParseError, DomainError, ZeroCoupling,
# InsideEssentialSpectrum) is a ValueError; a request too large to
# allocate is refused as well
_VALIDATION_ERRORS = (ValueError, MemoryError)
# quadrature.NonConvergence is a RuntimeError
_NUMERICAL_ERRORS = RuntimeError


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run parameters, embedded in every report.

    Every field but `v_terms` is an option of the argv parser, which owns
    the defaults; `v_terms` records the parsed coupling.
    """

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
        fn = parse_v(self.v)
        self.v_terms = fn.to_terms()
        return fn

    def model(self) -> ModelParams:
        return ModelParams(gamma=self.gamma, mu=self.mu)

    def to_dict(self) -> dict:
        # a shallow copy: asdict would deep-copy every list
        data = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        # the delivery destination is not part of the run's identity; keeping
        # it out makes --config reruns byte-identical wherever they are sent
        data["output"] = None
        return data


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
    common.add_argument("--v", default="1", help="coupling function, e.g. '1 - 0.5*cos(p1)'")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--gamma", type=float, required=True)

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
    names = [f.name for f in dataclasses.fields(RunConfig)]
    return RunConfig(**{n: getattr(args, n) for n in names if getattr(args, n, None) is not None})


def _flag_text(value) -> str:
    """A config value as argv text: lists comma-joined, strings as they are."""
    if isinstance(value, list):
        return ",".join(map(_flag_text, value))
    return value if isinstance(value, str) else json.dumps(value)


def _reruns_as(value, parsed) -> bool:
    """value == parsed, list by list, with NaN equal to NaN: a NaN is refused later as a bad value."""
    if isinstance(value, list) and isinstance(parsed, list):
        return len(value) == len(parsed) and all(map(_reruns_as, value, parsed))
    return value == parsed or (value != value and parsed != parsed)


def _load_config(path: str):
    """The config embedded in a report at `path`, and the argv it stands for."""
    with open(path) as fh:
        payload = json.load(fh)
    config = payload.get("config", payload) if isinstance(payload, dict) else payload
    if not isinstance(config, dict) or "command" not in config:
        raise ValueError("expected a report or a config object with a command")
    unknown = set(config) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    argv = [_flag_text(config["command"])] + [
        "--%s=%s" % (key.replace("_", "-"), _flag_text(value))
        for key, value in config.items()
        if key not in ("command", "v_terms") and value is not None
    ]
    return config, argv


# ---------------------------------------------------------------------------
# command implementations: each returns (results, diagnostics, exit_code,
# table), table a (header, float array) pair for CSV output or None for
# key,value
# ---------------------------------------------------------------------------


def _cmd_spectrum(cfg: RunConfig, v: VFunction):
    params = cfg.model()
    window = find_discrete_spectrum(params, v, cfg.k)

    residuals = {}
    refinements = {}
    sides = (("below", window.eigen_below, window.m, -1.0), ("above", window.eigen_above, window.M, 1.0))
    for side, root, edge, outward in sides:
        residuals[side] = refinements[side] = None
        if root is None:
            continue
        try:
            value, integral = fredholm_delta(params, v, window.k, root)
        except InsideEssentialSpectrum:
            # a root clamped at the edge margin, where the grid route cannot
            # reach: Delta one margin further out must put the root inside it
            z = edge + 2.0 * outward * EDGE_MARGIN
            value, _ = fredholm_delta(params, v, window.k, z)
            if not outward * value < 0.0:
                raise RuntimeError(
                    "the audit refutes the root clamped %s the band: Delta(%.17g) = %.6g" % (side, z, value)
                )
            continue
        residuals[side] = abs(value)
        refinements[side] = integral.refinements_used

    results = {
        "k": list(window.k),
        "m": window.m,
        "M": window.M,
        "eigen_below": window.eigen_below,
        "eigen_above": window.eigen_above,
    }
    diagnostics = {"residuals": residuals, "quadrature_refinements": refinements}
    return results, diagnostics, 0, None


def _branch_summary(structure, side):
    ext = branch_extrema(structure, side)
    if ext is None:
        return None
    lo, hi, arg_lo, arg_hi = ext
    z = structure.eigen_branches[:, BRANCH_COLUMNS.index("eigen_" + side)]
    return {
        "min": lo,
        "max": hi,
        "argmin": list(arg_lo),
        "argmax": list(arg_hi),
        "n_k": int(np.count_nonzero(~np.isnan(z))),
    }


def _cmd_bands(cfg: RunConfig, v: VFunction):
    structure = assemble_bands(cfg.model(), v, cfg.resolution)
    results = {
        "intervals": [[a, b] for a, b in structure.intervals],
        "interval_count": len(structure.intervals),
        "k_grid_resolution": structure.k_grid_resolution,
        "branch_below": _branch_summary(structure, "below"),
        "branch_above": _branch_summary(structure, "above"),
    }
    diagnostics = {
        "n_fibers": len(structure.eigen_branches),
        "n_fibers_solved": structure.fibers_solved,
        "symmetry_flips": [list(s) for s in structure.symmetry_flips],
        "root_iterations": structure.root_iterations,
    }
    return results, diagnostics, 0, (",".join(BRANCH_COLUMNS), structure.eigen_branches)


def _cmd_critical(cfg: RunConfig, v: VFunction):
    cc = critical_couplings(cfg.gamma, v)
    results = {
        "gamma": cc.gamma,
        "mu_left": cc.mu_l,
        "mu_right": list(cc.mu_r),
        "gamma_star": list(cc.gamma_star),
    }
    points = ["origin"] + ["lambda:%d" % i for i in range(1, 9)]
    diagnostics = {"threshold_integrals": {p: threshold_integral(v, p) for p in points}}
    return results, diagnostics, 0, None


def _cmd_classify(cfg: RunConfig, v: VFunction):
    report = classify_threshold(cfg.model(), v, cfg.point)
    return dataclasses.asdict(report), {}, 0, None


def _cmd_scan_gamma(cfg: RunConfig, v: VFunction):
    i, lo, hi, samples = cfg.i, cfg.gamma_min, cfg.gamma_max, cfg.samples
    if not (0.0 < lo < hi < 9.0):
        raise ValueError("the scan window must satisfy 0 < gamma_min < gamma_max < 9")
    if samples < 2:
        raise ValueError("need at least 2 samples")

    gammas = np.linspace(lo, hi, samples)
    rows = []
    for g in gammas:
        left = mu_left(float(g), v)
        right = mu_right(float(g), i, v)
        rows.append([float(g), left, right, float(np.sign(left - right))])

    signs = [r[3] for r in rows if r[3] != 0.0]
    flips = sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b)

    # mu_left - mu_right increases strictly in gamma, so its sign is
    # sign(gamma - gamma_star); a zero sign, or a gamma within rounding of
    # gamma_star, agrees with either side
    star = gamma_star(i, v)
    matches = all(
        s in (0.0, np.sign(g - star)) or math.isclose(g, star, rel_tol=1e-12) for g, _, _, s in rows
    )
    results = {
        "i": i,
        "rows": rows,
        "sign_changes": flips,
        "gamma_star": star,
        "crossing_matches_star": None if len({r[3] for r in rows}) == 1 else matches,
    }
    return results, {}, 0, ("gamma,mu_left,mu_right,sign", np.array(rows))


def _cmd_verify(cfg: RunConfig, v: VFunction):
    params = cfg.model()
    tol = cfg.tol
    if not 0.0 < tol < np.inf:
        raise ValueError("verify needs a finite --tol > 0, got %r" % tol)

    window = find_discrete_spectrum(params, v, cfg.k)
    below, above = window.eigen_below, window.eigen_above

    # a side with an eigenvalue checks the oracle's against it; a side
    # without one checks that the oracle's stays in the band, up to the excess
    rows = []
    for n in sorted(cfg.grids):
        op = discretize(params, v, window.k, n)
        low, high = extreme_eigenvalues(op)
        rows.append(
            {
                "n": n,
                "oracle_low": low,
                "oracle_high": high,
                "err_low": abs(low - below) if below is not None else max(window.m - low, 0.0),
                "err_high": abs(high - above) if above is not None else max(high - window.M, 0.0),
            }
        )

    last = rows[-1]
    agree = last["err_low"] <= tol and last["err_high"] <= tol
    results = {
        "k": list(window.k),
        "m": window.m,
        "M": window.M,
        "eigen_below": window.eigen_below,
        "eigen_above": window.eigen_above,
        "rows": rows,
        "tol": tol,
        "agreement": bool(agree),
    }
    return results, {}, 0 if agree else 3, None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _leaves(prefix: str, obj):
    """The (path, leaf) pairs of a report block, dict keys sorted; an empty prefix starts at the bare keys."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves("%s.%s" % (prefix, key) if prefix else str(key), obj[key])
    elif isinstance(obj, (list, tuple)):
        for idx, item in enumerate(obj):
            yield from _leaves("%s[%d]" % (prefix, idx), item)
    else:
        yield prefix, obj


def _csv_escape(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _to_csv(results: dict, table) -> str:
    """The CSV report: the command's float table, else the results flattened to key,value rows.

    A table cell is "" for NaN and repr(float) otherwise.  Each distinct
    value of the table is formatted once, keyed on its bit pattern, which
    keeps 0.0 and -0.0 apart.
    """
    if table is None:
        rows = [",".join(map(_csv_escape, leaf)) for leaf in _leaves("", results)]
        return "\n".join(["key,value"] + rows) + "\n"
    header, values = table
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    text = np.array(["" if math.isnan(x) else repr(x) for x in bits.view(float).tolist()], dtype=object)
    lines = [",".join(row) for row in text[inverse.reshape(values.shape)].tolist()]
    return "\n".join([header] + lines) + "\n"


def _emit(report: dict, cfg: RunConfig, table) -> None:
    if cfg.format == "csv":
        text = _to_csv(report["results"], table)
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

    config = {}
    if args.config:
        if args.command is not None:
            parser.error("--config reruns a report and takes no command")
        try:
            config, config_argv = _load_config(args.config)
        except (OSError, ValueError, RecursionError) as exc:  # json.load recurses per nesting level
            print("error: cannot load config: %s" % exc, file=sys.stderr)
            return 2
        # bad values exit 2 here, as they do on the command line
        cfg = _config_from_args(parser.parse_args(config_argv))
    elif args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    else:
        cfg = _config_from_args(args)

    try:
        v = cfg.coupling()
        for key, value in config.items():
            # a config reruns only as itself: "0.5" for mu, or v_terms
            # that are not the parse of v, would not
            if value is not None and not _reruns_as(value, getattr(cfg, key)):
                raise ValueError(
                    "config %s=%s does not rerun as itself (it parses to %s)"
                    % (key, json.dumps(value), json.dumps(getattr(cfg, key)))
                )
        results, diagnostics, code, table = _HANDLERS[cfg.command](cfg, v)
        # a missing value is None; inf or NaN is a numerical failure
        leaves = itertools.chain(_leaves("results", results), _leaves("diagnostics", diagnostics))
        for where, leaf in leaves:
            if isinstance(leaf, float) and not math.isfinite(leaf):
                raise RuntimeError("%s is not a finite number" % where)
    except _NUMERICAL_ERRORS as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    # --output and --format given beside --config override the config's own
    if args.output is not None:
        cfg.output = args.output
    if args.format is not None:
        cfg.format = args.format
    report = {
        "tool": "friedrichs3d",
        "version": __version__,
        "command": cfg.command,
        "config": cfg.to_dict(),
        "results": results,
        "diagnostics": diagnostics,
    }
    try:
        _emit(report, cfg, table)
    except OSError as exc:
        print("error: cannot write the report: %s" % exc, file=sys.stderr)
        return 2
    return code


def main_entry() -> None:
    raise SystemExit(main())
