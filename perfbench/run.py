"""Benchmark for friedrichs3d: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload fiber --seed 1 --seconds 25 --trace 0

Starts the measured process (worker.py, one BLAS/OpenMP thread), sends
it one op at a time and checks every report with the independent
computations of reference.py.  Rounds of ops repeat until --seconds of
wall time have passed, always finishing the round in progress.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics (see spans.py) with --trace 1.  In a traced run odd
rounds are traced and even rounds are not, which gives the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED)

SETUP_STARTS = 7  # timed fresh interpreters per run; setup_s is their median


class Worker:
    """The measured process; its start-up to `ready` is one setup sample."""

    def __init__(self):
        # Bytecode caching stays on whatever the caller's environment says, so
        # the untimed first start of a run leaves the cache every timed start reads.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env.update(PINNED)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
        )
        ready = self._read()
        self.setup_s = time.perf_counter() - start
        if not ready.get("ready"):
            raise RuntimeError("measured process did not start: %r" % ready)

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=10)
            raise RuntimeError("measured process exited with code %r" % self.proc.returncode)
        return json.loads(line)

    def call(self, argv, traced: bool) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "traced": traced}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> float:
        """Stop the process and return its peak resident memory in MB."""
        try:
            self.proc.stdin.write(json.dumps({"exit": True}) + "\n")
            self.proc.stdin.flush()
            peak = self._read()["peak_rss_mb"]
            self.proc.wait(timeout=30)
            return peak
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(traced, untraced_s, traced_s) -> dict:
    """Per-layer metrics from the span summaries of every traced invocation.

    Counts and seconds are per-op means over the traced ops; ratios are
    taken over the whole run.
    """
    n = max(1, len(traced_s))
    sec, calls, counts = {}, {}, {}
    main_self = 0.0
    spans = 0
    for summary in traced:
        for key, val in summary["seconds"].items():
            sec[key] = sec.get(key, 0.0) + val
        for key, val in summary["calls"].items():
            calls[key] = calls.get(key, 0) + val
        for key, val in summary["counts"].items():
            counts[key] = counts.get(key, 0) + val
        main_self += summary["cli_main_self"]
        spans += summary["spans"]

    def per_op_s(name):
        return sec.get(name, 0.0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    kernel = "quadrature.ResolventKernel."
    evals = calls.get(kernel + "integral_below", 0) + calls.get(kernel + "integral_above", 0)
    eval_s = sec.get(kernel + "integral_below", 0.0) + sec.get(kernel + "integral_above", 0.0)
    fibers = calls.get("determinant.find_discrete_spectrum", 0)
    in_bands = calls.get("bands.assemble_bands", 0) > 0
    t_int = calls.get("thresholds.threshold_integral", 0)
    t_quad = calls.get("quadrature.integrate_threshold", 0)
    untraced_p50, traced_p50 = _median(untraced_s), _median(traced_s)
    values = {
        "cli.main_self_s": (main_self / n, "s"),
        "vfunction.parse_v_s": (per_op_s("vfunction.parse_v"), "s"),
        "vfunction.squared_exp_coeffs_s": (per_op_s("vfunction.squared_exp_coeffs_cold"), "s"),
        "quadrature.kernel_builds": (calls.get(kernel + "__init__", 0) / n, "count"),
        "quadrature.kernel_build_s": (per_op_s(kernel + "__init__"), "s"),
        "quadrature.kernel_evals": (evals / n, "count"),
        "quadrature.kernel_eval_s": (eval_s / n, "s"),
        "quadrature.integrate_smooth_calls": (calls.get("quadrature.integrate_smooth", 0) / n, "count"),
        "quadrature.integrate_smooth_s": (per_op_s("quadrature.integrate_smooth"), "s"),
        "quadrature.integrate_threshold_calls": (t_quad / n, "count"),
        "quadrature.integrate_threshold_s": (per_op_s("quadrature.integrate_threshold"), "s"),
        "determinant.find_discrete_spectrum_s": (per_op_s("determinant.find_discrete_spectrum"), "s"),
        "determinant.fibers_solved": (fibers / n, "count"),
        "determinant.kernel_evals_per_fiber": (ratio(evals, fibers), "count"),
        "determinant.fredholm_delta_s": (per_op_s("determinant.fredholm_delta"), "s"),
        "determinant.roots_per_fiber": (ratio(counts.get("determinant.roots", 0), fibers), "count"),
        "determinant.clamped_roots": (counts.get("determinant.clamped_roots", 0) / n, "count"),
        "thresholds.threshold_integral_calls": (t_int / n, "count"),
        "thresholds.integral_cache_hit_ratio": (1.0 - t_quad / t_int if t_int else 0.0, "ratio"),
        "thresholds.l2_membership_probe_s": (per_op_s("thresholds.l2_membership_probe"), "s"),
        "thresholds.classify_threshold_s": (per_op_s("thresholds.classify_threshold"), "s"),
        "thresholds.eigenvector_residuals_s": (per_op_s("thresholds.eigenvector_residuals"), "s"),
        "bands.assemble_bands_s": (per_op_s("bands.assemble_bands"), "s"),
        "bands.fibers_per_op": ((fibers if in_bands else 0) / n, "count"),
        "bands.refined_fibers_per_op": (counts.get("bands.refined_fibers", 0) / n, "count"),
        "bands.solver_share": (
            ratio(sec.get("determinant.find_discrete_spectrum", 0.0), sec.get("bands.assemble_bands", 0.0))
            if in_bands else 0.0, "ratio"),
        "oracle.discretize_s": (per_op_s("oracle.discretize"), "s"),
        "oracle.extreme_eigenvalues_s": (per_op_s("oracle.extreme_eigenvalues"), "s"),
        "lattice.calls": (sum(v for k, v in counts.items() if k.startswith("lattice.")) / n, "count"),
        "trace.traced_ops": (float(len(traced_s)), "count"),
        "trace.spans_per_op": (spans / n, "count"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
        "trace.overhead_share": (ratio(traced_p50 - untraced_p50, untraced_p50), "ratio"),
    }
    return {name: {"value": val, "unit": unit} for name, (val, unit) in values.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, log=sys.stderr) -> dict:
    import numpy as np

    import workloads

    round_fn = workloads.WORKLOADS[workload]
    rng = np.random.default_rng(seed)

    # An untimed first start writes the package's bytecode cache, so every
    # timed start finds it, as a user's repeated CLI starts do.
    Worker().close()
    setup = []
    for _ in range(SETUP_STARTS - 1):
        probe = Worker()
        setup.append(probe.setup_s)
        probe.close()
    worker = Worker()
    setup.append(worker.setup_s)

    untraced_s, traced_s, traced = [], [], []
    attempted = failed = 0
    wrong, known = [], []
    by_kind = {}
    try:
        start = time.perf_counter()
        r = 0
        while True:
            traced_round = trace and r % 2 == 1
            for op in round_fn(rng, r):
                outputs, op_s = [], 0.0
                argv = op.plan(outputs)
                while argv is not None:
                    reply = worker.call(argv, traced_round)
                    outputs.append((reply["code"], reply["out"]))
                    op_s += reply["seconds"]
                    if traced_round:
                        traced.append(reply["trace"])
                    argv = op.plan(outputs)
                for argv in op.untimed:
                    reply = worker.call(argv, False)
                    outputs.append((reply["code"], reply["out"]))
                (traced_s if traced_round else untraced_s).append(op_s)
                by_kind.setdefault(op.kind, []).append(op_s)
                attempted += 1
                reason, known_fault = op.verdict(outputs)
                if reason is not None:
                    failed += 1
                    if known_fault:
                        known.append("%s: %s" % (op.kind, reason))
                    else:
                        wrong.append("%s round %d: %s" % (op.kind, r, reason))
            r += 1
            if time.perf_counter() - start >= seconds and (not trace or r >= 2):
                break
    finally:
        peak_rss_mb = worker.close()

    if trace:
        metrics = layer_metrics(traced, untraced_s, traced_s)
    else:
        metrics = {
            "setup_s": {"value": _median(setup), "unit": "s"},
            "op_s_p50": {"value": _median(untraced_s), "unit": "s"},
            "ops_per_s": {"value": len(untraced_s) / sum(untraced_s), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print("median seconds per op kind: " + ", ".join(
        "%s %.4g (%d)" % (kind, _median(xs), len(xs)) for kind, xs in by_kind.items()), file=log)
    if known:
        print("%d ops failed with the known fault: %s; first: %s"
              % (len(known), workloads.FAR_FIELD_REASON, known[0]), file=log)
    for reason in wrong:
        print("WRONG %s" % reason, file=log)
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fiber", "bands", "threshold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/friedrichs3d/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print("error: %s is missing; run from a friedrichs3d checkout" % needed, file=sys.stderr)
            return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
