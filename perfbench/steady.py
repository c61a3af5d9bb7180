"""Repeat runs of the benchmark and report how steady each metric is.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads bands --first-seed 101
    python3 perfbench/steady.py --compare perfbench/results/A.json perfbench/results/B.json

Each workload runs N times, one seed per run, one run at a time, each
run as long as BENCHMARK.json's run_seconds.  For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4),
the spread (q3 - q1) / median and the metric's bound from BENCHMARK.json,
plus the share of failed ops.  Each
set of runs is saved to perfbench/results/ with the machine fingerprint.
`--compare` checks a second set against a first: every median within its
bound, and the failed share identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed, seconds, trace) -> dict:
    cmd = spec()["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("run failed (%d): %s" % (proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    per_kind = [line for line in proc.stderr.splitlines() if line.startswith("median seconds per op kind")]
    result.update(seed=seed, wall_s=wall, started=time.strftime("%H:%M:%S"), per_kind=per_kind[-1:])
    return result


def summarize(runs, metrics_spec) -> dict:
    out = {}
    for m in metrics_spec:
        values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
        if not values:
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "bound": m.get("bound"), "values": values,
        }
    return out


def failed_share(runs):
    return sorted({(r["failed"], r["attempted"], r["failed"] / r["attempted"]) for r in runs},
                  key=lambda t: t[2])


def print_table(workload, summary, runs):
    shares = {round(s, 12) for _, _, s in failed_share(runs)}
    print("%s: %d runs, correct in all: %s, failed share(s): %s, wall per run %.1f s"
          % (workload, len(runs), all(r["correct"] for r in runs),
             ", ".join("%.6f" % s for s in sorted(shares)),
             statistics.mean(r["wall_s"] for r in runs)))
    for name, s in summary.items():
        bound = s["bound"]
        flag = "" if bound is None else ("  ok" if s["spread"] <= bound / 3 else "  WIDE")
        print("  %-16s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s%s"
              % (name, s["unit"], s["median"], s["q1"], s["q3"], s["spread"],
                 "" if bound is None else " (bound %.2f)" % bound, flag))


def compare(path_a, path_b) -> int:
    a, b = json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text())
    better = {m["name"]: m["better"] for m in spec()["end_to_end"]}
    ok = True
    for name, sa in a["summary"].items():
        sb = b["summary"].get(name)
        if sb is None:
            continue
        change = (sb["median"] - sa["median"]) / sa["median"]
        worse = change if better.get(name) == "lower" else -change
        verdict = "ok" if sa["bound"] is None or worse <= sa["bound"] else "WORSE"
        ok &= verdict == "ok"
        print("  %-16s %-12.6g -> %-12.6g change %+.4f (bound %s) %s"
              % (name, sa["median"], sb["median"], change, sa["bound"], verdict))
    same = {s for *_, s in failed_share(a["runs"])} == {s for *_, s in failed_share(b["runs"])}
    print("  failed share identical: %s" % same)
    return 0 if ok and same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    bench = spec()
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics_spec = bench["per_layer" if args.trace else "end_to_end"]
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    for workload in workloads:
        runs = [one_run(workload, args.first_seed + i, seconds, args.trace) for i in range(args.runs)]
        summary = summarize(runs, metrics_spec)
        print_table(workload, summary, runs)
        record = {"workload": workload, "seconds": seconds, "trace": args.trace,
                  "fingerprint": fingerprint(), "runs": runs, "summary": summary}
        path = RESULTS / ("%s-%s-trace%d.json" % (stamp, workload, args.trace))
        path.write_text(json.dumps(record, indent=1))
        print("  saved %s" % path.relative_to(ROOT))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
