"""Closed-loop verification benchmark for the gjzeta engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # every workload in turn

NAME is one of hermite-n2, hermite-n2-t2, enumerate, fourier-real (README.md
says why each exists).  Each workload runs in its own fresh Python process
(worker.py); set-up is sampled in SETUP_SAMPLES fresh processes and the
median reported.  With --trace 0 the end-to-end metrics are printed, with
--trace 1 the per-layer metrics of a separate traced run.  Every line before
the last is for people: each metric with its unit and sample count, and the
machine facts.  The last line is one JSON object with keys correct,
attempted, failed and metrics.  The exit code is 0 only when every op passed
the exactness gate (verdict PASS, exit 0 and the recorded digest).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 4           # fresh processes whose set-up time is sampled
RUN_LIMIT_S = 170.0         # a single-workload run must end within 180 s
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
              "op_s_tail": "s", "peak_rss_mib": "MiB"}


def main() -> int:
    ap = argparse.ArgumentParser(description="gjzeta closed-loop benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gjzeta", "__init__.py")):
        print("no engine source at src/gjzeta under %s" % ROOT, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


def worker_cmd(args, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def spawn(cmd, deadline):
    """Run a worker; returns (result dict, seconds from spawn to ready
    divided by the host factor probed right after)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time: %s" % " ".join(cmd))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker exited with code %s" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        return result, (result["ready"] - t0) / result["setup_factor"]
    except (ValueError, KeyError) as exc:
        raise RuntimeError("worker printed no result: %s" % exc)


def run_one(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(worker_cmd(args, "--setup-only"), deadline)[1])
        result, setup = spawn(worker_cmd(args), deadline)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    setups.append(setup)

    facts = machine_facts(result["versions"])
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("facts " + json.dumps(facts, sort_keys=True))
    if not facts["comparable"]:
        print("NOT COMPARABLE: GJZETA_HARD_BUDGET is set")
    attempted, failed = result["attempted"], result["failed"]
    for f in result["failures"]:
        print("FAILED " + json.dumps(f))
    if args.trace:
        metrics = {}
        for name, unit in metric_units().items():
            value = result["per_layer"][name]
            metrics[name] = {"value": value, "unit": unit}
            print("%-44s %14.6g %s" % (name, value, unit))
        print("traced run: %d traced passes, %d ops, %.1f s"
              % (result["passes"], attempted, result["elapsed"]))
    else:
        metrics = end_to_end(result, setups)
        if result["passes"] < result["planned_passes"]:
            print("CUT SHORT: %d of %d passes ran before the loop limit"
                  % (result["passes"], result["planned_passes"]))
    print("failed_share %.4g (%d failed of %d attempted)"
          % (failed / attempted if attempted else 1.0, failed, attempted))
    print("integrate.cells_mismatch %d count in %d passes (ops whose "
          "cells_enumerated differs from the --threads 1 value; not part of "
          "the gate)" % (result["cells_mismatch"], result["passes"]))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def hd_quantile(xs, q):
    """Harrell-Davis estimate of quantile q of the sorted sample xs.

    A mean of every order statistic, weighted by how likely each is to be
    the q-quantile: Beta((n+1)q, (n+1)(1-q)) mass over ((i-1)/n, i/n].  A
    run of enumerate has 20 ops and the op kinds' costs fall in bands, so
    the plain order statistic reads two ops of one kind and its spread over
    ten runs reached 0.26; this estimate leans on the neighbours too.
    """
    from scipy.special import betainc
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs)))


def end_to_end(result, setups):
    # ops_per_s, op_s_p50 and op_s_tail are in reference-host seconds: each
    # op's wall time divided by its host factor (worker.py, host probe); the
    # wall figures are printed beside them
    wall = sorted(result["op_times"])
    times = sorted(t / f for t, f in zip(result["op_times"], result["host_factors"]))
    n = len(times)
    # highest percentile that still has at least 10 samples beyond it
    idx = max(n - 11, 0)
    tail_q, beyond = (idx + 1) / n, n - idx - 1
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (result["attempted"] - result["failed"]) / sum(times),
        "op_s_p50": hd_quantile(times, 0.5),
        "op_s_tail": hd_quantile(times, tail_q),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
    }
    print("host_factor   %10.4f      (median of %d host probes / reference)"
          % (statistics.median(result["host_factors"]), n))
    print("setup_s       %10.4f s    (median of %d set-ups: %s)"
          % (values["setup_s"], len(setups), ", ".join("%.3f" % s for s in setups)))
    print("ops_per_s     %10.4f 1/s  (wall %.4f; %d ops in %d passes, %.2f s)"
          % (values["ops_per_s"], result["ops_per_s"], n, result["passes"],
             result["elapsed"]))
    print("op_s_p50      %10.4f s    (order statistic %.4f, wall %.4f; n=%d)"
          % (values["op_s_p50"], statistics.median(times), statistics.median(wall), n))
    print("op_s_tail     %10.4f s    (order statistic %.4f, wall %.4f; p%.1f, n=%d, %d beyond)"
          % (values["op_s_tail"], times[idx], wall[idx], 100 * tail_q, n, beyond))
    print("peak_rss_mib  %10.2f MiB  (n=1, workload process)" % values["peak_rss_mib"])
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def machine_facts(versions):
    env = {k: v for k, v in sorted(os.environ.items()) if k.startswith("GJZETA_")}
    return {"nproc": os.cpu_count(), **versions, "commit": git_commit(),
            "gjzeta_env": env, "comparable": "GJZETA_HARD_BUDGET" not in env}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_all(args) -> int:
    """Every workload in turn, each run exactly as the single-workload form."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S + 10)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("workload %s printed no result" % name, file=sys.stderr)
            correct = False
            continue
        correct = correct and res["correct"] and proc.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({"%s.%s" % (name, k): v for k, v in res["metrics"].items()})
        print()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
