"""One workload in a fresh Python process: set up, then a closed loop.

Started by run.py, never by hand.  It prints one JSON object on stdout.
With --setup-only it stops after set-up and reports only when set-up ended,
which is how run.py samples set-up time several times per run.

The loop has one client: the next op starts when the previous one has its
verdict.  It runs a fixed number of whole passes of the workload's deck
(workloads.py), so every run sees the same mix and number of op kinds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

# set-up is timed by run.py from spawn until `ready`, so these imports count
import gjzeta  # noqa: E402
from gjzeta import _kernels  # noqa: E402
from ops import OpRunner, digest  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import decks, digest_key, passes, slots, threads_of  # noqa: E402

# a safety stop for a far slower engine: no pass starts that would end
# after this, so the run still ends within its 180 s with fewer passes
LOOP_LIMIT_S = 120.0

# The host probe: a fixed pure-Python loop timed between ops, while the
# engine is idle.  On a shared VM the host's speed swings by a third from one
# second to the next; run.py divides each op's time by its host factor, the
# mean of the probes just before and just after it, over REFERENCE_PROBE_S.
# A probe on one side only misses the swings of the op's other half.
# The loop makes no container objects, so the engine's heap cannot slow it
# through the garbage collector.
PROBE_ITERATIONS = 100_000
REFERENCE_PROBE_S = 0.012   # the probe's median on the reference 2-vCPU VM


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "digests.json")) as fh:
        expected = json.load(fh)["ops"]
    passes_iter = decks(slots(args.workload), random.Random(args.seed))
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = OpRunner(scratch)
        verdict, _, _, rc = runner.run(("cli", ("verify-relation", "--n", "1")))
        if verdict != "PASS" or rc != 0:
            print("warm-up op failed", file=sys.stderr)
            return 1
        ready = time.monotonic()
        # the host factor for set-up, probed right after it
        setup_factor = statistics.median(host_probe() for _ in range(3)) / REFERENCE_PROBE_S
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_factor": setup_factor}))
            return 0
        loop = Loop(runner, expected)
        n_passes = passes(args.workload, args.seconds)
        if args.trace:
            extra = trace_loop(loop, passes_iter, n_passes)
        else:
            extra = loop.timed(passes_iter, n_passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = {
        "ready": ready,
        "setup_factor": setup_factor,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures[:5],
        "cells_mismatch": loop.cells_mismatch,
        "versions": _versions(),
    }
    out.update(extra)
    print(json.dumps(out))
    return 0


class Loop:
    """Runs decks op by op and keeps the exactness-gate tally."""

    def __init__(self, runner, expected):
        self.runner = runner
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cells_mismatch = 0
        self.probes = []

    def run_pass(self, ops):
        """Run one deck; returns the time to verdict of each op."""
        times = []
        for op in ops:
            self.probes.append(host_probe())
            key = digest_key(op)
            t0 = time.perf_counter()
            try:
                verdict, results, cells, rc = self.runner.run(op)
                error = self._gate(key, verdict, results, rc)
            except Exception as exc:  # an op that raises is a failed op
                cells, error = None, "%s: %s" % (type(exc).__name__, exc)
            times.append(time.perf_counter() - t0)
            self.attempted += 1
            if error:
                self.failed += 1
                self.failures.append({"op": key, "error": error})
            # the --threads 1 cell count is stored with the digest; a
            # difference at more threads is the counter race, not a value
            # error, so it stays out of the correctness gate
            elif threads_of(op) > 1 and cells != self.expected[key]["cells"]:
                self.cells_mismatch += 1
        return times

    def _gate(self, key, verdict, results, rc):
        """None if the op passes the exactness gate, else the reason."""
        if verdict is None:
            return "no report (exit %s)" % rc
        if verdict != "PASS" or rc != 0:
            return "verdict %s, exit %s" % (verdict, rc)
        if key not in self.expected:
            return "no recorded digest"
        if digest(verdict, results) != self.expected[key]["digest"]:
            return "digest mismatch"
        return None

    def timed(self, passes_iter, n_passes):
        times = []
        done = 0
        start = time.perf_counter()
        while done < n_passes:
            times += self.run_pass(next(passes_iter))
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed * (done + 1) / done > LOOP_LIMIT_S:
                break
        completed = self.attempted - self.failed
        elapsed -= sum(self.probes)
        # each op's probe is the one before it; the next op's, or this
        # closing one, is the one after it
        self.probes.append(host_probe())
        bracket = zip(self.probes, self.probes[1:])
        return {"op_times": times,
                "host_factors": [(a + b) / 2 / REFERENCE_PROBE_S for a, b in bracket],
                "passes": done, "planned_passes": n_passes, "elapsed": elapsed,
                "ops_per_s": completed / elapsed,
                "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def host_probe() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - t0


def trace_loop(loop, passes_iter, n_passes):
    """The traced run: per-layer metrics plus the tracing overhead.

    Pass 0 is traced from cold caches, so kernel builds and cache misses are
    in the figures.  Then each deck runs twice, untraced and traced; the
    median of traced / untraced time over those pairs is trace.overhead_ratio.
    The pairs take about as long as n_passes untraced passes.
    integrate.cells_mismatch is counted over the untraced passes only, where
    the counter is the engine's own, and reported per pass.
    """
    pairs = max(1, (n_passes - 1) // 2)
    tracer = Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        loop.run_pass(next(passes_iter))
    finally:
        tracer.uninstall()
    traced_passes = 1
    ratios = []
    mismatch = 0
    while len(ratios) < pairs:
        ops = next(passes_iter)
        before = loop.cells_mismatch
        untraced = sum(loop.run_pass(ops))
        mismatch += loop.cells_mismatch - before
        tracer.install()
        try:
            traced = sum(loop.run_pass(ops))
        finally:
            tracer.uninstall()
        traced_passes += 1
        ratios.append(traced / untraced)
        elapsed = time.perf_counter() - start
        if elapsed * (len(ratios) + 1) / len(ratios) > LOOP_LIMIT_S:
            break
    per_layer = tracer.metrics(traced_passes)
    per_layer["integrate.cells_mismatch"] = mismatch / len(ratios)
    per_layer["trace.overhead_ratio"] = statistics.median(ratios)
    return {"per_layer": per_layer, "passes": traced_passes,
            "elapsed": time.perf_counter() - start}


def _versions():
    import mpmath
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "gjzeta": gjzeta.__version__, "kernels_backend": _kernels.backend()}


if __name__ == "__main__":
    sys.exit(main())
