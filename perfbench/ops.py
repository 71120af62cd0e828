"""Run one op against the engine and reduce its output to a digest.

The digest covers the verdict and the exact results only; elapsed_seconds
and cells_enumerated are timing and bookkeeping, not values, and stay out.
arch-gamma's results are floats from scipy quadrature, which a correct
change or another scipy build may move inside the command's own tolerance;
for it the digest covers the verdict and the exact inputs (s-grid, tau,
delta, tol), and the PASS verdict vouches for the values.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from gjzeta import cli
from gjzeta.integrate import IntegrationConfig, term_shell_integral
from gjzeta.padic import PAdicContext, PAdicMatrix
from gjzeta.scalars import scalar_is_zero
from gjzeta.zeta import MultiplicativeCharacter


def digest(verdict, results) -> str:
    text = json.dumps({"verdict": verdict, "results": results},
                      sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class OpRunner:
    """Runs ops with a fresh --out path each, inside one scratch directory.

    A reused path would let an op that writes no report (INCONCLUSIVE exits
    with code 2 and writes nothing) read the previous op's stale PASS.
    """

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir
        self.count = 0

    def run(self, op):
        """(verdict or None, results, cells, exit code or None)."""
        if op[0] == "cli":
            return self._run_cli(op[1])
        return self._run_xcheck(*op[1:])

    def _run_cli(self, argv):
        self.count += 1
        out = os.path.join(self.scratch_dir, "op%d.json" % self.count)
        rc = cli.main(list(argv) + ["--out", out])
        if not os.path.exists(out):
            return None, None, None, rc
        try:
            with open(out) as fh:
                report = json.load(fh)
        finally:
            os.remove(out)
        results = report.get("results")
        if argv[0] == "arch-gamma":
            results = report.get("parameters")
        return report.get("verdict"), results, report.get("cells_enumerated"), rc

    @staticmethod
    def _run_xcheck(p, k, level, c, char):
        ctx = PAdicContext(p)
        chi = MultiplicativeCharacter.quadratic_ramified(p) if char == "quadratic" else None
        zero = PAdicMatrix.zero(2)
        mod = PAdicMatrix.scalar(2, Fraction(c))
        fast_stats, slow_stats = {}, {}
        fast = term_shell_integral(ctx, k, zero, level, mod, IntegrationConfig(),
                                   chi, fast_stats)
        slow = term_shell_integral(ctx, k, zero, level, mod,
                                   IntegrationConfig(force_enumeration=True),
                                   chi, slow_stats)
        verdict = "PASS" if scalar_is_zero(fast - slow) else "FAIL"
        cells = fast_stats.get("cells", 0) + slow_stats.get("cells", 0)
        return verdict, {"hermite": repr(fast), "enumeration": repr(slow)}, cells, 0
