"""Record the exactness gate: a digest of every op input the pools can draw.

Run once on the commit whose values are the reference, from the root of a
checkout:

    python3 perfbench/record_digests.py

It runs each op at --threads 1 and writes perfbench/digests.json with the
SHA-256 of verdict + results, the --threads 1 cells_enumerated (compared,
outside the gate, by the hermite-n2-t2 workload) and the time it took.
Every op must PASS; the script exits 1 and writes nothing otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from ops import OpRunner, digest  # noqa: E402
from workloads import all_ops  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")


def main() -> int:
    recorded = {}
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    bad = []
    try:
        runner = OpRunner(scratch)
        for key, op in sorted(all_ops().items()):
            t0 = time.perf_counter()
            verdict, results, cells, rc = runner.run(op)
            dt = time.perf_counter() - t0
            print("%7.2fs %-4s %s" % (dt, verdict, key), flush=True)
            if verdict != "PASS" or rc != 0:
                bad.append(key)
                continue
            recorded[key] = {"digest": digest(verdict, results), "cells": cells,
                             "seconds": round(dt, 3)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if bad:
        print("not PASS, nothing written: %s" % bad, file=sys.stderr)
        return 1
    with open(DIGESTS, "w") as fh:
        json.dump({"ops": dict(sorted(recorded.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
