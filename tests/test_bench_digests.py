"""Exactness gate: every benchmark op still gives its recorded digest.

perfbench/digests.json holds the SHA-256 of verdict + results for every op
input the benchmark's pools can draw.  The benchmark checks them only in its
own runs; this test runs each op once, in-process, so a change to any
reported value fails here and names the op.  perfbench/ is read, not changed.
"""

import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_op_matches_its_digest(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from ops import OpRunner, digest
    from workloads import all_ops

    recorded = json.loads((PERFBENCH / "digests.json").read_text())["ops"]
    ops = all_ops()
    assert sorted(ops) == sorted(recorded)
    runner = OpRunner(str(tmp_path))
    wrong = []
    for key, op in sorted(ops.items()):
        verdict, results, _, _ = runner.run(op)
        if digest(verdict, results) != recorded[key]["digest"]:
            wrong.append(key)
    assert wrong == []
