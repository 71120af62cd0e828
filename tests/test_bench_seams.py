"""The engine names the benchmark tracer wraps must exist and be restored.

perfbench/tracer.py patches engine functions by name; deleting or renaming
one breaks `perfbench/run.py --trace 1` without failing any other test.
"""

import json
import sys
from pathlib import Path

from gjzeta import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _engine_globals():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name.startswith("gjzeta") and mod is not None
            for attr, value in vars(mod).items()}


def test_tracer_wraps_and_restores_engine_seams(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    before = _engine_globals()
    tracer = Tracer()
    try:
        tracer.install()
    except Exception:
        # a missing seam stops install part way; undo what it patched so
        # the rest of the suite runs on the plain engine
        for owner, attr, original in reversed(tracer._patches):
            setattr(owner, attr, original)
        raise
    try:
        out = tmp_path / "report.json"
        assert cli.main(["verify-inverse", "--p", "2", "--n", "2", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert json.loads(out.read_text())["verdict"] == "PASS"
    after = _engine_globals()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    assert tracer.metrics(1)["integrate.shell.hermite.calls"] > 0
