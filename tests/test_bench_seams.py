"""The engine names the benchmark tracer wraps must exist and be restored.

perfbench/tracer.py patches engine functions by name; deleting or renaming
one breaks `perfbench/run.py --trace 1` without failing any other test.
"""

import json
import sys
from pathlib import Path

from gjzeta import archimedean, cli  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _engine_globals():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name.startswith("gjzeta") and mod is not None
            for attr, value in vars(mod).items()}


def _traced_run(monkeypatch, tmp_path, argv):
    """The tracer's metrics for one CLI run; uninstall must restore every engine global."""
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
        assert cli.main(argv + ["--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert json.loads(out.read_text())["verdict"] == "PASS"
    after = _engine_globals()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    return tracer.metrics(1)


def test_tracer_wraps_and_restores_engine_seams(monkeypatch, tmp_path):
    # the spectral action and a closed-form Phi read generating functions with no
    # rationalize; Id + 2 Z_2 under psi(g / 4) is refined, so its zeta integrals are
    # sampled series and still run the series layer
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"n": 1, "p": 2, "terms": [{
        "coeff": {"level": 0, "coeffs": ["1"]}, "center": [["1"]], "level": 1,
        "modulation": [["1/4"]]}]}))
    metrics = _traced_run(monkeypatch, tmp_path, ["verify-bk", "--p", "2", "--n", "1",
                                                  "--char", "quadratic", "--phis", "@%s" % phi])
    assert metrics["integrate.shell.hermite.calls"] > 0
    # the series layer runs through the wrapped names, or its metrics read 0
    assert metrics["recurrence.detect_recurrence.calls"] > 0
    assert metrics["integrate.rationalize.calls"] > 0


def test_tracer_sees_the_real_place_at_call_time(monkeypatch, tmp_path):
    # cmd_arch_gamma reads gamma_real from archimedean per call, so it runs the
    # wrapper; archimedean is imported above, so its globals are checked too
    metrics = _traced_run(monkeypatch, tmp_path, ["arch-gamma", "--s", "0.5"])
    assert metrics["archimedean.gamma_real.calls"] > 0
