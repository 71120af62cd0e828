"""CLI contract: golden runs, exit codes, report shape, determinism."""

import json
import threading

import pytest

from gjzeta import cli
from gjzeta.cli import build_config, build_parser, main
from gjzeta.errors import BudgetExceeded, NearZeroDenominator

TATE_GAMMA_P2 = {"base_q": 2, "den": {"0": "1", "2": "-2"},
                 "num": {"2": "-2", "4": "2"}}
COLUMNS = ("s_re", "s_im", "gamma_re", "gamma_im", "oracle_re", "oracle_im", "abs_err")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, json.loads(out)


def test_gamma_golden_tate(capsys):
    code, rep = run_json(["gamma", "--p", "2", "--n", "1", "--char", "trivial"], capsys)
    assert code == 0
    assert rep["verdict"] == "PASS"
    assert rep["results"]["gamma"] == TATE_GAMMA_P2
    assert rep["tool"] == "gjzeta"
    assert "elapsed_seconds" in rep


def test_verify_fe_pass(capsys):
    code, rep = run_json(["verify-fe", "--p", "3", "--n", "1",
                          "--char", "unramified:-1"], capsys)
    assert code == 0 and rep["verdict"] == "PASS"


def test_verify_fe_report_names_its_command(capsys):
    # verify-fe runs the gamma engine but reports under its own name
    code, rep = run_json(["verify-fe", "--p", "3", "--n", "1"], capsys)
    assert code == 0 and rep["command"] == "verify-fe"


def test_verify_bk_pass(capsys):
    code, rep = run_json(["verify-bk", "--p", "2", "--n", "1",
                          "--char", "quadratic", "--phis", "shifted_ball(1,2)"],
                         capsys)
    assert code == 0 and rep["verdict"] == "PASS"
    assert rep["cells_enumerated"] > 0
    assert rep["windows"]["k_range"]


def test_verify_inverse_pass(capsys):
    code, rep = run_json(["verify-inverse", "--p", "2", "--n", "1",
                          "--alpha2", "1"], capsys)
    assert code == 0 and rep["verdict"] == "PASS"


@pytest.mark.parametrize("argv", [["verify-inverse", "--p", "5", "--n", "2"],
                                  ["verify-bk", "--p", "5", "--n", "2",
                                   "--phis", "unit_ball"]])
def test_n2_hermite_p5_pass(argv, capsys):
    code, rep = run_json(argv, capsys)
    assert code == 0 and rep["verdict"] == "PASS"


@pytest.mark.parametrize("argv", [["verify-inverse", "--p", "11", "--n", "2"],
                                  ["verify-bk", "--p", "11", "--n", "2",
                                   "--phis", "unit_ball"],
                                  ["verify-inverse", "--p", "5", "--n", "2",
                                   "--char", "quadratic"]])
def test_n2_hermite_has_no_bin_bound(argv, capsys):
    # each run has a Hermite shell with p^(2 mc + cu) above 10^7
    code, rep = run_json(argv, capsys)
    assert code == 0 and rep["verdict"] == "PASS"


GJ_GAMMA_P2_N3 = {"base_q": 2, "den": {"0": "1", "2": "-8"},
                  "num": {"6": "-64", "8": "64"}}


@pytest.mark.parametrize("argv", [["gamma", "--p", "2", "--n", "3",
                                   "--phis", "unit_ball,scaled_ball(1)"],
                                  ["verify-inverse", "--p", "3", "--n", "3"],
                                  ["verify-bk", "--p", "2", "--n", "3",
                                   "--phis", "unit_ball"]])
def test_n3_pass(argv, capsys):
    code, rep = run_json(argv, capsys)
    assert code == 0 and rep["verdict"] == "PASS"
    if argv[0] == "gamma":  # gamma_Tate(s) gamma_Tate(s - 1) gamma_Tate(s - 2)
        assert rep["results"]["gamma"] == GJ_GAMMA_P2_N3


def test_verify_relation_pass(capsys):
    code, rep = run_json(["verify-relation", "--n", "8"], capsys)
    assert code == 0 and rep["verdict"] == "PASS"
    assert len(rep["results"]) == 8


def test_fourier_selftest_small(capsys):
    code, rep = run_json(["fourier-selftest", "--count", "3"], capsys)
    assert code == 0 and rep["verdict"] == "PASS"
    assert rep["results"]["functions_checked"] == 12


def test_arch_gamma_csv(capsys):
    code, out = run(["arch-gamma", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s_re,s_im,gamma_re,gamma_im,oracle_re,oracle_im,abs_err"
    assert len(lines) >= 4
    assert all(float(line.split(",")[-1]) < 1e-6 for line in lines[1:])
    # each CSV row is the %.12g form of the JSON row for the same s grid
    _, rep = run_json(["arch-gamma"], capsys)
    assert lines[1:] == [",".join("%.12g" % row[c] for c in COLUMNS)
                         for row in rep["results"]["rows"]]


def test_arch_gamma_csv_inconclusive_writes_json(monkeypatch, capsys):
    def near_zero(chi, s, phi, cfg):
        raise NearZeroDenominator("Z(Phi, s, chi) too close to zero at s=%s" % s)
    monkeypatch.setattr(cli, "gamma_real", near_zero)
    code, rep = run_json(["arch-gamma", "--format", "csv"], capsys)
    assert code == 2 and rep["verdict"] == "INCONCLUSIVE"
    assert rep["results"]["error"] == "NearZeroDenominator"


def test_arch_gamma_json(capsys):
    code, rep = run_json(["arch-gamma", "--delta", "1", "--s", "0.4+0.1j"], capsys)
    assert code == 0 and rep["verdict"] == "PASS"


def test_character_json_inline(capsys):
    # the quadratic character mod 4 given explicitly
    char = '{"conductor_exp": 2, "table": {"1": 1, "3": -1}}'
    code, rep = run_json(["gamma", "--p", "2", "--n", "1", "--char", char,
                          "--phis", "shifted_ball(1,2),shifted_ball(1,3)"], capsys)
    assert code == 0 and rep["verdict"] == "PASS"


def test_invalid_inputs_exit_3(capsys):
    assert main(["gamma", "--p", "2", "--n", "1", "--char", "nonsense"]) == 3
    assert main(["gamma", "--p", "2", "--n", "1", "--phis", "mystery_ball"]) == 3
    assert main(["gamma", "--p", "2", "--n", "9"]) == 3
    assert main(["gamma", "--p", "2"]) == 3  # missing --n
    assert main(["no-such-command"]) == 3


def test_engine_error_maps_to_inconclusive(capsys):
    # an impossible truncation window forces NoStabilization
    code = main(["verify-bk", "--p", "2", "--n", "1", "--char", "trivial",
                 "--phis", "unit_ball", "--m-max", "0"])
    assert code == 2


@pytest.mark.parametrize("argv, error", [
    (["verify-bk", "--p", "3", "--n", "1", "--char", "quadratic"], "ZeroDenominator"),
    (["verify-bk", "--p", "2", "--n", "1", "--phis", "unit_ball", "--m-max", "0"],
     "NoStabilization")])
def test_inconclusive_writes_report(argv, error, tmp_path, capsys):
    # a stale report from an earlier run must not survive an INCONCLUSIVE one
    out = tmp_path / "report.json"
    out.write_text(json.dumps({"verdict": "PASS"}))
    assert main(argv + ["--out", str(out)]) == 2
    assert "INCONCLUSIVE: %s" % error in capsys.readouterr().err
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "INCONCLUSIVE" and rep["command"] == "verify-bk"
    assert rep["results"]["error"] == error and rep["results"]["message"]
    assert rep["parameters"]["p"] == int(argv[2]) and rep["cells_enumerated"] is None


def test_inconclusive_report_names_budget_shell(monkeypatch, capsys):
    def over_budget(args):
        raise BudgetExceeded("refinement exceeded 5 cells", shell=3, truncation=1, cells=6)
    monkeypatch.setattr(cli, "cmd_verify_inverse", over_budget)
    code, rep = run_json(["verify-inverse", "--p", "2", "--n", "2", "--hard-budget", "5"],
                         capsys)
    assert code == 2
    assert rep["results"] == {"error": "BudgetExceeded",
                              "message": "refinement exceeded 5 cells",
                              "shell": 3, "truncation": 1, "cells": 6}


def test_failure_exit_1(capsys):
    # the delta=1 oracle differs from the delta=0 gamma: force a FAIL via
    # an oracle tolerance no real run can miss only when values differ
    code, rep = run_json(["arch-gamma", "--tol", "0"], capsys)
    assert code == 1 and rep["verdict"] == "FAIL"


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify-relation", "--n", "2", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "PASS"


@pytest.mark.parametrize("threads", ["1", "4"])
def test_thread_flag_does_not_change_values(threads, capsys):
    code, rep = run_json(["gamma", "--p", "2", "--n", "1", "--char", "trivial",
                          "--threads", threads], capsys)
    assert code == 0
    assert rep["results"]["gamma"] == TATE_GAMMA_P2



def test_engine_starts_no_thread(monkeypatch, tmp_path):
    # evaluation is serial: --threads is accepted but never starts a worker
    def refuse(self):
        raise AssertionError("thread started: %r" % self)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = tmp_path / "report.json"
    assert main(["verify-inverse", "--p", "3", "--n", "2", "--threads", "4",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "PASS"

def test_hard_budget_precedence(monkeypatch):
    argv = ["verify-inverse", "--p", "2", "--n", "1"]
    parser = build_parser()
    assert build_config(parser.parse_args(argv)).hard_budget == 10 ** 7
    monkeypatch.setenv("GJZETA_HARD_BUDGET", "50")
    assert build_config(parser.parse_args(argv)).hard_budget == 50
    flagged = parser.parse_args(argv + ["--hard-budget", "999"])
    assert build_config(flagged).hard_budget == 999


@pytest.mark.parametrize("flags, env", [
    (["--confirm", "-1"], None),
    (["--confirm", "0"], None),
    (["--m-max", "-1"], None),
    (["--r-max", "-1"], None),
    (["--hard-budget", "0"], None),
    (["--threads", "0"], None),
    ([], "-5"),
], ids=["confirm=-1", "confirm=0", "m-max=-1", "r-max=-1", "hard-budget=0",
        "threads=0", "env-hard-budget=-5"])
def test_out_of_range_engine_flags_exit_3(flags, env, monkeypatch, capsys):
    # before validation these crashed (exit 1), passed on zero confirmed
    # terms, ran to INCONCLUSIVE, or were accepted silently
    if env is not None:
        monkeypatch.setenv("GJZETA_HARD_BUDGET", env)
    assert main(["verify-inverse", "--p", "2", "--n", "1"] + flags) == 3
    assert "invalid input" in capsys.readouterr().err
