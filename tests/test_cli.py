"""CLI contract: golden runs, exit codes, report shape, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from gjzeta import archimedean, cli, integrate
from gjzeta.cli import build_config, build_parser, main
from gjzeta.errors import BudgetExceeded, NearZeroDenominator
from gjzeta.padic import PAdicContext, psi_value
from gjzeta.schwartz import SchwartzBruhatFn, SchwartzTerm
from gjzeta.zeta import MultiplicativeCharacter

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


# a chi of conductor exponent 2 at p = 3: chi(2) = zeta_3, 2 generating (Z/9)^x
CHI9 = '{"conductor_exp": 2, "generators": {"2": {"root": [1, 1]}}}'
# @file Phis that still reach the generic refinement: Id + p M_n(Z_p) under
# psi(tr(b g)) with p b not integral.  A chi of conductor 2 (quadratic at p = 2,
# CHI9 at p = 3) makes each nondegenerate.  name -> (n, p, b)
GENERIC_PHIS = {"coset_n1_p2": (1, 2, "1/4"), "coset_n1_p2_b3": (1, 2, "3/4"),
                "coset_n2_p3": (2, 3, "1/9")}


@pytest.fixture
def generic_phis(tmp_path):
    """name -> path of each GENERIC_PHIS file."""
    def diag(n, x):
        return [[x if i == j else "0" for j in range(n)] for i in range(n)]
    out = {}
    for name, (n, p, b) in GENERIC_PHIS.items():
        out[name] = tmp_path / ("%s.json" % name)
        out[name].write_text(json.dumps({"n": n, "p": p, "terms": [{
            "coeff": {"level": 0, "coeffs": ["1"]}, "center": diag(n, "1"), "level": 1,
            "modulation": diag(n, b)}]}))
    return out


def fill(argv, generic_phis):
    """argv with each @name of GENERIC_PHIS pointing at its file."""
    return [re.sub(r"@(\w+)", lambda m: "@%s" % generic_phis[m.group(1)], a) for a in argv]


def test_verify_bk_pass(generic_phis, capsys):
    code, rep = run_json(fill(["verify-bk", "--p", "2", "--n", "1", "--char", "quadratic",
                               "--phis", "@coset_n1_p2"], generic_phis), capsys)
    assert code == 0 and rep["verdict"] == "PASS"
    assert rep["cells_enumerated"] > 0
    assert rep["windows"]["k_range"]


# cells are those the refinement visits: a closed-form shell counts none, and a
# built-in Phi, shifted balls included, has only closed-form shells
@pytest.mark.parametrize("argv, cells", [
    (["gamma", "--p", "2", "--n", "1"], 0),  # shifted_ball(1,1) is a scalar-centred coset
    (["gamma", "--p", "3", "--n", "2"], 0),
    (["verify-bk", "--p", "3", "--n", "2", "--phis", "unit_ball"], 0),
    (["gamma", "--p", "2", "--n", "1", "--char", "quadratic",
      "--phis", "shifted_ball(1,2),shifted_ball(1,3)"], 0),
    (["gamma", "--p", "3", "--n", "2", "--phis", "shifted_ball(1,1),shifted_ball(1,2)"], 0),
    (["gamma", "--p", "2", "--n", "1", "--char", "quadratic", "--phis", "@coset_n1_p2"], 18),
    (["gamma", "--p", "2", "--n", "1", "--char", "quadratic",
      "--phis", "@coset_n1_p2,@coset_n1_p2_b3"], 2 * 18),  # every Phi, not the first
    (["gamma", "--p", "2", "--n", "1", "--char", "quadratic",
      "--phis", "shifted_ball(1,2),@coset_n1_p2"], 18),
    (["gamma", "--p", "3", "--n", "2", "--char", CHI9,
      "--phis", "shifted_ball(1,2),@coset_n2_p3"], 180)])
def test_cells_count_the_work_of_the_run(argv, cells, generic_phis, capsys):
    code, rep = run_json(fill(argv, generic_phis), capsys)
    assert code == 0 and rep["verdict"] == "PASS"
    assert rep["cells_enumerated"] == cells


@pytest.mark.parametrize("common", [
    ["--p", "3", "--n", "2", "--char", CHI9, "--phis", "@coset_n2_p3"],
    ["--p", "2", "--n", "1", "--char", "quadratic", "--phis", "@coset_n1_p2"]])
def test_verify_bk_counts_the_cells_of_its_gamma_factors(common, generic_phis, capsys):
    # the spectral action's shells are closed forms, so with one Phi verify-bk
    # counts what gamma counts for the same Phi
    common = fill(common, generic_phis)
    bk = run_json(["verify-bk"] + common, capsys)[1]
    gamma = run_json(["gamma"] + common, capsys)[1]
    assert bk["verdict"] == gamma["verdict"] == "PASS"
    assert bk["cells_enumerated"] == gamma["cells_enumerated"] > 0


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
    def near_zero(chi, s, phi):
        raise NearZeroDenominator("Z(Phi, s, chi) too close to zero at s=%s" % s)
    monkeypatch.setattr(archimedean, "gamma_real", near_zero)
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


def test_phi_from_json_file(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(SchwartzBruhatFn.unit_ball(1, PAdicContext(2)).to_json())
    argv = ["gamma", "--p", "2", "--n", "1", "--phis"]
    code, from_file = run_json(argv + ["@%s" % path], capsys)
    assert code == 0 and from_file["verdict"] == "PASS"
    _, built_in = run_json(argv + ["unit_ball"], capsys)
    assert from_file["results"]["gamma"] == built_in["results"]["gamma"]
    # the same file is a Phi on M_1(Q_2), not on M_1(Q_3)
    assert main(["gamma", "--p", "3", "--n", "1", "--phis", "@%s" % path]) == 3
    assert "wrong n or p" in capsys.readouterr().err


@pytest.mark.parametrize("char, same_as", [
    # 2 generates (Z/3)^x, so chi(2) = -1 is the Legendre symbol mod 3
    ('{"conductor_exp": 1, "generators": {"2": -1}}', "quadratic"),
    ('{"conductor_exp": 0, "value_at_p": {"root": [1, 1]}}', "unramified:root:1/1"),
    # chi(2) = zeta_3 on a primitive root mod 9, and the full table it generates
    ('{"conductor_exp": 2, "table": {"1": 1, "2": {"root": [1, 1]}, "4": {"root": [1, 2]},'
     ' "8": 1, "7": {"root": [1, 1]}, "5": {"root": [1, 2]}}}',
     '{"conductor_exp": 2, "generators": {"2": {"root": [1, 1]}}}'),
], ids=["generators", "root", "table"])
def test_character_spec_forms_agree(char, same_as, capsys):
    argv = ["gamma", "--p", "3", "--n", "1",
            "--phis", "shifted_ball(1,1),shifted_ball(1,2)", "--char"]
    code, rep = run_json(argv + [char], capsys)
    assert code == 0 and rep["verdict"] == "PASS"
    code, ref = run_json(argv + [same_as], capsys)
    assert code == 0 and rep["results"] == ref["results"]


def test_invalid_inputs_exit_3(tmp_path, capsys):
    assert main(["gamma", "--p", "2", "--n", "1", "--char", "nonsense"]) == 3
    assert main(["gamma", "--p", "2", "--n", "1", "--phis", "mystery_ball"]) == 3
    assert main(["gamma", "--p", "2", "--n", "9"]) == 3
    assert main(["gamma", "--p", "2"]) == 3  # missing --n
    assert main(["no-such-command"]) == 3
    capsys.readouterr()
    # each of these used to PASS with nothing checked
    for argv in (["verify-bk", "--p", "2", "--n", "1", "--phis", ","],
                 ["verify-relation", "--n", "0"],
                 ["verify-relation", "--n", "-3"],
                 ["fourier-selftest", "--count", "0"]):
        assert main(argv) == 3
        assert "invalid input" in capsys.readouterr().err
    # zero character values and JSON of the wrong shape, each once a traceback
    char_list = tmp_path / "char.json"
    char_list.write_text("[1, 2]")
    gamma = ["gamma", "--p", "3", "--n", "1"]
    argvs = [gamma + ["--char", char] for char in
             ("unramified:0", '{"conductor_exp": 1, "table": {"1": "0", "2": "1"}}',
              '{"table": [1, 2]}', str(char_list))]
    # a table with chi(1) = 2 is no character; it used to exit 0
    argvs.append(gamma + ["--char", '{"conductor_exp": 1, "table": {"1": "2", "2": "1"}}',
                          "--phis", "shifted_ball(1,1),shifted_ball(1,2)"])
    for i, doc in enumerate(("[]", '{"n": 1, "p": 3, "terms": [1]}')):
        phi = tmp_path / ("phi%d.json" % i)
        phi.write_text(doc)
        argvs.append(gamma + ["--phis", "@%s" % phi])
    for argv in argvs + [["verify-bk", "--p", "3", "--n", "1", "--char", "unramified:0"]]:
        assert main(argv) == 3
        assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("site", ["phi", "char", "table", "phi-file", "tau"])
def test_zero_denominator_exits_3(site, tmp_path, capsys):
    # each of these was an uncaught ZeroDivisionError, exit 1
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"n": 1, "p": 3, "terms": [
        {"coeff": {"level": 0, "coeffs": ["1"]}, "center": [["1/0"]],
         "level": 0, "modulation": [["0"]]}]}))
    gamma = ["gamma", "--p", "3", "--n", "1"]
    argv = {"phi": gamma + ["--phis", "shifted_ball(1/0,1)"],
            "char": gamma + ["--char", "unramified:1/0"],
            "table": gamma + ["--char", '{"conductor_exp": 1, "table": {"1": "1", "2": "1/0"}}'],
            "phi-file": gamma + ["--phis", "@%s" % phi],
            "tau": ["arch-gamma", "--tau", "1/0"]}[site]
    assert main(argv) == 3
    assert "invalid input" in capsys.readouterr().err


def test_unwritable_out_exits_3(tmp_path, capsys):
    # the report path's directory does not exist: once a traceback, exit 1
    out = tmp_path / "missing" / "r.json"
    assert main(["verify-relation", "--n", "1", "--out", str(out)]) == 3
    assert "invalid input" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--s", "nan,0.3"], ["--s", "0.3,inf"],
                                   ["--s", "nanj"], ["--tol", "nan"],
                                   ["--tol", "inf"], ["--tol=-1e-6"],
                                   ["--s=-0.5"], ["--s", "1.5"], ["--s", "40"],
                                   ["--s", "300"], ["--s", "0"], ["--s", "0.3,1+2j"]],
                         ids=["s=nan", "s=inf", "s=nanj", "tol=nan", "tol=inf", "tol<0",
                              "s=-0.5", "s=1.5", "s=40", "s=300", "s=0", "s=1+2j"])
def test_arch_gamma_unchecked_grid_or_tolerance_exits_3(flags, capsys):
    # --s nan,0.3 and --tol inf used to PASS without checking a value.  Outside
    # 0 < Re s < 1, where Z(Phi, s) and Z(Phi^, 1 - s) both converge, s = -0.5,
    # 1.5, 40 and 300 ended in an OverflowError traceback with exit 1
    assert main(["arch-gamma"] + flags) == 3
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("char", [
    '{"conductor_exp": 1, "generators": {"2": {"root": [25, 1]}}}',
    '{"conductor_exp": 1, "table": {"1": 1, "2": "root:25/1"}}',
], ids=["generators", "table"])
def test_root_above_the_conductor_exits_3(char, capsys):
    # no value of a character mod p^c lies at level m > c; zeta_{3^25} was built
    # as a 3^25-entry vector first, a MemoryError with exit 1
    assert main(["verify-inverse", "--p", "3", "--n", "1", "--char", char]) == 3
    assert "exceeds the conductor exponent 1" in capsys.readouterr().err


@pytest.mark.parametrize("char", [
    "unramified:root:25/1",
    '{"conductor_exp": 0, "value_at_p": {"root": [25, 1]}}',
], ids=["unramified", "json"])
def test_oversized_value_at_p_root_exits_3(char, capsys):
    # chi(p) has no conductor to bound its level; zeta_{3^25} was built as a
    # 3^25-entry vector first, a MemoryError with exit 1
    assert main(["gamma", "--p", "3", "--n", "1", "--char", char]) == 3
    assert "exceeds %d" % cli.MAX_ROOT_ORDER in capsys.readouterr().err


@pytest.mark.parametrize("char", [
    '{"conductor_exp": 30, "generators": {}}',
    '{"conductor_exp": 30, "table": {}}',
    '{"conductor_exp": 8, "generators": {"2": -1}}',
    '{"conductor_exp": -1, "generators": {}}',
], ids=["generators", "table", "3^8", "negative"])
def test_conductor_exponent_out_of_range_exits_3(char, capsys):
    # a character mod p^c lists its p^c residues: c = 30 ended in a MemoryError
    # traceback with exit 1, and c = -1 exited 3 only through a float exponent
    assert main(["gamma", "--p", "3", "--n", "1", "--char", char]) == 3
    assert "conductor exponent" in capsys.readouterr().err


def test_conductor_exponent_ceiling():
    # 3^7 <= MAX_ROOT_ORDER < 3^8, and no character has a negative exponent; chi(2) =
    # zeta_{3^7}^3 has order 3^6, so this table is primitive and keeps every phase
    chi = cli.parse_character(3, '{"conductor_exp": 7, "generators": {"2": {"root": [7, 3]}}}')
    assert chi.conductor_exp == 7 and len(chi.phases) == 2 * 3 ** 6
    with pytest.raises(ValueError, match="negative"):
        MultiplicativeCharacter(3, -1, {})


@pytest.mark.parametrize("char", [
    '{"conductor_exp": 1.9, "generators": {"3": -1}}',
    '{"conductor_exp": true, "generators": {"3": -1}}',
    '{"conductor_exp": 2, "generators": {"3": {"root": [1.7, 1.2]}}}',
    '{"conductor_exp": 2, "generators": {"3": {"root": [1, 1.2]}}}',
    '{"conductor_exp": 2, "generators": {"3": {"root": [true, 1]}}}',
], ids=["conductor", "conductor-bool", "root", "root-a", "root-bool"])
def test_non_integer_json_character_field_exits_3(char, capsys):
    # int() truncated each of these: conductor 1.9 was read as 1 and root [1.7, 1.2]
    # as [1, 1], so the run exited 0 PASS on a character nobody wrote
    assert main(["verify-inverse", "--p", "7", "--n", "1", "--char", char]) == 3
    assert "invalid input" in capsys.readouterr().err


def _phi_doc(phi=None):
    phi = phi or SchwartzBruhatFn.unit_ball(1, PAdicContext(3))
    return json.loads(phi.to_json())


@pytest.mark.parametrize("field, value", [
    ("n", 1.9), ("p", 3.2), ("level", 1.7), ("coeff-level", 0.5), ("level", True),
    ("n", True)], ids=["n", "p", "level", "coeff-level", "level-bool", "n-bool"])
def test_non_integer_json_phi_field_exits_3(field, value, tmp_path, capsys):
    # int() truncated each of these, so gamma --p 3 --n 1 exited 0 PASS
    doc = _phi_doc()
    if field in ("n", "p"):
        doc[field] = value
    elif field == "level":
        doc["terms"][0]["level"] = value
    else:
        doc["terms"][0]["coeff"]["level"] = value
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(doc))
    assert main(["gamma", "--p", "3", "--n", "1", "--phis", "@%s" % phi]) == 3
    assert "invalid input" in capsys.readouterr().err


def test_integer_strings_in_json_fields_still_parse(tmp_path, capsys):
    doc = _phi_doc(SchwartzBruhatFn.shifted_ball(1, PAdicContext(3), 1, 2))
    doc["n"], doc["p"] = "1", "3"
    doc["terms"][0]["level"], doc["terms"][0]["coeff"]["level"] = "2", "0"
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(doc))
    gamma = ["gamma", "--p", "3", "--n", "1", "--char"]
    as_strings = '{"conductor_exp": "2", "generators": {"2": {"root": ["1", "1"]}}}'
    code, rep = run_json(gamma + [as_strings, "--phis", "@%s" % phi], capsys)
    assert code == 0 and rep["verdict"] == "PASS"
    _, ref = run_json(gamma + ['{"conductor_exp": 2, "generators": {"2": {"root": [1, 1]}}}',
                               "--phis", "shifted_ball(1,2)"], capsys)
    assert rep["results"] == ref["results"]


HIGH_CONDUCTOR_RUNS = [
    ("2", "1", '{"conductor_exp":6,"generators":{"5":{"root":[4,1]},"63":1}}'),
    ("2", "2", '{"conductor_exp":12,"generators":{"5":{"root":[10,1]},"4095":1}}'),
    ("3", "1", '{"conductor_exp":7,"generators":{"2":{"root":[7,3]}}}')]


@pytest.mark.parametrize("p, n, char", HIGH_CONDUCTOR_RUNS, ids=["p2-c6", "p2-c12", "p3-c7"])
def test_high_conductor_runs_pass(p, n, char, capsys):
    # m* = max(1, f, ceil(-k/n)) exceeds 8 on these shells; a cap at m = 8 made each run
    # exit 2 with NoStabilization, though a closed-form shell costs the same at any m
    code, rep = run_json(["verify-inverse", "--p", p, "--n", n, "--char", char], capsys)
    assert code == 0 and rep["verdict"] == "PASS"
    assert max(rep["windows"]["m_range"]) > 8


def test_imprimitive_table_gives_the_same_results(capsys):
    # the quadratic chi written as a table mod 7^2 and mod 7^3 is kept at its true
    # conductor 1: the same windows and the same results
    argv = ["verify-inverse", "--p", "7", "--n", "2", "--char"]
    code, ref = run_json(argv + ["quadratic"], capsys)
    assert code == 0 and ref["verdict"] == "PASS"
    for c in (2, 3):
        code, rep = run_json(argv + ['{"conductor_exp": %d, "generators": {"3": -1}}' % c],
                             capsys)
        assert code == 0 and rep["verdict"] == "PASS"
        assert (rep["results"], rep["windows"]) == (ref["results"], ref["windows"])


@pytest.mark.parametrize("p, m", [(2, 12), (3, 7), (5, 5), (13, 3)])
def test_root_order_ceiling(p, m):
    # the largest level with p^m <= MAX_ROOT_ORDER is built; one more is refused
    assert cli._parse_scalar_spec(p, "root:%d/1" % m).m == m
    with pytest.raises(cli.InvalidSpec):
        cli._parse_scalar_spec(p, "root:%d/1" % (m + 1))


def test_arch_gamma_nan_row_fails(monkeypatch, capsys):
    # max(0.0, nan, ...) dropped a NaN row from max_abs_err and the verdict
    monkeypatch.setattr(archimedean, "gamma_oracle",
                        lambda chi, s: complex("nan") if s == 0.3 else complex(0))
    monkeypatch.setattr(archimedean, "gamma_real", lambda chi, s, phi: complex(0))
    code, rep = run_json(["arch-gamma", "--s", "0.3,0.4"], capsys)
    assert code == 1 and rep["verdict"] == "FAIL"
    assert math.isnan(rep["results"]["max_abs_err"])
    assert run(["arch-gamma", "--s", "0.4,0.5"], capsys)[0] == 0


# the generic refinement of coset_n2_p3 needs 180 cells; a budget of 1 trips it
BUDGET_TRIP = ["verify-bk", "--p", "3", "--n", "2", "--char", CHI9, "--phis", "@coset_n2_p3",
               "--hard-budget", "1"]


def test_engine_error_maps_to_inconclusive(generic_phis, capsys):
    argv = fill(BUDGET_TRIP, generic_phis)
    assert main(argv) == 2
    assert "INCONCLUSIVE: BudgetExceeded" in capsys.readouterr().err
    assert main(argv[:-2]) == 0


@pytest.mark.parametrize("argv, error", [
    (["verify-bk", "--p", "3", "--n", "1", "--char", "quadratic"], "ZeroDenominator"),
    (BUDGET_TRIP, "BudgetExceeded")])
def test_inconclusive_writes_report(argv, error, generic_phis, tmp_path, capsys):
    # a stale report from an earlier run must not survive an INCONCLUSIVE one
    out = tmp_path / "report.json"
    out.write_text(json.dumps({"verdict": "PASS"}))
    assert main(fill(argv, generic_phis) + ["--out", str(out)]) == 2
    assert "INCONCLUSIVE: %s" % error in capsys.readouterr().err
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "INCONCLUSIVE" and rep["command"] == "verify-bk"
    assert rep["results"]["error"] == error and rep["results"]["message"]
    assert rep["parameters"]["p"] == int(argv[2]) and rep["cells_enumerated"] is None


def test_quadratic_bk_default_phis_report_is_pinned(capsys):
    # for a ramified chi the unit ball's zeta integral vanishes identically:
    # the zero test on its rational coefficients decides this exit-2 report
    code, rep = run_json(["verify-bk", "--p", "3", "--n", "2", "--char", "quadratic"], capsys)
    assert code == 2 and rep["verdict"] == "INCONCLUSIVE"
    assert rep["results"] == {"error": "ZeroDenominator",
                              "message": "Z(Phi, s, chi) vanishes identically for this Phi"}
    assert rep["cells_enumerated"] is None and rep["windows"] == {}


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


def test_wide_split_over_budget_exits_2(tmp_path, monkeypatch, capsys):
    # n = 3, p = 7: the root's 7^9 child offsets were built before the budget was
    # checked, and the run ended in a MemoryError with exit 1; the guard refuses them
    offsets = integrate._offsets

    def guarded(n2, p, j):
        assert p ** n2 <= 10 ** 7, "child offsets built past the budget"
        return offsets(n2, p, j)
    monkeypatch.setattr(integrate, "_offsets", guarded)
    zero = [["0"] * 3] * 3
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"n": 3, "p": 7, "terms": [{
        "coeff": {"level": 0, "coeffs": ["1"]}, "center": zero, "level": 0,
        "modulation": [["0", "1/49", "0"], ["1/7", "0", "0"], ["0", "0", "0"]]}]}))
    code, rep = run_json(["gamma", "--p", "7", "--n", "3", "--phis", "@%s" % phi], capsys)
    assert code == 2 and rep["verdict"] == "INCONCLUSIVE"
    assert rep["results"]["error"] == "BudgetExceeded"
    assert rep["results"]["cells"] == 10 ** 7 + 1


def test_handler_patched_after_a_run_takes_effect(monkeypatch, capsys):
    # main builds its parser once per process, but looks each handler up
    # by name when it runs, so a later monkeypatch still takes effect
    code, rep = run_json(["verify-relation", "--n", "1"], capsys)
    assert code == 0 and rep["verdict"] == "PASS"

    def failing(args):
        return {"n_max": args.n}, {"patched": True}, "FAIL", 0, None
    monkeypatch.setattr(cli, "cmd_verify_relation", failing)
    code, rep = run_json(["verify-relation", "--n", "1"], capsys)
    assert code == 1 and rep["results"] == {"patched": True}


def test_consecutive_runs_write_their_own_reports(tmp_path):
    # the shared parser must carry nothing from one run into the next
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["verify-relation", "--n", "2", "--out", str(first)]) == 0
    assert main(["fourier-selftest", "--count", "1", "--seed", "5",
                 "--out", str(second)]) == 0
    a, b = json.loads(first.read_text()), json.loads(second.read_text())
    assert a["command"] == "verify-relation" and a["parameters"] == {"n_max": 2}
    assert [r["n"] for r in a["results"]] == [1, 2]
    assert b["command"] == "fourier-selftest"
    assert b["parameters"] == {"count_per_case": 1, "seed": 5}
    assert b["results"] == {"functions_checked": 4, "failures": []}


def test_fourier_selftest_catches_a_wrong_phase(monkeypatch, capsys):
    # psi(tr a) in place of psi(tr(b a)): f^^ keeps the terms of reflect(f)
    # with other coefficients, which fn_equal must still tell apart
    def wrong_phase(self):
        p, n2 = self.ctx.p, self.n * self.n
        return SchwartzBruhatFn(self.n, self.ctx, [SchwartzTerm(
            t.coeff * Fraction(p) ** (-t.level * n2) * psi_value(t.center.trace(), self.ctx),
            -t.modulation, -t.level, t.center) for t in self.terms])
    monkeypatch.setattr(SchwartzBruhatFn, "fourier", wrong_phase)
    code, rep = run_json(["fourier-selftest", "--count", "3"], capsys)
    assert code == 1 and rep["verdict"] == "FAIL"
    assert "double transform = reflect" in {f["law"] for f in rep["results"]["failures"]}


def test_fourier_selftest_catches_a_wrong_volume(monkeypatch, capsys):
    # p^(+k n^2) in place of p^(-k n^2) in the integer scale: the two scales of
    # F(F(f)) still cancel, so only Plancherel sees the volume, and must
    real = SchwartzBruhatFn.fourier

    def wrong_volume(self):
        out = real(self)
        for s, t in zip(out.terms, self.terms):
            s.scale += 2 * t.level * self.n * self.n
        return out
    monkeypatch.setattr(SchwartzBruhatFn, "fourier", wrong_volume)
    code, rep = run_json(["fourier-selftest", "--count", "3"], capsys)
    assert code == 1 and rep["verdict"] == "FAIL"
    assert {f["law"] for f in rep["results"]["failures"]} == {"Plancherel"}


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
    (["--r-max", "-1"], None),
    (["--hard-budget", "0"], None),
    (["--threads", "0"], None),
    ([], "-5"),
], ids=["confirm=-1", "confirm=0", "r-max=-1", "hard-budget=0",
        "threads=0", "env-hard-budget=-5"])
def test_out_of_range_engine_flags_exit_3(flags, env, monkeypatch, capsys):
    # before validation these crashed (exit 1), passed on zero confirmed
    # terms, ran to INCONCLUSIVE, or were accepted silently
    if env is not None:
        monkeypatch.setenv("GJZETA_HARD_BUDGET", env)
    assert main(["verify-inverse", "--p", "2", "--n", "1"] + flags) == 3
    assert "invalid input" in capsys.readouterr().err


# A fresh interpreter: which modules a CLI run loads.  The p-adic commands
# must not load scipy; arch-gamma loads scipy.integrate when it integrates.
# cli loads archimedean lazily, so the probe imports it to check that it loads no scipy.
SCIPY_PROBE = """
import sys
from gjzeta import archimedean, cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert cli.main(["verify-inverse", "--p", "3", "--n", "2", "--out", sys.argv[1]]) == 0
assert not scipy_modules(), scipy_modules()[:5]
assert cli.main(["arch-gamma", "--out", sys.argv[2]]) == 0
assert "scipy.integrate" in sys.modules
"""


def _fresh_python(code, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_scipy_is_loaded_only_by_the_real_place(tmp_path):
    proc = _fresh_python(SCIPY_PROBE, str(tmp_path / "inverse.json"),
                         str(tmp_path / "arch.json"))
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_no_numpy_scipy_dataclasses_inspect_or_copy():
    proc = _fresh_python(
        "import sys, gjzeta.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'numpy', 'scipy', 'dataclasses', 'inspect', 'copy'}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


REAL_PLACE_MODULES = ("sorted(m for m in sys.modules"
                      " if m.split('.')[0] == 'mpmath' or m == 'gjzeta.archimedean')")


@pytest.mark.parametrize("module", ["gjzeta", "gjzeta.cli"])
def test_padic_imports_load_no_real_place(module):
    # mpmath and gjzeta.archimedean load only when the real place is used
    proc = _fresh_python("import sys, %s\nprint(%s)" % (module, REAL_PLACE_MODULES))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_arch_gamma_loads_the_real_place(tmp_path):
    proc = _fresh_python(
        "import sys\nfrom gjzeta import cli\n"
        "for argv in (['verify-inverse', '--p', '3', '--n', '2'], ['arch-gamma', '--s', '0.5']):\n"
        "    assert cli.main(argv + ['--out', sys.argv[1]]) == 0\n"
        "    print(%s)" % REAL_PLACE_MODULES, str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr
    padic, real = proc.stdout.splitlines()
    assert padic == "[]" and "'gjzeta.archimedean'" in real and "'mpmath'" in real
