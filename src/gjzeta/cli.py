"""Batch CLI: every verification and computation as a reproducible run.

Each subcommand validates its inputs, runs the engine and returns the report
body; `main` alone times the run, writes the machine-readable Report (JSON;
CSV for arch-gamma) and maps its verdict to an exit code.  Exit codes:
0 = all PASS, 1 = any FAIL, 2 = INCONCLUSIVE (an engine limit such as the
cell budget or the recurrence bound — never a refutation), 3 = invalid input.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import os
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .distributions import (INVERSE, TwistedDistribution, cstar_gamma, tilde,
                            verify_bk_identity, verify_inverse_weak,
                            verify_relation)
from .errors import EngineError
from .integrate import IntegrationConfig
from .padic import PAdicContext, PAdicMatrix
from .scalars import root_of_unity
from .schwartz import MAX_ROOT_ORDER, SchwartzBruhatFn, SchwartzTerm, json_exact
from .zeta import MultiplicativeCharacter, phi_independence_check

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_INVALID = 0, 1, 2, 3


class InvalidSpec(Exception):
    pass


# -- input parsing -------------------------------------------------------

def parse_character(p: int, source: str) -> MultiplicativeCharacter:
    """Named built-ins, inline JSON (starts with '{'), or a JSON file path.

    JSON schema: {"conductor_exp": c, "table": {"u": value, ...} or
    "generators": {"g": value, ...}, "value_at_p": value}; scalar values are
    rational strings or {"root": [m, a]} for the p^m-th root of unity zeta^a.
    Any other key, or a table beside generators, is refused.
    """
    source = source.strip()
    if source == "trivial":
        return MultiplicativeCharacter.trivial(p)
    if source.startswith("unramified:"):
        return MultiplicativeCharacter.unramified(
            p, _parse_scalar_spec(p, source.split(":", 1)[1]))
    if source == "quadratic":
        return MultiplicativeCharacter.quadratic_ramified(p)
    if source.startswith("{"):
        data = json.loads(source)
    else:
        try:
            with open(source) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InvalidSpec("cannot read character source %r: %s" % (source, exc))
    if not (isinstance(data, dict) and isinstance(data.get("table", {}), dict)
            and isinstance(data.get("generators", {}), dict)):
        raise InvalidSpec("a character is a JSON object whose table and generators "
                          "are objects")
    unknown = sorted(data.keys() - {"conductor_exp", "table", "generators", "value_at_p"})
    if unknown:
        raise InvalidSpec("unknown character key %s" % ", ".join(map(repr, unknown)))
    if "table" in data and "generators" in data:
        raise InvalidSpec("a character has a table or generators, not both")
    try:
        c = json_exact(data.get("conductor_exp", 0))
        if c < 0 or p ** min(c, 13) > MAX_ROOT_ORDER:  # checked before any residue is listed
            raise InvalidSpec("conductor exponent %d outside 0 <= c, %d^c <= %d"
                              % (c, p, MAX_ROOT_ORDER))
        vp = _parse_scalar_spec(p, data.get("value_at_p", 1))
        table = data.get("generators", data.get("table", {}))
        return MultiplicativeCharacter(
            p, c, {int(u): _parse_scalar_spec(p, v, c) for u, v in table.items()}, vp)
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidSpec("bad character description: %s" % exc)


def _rational(text) -> Fraction:
    """json_exact(text, Fraction), with a zero denominator reported as invalid input."""
    try:
        return json_exact(text, Fraction)
    except ZeroDivisionError:
        raise InvalidSpec("zero denominator in %r" % (text,)) from None


N_CHOICES = range(1, 9)  # the GL_n sizes of gamma, verify-fe, verify-bk and verify-inverse


def _parse_scalar_spec(p: int, v, max_level=None):
    """A rational, or zeta_{p^m}^a from {"root": [m, a]} or "root:m/a".  A unit
    value of a character mod p^c has m <= c, and any root has p^m <= MAX_ROOT_ORDER:
    a larger m is refused before the p^m coefficient vector is built."""
    if isinstance(v, dict):
        if "root" not in v:
            raise InvalidSpec("scalar dict needs a 'root': [m, a] entry")
        m, a = v["root"]
    elif isinstance(v, str) and v.strip().startswith("root:"):
        m, a = v.strip()[5:].split("/")
    else:
        return _rational(v)
    m = json_exact(m)
    if max_level is not None and m > max_level:
        raise InvalidSpec("root level %s exceeds the conductor exponent %d" % (m, max_level))
    if p ** min(m, 13) > MAX_ROOT_ORDER:  # p^13 >= 2^13 > MAX_ROOT_ORDER
        raise InvalidSpec("root order %d^%d exceeds %d" % (p, m, MAX_ROOT_ORDER))
    return root_of_unity(p, m, json_exact(a))


def parse_phi(n: int, ctx: PAdicContext, name: str) -> SchwartzBruhatFn:
    """Built-ins unit_ball, scaled_ball(k), shifted_ball(a,k), or @file.json."""
    name = name.strip()
    if name.startswith("@"):
        try:
            with open(name[1:]) as fh:
                phi = SchwartzBruhatFn.from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise InvalidSpec("cannot load Phi from %r: %s" % (name[1:], exc))
        if phi.n != n or phi.ctx.p != ctx.p:
            raise InvalidSpec("Phi file %r has wrong n or p" % name[1:])
        return phi
    if name == "unit_ball":
        return SchwartzBruhatFn.unit_ball(n, ctx)
    if name.startswith("scaled_ball(") and name.endswith(")"):
        return SchwartzBruhatFn.scaled_ball(n, ctx, int(name[12:-1]))
    if name.startswith("shifted_ball(") and name.endswith(")"):
        parts = name[13:-1].split(",")
        if len(parts) != 2:
            raise InvalidSpec("shifted_ball takes two arguments: a, k")
        return SchwartzBruhatFn.shifted_ball(n, ctx, _rational(parts[0]), int(parts[1]))
    raise InvalidSpec("unknown Phi %r (use unit_ball, scaled_ball(k), "
                      "shifted_ball(a,k), or @file.json)" % name)


def parse_phi_list(n: int, ctx: PAdicContext, spec: str):
    out, depth, cur = [], 0, []
    for ch in spec:
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
    out.append("".join(cur))
    phis = [parse_phi(n, ctx, s) for s in out if s.strip()]
    if not phis:
        raise InvalidSpec("the Phi list %r is empty" % spec)
    return phis


# smallest allowed value of each engine flag (r_max = 0 means the default n);
# --threads is range-checked but not stored: evaluation is serial
FLAG_MINIMUM = {"r_max": 0, "confirm": 1, "hard_budget": 1, "threads": 1}


def build_config(args) -> IntegrationConfig:
    """Engine settings from the flags; --hard-budget wins over the
    GJZETA_HARD_BUDGET environment variable, which wins over the default.
    A value below its FLAG_MINIMUM, from either source, is InvalidSpec."""
    cfg = IntegrationConfig()
    env = os.environ.get("GJZETA_HARD_BUDGET", "").strip()
    if env:
        cfg.hard_budget = int(env)
    for field, low in FLAG_MINIMUM.items():
        v = getattr(args, field, None)
        if v is None:
            v = getattr(cfg, field, low)
        elif hasattr(cfg, field):
            setattr(cfg, field, v)
        if v < low:
            raise InvalidSpec("%s must be >= %d, got %d" % (field.replace("_", "-"), low, v))
    return cfg


# -- report plumbing -----------------------------------------------------

ARCH_COLUMNS = ("s_re", "s_im", "gamma_re", "gamma_im",
                "oracle_re", "oracle_im", "abs_err")


def make_report(command: str, body: dict, elapsed: float) -> dict:
    """The body with the run's metadata; no windows and no cells where it has none."""
    return ({"tool": "gjzeta", "version": __version__, "command": command,
             "windows": {}, "cells_enumerated": 0}
            | body | {"elapsed_seconds": round(elapsed, 3)})


def emit(report, args) -> None:
    """Write the report to --out or stdout: the arch-gamma table under
    --format csv, JSON otherwise (an INCONCLUSIVE report has no rows).
    An --out that cannot be opened is InvalidSpec."""
    try:
        out = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        raise InvalidSpec("cannot write --out %r: %s" % (args.out, exc.strerror))
    with out as fh:
        if getattr(args, "format", None) == "csv" and report["verdict"] != "INCONCLUSIVE":
            csv.writer(fh).writerows(
                [ARCH_COLUMNS] + [["%.12g" % row[c] for c in ARCH_COLUMNS]
                                  for row in report["results"]["rows"]])
        else:
            fh.write(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")


# -- subcommands ---------------------------------------------------------
# each returns the report body: parameters, verdict, results[, windows, cells_enumerated]

# each command's default Phi list, and the largest true conductor exponent it serves:
# both balls have Z(Phi, s, chi) = 0 for f >= 1, and shifted_ball(1,1) for f >= 2
DEFAULT_PHIS = {"gamma": (1, "unit_ball,scaled_ball(1),shifted_ball(1,1)"),
                "verify-fe": (0, "unit_ball,scaled_ball(1)"),
                "verify-bk": (0, "unit_ball,scaled_ball(1)")}


def _chi_config_phis(args):
    """The character, engine settings and Phi list of gamma, verify-fe and verify-bk.
    With no --phis, a chi of true conductor exponent f above the command's default
    takes shifted_ball(1,f),shifted_ball(1,f+1); args.phis keeps the list run."""
    chi = parse_character(args.p, args.char)
    cfg = build_config(args)
    if args.phis is None:
        f = chi.conductor_exp
        f_max, balls = DEFAULT_PHIS[args.command]
        args.phis = balls if f <= f_max else "shifted_ball(1,%d),shifted_ball(1,%d)" % (f, f + 1)
    return chi, cfg, parse_phi_list(args.n, PAdicContext(args.p), args.phis)


def cmd_gamma(args):
    # verify-fe runs this too: its claim *is* Phi-independence of the ratio
    chi, cfg, phis = _chi_config_phis(args)
    stats = {}
    ok, gamma, warnings = phi_independence_check(phis, chi, cfg, stats)
    return {"parameters": {"p": args.p, "n": args.n, "char": args.char, "phis": args.phis},
            "verdict": "PASS" if ok else "FAIL",
            "results": {"gamma": gamma.value.serialize(),
                        "num": gamma.num.value.serialize(),
                        "den": gamma.den.value.serialize(),
                        "warnings": warnings},
            "windows": {"k_range_den": list(gamma.den.k_range),
                        "k_range_num": list(gamma.num.k_range)},
            "cells_enumerated": stats.get("cells", 0)}


def cmd_verify_bk(args):
    chi, cfg, phis = _chi_config_phis(args)
    n = args.n
    if n == 1:
        xs = [PAdicMatrix([[x]]) for x in (1, args.p, Fraction(1, args.p))]
    else:  # I, diag(1, ..., 1, 2), and the cyclic shift with 2 in its (n-1, 0) corner
        xs = [PAdicMatrix.identity(n), PAdicMatrix.diagonal([1] * (n - 1) + [2]),
              PAdicMatrix([[2 if (i, j) == (n - 1, 0) else int(j == i + 1)
                            for j in range(n)] for i in range(n)])]
    body = verify_bk_identity(chi, n, phis, xs, cfg)
    body["parameters"] |= {"char": args.char, "phis": args.phis}
    return body


def cmd_verify_inverse(args):
    chi = parse_character(args.p, args.char)
    cfg = build_config(args)
    if args.alpha2 is None:
        d = tilde(cstar_gamma(args.n))
    else:
        d = TwistedDistribution(args.n, args.alpha2, -1, INVERSE)
    body = verify_inverse_weak(d, [chi], cfg)
    body["parameters"]["char"] = args.char
    return body


def cmd_verify_relation(args):
    if args.n < 1:
        raise InvalidSpec("n must be >= 1, got %d" % args.n)
    rows = [verify_relation(n) for n in range(1, args.n + 1)]
    return {"parameters": {"n_max": args.n}, "results": rows,
            "verdict": "PASS" if all(r["verdict"] == "PASS" for r in rows) else "FAIL"}


# the ratios b/c (b = -3..3, c = 1..3) that scale a drawn coefficient
_RATIOS = tuple(tuple(Fraction(b, c) for c in range(1, 4)) for b in range(-3, 4))


def random_schwartz(n: int, ctx: PAdicContext, rng, terms: int = 3,
                    max_level: int = 3) -> SchwartzBruhatFn:
    """Deterministic pseudo-random test function, levels within |k| <= max_level.

    Both matrices of a term hold numerators -4..4 over one denominator p^j
    (j = 0..2), and its coefficient is a ratio b/c times zeta_p^a (a = 0..p-1).
    Every pick is below(k), random.Random._randbelow on getrandbits (k.bit_length()
    bits, redrawn while >= k): choice(seq) is seq[below(len(seq))] and randint(a, b)
    is a + below(b - a + 1), so the picks read the same random stream, and draw the
    same functions, as the choice and randint calls they stand for."""
    p, bits = ctx.p, rng.getrandbits

    def below(k):
        b = k.bit_length()
        r = bits(b)
        while r >= k:
            r = bits(b)
        return r

    def matrix(den):
        return PAdicMatrix._lattice(n, tuple([below(9) - 4 for _ in range(n * n)]), den)
    out = []
    for _ in range(1 + below(terms)):
        level = below(2 * max_level + 1) - max_level
        den = p ** below(3)  # one denominator, 1, p or p^2, for both matrices
        center = matrix(den)
        modulation = matrix(den)
        a = below(p)  # the phase zeta_p^a in psi_exponent's form
        ratios = _RATIOS[below(len(_RATIOS))]
        out.append(SchwartzTerm(ratios[below(len(ratios))], center, level, modulation, 0,
                                (1, a) if a else (0, 0)))
    return SchwartzBruhatFn(n, ctx, out)


def cmd_fourier_selftest(args):
    if args.count < 1:
        raise InvalidSpec("count must be >= 1, got %d" % args.count)
    import random
    rng = random.Random(args.seed)
    failures = []
    total = 0
    for n in (1, 2):
        for p in (2, 3):
            ctx = PAdicContext(p)
            for i in range(args.count):
                total += 1
                f = random_schwartz(n, ctx, rng)
                g = random_schwartz(n, ctx, rng)
                f_hat = f.fourier()
                if not f_hat.fourier().fn_equal(f.reflect()):
                    failures.append({"n": n, "p": p, "index": i,
                                     "law": "double transform = reflect"})
                if f.inner_product(g) != f_hat.inner_product(g.fourier()):
                    failures.append({"n": n, "p": p, "index": i, "law": "Plancherel"})
    return {"parameters": {"count_per_case": args.count, "seed": args.seed},
            "results": {"functions_checked": total, "failures": failures},
            "verdict": "PASS" if not failures else "FAIL"}


def cmd_arch_gamma(args):
    # looked up per call: mpmath loads only here, and a rebound gamma_real is seen
    from .archimedean import (S_GRID, RealCharacter, RealSchwartzFn, gamma_oracle,
                              gamma_real)
    if not 0 <= args.tol < float("inf"):
        raise InvalidSpec("tol must be finite and >= 0, got %r" % args.tol)
    chi = RealCharacter(args.delta, _rational(args.tau))
    grid = [complex(x) for x in (args.s.split(",") if args.s is not None else S_GRID)]
    if not all(cmath.isfinite(s) and 0 < s.real < 1 for s in grid):
        raise InvalidSpec("every s must be finite with 0 < Re s < 1, where Z(Phi, s) "
                          "and Z(Phi^, 1 - s) converge; got %s" % args.s)
    phi = RealSchwartzFn.hermite_multiple([1, 1])
    rows = []
    for s in grid:
        val = gamma_real(chi, s, phi)
        oracle = gamma_oracle(chi, s)
        rows.append(dict(zip(ARCH_COLUMNS, (s.real, s.imag, val.real, val.imag,
                                            oracle.real, oracle.imag, abs(val - oracle)))))
    errs = [row["abs_err"] for row in rows]
    worst = float("nan") if any(map(cmath.isnan, errs)) else max(0.0, *errs)
    return {"parameters": {"delta": args.delta, "tau": str(args.tau), "tol": args.tol,
                           "s_grid": [str(s) for s in grid]},
            "results": {"rows": rows, "max_abs_err": worst},
            "verdict": "PASS" if all(e < args.tol for e in errs) else "FAIL"}


# -- argument plumbing ---------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gjzeta",
        description="Exact local zeta integrals, gamma factors, and "
                    "distribution identities on GL_n(Q_p), plus a numeric "
                    "real-place check.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, padic=True):
        sp.add_argument("--out", help="write the report here instead of stdout")
        if padic:
            sp.add_argument("--p", type=int, required=True, help="residue prime")
            sp.add_argument("--n", type=int, required=True, choices=N_CHOICES)
            sp.add_argument("--char", default="trivial",
                            help="trivial | unramified:VALUE | quadratic | "
                                 "inline JSON | file path (default: trivial)")
            read = ("; read only by zeta integrals with a refined term: gamma, verify-fe, "
                    "verify-bk's Phi side")
            sp.add_argument("--r-max", dest="r_max", type=int, help="recurrence order bound" + read)
            sp.add_argument("--confirm", type=int, help="recurrence confirmation terms" + read)
            sp.add_argument("--hard-budget", dest="hard_budget", type=int)
            sp.add_argument("--threads", type=int,
                            help="accepted for compatibility; evaluation is serial")

    sp = sub.add_parser("gamma", help="gamma factor as an exact rational function in T")
    common(sp)
    sp.add_argument("--phis", help="comma-separated Phi list, independence re-verified "
                                   "(default: unit_ball,scaled_ball(1),shifted_ball(1,1), or "
                                   "shifted_ball(1,f),shifted_ball(1,f+1) for chi of "
                                   "conductor exponent f >= 2)")
    sp.set_defaults(fn="cmd_gamma")

    default_phis = ("comma-separated Phi list (default: unit_ball,scaled_ball(1), or "
                    "shifted_ball(1,f),shifted_ball(1,f+1) for chi of conductor exponent f)")
    sp = sub.add_parser("verify-fe",
                        help="Phi-independence of the functional-equation ratio")
    common(sp)
    sp.add_argument("--phis", help=default_phis)
    sp.set_defaults(fn="cmd_gamma")

    sp = sub.add_parser("verify-bk",
                        help="generating-distribution spectral identity")
    common(sp)
    sp.add_argument("--phis", help=default_phis)
    sp.set_defaults(fn="cmd_verify_bk")

    sp = sub.add_parser("verify-inverse",
                        help="weak convolution-inverse identity")
    common(sp)
    sp.add_argument("--alpha2", type=int,
                    help="2*alpha for D = (alpha, -1, INVERSE); default: "
                         "the sign-flipped normalizing distribution")
    sp.set_defaults(fn="cmd_verify_inverse")

    sp = sub.add_parser("verify-relation",
                        help="closed-form tuple identity linking the "
                             "normalizing and generating distributions")
    common(sp, padic=False)
    sp.add_argument("--n", type=int, required=True,
                    help="check all sizes 1..n")
    sp.set_defaults(fn="cmd_verify_relation")

    sp = sub.add_parser("fourier-selftest",
                        help="double-transform and Plancherel sweep on "
                             "randomized test functions")
    common(sp, padic=False)
    sp.add_argument("--count", type=int, default=200,
                    help="functions per (n, p) case (default 200)")
    sp.add_argument("--seed", type=int, default=20260824)
    sp.set_defaults(fn="cmd_fourier_selftest")

    sp = sub.add_parser("arch-gamma",
                        help="real-place gamma sweep against the Gamma oracle")
    common(sp, padic=False)
    sp.add_argument("--delta", type=int, default=0, choices=(0, 1))
    sp.add_argument("--tau", default="0", help="imaginary twist (rational)")
    sp.add_argument("--s", help="comma-separated complex s grid")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(fn="cmd_arch_gamma")
    return top


_parser = lru_cache(maxsize=1)(build_parser)  # once per process; handlers by name


def _invalid(exc) -> int:
    print("invalid input: %s" % exc, file=sys.stderr)
    return EXIT_INVALID


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    t0 = time.time()
    try:
        body = globals()[args.fn](args)
    except (InvalidSpec, ValueError) as exc:
        return _invalid(exc)
    except EngineError as exc:
        print("INCONCLUSIVE: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        where = {f: getattr(exc, f) for f in ("shell", "truncation", "cells")
                 if getattr(exc, f, None) is not None}
        body = {"parameters": {k: v for k, v in vars(args).items()
                               if k not in ("fn", "command", "out")},
                "verdict": "INCONCLUSIVE", "cells_enumerated": None,
                "results": {"error": type(exc).__name__, "message": str(exc)} | where}
    try:
        emit(make_report(args.command, body, time.time() - t0), args)
    except InvalidSpec as exc:
        return _invalid(exc)
    return {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL}.get(body["verdict"], EXIT_INCONCLUSIVE)


if __name__ == "__main__":
    sys.exit(main())
