"""Workload decks: which verifications each workload runs, drawn from a seed.

A workload is a list of slots, one per op kind.  One pass of the closed
loop runs every slot once, in an order shuffled by the seed, and each slot
deals one input from its pool (decks).  Every pass therefore has the same
mix of op kinds, and every run about the same mix of inputs, so the
end-to-end figures do not depend on how many cheap or costly inputs a seed
happens to draw.  README.md records why each slot exists and what was left
out.

A run is a fixed number of passes (PASSES, for --seconds 20), so the number
of ops, and with it the rank that op_s_p50 and op_s_tail read, is the same
on every commit however fast the engine is.

This module imports nothing from the engine, so the parent process that
spawns the workers stays light.
"""

from __future__ import annotations

import random

# -- op specs ----------------------------------------------------------
#
# An op is a tuple.  ("cli", argv) runs gjzeta.cli.main(argv + ["--out", f])
# in-process.  ("xcheck", p, k, level, c, char) evaluates one shell integral
# of psi(tr(c g)) over p^level M_2(Z_p) twice, by the Hermite path and by
# generic refinement (force_enumeration=True), and requires equality.

HERMITE_CHARS = ["trivial", "unramified:2", "unramified:1/2", "unramified:3",
                 "unramified:-1"]
P3_CHARS = ["trivial", "unramified:2", "unramified:1/3", "unramified:-1"]
P3_SHIFTED_PHIS = ["shifted_ball(1,1),shifted_ball(1,2)",
                   "unit_ball,shifted_ball(1,1)",
                   "shifted_ball(2,1),scaled_ball(1)",
                   "shifted_ball(1,1),shifted_ball(2,1)"]
P5_CHARS = ["trivial", "unramified:2", "unramified:-1"]
ARCH_GRIDS = ["0.3,0.6+0.2j,0.45-0.15j",
              "0.35,0.55,0.65+0.1j",
              "0.4,0.5+0.25j,0.7",
              "0.25+0.1j,0.5,0.6-0.2j"]


def _cli(*argv):
    return ("cli", tuple(str(a) for a in argv))


def _alpha(a):
    return () if a is None else ("--alpha2", a)


def _hermite_slots(threads):
    t = ("--threads", threads)
    p3 = [_cli(cmd, "--p", 3, "--n", 2, "--phis", ph, "--char", c, *t)
          for cmd in ("gamma", "verify-fe")
          for ph in P3_SHIFTED_PHIS for c in P3_CHARS]
    inverse = [_cli("verify-inverse", "--p", 2, "--n", 2, *_alpha(a),
                    "--char", c, *t)
               for a in (None, 1, 3, 5) for c in HERMITE_CHARS]
    bk = [_cli("verify-bk", "--p", 2, "--n", 2,
               "--phis", "unit_ball,scaled_ball(1)", "--char", c, *t)
          for c in HERMITE_CHARS]
    return [p3, inverse, bk]


def _enumerate_slots():
    # an odd --alpha2 at p = 5 needs 1/sqrt(5), a level-1 cyclotomic inverse;
    # the default (even) keeps this workload free of inverses above level 0
    p5_inverse = [_cli("verify-inverse", "--p", 5, "--n", 1, "--char", c,
                       "--threads", 1) for c in P5_CHARS]
    p5_bk = [_cli("verify-bk", "--p", 5, "--n", 1, "--char", c,
                  "--threads", 1) for c in P5_CHARS]
    p3_quadratic = [_cli("verify-inverse", "--p", 3, "--n", 1, *_alpha(a),
                         "--char", "quadratic", "--threads", 1)
                    for a in (None, 1)]
    # k' = k - 2*level is the Hermite shell index; the generic path's cell
    # count grows with p^(4k').  c * p^level stays in {1, 1/2}: at 1/4 the
    # Hermite side inverts a level-2 geometric sum.
    x2 = [("xcheck", 2, 3 + 2 * lv, lv, c, "trivial")
          for lv, c in ((0, "1"), (0, "1/2"), (-1, "1"))]
    x3 = [("xcheck", 3, 2, 0, "1", "trivial")]
    return [p3_quadratic, x2, p5_inverse, p5_bk, x3]


def _fourier_real_slots():
    selftest = [_cli("fourier-selftest", "--count", 10, "--seed", s)
                for s in range(1, 17)]
    arch = [_cli("arch-gamma", "--delta", d, "--tau", tau, "--s", g)
            for d in (0, 1) for tau in ("0", "1/3") for g in ARCH_GRIDS]
    relation = [_cli("verify-relation", "--n", 30)]
    return [selftest, arch, relation]


WORKLOADS = {
    "hermite-n2": lambda: _hermite_slots(1),
    "hermite-n2-t2": lambda: _hermite_slots(2),
    "enumerate": _enumerate_slots,
    "fourier-real": _fourier_real_slots,
}


# passes per run at --seconds 20, sized so a run takes about 20 s at the
# commit the digests were recorded on (2-vCPU VM, numpy kernels)
REFERENCE_SECONDS = 20.0
PASSES = {"hermite-n2": 8, "hermite-n2-t2": 8, "enumerate": 4,
          "fourier-real": 48}


def slots(workload: str):
    return WORKLOADS[workload]()


def passes(workload: str, seconds: float) -> int:
    """Passes in a run: PASSES scaled by --seconds, never by engine speed."""
    return max(1, round(PASSES[workload] * seconds / REFERENCE_SECONDS))


def decks(slot_list, rng: random.Random):
    """Endless passes: one op per slot each, in a seeded order.

    Each slot deals its pool in seeded permutations, so over a run every
    input of a pool is drawn equally often, give or take one.  Independent
    draws would let the seed change how many costly inputs a run holds,
    and with it the op at a fixed rank.
    """
    hands = [[] for _ in slot_list]
    while True:
        ops = []
        for pool, hand in zip(slot_list, hands):
            if not hand:
                hand.extend(rng.sample(pool, len(pool)))
            ops.append(hand.pop())
        rng.shuffle(ops)
        yield ops


def threads_of(op) -> int:
    if op[0] == "cli" and "--threads" in op[1]:
        return int(op[1][op[1].index("--threads") + 1])
    return 1


def digest_key(op) -> str:
    """Identity of an op's exact output; the thread count is not part of it."""
    if op[0] == "cli":
        argv = list(op[1])
        if "--threads" in argv:
            i = argv.index("--threads")
            del argv[i:i + 2]
        return "cli " + " ".join(argv)
    _, p, k, level, c, char = op
    return "xcheck p=%d k=%d level=%d c=%s char=%s" % (p, k, level, c, char)


def all_ops():
    """Every distinct op input any workload can draw, keyed by digest_key."""
    out = {}
    for name in WORKLOADS:
        for pool in slots(name):
            for op in pool:
                out.setdefault(digest_key(op), op)
    return out
