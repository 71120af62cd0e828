"""Per-layer tracing from outside the engine, by wrapping names in place.

Modules import functions by name (``from .integrate import rationalize``),
so a wrapper must replace every module global bound to the original, not
just the defining module's.  ``install`` does that and ``uninstall`` puts
the originals back, so untraced and traced passes can alternate in one
process.

Spans (calls, busy_s, self_s) cover the boundaries above the scalar and
p-adic layers.  A span's self time is its duration minus the part covered by
child spans in the same thread; busy time counts only the outermost call of
a recursive span.  The leaf calls (cyclotomic add, mul and inverse, and
psi_value) run millions of times, so they record only a count and inclusive
busy time.  Records are kept per thread and merged at the end, so worker
threads of ``--threads 2`` do not race on the counters.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

SHELL_PATHS = (("_shell_n1", "n1"), ("_shell_n2_hermite", "hermite"),
               ("_shell_generic", "generic"))

SPANS = ["cli.main", "distributions.spectral_action", "zeta.gamma_factor",
         "zeta.zeta_integral", "integrate.stabilize", "integrate.parallel_map",
         "integrate.shell.n1", "integrate.shell.hermite",
         "integrate.shell.generic", "integrate.rationalize",
         "recurrence.detect_recurrence", "ratfun.construct",
         "kernels.gl2_histogram", "schwartz.fourier", "schwartz.inner_product",
         "schwartz.fn_equal", "archimedean.gamma_real",
         "archimedean.gamma_oracle"]
LEAVES = ["scalars.add", "scalars.mul", "scalars.inverse", "padic.psi_value"]
INVERSE_LEVELS = (1, 2, 3, 4)


def metric_units():
    """Name -> unit of every per-layer metric, in print order.

    Counts and times are per traced pass of the workload's deck.
    """
    units = {}
    for name in SPANS:
        units[name + ".calls"] = "count/pass"
        units[name + ".busy_s"] = "s/pass"
        units[name + ".self_s"] = "s/pass"
    for name in LEAVES:
        units[name + ".calls"] = "count/pass"
        units[name + ".busy_s"] = "s/pass"
    for m in INVERSE_LEVELS:
        units["scalars.inverse.calls.m%d" % m] = "count/pass"
    for _, path in SHELL_PATHS:
        units["integrate.shell.%s.cells" % path] = "count/pass"
    units["integrate.stabilize.truncations"] = "count/pass"
    units["integrate.stabilize.useful_ratio"] = "ratio"
    units["integrate.parallel_map.task_s"] = "s/pass"
    units["integrate.parallel_map.parallelism"] = "ratio"
    units["kernels.hist_cache.hit_ratio"] = "ratio"
    units["integrate.cells_mismatch"] = "count/pass"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []          # one record dict per thread that ran
        self._patches = []          # (owner, attribute, original)
        self._hist_info = None
        self._hist_start = (0, 0)
        self.hist_hits = 0
        self.hist_misses = 0

    # -- records -------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.recs, local.stack
        except AttributeError:
            local.recs = defaultdict(lambda: [0, 0.0, 0.0])
            local.stack = []
            with self._lock:
                self._threads.append(local.recs)
            return local.recs, local.stack

    def totals(self):
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for recs in self._threads:
            for name, (calls, busy, self_s) in list(recs.items()):
                r = out[name]
                r[0] += calls
                r[1] += busy
                r[2] += self_s
        return out

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn, on_exit=None):
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recs, stack = state()
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                r = recs[name]
                r[0] += 1
                if outermost:
                    r[1] += dt
                r[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_exit is not None:
                on_exit(recs, args, kwargs, result)
            return result
        return wrapper

    def leaf(self, name, fn, level_names=None):
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                recs = state()[0]
                r = recs[name]
                r[0] += 1
                r[1] += clock() - t0
                if level_names is not None:
                    level = level_names.get(args[0].m)
                    if level is not None:
                        recs[level][0] += 1
        return wrapper

    # -- installation --------------------------------------------------

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper):
        """Rebind every gjzeta module global that refers to ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gjzeta" or modname.startswith("gjzeta.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, attr, wrapper)

    def install(self):
        from gjzeta import (archimedean, cli, distributions, integrate, padic,
                            ratfun, recurrence, scalars, schwartz, zeta)

        def fn(module, name, metric, on_exit=None):
            original = getattr(module, name)
            self._patch_everywhere(original, self.span(metric, original, on_exit))

        fn(cli, "main", "cli.main")
        fn(distributions, "spectral_action", "distributions.spectral_action")
        fn(zeta, "gamma_factor", "zeta.gamma_factor")
        fn(zeta, "zeta_integral", "zeta.zeta_integral")
        fn(integrate, "stabilized_shell_integral", "integrate.stabilize",
           _count_truncations)
        fn(integrate, "rationalize", "integrate.rationalize")
        fn(recurrence, "detect_recurrence", "recurrence.detect_recurrence")
        fn(integrate, "gl2_histogram", "kernels.gl2_histogram")
        fn(archimedean, "gamma_real", "archimedean.gamma_real")
        fn(archimedean, "gamma_oracle", "archimedean.gamma_oracle")
        for private, path in SHELL_PATHS:
            fn(integrate, private, "integrate.shell." + path)

        original_pmap = integrate.parallel_map
        self._patch_everywhere(original_pmap, self.span(
            "integrate.parallel_map", self._timed_tasks(original_pmap)))

        original_bump = integrate._bump
        state = self._state

        def bump(stats, key, amount=1):
            original_bump(stats, key, amount)
            if key == "cells":
                recs, stack = state()
                if stack and stack[-1][0].startswith("integrate.shell."):
                    recs[stack[-1][0] + ".cells"][0] += amount
        self._patch_attr(integrate, "_bump", bump)

        self._patch_attr(ratfun.RationalFunctionT, "__init__", self.span(
            "ratfun.construct", ratfun.RationalFunctionT.__init__))
        for method in ("fourier", "inner_product", "fn_equal"):
            self._patch_attr(schwartz.SchwartzBruhatFn, method, self.span(
                "schwartz." + method, getattr(schwartz.SchwartzBruhatFn, method)))

        cyc = scalars.CyclotomicNumber
        add = self.leaf("scalars.add", cyc.__add__)
        mul = self.leaf("scalars.mul", cyc.__mul__)
        for attr, wrapper in (("__add__", add), ("__radd__", add),
                              ("__mul__", mul), ("__rmul__", mul)):
            self._patch_attr(cyc, attr, wrapper)
        levels = {m: "scalars.inverse.calls.m%d" % m for m in INVERSE_LEVELS}
        self._patch_attr(cyc, "inverse", self.leaf("scalars.inverse",
                                                   cyc.inverse, levels))
        self._patch_everywhere(padic.psi_value,
                               self.leaf("padic.psi_value", padic.psi_value))
        self._hist_info = integrate._gl2_hist_cached.cache_info
        info = self._hist_info()
        self._hist_start = (info.hits, info.misses)

    def uninstall(self):
        info = self._hist_info()
        self.hist_hits += info.hits - self._hist_start[0]
        self.hist_misses += info.misses - self._hist_start[1]
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _timed_tasks(self, pmap):
        state = self._state
        clock = time.perf_counter

        @functools.wraps(pmap)
        def wrapper(fn, items, threads=1):
            def task(x):
                t0 = clock()
                try:
                    return fn(x)
                finally:
                    state()[0]["integrate.parallel_map.task_s"][1] += clock() - t0
            return pmap(task, items, threads)
        return wrapper

    # -- metrics -------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Every per-layer metric except the two the caller measures
        (integrate.cells_mismatch, trace.overhead_ratio), per traced pass."""
        t = self.totals()
        per = float(max(passes, 1))
        out = {}
        for name in SPANS:
            calls, busy, self_s = t[name]
            out[name + ".calls"] = calls / per
            out[name + ".busy_s"] = busy / per
            out[name + ".self_s"] = self_s / per
        for name in LEAVES:
            out[name + ".calls"] = t[name][0] / per
            out[name + ".busy_s"] = t[name][1] / per
        for m in INVERSE_LEVELS:
            out["scalars.inverse.calls.m%d" % m] = t["scalars.inverse.calls.m%d" % m][0] / per
        for _, path in SHELL_PATHS:
            out["integrate.shell.%s.cells" % path] = t["integrate.shell.%s.cells" % path][0] / per
        calls = t["integrate.stabilize"][0]
        truncations = t["integrate.stabilize.truncations"][0]
        out["integrate.stabilize.truncations"] = truncations / per
        out["integrate.stabilize.useful_ratio"] = calls / truncations if truncations else 0.0
        task_s = t["integrate.parallel_map.task_s"][1]
        busy = t["integrate.parallel_map"][1]
        out["integrate.parallel_map.task_s"] = task_s / per
        out["integrate.parallel_map.parallelism"] = task_s / busy if busy else 0.0
        looked_up = self.hist_hits + self.hist_misses
        out["kernels.hist_cache.hit_ratio"] = self.hist_hits / looked_up if looked_up else 0.0
        return out


def _count_truncations(recs, args, kwargs, result):
    """stabilized_shell_integral evaluates truncations m_start..m."""
    config = args[4] if len(args) > 4 else kwargs["config"]
    recs["integrate.stabilize.truncations"][0] += result[1] - config.m_start + 1
