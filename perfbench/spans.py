"""Span tracing of the library's layers, installed from outside ``src/``.

``Tracer.install`` replaces every public function of each library
module, the six ``_kernels`` solver entry points and the nine
``verify._check_*`` identity families by a wrapper that records a span
(id, name, start, end, parent span, op id) plus counts read from the
call's arguments and result.  A function is replaced under every name
that binds it in any library module (``renyi.augustin_fixed_point`` and
``leakage.augustin_fixed_point`` as well as
``optimize.augustin_fixed_point``), because callers look names up in
their own module.  ``optimize._eg_run`` is not a span: it adds the
iterations of each exponentiated-gradient restart to the span that
called it, so ``optimize.eg_optimize`` owns the time of its restarts and
finite-difference gradients.

Kernel spans are named ``kernels.<entry point>``: a metric name must
start with a letter or a digit.  Spans stay in memory until ``write``
saves them as JSON lines.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import alphaleak
from alphaleak import _kernels, cli, leakage, optimize, qcalc, renyi, simplex, verify

MODULES = (simplex, qcalc, optimize, renyi, leakage, verify, cli)
KERNELS = ("tsallis_eg", "power_eg", "ac_eg", "lp_eg", "augustin_solve", "lp_alternating_solve")
VERIFY_FAMILIES = ("gibbs", "holder", "power_score", "vuln_entropy_order1", "vuln_entropy",
                   "leakage_representations", "differences", "posterior_form", "structural")


# counts read from each span's result; the kernels return tuples:
# augustin_solve (q, residual, iterations, status), lp_alternating_solve
# (q_x, q_y, value, residual, iterations, status), the EG kernels
# (point, value, residual, iterations); status 0 converged, 1 plateau,
# 2 budget exhausted
COUNTERS = {
    "kernels.augustin_solve": lambda out: {"iters": out[2], "converged": out[3] == 0,
                                            "plateau": out[3] == 1, "budget": out[3] == 2},
    "kernels.lp_alternating_solve": lambda out: {"iters": out[4], "budget": out[5] == 2},
    **{f"kernels.{k}": lambda out: {"iters": out[3]}
       for k in ("ac_eg", "lp_eg", "tsallis_eg", "power_eg")},
    "optimize.augustin_fixed_point": lambda out: {"fallbacks": out.engine == "fixed_point+eg"},
    "optimize.lp_alternating": lambda out: {"iters": out.iterations},
    "optimize.eg_optimize": lambda out: {"nonconverged": not out.converged},
    "optimize.simplex_grid": lambda out: {"points": out.shape[0]},
}

# per-layer metrics: (name, quantity, unit)
_CALLS_SELF = ("calls", "self_s")
PER_LAYER = (
    [("kernels.augustin_solve", q) for q in
     _CALLS_SELF + ("iters", "converged", "plateau", "budget")]
    + [("optimize.augustin_fixed_point", q) for q in _CALLS_SELF + ("fallbacks", "fallback_frac")]
    + [("kernels.lp_alternating_solve", q) for q in _CALLS_SELF + ("iters", "budget")]
    + [("optimize.lp_alternating", q) for q in _CALLS_SELF + ("iters",)]
    + [(f"kernels.{k}", q) for k in ("ac_eg", "lp_eg", "tsallis_eg", "power_eg")
       for q in _CALLS_SELF + ("iters",)]
    + [("optimize.eg_optimize", q) for q in _CALLS_SELF + ("iters", "nonconverged")]
    + [(f"optimize.{f}", q) for f in ("oracle_optimize_single", "oracle_optimize_rule")
       for q in _CALLS_SELF]
    + [("optimize.simplex_grid", q) for q in _CALLS_SELF + ("points",)]
    + [(f"renyi.{f}", q) for f in ("alpha_mi", "cond_renyi_entropy") for q in _CALLS_SELF]
    + [(f"simplex.{f}", q) for f in ("make_pmf", "make_channel", "compose_joint", "tilt")
       for q in _CALLS_SELF]
    + [(f"leakage.{f}", q) for f in ("prior_vulnerability", "cond_vulnerability", "g_leakage",
                                     "posterior_vulnerability_hat") for q in _CALLS_SELF]
    + [(f"qcalc.{f}", q) for f in ("q_log_aggregator", "gibbs_optimum", "reverse_holder_check")
       for q in _CALLS_SELF]
    + [(f"verify.{f}", q) for f in VERIFY_FAMILIES for q in ("self_s", "checks")]
)
UNITS = {"calls": "count", "self_s": "s", "fallback_frac": "fraction"}
_FAMILY_SPANS = frozenset(f"verify.{f}" for f in VERIFY_FAMILIES)


def _targets() -> dict:
    """Original function -> span name."""
    targets = {}
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            public = not name.startswith("_")
            if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets[obj] = f"{short}.{name}"
    for name in KERNELS:
        targets[getattr(_kernels, name)] = f"kernels.{name}"
    for family in VERIFY_FAMILIES:
        targets[getattr(verify, f"_check_{family}")] = f"verify.{family}"
    return targets


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        # span: [id, name, start, end, parent id, op id, self seconds, counts]
        self.spans: list[list] = []
        self._stack: list[list] = []  # open spans, each [span, child seconds]
        self._patched: list[tuple] = []
        self.op = -1

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        is_family = name in _FAMILY_SPANS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0][0] if stack else None
            span = [len(spans), name, 0.0, 0.0, parent, self.op, 0.0, None]
            spans.append(span)
            frame = [span, 0.0]
            stack.append(frame)
            before = len(args[0].records) if is_family else 0
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span[7] = {"errors": 1}
                if name == "optimize.eg_optimize":  # no restart converged
                    span[7]["nonconverged"] = 1
                raise
            finally:
                end = time.perf_counter()
                span[3] = end
                stack.pop()
                span[6] = end - span[2] - frame[1]
                if stack:
                    stack[-1][1] += end - span[2]
            if counter is not None:
                counts = counter(out)
                span[7] = counts if span[7] is None else {**span[7], **counts}
            elif is_family:
                span[7] = {"checks": len(args[0].records) - before}
            return out

        return wrapper

    def _wrap_eg_run(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if stack:
                span = stack[-1][0]
                counts = span[7] if span[7] is not None else {}
                counts["iters"] = counts.get("iters", 0) + out[3]
                span[7] = counts
            return out

        return counted

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, name) for fn, name in _targets().items()}
        wrappers[optimize._eg_run] = self._wrap_eg_run(optimize._eg_run)
        for mod in (alphaleak, _kernels) + MODULES:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def per_layer(self) -> dict:
        totals: dict = defaultdict(lambda: defaultdict(float))
        for _, name, _, _, _, _, self_s, counts in self.spans:
            t = totals[name]
            t["calls"] += 1
            t["self_s"] += self_s
            for k, v in (counts or {}).items():
                t[k] += v
        aug = totals["optimize.augustin_fixed_point"]
        aug["fallback_frac"] = aug["fallbacks"] / aug["calls"] if aug["calls"] else 0.0
        out = {}
        for name, qty in PER_LAYER:
            value = totals[name][qty] if name in totals else 0.0
            unit = UNITS.get(qty, "count")
            out[f"{name}.{qty}"] = {"value": value if unit != "count" else int(value),
                                    "unit": unit}
        return out

    def write(self, path) -> None:
        """One JSON array per span after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op", "self_s",
                                 "counts"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
