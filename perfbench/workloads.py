"""Seeded op lists of the two workloads, and the cells probed apart.

A workload is an endless sequence of *passes*; a run executes whole
passes, in order, until its time is up.  Every pass of a workload has
the same make-up (the same cell kinds in the same order); only the
random instances change with the seed and the pass number.  Runs of
different seeds therefore time the same mix of work, and a run that
is cut at a pass boundary never over-weights one kind of cell.

* ``measure-closed``: one op is one cell value through
  ``alpha_mi(method="closed_form")`` or
  ``alpha_mi_via_leakage(method="auto")``; a pass holds a fresh instance
  per kind of ``CLOSED_INSTANCES`` and order of ``CLOSED_ALPHAS``.
* ``measure-numeric``: one op is one cell value through
  ``alpha_mi(method="optimize")``, ``alpha_mi_via_leakage(method=
  "optimize")`` or ``alpha_mi(method="oracle")``; a pass holds a fresh
  instance per kind of ``NUMERIC_INSTANCES`` and order of
  ``NUMERIC_ALPHAS``.  Oracle cells use alphabets of at most
  ``ORACLE_MAX_ALPHABET`` symbols and the finest grid of
  ``GRID_RESOLUTIONS`` that scans at most ``ORACLE_POINTS`` points, far
  inside ``GRID_POINT_BUDGET``: at the budget one cell takes 10 s.

Cells outside a variant's domain (``lapidoth_pfister`` at alpha <= 1/2)
and the cells of ``KNOWN_FAILURES`` and ``SLOW_CELLS`` are not generated.

``run_verify`` is not a timed workload: its trials are heavy-tailed (a
trial whose instance is 2x3 exhausts the Augustin budget three times and
then takes 5 to 27 s), and a dozen trials per run spread by a third
between seeds.  Traced runs trace one trial, ``verify_trial``, for the
per-layer metrics of the identity families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import alphaleak
from alphaleak.optimize import ORACLE_MAX_ALPHABET
from alphaleak.verify import random_instance, run_verify

VARIANTS = ("sibson", "arimoto", "augustin_csiszar", "hayashi", "lapidoth_pfister")

# (alphabet pair, density): dense and sparse alternate along the chain of
# pairs, so every alphabet size but 2 occurs in both kinds
CLOSED_INSTANCES = (((2, 3), "dense"), ((3, 4), "sparse"), ((4, 8), "dense"),
                    ((8, 16), "sparse"), ((16, 32), "dense"), ((32, 64), "sparse"),
                    ((64, 2), "dense"))
CLOSED_ALPHAS = (0.3, 0.55, 2.0, 4.0, 10.0, 50.0, 1000.0)
CLOSED_ROUTES = ("alpha_mi:closed_form", "via_leakage:auto")

NUMERIC_INSTANCES = (((2, 3), "dense"), ((3, 4), "sparse"), ((4, 2), "dense"),
                     ((8, 8), "sparse"))
NUMERIC_ALPHAS = (0.3, 0.6, 2.0, 4.0, 10.0)
NUMERIC_ROUTES = ("alpha_mi:optimize", "via_leakage:optimize", "alpha_mi:oracle")
GRID_RESOLUTIONS = (5e-3, 1e-2, 2e-2, 5e-2, 0.1)
ORACLE_POINTS = 100_000

VERIFY_SHAPE = (3, 3)  # a shape whose trials stay near one second
VERIFY_CHECKS_PER_TRIAL = 92

CLOSED_TOL = 1e-6  # relative, scaled by max(1, |reference|)
OPTIMIZE_TOL = 1e-3  # relative, scaled by max(1, |reference|)

# Cells the seed library gets wrong, kept out of the timed workloads and
# probed in traced runs instead: (route, variant, alphas, density or None
# for both, shape or None for all, what the seed library does).
KNOWN_FAILURES = (
    ("alpha_mi:closed_form", "augustin_csiszar", (1000.0,), None, None, "returns NaN"),
    ("via_leakage:auto", "augustin_csiszar", (1000.0,), None, None,
     "raises DegenerateVulnerability"),
    ("alpha_mi:closed_form", "augustin_csiszar", (50.0,), "sparse", None,
     "returns NaN on some instances"),
    ("via_leakage:auto", "augustin_csiszar", (50.0,), "sparse", None,
     "raises DegenerateVulnerability on some instances"),
    ("alpha_mi:closed_form", "lapidoth_pfister", (1000.0,), None, None,
     "returns NaN after 2-4 s"),
    ("via_leakage:auto", "lapidoth_pfister", (1000.0,), None, None,
     "raises DegenerateVulnerability after 2-4 s"),
    ("alpha_mi:closed_form", "lapidoth_pfister", (50.0,), None, None,
     "returns NaN after about 2 s on sparse inputs; on some dense ones misses the "
     "reference by 3e-6 because joint**alpha underflows"),
    ("via_leakage:auto", "lapidoth_pfister", (50.0,), None, None,
     "raises DegenerateVulnerability on sparse inputs; as alpha_mi on dense ones"),
    ("via_leakage:auto", "hayashi", (50.0,), None, None, "raises ValidationError"),
    ("via_leakage:auto", "hayashi", (1000.0,), None, None, "raises DomainError"),
    ("via_leakage:optimize", "hayashi", (2.0, 4.0, 10.0), None, None, "raises DomainError"),
    ("alpha_mi:optimize", "hayashi", (10.0,), None, None,
     "raises NumericalInconsistency at 8x8, misses the reference on some instances"),
    ("alpha_mi:optimize", "hayashi", NUMERIC_ALPHAS, "sparse", None,
     "raises NumericalInconsistency on some instances"),
    ("via_leakage:optimize", "sibson", (0.3,), None, None,
     "misses the reference by up to 0.5 on some instances"),
    ("alpha_mi:oracle", "augustin_csiszar", (0.3, 0.6), "sparse", None,
     "returns NaN"),
    ("alpha_mi:oracle", "lapidoth_pfister", (2.0, 4.0, 10.0), "sparse", None,
     "misses the n_x * resolution bound on some instances"),
    ("alpha_mi:oracle", "hayashi", (0.3, 0.6), None, None,
     "misses the n_x * resolution bound on some instances"),
)

# Cells whose time on sparse inputs is heavy-tailed on the seed library:
# the exponentiated-gradient restarts of the coupled objectives below
# order one can run to their iteration budget, 0.05 s to 21 s on 3x4
# instances.  One such cell can outweigh the rest of a run, so they are
# kept out of the timed workloads too.
SLOW_CELLS = tuple(
    (route, variant, alphas, "sparse", None, "takes up to 21 s")
    for route in ("alpha_mi:optimize", "via_leakage:optimize")
    for variant, alphas in (("augustin_csiszar", (0.3, 0.6)), ("lapidoth_pfister", (0.6,)))
)


@dataclass(frozen=True)
class Instance:
    label: str
    density: str  # "dense" or "sparse"
    p: alphaleak.Pmf
    W: alphaleak.Channel

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.n, self.W.n_y


@dataclass(frozen=True)
class Op:
    """One call of the closed loop and what its result is checked against."""

    label: str
    call: Callable
    instance: Instance | None = None
    variant: str = ""
    alpha: float = 0.0
    route: str = ""
    resolution: float = 0.0  # grid resolution of an oracle cell


def make_instance(rng: np.random.Generator, shape, density: str, label: str) -> Instance:
    """Dirichlet(1) prior and channel rows; a sparse instance also has one
    zero-mass prior symbol and about 30% exact zeros in the channel rows
    (each row keeps at least one positive entry)."""
    nx, ny = shape
    p = rng.dirichlet(np.ones(nx))
    W = rng.dirichlet(np.ones(ny), size=nx)
    if density == "sparse":
        p[rng.integers(nx)] = 0.0
        zero = rng.random((nx, ny)) < 0.3
        zero[np.arange(nx), rng.integers(ny, size=nx)] = False
        W[zero] = 0.0
    return Instance(
        label=f"{label}:{nx}x{ny}-{density}", density=density,
        p=alphaleak.make_pmf(p, renormalize=True),
        W=alphaleak.make_channel(W, renormalize=True),
    )


def is_excluded(route: str, variant: str, alpha: float, inst: Instance) -> bool:
    for k_route, k_variant, alphas, density, shape, _ in KNOWN_FAILURES + SLOW_CELLS:
        if (k_route == route and k_variant == variant and alpha in alphas
                and density in (None, inst.density) and shape in (None, inst.shape)):
            return True
    return False


def in_domain(variant: str, alpha: float) -> bool:
    return variant != "lapidoth_pfister" or alpha > 0.5


def oracle_resolution(variant: str, shape) -> float | None:
    """Finest grid that scans at most ORACLE_POINTS points, or None when the
    alphabets are beyond the oracle."""
    nx, ny = shape
    if max(nx, ny) > ORACLE_MAX_ALPHABET:
        return None
    for res in GRID_RESOLUTIONS:
        k = round(1.0 / res)
        gx, gy = math.comb(k + nx - 1, nx - 1), math.comb(k + ny - 1, ny - 1)
        points = gx * gy if variant == "lapidoth_pfister" else max(gx, gy)
        if points <= ORACLE_POINTS:
            return res
    return None


def _route_call(route: str, variant: str, inst: Instance, alpha: float,
                resolution: float = 0.0) -> Callable:
    api, method = route.split(":")
    p, W = inst.p, inst.W
    if api == "via_leakage":
        return lambda: alphaleak.alpha_mi_via_leakage(variant, p, W, alpha, method=method)
    if method == "oracle":
        cfg = alphaleak.OptimizerConfig(grid_resolution=resolution)
        return lambda: alphaleak.alpha_mi(variant, p, W, alpha, method=method, cfg=cfg)
    return lambda: alphaleak.alpha_mi(variant, p, W, alpha, method=method)


def _cell_op(inst: Instance, variant: str, alpha: float, route: str) -> Op | None:
    res = 0.0
    if route.endswith(":oracle"):
        res = oracle_resolution(variant, inst.shape)
        if res is None:
            return None
    return Op(
        label=f"{inst.label} {variant} alpha={alpha:g} {route}",
        call=_route_call(route, variant, inst, alpha, res),
        instance=inst, variant=variant, alpha=alpha, route=route, resolution=res,
    )


def cell_ops(inst: Instance, alphas, routes) -> list[Op]:
    ops = []
    for alpha in alphas:
        for variant in VARIANTS:
            if not in_domain(variant, alpha):
                continue
            for route in routes:
                if not is_excluded(route, variant, alpha, inst):
                    op = _cell_op(inst, variant, alpha, route)
                    if op is not None:
                        ops.append(op)
    return ops


def verify_trial(seed: int) -> Op:
    """One ``run_verify`` trial at the default sizes and orders whose
    instance has shape ``VERIFY_SHAPE``."""
    rng = np.random.default_rng([seed, 3])
    while True:
        trial = int(rng.integers(2**31))
        p, W = random_instance(np.random.default_rng(trial))
        if (p.n, W.n_y) == VERIFY_SHAPE:
            return Op(label=f"verify trial seed={trial}",
                      call=lambda: run_verify(trials=1, seed=trial))


def _measure_pass(seed: int, index: int, kinds, alphas, routes) -> list[Op]:
    """A fresh instance per (kind, order): cells of one instance share its
    difficulty, so spreading the orders over instances steadies the pass."""
    rng = np.random.default_rng([seed, 0, index])
    ops = []
    for shape, density in kinds:
        for alpha in alphas:
            inst = make_instance(rng, shape, density, f"pass{index}.a{alpha:g}")
            ops += cell_ops(inst, (alpha,), routes)
    return ops


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of pass ``index`` of a run with ``seed``."""
    if workload == "measure-closed":
        return _measure_pass(seed, index, CLOSED_INSTANCES, CLOSED_ALPHAS, CLOSED_ROUTES)
    if workload == "measure-numeric":
        return _measure_pass(seed, index, NUMERIC_INSTANCES, NUMERIC_ALPHAS, NUMERIC_ROUTES)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, seed: int) -> None:
    """Run each route of the workload once on a small input, so that
    first-call costs are paid before timing.  (Grids are not pre-built: the
    library's composition cache holds 32 entries and one grid finer than
    1/32 already cycles through more, so every oracle call builds its grid
    anew.)"""
    routes = CLOSED_ROUTES if workload == "measure-closed" else NUMERIC_ROUTES
    small = make_instance(np.random.default_rng([seed, 1]), (2, 2), "dense", "warm")
    for route in routes:
        _cell_op(small, "sibson", 2.0, route).call()


def probe(seed: int) -> list[Op]:
    """One cell of every row of KNOWN_FAILURES, on small seeded instances."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for route, variant, alphas, density, shape, _ in KNOWN_FAILURES:
        inst = make_instance(rng, shape or (2, 3), density or "dense", "probe")
        ops.append(_cell_op(inst, variant, alphas[0], route))
    return ops
