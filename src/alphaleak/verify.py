"""Identity-verification harness over seeded random instances.

Runs every identity the library asserts: the deformed-log Gibbs optimum
against a brute-force simplex grid, the nine vulnerability/entropy
equalities, the six leakage representations of mutual information, the
three difference identities (closed-form information against an
independently optimized conditional entropy), the reverse Holder
inequality with its equality construction, the posterior-form
agreement for matching generators, the power-score extremum, and the
structural inequalities (product-divergence below the fixed-marginal
divergence, nonnegative gain-sense leakage).

A report is a flat list of per-instance records plus a summary;
``passed`` on a record is exactly ``abs_err <= tolerance``.  With a
fixed seed the report is byte-for-byte reproducible apart from the
elapsed-time field.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ._kernels import power_objective
from .leakage import (
    alpha_mi_via_leakage,
    cond_vulnerability,
    g_leakage,
    leakage_spec_for,
    posterior_vulnerability_hat,
    prior_vulnerability,
    soft01_gain,
)
from .optimize import (
    DEFAULT_CONFIG,
    OptimizerConfig,
    oracle_optimize_single,
    simplex_grid,
)
from .qcalc import gibbs_optimum, q_log, q_log_aggregator, reverse_holder_check
from .renyi import (
    MiVariant,
    alpha_mi,
    cond_renyi_entropy,
    renyi_entropy,
    shannon_entropy,
    shannon_measures,
)
from .simplex import make_channel, make_pmf, tilt

DEFAULT_ALPHAS = (0.3, 0.6, 2.0, 4.0)
DEFAULT_SIZES = (2, 3)
GIBBS_ORDERS = (0.25, 0.5, 2.0, 4.0)
HOLDER_ORDERS = (0.5, 2.0)

# identity id -> tolerance, a bare float; each check uses it as is or scales it
# (by max(1, |rhs|), or as noted)
DEFAULT_TOLERANCES = {
    "gibbs-grid-dominates": 1e-9,
    "gibbs-argmax-near-tilt": 2e-2,
    "gibbs-grid-gap": 5e-3,  # times the finite objective range
    "shannon-prior-vulnerability": 1e-6,
    "shannon-cond-vulnerability": 1e-6,
    "renyi-prior-vulnerability": 1e-6,
    "arimoto-cond-vulnerability": 1e-6,
    "sibson-cond-vulnerability": 1e-6,
    "ac-cond-vulnerability": 1e-3,
    "hayashi-prior-entropy-functional": 1e-6,
    "hayashi-cond-entropy-functional": 1e-6,
    "lp-cond-vulnerability": 1e-3,
    "leakage-mi-shannon": 1e-6,
    "leakage-mi-arimoto": 1e-6,
    "leakage-mi-sibson": 1e-6,
    "leakage-mi-hayashi": 1e-6,
    "leakage-mi-augustin_csiszar": 1e-3,
    "leakage-mi-lapidoth_pfister": 1e-3,
    "diff-identity-sibson": 1e-4,
    "diff-identity-augustin_csiszar": 1e-4,
    "diff-identity-lapidoth_pfister": 1e-4,
    "reverse-holder-direction": 0.0,
    "reverse-holder-equality": 1e-9,
    "posterior-form-agreement": 1e-9,
    "power-score-extremum": 1.0,  # times n_x * grid resolution
    "lp-below-sibson": 1e-8,
    "leakage-nonnegative": 1e-9,
}


@dataclass
class VerifyRecord:
    identity: str
    instance: str
    lhs: float
    rhs: float
    abs_err: float
    tolerance: float
    passed: bool


@dataclass
class VerifyReport:
    seed: int
    trials: int
    records: list[VerifyRecord] = field(default_factory=list)
    elapsed_s: float = 0.0

    def add(self, identity: str, instance: str, lhs: float, rhs: float, tolerance: float):
        err = abs(lhs - rhs)
        self.records.append(VerifyRecord(
            identity=identity, instance=instance, lhs=float(lhs), rhs=float(rhs),
            abs_err=float(err), tolerance=float(tolerance), passed=bool(err <= tolerance),
        ))

    @property
    def failures(self) -> list[VerifyRecord]:
        return [r for r in self.records if not r.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        by_identity: dict[str, list[int]] = {}
        for r in self.records:
            tally = by_identity.setdefault(r.identity, [0, 0])
            tally[0] += 1
            tally[1] += 0 if r.passed else 1
        return {
            "total": len(self.records),
            "failures": len(self.failures),
            "by_identity": {
                k: {"checks": v[0], "failures": v[1]} for k, v in sorted(by_identity.items())
            },
        }

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "units": "nats",
            "summary": self.summary(),
            "records": [asdict(r) for r in self.records],
            "elapsed_s": self.elapsed_s,  # timing field, excluded from reproducibility
        }


def random_instance(rng: np.random.Generator, sizes=DEFAULT_SIZES):
    """Full-support prior and channel (mixed 10% toward uniform)."""
    nx = int(rng.choice(sizes))
    ny = int(rng.choice(sizes))
    p = 0.9 * rng.dirichlet(np.ones(nx)) + 0.1 / nx
    W = 0.9 * rng.dirichlet(np.ones(ny), size=nx) + 0.1 / ny
    return (
        make_pmf(p, renormalize=True),
        make_channel(W, renormalize=True),
    )


def _check_gibbs(report: VerifyReport, rng, trial: int, tol, grid_resolution: float):
    p = make_pmf(0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3, renormalize=True)
    grid = simplex_grid(3, grid_resolution)
    for q in GIBBS_ORDERS:
        tag = f"trial={trial} q={q}"
        opt = gibbs_optimum(p, q)
        with np.errstate(divide="ignore"):
            vals = q_log(grid, q) @ p.probs
        finite = vals[np.isfinite(vals)]
        idx = int(np.argmax(vals))
        grid_best = float(vals[idx])
        report.add("gibbs-grid-dominates", tag,
                   lhs=max(grid_best - opt.value, 0.0), rhs=0.0,
                   tolerance=tol["gibbs-grid-dominates"])
        report.add("gibbs-argmax-near-tilt", tag,
                   lhs=float(np.abs(grid[idx] - opt.argmax.probs).sum()), rhs=0.0,
                   tolerance=tol["gibbs-argmax-near-tilt"])
        obj_range = float(finite.max() - finite.min())
        report.add("gibbs-grid-gap", tag, lhs=grid_best, rhs=opt.value,
                   tolerance=tol["gibbs-grid-gap"] * max(obj_range, 1e-12))


def _check_vuln_entropy_order1(report: VerifyReport, p, W, tag: str, tol,
                          cfg: OptimizerConfig):
    g01 = soft01_gain()
    log_q = q_log_aggregator(1.0)
    sm = shannon_measures(p, W)
    vp = prior_vulnerability(p, g01, log_q, cfg=cfg).value
    report.add("shannon-prior-vulnerability", tag, vp, math.exp(-sm.entropy),
               tol["shannon-prior-vulnerability"] * max(1.0, math.exp(-sm.entropy)))
    vc = cond_vulnerability(p, W, g01, log_q, log_q, cfg=cfg).value
    report.add("shannon-cond-vulnerability", tag, vc, math.exp(-sm.conditional_entropy),
               tol["shannon-cond-vulnerability"] * max(1.0, math.exp(-sm.conditional_entropy)))


def _check_vuln_entropy(report: VerifyReport, p, W, alpha: float, tag: str, tol,
                   cfg: OptimizerConfig):
    g01 = soft01_gain()
    agg = q_log_aggregator(1.0 / alpha)
    rhs = math.exp(-renyi_entropy(p, alpha))
    lhs = prior_vulnerability(p, g01, agg, cfg=cfg).value
    report.add("renyi-prior-vulnerability", tag, lhs, rhs,
               tol["renyi-prior-vulnerability"] * max(1.0, rhs))

    rhs = math.exp(-cond_renyi_entropy("arimoto", p, W, alpha, cfg=cfg))
    lhs = cond_vulnerability(p, W, g01, agg, agg, cfg=cfg).value
    report.add("arimoto-cond-vulnerability", tag, lhs, rhs,
               tol["arimoto-cond-vulnerability"] * max(1.0, rhs))

    rhs = math.exp(-cond_renyi_entropy("sibson", p, W, alpha, cfg=cfg))
    lhs = cond_vulnerability(tilt(p, 1.0 / alpha), W, g01, agg, agg, cfg=cfg).value
    report.add("sibson-cond-vulnerability", tag, lhs, rhs,
               tol["sibson-cond-vulnerability"] * max(1.0, rhs))

    # the coupled tuples go through the optimizer on the vulnerability side
    spec = leakage_spec_for("augustin_csiszar", p, alpha)
    rhs = math.exp(-cond_renyi_entropy("augustin_csiszar", p, W, alpha, cfg=cfg))
    lhs = cond_vulnerability(p, W, spec.gain, spec.phi, spec.psi,
                             method="optimize", cfg=cfg).value
    report.add("ac-cond-vulnerability", tag, lhs, rhs,
               tol["ac-cond-vulnerability"] * max(1.0, rhs))

    hspec = leakage_spec_for("hayashi", p, alpha)
    rhs = math.exp(renyi_entropy(p, alpha))
    lhs = prior_vulnerability(p, hspec.gain, hspec.phi, sense="loss", cfg=cfg).value
    report.add("hayashi-prior-entropy-functional", tag, lhs, rhs,
               tol["hayashi-prior-entropy-functional"] * max(1.0, rhs))
    rhs = math.exp(cond_renyi_entropy("hayashi", p, W, alpha, cfg=cfg))
    lhs = cond_vulnerability(p, W, hspec.gain, hspec.phi, hspec.psi,
                             sense="loss", cfg=cfg).value
    report.add("hayashi-cond-entropy-functional", tag, lhs, rhs,
               tol["hayashi-cond-entropy-functional"] * max(1.0, rhs))

    if alpha > 0.5:
        lspec = leakage_spec_for("lapidoth_pfister", p, alpha)
        rhs = math.exp(-cond_renyi_entropy("lapidoth_pfister", p, W, alpha, cfg=cfg))
        lhs = cond_vulnerability(lspec.prior, W, lspec.gain, lspec.phi, lspec.psi,
                                 method="optimize", cfg=cfg).value
        report.add("lp-cond-vulnerability", tag, lhs, rhs,
                   tol["lp-cond-vulnerability"] * max(1.0, rhs))


def _check_leakage_representations(report: VerifyReport, p, W, alpha: float, tag: str, tol,
                     cfg: OptimizerConfig):
    for variant in MiVariant:
        if variant is MiVariant.SHANNON:
            continue
        if variant is MiVariant.LAPIDOTH_PFISTER and alpha <= 0.5:
            continue
        # the coupled tuples use the optimizer route so the two sides
        # stay computationally independent
        coupled = variant in (MiVariant.AUGUSTIN_CSISZAR, MiVariant.LAPIDOTH_PFISTER)
        method = "optimize" if coupled else "auto"
        lhs = alpha_mi_via_leakage(variant, p, W, alpha, method=method, cfg=cfg)
        rhs = alpha_mi(variant, p, W, alpha, cfg=cfg)
        key = f"leakage-mi-{variant.value}"
        report.add(key, tag, lhs, rhs, tol[key] * max(1.0, rhs))
    lhs = alpha_mi_via_leakage("shannon", p, W, cfg=cfg)
    rhs = shannon_measures(p, W).mutual_information
    report.add("leakage-mi-shannon", tag, lhs, rhs,
               tol["leakage-mi-shannon"] * max(1.0, rhs))


def _check_differences(report: VerifyReport, p, W, alpha: float, tag: str, tol,
                       cfg: OptimizerConfig):
    pairs = [
        ("sibson", renyi_entropy(p, 1.0 / alpha)),
        ("augustin_csiszar", shannon_entropy(p)),
    ]
    if alpha > 0.5:
        pairs.append(("lapidoth_pfister", renyi_entropy(p, alpha / (2.0 * alpha - 1.0))))
    for variant, head in pairs:
        lhs = alpha_mi(variant, p, W, alpha, cfg=cfg)
        rhs = head - cond_renyi_entropy(variant, p, W, alpha, method="optimize", cfg=cfg)
        report.add(f"diff-identity-{variant}", tag, lhs, rhs,
                   tol[f"diff-identity-{variant}"])


def _check_holder(report: VerifyReport, rng, trial: int, tol):
    for order in HOLDER_ORDERS:
        tag = f"trial={trial} p={order}"
        a = rng.uniform(0.05, 2.0, size=4)
        b = rng.uniform(0.05, 2.0, size=4)
        rep = reverse_holder_check(a, b, order)
        report.add("reverse-holder-direction", tag,
                   lhs=0.0 if rep.satisfied else 1.0, rhs=0.0,
                   tolerance=tol["reverse-holder-direction"])
        c = float(rng.uniform(0.5, 2.0))
        a_eq = c * b ** (order / (1.0 - order))
        rep_eq = reverse_holder_check(a_eq, b, order)
        report.add("reverse-holder-equality", tag, rep_eq.equality_within, 0.0,
                   tol["reverse-holder-equality"])


def _check_posterior_form(report: VerifyReport, p, W, alpha: float, tag: str,
                          tol, cfg: OptimizerConfig):
    agg = q_log_aggregator(1.0 / alpha)
    lhs = cond_vulnerability(p, W, soft01_gain(), agg, agg, cfg=cfg).value
    rhs = posterior_vulnerability_hat(p, W, soft01_gain(), agg, agg, cfg=cfg)
    report.add("posterior-form-agreement", tag, lhs, rhs, tol["posterior-form-agreement"])


def _check_power_score(report: VerifyReport, rng, trial: int, tol, cfg: OptimizerConfig):
    p = make_pmf(0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3, renormalize=True)
    for alpha in (0.5, 2.0):
        tag = f"trial={trial} alpha={alpha}"
        # the grid scan of the objective that power_eg optimizes
        _, extremum = oracle_optimize_single(power_objective(alpha).objective, 3, alpha > 1.0,
                                             cfg, p.probs)
        target = float((p.probs ** alpha).sum())
        report.add("power-score-extremum", tag, extremum, target,
                   tol["power-score-extremum"] * 3 * cfg.grid_resolution)


def _check_structural(report: VerifyReport, p, W, alpha: float, tag: str, tol,
                      cfg: OptimizerConfig):
    if alpha > 0.5:
        lp = alpha_mi("lapidoth_pfister", p, W, alpha, cfg=cfg)
        sib = alpha_mi("sibson", p, W, alpha, cfg=cfg)
        report.add("lp-below-sibson", tag, lhs=max(lp - sib, 0.0), rhs=0.0,
                   tolerance=tol["lp-below-sibson"])
    leak = g_leakage(leakage_spec_for("arimoto", p, alpha), W, cfg=cfg)
    report.add("leakage-nonnegative", tag, lhs=max(-leak, 0.0), rhs=0.0,
               tolerance=tol["leakage-nonnegative"])


def run_verify(trials: int = 50, seed: int = 7, sizes=DEFAULT_SIZES,
               alphas=DEFAULT_ALPHAS, tolerances: dict | None = None,
               cfg: OptimizerConfig | None = None) -> VerifyReport:
    """Run the whole identity suite on seeded random instances; the grid
    checks scan at ``cfg.grid_resolution``."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    cfg = cfg if cfg is not None else DEFAULT_CONFIG.with_(seed=seed)
    rng = np.random.default_rng(seed)
    report = VerifyReport(seed=seed, trials=trials)
    t0 = time.perf_counter()
    for trial in range(trials):
        p, W = random_instance(rng, sizes)
        _check_gibbs(report, rng, trial, tol, cfg.grid_resolution)
        _check_holder(report, rng, trial, tol)
        _check_power_score(report, rng, trial, tol, cfg)
        _check_vuln_entropy_order1(report, p, W, f"trial={trial} nx={p.n} ny={W.n_y}", tol, cfg)
        for alpha in alphas:
            tag = f"trial={trial} nx={p.n} ny={W.n_y} alpha={alpha}"
            _check_vuln_entropy(report, p, W, alpha, tag, tol, cfg)
            _check_leakage_representations(report, p, W, alpha, tag, tol, cfg)
            _check_differences(report, p, W, alpha, tag, tol, cfg)
            _check_posterior_form(report, p, W, alpha, tag, tol, cfg)
            _check_structural(report, p, W, alpha, tag, tol, cfg)
    report.elapsed_s = time.perf_counter() - t0
    return report
