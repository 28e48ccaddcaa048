"""Adversarial gain functions, generalized vulnerability, and leakage.

A vulnerability problem is fully captured by the tuple
``(prior, phi, psi, gain)``: the adversary picks one action (a
distribution over secrets) per observation, the per-secret stream of
gains is aggregated by the psi-mean over observations and the phi-mean
over secrets, and the optimizer's value is the (prior or conditional)
vulnerability.  Multiplicative leakage is the log-ratio of conditional
to prior value (flipped for losses).

Direction of every inner aggregate optimization, given the problem
sense and the generator's direction (this is the single dispatch table
the whole module follows):

    =============  ===============  ====================
    problem sense  phi direction    inner optimization
    =============  ===============  ====================
    gain (max V)   increasing       maximize
    gain (max V)   decreasing       minimize
    loss (min H)   increasing       minimize
    loss (min H)   decreasing       maximize
    =============  ===============  ====================

i.e. ``maximize_inner = (sense == "gain") == phi.increasing``.

Closed forms exist for the soft 0-1 score under log/deformed-log
generators (via the generalized Gibbs optimum), for the power score
under a linear generator (proper scoring rule, optimum at the honest
posterior), for its loss companion under the matching deformed log, and
for the transformed gain under a linear generator (q_log of a soft 0-1
value).  They are written once, over a stack of observation rows
(weights, mass, posterior), with one masked reduction along each row.
Everything else runs through exponentiated gradient with a brute-force
grid cross-check, and every objective is stacked: one ``_kernels.eg``
stack runs all its starts, and the oracle scores the same objective on
the grid.  With matching generators the problem is one decision problem
per observation, and the prior vulnerability is the case of a single
observation of mass 1 whose weights are the prior (what a channel that
reveals nothing produces); both go through one body, the closed forms
and then one numeric table: the soft 0-1 score under log/deformed-log
generators and the power score and power loss above run on the
analytic-gradient kernels, every other objective on central differences
from the posterior and seeded restarts.  The kernels start each
observation, the prior's too, at its posterior, which for a power score
under its own sense is the optimum (the score is strictly proper), and a
power score against its own sense at uniform.  The body takes rows in
groups and aggregates each group on its own, so the multiplicative
leakage of a phi = psi tuple solves the prior row and the observation
rows as one stack of two groups, and ``posterior_vulnerability_hat`` its
renormalized posteriors as one stack of one-row groups; each group keeps
the value it has when solved alone.  When the two generators
differ the objective couples observations and the optimization runs
jointly over all per-observation simplices, from the posterior family
alone for the Augustin-Csiszar and Lapidoth-Pfister kernels, and plus
the constant prior-optimal rule (which pins conditional >= prior for
gains) and seeded restarts for the generic mixed objective (central
differences on the flattened rule); they share one optimize/oracle body.

A point-mass prior makes every soft 0-1 vulnerability equal one and
every leakage zero; this falls out of the formulas, no special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels
from .errors import (
    DegenerateVulnerability,
    DimensionMismatch,
    DomainError,
    InvalidOrder,
    NumericalInconsistency,
    UnsupportedVariant,
)
from .optimize import (
    DEFAULT_CONFIG,
    OptimizerConfig,
    _best_rows,
    _eg_run,
    _fd_grad_stack,
    _Stacked,
    augustin_fixed_point,
    lp_alternating,
    oracle_optimize_rule,
    oracle_optimize_single,
)
from .qcalc import Aggregator, _apply, log_aggregator, q_log, q_log_aggregator
from .renyi import (
    ALPHA_ONE_ATOL,
    MiVariant,
    _variant,
    lp_order_valid,
    renyi_entropy,
    shannon_entropy,
)
from .simplex import Channel, DecisionRule, Pmf, _log0, _logsumexp, compose_joint, tilt


# ----------------------------------------------------------------------
# gain functions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GainFunction:
    """Score g(x, r) of an action r (a distribution over X) against x."""

    kind: str  # soft01 | power | power_loss | transformed
    sense: str  # "gain" or "loss"
    alpha: float | None = None


def soft01_gain() -> GainFunction:
    """g(x, r) = r(x), the probability assigned to the truth."""
    return GainFunction(kind="soft01", sense="gain")


def power_score_gain(alpha: float) -> GainFunction:
    """alpha r(x)^(alpha-1) + (1-alpha) sum r^alpha; gain above order 1,
    loss below."""
    _check_score_order(alpha)
    return GainFunction(kind="power", sense="gain" if alpha > 1.0 else "loss", alpha=alpha)


def power_loss(alpha: float) -> GainFunction:
    """The power score raised to 1/(1-alpha): a loss for every order."""
    _check_score_order(alpha)
    return GainFunction(kind="power_loss", sense="loss", alpha=alpha)


def transformed_gain(alpha: float) -> GainFunction:
    """q_log of the soft 0-1 score at q = 1/alpha; tends to r(x)-1 as
    alpha grows (alpha = inf is accepted and uses q = 0)."""
    if not (alpha > 0.0):
        raise InvalidOrder(f"alpha must be positive, got {alpha!r}")
    return GainFunction(kind="transformed", sense="gain", alpha=float(alpha))


def _check_score_order(alpha: float):
    if not (alpha > 0.0) or abs(alpha - 1.0) <= ALPHA_ONE_ATOL or not np.isfinite(alpha):
        raise InvalidOrder(f"score order must lie in (0,1) or (1,inf), got {alpha!r}")


def _gain_vector(g: GainFunction, action: np.ndarray) -> np.ndarray:
    """g(x, action) for every x at once; ``action`` may also be a (b, n)
    stack of actions, one gain vector per row."""
    a = np.asarray(action, dtype=np.float64)
    if g.kind == "soft01":
        return a.copy()
    if g.kind == "power":
        al = g.alpha
        with np.errstate(divide="ignore"):
            return al * a ** (al - 1.0) + (1.0 - al) * (a ** al).sum(axis=-1, keepdims=True)
    if g.kind == "power_loss":
        al = g.alpha
        with np.errstate(divide="ignore"):
            f = al * a ** (al - 1.0) + (1.0 - al) * (a ** al).sum(axis=-1, keepdims=True)
        if np.any(f <= 0.0):
            raise DomainError("power loss is defined where the power score is positive")
        return f ** (1.0 / (1.0 - al))
    if g.kind == "transformed":
        q = 0.0 if np.isinf(g.alpha) else 1.0 / g.alpha
        return np.asarray(q_log(a, q), dtype=np.float64)
    raise UnsupportedVariant(f"unknown gain kind {g.kind!r}")


def gain_eval(g: GainFunction, x: str, r: Pmf) -> float:
    """Score of action r against the true symbol x (label-based)."""
    idx = r.labels.index(x)
    return float(_gain_vector(g, r.probs)[idx])


# ----------------------------------------------------------------------
# result and spec containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LeakageSpec:
    prior: Pmf
    phi: Aggregator
    psi: Aggregator
    gain: GainFunction
    sense: str  # "gain" (max) or "loss" (min)


@dataclass
class VulnerabilityResult:
    value: float
    rule: DecisionRule | Pmf | None  # action for priors, rule for conditionals
    method: str
    residual: float

    def __post_init__(self):
        _checked(self.value, self.method)


def _checked(value: float, method: str) -> float:
    """``value``; a NaN vulnerability raises, as a NaN grid score does."""
    if math.isnan(value):
        raise NumericalInconsistency(f"the {method} vulnerability is NaN")
    return value


def _resolve(sense, g: GainFunction, method: str = "auto") -> str:
    if method not in ("auto", "closed_form", "optimize", "oracle"):
        raise UnsupportedVariant(f"unknown method {method!r}")
    sense = sense or g.sense
    if sense not in ("gain", "loss"):
        raise UnsupportedVariant(f"sense must be 'gain' or 'loss', got {sense!r}")
    return sense


def _maximize_inner(sense: str, phi: Aggregator) -> bool:
    return (sense == "gain") == phi.increasing


def _check_bounded(g: GainFunction, sense: str, n: int, *generators: Aggregator):
    """Raise before any solve on two or more secrets.  The power score above
    order 1 and the transformed gain take negative values, outside the
    domain of a generator defined only on (0, inf): ``DomainError``.  Below
    order 1 a power score (or the power loss, its 1/(1-alpha) power) grows
    without bound as a coordinate of the action goes to 0, so its gain-sense
    optimum is +inf under generators that keep +inf infinite."""
    if n < 2:
        return
    if ((g.kind == "power" and g.alpha > 1.0) or g.kind == "transformed") and any(
            a.domain[0] >= 0.0 for a in generators):
        raise DomainError(f"the {g.kind} gain takes negative values, outside the "
                          "domain (0, inf) of a generator")
    if g.kind in ("power", "power_loss") and g.alpha < 1.0 and sense == "gain":
        with np.errstate(all="ignore"):
            if all(np.isinf(_apply(a.forward, np.array([np.inf]))[0]) for a in generators):
                raise DegenerateVulnerability(
                    f"the {g.kind} gain of order {g.alpha!r} has no finite gain-sense optimum")


# ----------------------------------------------------------------------
# prior vulnerability
# ----------------------------------------------------------------------

def _matching_power_loss(g: GainFunction, phi: Aggregator) -> bool:
    """The power loss under the deformed log of its own order (Hayashi)."""
    return (g.kind == "power_loss" and phi.kind == "q_log" and phi.q is not None
            and abs(phi.q - g.alpha) <= 1e-9)


def _closed_same(wt: np.ndarray, mass: np.ndarray, posts: np.ndarray,
                 g: GainFunction, phi: Aggregator, sense: str, groups):
    """(vulnerability of each group of rows, (m, n) optimal actions) of the
    phi = psi closed forms, else None, over the observation rows of
    ``_per_observation``.  Each row is reduced along its C-contiguous last
    axis, and each group (a slice of rows) across its own rows, so a row
    and a group keep the sums they have alone."""
    if sense != g.sense:
        return None
    if g.kind == "soft01":
        if phi.kind == "log":
            # the posterior itself: exp of the mean negative entropy
            with np.errstate(divide="ignore", invalid="ignore"):
                ent = np.where(posts > 0.0, posts * np.log(posts), 0.0).sum(axis=-1)
            terms, reduce, R = mass * ent, (lambda t: np.exp(t.sum())), posts
        elif phi.kind == "q_log" and phi.q is not None and phi.q > 0.0:
            # the posterior tilted to order 1/q (generalized Gibbs optimum)
            q = phi.q
            lw = _log0(wt) / q  # -inf on zeros
            w = np.exp(lw - lw.max(axis=-1, keepdims=True))
            terms, R = q * _logsumexp(lw), w / w.sum(axis=-1, keepdims=True)
            reduce = lambda t: np.exp(_logsumexp(t) / (1.0 - q))
        elif phi.kind == "linear" and phi.increasing:
            # the most likely secret
            terms, reduce = wt.max(axis=-1), np.sum
            R = np.eye(wt.shape[1])[wt.argmax(axis=-1)]
        else:
            return None
    elif g.kind == "power" and phi.kind == "linear" and phi.increasing:
        # a proper score: the posterior itself
        terms, reduce, R = mass * (posts ** g.alpha).sum(axis=-1), np.sum, posts
    elif _matching_power_loss(g, phi):
        al = g.alpha
        terms = (1.0 - al) * _log0(mass) + _logsumexp(al * _log0(wt))
        reduce, R = (lambda t: np.exp(_logsumexp(t) / (1.0 - al))), posts
    elif g.kind == "transformed" and phi.kind == "linear" and phi.increasing:
        # sum w[x] q_log(r(x), q) at q = 1/alpha is q_log of the soft 0-1
        # value under that generator; at q = 0 the gain is r(x) - 1, and the
        # soft 0-1 value the one under phi itself
        q = 0.0 if np.isinf(g.alpha) else 1.0 / g.alpha
        values, R = _closed_same(wt, mass, posts, soft01_gain(),
                                 q_log_aggregator(q) if q > 0.0 else phi, sense, groups)
        return [float(q_log(v, q)) for v in values], R
    else:
        return None
    return [float(reduce(terms[s])) for s in groups], R


def _prior_objective(g: GainFunction, phi: Aggregator) -> _Stacked:
    """sum_x w[x] phi(g(x, r)) per row of a stack of actions, the weights w
    the per-row data (a zero weight drops its term, so a -inf image there
    adds nothing), and its gradient by central differences: every
    perturbed point of every row in one call, with the row's weights."""
    def objective(b, w):
        fv = _apply(phi.forward, _gain_vector(g, b[0]))
        return (w * np.where(w > 0.0, fv, 0.0)).sum(axis=-1), None

    def grad(b, cache, w):
        w_points = np.repeat(w, 2 * b[0].shape[-1], axis=0)
        return [_fd_grad_stack(lambda points: objective([points], w_points)[0], b[0])]

    return _Stacked(objective, grad)


def prior_vulnerability(p: Pmf, g: GainFunction, phi: Aggregator, sense=None,
                        method: str = "auto",
                        cfg: OptimizerConfig = DEFAULT_CONFIG) -> VulnerabilityResult:
    """Optimal phi-aggregated gain of a single action against the prior.

    The decision problem of a channel that reveals nothing: the phi = psi
    body of ``cond_vulnerability`` (``_same_generators``) on one
    observation of mass 1, whose weights and posterior are the prior.
    """
    sense = _resolve(sense, g, method)
    _check_bounded(g, sense, p.n, phi)
    row = p.probs[None, :]
    (value,), R, run, (resid,) = _same_generators(row, np.ones(1), row, g, phi, sense, method,
                                                  cfg, (slice(None),))
    return VulnerabilityResult(value=value, rule=Pmf(p.labels, R[0]), method=run,
                               residual=resid)


# ----------------------------------------------------------------------
# conditional vulnerability, phi = psi (per-observation decomposition)
# ----------------------------------------------------------------------

def _same_generators(wt: np.ndarray, mass: np.ndarray, posts: np.ndarray,
                     g: GainFunction, phi: Aggregator, sense: str, method: str,
                     cfg: OptimizerConfig, groups):
    """The phi = psi problem over observation rows of positive mass, one
    vulnerability per group of rows (a slice: the prior's one row, a
    channel's observations): the closed form of ``_closed_same`` for
    ``auto`` and ``closed_form`` where there is one, else the ``optimize``
    (also ``auto``) or ``oracle`` run of ``_per_observation``, all groups in
    one call.  A NaN vulnerability raises.  Returns (vulnerabilities, (m, n)
    optimal actions, method, residuals)."""
    if method in ("auto", "closed_form"):
        closed = _closed_same(wt, mass, posts, g, phi, sense, groups)
        if closed is not None:
            values, R = closed
            return ([_checked(v, "closed_form") for v in values], R, "closed_form",
                    [0.0] * len(groups))
        if method == "closed_form":
            raise UnsupportedVariant(
                f"no closed form for gain {g.kind!r} with generator {phi.kind!r}"
            )
    run = "optimize" if method == "auto" else method
    values, R, resids = _per_observation(wt, mass, posts, g, phi, sense, run, cfg, groups)
    return [_checked(v, run) for v in values], R, run, resids


def _per_observation(wt: np.ndarray, mass: np.ndarray, posts: np.ndarray,
                     g: GainFunction, phi: Aggregator, sense: str, method: str,
                     cfg: OptimizerConfig, groups):
    """One decision problem per weight row, for phi = psi.

    Row i of ``wt`` is the weight vector of one observation: a column of
    the joint for a conditional vulnerability, the prior itself (mass 1)
    for a prior vulnerability.  ``mass[i]`` is its total and ``posts[i]``
    its normalization.  Each of ``groups``, a slice of rows, aggregates
    its own rows into one vulnerability.

    Every objective is stacked: all its (start, observation) rows run as
    one ``_kernels.eg`` stack, and the oracle scores it on one grid shared
    by all the rows.  The kernel rows of every observation, the prior's
    too, start at their posterior.  A power score is strictly proper
    (Gneiting & Raftery 2007): under its own sense each observation's
    posterior is its optimum, so those rows stop within a few iterations.
    Against its own sense an interior posterior is the score's optimum in
    the other direction, a stationary point that exponentiated gradient
    does not leave, so those rows start at uniform instead.  Every other
    objective runs on central differences from the posterior and
    ``cfg.restarts - 1`` seeded draws.  Each observation keeps its best
    row, and one none of whose starts converges raises
    ``ConvergenceFailure`` (``_best_rows``).  Returns
    (vulnerability per group, (m, n) optimal actions, worst residual per
    group).
    """
    n = wt.shape[1]
    maximize = _maximize_inner(sense, phi)
    # per objective, chosen once: its per-row data and sense, the stacked
    # objective, the EG run of a stack of rows and its starts; its aggregate
    # term from (observation mass, optimal value), and the map from the sum
    # of the terms to the vulnerability
    term, finish = (lambda m, val: m * val), phi.inverse
    if g.kind == "soft01" and phi.kind in ("log", "q_log"):
        use_log = phi.kind == "log"
        beta = 0.0 if use_log else 1.0 - phi.q
        # phi(g) is affine in r**beta, so the direction flips with q > 1
        sense_max = maximize if (use_log or phi.q < 1.0) else not maximize
        data, starts = wt, [posts]
        stacked = _kernels.tsallis_objective(beta, use_log)
        solve = lambda w, r0, *run: _kernels.tsallis_eg(w, beta, use_log, r0, *run)
        term = (lambda m, val: val) if use_log else (lambda m, val: (val - m) / (1.0 - phi.q))
    elif (g.kind == "power" and phi.kind == "linear") or _matching_power_loss(g, phi):
        # phi(g) is affine in the power score: with the slope of a linear
        # generator, and with slope 1/(1-alpha) for the power loss
        sense_max = maximize == (phi.increasing if g.kind == "power" else g.alpha < 1.0)
        data, starts = posts, [posts if sense == g.sense else np.full(posts.shape, 1.0 / n)]
        stacked = _kernels.power_objective(g.alpha)
        solve = lambda pi, r0, *run: _kernels.power_eg(pi, g.alpha, r0, *run)
        # an affine generator's mean is the arithmetic mean; the power loss's
        # deformed-log mean is the 1/(1-alpha) power of the mean score, taken
        # directly since phi.inverse's base 1 + (1-alpha) * (mean of phi)
        # cancels to 0 once the mean score falls below about 1e-16
        finish = ((lambda s: s) if g.kind == "power"
                  else (lambda s: np.power(s, 1.0 / (1.0 - g.alpha))))
    else:
        sense_max, data = maximize, posts
        rng = np.random.default_rng(cfg.seed)
        starts = [posts] + [np.broadcast_to(rng.dirichlet(np.ones(n)), posts.shape)
                            for _ in range(cfg.restarts - 1)]
        stacked = _prior_objective(g, phi)
        solve = lambda d, r0, *run: _eg_run(stacked, [r0], *run, d)
    if method == "optimize":
        # every (start, observation) pair is one row of a single stack; row
        # j * n_obs + i runs start j of observation i
        (R,), vals, resids, _, _ = solve(np.concatenate([data] * len(starts)),
                                         np.concatenate(starts), sense_max, cfg.tolerance,
                                         cfg.max_iters)
        best = _best_rows(vals, resids, len(data), sense_max, cfg)
        R, vals, resids = R[best], vals[best], resids[best]
    else:
        # one scan of one grid shared by every observation: one row of
        # values per observation
        R, vals = oracle_optimize_single(stacked.objective, n, sense_max, cfg, data)
        resids = np.full(len(data), cfg.grid_resolution)
    values, worst_resids = [], []
    for s in groups:
        aggregate = 0.0
        worst_resid = 0.0
        for m, val, resid in zip(mass[s], vals[s], resids[s]):
            aggregate += term(float(m), float(val))
            worst_resid = max(worst_resid, float(resid))
        values.append(float(finish(aggregate)))
        worst_resids.append(worst_resid)
    return values, R, worst_resids


# ----------------------------------------------------------------------
# conditional vulnerability, phi != psi (coupled observations)
# ----------------------------------------------------------------------

def _detect_ac_tuple(g: GainFunction, phi: Aggregator, psi: Aggregator):
    if g.kind != "soft01" or phi.kind != "log" or psi.kind != "q_log":
        return None
    q = psi.q
    if q is None or not (q > 0.0):
        return None
    return 1.0 / q  # alpha


def _detect_lp_tuple(g: GainFunction, phi: Aggregator, psi: Aggregator):
    if g.kind != "soft01" or phi.kind != "q_log" or psi.kind != "q_log":
        return None
    q, qt = psi.q, phi.q
    if q is None or qt is None or not (0.0 < q < 2.0):
        return None
    if abs(qt - 1.0 / (2.0 - q)) > 1e-9:
        return None
    alpha = 1.0 / q
    return alpha if lp_order_valid(alpha) else None


def _joint_eg_inits(p: Pmf, W: Channel, prior_action: np.ndarray,
                    cfg: OptimizerConfig) -> np.ndarray:
    """(restarts + 1, n_y, n_x) starts of the mixed-generator route: the
    posterior family, the constant prior-optimal rule, then seeded draws."""
    rng = np.random.default_rng(cfg.seed)
    posteriors = compose_joint(p, W).posteriors
    n_y, n_x = posteriors.shape
    return np.stack([posteriors, np.broadcast_to(prior_action, (n_y, n_x))]
                    + [rng.dirichlet(np.ones(n_x), size=n_y) for _ in range(cfg.restarts - 1)])


def _coupled_rule(p: Pmf, W: Channel, stacked: _Stacked, solve, prior_action,
                  maximize: bool, finish, method: str, cfg: OptimizerConfig):
    """The optimize and oracle routes of a coupled decision-rule objective.

    ``solve`` runs EG on an (m, n_y, n_x) stack of rule starts, as a
    kernel entry point does: ``_joint_eg_inits`` with the constant rule of
    ``prior_action()``, or the posterior family alone where it is None
    (the Augustin-Csiszar and Lapidoth-Pfister objectives, concave above
    order 1 and convex below it, have no optimum but the global one); the
    best row wins, and ``ConvergenceFailure`` is raised when no row
    converged.  The oracle scans the rule grid with ``stacked``'s
    objective as it is.  ``finish`` maps the objective's optimum to the
    vulnerability.  Returns (value, rule rows, method, residual).
    """
    if method == "optimize":
        starts = (compose_joint(p, W).posteriors[None] if prior_action is None
                  else _joint_eg_inits(p, W, prior_action(), cfg))
        (R,), vals, resids, _, _ = solve(starts, maximize, cfg.tolerance, cfg.max_iters)
        (i,) = _best_rows(vals, resids, 1, maximize, cfg)
        return finish(float(vals[i])), R[i], "optimize", float(resids[i])
    R, val = oracle_optimize_rule(stacked.objective, p.n, W.n_y, maximize, cfg)
    return finish(val), R, "oracle", cfg.grid_resolution


def _cond_ac(p: Pmf, W: Channel, alpha: float, method: str, cfg: OptimizerConfig):
    beta = 1.0 - 1.0 / alpha
    coeff = alpha / (alpha - 1.0)
    if method in ("auto", "closed_form"):
        fp = augustin_fixed_point(p, W, alpha, cfg)
        value = math.exp(fp.value - shannon_entropy(p))
        return value, None, "closed_form", fp.residual
    # the inner log-sum objective is maximized above order 1
    return _coupled_rule(
        p, W, _kernels.ac_objective(p.probs, W.matrix, beta),
        lambda R0, *run: _kernels.ac_eg(p.probs, W.matrix, beta, R0, *run),
        None, alpha > 1.0, lambda v: math.exp(coeff * v), method, cfg)


def _cond_lp(p: Pmf, W: Channel, alpha: float, method: str, cfg: OptimizerConfig):
    beta = 1.0 - 1.0 / alpha
    qt = alpha / (2.0 * alpha - 1.0)
    if method in ("auto", "closed_form"):
        # the passed prior is the tilted one; undo the tilt for the
        # product-divergence route
        p_orig = tilt(p, 1.0 / qt)
        res = lp_alternating(compose_joint(p_orig, W), alpha, cfg)
        value = math.exp(res.value - renyi_entropy(p_orig, qt))
        return value, None, "closed_form", res.residual
    return _coupled_rule(
        p, W, _kernels.lp_objective(p.probs, W.matrix, beta, qt),
        lambda R0, *run: _kernels.lp_eg(p.probs, W.matrix, beta, qt, R0, *run),
        None, alpha > 1.0, lambda v: math.exp(v / (1.0 - qt)), method, cfg)


def _kn_conditional_value(p: Pmf, W: Channel, g: GainFunction, phi: Aggregator,
                          psi: Aggregator, R: np.ndarray) -> np.ndarray:
    """The defining doubly-aggregated value of each rule of a (b, n_y, n_x)
    stack (no optimization).  A zero channel or prior weight drops its
    term, so the -inf image of a boundary rule there adds nothing."""
    psi_g = np.swapaxes(_apply(psi.forward, _gain_vector(g, R)), -1, -2)
    inner = (W.matrix * np.where(W.matrix > 0.0, psi_g, 0.0)).sum(axis=-1)
    fv = _apply(phi.forward, _apply(psi.inverse, inner))
    return _apply(phi.inverse, (p.probs * np.where(p.probs > 0.0, fv, 0.0)).sum(axis=-1))


def _cond_generic_mixed(p: Pmf, W: Channel, g: GainFunction, phi: Aggregator,
                        psi: Aggregator, sense: str, method: str,
                        cfg: OptimizerConfig):
    """phi != psi without a recognized tuple: optimize the value directly,
    its gradient by central differences on the flattened rule.  The
    objective floors its rule at ``_kernels._EVAL_FLOOR`` on both paths,
    since the gains may take any power of a zero entry."""
    value = partial(_kn_conditional_value, p, W, g, phi, psi)

    def objective(b, data):
        return value(np.maximum(b[0], _kernels._EVAL_FLOOR)), None

    def grad(b, cache, data):
        n_y, n_x = b[0].shape[1:]
        flat = _fd_grad_stack(lambda rules: value(rules.reshape(-1, n_y, n_x)),
                              b[0].reshape(-1, n_y * n_x))
        return [flat.reshape(b[0].shape)]

    stacked = _Stacked(objective, grad)
    return _coupled_rule(
        p, W, stacked, lambda R0, *run: _eg_run(stacked, [R0], *run),
        lambda: prior_vulnerability(p, g, phi, sense, "auto", cfg).rule.probs,
        sense == "gain", float, method, cfg)


def cond_vulnerability(p: Pmf, W: Channel, g: GainFunction, phi: Aggregator,
                       psi: Aggregator, sense=None, method: str = "auto",
                       cfg: OptimizerConfig = DEFAULT_CONFIG) -> VulnerabilityResult:
    """Optimal doubly-aggregated gain of a decision rule.

    With matching generators the problem decomposes per observation (a
    zero-mass observation plays uniform); otherwise it couples them and
    runs jointly (see module docstring).  The identity-based closed routes
    return ``rule=None``.
    """
    if p.labels != W.x_labels:
        raise DimensionMismatch("prior labels do not match channel input labels")
    sense = _resolve(sense, g, method)
    _check_bounded(g, sense, p.n, phi, psi)
    run = "optimize" if method == "auto" else method
    if phi.matches(psi):
        ys, wt, mass, posts = _observation_rows(p, W)
        rows = np.full((W.n_y, p.n), 1.0 / p.n)
        (value,), rows[ys], run, (resid,) = _same_generators(wt, mass, posts, g, phi, sense,
                                                             method, cfg, (slice(None),))
    elif (alpha := _detect_ac_tuple(g, phi, psi)) is not None and sense == "gain":
        value, rows, run, resid = _cond_ac(p, W, alpha, method, cfg)
    elif (alpha := _detect_lp_tuple(g, phi, psi)) is not None and sense == "gain":
        value, rows, run, resid = _cond_lp(p, W, alpha, method, cfg)
    elif method == "closed_form":
        raise UnsupportedVariant(
            "mismatched generators admit no closed form outside the recognized tuples"
        )
    else:
        value, rows, run, resid = _cond_generic_mixed(p, W, g, phi, psi, sense, run, cfg)
    rule = DecisionRule(p.labels, W.y_labels, rows) if rows is not None else None
    return VulnerabilityResult(value=value, rule=rule, method=run, residual=resid)


def _observation_rows(p: Pmf, W: Channel):
    """The observations of positive mass of p through W: their mask, and
    their weight rows (C-contiguous columns of the joint), masses and
    posteriors."""
    joint = compose_joint(p, W)
    ys = joint.y_support
    return ys, np.ascontiguousarray(joint.matrix.T[ys]), joint.p_y[ys], joint.posteriors[ys]


def posterior_vulnerability_hat(p: Pmf, W: Channel, g: GainFunction,
                                phi: Aggregator, psi: Aggregator, sense=None,
                                cfg: OptimizerConfig = DEFAULT_CONFIG) -> float:
    """psi-mean over observations of the per-posterior optimal phi-mean.

    Agrees with ``cond_vulnerability`` when phi = psi; in general the
    two aggregate in different orders and need not coincide.  Each
    renormalized posterior is the prior of its own one-row problem, and
    all of them run as one stack of the phi = psi body, a group per row.
    """
    sense = _resolve(sense, g)
    _, _, mass, posts = _observation_rows(p, W)
    _check_bounded(g, sense, p.n, phi)
    posts = posts / posts.sum(axis=1, keepdims=True)
    vals, *_ = _same_generators(posts, np.ones(len(posts)), posts, g, phi, sense, "auto", cfg,
                                [slice(i, i + 1) for i in range(len(posts))])
    fv = _apply(psi.forward, np.array(vals))
    return float(psi.inverse(float((mass * fv).sum())))


# ----------------------------------------------------------------------
# leakage
# ----------------------------------------------------------------------

def g_leakage(spec: LeakageSpec, W: Channel, method: str = "auto",
              cfg: OptimizerConfig = DEFAULT_CONFIG) -> float:
    """Multiplicative leakage in nats: log of conditional over prior for
    gains, log of prior over conditional for losses.

    With matching generators the prior's row (mass 1) and the channel's
    observation rows of positive mass form one stack of the phi = psi body,
    a group each, and only the two values are kept; otherwise the prior
    and the conditional vulnerability are solved apart.
    """
    p, g, phi, psi = spec.prior, spec.gain, spec.phi, spec.psi
    sense = _resolve(spec.sense, g, method)
    if phi.matches(psi):
        _check_bounded(g, sense, p.n, phi, psi)
        _, wt, mass, posts = _observation_rows(p, W)
        row = p.probs[None, :]
        (vp, vc), *_ = _same_generators(
            np.concatenate([row, wt]), np.concatenate([[1.0], mass]),
            np.concatenate([row, posts]), g, phi, sense, method, cfg,
            (slice(0, 1), slice(1, None)))
    else:
        vp = prior_vulnerability(p, g, phi, sense, method, cfg).value
        vc = cond_vulnerability(p, W, g, phi, psi, sense, method, cfg).value
    if not np.isfinite(vp) or vp <= 0.0:
        raise DegenerateVulnerability(f"prior vulnerability {vp!r} cannot anchor a ratio")
    if not np.isfinite(vc) or vc <= 0.0:
        raise DegenerateVulnerability(f"conditional vulnerability {vc!r} is degenerate")
    if sense == "gain":
        return math.log(vc / vp)
    return math.log(vp / vc)


def leakage_spec_for(variant, p: Pmf, alpha: float) -> LeakageSpec:
    """The (prior, phi, psi, gain) tuple whose leakage is the given
    order-alpha mutual information."""
    variant = _variant(variant)
    if variant is not MiVariant.SHANNON and abs(alpha - 1.0) <= ALPHA_ONE_ATOL:
        variant = MiVariant.SHANNON  # every variant degenerates to the order-1 tuple
    if variant is MiVariant.SHANNON:
        return LeakageSpec(p, log_aggregator(), log_aggregator(), soft01_gain(), "gain")
    if not (alpha > 0.0) or not np.isfinite(alpha):
        raise InvalidOrder(f"alpha must be positive and finite, got {alpha!r}")
    if variant is MiVariant.ARIMOTO:
        agg = q_log_aggregator(1.0 / alpha)
        return LeakageSpec(p, agg, agg, soft01_gain(), "gain")
    if variant is MiVariant.SIBSON:
        agg = q_log_aggregator(1.0 / alpha)
        return LeakageSpec(tilt(p, 1.0 / alpha), agg, agg, soft01_gain(), "gain")
    if variant is MiVariant.AUGUSTIN_CSISZAR:
        return LeakageSpec(p, log_aggregator(), q_log_aggregator(1.0 / alpha),
                           soft01_gain(), "gain")
    if variant is MiVariant.HAYASHI:
        agg = q_log_aggregator(alpha)
        return LeakageSpec(p, agg, agg, power_loss(alpha), "loss")
    if variant is MiVariant.LAPIDOTH_PFISTER:
        if not lp_order_valid(alpha):
            raise InvalidOrder(
                f"the lapidoth_pfister tuple needs alpha in (1/2,1) or (1,inf), got {alpha!r}"
            )
        qt = alpha / (2.0 * alpha - 1.0)
        return LeakageSpec(tilt(p, qt), q_log_aggregator(qt),
                           q_log_aggregator(1.0 / alpha), soft01_gain(), "gain")
    raise UnsupportedVariant(str(variant))


def alpha_mi_via_leakage(variant, p: Pmf, W: Channel, alpha: float = 1.0,
                         method: str = "auto",
                         cfg: OptimizerConfig = DEFAULT_CONFIG) -> float:
    """Order-alpha mutual information computed through its leakage tuple."""
    spec = leakage_spec_for(variant, p, alpha)
    return g_leakage(spec, W, method, cfg)


# ----------------------------------------------------------------------
# risk aversion
# ----------------------------------------------------------------------

def arrow_pratt(alpha: float, r: float, mode: str = "closed") -> float:
    """Absolute risk aversion -g''/g' of the transformed gain at r.

    Closed form 1/(alpha r); ``finite_diff`` recomputes it from central
    differences of the deformed log with step 1e-4.
    """
    if not (alpha > 0.0) or not np.isfinite(alpha):
        raise InvalidOrder(f"alpha must be positive and finite, got {alpha!r}")
    if not (0.0 < r <= 1.0):
        raise DomainError(f"r must lie in (0, 1], got {r!r}")
    if mode == "closed":
        return 1.0 / (alpha * r)
    if mode != "finite_diff":
        raise UnsupportedVariant(f"mode must be 'closed' or 'finite_diff', got {mode!r}")
    h = 1e-4
    if r < 10.0 * h:
        raise DomainError(f"r={r!r} too close to zero for step {h}")
    q = 1.0 / alpha
    gm, g0, gp = q_log(r - h, q), q_log(r, q), q_log(r + h, q)
    d1 = (gp - gm) / (2.0 * h)
    d2 = (gp - 2.0 * g0 + gm) / (h * h)
    return -d2 / d1
