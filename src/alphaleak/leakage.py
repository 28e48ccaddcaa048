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
posterior), and for its loss companion under the matching deformed log.
Everything else runs through exponentiated gradient with a brute-force
grid cross-check.  With matching generators the numeric problem is one
decision problem per observation, and the prior vulnerability is the
case of a single observation whose weights are the prior (what a channel
that reveals nothing produces); both go through one table: the soft 0-1
score under log/deformed-log generators and the power score and power
loss above run on the analytic-gradient kernels, every other objective
on central differences with restarts.  The kernels start each
observation at its posterior, which for a power score under its own
sense is the optimum (the score is strictly proper), and a power score
against its own sense at uniform.  When the two generators differ
the objective couples observations and the optimization runs jointly
over all per-observation simplices, initialized at the posterior family
plus the constant prior-optimal rule (which pins conditional >= prior
for gains) plus seeded random restarts.

A point-mass prior makes every soft 0-1 vulnerability equal one and
every leakage zero; this falls out of the formulas, no special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    DegenerateVulnerability,
    DimensionMismatch,
    DomainError,
    InvalidOrder,
    UnsupportedVariant,
)
from .optimize import (
    DEFAULT_CONFIG,
    OptimizerConfig,
    _EVAL_FLOOR,
    _best_row,
    _eg_run,
    _fd_grad_stack,
    _grid_values,
    _rowwise,
    _Stacked,
    augustin_fixed_point,
    eg_optimize,
    lp_alternating,
    oracle_optimize_rule,
    oracle_optimize_single,
)
from .qcalc import Aggregator, _apply, q_log
from .renyi import (
    ALPHA_ONE_ATOL,
    MiVariant,
    lp_order_valid,
    renyi_entropy,
    shannon_entropy,
)
from .simplex import Channel, DecisionRule, Pmf, _logsumexp, compose_joint, make_pmf, tilt


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


def _resolve(sense, g: GainFunction) -> str:
    sense = sense or g.sense
    if sense not in ("gain", "loss"):
        raise UnsupportedVariant(f"sense must be 'gain' or 'loss', got {sense!r}")
    return sense


def _maximize_inner(sense: str, phi: Aggregator) -> bool:
    return (sense == "gain") == phi.increasing


# ----------------------------------------------------------------------
# prior vulnerability
# ----------------------------------------------------------------------

def _prior_closed(p: Pmf, g: GainFunction, phi: Aggregator, sense: str):
    """(value, action) when a closed form applies, else None."""
    if sense != g.sense:
        return None
    probs = p.probs
    if g.kind == "soft01":
        if phi.kind == "log":
            mask = probs > 0.0
            return float(np.exp((probs[mask] * np.log(probs[mask])).sum())), Pmf(p.labels, probs)
        if phi.kind == "q_log" and phi.q is not None and phi.q > 0.0:
            q = phi.q
            lp = np.log(probs[probs > 0.0])
            ln_norm = _logsumexp(lp / q) * q  # log of |p|_{1/q}
            return float(np.exp(ln_norm / (1.0 - q))), tilt(p, 1.0 / q)
        if phi.kind == "linear" and phi.increasing:
            idx = int(np.argmax(probs))
            action = np.zeros_like(probs)
            action[idx] = 1.0
            return float(probs[idx]), Pmf(p.labels, action)
    elif g.kind == "power" and phi.kind == "linear" and phi.increasing:
        return float((probs ** g.alpha).sum()), Pmf(p.labels, probs)
    elif (
        g.kind == "power_loss"
        and phi.kind == "q_log"
        and phi.q is not None
        and abs(phi.q - g.alpha) <= 1e-9
    ):
        al = g.alpha
        lse = _logsumexp(al * np.log(probs[probs > 0.0]))
        return float(np.exp(lse / (1.0 - al))), Pmf(p.labels, probs)
    elif g.kind == "transformed" and phi.kind == "linear" and phi.increasing:
        if np.isinf(g.alpha):
            idx = int(np.argmax(probs))
            action = np.zeros_like(probs)
            action[idx] = 1.0
            return float(probs[idx]) - 1.0, Pmf(p.labels, action)
        from .qcalc import gibbs_optimum

        opt = gibbs_optimum(p, 1.0 / g.alpha)
        return opt.value, opt.argmax
    return None


def _prior_objective(probs: np.ndarray, g: GainFunction, phi: Aggregator):
    """sum_x p(x) phi(g(x, r)) of one action (a float) or of a (b, n)
    stack of actions (one value per row)."""
    mask = probs > 0.0
    live = probs[mask]

    def aggregate(actions: np.ndarray):
        fv = _apply(phi.forward, _gain_vector(g, actions))
        vals = (live * fv.compress(mask, axis=-1)).sum(axis=-1)
        return float(vals) if vals.ndim == 0 else vals

    return aggregate


def _optimize_action(aggregate, init: np.ndarray, maximize: bool,
                     cfg: OptimizerConfig):
    """EG over one simplex, all restarts stacked; the gradient by central
    differences, every perturbed point of every restart evaluated in one
    batched call of ``aggregate``.  Used for the per-observation
    objectives outside the kernel table of ``_per_observation``."""
    def objective(blocks, data):
        return aggregate(blocks[0]), None

    def grad(blocks, cache, data):
        return [_fd_grad_stack(aggregate, blocks[0])]

    return eg_optimize(_Stacked(objective, grad), [init.size],
                       "max" if maximize else "min", cfg, inits=[init])


def prior_vulnerability(p: Pmf, g: GainFunction, phi: Aggregator, sense=None,
                        method: str = "auto",
                        cfg: OptimizerConfig = DEFAULT_CONFIG) -> VulnerabilityResult:
    """Optimal phi-aggregated gain of a single action against the prior.

    The numeric routes (``optimize``, and ``auto`` without a closed
    form, and ``oracle``) are the one-observation case of the
    per-observation problem of ``cond_vulnerability``, with its start
    rule: a power score under its own sense starts at the prior alone, its
    optimum; every other kernel objective runs from the prior and, as the
    prior's rescue, from uniform, as two rows of one stack.  Only
    objectives outside the kernel table use central differences;
    ``oracle`` scans a grid with the same objectives.  The closed form is
    computed only for ``auto`` and ``closed_form``.
    """
    sense = _resolve(sense, g)
    if method in ("auto", "closed_form"):
        closed = _prior_closed(p, g, phi, sense)
        if closed is not None:
            value, action = closed
            return VulnerabilityResult(value=value, rule=action, method="closed_form",
                                       residual=0.0)
        if method == "closed_form":
            raise UnsupportedVariant(
                f"no closed form for gain {g.kind!r} with generator {phi.kind!r}"
            )
    # a channel that reveals nothing: one observation, of mass 1, whose
    # weights and posterior are the prior
    run = "oracle" if method == "oracle" else "optimize"
    row = p.probs[None, :]
    value, R, resid = _per_observation(row, np.ones(1), row, g, phi, sense, run, cfg,
                                       rescue=True)
    return VulnerabilityResult(value=value, rule=Pmf(p.labels, R[0]), method=run,
                               residual=resid)


# ----------------------------------------------------------------------
# conditional vulnerability, phi = psi (per-observation decomposition)
# ----------------------------------------------------------------------

def _rows_to_rule(p: Pmf, W: Channel, rows: np.ndarray) -> DecisionRule:
    return DecisionRule(p.labels, W.y_labels, rows)


def _cond_closed_same(p: Pmf, W: Channel, g: GainFunction, phi: Aggregator, sense: str):
    """(value, rule_rows) for the phi = psi closed forms, else None."""
    if sense != g.sense:
        return None
    joint = compose_joint(p, W)
    weights = joint.matrix  # (n_x, n_y)
    n_x, n_y = weights.shape
    rows = np.full((n_y, n_x), 1.0 / n_x)
    if g.kind == "soft01":
        if phi.kind == "log":
            total = 0.0
            for y in np.flatnonzero(joint.y_support):
                pi = joint.posteriors[y]
                mask = pi > 0.0
                total += joint.p_y[y] * float((pi[mask] * np.log(pi[mask])).sum())
                rows[y] = pi
            return float(np.exp(total)), rows
        if phi.kind == "q_log" and phi.q is not None and phi.q > 0.0:
            q = phi.q
            terms = []
            with np.errstate(divide="ignore"):
                LW = np.log(weights)
            for y in range(n_y):
                col = LW[:, y]
                live = np.isfinite(col)
                if not np.any(live):
                    continue
                terms.append(q * _logsumexp(col[live] / q))
                tilted = np.zeros(n_x)
                lw = col[live] / q
                lw -= lw.max()
                w = np.exp(lw)
                tilted[live] = w / w.sum()
                rows[y] = tilted
            ln_t = _logsumexp(np.array(terms))
            return float(np.exp(ln_t / (1.0 - q))), rows
        if phi.kind == "linear" and phi.increasing:
            total = 0.0
            for y in range(n_y):
                idx = int(np.argmax(weights[:, y]))
                total += weights[idx, y]
                rows[y] = np.zeros(n_x)
                rows[y][idx] = 1.0
            return float(total), rows
    elif g.kind == "power" and phi.kind == "linear" and phi.increasing:
        total = 0.0
        for y in np.flatnonzero(joint.y_support):
            pi = joint.posteriors[y]
            total += joint.p_y[y] * float((pi ** g.alpha).sum())
            rows[y] = pi
        return float(total), rows
    elif (
        g.kind == "power_loss"
        and phi.kind == "q_log"
        and phi.q is not None
        and abs(phi.q - g.alpha) <= 1e-9
    ):
        al = g.alpha
        terms = []
        for y in np.flatnonzero(joint.y_support):
            col = weights[:, y]
            lse = _logsumexp(al * np.log(col[col > 0.0]))
            terms.append((1.0 - al) * np.log(joint.p_y[y]) + lse)
            rows[y] = joint.posteriors[y]
        return float(np.exp(_logsumexp(np.array(terms)) / (1.0 - al))), rows
    return None


def _per_observation(wt: np.ndarray, mass: np.ndarray, posts: np.ndarray,
                     g: GainFunction, phi: Aggregator, sense: str, method: str,
                     cfg: OptimizerConfig, rescue: bool = False):
    """One decision problem per weight row, for phi = psi.

    Row i of ``wt`` is the weight vector of one observation: a column of
    the joint for a conditional vulnerability, the prior itself (mass 1)
    for a prior vulnerability.  ``mass[i]`` is its total and ``posts[i]``
    its normalization.

    The kernel rows start at their posterior; with ``rescue`` (the prior)
    they also run from uniform, as rows of their own in the same stack,
    and per observation the best run wins.  A power score is strictly
    proper (Gneiting & Raftery 2007): under its own sense each
    observation's posterior is its optimum, so those rows start there
    alone and stop within a few iterations.  Against its own sense an
    interior posterior is the score's optimum in the other direction, a
    stationary point that exponentiated gradient does not leave, so
    without ``rescue`` those rows start at uniform alone.  The oracle
    scores the same objective on a grid, one grid for all the rows of a
    kernel objective.  Returns (vulnerability, (m, n) optimal actions,
    worst residual).
    """
    n = wt.shape[1]
    maximize = _maximize_inner(sense, phi)
    uniform = np.full(posts.shape, 1.0 / n)
    # per objective, chosen once: its per-row data and sense; for the
    # kernel objectives, the stacked objective, its kernel and the kernel's
    # starts, whether the oracle floors grid points under it and whether
    # each coordinate enters only its own term; its aggregate term from
    # (observation mass, optimal value), and the map from the sum of the
    # terms to the vulnerability
    if g.kind == "soft01" and phi.kind in ("log", "q_log"):
        use_log = phi.kind == "log"
        beta = 0.0 if use_log else 1.0 - phi.q
        # phi(g) is affine in r**beta, so the direction flips with q > 1
        sense_max = maximize if (use_log or phi.q < 1.0) else not maximize
        data, starts = wt, ([posts, uniform] if rescue else [posts])
        objective = _kernels.tsallis_objective(beta, use_log).objective
        solve = lambda w, r0, *run: _kernels.tsallis_eg(w, beta, use_log, r0, *run)
        floor, separable = beta < 0.0, True
        term = (lambda m, val: val) if use_log else (lambda m, val: (val - m) / (1.0 - phi.q))
        finish = phi.inverse
    elif (g.kind == "power" and phi.kind == "linear") or (
            g.kind == "power_loss" and phi.kind == "q_log"
            and phi.q is not None and abs(phi.q - g.alpha) <= 1e-9):
        # phi(g) is affine in the power score: with the slope of a linear
        # generator, and with slope 1/(1-alpha) for the power loss
        sense_max = maximize == (phi.increasing if g.kind == "power" else g.alpha < 1.0)
        data = posts
        if sense == g.sense:
            starts = [posts]
        else:
            starts = [posts, uniform] if rescue else [uniform]
        objective = _kernels.power_objective(g.alpha).objective
        solve = lambda pi, r0, *run: _kernels.power_eg(pi, g.alpha, r0, *run)
        floor, separable = g.alpha < 1.0, False
        term = lambda m, val: m * val
        # an affine generator's mean is the arithmetic mean; the power loss's
        # deformed-log mean is the 1/(1-alpha) power of the mean score, taken
        # directly since phi.inverse's base 1 + (1-alpha) * (mean of phi)
        # cancels to 0 once the mean score falls below about 1e-16
        finish = ((lambda s: s) if g.kind == "power"
                  else (lambda s: np.power(s, 1.0 / (1.0 - g.alpha))))
    else:
        data, sense_max, solve = posts, maximize, None
        term = lambda m, val: m * val
        finish = phi.inverse
    if solve is None:
        # the generic objective, one observation at a time
        R, vals, resids = [], [], []
        for d in data:
            if method == "optimize":
                res = _optimize_action(_prior_objective(d, g, phi), d, maximize, cfg)
                r, val, resid = res.point[0], res.value, res.residual
            else:
                r, val = oracle_optimize_single(_prior_objective(d, g, phi), n, sense_max, cfg)
                resid = cfg.grid_resolution
            R.append(r)
            vals.append(val)
            resids.append(resid)
    elif method == "optimize":
        # every (start, observation) pair is one row of a single stack; row
        # j * n_obs + i runs start j of observation i
        n_obs = len(data)
        R, vals, resids, _, _ = solve(np.concatenate([data] * len(starts)),
                                      np.concatenate(starts), sense_max, cfg.tolerance,
                                      cfg.max_iters, cfg.step_init)
        best = [i + n_obs * _best_row(vals[i::n_obs], sense_max) for i in range(n_obs)]
        R, vals, resids = R[best], vals[best], resids[best]
    else:
        # one scan of one grid: each observation's data is broadcast along
        # the grid axis, so the objective gives one row of values per
        # observation
        rows = data[:, None, :]
        R, vals = oracle_optimize_single(
            _grid_values(objective, rows, floor, rows > 0.0 if separable else None),
            n, sense_max, cfg)
        resids = np.full(len(data), cfg.grid_resolution)
    aggregate = 0.0
    worst_resid = 0.0
    for m, val, resid in zip(mass, vals, resids):
        aggregate += term(float(m), float(val))
        worst_resid = max(worst_resid, float(resid))
    return float(finish(aggregate)), R, worst_resid


def _cond_numeric_same(p: Pmf, W: Channel, g: GainFunction, phi: Aggregator,
                       sense: str, method: str, cfg: OptimizerConfig):
    """Per-observation numerical optimization for phi = psi: the columns
    of the joint with positive mass are the weight rows."""
    wt = np.ascontiguousarray(compose_joint(p, W).matrix.T)  # one row per observation
    mass = wt.sum(axis=1)
    ys = np.flatnonzero(mass > 0.0)
    value, R, resid = _per_observation(wt[ys], mass[ys], wt[ys] / mass[ys, None],
                                       g, phi, sense, method, cfg)
    rows = np.full(wt.shape, 1.0 / wt.shape[1])
    rows[ys] = R
    return value, rows, resid


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
    """(restarts + 1, n_y, n_x) starts: the posterior family, the constant
    prior-optimal rule, then seeded draws."""
    rng = np.random.default_rng(cfg.seed)
    posteriors = compose_joint(p, W).posteriors
    n_y, n_x = posteriors.shape
    return np.stack([posteriors, np.broadcast_to(prior_action, (n_y, n_x))]
                    + [rng.dirichlet(np.ones(n_x), size=n_y) for _ in range(cfg.restarts - 1)])


def _cond_ac(p: Pmf, W: Channel, alpha: float, method: str, cfg: OptimizerConfig):
    beta = 1.0 - 1.0 / alpha
    coeff = alpha / (alpha - 1.0)
    maximize = alpha > 1.0  # of the inner log-sum objective
    if method in ("auto", "closed_form"):
        fp = augustin_fixed_point(p, W, alpha, cfg)
        value = math.exp(fp.value - shannon_entropy(p))
        return value, None, "closed_form", fp.residual
    if method == "optimize":
        R, vals, resids, _, _ = _kernels.ac_eg(
            p.probs, W.matrix, beta, _joint_eg_inits(p, W, p.probs, cfg), maximize,
            cfg.tolerance, cfg.max_iters, cfg.step_init,
        )
        i = _best_row(vals, maximize)
        return math.exp(coeff * float(vals[i])), R[i], "optimize", float(resids[i])
    objective = _kernels.ac_objective(p.probs, W.matrix, beta).objective
    R, val = oracle_optimize_rule(
        _grid_values(objective, floor=beta < 0.0, live=p.probs > 0.0),
        p.n, W.n_y, maximize, cfg,
    )
    return math.exp(coeff * val), R, "oracle", cfg.grid_resolution


def _cond_lp(p: Pmf, W: Channel, alpha: float, method: str, cfg: OptimizerConfig):
    beta = 1.0 - 1.0 / alpha
    qt = alpha / (2.0 * alpha - 1.0)
    maximize = alpha > 1.0
    if method in ("auto", "closed_form"):
        # the passed prior is the tilted one; undo the tilt for the
        # product-divergence route
        p_orig = tilt(p, 1.0 / qt)
        res = lp_alternating(compose_joint(p_orig, W), alpha, cfg)
        value = math.exp(res.value - renyi_entropy(p_orig, qt))
        return value, None, "closed_form", res.residual
    if method == "optimize":
        prior_action = tilt(p, 1.0 / qt).probs
        R, vals, resids, _, _ = _kernels.lp_eg(
            p.probs, W.matrix, beta, qt, _joint_eg_inits(p, W, prior_action, cfg), maximize,
            cfg.tolerance, cfg.max_iters, cfg.step_init,
        )
        i = _best_row(vals, maximize)
        return math.exp(float(vals[i]) / (1.0 - qt)), R[i], "optimize", float(resids[i])
    objective = _kernels.lp_objective(p.probs, W.matrix, beta, qt).objective
    R, val = oracle_optimize_rule(_grid_values(objective, floor=beta < 0.0),
                                  p.n, W.n_y, maximize, cfg)
    return math.exp(val / (1.0 - qt)), R, "oracle", cfg.grid_resolution


def _kn_conditional_value(p: Pmf, W: Channel, g: GainFunction,
                          phi: Aggregator, psi: Aggregator, R: np.ndarray) -> float:
    """The defining doubly-aggregated value of a rule (no optimization)."""
    n_x = p.n
    psi_g = _apply(psi.forward, _gain_vector(g, R))
    inner = np.empty(n_x)
    for x in range(n_x):
        live = W.matrix[x] > 0.0  # avoid 0 * (-inf) at boundary rules
        inner[x] = psi.inverse(float((W.matrix[x, live] * psi_g[live, x]).sum()))
    fv = _apply(phi.forward, inner)
    mask = p.probs > 0.0
    return float(phi.inverse(float((p.probs[mask] * fv[mask]).sum())))


def _cond_generic_mixed(p: Pmf, W: Channel, g: GainFunction, phi: Aggregator,
                        psi: Aggregator, sense: str, method: str,
                        cfg: OptimizerConfig):
    """phi != psi without a recognized tuple: optimize the value directly."""
    maximize = sense == "gain"

    def objective_rows(R: np.ndarray) -> float:
        return _kn_conditional_value(p, W, g, phi, psi, R)

    if method == "oracle":
        # grid rules floored, as every rule oracle floors them: a zero entry
        # can make a gain infinite and its generator image a saturation value
        R, val = oracle_optimize_rule(
            lambda stack: np.array([objective_rows(R) for R in np.maximum(stack, _EVAL_FLOOR)]),
            p.n, W.n_y, maximize, cfg)
        return val, R, "oracle", cfg.grid_resolution
    prior_act = prior_vulnerability(p, g, phi, sense, "auto", cfg).rule
    inits = _joint_eg_inits(p, W, prior_act.probs, cfg)

    def objective(blocks):
        return objective_rows(np.vstack(blocks))

    # one block per observation, one stack row per start; the value is
    # evaluated row by row with central-difference gradients
    blocks, vals, resids, _, _ = _eg_run(
        _rowwise(objective, None), [list(R0) for R0 in inits], maximize,
        cfg.tolerance, cfg.max_iters, cfg.step_init,
    )
    i = _best_row(vals, maximize)
    return float(vals[i]), np.vstack([b[i] for b in blocks]), "optimize", float(resids[i])


def cond_vulnerability(p: Pmf, W: Channel, g: GainFunction, phi: Aggregator,
                       psi: Aggregator, sense=None, method: str = "auto",
                       cfg: OptimizerConfig = DEFAULT_CONFIG) -> VulnerabilityResult:
    """Optimal doubly-aggregated gain of a decision rule.

    With matching generators the problem decomposes per observation;
    otherwise it couples them and runs jointly (see module docstring).
    The identity-based closed routes return ``rule=None``.
    """
    if p.labels != W.x_labels:
        raise DimensionMismatch("prior labels do not match channel input labels")
    sense = _resolve(sense, g)
    if phi.matches(psi):
        if method in ("auto", "closed_form"):
            closed = _cond_closed_same(p, W, g, phi, sense)
            if closed is not None:
                value, rows = closed
                return VulnerabilityResult(value=value, rule=_rows_to_rule(p, W, rows),
                                           method="closed_form", residual=0.0)
            if method == "closed_form":
                raise UnsupportedVariant(
                    f"no closed form for gain {g.kind!r} with generator {phi.kind!r}"
                )
        run_method = "optimize" if method == "auto" else method
        value, rows, resid = _cond_numeric_same(p, W, g, phi, sense, run_method, cfg)
        return VulnerabilityResult(value=value, rule=_rows_to_rule(p, W, rows),
                                   method=run_method, residual=resid)

    ac_alpha = _detect_ac_tuple(g, phi, psi)
    if ac_alpha is not None and sense == "gain":
        value, rows, used, resid = _cond_ac(p, W, ac_alpha, method, cfg)
        rule = _rows_to_rule(p, W, rows) if rows is not None else None
        return VulnerabilityResult(value=value, rule=rule, method=used, residual=resid)
    lp_alpha = _detect_lp_tuple(g, phi, psi)
    if lp_alpha is not None and sense == "gain":
        value, rows, used, resid = _cond_lp(p, W, lp_alpha, method, cfg)
        rule = _rows_to_rule(p, W, rows) if rows is not None else None
        return VulnerabilityResult(value=value, rule=rule, method=used, residual=resid)

    if method == "closed_form":
        raise UnsupportedVariant(
            "mismatched generators admit no closed form outside the recognized tuples"
        )
    run_method = "optimize" if method == "auto" else method
    value, rows, used, resid = _cond_generic_mixed(p, W, g, phi, psi, sense, run_method, cfg)
    return VulnerabilityResult(value=value, rule=_rows_to_rule(p, W, rows),
                               method=used, residual=resid)


def posterior_vulnerability_hat(p: Pmf, W: Channel, g: GainFunction,
                                phi: Aggregator, psi: Aggregator, sense=None,
                                cfg: OptimizerConfig = DEFAULT_CONFIG) -> float:
    """psi-mean over observations of the per-posterior optimal phi-mean.

    Agrees with ``cond_vulnerability`` when phi = psi; in general the
    two aggregate in different orders and need not coincide.
    """
    sense = _resolve(sense, g)
    joint = compose_joint(p, W)
    ys = np.flatnonzero(joint.y_support)
    vals = np.empty(ys.size)
    for i, y in enumerate(ys):
        pi = make_pmf(joint.posteriors[y], renormalize=True, labels=p.labels)
        vals[i] = prior_vulnerability(pi, g, phi, sense, "auto", cfg).value
    fv = _apply(psi.forward, vals)
    return float(psi.inverse(float((joint.p_y[ys] * fv).sum())))


# ----------------------------------------------------------------------
# leakage
# ----------------------------------------------------------------------

def g_leakage(spec: LeakageSpec, W: Channel, method: str = "auto",
              cfg: OptimizerConfig = DEFAULT_CONFIG) -> float:
    """Multiplicative leakage in nats: log of conditional over prior for
    gains, log of prior over conditional for losses."""
    prior = prior_vulnerability(spec.prior, spec.gain, spec.phi, spec.sense, method, cfg)
    cond = cond_vulnerability(spec.prior, W, spec.gain, spec.phi, spec.psi,
                              spec.sense, method, cfg)
    vp, vc = prior.value, cond.value
    if not np.isfinite(vp) or vp <= 0.0:
        raise DegenerateVulnerability(f"prior vulnerability {vp!r} cannot anchor a ratio")
    if not np.isfinite(vc) or vc <= 0.0:
        raise DegenerateVulnerability(f"conditional vulnerability {vc!r} is degenerate")
    if spec.sense == "gain":
        return math.log(vc / vp)
    return math.log(vp / vc)


def leakage_spec_for(variant, p: Pmf, alpha: float) -> LeakageSpec:
    """The (prior, phi, psi, gain) tuple whose leakage is the given
    order-alpha mutual information."""
    from .qcalc import log_aggregator, q_log_aggregator

    variant = MiVariant(variant)
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
