"""Renyi-family information measures on finite (prior, channel) pairs.

Five order-alpha mutual-information variants are supported, named after
where their extremization sits:

* ``sibson``: divergence to the best product with the true input
  marginal fixed; closed form available.
* ``arimoto``: input entropy minus the escort-style conditional entropy.
* ``augustin_csiszar``: best output distribution under the expected
  per-input divergence; computed by fixed point, gradient descent, or
  grid.
* ``hayashi``: input entropy minus the posterior-moment conditional
  entropy.
* ``lapidoth_pfister``: divergence to the best product distribution
  over both marginals; needs alpha > 1/2.

Every variant's conditional entropy is also -log of the conditional
vulnerability of its leakage tuple (+log for the Hayashi loss tuple):
the value of an optimal decision rule.  ``cond_renyi_entropy`` computes
its ``optimize`` and ``oracle`` methods that way, through
``leakage.cond_vulnerability``, so closed forms always have an
independent check.  All outputs are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatch,
    InvalidOrder,
    NumericalInconsistency,
    OracleTooLarge,
    UnsupportedVariant,
)
from .optimize import (
    DEFAULT_CONFIG,
    OptimizerConfig,
    _expected_divergence_eg,
    _Stacked,
    augustin_fixed_point,
    eg_optimize,
    lp_alternating,
    oracle_optimize_single,
    simplex_grid,
)
from .simplex import Channel, Pmf, _log0, _logsumexp, compose_joint, tilt

ALPHA_ONE_ATOL = 1e-8


class MiVariant(str, Enum):
    SHANNON = "shannon"
    SIBSON = "sibson"
    ARIMOTO = "arimoto"
    AUGUSTIN_CSISZAR = "augustin_csiszar"
    HAYASHI = "hayashi"
    LAPIDOTH_PFISTER = "lapidoth_pfister"


class Method(str, Enum):
    CLOSED_FORM = "closed_form"
    OPTIMIZE = "optimize"
    ORACLE = "oracle"


def _variant(v) -> MiVariant:
    try:
        return MiVariant(v)
    except ValueError:
        raise UnsupportedVariant(f"unknown variant {v!r}") from None


def _method(m) -> Method:
    try:
        return Method(m)
    except ValueError:
        raise UnsupportedVariant(f"unknown method {m!r}") from None


def lp_order_valid(alpha: float) -> bool:
    return alpha > 0.5 and abs(alpha - 1.0) > ALPHA_ONE_ATOL


def _check_alpha(alpha: float, variant: MiVariant):
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise InvalidOrder(f"alpha must be positive and finite, got {alpha!r}")
    if variant is MiVariant.LAPIDOTH_PFISTER and not (
        alpha > 0.5 or abs(alpha - 1.0) <= ALPHA_ONE_ATOL
    ):
        raise InvalidOrder(
            f"the lapidoth_pfister variant needs alpha in (1/2,1) or (1,inf), got {alpha!r}"
        )


@dataclass(frozen=True)
class ShannonMeasures:
    entropy: float
    conditional_entropy: float
    mutual_information: float


def shannon_entropy(p: Pmf) -> float:
    probs = p.probs[p.probs > 0.0]
    return float(-(probs * np.log(probs)).sum())


def shannon_measures(p: Pmf, W: Channel) -> ShannonMeasures:
    """Input entropy, conditional entropy, and their difference (nats)."""
    joint = compose_joint(p, W)
    h = shannon_entropy(p)
    h_cond = 0.0
    for y in np.flatnonzero(joint.y_support):
        pi = joint.posteriors[y]
        mask = pi > 0.0
        h_cond -= joint.p_y[y] * float((pi[mask] * np.log(pi[mask])).sum())
    mi = h - h_cond
    if mi < -1e-12:
        raise NumericalInconsistency(f"negative mutual information {mi!r}")
    return ShannonMeasures(entropy=h, conditional_entropy=h_cond,
                           mutual_information=max(mi, 0.0))


def renyi_entropy(p: Pmf, alpha: float) -> float:
    """(1/(1-alpha)) log sum p**alpha, the Shannon entropy at alpha = 1."""
    if not (alpha > 0.0) or not np.isfinite(alpha):
        raise InvalidOrder(f"alpha must be positive and finite, got {alpha!r}")
    if abs(alpha - 1.0) <= ALPHA_ONE_ATOL:
        return shannon_entropy(p)
    lp = np.log(p.probs[p.probs > 0.0])
    return _logsumexp(alpha * lp) / (1.0 - alpha)


def renyi_divergence(p: Pmf, q: Pmf, alpha: float) -> float:
    """(1/(alpha-1)) log sum p**alpha q**(1-alpha); KL at alpha = 1.

    For alpha > 1 the divergence is infinite unless support(p) is inside
    support(q).  Values are clamped at zero from rounding noise.
    """
    if not (alpha > 0.0) or not np.isfinite(alpha):
        raise InvalidOrder(f"alpha must be positive and finite, got {alpha!r}")
    if p.n != q.n:
        raise DimensionMismatch("distributions live on different alphabets")
    pp, qq = p.probs, q.probs
    sup_p = pp > 0.0
    if abs(alpha - 1.0) <= ALPHA_ONE_ATOL:
        if np.any(sup_p & (qq == 0.0)):
            return np.inf
        val = float((pp[sup_p] * np.log(pp[sup_p] / qq[sup_p])).sum())
    else:
        if alpha > 1.0 and np.any(sup_p & (qq == 0.0)):
            return np.inf
        both = sup_p & (qq > 0.0)
        if not np.any(both):
            return np.inf
        terms = alpha * np.log(pp[both]) + (1.0 - alpha) * np.log(qq[both])
        val = _logsumexp(terms) / (alpha - 1.0)
    if val < -1e-12:
        raise NumericalInconsistency(f"negative divergence {val!r}")
    return max(val, 0.0)


# ----------------------------------------------------------------------
# conditional Renyi entropies
# ----------------------------------------------------------------------

def _log_sum_col_norms(L: np.ndarray, alpha: float) -> float:
    """log sum_y exp(LSE_x L[x, y] / alpha) over the finite entries of the
    log-weight matrix L (-inf on zeros); the core of the Sibson and Arimoto
    closed forms.  Each column is a row of one C-contiguous stack."""
    inner = _logsumexp(np.ascontiguousarray(L.T)) / alpha  # -inf on an all-zero column
    return _logsumexp(inner[np.isfinite(inner)])


def _arimoto_style_closed(prior: Pmf, W: Channel, alpha: float) -> float:
    """(alpha/(1-alpha)) log sum_y (sum_x (prior*W)**alpha)**(1/alpha)."""
    L = alpha * (_log0(prior.probs)[:, None] + _log0(W.matrix))  # -inf on zeros
    return alpha / (1.0 - alpha) * _log_sum_col_norms(L, alpha)


def _hayashi_closed(p: Pmf, W: Channel, alpha: float) -> float:
    joint = compose_joint(p, W)
    ys = joint.y_support
    L = alpha * _log0(joint.posteriors[ys])  # -inf on zeros
    return _logsumexp(np.log(joint.p_y[ys]) + _logsumexp(L)) / (1.0 - alpha)


def cond_renyi_entropy(variant, p: Pmf, W: Channel, alpha: float,
                       method="closed_form",
                       cfg: OptimizerConfig = DEFAULT_CONFIG) -> float:
    """Conditional entropy of order alpha for the given variant (nats)."""
    variant = _variant(variant)
    method = _method(method)
    if variant is MiVariant.SHANNON:
        raise UnsupportedVariant("use shannon_measures for the order-1 quantities")
    _check_alpha(alpha, variant)
    if p.labels != W.x_labels:
        raise DimensionMismatch("prior labels do not match channel input labels")
    if abs(alpha - 1.0) <= ALPHA_ONE_ATOL:
        return shannon_measures(p, W).conditional_entropy
    if method is not Method.CLOSED_FORM:
        # -log of the conditional vulnerability of the variant's leakage
        # tuple, +log for the Hayashi loss tuple
        from .leakage import cond_vulnerability, leakage_spec_for

        spec = leakage_spec_for(variant, p, alpha)
        V = cond_vulnerability(spec.prior, W, spec.gain, spec.phi, spec.psi, spec.sense,
                               method.value, cfg).value
        return float(np.log(V)) if spec.sense == "loss" else -float(np.log(V))
    if variant is MiVariant.ARIMOTO:
        return _arimoto_style_closed(p, W, alpha)
    if variant is MiVariant.SIBSON:
        return _arimoto_style_closed(tilt(p, 1.0 / alpha), W, alpha)
    if variant is MiVariant.HAYASHI:
        return _hayashi_closed(p, W, alpha)
    if variant is MiVariant.AUGUSTIN_CSISZAR:
        return shannon_entropy(p) - alpha_mi(variant, p, W, alpha, method, cfg)
    if variant is MiVariant.LAPIDOTH_PFISTER:
        qt = alpha / (2.0 * alpha - 1.0)
        return renyi_entropy(p, qt) - alpha_mi(variant, p, W, alpha, method, cfg)
    raise UnsupportedVariant(str(variant))


# ----------------------------------------------------------------------
# mutual information
# ----------------------------------------------------------------------

def _clamp_mi(value: float, method: Method, p: Pmf,
              cfg: OptimizerConfig) -> float:
    if method is Method.CLOSED_FORM:
        threshold = 1e-12
    elif method is Method.OPTIMIZE:
        threshold = 1e-6
    else:
        threshold = p.n * cfg.grid_resolution
    if not np.isfinite(value):
        raise NumericalInconsistency(f"mutual information {value!r} is not finite")
    if value < -threshold:
        raise NumericalInconsistency(
            f"mutual information {value!r} below -{threshold:g}: rounding cannot explain this"
        )
    return max(value, 0.0)


def _sibson_closed(p: Pmf, W: Channel, alpha: float) -> float:
    """(alpha/(alpha-1)) log sum_y (sum_x p W**alpha)**(1/alpha)."""
    L = _log0(p.probs)[:, None] + alpha * _log0(W.matrix)
    return alpha / (alpha - 1.0) * _log_sum_col_norms(L, alpha)


def _lp_objective(P: np.ndarray, alpha: float) -> _Stacked:
    """log T / (alpha - 1) over pairs (qx, qy), stacked for ``eg_optimize``,
    log T = LSE_{x,y}(alpha log P[x, y] + (1 - alpha)(log qx[x] + log qy[y]))
    (-inf on a zero of the joint P), and its gradient, per block minus its
    marginal of the softmax weights over the point."""
    La = alpha * _log0(P)

    def objective(blocks, data):
        lx, ly = (_kernels._log_floored(b) for b in blocks)
        A = La + (1.0 - alpha) * (lx[:, :, None] + ly[:, None, :])
        log_T = _logsumexp(A.reshape(len(A), -1), finite=True)
        A -= log_T[:, None, None]  # the log softmax weights, for the gradient
        return log_T / (alpha - 1.0), A

    def grad(blocks, log_w, data):
        w = np.exp(log_w)
        return [-w.sum(axis=2) / blocks[0], -w.sum(axis=1) / blocks[1]]

    return _Stacked(objective, grad)


def alpha_mi(variant, p: Pmf, W: Channel, alpha: float = 1.0,
             method="closed_form",
             cfg: OptimizerConfig = DEFAULT_CONFIG) -> float:
    """Mutual information of order alpha for the given variant (nats).

    ``closed_form`` uses the analytic expression where one exists and
    the dedicated iterative solver otherwise; ``optimize`` recomputes
    through a generic numerical route; ``oracle`` brute-forces a grid
    (small alphabets only).  Results are clamped to [0, inf); negative
    values beyond the method's noise floor raise, as do NaN and inf.

    Sibson and Augustin-Csiszar minimize one objective over q, the expected
    divergence summed row by row over the support, Sibson's program being
    its one-input case p W^alpha.  Their ``optimize`` programs (over q) and
    Lapidoth-Pfister's (over (q_x, q_y)) have no spurious local optimum,
    so each runs one EG start from the marginals and ``cfg.restarts``
    does not apply to them: D_alpha(P || Q) is convex in Q at every order
    (van Erven & Harremoes, IEEE Trans. IT 60(7), 2014, Thm. 12), and
    each Lapidoth-Pfister term P^alpha q_x^(1-alpha) q_y^(1-alpha) is
    jointly convex above order 1 and jointly concave on (1/2, 1)
    (Cobb-Douglas, exponents summing to less than 1).
    """
    variant = _variant(variant)
    method = _method(method)
    if p.labels != W.x_labels:
        raise DimensionMismatch("prior labels do not match channel input labels")
    if variant is MiVariant.SHANNON:
        return shannon_measures(p, W).mutual_information
    _check_alpha(alpha, variant)
    if abs(alpha - 1.0) <= ALPHA_ONE_ATOL:
        return shannon_measures(p, W).mutual_information

    if variant is MiVariant.SIBSON and method is Method.CLOSED_FORM:
        value = _sibson_closed(p, W, alpha)
    elif variant is MiVariant.AUGUSTIN_CSISZAR and method is Method.CLOSED_FORM:
        value = augustin_fixed_point(p, W, alpha, cfg).value
    elif variant in (MiVariant.SIBSON, MiVariant.AUGUSTIN_CSISZAR):
        # one convex objective over q; Sibson's is its one-input case
        p_in, La = p.probs, alpha * _log0(W.matrix)
        if variant is MiVariant.SIBSON:
            p_in, La = np.ones(1), _logsumexp(_log0(p.probs)[:, None] + La, axis=0)[None]
        stacked = _expected_divergence_eg(p_in, La, alpha)
        if method is Method.OPTIMIZE:
            value = eg_optimize(stacked, [W.n_y], "min", cfg, inits=[p.probs @ W.matrix]).value
        else:
            _, value = oracle_optimize_single(stacked.objective, W.n_y, False, cfg, rows=p_in.size)
    elif variant in (MiVariant.ARIMOTO, MiVariant.HAYASHI):
        value = renyi_entropy(p, alpha) - cond_renyi_entropy(variant, p, W, alpha, method, cfg)
    elif variant is MiVariant.LAPIDOTH_PFISTER:
        joint = compose_joint(p, W)
        if method is Method.CLOSED_FORM:
            value = lp_alternating(joint, alpha, cfg).value
        elif method is Method.OPTIMIZE:
            value = eg_optimize(_lp_objective(joint.matrix, alpha), [p.n, W.n_y], "min", cfg,
                                inits=[joint.p_x, joint.p_y]).value
        else:
            from .optimize import GRID_POINT_BUDGET, _check_oracle_alphabet

            _check_oracle_alphabet(p.n, W.n_y)
            Pa = joint.matrix ** alpha
            gx = simplex_grid(p.n, cfg.grid_resolution)
            gy = simplex_grid(W.n_y, cfg.grid_resolution)
            if gx.shape[0] * gy.shape[0] > GRID_POINT_BUDGET:
                raise OracleTooLarge("double grid too large; coarsen the resolution")
            power = _kernels._power(1.0 - alpha)
            # above order 1 the power of a floored boundary point can overflow
            # to inf; its inf never wins the minimum taken there, so the
            # overflow is harmless and stays silent
            with np.errstate(over="ignore"):
                M = power(gx) @ Pa @ power(gy).T
            # minimizing the signed value flips to maximizing T below order 1
            T_opt = M.min() if alpha > 1.0 else M.max()
            value = float(np.log(T_opt) / (alpha - 1.0))
    else:
        raise UnsupportedVariant(str(variant))
    return _clamp_mi(float(value), method, p, cfg)
