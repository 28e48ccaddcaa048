"""Reference values of the order-alpha mutual informations.

Written apart from the library, in the log domain, so that a cell value
the library computes can be checked against a second route:

* Sibson and Hayashi: their defining sums, evaluated with logsumexp;
* Arimoto: Sibson's formula at the alpha-tilted prior (an identity, not
  the library's conditional-entropy route);
* Augustin-Csiszar: the Augustin fixed point with geometric damping
  ``q <- T(q)^(1/alpha) q^(1-1/alpha)`` above order one.  The objective
  is convex in q, so the Frank-Wolfe gap ``max_y T(q)_y / q_y - 1``
  bounds the distance to the minimum and certifies the value;
* Lapidoth-Pfister: the exact minimizers of each product factor given
  the other, alternated in the log domain until neither moves.

All inputs are plain arrays: ``p`` of shape (n_x,), ``W`` of shape
(n_x, n_y) with rows summing to one.  Values are in nats.
"""

from __future__ import annotations

import numpy as np

GAP_TOL = 1e-11
STEP_TOL = 1e-13
MAX_ITERS = 200_000


class ReferenceUnavailable(RuntimeError):
    """The reference solver did not certify its value."""


def _lse(a: np.ndarray, axis=None) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis) if axis is not None else float(out.squeeze())


def _logs(p: np.ndarray, W: np.ndarray):
    live = p > 0.0
    with np.errstate(divide="ignore"):
        return np.log(p[live]), np.log(W[live])


def _sibson_log(lp: np.ndarray, lW: np.ndarray, alpha: float) -> float:
    inner = _lse(lp[:, None] + alpha * lW, axis=0)  # log sum_x p W^alpha, per y
    inner = inner[np.isfinite(inner)]
    return alpha / (alpha - 1.0) * _lse(inner / alpha)


def sibson(p: np.ndarray, W: np.ndarray, alpha: float) -> float:
    return _sibson_log(*_logs(p, W), alpha)


def arimoto(p: np.ndarray, W: np.ndarray, alpha: float) -> float:
    # the tilted prior stays in the log domain: at alpha = 1000 its small
    # entries underflow, yet they can carry the largest terms of a column
    lp, lW = _logs(p, W)
    return _sibson_log(alpha * lp - _lse(alpha * lp), lW, alpha)


def hayashi(p: np.ndarray, W: np.ndarray, alpha: float) -> float:
    lp, lW = _logs(p, W)
    lj = lp[:, None] + lW  # log joint, -inf on zeros
    ly = _lse(lj, axis=0)
    cols = np.isfinite(ly)
    terms = (1.0 - alpha) * ly[None, cols] + alpha * lj[:, cols]
    cond = _lse(terms[np.isfinite(terms)])
    return (_lse(alpha * lp) - cond) / (1.0 - alpha)


def augustin_csiszar(p: np.ndarray, W: np.ndarray, alpha: float) -> float:
    lp, lW = _logs(p, W)
    laW = alpha * lW
    lq = _lse(lp[:, None] + lW, axis=0)  # output marginal
    reach = np.isfinite(lq)
    laW, lq = laW[:, reach], lq[reach]
    damp = 1.0 / alpha if alpha > 1.0 else 1.0
    for _ in range(MAX_ITERS):
        lt = laW + (1.0 - alpha) * lq[None, :]
        lS = _lse(lt, axis=1)
        lT = _lse(lp[:, None] + lt - lS[:, None], axis=0)
        gap = float(np.exp(np.max(lT - lq)) - 1.0)
        if gap <= GAP_TOL:
            return float((np.exp(lp) * lS).sum() / (alpha - 1.0))
        lq = damp * lT + (1.0 - damp) * lq
        lq -= _lse(lq)
    raise ReferenceUnavailable(f"augustin reference gap {gap:.2e} after {MAX_ITERS} steps")


def lapidoth_pfister(p: np.ndarray, W: np.ndarray, alpha: float) -> float:
    lp, lW = _logs(p, W)
    laP = alpha * (lp[:, None] + lW)  # log joint^alpha
    lqy = _lse(lp[:, None] + lW, axis=0)
    reach = np.isfinite(lqy)
    laP, lqy = laP[:, reach], lqy[reach]
    lqx = lp.copy()
    for _ in range(MAX_ITERS):
        la = _lse(laP + (1.0 - alpha) * lqy[None, :], axis=1) / alpha
        new_qx = la - _lse(la)
        lb = _lse(laP + (1.0 - alpha) * new_qx[:, None], axis=0) / alpha
        new_qy = lb - _lse(lb)
        step = max(np.abs(new_qx - lqx).max(), np.abs(new_qy - lqy).max())
        lqx, lqy = new_qx, new_qy
        if step <= STEP_TOL:
            total = _lse(laP + (1.0 - alpha) * (lqx[:, None] + lqy[None, :]))
            return total / (alpha - 1.0)
    raise ReferenceUnavailable(f"lapidoth-pfister reference step {step:.2e} after {MAX_ITERS}")


REFERENCES = {
    "sibson": sibson,
    "arimoto": arimoto,
    "hayashi": hayashi,
    "augustin_csiszar": augustin_csiszar,
    "lapidoth_pfister": lapidoth_pfister,
}


def reference_mi(variant: str, p: np.ndarray, W: np.ndarray, alpha: float) -> float:
    """Order-alpha mutual information of ``variant`` at (p, W), clamped at zero
    like the library's values."""
    return max(REFERENCES[variant](p, W, alpha), 0.0)
