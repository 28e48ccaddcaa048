"""Numeric kernels: one exponentiated-gradient loop and two fixed-point solvers.

``eg`` is the exponentiated-gradient (multiplicative weights) update of
Kivinen & Warmuth (1997) with a backtracking line search, a doubling of
the step after each accepted step, and a stop after three consecutive
iterations whose relative change of the value is below ``tol``.  It is
the only EG loop in the library: the four decision-rule kernels
(``tsallis_eg``, ``power_eg``, ``ac_eg``, ``lp_eg``) bind an objective
and its gradient to it, and ``optimize.eg_optimize`` binds a generic
objective with a supplied or finite-difference gradient.

``augustin_solve`` is the fixed-point iteration for the minimizing output
distribution and ``lp_alternating_solve`` the alternating minimization
over product distributions.

The kernels are plain numpy, deterministic, and floor simplex iterates at
``EPS`` so that negative-power objectives stay finite at the boundary.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-12

_MAX_STEP = 1e3
_MIN_STEP = 1e-18
_HITS_TO_CONVERGE = 3


def backend() -> str:
    """Kernel backend; the kernels are numpy only."""
    return "numpy"


def _floor_rows(R):
    # a vector is scaled by a scalar: cheaper than broadcasting a length-1 axis
    R = np.maximum(R, EPS)
    return R / R.sum(axis=-1, keepdims=R.ndim > 1)


def eg(objective, grad, blocks, maximize, tol, max_iters, step_init):
    """Exponentiated gradient over a product of simplices.

    ``blocks`` is a list of arrays whose last axis is a simplex (a vector
    or a stack of rows); ``objective(blocks)`` returns the value and
    ``grad(blocks)`` one gradient array per block.  Each step multiplies
    every simplex by exp(+-s (g - extreme of g)), the sign and the
    extreme chosen so that the exponent is at most zero, floors at
    ``EPS`` and renormalizes.  The step s halves until the value does not
    get worse and doubles after each accepted step.  Returns (blocks,
    value, residual, iterations); the residual is the last relative
    change of the value, or 0 when no step size was accepted.
    """
    blocks = [_floor_rows(np.asarray(b, dtype=np.float64)) for b in blocks]
    sign = 1.0 if maximize else -1.0
    f = objective(blocks)
    step = step_init
    resid = 1.0
    hits = 0
    it = 0
    for it in range(1, max_iters + 1):
        if maximize:
            shifted = [g - g.max(axis=-1, keepdims=g.ndim > 1) for g in grad(blocks)]
        else:
            shifted = [g - g.min(axis=-1, keepdims=g.ndim > 1) for g in grad(blocks)]
        s = step
        accepted = False
        for _ in range(80):
            cand = [_floor_rows(b * np.exp((sign * s) * g)) for b, g in zip(blocks, shifted)]
            fc = objective(cand)
            if sign * (fc - f) >= 0.0:
                accepted = True
                break
            s *= 0.5
            if s < _MIN_STEP:
                break
        if not accepted:
            resid = 0.0
            break
        rel = abs(fc - f) / max(1.0, abs(fc))
        blocks, f = cand, fc
        step = min(s * 2.0, _MAX_STEP)
        resid = rel
        if rel < tol:
            hits += 1
            if hits >= _HITS_TO_CONVERGE:
                break
        else:
            hits = 0
    return blocks, f, resid, it


def tsallis_eg(w, beta, use_log, r0, maximize, tol, max_iters, step_init):
    """Optimize f(r) = sum_x w[x] r[x]^beta (or sum w log r) over one simplex.

    Returns (r, f, residual, iterations).
    """
    if use_log:
        def objective(b):
            return float((w * np.log(b[0])).sum())

        def grad(b):
            return [w / b[0]]
    else:
        def objective(b):
            return float((w * b[0] ** beta).sum())

        def grad(b):
            return [beta * w * b[0] ** (beta - 1.0)]

    (r,), f, resid, it = eg(objective, grad, [r0], maximize, tol, max_iters, step_init)
    return r, f, resid, it


def power_eg(pi, alpha, r0, maximize, tol, max_iters, step_init):
    """Optimize the expected power score sum_x pi[x] f_pw(x, r) over one simplex."""
    def objective(b):
        r = b[0]
        return float(alpha * (pi * r ** (alpha - 1.0)).sum() + (1.0 - alpha) * (r ** alpha).sum())

    def grad(b):
        r = b[0]
        return [alpha * (alpha - 1.0) * (pi * r ** (alpha - 2.0) - r ** (alpha - 1.0))]

    (r,), f, resid, it = eg(objective, grad, [r0], maximize, tol, max_iters, step_init)
    return r, f, resid, it


def ac_eg(p, W, beta, R0, maximize, tol, max_iters, step_init):
    """Optimize Phi(R) = sum_x p[x] log(sum_y W[x,y] R[y,x]^beta) over a
    family of simplices (rows of R, one per y)."""
    def objective(b):
        S = np.einsum("xy,yx->x", W, b[0] ** beta)
        return float((p * np.log(S)).sum())

    def grad(b):
        R = b[0]
        S = np.einsum("xy,yx->x", W, R ** beta)
        return [beta * (p / S)[None, :] * W.T * R ** (beta - 1.0)]

    (R,), f, resid, it = eg(objective, grad, [R0], maximize, tol, max_iters, step_init)
    return R, f, resid, it


def lp_eg(pt, W, beta, qt, R0, maximize, tol, max_iters, step_init):
    """Optimize log G(R), G = sum_x pt[x] (sum_y W[x,y] R[y,x]^beta)^qt,
    over the family of per-observation simplices."""
    def objective(b):
        S = np.einsum("xy,yx->x", W, b[0] ** beta)
        return float(np.log((pt * S ** qt).sum()))

    def grad(b):
        R = b[0]
        S = np.einsum("xy,yx->x", W, R ** beta)
        G_tot = (pt * S ** qt).sum()
        coeff = pt * qt * S ** (qt - 1.0) / G_tot
        return [beta * coeff[None, :] * W.T * R ** (beta - 1.0)]

    (R,), f, resid, it = eg(objective, grad, [R0], maximize, tol, max_iters, step_init)
    return R, f, resid, it


def augustin_solve(p, Wa, alpha, q0, tol, max_iters, damp):
    """Fixed-point iteration for the minimizing output distribution.

    Wa is the channel raised elementwise to alpha.  Returns
    (q, residual, iterations, status) with status 0 = converged,
    1 = plateau (residual stopped improving for 500 iterations),
    2 = budget exhausted.
    """
    q = np.maximum(np.asarray(q0, dtype=np.float64).copy(), EPS)
    q /= q.sum()
    best_resid = np.inf
    stall = 0
    resid = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        t = Wa * q[None, :] ** (1.0 - alpha)
        u = t / t.sum(axis=1, keepdims=True)
        qn = p @ u
        if damp > 0.0:
            qn = (1.0 - damp) * qn + damp * q
        qn = np.maximum(qn, EPS)
        qn /= qn.sum()
        resid = float(np.abs(qn - q).max())
        q = qn
        if resid < tol:
            return q, resid, it, 0
        if resid < best_resid * (1.0 - 1e-12):
            best_resid = resid
            stall = 0
        else:
            stall += 1
            if stall >= 500:
                return q, resid, it, 1
    return q, resid, it, 2


def lp_alternating_solve(Pa, alpha, qx0, qy0, tol, max_iters):
    """Alternating exact coordinate minimization over product distributions.

    Pa is the joint raised elementwise to alpha.  The output-side factor
    is updated first.  Returns (qx, qy, value, residual, iterations,
    status) with status 0 = converged, 2 = budget exhausted.
    """
    qx = np.maximum(np.asarray(qx0, dtype=np.float64).copy(), EPS)
    qx /= qx.sum()
    qy = np.maximum(np.asarray(qy0, dtype=np.float64).copy(), EPS)
    qy /= qy.sum()
    inv = 1.0 / (alpha - 1.0)
    value = inv * np.log(float(qx ** (1.0 - alpha) @ Pa @ qy ** (1.0 - alpha)))
    resid = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        B = qx ** (1.0 - alpha) @ Pa
        qy = np.maximum(B ** (1.0 / alpha), EPS)
        qy /= qy.sum()
        C = Pa @ qy ** (1.0 - alpha)
        qx = np.maximum(C ** (1.0 / alpha), EPS)
        qx /= qx.sum()
        new = inv * np.log(float(qx ** (1.0 - alpha) @ Pa @ qy ** (1.0 - alpha)))
        resid = abs(new - value) / max(1.0, abs(new))
        value = new
        if resid < tol:
            return qx, qy, value, resid, it, 0
    return qx, qy, value, resid, it, 2
