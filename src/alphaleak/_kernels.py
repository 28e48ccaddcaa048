"""Numeric kernels: one exponentiated-gradient loop and two fixed-point solvers.

``eg`` is the exponentiated-gradient (multiplicative weights) update of
Kivinen & Warmuth (1997) with a backtracking line search on Armijo's
sufficient-decrease test (Armijo, Pacific J. Math. 16(1), 1966), a
doubling of the step after each accepted step, and a stop after three
consecutive iterations whose relative change of the value is below
``tol``.  A step is accepted when it improves the value by at least
``_ARMIJO`` times its first-order gain: the inner product of the
gradient with the step actually taken, summed over the row's simplices
(a coordinate the floor holds does not move, so it adds nothing).
Where that bound is below rounding, a step that does not make the value
worse is accepted, so a row at its optimum does not halve its step some
sixty times on every iteration; and where no step down to ``_MIN_STEP``
meets it (a gradient so steep that every such step saturates the update
at the same point), the row takes the largest step it tried that did
not make the value worse, and searches again from ``_STEP_INIT`` (from
a doubled fallback step of about 1e-17, three moves below ``tol`` would
read as convergence far from the optimum).  A merely "not worse" test
accepts a doubled step that overshoots the optimum to a point of almost
equal value, and the iterates then zigzag across the optimum for tens
of thousands of iterations.

``eg`` runs a stack of independent problems, one per row (restarts, or
the separate per-observation problems of a decomposable objective); each
row keeps its own step, line search and stop, so it follows the path it
would follow alone, and a single problem is a stack of one.  It is the
only EG loop in the library: the four decision-rule kernels (``tsallis_eg``,
``power_eg``, ``ac_eg``, ``lp_eg``) bind to it the objective and
gradient of their ``*_objective`` factory, take a stack of starts (and
of per-row data) and return what ``eg`` returns; ``optimize._eg_run``
binds every other stacked objective.  The grid oracles score the same
objectives, with the same data, each finite on the closed simplex by
itself.  A log of a sum of powers (``ac_objective``, ``lp_objective``,
the expected divergence, the Lapidoth-Pfister pair) is a logsumexp of
logs, -inf at a zero channel entry, a point's log taken at its floor
``_EVAL_FLOOR`` (``_log_floored``); the others floor the operand of a
negative power (``_power``) and take a zero-weight log at 1.

``augustin_solve`` is the fixed-point iteration for the minimizing output
distribution and ``lp_alternating_solve`` the alternating minimization
over product distributions.

The kernels are plain numpy, deterministic, and floor simplex iterates at
``EPS``, so that gradients over the iterate stay finite.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .simplex import _log0, _logsumexp

EPS = 1e-12
_EVAL_FLOOR = 1e-30  # floor of a grid point under a negative power or a log

_STEP_INIT = 0.5  # every row's first trial step
_MAX_STEP = 1e3
_MIN_STEP = 1e-18
_HITS_TO_CONVERGE = 3
_ARMIJO = 0.2  # share of the first-order gain an accepted step must reach


def backend() -> str:
    """Kernel backend; the kernels are numpy only."""
    return "numpy"


class _Stacked(NamedTuple):
    """An objective and its gradient over a stack of points, as ``eg``
    takes them; the grid oracles scan the same objective."""

    objective: Callable
    grad: Callable


def _power(e):
    """x ** e, x floored at ``_EVAL_FLOOR`` under a negative power (the
    identity on EG iterates, which stay above EPS / (1 + n EPS))."""
    return (lambda x: np.maximum(x, _EVAL_FLOOR) ** e) if e < 0.0 else (lambda x: x ** e)


def _log_floored(x):
    """log x, x floored at ``_EVAL_FLOOR`` (the identity on EG iterates)."""
    return np.log(np.maximum(x, _EVAL_FLOOR))


def _floor_rows(R):
    R = np.maximum(R, EPS)
    R /= np.add.reduce(R, axis=-1, keepdims=True)
    return R


def eg(objective, grad, blocks, maximize, tol, max_iters, data=None):
    """Exponentiated gradient over a stack of products of simplices.

    ``blocks`` is a list of arrays whose leading axis is the stack (row i
    of every block is problem i) and whose last axis is a simplex.
    ``objective(blocks, data)`` returns one value per row and a cache
    (None, or an array with the stack axis) that ``grad(blocks, cache,
    data)`` gets at the same point; ``grad`` returns one array per block.
    ``data`` is None or per-row problem data with the stack axis; a row
    that stops leaves the blocks, the cache and the data.  Each step
    multiplies every simplex by exp(s (g - max g)) when maximizing and
    exp(s (min g - g)) when minimizing, floors at ``EPS`` and
    renormalizes; per row, s starts at ``_STEP_INIT``, halves until the
    value improves by at least ``_ARMIJO`` times the step's first-order
    gain (when that bound is below rounding, until the value does not get
    worse; when no step down to ``_MIN_STEP`` meets it, s is the largest
    step tried that did not make the value worse, and the next search
    starts at ``_STEP_INIT``) and doubles after each other accepted step.
    Returns (blocks, values, residuals, total iterations, iterations per
    row); a residual is the last relative change of the value, or 0 when
    no step size was accepted.
    """
    blocks = [_floor_rows(np.asarray(b, dtype=np.float64)) for b in blocks]
    n = blocks[0].shape[0]
    out_blocks = [np.empty_like(b) for b in blocks]
    out_f, out_resid, out_it = [0.0] * n, [0.0] * n, [0] * n

    def retire(i, bs, value, it):
        for ob, b in zip(out_blocks, bs):
            ob[ids[i]] = b[i]
        out_f[ids[i]], out_resid[ids[i]], out_it[ids[i]] = value, resid[i], it

    def steps(values):
        # one step per row, and views of it that broadcast over each block
        s = np.array(values, dtype=np.float64)
        return s, [s.reshape((-1,) + (1,) * (b.ndim - 1)) for b in blocks]

    shift = ((lambda g: g - np.maximum.reduce(g, axis=-1, keepdims=True)) if maximize
             else (lambda g: np.minimum.reduce(g, axis=-1, keepdims=True) - g))
    sign = 1.0 if maximize else -1.0
    ids = list(range(n))  # original index of each row present
    f, cache = objective(blocks, data)
    f = f.tolist()
    # per-row values, residuals and hits as Python lists: cheaper on a few rows
    resid = [1.0] * n
    hits = [0] * n
    s, s_view = steps([_STEP_INIT] * n)
    it = 0
    for it in range(1, max_iters + 1):
        shifted = [shift(g) for g in grad(blocks, cache, data)]
        # searching rows retry with half their step; accepted rows recompute
        # the same candidate, so the last candidate holds every row's
        rows = searching = range(len(ids))
        failed = []
        # per row, the largest step tried that did not make the value worse
        fallback = [0.0] * len(ids)
        for _ in range(80):
            cand = [_floor_rows(b * np.exp(v * g)) for b, v, g in zip(blocks, s_view, shifted)]
            fc, cache_c = objective(cand, data)
            fc = fc.tolist()
            # the first-order gain of the step taken, summed over the row's
            # simplices (the shifted gradient carries the sign); a coordinate
            # the floor holds does not move, so it adds nothing
            gain = 0.0
            for c, b, g in zip(cand, blocks, shifted):
                gain = gain + np.add.reduce(((c - b) * g).reshape(len(c), -1), axis=-1)
            gain = gain.tolist()
            retry = []
            for i in searching:
                d = sign * (fc[i] - f[i])
                if d >= 0.0:
                    # below rounding, a step that does not make the value
                    # worse will do
                    need = _ARMIJO * gain[i]
                    if d >= need or need < 1e-14 * max(1.0, abs(f[i])) or s.item(i) == fallback[i]:
                        continue
                    fallback[i] = fallback[i] or s.item(i)
                s[i] *= 0.5
                if s[i] < _MIN_STEP:
                    # no step meets the bound (the gradient is so steep that
                    # every step saturates): take the largest step that did
                    # not make the value worse, if any
                    s[i] = fallback[i]
                (failed if s[i] < _MIN_STEP else retry).append(i)
            searching = retry
            if not searching:
                break
        else:
            failed += searching
        stop = []
        for i in rows:
            if failed and i in failed:
                # no acceptable step: the row stops where it was
                resid[i] = 0.0
                retire(i, blocks, f[i], it)
                stop.append(i)
                continue
            rel = resid[i] = abs(fc[i] - f[i]) / max(1.0, abs(fc[i]))
            if rel < tol:
                hits[i] += 1
                if hits[i] >= _HITS_TO_CONVERGE:
                    retire(i, cand, fc[i], it)
                    stop.append(i)
            else:
                hits[i] = 0
        # every row that goes on accepted its step: double it (in place, so
        # that the views of s follow), or after a fallback step restart it
        restart = [i for i in rows if fallback[i] and s.item(i) == fallback[i]]
        np.minimum(s * 2.0, _MAX_STEP, out=s)
        s[restart] = _STEP_INIT
        blocks, f, cache = cand, fc, cache_c
        if stop:
            keep = [i for i in rows if i not in stop]
            if not keep:
                break
            ids, f, resid, hits = ([v[i] for i in keep] for v in (ids, f, resid, hits))
            s, s_view = steps(s[keep])
            blocks = [b[keep] for b in blocks]
            cache = None if cache is None else cache[keep]
            data = None if data is None else data[keep]
    else:
        for i in range(len(ids)):
            retire(i, blocks, f[i], it)
    return out_blocks, np.array(out_f), np.array(out_resid), sum(out_it), np.array(out_it)


def tsallis_objective(beta, use_log):
    """f(r) = sum_x w[x] r[x]^beta (or sum w log r) per row of a stack of
    points, the weights w the per-row data, and its gradient.  A zero
    weight takes a log or negative power at r[x] = 1, so its term is 0
    (below beta = -10 the floored power overflows)."""
    term, masked = (np.log, True) if use_log else (_power(beta), beta < 0.0)

    def objective(b, w):
        r = np.where(w > 0.0, b[0], 1.0) if masked else b[0]
        return (w * term(r)).sum(axis=-1), None

    def grad(b, cache, w):
        return [w / b[0] if use_log else beta * w * b[0] ** (beta - 1.0)]

    return _Stacked(objective, grad)


def tsallis_eg(w, beta, use_log, r0, maximize, tol, max_iters):
    """``eg`` of ``tsallis_objective`` on an (m, n) stack of starts, row i
    weighted by row i of the (m, n) weights; returns what ``eg`` returns."""
    return eg(*tsallis_objective(beta, use_log), [r0], maximize, tol, max_iters, w)


def power_objective(alpha):
    """The expected power score sum_x pi[x] f_pw(x, r) per row of a stack
    of points, the posterior pi the per-row data, and its gradient."""
    power = _power(alpha - 1.0)

    def objective(b, pi):
        r = b[0]
        ra = power(r)
        return alpha * (pi * ra).sum(axis=-1) + (1.0 - alpha) * (r ** alpha).sum(axis=-1), ra

    def grad(b, ra, pi):
        return [alpha * (alpha - 1.0) * (pi * b[0] ** (alpha - 2.0) - ra)]

    return _Stacked(objective, grad)


def power_eg(pi, alpha, r0, maximize, tol, max_iters):
    """``eg`` of ``power_objective`` on an (m, n) stack of starts, row i
    scored against row i of the (m, n) posteriors; returns what ``eg``
    returns."""
    return eg(*power_objective(alpha), [r0], maximize, tol, max_iters, pi)


def ac_objective(p, W, beta):
    """Phi(R) = sum_x p[x] log S_x, log S_x = LSE_y(log W[x,y] + beta log R[y,x]),
    per rule of a stack of rules (rows of R are simplices, one per y), and
    its gradient, beta p[x] times the softmax weight of (y, x) over R[y, x];
    a zero channel entry drops out, and a zero-mass x adds exactly 0."""
    log_WT = np.ascontiguousarray(_log0(W.T))

    def objective(b, data):
        A = log_WT + beta * _log_floored(b[0])
        log_S = _logsumexp(A, axis=-2, finite=True)
        A -= log_S[:, None, :]  # the log softmax weights, for the gradient
        return (p * log_S).sum(axis=-1), A

    def grad(b, log_w, data):
        return [beta * p * np.exp(log_w) / b[0]]

    return _Stacked(objective, grad)


def ac_eg(p, W, beta, R0, maximize, tol, max_iters):
    """``eg`` of ``ac_objective`` on an (m, n_y, n_x) stack of rule starts,
    m restarts of one problem; returns what ``eg`` returns."""
    return eg(*ac_objective(p, W, beta), [R0], maximize, tol, max_iters)


def lp_objective(pt, W, beta, qt):
    """log G(R) = LSE_x(log pt[x] + qt log S_x) per rule of a stack of rules,
    S_x as in ``ac_objective``, and its gradient, qt beta times the softmax
    weights of x in G and of (y, x) in S_x, over R[y, x]."""
    log_WT = np.ascontiguousarray(_log0(W.T))
    log_pt = _log0(pt)

    def objective(b, data):
        A = log_WT + beta * _log_floored(b[0])
        log_S = _logsumexp(A, axis=-2, finite=True)
        T = log_pt + qt * log_S
        log_G = _logsumexp(T, finite=True)
        A += (T - log_G[:, None] - log_S)[:, None, :]  # the log weights, for the gradient
        return log_G, A

    def grad(b, log_w, data):
        return [qt * beta * np.exp(log_w) / b[0]]

    return _Stacked(objective, grad)


def lp_eg(pt, W, beta, qt, R0, maximize, tol, max_iters):
    """``eg`` of ``lp_objective`` on an (m, n_y, n_x) stack of rule starts,
    m restarts of one problem; returns what ``eg`` returns."""
    return eg(*lp_objective(pt, W, beta, qt), [R0], maximize, tol, max_iters)


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
