"""Simplex optimization engines.

Four engines, in increasing order of specialization:

* ``simplex_grid`` + the ``oracle_*`` scanners: exhaustive, used as
  brute-force oracles for everything else; a grid is built in numpy,
  one leading part at a time, on every call and is not cached; the
  scanners take a stacked objective and its per-problem data as
  ``_kernels.eg`` takes them and score it as it is, one bounded chunk of
  points or rules at a time (``_scan_chunks``);
* ``eg_optimize``: generic exponentiated-gradient (multiplicative
  weights with a backtracking line search that accepts a step only on
  Armijo's sufficient decrease, Armijo 1966) over a product of simplices,
  gradient supplied or estimated by central differences in log space;
  all restarts run as the rows of one stack of the library's one EG
  loop, ``_kernels.eg``.  Every objective of the library is stacked
  (``_Stacked``): it evaluates the whole stack at once, with
  ``_fd_grad_stack`` where it has no analytic gradient; only a user
  objective is evaluated row by row (``_rowwise``, ``_fd_grad``).
  Every EG route of the library reads its stack through one rule,
  ``_best_rows``: per problem the best row wins, and a problem none of
  whose rows reached the tolerance raises ``ConvergenceFailure``.
  The convex programs of ``renyi.alpha_mi`` (Sibson, Augustin-Csiszar,
  Lapidoth-Pfister) have no spurious local optimum and call it with one
  restart, from their marginal start, whatever ``cfg.restarts`` says
  (van Erven & Harremoes, IEEE Trans. IT 60(7), 2014, Thm. 12; for
  Lapidoth-Pfister, joint convexity of each term above order 1 and
  joint concavity on (1/2, 1));
* ``augustin_fixed_point``: the fixed-point iteration for the
  minimizing output distribution of the expected-divergence objective,
  damped for orders above one, with a one-start EG fallback when it
  plateaus (convergence of the undamped iteration is not guaranteed
  there, the fallback is the guarantee).  That objective, summed row by
  row, is also Sibson's program, as its one-input case, the row
  p W^alpha (Csiszar, IEEE Trans. IT 41(1), 1995);
* ``lp_alternating``: exact alternating coordinate minimization over
  product distributions, output side first, value nonincreasing.

Identical config (including seed) gives bit-identical results; restart
initializations are drawn from a generator seeded per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._kernels import _Stacked
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidOrder,
    NumericalInconsistency,
    OracleTooLarge,
    ValidationError,
)
from .simplex import Channel, JointDist, Pmf, _log0, _logsumexp, make_pmf

GRID_POINT_BUDGET = 10_000_000
ORACLE_MAX_ALPHABET = 4
_RULE_CHUNK = 4096  # rule combinations scored per objective call
_GRID_CHUNK = 1 << 14  # rows of (problem, grid point) pairs scored per objective call


@dataclass(frozen=True)
class OptimizerConfig:
    tolerance: float = 1e-10
    max_iters: int = 100_000
    restarts: int = 10
    seed: int = 0
    grid_resolution: float = 5e-3

    def __post_init__(self):
        if not (self.tolerance > 0.0):
            raise ValidationError("tolerance must be positive")
        if not (0.0 < self.grid_resolution <= 0.5):
            raise ValidationError("grid resolution must lie in (0, 0.5]")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if self.restarts < 1:
            raise ValidationError("restarts must be at least 1")

    def with_(self, **kw) -> "OptimizerConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = OptimizerConfig()


# ----------------------------------------------------------------------
# grid oracle
# ----------------------------------------------------------------------

def _compositions(n: int, k: int) -> np.ndarray:
    """All length-n nonnegative integer vectors summing to k, lex order.

    Built one leading part at a time: a row with remainder ``rem`` has
    children whose next part runs 0..rem in order, so repeating every
    row ``rem + 1`` times and counting up within each run keeps the rows
    in lexicographic order; the last part is what remains.  The array is
    column-major, so that an objective's sums over the short last axis
    run as adds of whole columns (the same bits, in a fraction of the time).
    """
    rem = np.array([k], dtype=np.int64)
    cols = []
    for _ in range(n - 1):
        counts = rem + 1
        parent = np.repeat(np.arange(rem.size), counts)
        part = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = [c[parent] for c in cols] + [part]
        rem = rem[parent] - part
    return np.array(cols + [rem]).T


def simplex_grid(n: int, resolution: float) -> np.ndarray:
    """All grid points of the (n-1)-simplex at the given resolution.

    Rows are probability vectors (compositions of 1/resolution scaled
    back), emitted once each in deterministic lexicographic order.
    """
    if n < 2:
        raise ValidationError("simplex grid needs at least two symbols")
    k = int(round(1.0 / resolution))
    if abs(k * resolution - 1.0) > 1e-12:
        raise ValidationError(f"resolution {resolution!r} does not divide 1")
    count = math.comb(k + n - 1, n - 1)
    if count > GRID_POINT_BUDGET:
        raise OracleTooLarge(f"{count} grid points exceed budget {GRID_POINT_BUDGET}")
    return _compositions(n, k) / k


def _check_oracle_alphabet(*sizes: int):
    for s in sizes:
        if s > ORACLE_MAX_ALPHABET:
            raise OracleTooLarge(
                f"oracle method is restricted to alphabets of size <= {ORACLE_MAX_ALPHABET}"
            )


def oracle_scan(values: np.ndarray, maximize: bool):
    """Best index and value along the last axis, one pair per problem of
    a (k, m) stack of values; ties break to the lowest index.  A NaN score
    raises: ``argmax``/``argmin`` would return it as the best."""
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise NumericalInconsistency(
            f"oracle objective is NaN at {int(np.isnan(values).sum())} grid points")
    idx = np.argmax(values, axis=-1) if maximize else np.argmin(values, axis=-1)
    val = np.take_along_axis(values, idx[..., None], axis=-1)[..., 0]
    return (int(idx), float(val)) if values.ndim == 1 else (idx, val)


def _scan_chunks(score, total: int, chunk: int, maximize: bool):
    """``oracle_scan`` of indices 0..total-1, scored ``chunk`` at a time:
    ``score(start, stop)`` gives the values of indices start..stop-1, a
    vector or a (k, stop - start) stack of k problems.  Per problem, ties
    break to the lowest index.  A score is taken as it is: a division by
    zero (the -inf log of a boundary point) is silent."""
    with np.errstate(divide="ignore"):
        idx, val = oracle_scan(score(0, min(chunk, total)), maximize)
        for start in range(chunk, total, chunk):
            i, v = oracle_scan(score(start, min(start + chunk, total)), maximize)
            better = (v > val) if maximize else (v < val)
            idx, val = np.where(better, i + start, idx), np.where(better, v, val)
    return (int(idx), float(val)) if np.ndim(val) == 0 else (idx, val)


def oracle_optimize_single(objective, n: int, maximize: bool,
                           cfg: OptimizerConfig = DEFAULT_CONFIG, data=None, rows=1) -> tuple:
    """Exhaustive scan of one simplex with a stacked objective as
    ``_kernels.eg`` takes it, ``objective([points], data)`` giving (values,
    cache).  ``data`` is None, the data row of one problem, or a (k, ...)
    stack of the rows of k problems that share the grid, each with its own
    best point and value; every row is scored against every point.  Each
    call holds at most ``_GRID_CHUNK`` (problem, point) pairs, times
    ``rows`` where the objective holds that many per pair (its inputs)."""
    _check_oracle_alphabet(n)
    grid = simplex_grid(n, cfg.grid_resolution)
    per_problem = np.ndim(data) >= 2
    problems = len(data) if per_problem else 1
    if per_problem:
        data = np.asarray(data)[:, None]  # the grid axis, after the problem axis

    def score(start, stop):
        return objective([grid[start:stop]], data)[0]

    idx, val = _scan_chunks(score, grid.shape[0], max(1, _GRID_CHUNK // (problems * rows)),
                            maximize)
    return grid[idx].copy(), val


def oracle_optimize_rule(objective, n_x: int, n_y: int, maximize: bool,
                         cfg: OptimizerConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, float]:
    """Exhaustive scan over the product of n_y simplices of size n_x with a
    stacked objective as ``_kernels.eg`` takes it, without data:
    ``objective([rules], None)`` scores a (b <= ``_RULE_CHUNK``, n_y, n_x)
    stack of rules."""
    _check_oracle_alphabet(n_x, n_y)
    grid = simplex_grid(n_x, cfg.grid_resolution)
    m = grid.shape[0]
    total = m ** n_y
    if total > GRID_POINT_BUDGET:
        raise OracleTooLarge(
            f"{total} rule combinations exceed budget {GRID_POINT_BUDGET}; "
            "use a coarser grid resolution"
        )
    powers = m ** np.arange(n_y - 1, -1, -1, dtype=np.int64)

    def score(start, stop):
        flat = np.arange(start, stop, dtype=np.int64)
        # lex order over tuples
        return objective([grid[(flat[:, None] // powers[None, :]) % m]], None)[0]

    best, val = _scan_chunks(score, total, _RULE_CHUNK, maximize)
    return grid[(best // powers) % m].copy(), val


# ----------------------------------------------------------------------
# generic exponentiated gradient
# ----------------------------------------------------------------------

@dataclass
class EgResult:
    point: list[np.ndarray]
    value: float
    residual: float
    iterations: int
    converged: bool


def _fd_grad_stack(objective, b: np.ndarray, delta: float = 1e-6) -> np.ndarray:
    """Central differences of ``objective`` at ``b``, a point or an
    (m, n) stack of points, along multiplicative perturbations (which
    keep every point positive).

    All 2n perturbed points of every row go through ``objective``
    as one (m * 2n, n) stack: per row, points 0..n-1 scale one
    coordinate up by exp(delta), points n..2n-1 scale it down.
    """
    B = np.atleast_2d(b)
    m, n = B.shape
    diag = np.arange(n)
    stack = np.repeat(B[:, None, :], 2 * n, axis=1)
    stack[:, diag, diag] = B * math.exp(delta)
    stack[:, n + diag, diag] = B * math.exp(-delta)
    vals = np.asarray(objective(stack.reshape(m * 2 * n, n)), dtype=np.float64)
    vals = vals.reshape(m, 2 * n)
    g = (vals[:, :n] - vals[:, n:]) / (B * (math.exp(delta) - math.exp(-delta)))
    return g.reshape(np.shape(b))


def _fd_grad(objective, blocks: list[np.ndarray], delta: float = 1e-6) -> list[np.ndarray]:
    """``_fd_grad_stack`` per block, for an objective of one point per block."""
    grads = []
    for bi, b in enumerate(blocks):
        def batch(stack, bi=bi):
            return [objective(blocks[:bi] + [row] + blocks[bi + 1:]) for row in stack]
        grads.append(_fd_grad_stack(batch, b, delta))
    return grads


def _rowwise(objective, grad) -> _Stacked:
    """A one-point objective and gradient (central differences when
    ``grad`` is None), evaluated row by row over a stack.  The rows that a
    line-search retry of ``_kernels.eg`` passes again at the point of the
    previous call keep that call's value, so each point is evaluated once,
    as for a row alone."""
    grad = grad or (lambda blocks: _fd_grad(objective, blocks))
    previous = {}

    def stacked_objective(blocks, data):
        nonlocal previous
        points = [[b[i] for b in blocks] for i in range(len(blocks[0]))]
        keys = [b"".join(x.tobytes() for x in point) for point in points]
        previous = {k: previous[k] if k in previous else objective(point)
                    for k, point in zip(keys, points)}
        return np.array([previous[k] for k in keys]), None

    def stacked_grad(blocks, cache, data):
        per_row = [grad([b[i] for b in blocks]) for i in range(len(blocks[0]))]
        return [np.stack(g) for g in zip(*per_row)]

    return _Stacked(stacked_objective, stacked_grad)


def _eg_run(stacked: _Stacked, blocks, maximize, tol, max_iters, data=None):
    """``_kernels.eg`` of a stacked objective on a list of blocks whose
    leading axis is the stack (row i of every block is one start), with
    per-row ``data``; returns what ``_kernels.eg`` returns."""
    return _kernels.eg(stacked.objective, stacked.grad, blocks, maximize, tol, max_iters, data)


def _best_rows(values, resids, problems: int, maximize: bool, cfg: OptimizerConfig):
    """Index of the best row of each of ``problems`` problems in an EG stack
    whose row j * problems + i runs start j of problem i; a later row must
    be strictly better.  Raises ``ConvergenceFailure`` for a problem none of
    whose rows reached the tolerance."""
    best = []
    for i in range(problems):
        b = i
        for j in range(i + problems, len(values), problems):
            if (values[j] > values[b]) if maximize else (values[j] < values[b]):
                b = j
        if not np.any(resids[i::problems] <= cfg.tolerance):
            raise ConvergenceFailure(
                f"no EG restart reached residual {cfg.tolerance:g} "
                f"within {cfg.max_iters} iterations (best residual {resids[b]:g})")
        best.append(b)
    return best


def eg_optimize(objective, shape, sense: str, cfg: OptimizerConfig = DEFAULT_CONFIG,
                grad=None, inits=None) -> EgResult:
    """Exponentiated-gradient optimization over a product of simplices.

    ``objective(list_of_blocks) -> float`` maps one point per simplex in
    ``shape`` to a value; ``grad``, when given, returns one gradient
    array per block.  The first restart starts from ``inits`` (one vector
    per block, of the block's size; ``ValidationError`` otherwise) or
    uniform, the rest from seeded Dirichlet draws; all restarts run as
    one stack of ``_kernels.eg``, the objective evaluated row by row
    (the library's own objectives come stacked, as ``_Stacked``); the
    best run wins, and ``ConvergenceFailure`` is raised when no run
    reached the tolerance.  The objective sequence is monotone in
    the optimization sense within every run.
    """
    if sense not in ("max", "min"):
        raise ValidationError(f"sense must be 'max' or 'min', got {sense!r}")
    maximize = sense == "max"
    stacked = objective if isinstance(objective, _Stacked) else _rowwise(objective, grad)
    rng = np.random.default_rng(cfg.seed)
    if inits is not None and [np.shape(b) for b in inits] != [(n,) for n in shape]:
        raise ValidationError(f"inits must hold one vector per block of shape {list(shape)}, "
                              f"got shapes {[np.shape(b) for b in inits]}")
    first = inits if inits is not None else [np.full(n, 1.0 / n) for n in shape]
    draws = [[rng.dirichlet(np.ones(n)) for n in shape] for _ in range(cfg.restarts - 1)]
    blocks, values, resids, _, iters = _eg_run(
        stacked, [np.stack(col) for col in zip(first, *draws)], maximize, cfg.tolerance,
        cfg.max_iters)
    (i,) = _best_rows(values, resids, 1, maximize, cfg)
    return EgResult(point=[b[i] for b in blocks], value=float(values[i]),
                    residual=float(resids[i]), iterations=int(iters[i]),
                    converged=bool(resids[i] <= cfg.tolerance))


# ----------------------------------------------------------------------
# Augustin fixed point
# ----------------------------------------------------------------------

@dataclass
class AugustinResult:
    q_y: Pmf
    value: float
    engine: str
    residual: float
    iterations: int


def _expected_divergence_eg(p: np.ndarray, La: np.ndarray, alpha: float) -> _Stacked:
    """sum_x p(x) LSE_y(La[x, y] + (1 - alpha) log q(y)) / (alpha - 1) per row
    of a stack of points q, La = alpha log W (-inf on a zero), and its gradient
    -sum_x p(x) w_x(y) / q(y), w_x the softmax weights of input x; Sibson's
    program is its one-input case, (1, log(p W^alpha)).  A zero-mass input
    adds exactly 0, and each (point, input) row is summed as it is alone."""
    def objective(blocks, data):
        A = La + (1.0 - alpha) * _kernels._log_floored(blocks[0])[:, None, :]
        log_S = _logsumexp(A, finite=True)
        A -= log_S[..., None]  # the log softmax weights, for the gradient
        return (p * log_S).sum(axis=-1) / (alpha - 1.0), A

    def grad(blocks, log_w, data):
        return [-np.einsum("x,mxy->my", p, np.exp(log_w)) / blocks[0]]

    return _Stacked(objective, grad)


def _check_finite_output(q: np.ndarray, what: str, alpha: float):
    """Raise ``NumericalInconsistency`` for a solver output with a NaN or
    infinite entry, before ``make_pmf`` would read it as invalid input."""
    if not np.isfinite(q).all():
        raise NumericalInconsistency(f"the {what} at order {alpha} is not finite")


def augustin_fixed_point(p: Pmf, W: Channel, alpha: float,
                         cfg: OptimizerConfig = DEFAULT_CONFIG) -> AugustinResult:
    """Minimizing output distribution of the expected divergence of order alpha.

    Iterates the self-consistency map T from the output marginal, damped
    for alpha > 1 by arithmetic mixing, ``q <- 0.5 T(q) + 0.5 q`` (then
    renormalized); hands off to ``eg_optimize`` on the convex objective
    if the iteration plateaus, and reports which engine produced the
    result.
    """
    if p.labels != W.x_labels:
        raise DimensionMismatch("prior labels do not match channel input labels")
    if not (alpha > 0.0) or not np.isfinite(alpha):
        raise InvalidOrder(f"alpha must be positive and finite, got {alpha!r}")
    p_y = p.probs @ W.matrix
    if abs(alpha - 1.0) <= 1e-8:
        # expected KL is minimized by the output marginal
        mask = W.matrix > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            logratio = np.where(mask, np.log(W.matrix / np.maximum(p_y[None, :], 1e-300)), 0.0)
        value = float((p.probs[:, None] * W.matrix * logratio).sum())
        return AugustinResult(q_y=make_pmf(p_y, renormalize=True, labels=W.y_labels),
                              value=value, engine="marginal", residual=0.0, iterations=0)
    Wa = W.matrix ** alpha
    damp = 0.5 if alpha > 1.0 else 0.0
    q, resid, iters, status = _kernels.augustin_solve(
        p.probs, Wa, alpha, p_y, cfg.tolerance, cfg.max_iters, damp
    )
    engine = "fixed_point"
    stacked = _expected_divergence_eg(p.probs, alpha * _log0(W.matrix), alpha)
    if status != 0:
        # plateau or exhausted budget: polish with one EG start, as the optimize route
        eg = eg_optimize(stacked, [W.n_y], "min", cfg.with_(restarts=1), inits=[q])
        q, resid = eg.point[0], eg.residual
        engine = "fixed_point+eg"
    _check_finite_output(q, "output distribution of the Augustin solve", alpha)
    value = float(stacked.objective([q[None]], None)[0][0])
    return AugustinResult(
        q_y=make_pmf(q, renormalize=True, labels=W.y_labels),
        value=value, engine=engine, residual=float(resid), iterations=int(iters),
    )


# ----------------------------------------------------------------------
# alternating minimization over product distributions
# ----------------------------------------------------------------------

@dataclass
class LpResult:
    q_x: Pmf
    q_y: Pmf
    value: float
    residual: float
    iterations: int


def lp_alternating(joint: JointDist, alpha: float,
                   cfg: OptimizerConfig = DEFAULT_CONFIG) -> LpResult:
    """Minimize the order-alpha divergence to a product distribution.

    Coordinate updates use the same closed-form family as the minimizing
    output distribution (exact coordinate minimizers), so the value
    sequence is nonincreasing.  The reported pair is the one reached
    from the deterministic marginal initialization; the value, not the
    pair, is the contract (the minimizer may be non-unique).
    """
    if not (alpha > 0.5) or abs(alpha - 1.0) <= 1e-8 or not np.isfinite(alpha):
        raise InvalidOrder(f"alpha must lie in (1/2,1) or (1,inf), got {alpha!r}")
    Pa = joint.matrix ** alpha
    qx, qy, value, resid, iters, status = _kernels.lp_alternating_solve(
        Pa, alpha, joint.p_x, joint.p_y, cfg.tolerance, cfg.max_iters
    )
    if status == 2 and not (resid <= cfg.tolerance):  # a NaN residual fails too
        raise ConvergenceFailure(
            f"alternating minimization residual {resid:g} above {cfg.tolerance:g} "
            f"after {iters} iterations"
        )
    _check_finite_output(qx, "input distribution of the alternating solve", alpha)
    _check_finite_output(qy, "output distribution of the alternating solve", alpha)
    return LpResult(
        q_x=make_pmf(qx, renormalize=True, labels=joint.x_labels),
        q_y=make_pmf(qy, renormalize=True, labels=joint.y_labels),
        value=float(value), residual=float(resid), iterations=int(iters),
    )
