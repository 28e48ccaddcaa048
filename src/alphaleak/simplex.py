"""Finite-distribution algebra: pmfs, channels, joints, decision rules.

All values are immutable after construction (arrays are marked
read-only), so they can be shared freely across threads.  Labels are
opaque strings used only at the I/O boundary; every computation is
index-based.

Zero handling convention: ``0**beta == 0`` for every ``beta > 0``, so
tilting never resurrects a zero-probability symbol, and posteriors are
simply absent for zero-mass observations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidOrder,
    NegativeWeight,
    NotNormalized,
    ValidationError,
    ZeroTotal,
)

SUM_ATOL = 1e-9
INTERNAL_ATOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=256)
def _default_labels(prefix: str, n: int) -> tuple[str, ...]:
    # one shared tuple per (prefix, n): tuples of strings are immutable
    return tuple(f"{prefix}{i}" for i in range(n))


def _check_finite(a: np.ndarray, what: str):
    """Raise for a NaN or infinite entry (a NaN passes every sum check)."""
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has a non-finite entry")


def _check_rows(m: np.ndarray, what: str):
    """Raise for the first row of the C-contiguous ``m`` with a negative
    entry or a sum off one (each row summed as it is alone); a row with a
    NaN or infinite entry raises ``ValidationError``."""
    negative = (m < 0.0).any(axis=1)
    sums = m.sum(axis=1)
    bad = negative | ~(np.abs(sums - 1.0) <= SUM_ATOL)
    if bad.any():
        i = int(bad.argmax())
        if negative[i]:
            raise NegativeWeight(f"negative entry in {what} row {i}")
        _check_finite(m[i], f"{what} row {i}")
        raise NotNormalized(f"{what} row {i} sums to {float(sums[i])!r}")


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over a finite labelled alphabet."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValidationError("probs must be a nonempty vector")
        if len(self.labels) != probs.size:
            raise DimensionMismatch(
                f"{len(self.labels)} labels for {probs.size} probabilities"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("labels must be distinct")
        if np.any(probs < 0.0):
            raise NegativeWeight(f"negative entry in {probs!r}")
        total = float(probs.sum())
        if not abs(total - 1.0) <= SUM_ATOL:  # a NaN total fails too
            _check_finite(probs, "probs")
            raise NotNormalized(f"probabilities sum to {total!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "probs", _readonly(probs))

    @property
    def n(self) -> int:
        return self.probs.size

    def __len__(self) -> int:
        return self.probs.size

    def prob(self, label: str) -> float:
        return float(self.probs[self.labels.index(label)])

    def as_array(self) -> np.ndarray:
        return self.probs

    def support(self) -> np.ndarray:
        """Indices of symbols with positive mass."""
        return np.flatnonzero(self.probs > 0.0)


def make_pmf(weights, renormalize: bool = False, labels=None) -> Pmf:
    """Build a Pmf from nonnegative weights.

    With ``renormalize`` the weights are scaled by their total; otherwise
    they must already sum to one within 1e-9.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a nonempty vector")
    _check_finite(w, "weights")
    if np.any(w < 0.0):
        raise NegativeWeight(f"negative weight in {w!r}")
    total = float(w.sum())
    if total <= 0.0:
        raise ZeroTotal("weights sum to zero")
    if renormalize:
        w = w / total
    elif abs(total - 1.0) > SUM_ATOL:
        raise NotNormalized(f"weights sum to {total!r}; pass renormalize=True")
    if labels is None:
        labels = _default_labels("x", w.size)
    return Pmf(tuple(labels), w)


def uniform_pmf(n: int, labels=None) -> Pmf:
    return make_pmf(np.full(n, 1.0 / n), renormalize=True, labels=labels)


def tilt(p: Pmf, beta: float) -> Pmf:
    """Exponential tilt: result(x) proportional to p(x)**beta.

    Computed in log space; zero entries stay zero.
    """
    if not (beta > 0.0) or not np.isfinite(beta):
        raise InvalidOrder(f"tilt exponent must be positive, got {beta!r}")
    probs = p.probs
    out = np.zeros_like(probs)
    mask = probs > 0.0
    lw = beta * np.log(probs[mask])
    lw -= lw.max()
    w = np.exp(lw)
    out[mask] = w / w.sum()
    return Pmf(p.labels, out)


def _log0(a):
    """log a, -inf (silently) on a zero entry."""
    with np.errstate(divide="ignore"):
        return np.log(a)


def _logsumexp(a: np.ndarray, axis: int = -1, finite: bool = False):
    """log sum exp along ``axis``, shifted by the maximum (an infinite or
    NaN maximum is returned as is, unless ``finite`` says there is none): a
    float for a vector, one value per row of a stack, which if C-contiguous
    gives each row its lone value."""
    m = a.max(axis=axis, keepdims=True)
    if finite:
        return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)
    m[~np.isfinite(m)] = 0.0  # then the sum itself is 0, inf or NaN
    with np.errstate(divide="ignore", over="ignore"):
        out = np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)
    return float(out) if out.ndim == 0 else out


def p_norm(p: Pmf, beta: float) -> float:
    """(sum_x p(x)**beta)**(1/beta), computed in log space."""
    if not (beta > 0.0) or not np.isfinite(beta):
        raise InvalidOrder(f"norm order must be positive, got {beta!r}")
    probs = p.probs[p.probs > 0.0]
    return float(np.exp(_logsumexp(beta * np.log(probs)) / beta))


@dataclass(frozen=True)
class Channel:
    """Row-stochastic kernel from X to Y."""

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValidationError("channel matrix must be two-dimensional")
        if m.shape != (len(self.x_labels), len(self.y_labels)):
            raise DimensionMismatch(
                f"matrix shape {m.shape} vs labels ({len(self.x_labels)}, {len(self.y_labels)})"
            )
        _check_rows(m, "channel")
        object.__setattr__(self, "x_labels", tuple(self.x_labels))
        object.__setattr__(self, "y_labels", tuple(self.y_labels))
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def n_x(self) -> int:
        return len(self.x_labels)

    @property
    def n_y(self) -> int:
        return len(self.y_labels)

    def row(self, x: int) -> Pmf:
        return Pmf(self.y_labels, self.matrix[x])


def make_channel(rows, x_labels=None, y_labels=None, renormalize: bool = False) -> Channel:
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim != 2:
        raise ValidationError("channel rows must form a matrix")
    _check_finite(m, "channel")
    if renormalize:
        totals = m.sum(axis=1, keepdims=True)
        if np.any(totals <= 0.0):
            raise ZeroTotal("channel row sums to zero")
        m = m / totals
    if x_labels is None:
        x_labels = _default_labels("x", m.shape[0])
    if y_labels is None:
        y_labels = _default_labels("y", m.shape[1])
    return Channel(tuple(x_labels), tuple(y_labels), m)


class JointDist:
    """Joint distribution with cached marginals and posterior family.

    Posteriors are defined only for observations with positive marginal
    mass; ``posterior(y)`` returns ``None`` elsewhere and downstream sums
    skip those observations.
    """

    def __init__(self, matrix, x_labels=None, y_labels=None):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValidationError("joint matrix must be two-dimensional")
        if (m < 0.0).any():
            raise NegativeWeight("negative entry in joint matrix")
        total = float(m.sum())
        if not abs(total - 1.0) <= SUM_ATOL:  # a NaN total fails too
            _check_finite(m, "joint matrix")
            raise NotNormalized(f"joint mass sums to {total!r}")
        self._build(m, x_labels, y_labels)

    @classmethod
    def _of_checked(cls, m, x_labels, y_labels):
        """The joint of a checked pmf and channel, whose total is not checked
        again: each factor sums to one within SUM_ATOL, so their product may
        be off by about twice that (the prior [0.5000000007, 0.5] and the
        rows [0.3000000007, 0.7], [0.6000000007, 0.4] give 1.0000000014)."""
        joint = cls.__new__(cls)
        joint._build(m, x_labels, y_labels)
        return joint

    def _build(self, m, x_labels, y_labels):
        n_x, n_y = m.shape
        self.x_labels = tuple(x_labels) if x_labels is not None else _default_labels("x", n_x)
        self.y_labels = tuple(y_labels) if y_labels is not None else _default_labels("y", n_y)
        if len(self.x_labels) != n_x or len(self.y_labels) != n_y:
            raise DimensionMismatch("labels do not match joint matrix shape")
        self.matrix = _readonly(m)
        self.p_x = _readonly(m.sum(axis=1))
        self.p_y = p_y = _readonly(m.sum(axis=0))
        self.y_support = y_support = p_y > 0.0
        y_support.setflags(write=False)
        # a zero-mass observation's row stays 0, and its sum plus 1 passes the
        # check and divides it by 1; every other row is summed as it is alone
        post = np.divide(m.T, p_y[:, None], out=np.zeros((n_y, n_x)), where=y_support[:, None])
        s = post.sum(axis=1) + ~y_support
        bad = np.abs(s - 1.0) > SUM_ATOL
        if bad.any():
            y = int(bad.argmax())
            raise ValidationError(f"posterior for observation {y} sums to {float(s[y])!r}")
        post /= s[:, None]
        post.setflags(write=False)
        self.posteriors = post

    @property
    def n_x(self) -> int:
        return len(self.x_labels)

    @property
    def n_y(self) -> int:
        return len(self.y_labels)

    def marginal_x(self) -> Pmf:
        return make_pmf(self.p_x, renormalize=True, labels=self.x_labels)

    def marginal_y(self) -> Pmf:
        return make_pmf(self.p_y, renormalize=True, labels=self.y_labels)

    def posterior(self, y: int) -> Pmf | None:
        if not self.y_support[y]:
            return None
        return Pmf(self.x_labels, self.posteriors[y])

    def decompose(self) -> tuple[Pmf, Channel]:
        """Recover (p_X, channel); rows for zero-mass x default to uniform."""
        n_x, n_y = self.matrix.shape
        rows = np.full((n_x, n_y), 1.0 / n_y)
        for x in np.flatnonzero(self.p_x > 0.0):
            rows[x] = self.matrix[x] / self.p_x[x]
            rows[x] /= rows[x].sum()
        return (
            make_pmf(self.p_x, renormalize=True, labels=self.x_labels),
            Channel(self.x_labels, self.y_labels, rows),
        )


def compose_joint(p: Pmf, W: Channel) -> JointDist:
    """Joint distribution p(x) * W(y|x)."""
    if p.labels != W.x_labels:
        raise DimensionMismatch(
            f"prior labels {p.labels} do not match channel input labels {W.x_labels}"
        )
    return JointDist._of_checked(p.probs[:, None] * W.matrix, p.labels, W.y_labels)


def joint_from_matrix(matrix, x_labels=None, y_labels=None) -> JointDist:
    m = np.asarray(matrix, dtype=np.float64)
    _check_finite(m, "joint matrix")
    return JointDist(m, x_labels, y_labels)


@dataclass(frozen=True)
class DecisionRule:
    """One distribution over X per observation y (the adversary's rule)."""

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    matrix: np.ndarray  # shape (n_y, n_x); row y is the action taken at y

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape != (len(self.y_labels), len(self.x_labels)):
            raise DimensionMismatch(
                f"rule matrix shape {m.shape} vs ({len(self.y_labels)}, {len(self.x_labels)})"
            )
        _check_rows(m, "rule")
        object.__setattr__(self, "x_labels", tuple(self.x_labels))
        object.__setattr__(self, "y_labels", tuple(self.y_labels))
        object.__setattr__(self, "matrix", _readonly(m))

    def action(self, y: int) -> Pmf:
        return Pmf(self.x_labels, self.matrix[y])


def constant_rule(action: Pmf, y_labels) -> DecisionRule:
    """Rule that plays the same action at every observation."""
    m = np.tile(action.probs, (len(tuple(y_labels)), 1))
    return DecisionRule(action.labels, tuple(y_labels), m)
