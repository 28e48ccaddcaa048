"""Deformed-logarithm calculus and quasi-arithmetic (KN) means.

``q_log``/``q_exp`` are the strictly increasing, mutually inverse
deformations of ``log``/``exp`` that recover the natural pair as
``q -> 1``.  Within ``|q - 1| <= 1e-8`` they are the natural pair; up
to ``|q - 1| < 1e-3`` they go through ``expm1``/``log1p``, which keep
the digits that ``x**(1-q) - 1`` and ``(1 + (1-q)x)**(1/(1-q))`` lose
there (a round trip of the power forms errs like eps / |1 - q|).

``q_log(0, q)`` is ``-1/(1-q)`` for ``q < 1`` and an explicit ``-inf``
sentinel for ``q >= 1`` so that simplex optimizers can compare boundary
points without exception handling.

Round-trip caveat: for q > 1 the deformed log saturates at 1/(q-1) as
t grows, so a float64 round trip q_exp(q_log(t)) loses relative
precision like t**(q-1) * eps.  Aggregator self-validation therefore
samples a conditioning-aware range rather than the whole domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import AlphaleakError, DomainError, InvalidOrder, ValidationError
from .simplex import Pmf, p_norm, tilt

Q_ONE_ATOL = 1e-8
_Q_NEAR_ONE = 1e-3
_EPS64 = np.finfo(np.float64).eps


def q_log(x, q: float):
    """Deformed logarithm of order q; natural log at q = 1."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0):
        raise DomainError("q_log requires nonnegative arguments")
    scalar = arr.ndim == 0
    with np.errstate(divide="ignore"):
        if abs(q - 1.0) <= Q_ONE_ATOL:
            out = np.log(arr)
        else:
            om = 1.0 - q
            out = (np.expm1(om * np.log(arr)) if abs(om) < _Q_NEAR_ONE
                   else arr ** om - 1.0) / om
    return float(out) if scalar else out


def q_exp(x, q: float):
    """Inverse of ``q_log``; natural exp at q = 1.

    A ``-inf`` argument with q > 1 maps to 0 (the boundary image), and a
    base of exactly zero with q < 1 likewise returns 0 so that the map
    stays inverse to ``q_log`` on the closed simplex.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    if abs(q - 1.0) <= Q_ONE_ATOL:
        out = np.exp(arr)
        return float(out) if scalar else out
    om = 1.0 - q
    with np.errstate(invalid="ignore"):
        base = 1.0 + om * arr
    bad = (base < 0.0) | ((base == 0.0) & (om < 0.0)) | np.isnan(base)
    if np.any(bad):
        raise DomainError(f"q_exp base 1+(1-q)x must be positive, got {base!r}")
    if abs(om) < _Q_NEAR_ONE:
        with np.errstate(divide="ignore"):
            out = np.exp(np.log1p(om * arr) / om)
    else:
        out = base ** (1.0 / om)
    return float(out) if scalar else out


def _apply(fn: Callable, arr: np.ndarray) -> np.ndarray:
    """Apply a scalar-or-vectorized map elementwise (boundary -inf allowed);
    a library error (``q_log`` outside its domain) propagates, as it would
    element by element."""
    with np.errstate(divide="ignore"):
        try:
            out = np.asarray(fn(arr), dtype=np.float64)
            if out.shape == arr.shape:
                return out
        except AlphaleakError:
            raise
        except (TypeError, ValueError):
            pass
        return np.array(
            [fn(float(t)) for t in arr.ravel()], dtype=np.float64
        ).reshape(arr.shape)


def _qlog_safe_range(q: float, target: float = 2.5e-13) -> tuple[float, float]:
    """Sample window where the q_log/q_exp round trip stays below target.

    The deformed log saturates (at 1/(q-1) for large t when q > 1, at
    -1/(1-q) for small t when q < 0), and near saturation the inverse
    amplifies rounding like t**|q-1| * eps / |q-1|; the window stays
    clear of both corners.  For q > 1 it also starts where t**(1-q)
    still fits in float64.  Within eps/target of q = 1, where the maps
    take their expm1/log1p forms, the default window is safe.
    """
    lo, hi = 1e-6, 1e3
    if q > 1.0:
        lo = max(1e-6, 10.0 ** (-300.0 / (q - 1.0)))
        if (q - 1.0) * target > _EPS64:
            hi = min(1e3, ((q - 1.0) * target / _EPS64) ** (1.0 / (q - 1.0)))
    elif q < 0.0:
        edge = (target * (1.0 - q) / _EPS64) ** (1.0 / q)
        lo = min(0.5, max(1e-6, 2.0 * edge))
    return lo, hi


@dataclass(frozen=True)
class Aggregator:
    """Strictly monotone continuous scalar map with inverse (KN generator).

    Monotonicity and the inverse round-trip are checked on a sample of
    the domain at construction, not proved symbolically, which keeps the
    abstraction open for decreasing generators.
    """

    kind: str
    forward: Callable
    inverse: Callable
    increasing: bool
    domain: tuple[float, float]
    q: float | None = None
    sample_range: tuple[float, float] | None = None

    def __post_init__(self):
        ts = self._sample_points()
        fwd = _apply(self.forward, ts)
        back = _apply(self.inverse, fwd)
        err = np.abs(back - ts) / np.maximum(1.0, np.abs(ts))
        if not np.all(err <= 1e-12):
            raise ValidationError(
                f"aggregator {self.kind!r}: inverse(forward(t)) != t, max err {err.max():.3e}"
            )
        diffs = np.diff(fwd)
        if self.increasing and not np.all(diffs > 0.0):
            raise ValidationError(f"aggregator {self.kind!r} is not increasing on samples")
        if not self.increasing and not np.all(diffs < 0.0):
            raise ValidationError(f"aggregator {self.kind!r} is not decreasing on samples")

    def _sample_points(self) -> np.ndarray:
        if self.sample_range is not None:
            lo, hi = self.sample_range
        else:
            lo, hi = self.domain
        if lo == 0.0 and not np.isfinite(hi):
            return np.geomspace(1e-6, 1e3, 33)
        if lo > 0.0 and np.isfinite(hi):
            return np.geomspace(lo, hi, 33)
        a = lo if np.isfinite(lo) else -1e3
        b = hi if np.isfinite(hi) else 1e3
        pad = 1e-9 * (b - a)
        return np.linspace(a + pad, b - pad, 33)

    def matches(self, other: "Aggregator") -> bool:
        """Structural equality used for the phi = psi fast paths."""
        if self is other:
            return True
        if self.kind != other.kind or self.kind == "custom":
            return False
        if self.q is None or other.q is None:
            return self.q is other.q
        return abs(self.q - other.q) <= 1e-12


def linear_aggregator(a: float = 1.0, b: float = 0.0) -> Aggregator:
    if a == 0.0:
        raise ValidationError("linear aggregator needs a nonzero slope")
    return Aggregator(
        kind="linear",
        forward=lambda t: a * t + b,
        inverse=lambda s: (s - b) / a,
        increasing=a > 0.0,
        domain=(-np.inf, np.inf),
    )


# the aggregators are frozen, so one validated instance per order is shared
@functools.lru_cache(maxsize=1)
def log_aggregator() -> Aggregator:
    return Aggregator(
        kind="log",
        forward=np.log,
        inverse=np.exp,
        increasing=True,
        domain=(0.0, np.inf),
        sample_range=(1e-6, 1e3),
    )


def q_log_aggregator(q: float) -> Aggregator:
    if abs(q - 1.0) <= Q_ONE_ATOL:
        return log_aggregator()
    return _q_log_aggregator(q)


# a plain function in front of the cache keeps q_log_aggregator an
# ordinary function, which the benchmark's call tracer wraps
@functools.lru_cache(maxsize=256)
def _q_log_aggregator(q: float) -> Aggregator:
    return Aggregator(
        kind="q_log",
        forward=lambda t: q_log(t, q),
        inverse=lambda s: q_exp(s, q),
        increasing=True,
        domain=(0.0, np.inf),
        q=q,
        sample_range=_qlog_safe_range(q),
    )


def affine_transform(phi: Aggregator, a: float, b: float) -> Aggregator:
    """a*phi + b, a monotone reparameterization of the same mean."""
    if a == 0.0:
        raise ValidationError("affine transform needs a nonzero slope")
    return Aggregator(
        kind="custom",
        forward=lambda t: a * phi.forward(t) + b,
        inverse=lambda s: phi.inverse((s - b) / a),
        increasing=phi.increasing if a > 0.0 else not phi.increasing,
        domain=phi.domain,
        sample_range=phi.sample_range,
    )


def kn_mean(p: Pmf, values, phi: Aggregator) -> float:
    """Quasi-arithmetic mean phi^{-1}(sum_x p(x) phi(v_x)).

    A ``-inf`` image under phi on a positive-mass symbol propagates to
    the mean (e.g. geometric mean with a zero value is zero); values
    strictly outside the domain raise ``DomainError``.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (p.n,):
        raise DomainError(f"expected {p.n} values, got shape {v.shape}")
    lo, hi = phi.domain
    if np.any(v < lo) or np.any(v > hi):
        raise DomainError("value outside the aggregator domain")
    fv = _apply(phi.forward, v)
    mask = p.probs > 0.0
    total = float((p.probs[mask] * fv[mask]).sum())
    return float(phi.inverse(total))


class GibbsOptimum(NamedTuple):
    value: float
    argmax: Pmf


def gibbs_optimum(p: Pmf, q: float) -> GibbsOptimum:
    """Maximum of sum_x p(x) q_log(r(x), q) over the simplex.

    The optimum is the 1/q-tilt of p and the value has the closed form
    (|p|_{1/q} - 1) / (1 - q), where |.|_b is the b-norm.
    """
    if not (q > 0.0) or abs(q - 1.0) <= Q_ONE_ATOL or not np.isfinite(q):
        raise InvalidOrder(f"q must lie in (0,1) or (1,inf), got {q!r}")
    value = (p_norm(p, 1.0 / q) - 1.0) / (1.0 - q)
    return GibbsOptimum(value=value, argmax=tilt(p, 1.0 / q))


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    satisfied: bool
    equality_within: float


def reverse_holder_check(a, b, p: float) -> HolderReport:
    """Check sum a_i b_i against (sum a^(1/p))^p (sum b^(1/(1-p)))^(1-p).

    The inequality direction flips with p: >= for p > 1, <= for
    0 < p < 1.  ``equality_within`` is the relative gap between the two
    sides.
    """
    if not (p > 0.0) or abs(p - 1.0) <= Q_ONE_ATOL or not np.isfinite(p):
        raise InvalidOrder(f"exponent must lie in (0,1) or (1,inf), got {p!r}")
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise DomainError("a and b must be vectors of equal length")
    if np.any(av < 0.0) or np.any(bv < 0.0):
        raise DomainError("entries must be nonnegative")
    lhs = float((av * bv).sum())
    with np.errstate(divide="ignore"):
        fa = float((av ** (1.0 / p)).sum()) ** p
        sb = (bv ** (1.0 / (1.0 - p))).sum()
        fb = float(sb) ** (1.0 - p)
    rhs = fa * fb
    if not np.isfinite(rhs):  # a zero entry collapses the negative-power factor
        rhs = 0.0 if p > 1.0 else np.inf
    scale = max(abs(lhs), abs(rhs), 1.0)
    slack = 1e-12 * scale
    satisfied = (lhs >= rhs - slack) if p > 1.0 else (lhs <= rhs + slack)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return HolderReport(lhs=lhs, rhs=rhs, satisfied=satisfied, equality_within=gap)
