"""Pinned route values: one table per route family.

Three families pin what their routes give on seeded instances: the EG
kernel entry points and the ``eg_optimize`` shapes (``test_kernels``),
the numeric ``cond_renyi_entropy`` routes (``test_rule_routes``), and the
``alpha_mi``/``alpha_mi_via_leakage`` optimize routes with the generic and
mixed-generator objectives (``test_stacked``).  Each keeps one table,
``PINS``, of key -> (*pin, source, distance):

- ``pin`` is what the route gives now: ``float.hex`` of its value, or the
  name of the error it raises, followed where a route reports more (the
  residual's ``float.hex``, the iteration count, whether it converged, the
  grid rule) by that too;
- ``source`` names a value computed apart from the route (a closed form,
  a known optimum, a 60-digit mpmath evaluation, a run to a tighter
  tolerance), or is None where there is none;
- ``distance`` is the distance from the pinned value to that independent
  value, recorded with the pin and rounded up to two significant digits.

One parametrized test per family asserts the pin exactly and that the
distance to the independent value is at most the recorded one.

A change that moves pins re-records them once.  Each moved value must keep
to the rule of ``keeps_to_the_rule``: it lies within 1e-7 relative of the
value it replaces, or nearer the optimum (the independent value where
there is one, else the better of the two values in the problem's sense,
since both are values at feasible points).  The re-record runs that rule
once per moved pin, writes the new pins and distances into the table, and
lists the values it replaced in ``CHANGES.md``; the tests keep no history.
"""

import functools
from decimal import ROUND_CEILING, Decimal

import numpy as np

from alphaleak import AlphaleakError, alpha_mi, cond_renyi_entropy, make_channel, make_pmf


def seeded(kind):
    """(p, W, R0): dense 3x3, or sparse 3x4 with a zero-mass input and one
    zero per channel row; R0 is a seeded (n_y, n_x) rule."""
    if kind == "dense":
        rng, nx, ny = np.random.default_rng(11), 3, 3
    else:
        rng, nx, ny = np.random.default_rng(12), 3, 4
    p = rng.dirichlet(np.ones(nx))
    W = rng.dirichlet(np.ones(ny), size=nx)
    R0 = np.ascontiguousarray(rng.dirichlet(np.ones(nx), size=ny))
    if kind == "sparse":
        p[0] = 0.0
        p /= p.sum()
        W[np.arange(nx), np.arange(nx) % ny] = 0.0
        W /= W.sum(axis=1, keepdims=True)
    return p, W, R0


@functools.lru_cache(maxsize=None)
def closed_form(measure, variant, alpha, kind):
    """``alpha_mi`` or ``cond_renyi_entropy`` (by ``measure``) of a seeded
    instance by its default method, computed once per session."""
    p, W, _ = seeded(kind)
    fn = alpha_mi if measure == "alpha_mi" else cond_renyi_entropy
    return fn(variant, make_pmf(p), make_channel(W), alpha)


def outcome(run):
    """``run()`` as a tuple, or the name of the library error it raises."""
    try:
        return tuple(run())
    except AlphaleakError as error:
        return (type(error).__name__,)


def assert_pin(entry, got, independent):
    """``got`` equals the pin of ``entry``, and the pinned value lies within
    the recorded distance of ``independent(source)``."""
    pin, (source, distance) = entry[:-2], entry[-2:]
    assert got == pin
    if source is not None:
        assert abs(float.fromhex(pin[0]) - independent(source)) <= distance


def pin_id(key):
    return "-".join(map(str, key))


def keeps_to_the_rule(new, old, optimum, maximize=None):
    """The re-record rule: ``new`` lies within 1e-7 relative of the value
    ``old`` it replaces, or nearer the optimum: ``optimum()`` where it is
    known (None where it is not), else whichever of the two values is the
    better in the problem's sense (``maximize``)."""
    if abs(new - old) <= 1e-7 * abs(old):
        return True
    best = optimum()
    if best is not None:
        return abs(new - best) <= abs(old - best)
    return new > old if maximize else new < old


def recorded_distance(value, independent):
    """|value - independent| rounded up to two significant digits, as a
    re-record writes it."""
    d = abs(value - independent)
    if d == 0.0:
        return 0.0
    exact = Decimal(d)
    # the float nearest the rounded-up decimal is no smaller than d
    return float(exact.quantize(Decimal(1).scaleb(exact.adjusted() - 1), ROUND_CEILING))
