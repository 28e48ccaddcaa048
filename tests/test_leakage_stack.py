"""One stack per leakage: under matching generators ``g_leakage`` solves the
prior row and the observation rows as one stack of the phi = psi body, and
``posterior_vulnerability_hat`` its renormalized posteriors as one stack of
one-row groups.  Each group must keep the exact value it has when solved
alone, through the public vulnerabilities."""

import math

import numpy as np
import pytest

from alphaleak import (
    DegenerateVulnerability,
    NumericalInconsistency,
    OptimizerConfig,
    affine_transform,
    cond_vulnerability,
    g_leakage,
    leakage_spec_for,
    linear_aggregator,
    log_aggregator,
    make_channel,
    make_pmf,
    posterior_vulnerability_hat,
    power_score_gain,
    prior_vulnerability,
    q_log_aggregator,
    soft01_gain,
    transformed_gain,
)
from alphaleak import _kernels, leakage
from alphaleak.leakage import LeakageSpec
from alphaleak.simplex import compose_joint

DENSE = (make_pmf([0.2, 0.3, 0.5]),
         make_channel([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]))
# a zero-mass secret (x0) and an output no input reaches (y3)
SPARSE = (make_pmf([0.0, 0.4, 0.6]),
          make_channel([[0.6, 0.4, 0.0, 0.0], [0.2, 0.5, 0.3, 0.0], [0.0, 0.3, 0.7, 0.0]]))
INPUTS = {"dense": DENSE, "sparse": SPARSE}

METHODS = {"auto": OptimizerConfig(), "optimize": OptimizerConfig(),
           "oracle": OptimizerConfig(grid_resolution=0.1)}


def _spec(name, p):
    lin = linear_aggregator()
    if name == "transformed":
        return LeakageSpec(p, lin, lin, transformed_gain(2.0), "gain")
    if name == "power":
        return LeakageSpec(p, lin, lin, power_score_gain(2.0), "gain")
    if name == "power-loss-sense":
        return LeakageSpec(p, lin, lin, power_score_gain(0.5), "loss")
    variant, alpha = name.split("@")
    return leakage_spec_for(variant, p, float(alpha))


SPECS = ["shannon@1", "arimoto@2", "arimoto@0.5", "sibson@2", "sibson@0.5",
         "hayashi@2", "hayashi@0.5", "transformed", "power", "power-loss-sense"]


def _public(spec, W, method):
    cfg = METHODS[method]
    vp = prior_vulnerability(spec.prior, spec.gain, spec.phi, spec.sense, method, cfg).value
    vc = cond_vulnerability(spec.prior, W, spec.gain, spec.phi, spec.psi, spec.sense,
                            method, cfg).value
    return vp, vc


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("kind", list(INPUTS))
def test_leakage_is_the_log_ratio_of_the_public_vulnerabilities(kind, name, method,
                                                                monkeypatch):
    p, W = INPUTS[kind]
    spec = _spec(name, p)
    assert spec.phi.matches(spec.psi)
    vp, vc = _public(spec, W, method)
    stacked = []
    same_generators = leakage._same_generators

    def spy(*args):
        out = same_generators(*args)
        stacked.append(out[0])
        return out

    monkeypatch.setattr(leakage, "_same_generators", spy)
    if vp > 0.0 and vc > 0.0:
        got = g_leakage(spec, W, method, METHODS[method])
        assert got == (math.log(vc / vp) if spec.sense == "gain" else math.log(vp / vc))
    else:
        # the transformed gain is q_log of a soft 0-1 value, never positive
        with pytest.raises(DegenerateVulnerability):
            g_leakage(spec, W, method, METHODS[method])
    # one stack of the two groups, each with the public value
    assert stacked == [[vp, vc]]


@pytest.mark.parametrize("name", SPECS)
def test_one_eg_stack_per_optimize_leakage(name, monkeypatch):
    p, W = DENSE
    spec = _spec(name, p)
    calls = []
    eg = _kernels.eg

    def counting(*args, **kwargs):
        calls.append(1)
        return eg(*args, **kwargs)

    monkeypatch.setattr(_kernels, "eg", counting)
    try:
        g_leakage(spec, W, "optimize")
    except DegenerateVulnerability:
        pass
    assert len(calls) == 1


@pytest.mark.parametrize("route, method", [("_closed_same", "auto"),
                                           ("_per_observation", "optimize")])
@pytest.mark.parametrize("group", [0, 1], ids=["prior", "conditional"])
def test_nan_vulnerability_raises(route, method, group, monkeypatch):
    p, W = DENSE
    solve = getattr(leakage, route)

    def nan_in_group(*args):
        values, *rest = solve(*args)
        values[group] = math.nan
        return (values, *rest)

    monkeypatch.setattr(leakage, route, nan_in_group)
    run = "closed_form" if method == "auto" else method
    with pytest.raises(NumericalInconsistency, match=f"the {run} vulnerability is NaN"):
        g_leakage(leakage_spec_for("arimoto", p, 2.0), W, method)


def _hat_by_loop(p, W, g, phi, psi, sense):
    """The per-posterior loop: each renormalized posterior a prior of its own."""
    joint = compose_joint(p, W)
    ys = np.flatnonzero(joint.y_support)
    vals = np.empty(ys.size)
    for i, y in enumerate(ys):
        pi = make_pmf(joint.posteriors[y], renormalize=True, labels=p.labels)
        vals[i] = prior_vulnerability(pi, g, phi, sense).value
    fv = np.array([psi.forward(v) for v in vals])
    return float(psi.inverse(float((joint.p_y[ys] * fv).sum())))


@pytest.mark.parametrize("g, phi, psi, sense", [
    (soft01_gain(), q_log_aggregator(0.5), log_aggregator(), "gain"),
    (soft01_gain(), q_log_aggregator(2.0), q_log_aggregator(0.5), "gain"),
    (soft01_gain(), linear_aggregator(), linear_aggregator(), "gain"),
    (power_score_gain(2.0), linear_aggregator(), linear_aggregator(), "gain"),
    (transformed_gain(2.0), linear_aggregator(), linear_aggregator(), "gain"),
    # a custom generator: central differences from seeded restarts
    (soft01_gain(), affine_transform(log_aggregator(), 2.0, 1.0), log_aggregator(), "gain"),
], ids=["qlog-log", "qlog-qlog", "bayes", "power", "transformed", "custom"])
@pytest.mark.parametrize("kind", list(INPUTS))
def test_posterior_hat_matches_the_loop(kind, g, phi, psi, sense):
    p, W = INPUTS[kind]
    assert posterior_vulnerability_hat(p, W, g, phi, psi, sense) == _hat_by_loop(
        p, W, g, phi, psi, sense)
