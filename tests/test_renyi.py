import math
import warnings

import numpy as np
import pytest

from alphaleak import (
    AlphaleakError,
    InvalidOrder,
    NumericalInconsistency,
    UnsupportedVariant,
    alpha_mi,
    alpha_mi_via_leakage,
    cond_renyi_entropy,
    make_channel,
    make_pmf,
    renyi_divergence,
    renyi_entropy,
    shannon_measures,
    uniform_pmf,
)
from alphaleak.optimize import OptimizerConfig
from alphaleak.renyi import MiVariant
from conftest import random_pair
from test_simplex import COMPOSED_CHANNEL, COMPOSED_PRIOR

ALPHAS = (0.3, 0.6, 2.0, 4.0)


def _shannon_mi_bruteforce(p, W):
    # definitional double sum, independent of the library path
    joint = p.probs[:, None] * W.matrix
    p_y = joint.sum(axis=0)
    mi = 0.0
    for x in range(joint.shape[0]):
        for y in range(joint.shape[1]):
            if joint[x, y] > 0:
                mi += joint[x, y] * math.log(joint[x, y] / (p.probs[x] * p_y[y]))
    return mi


class TestShannonMeasures:
    def test_constant_channel_independence(self, constant_channel):
        p = make_pmf([0.4, 0.6])
        assert shannon_measures(p, constant_channel).mutual_information == 0.0

    def test_identity_channel(self, identity_channel):
        sm = shannon_measures(uniform_pmf(2), identity_channel)
        assert abs(sm.mutual_information - math.log(2)) < 1e-12
        assert abs(sm.conditional_entropy) < 1e-12

    def test_bsc_value(self, bsc):
        p, W = bsc
        expected = _shannon_mi_bruteforce(p, W)
        sm = shannon_measures(p, W)
        assert abs(sm.mutual_information - expected) < 1e-12
        assert abs(expected - 0.3680642071684971) < 1e-12

    def test_random_against_bruteforce(self, rng):
        for _ in range(20):
            p, W = random_pair(rng, 3, 2)
            assert abs(shannon_measures(p, W).mutual_information
                       - _shannon_mi_bruteforce(p, W)) < 1e-12


class TestRenyiEntropy:
    def test_uniform(self):
        for alpha in ALPHAS:
            assert abs(renyi_entropy(uniform_pmf(5), alpha) - math.log(5)) < 1e-12

    def test_example(self):
        assert abs(renyi_entropy(make_pmf([0.8, 0.2]), 2.0) + math.log(0.68)) < 1e-12

    def test_continuity_at_one(self, rng):
        for _ in range(10):
            p = make_pmf(rng.dirichlet(np.ones(3)) + 0.05, renormalize=True)
            h1 = renyi_entropy(p, 1.0)
            for alpha in (1 - 1e-3, 1 + 1e-3):
                assert abs(renyi_entropy(p, alpha) - h1) < 1e-3

    def test_monotone_in_order(self, rng):
        for _ in range(10):
            p = make_pmf(rng.dirichlet(np.ones(4)), renormalize=True)
            grid = np.linspace(0.2, 6.0, 30)
            vals = [renyi_entropy(p, a) for a in grid]
            assert all(vals[i] >= vals[i + 1] - 1e-10 for i in range(len(vals) - 1))

    def test_invalid(self):
        with pytest.raises(InvalidOrder):
            renyi_entropy(uniform_pmf(2), 0.0)


class TestRenyiDivergence:
    def test_self_zero(self, rng):
        p = make_pmf(rng.dirichlet(np.ones(4)), renormalize=True)
        for alpha in ALPHAS:
            assert renyi_divergence(p, p, alpha) <= 1e-12

    def test_example(self):
        d = renyi_divergence(make_pmf([0.5, 0.5]), make_pmf([0.8, 0.2]), 2.0)
        assert abs(d - math.log(1.5625)) < 1e-12

    def test_support_violation_infinite(self):
        p = make_pmf([0.5, 0.5])
        q = make_pmf([1.0, 0.0])
        assert renyi_divergence(p, q, 2.0) == np.inf

    def test_zero_iff_equal(self, rng):
        for _ in range(20):
            p = make_pmf(rng.dirichlet(np.ones(3)) + 0.02, renormalize=True)
            q = make_pmf(rng.dirichlet(np.ones(3)) + 0.02, renormalize=True)
            for alpha in (0.5, 2.0):
                d = renyi_divergence(p, q, alpha)
                l1 = np.abs(p.probs - q.probs).sum()
                if l1 <= 1e-9:
                    assert d <= 1e-12
                if d == 0.0:
                    assert l1 <= 1e-6


class TestCondRenyiEntropy:
    def test_constant_channel_reductions(self, constant_channel):
        # independence: each variant collapses to its own input entropy
        p = make_pmf([0.25, 0.75])
        for alpha in ALPHAS:
            cases = {
                "arimoto": renyi_entropy(p, alpha),
                "sibson": renyi_entropy(p, 1.0 / alpha),
                "augustin_csiszar": renyi_entropy(p, 1.0),
                "hayashi": renyi_entropy(p, alpha),
            }
            if alpha > 0.5:
                cases["lapidoth_pfister"] = renyi_entropy(p, alpha / (2 * alpha - 1))
            for variant, expected in cases.items():
                got = cond_renyi_entropy(variant, p, constant_channel, alpha)
                assert abs(got - expected) < 1e-8, (variant, alpha)

    def test_identity_channel_zero(self, identity_channel):
        p = make_pmf([0.3, 0.7])
        for alpha in ALPHAS:
            for variant in ("arimoto", "sibson", "hayashi", "augustin_csiszar",
                            "lapidoth_pfister"):
                if variant == "lapidoth_pfister" and alpha <= 0.5:
                    continue
                assert abs(cond_renyi_entropy(variant, p, identity_channel, alpha)) < 1e-9

    def test_bsc_arimoto_value(self, bsc):
        p, W = bsc
        # direct evaluation of the escort-style double sum
        inner = sum(
            (sum((p.probs[x] * W.matrix[x, y]) ** 2 for x in range(2))) ** 0.5
            for y in range(2)
        )
        expected = (2.0 / (1.0 - 2.0)) * math.log(inner)
        got = cond_renyi_entropy("arimoto", p, W, 2.0)
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.19845093872) < 1e-9
        # cross-check by grid minimization over decision rules
        oracle = cond_renyi_entropy("arimoto", p, W, 2.0, method="oracle",
                                    cfg=OptimizerConfig(grid_resolution=1e-3))
        assert abs(got - oracle) < 1e-4

    def test_shannon_variant_rejected(self, bsc):
        p, W = bsc
        with pytest.raises(UnsupportedVariant):
            cond_renyi_entropy("shannon", p, W, 2.0)


class TestAlphaMi:
    def test_constant_channel_zero(self, constant_channel):
        p = make_pmf([0.2, 0.8])
        for variant in MiVariant:
            for alpha in ALPHAS:
                if variant is MiVariant.LAPIDOTH_PFISTER and alpha <= 0.5:
                    continue
                assert alpha_mi(variant, p, constant_channel, alpha) <= 1e-10

    def test_bsc_sibson_equals_arimoto(self, bsc):
        # uniform input: the two closed forms coincide
        p, W = bsc
        sib = alpha_mi("sibson", p, W, 2.0)
        ari = alpha_mi("arimoto", p, W, 2.0)
        assert abs(sib - 0.4946962418361073) < 1e-12
        assert abs(sib - ari) < 1e-12

    def test_sibson_closed_vs_minimization(self, bsc, rng):
        # closed form against the numerical minimization of the
        # fixed-input-marginal divergence over output distributions
        cfg = OptimizerConfig(seed=4, tolerance=1e-12)
        instances = [bsc] + [random_pair(rng, 2, 3) for _ in range(3)]
        for p, W in instances:
            for alpha in (0.6, 2.0):
                closed = alpha_mi("sibson", p, W, alpha)
                numeric = alpha_mi("sibson", p, W, alpha, method="optimize", cfg=cfg)
                assert abs(closed - numeric) < 1e-8

    # float.hex of alpha_mi("sibson"), cond_renyi_entropy("arimoto") and
    # cond_renyi_entropy("sibson"), closed forms, recorded before the two
    # closed forms shared their log-sum-exp core
    CLOSED_INPUTS = {
        "dense": ([0.2, 0.3, 0.5], [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]),
        "sparse": ([0.0, 0.4, 0.6],
                   [[0.5, 0.5, 0.0, 0.0], [0.7, 0.0, 0.3, 0.0], [0.0, 0.2, 0.8, 0.0]]),
    }
    CLOSED_RECORDED = {
    ('dense', 0.3): ('0x1.bff7088094375p-5', '0x1.048eceb2204f2p+0', '0x1.b1aeedd48418ep-1'),
    ('dense', 0.55): ('0x1.90a3ac7a05f2cp-4', '0x1.e922df12ae50ap-1', '0x1.c2b8e14d0dd77p-1'),
    ('dense', 2.0): ('0x1.2c4ffe1183424p-2', '0x1.746715443308ap-1', '0x1.8a6fda26084e6p-1'),
    ('dense', 50.0): ('0x1.27300b025748dp-1', '0x1.f37fa6666d75fp-2', '0x1.0a95239eb16c1p-1'),
    ('dense', 1000.0): ('0x1.2ca9de94a3badp-1', '0x1.e9ffa81acee6fp-2', '0x1.05ca3be1542e8p-1'),
    ('sparse', 0.3): ('0x1.97b82badf32fap-3', '0x1.e1e987bdb5bebp-2', '0x1.ba6285f40c89ap-2'),
    ('sparse', 0.55): ('0x1.2e3ccc4398e06p-2', '0x1.838001d646b33p-2', '0x1.72d36dea1b7b4p-2'),
    ('sparse', 2.0): ('0x1.c1f5fe34e51b4p-2', '0x1.c76a89d3d5750p-3', '0x1.f2d971e812e58p-3'),
    ('sparse', 50.0): ('0x1.0e25f1a5a6b10p-1', '0x1.0b2549d7f0103p-3', '0x1.5222fa6d8062ep-3'),
    ('sparse', 1000.0): ('0x1.0f9b33a36fc65p-1', '0x1.0610975db25a3p-3', '0x1.4d193db112dd3p-3'),
    }

    @pytest.mark.parametrize("key", sorted(CLOSED_RECORDED), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_sibson_arimoto_closed_forms_recorded(self, key):
        kind, alpha = key
        p, W = self.CLOSED_INPUTS[kind]
        p, W = make_pmf(p), make_channel(W)
        got = (alpha_mi("sibson", p, W, alpha).hex(),
               cond_renyi_entropy("arimoto", p, W, alpha).hex(),
               cond_renyi_entropy("sibson", p, W, alpha).hex())
        assert got == self.CLOSED_RECORDED[key]

    def test_continuity_at_one(self, rng):
        for _ in range(5):
            p, W = random_pair(rng, 2, 2)
            base = shannon_measures(p, W).mutual_information
            for variant in MiVariant:
                if variant is MiVariant.SHANNON:
                    continue
                for alpha in (1 - 1e-3, 1 + 1e-3):
                    assert abs(alpha_mi(variant, p, W, alpha) - base) < 1e-2

    def test_lp_below_sibson(self, rng):
        for _ in range(10):
            p, W = random_pair(rng, 3, 3)
            for alpha in (0.6, 2.0, 4.0):
                lp = alpha_mi("lapidoth_pfister", p, W, alpha)
                assert lp <= alpha_mi("sibson", p, W, alpha) + 1e-8

    def test_lp_invalid_alpha(self, bsc):
        p, W = bsc
        with pytest.raises(InvalidOrder):
            alpha_mi("lapidoth_pfister", p, W, 0.4)

    def test_non_finite_value_raises(self):
        # q**(1-alpha) overflows at order 1000 and the fixed point turns NaN
        p = make_pmf([0.6, 0.4])
        W = make_channel([[0.9, 0.05, 0.05], [0.1, 0.3, 0.6]])
        with np.errstate(all="ignore"), pytest.raises(NumericalInconsistency):
            alpha_mi("augustin_csiszar", p, W, 1000.0)

    def test_lp_nan_residual_raises(self):
        p = make_pmf([0.5, 0.5, 0.0])
        W = make_channel([[0.9, 0.1, 0, 0], [0, 0.2, 0.8, 0], [0, 0, 0.5, 0.5]])
        with np.errstate(all="ignore"), pytest.raises(AlphaleakError):
            alpha_mi("lapidoth_pfister", p, W, 50.0, cfg=OptimizerConfig(max_iters=5))

    def test_oracle_agreement(self, rng):
        # closed form vs brute-force grid within the documented bound
        cfg = OptimizerConfig(grid_resolution=0.01)
        p, W = random_pair(rng, 2, 2)
        for variant in ("sibson", "arimoto", "hayashi", "augustin_csiszar"):
            for alpha in (0.6, 2.0):
                closed = alpha_mi(variant, p, W, alpha)
                oracle = alpha_mi(variant, p, W, alpha, method="oracle", cfg=cfg)
                assert abs(closed - oracle) <= p.n * cfg.grid_resolution, (variant, alpha)

    def test_prop_difference_identities(self, rng):
        # closed-form information vs independently optimized conditional
        # entropy (small sample; the acceptance suite runs the full set)
        cfg = OptimizerConfig(seed=2, restarts=2)
        for _ in range(3):
            p, W = random_pair(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            for alpha in ALPHAS:
                pairs = [
                    ("sibson", renyi_entropy(p, 1.0 / alpha)),
                    ("augustin_csiszar", renyi_entropy(p, 1.0)),
                ]
                if alpha > 0.5:
                    pairs.append(
                        ("lapidoth_pfister", renyi_entropy(p, alpha / (2 * alpha - 1))))
                for variant, head in pairs:
                    closed = alpha_mi(variant, p, W, alpha)
                    viarule = head - cond_renyi_entropy(variant, p, W, alpha,
                                                        method="optimize", cfg=cfg)
                    assert abs(closed - viarule) < 1e-4, (variant, alpha)


# float.hex of the lapidoth_pfister oracle on the dense 3x3 input at grid
# resolution 0.05, recorded while the double-grid product still warned
LP_ORACLE_RECORDED = {2.0: "0x1.2c9a4dba7a6ccp-2", 4.0: "0x1.aa10e3684eb5bp-2",
                      10.0: "0x1.091a5f192d5e4p-1"}


@pytest.mark.parametrize("alpha", sorted(LP_ORACLE_RECORDED))
def test_lp_oracle_overflow_is_silent(alpha):
    # floored boundary points overflow in the double-grid product above
    # order 1; their inf never wins the minimum, so nothing is reported
    p = make_pmf([0.2, 0.3, 0.5])
    W = make_channel([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = alpha_mi("lapidoth_pfister", p, W, alpha, method="oracle",
                         cfg=OptimizerConfig(grid_resolution=0.05))
    assert value.hex() == LP_ORACLE_RECORDED[alpha]


@pytest.mark.parametrize("route", [alpha_mi, alpha_mi_via_leakage])
@pytest.mark.parametrize("variant", [v.value for v in MiVariant])
def test_every_route_measures_a_composed_joint_just_off_one(variant, route):
    # the joint sums to 1.0000000014; Hayashi and Shannon through both
    # routes, Lapidoth-Pfister's alpha_mi and Arimoto's leakage route raised
    # NotNormalized on it
    value = route(variant, make_pmf(COMPOSED_PRIOR), make_channel(COMPOSED_CHANNEL), 2.0)
    assert math.isfinite(value) and value > 0.0
