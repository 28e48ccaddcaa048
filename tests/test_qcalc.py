import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaleak import (
    Aggregator,
    DomainError,
    InvalidOrder,
    ValidationError,
    affine_transform,
    gibbs_optimum,
    kn_mean,
    linear_aggregator,
    log_aggregator,
    make_pmf,
    q_exp,
    q_log,
    q_log_aggregator,
    reverse_holder_check,
    uniform_pmf,
)
from alphaleak.optimize import simplex_grid


class TestQLogExp:
    def test_qlog_of_one(self):
        for q in (-1.0, 0.0, 0.5, 1.0, 2.0, 7.0):
            assert q_log(1.0, q) == 0.0

    def test_natural_branch(self):
        assert abs(q_log(math.e, 1.0) - 1.0) < 1e-12

    def test_half_order(self):
        assert abs(q_log(0.25, 0.5) - (-1.0)) < 1e-12

    def test_qexp_of_zero(self):
        for q in (0.0, 0.5, 1.0, 3.0):
            assert q_exp(0.0, q) == 1.0

    def test_qexp_example(self):
        assert abs(q_exp(0.5, 2.0) - 2.0) < 1e-12

    def test_mutual_inverse_spot(self):
        assert abs(q_exp(q_log(0.3, 0.7), 0.7) - 0.3) < 1e-12

    def test_zero_sentinels(self):
        assert q_log(0.0, 0.5) == -2.0  # -1/(1-q)
        assert q_log(0.0, 2.0) == -np.inf
        assert q_log(0.0, 1.0) == -np.inf

    def test_neginf_maps_to_zero_above_one(self):
        assert q_exp(-np.inf, 2.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            q_log(-0.1, 0.5)
        with pytest.raises(DomainError):
            q_exp(-3.0, 0.5)  # base 1 + 0.5*(-3) < 0

    def test_round_trip_grid(self):
        # relative 1e-10 where the round trip is well conditioned; the
        # saturation corner (large t, q > 1) is limited by float64 to
        # roughly t**(q-1) * eps and is checked against that bound.
        eps = np.finfo(float).eps
        for q in (0.25, 0.5, 2.0, 4.0):
            for t in np.geomspace(1e-6, 1e3, 40):
                back = q_exp(q_log(t, q), q)
                rel = abs(back - t) / t
                conditioning = max(t, 1.0) ** abs(q - 1.0) * eps * 10.0
                assert rel <= max(1e-10, conditioning), (q, t, rel)

    def test_limit_to_natural_log(self):
        for t in np.geomspace(0.01, 100.0, 25):
            for q in (1 - 1e-6, 1 + 1e-6):
                assert abs(q_log(t, q) - math.log(t)) <= 1e-4

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(1e-4, 1e2), q=st.floats(-1.0, 3.0))
    def test_strictly_increasing(self, t, q):
        assert q_log(t * 1.01, q) > q_log(t, q)


class TestAggregators:
    def test_factories_validate(self):
        for agg in (linear_aggregator(), log_aggregator(), q_log_aggregator(0.5),
                    q_log_aggregator(4.0), q_log_aggregator(-1.0)):
            assert agg.increasing

    @pytest.mark.parametrize("q", [1.0 - 1e-5, 1.0 + 1e-5, 40.0, 50.0, 100.0, 1000.0])
    def test_q_log_validates_near_one_and_at_high_order(self, q):
        # the round trip holds just off q = 1 and on the window kept below
        # the saturation edge and above the overflow of t**(1-q)
        assert q_log_aggregator(q).q == q

    def test_broken_custom_rejected(self):
        with pytest.raises(ValidationError):
            Aggregator(kind="custom", forward=lambda t: t ** 2, inverse=lambda s: s,
                       increasing=True, domain=(0.0, np.inf))

    def test_decreasing_flag_checked(self):
        Aggregator(kind="custom", forward=lambda t: -np.asarray(t, float),
                   inverse=lambda s: -np.asarray(s, float),
                   increasing=False, domain=(-np.inf, np.inf))
        with pytest.raises(ValidationError):
            Aggregator(kind="custom", forward=lambda t: -np.asarray(t, float),
                       inverse=lambda s: -np.asarray(s, float),
                       increasing=True, domain=(-np.inf, np.inf))

    def test_matches(self):
        assert q_log_aggregator(0.5).matches(q_log_aggregator(0.5))
        assert not q_log_aggregator(0.5).matches(q_log_aggregator(2.0))
        assert not q_log_aggregator(0.5).matches(log_aggregator())
        aff = affine_transform(q_log_aggregator(0.5), 2.0, 1.0)
        assert aff.matches(aff) and not aff.matches(affine_transform(q_log_aggregator(0.5), 2.0, 1.0))

    def test_q_one_collapses_to_log(self):
        assert q_log_aggregator(1.0).kind == "log"

    def test_one_validated_instance_per_order(self):
        assert q_log_aggregator(0.25) is q_log_aggregator(0.25)
        assert q_log_aggregator(1.0) is log_aggregator() is log_aggregator()


class TestKnMean:
    def test_linear_is_expectation(self):
        p = make_pmf([0.3, 0.7])
        assert abs(kn_mean(p, [2.0, 10.0], linear_aggregator()) - 7.6) < 1e-12

    def test_geometric_mean(self):
        p = make_pmf([0.5, 0.5])
        assert abs(kn_mean(p, [1.0, 4.0], log_aggregator()) - 2.0) < 1e-12

    def test_holder_order_two(self):
        # generator of order -1 gives the quadratic mean
        p = make_pmf([0.5, 0.5])
        assert abs(kn_mean(p, [1.0, 7.0], q_log_aggregator(-1.0)) - 5.0) < 1e-12

    def test_idempotence(self, rng):
        p = make_pmf(rng.dirichlet(np.ones(4)), renormalize=True)
        for agg in (linear_aggregator(), log_aggregator(),
                    q_log_aggregator(0.25), q_log_aggregator(3.0)):
            assert abs(kn_mean(p, [2.5] * 4, agg) - 2.5) < 1e-10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            kn_mean(make_pmf([1.0]), [-1.0], log_aggregator())


class TestGibbsOptimum:
    def test_uniform_value(self):
        opt = gibbs_optimum(uniform_pmf(2), 0.5)
        assert abs(opt.value - (math.sqrt(0.5) - 1.0) / 0.5) < 1e-12
        np.testing.assert_allclose(opt.argmax.probs, [0.5, 0.5])

    def test_argmax_is_tilt(self):
        opt = gibbs_optimum(make_pmf([0.8, 0.2]), 0.5)
        np.testing.assert_allclose(opt.argmax.probs, [16 / 17, 1 / 17], atol=1e-14)

    def test_grid_oracle(self, rng):
        # brute force over the simplex must not beat the closed form
        grid = simplex_grid(2, 1e-3)
        p = make_pmf([0.8, 0.2])
        for q in (0.25, 0.5, 2.0, 4.0):
            opt = gibbs_optimum(p, q)
            with np.errstate(divide="ignore"):
                vals = q_log(grid, q) @ p.probs
            assert vals.max() <= opt.value + 1e-9
            assert abs(vals.max() - opt.value) < 5e-3

    def test_domination_three_symbols(self, rng):
        grid = simplex_grid(3, 5e-3)
        for _ in range(5):
            p = make_pmf(0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3, renormalize=True)
            for q in (0.25, 0.5, 2.0, 4.0):
                opt = gibbs_optimum(p, q)
                with np.errstate(divide="ignore"):
                    vals = q_log(grid, q) @ p.probs
                best = int(np.argmax(vals))
                assert vals[best] <= opt.value + 1e-9
                assert np.abs(grid[best] - opt.argmax.probs).sum() <= 0.02

    def test_classical_limit(self, rng):
        # near order one the optimizer tends to the distribution itself
        for _ in range(5):
            p = make_pmf(0.8 * rng.dirichlet(np.ones(3)) + 0.2 / 3, renormalize=True)
            for q in (1 - 1e-3, 1 + 1e-3):
                opt = gibbs_optimum(p, q)
                assert np.abs(opt.argmax.probs - p.probs).sum() <= 0.01

    def test_invalid_order(self):
        for q in (0.0, -1.0, 1.0, np.inf):
            with pytest.raises(InvalidOrder):
                gibbs_optimum(make_pmf([0.5, 0.5]), q)


class TestReverseHolder:
    def test_symmetric_equality(self):
        rep = reverse_holder_check([1.0, 1.0], [1.0, 1.0], 2.0)
        assert rep.lhs == 2.0 and abs(rep.rhs - 2.0) < 1e-12 and rep.satisfied

    def test_equality_construction(self, rng):
        for order in (0.5, 2.0):
            b = rng.uniform(0.1, 2.0, size=5)
            c = 1.7
            a = c * b ** (order / (1.0 - order))
            rep = reverse_holder_check(a, b, order)
            assert rep.satisfied
            assert rep.equality_within <= 1e-9

    def test_direction_random(self, rng):
        for _ in range(200):
            a = rng.uniform(0.0, 3.0, size=4)
            b = rng.uniform(0.0, 3.0, size=4)
            assert reverse_holder_check(a, b, 0.5).satisfied
            assert reverse_holder_check(a, b, 2.0).satisfied

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            reverse_holder_check([1.0], [1.0], 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            reverse_holder_check([1.0, 2.0], [1.0], 2.0)
