import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaleak import (
    Channel,
    DecisionRule,
    DimensionMismatch,
    InvalidOrder,
    JointDist,
    NegativeWeight,
    NotNormalized,
    Pmf,
    ValidationError,
    ZeroTotal,
    compose_joint,
    joint_from_matrix,
    make_channel,
    make_pmf,
    p_norm,
    renyi_entropy,
    tilt,
    uniform_pmf,
)
from conftest import random_pair

# a prior and a channel that pass their 1e-9 sum checks, whose product sums
# to 1.0000000014
COMPOSED_PRIOR = [0.5000000007, 0.5]
COMPOSED_CHANNEL = [[0.3000000007, 0.7], [0.6000000007, 0.4]]


class TestMakePmf:
    def test_renormalize_symmetric(self):
        p = make_pmf([1, 1], renormalize=True)
        np.testing.assert_allclose(p.probs, [0.5, 0.5])

    def test_strict_already_normalized(self):
        p = make_pmf([0.3, 0.7])
        np.testing.assert_allclose(p.probs, [0.3, 0.7])

    def test_proportional_scaling(self):
        p = make_pmf([2, 6], renormalize=True)
        np.testing.assert_allclose(p.probs, [0.25, 0.75])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_pmf([0.5, -0.1, 0.6])

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            make_pmf([0.0, 0.0], renormalize=True)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_pmf([0.3, 0.69])

    def test_within_tolerance_accepted(self):
        make_pmf([0.3, 0.7 + 5e-10])

    def test_probs_read_only(self):
        p = make_pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_default_labels(self):
        assert make_pmf([1, 1, 2], renormalize=True).labels == ("x0", "x1", "x2")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_non_finite_weight(self, bad, renormalize):
        # NaN passes every sum check, and inf turns NaN when renormalized
        with pytest.raises(ValidationError):
            make_pmf([bad, 1.0], renormalize=renormalize)


class TestTilt:
    def test_uniform_fixed_point(self):
        u = uniform_pmf(5)
        for beta in (0.25, 1.0, 3.0):
            np.testing.assert_allclose(tilt(u, beta).probs, u.probs, atol=1e-15)

    def test_exact_example(self):
        t = tilt(make_pmf([0.8, 0.2]), 2.0)
        np.testing.assert_allclose(t.probs, [16 / 17, 1 / 17], atol=1e-15)

    def test_identity_at_one(self, rng):
        p = make_pmf(rng.dirichlet(np.ones(4)), renormalize=True)
        np.testing.assert_allclose(tilt(p, 1.0).probs, p.probs, atol=1e-15)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            tilt(make_pmf([0.5, 0.5]), 0.0)
        with pytest.raises(InvalidOrder):
            tilt(make_pmf([0.5, 0.5]), -1.0)

    def test_zero_stays_zero(self):
        t = tilt(make_pmf([0.0, 0.4, 0.6]), 0.5)
        assert t.probs[0] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
        a=st.floats(0.1, 5.0),
        b=st.floats(0.1, 5.0),
    )
    def test_exponent_composition(self, w, a, b):
        p = make_pmf(w, renormalize=True)
        lhs = tilt(tilt(p, a), b).probs
        rhs = tilt(p, a * b).probs
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_tilt_entropy_swap(self, rng):
        # entropy of order a of the 1/a-tilt equals entropy of order 1/a
        for _ in range(20):
            p = make_pmf(0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3, renormalize=True)
            for alpha in (0.3, 0.6, 2.0, 4.0):
                lhs = renyi_entropy(tilt(p, 1.0 / alpha), alpha)
                rhs = renyi_entropy(p, 1.0 / alpha)
                assert abs(lhs - rhs) <= 1e-9


class TestPNorm:
    def test_uniform(self):
        assert abs(p_norm(uniform_pmf(4), 2.0) - 0.5) < 1e-15

    def test_order_one(self, rng):
        p = make_pmf(rng.dirichlet(np.ones(5)), renormalize=True)
        assert abs(p_norm(p, 1.0) - 1.0) < 1e-12

    def test_example(self):
        assert abs(p_norm(make_pmf([0.8, 0.2]), 2.0) - np.sqrt(0.68)) < 1e-12

    def test_nonincreasing_in_order(self, rng):
        for _ in range(10):
            p = make_pmf(rng.dirichlet(np.ones(4)), renormalize=True)
            betas = np.linspace(0.5, 8.0, 16)
            vals = [p_norm(p, b) for b in betas]
            assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


class TestChannelAndJoint:
    def test_row_validation(self):
        with pytest.raises(NotNormalized):
            make_channel([[0.5, 0.49], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_non_finite_channel_entry(self, bad, renormalize):
        with pytest.raises(ValidationError):
            make_channel([[bad, 1.0], [0.5, 0.5]], renormalize=renormalize)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_joint_entry(self, bad):
        with pytest.raises(ValidationError):
            joint_from_matrix([[bad, 0.5], [0.25, 0.25]])

    def test_compose_identity(self, identity_channel):
        j = compose_joint(make_pmf([0.5, 0.5]), identity_channel)
        np.testing.assert_allclose(j.matrix, [[0.5, 0.0], [0.0, 0.5]])

    def test_compose_constant_is_product(self, constant_channel):
        p = make_pmf([0.4, 0.6])
        j = compose_joint(p, constant_channel)
        np.testing.assert_allclose(j.matrix, np.outer(p.probs, [0.3, 0.5, 0.2]))
        for y in range(3):
            np.testing.assert_allclose(j.posterior(y).probs, p.probs)

    def test_bsc_bayes(self, bsc):
        p, W = bsc
        j = compose_joint(p, W)
        np.testing.assert_allclose(j.p_y, [0.5, 0.5])
        assert abs(j.posterior(0).probs[0] - 0.9) < 1e-12

    def test_label_mismatch(self):
        p = make_pmf([0.5, 0.5], labels=("a", "b"))
        W = make_channel([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DimensionMismatch):
            compose_joint(p, W)

    def test_decompose_round_trip(self, rng):
        for _ in range(10):
            p, W = random_pair(rng, 3, 2)
            p2, W2 = compose_joint(p, W).decompose()
            np.testing.assert_allclose(p2.probs, p.probs, atol=1e-12)
            np.testing.assert_allclose(W2.matrix, W.matrix, atol=1e-12)

    def test_compose_accepts_the_product_of_checked_inputs(self):
        # each factor passes its 1e-9 sum check, and their joint sums to
        # 1.0000000014: composing keeps the product as it is, and the same
        # matrix given as a joint is still checked
        p, W = make_pmf(COMPOSED_PRIOR), make_channel(COMPOSED_CHANNEL)
        j = compose_joint(p, W)
        assert j.matrix.tobytes() == (p.probs[:, None] * W.matrix).tobytes()
        with pytest.raises(NotNormalized, match=r"^joint mass sums to 1\.0000000014$"):
            joint_from_matrix(j.matrix)

    def test_zero_mass_posterior_absent(self):
        j = compose_joint(make_pmf([1.0, 0.0]), make_channel([[1.0, 0.0], [0.0, 1.0]]))
        assert j.posterior(1) is None
        assert j.posterior(0) is not None


class TestDecisionRule:
    def test_rows_validated(self):
        with pytest.raises(NotNormalized):
            DecisionRule(("x0", "x1"), ("y0",), np.array([[0.6, 0.6]]))

    def test_action_access(self):
        rule = DecisionRule(("x0", "x1"), ("y0", "y1"),
                            np.array([[0.2, 0.8], [1.0, 0.0]]))
        np.testing.assert_allclose(rule.action(1).probs, [1.0, 0.0])


class TestDirectConstructionRejectsNaN:
    # a NaN entry passed both checks of the constructors, `x < 0` and a
    # sum off one, since each comparison with NaN is false
    def test_pmf(self):
        with pytest.raises(ValidationError):
            Pmf(("a", "b"), np.array([np.nan, 0.5]))

    def test_channel(self):
        # with this channel alpha_mi("arimoto", ..., 2.0) raised
        # NumericalInconsistency, a mutual information of -1.386
        with pytest.raises(ValidationError):
            Channel(("a", "b"), ("y0", "y1"), [[np.nan, 0.5], [0.5, 0.5]])

    def test_decision_rule(self):
        with pytest.raises(ValidationError):
            DecisionRule(("x0", "x1"), ("y0",), np.array([[np.nan, 1.0]]))

    def test_joint(self):
        with pytest.raises(ValidationError):
            JointDist(np.array([[np.nan, 0.5], [0.25, 0.25]]))
