import math
import warnings

import numpy as np
import pytest

from alphaleak import (
    DegenerateVulnerability,
    DomainError,
    InvalidOrder,
    NumericalInconsistency,
    UnsupportedVariant,
    alpha_mi,
    alpha_mi_via_leakage,
    arrow_pratt,
    cond_renyi_entropy,
    cond_vulnerability,
    g_leakage,
    gain_eval,
    affine_transform,
    leakage_spec_for,
    linear_aggregator,
    log_aggregator,
    make_channel,
    make_pmf,
    posterior_vulnerability_hat,
    power_loss,
    power_score_gain,
    prior_vulnerability,
    q_log_aggregator,
    shannon_measures,
    soft01_gain,
    transformed_gain,
    uniform_pmf,
)
from alphaleak import leakage
from alphaleak.leakage import LeakageSpec, VulnerabilityResult, _prior_objective
from alphaleak.optimize import OptimizerConfig, _fd_grad, _fd_grad_stack, simplex_grid
from alphaleak.renyi import MiVariant
from conftest import random_pair

ALPHAS = (0.3, 0.6, 2.0, 4.0)


class TestGainEval:
    def test_soft01(self):
        r = make_pmf([0.7, 0.3])
        assert gain_eval(soft01_gain(), "x0", r) == 0.7

    def test_power_uniform(self):
        for alpha in (0.5, 2.0, 3.0):
            g = power_score_gain(alpha)
            for n in (2, 4):
                r = uniform_pmf(n)
                for x in r.labels:
                    assert abs(gain_eval(g, x, r) - n ** (1.0 - alpha)) < 1e-12

    def test_power_sense_split(self):
        assert power_score_gain(2.0).sense == "gain"
        assert power_score_gain(0.5).sense == "loss"

    def test_transformed_limit_is_residual_probability(self):
        g = transformed_gain(np.inf)
        r = make_pmf([0.3, 0.7])
        assert abs(gain_eval(g, "x0", r) - (0.3 - 1.0)) < 1e-12

    def test_transformed_zero_sentinel(self):
        g = transformed_gain(0.5)  # q = 2 >= 1
        r = make_pmf([1.0, 0.0])
        assert gain_eval(g, "x1", r) == -np.inf

    def test_power_loss_domain(self):
        g = power_loss(2.0)
        r = make_pmf([1.0, 0.0])
        with pytest.raises(DomainError):
            gain_eval(g, "x1", r)  # power score is negative there


class TestPriorVulnerability:
    def test_log_soft01(self):
        res = prior_vulnerability(make_pmf([0.5, 0.5]), soft01_gain(), log_aggregator())
        assert abs(res.value - 0.5) < 1e-12

    def test_qlog_soft01(self):
        res = prior_vulnerability(make_pmf([0.8, 0.2]), soft01_gain(),
                                  q_log_aggregator(0.5))
        assert abs(res.value - 0.68) < 1e-12

    def test_power_loss_entropy_functional(self):
        res = prior_vulnerability(make_pmf([0.8, 0.2]), power_loss(2.0),
                                  q_log_aggregator(2.0), sense="loss")
        assert abs(res.value - 1.0 / 0.68) < 1e-12

    def test_methods_agree(self, rng, cfg):
        p = make_pmf(0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3, renormalize=True)
        for g, phi in ((soft01_gain(), log_aggregator()),
                       (soft01_gain(), q_log_aggregator(0.5)),
                       (soft01_gain(), q_log_aggregator(2.0)),
                       (power_score_gain(2.0), linear_aggregator())):
            closed = prior_vulnerability(p, g, phi, cfg=cfg)
            numeric = prior_vulnerability(p, g, phi, method="optimize", cfg=cfg)
            oracle = prior_vulnerability(
                p, g, phi, method="oracle", cfg=cfg.with_(grid_resolution=2e-3))
            assert abs(closed.value - numeric.value) < 1e-6
            assert abs(closed.value - oracle.value) < 1e-4
            assert oracle.value <= closed.value + 1e-9

    def test_point_mass_soft01_is_one(self):
        p = make_pmf([1.0, 0.0])
        for phi in (log_aggregator(), q_log_aggregator(0.5), q_log_aggregator(2.0)):
            assert abs(prior_vulnerability(p, soft01_gain(), phi).value - 1.0) < 1e-12

    @pytest.mark.parametrize("g, phi", [
        (soft01_gain(), log_aggregator()),
        (soft01_gain(), q_log_aggregator(0.5)),
        (soft01_gain(), q_log_aggregator(2.0)),
        (power_score_gain(2.0), linear_aggregator()),
        (power_score_gain(0.5), linear_aggregator()),
        (power_loss(0.5), q_log_aggregator(0.5)),
    ])
    def test_batched_fd_gradient_matches_per_point(self, rng, g, phi):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(n))
            stacked = _prior_objective(g, phi)

            def aggregate(r):
                return float(stacked.objective([r[None]], probs[None])[0][0])

            r = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
            batched = stacked.grad([r[None]], None, probs[None])[0][0]
            per_point = _fd_grad(lambda blocks: aggregate(blocks[0]), [r])[0]
            delta = 1e-6
            loop = np.array([
                (aggregate(np.where(np.arange(n) == i, r[i] * math.exp(delta), r))
                 - aggregate(np.where(np.arange(n) == i, r[i] * math.exp(-delta), r)))
                / (r[i] * (math.exp(delta) - math.exp(-delta)))
                for i in range(n)
            ])
            scale = np.maximum(1.0, np.abs(loop))
            assert np.all(np.abs(batched - per_point) <= 1e-9 * scale)
            assert np.all(np.abs(batched - loop) <= 1e-9 * scale)

    # values of prior_vulnerability(method="optimize") recorded before its
    # gradient was batched: (prior, gain, gain order, generator, order, value)
    PRIORS = {"a": [0.5, 0.3, 0.2], "b": [0.1, 0.2, 0.3, 0.4],
              "c": [0.7, 0.05, 0.15, 0.04, 0.06]}
    RECORDED = [
        ("a", "soft01", None, "log", None, 0.3571308584574835),
        ("a", "soft01", None, "q_log", 0.5, 0.37999999999999934),
        ("a", "soft01", None, "q_log", 2.0, 0.3451906136727671),
        ("a", "power", 2.0, "linear", None, 0.38),
        ("a", "power", 0.5, "linear", None, 1.7020429341916714),
        ("a", "power_loss", 0.5, "q_log", 0.5, 2.896950149831795),
        ("a", "transformed", 3.0, "linear", None, -0.6856747150217315),
        ("b", "soft01", None, "log", None, 0.2780778340631819),
        ("b", "soft01", None, "q_log", 0.5, 0.29999999999999993),
        ("b", "soft01", None, "q_log", 2.0, 0.2647143754847566),
        ("b", "power", 2.0, "linear", None, 0.30000000000000004),
        ("b", "power", 0.5, "linear", None, 1.9436194510556377),
        ("b", "power_loss", 0.5, "q_log", 0.5, 3.7776565705218186),
        ("b", "transformed", 3.0, "linear", None, -0.8037616749580847),
        ("c", "soft01", None, "log", None, 0.37471604687652366),
        ("c", "soft01", None, "q_log", 0.5, 0.5201999999998549),
        ("c", "soft01", None, "q_log", 2.0, 0.27920406503261597),
        ("c", "power", 2.0, "linear", None, 0.5201999999999999),
        ("c", "power", 0.5, "linear", None, 1.8925141331831137),
        ("c", "power_loss", 0.5, "q_log", 0.5, 3.581609744297833),
        ("c", "transformed", 3.0, "linear", None, -0.44615694026416286),
    ]

    @pytest.mark.parametrize("prior, gain, gain_order, gen, gen_order, value", RECORDED)
    def test_optimize_matches_recorded_values(self, prior, gain, gain_order, gen,
                                              gen_order, value):
        g = {"soft01": lambda a: soft01_gain(), "power": power_score_gain,
             "power_loss": power_loss, "transformed": transformed_gain}[gain](gain_order)
        phi = {"log": lambda q: log_aggregator(), "q_log": q_log_aggregator,
               "linear": lambda q: linear_aggregator()}[gen](gen_order)
        res = prior_vulnerability(make_pmf(self.PRIORS[prior]), g, phi, method="optimize")
        assert res.method == "optimize"
        assert abs(res.value - value) <= 1e-9 * abs(value)

    def test_oracle_batch_matches_pointwise_scan(self):
        # the transformed gain is scanned through _prior_objective itself;
        # the other two families through their kernel objectives, which
        # compute the same values in another order
        p = make_pmf([0.5, 0.3, 0.2])
        cfg = OptimizerConfig(grid_resolution=0.05)
        for g, phi in ((soft01_gain(), q_log_aggregator(2.0)),
                       (power_score_gain(0.5), linear_aggregator()),
                       (transformed_gain(3.0), linear_aggregator())):
            res = prior_vulnerability(p, g, phi, method="oracle", cfg=cfg)
            objective = _prior_objective(g, phi).objective
            grid = simplex_grid(3, cfg.grid_resolution)
            vals = np.array([objective([row[None]], p.probs[None])[0][0] for row in grid])
            best = vals.argmax() if phi.increasing == (g.sense == "gain") else vals.argmin()
            np.testing.assert_array_equal(res.rule.probs, grid[best])
            if g.kind == "transformed":
                assert res.value == phi.inverse(vals[best])
            else:
                assert res.value == pytest.approx(phi.inverse(vals[best]), rel=1e-12, abs=0.0)


def _kernel_family(name, alpha):
    """(gain, generator) of one family of the per-observation kernel table."""
    return {"soft01_log": lambda: (soft01_gain(), log_aggregator()),
            "soft01_qlog": lambda: (soft01_gain(), q_log_aggregator(1.0 / alpha)),
            "power": lambda: (power_score_gain(alpha), linear_aggregator()),
            "power_loss": lambda: (power_loss(alpha), q_log_aggregator(alpha))}[name]()


def _route_priors(kind):
    """Seeded priors on 2 to 8 symbols: dense, sparse (Dirichlet(0.2), so
    some masses fall below 1e-8; masses below the kernels' floor of 1e-12
    act as zero masses), or with one zero-mass symbol."""
    rng = np.random.default_rng({"dense": 31, "sparse": 32, "zero_mass": 33}[kind])
    for n in range(2, 9):
        for _ in range(2):
            probs = rng.dirichlet(np.full(n, 0.2 if kind == "sparse" else 1.0))
            if kind == "zero_mass":
                probs[rng.integers(n)] = 0.0
            yield make_pmf(probs, renormalize=True)


def _route_cases():
    # iterates are floored at EPS = 1e-12, so below order 1 a zero-mass
    # symbol adds about (1 - alpha) EPS^alpha to the power score
    floor = pytest.mark.xfail(strict=True, reason="power score of a floored symbol")
    cases = []
    for family in ("soft01_log", "soft01_qlog", "power", "power_loss"):
        for kind in ("dense", "sparse", "zero_mass"):
            for alpha in ((2.0,) if family == "soft01_log" else (0.3, 0.6, 2.0, 4.0, 10.0)):
                marks = (floor,) if (family.startswith("power") and kind == "zero_mass"
                                     and alpha < 1.0) else ()
                cases.append(pytest.param(family, kind, alpha, marks=marks))
    return cases


@pytest.fixture
def fd_calls(monkeypatch):
    """One entry per call of the finite-difference gradient of leakage."""
    calls = []
    monkeypatch.setattr(leakage, "_fd_grad_stack",
                        lambda *a, **k: calls.append(1) or _fd_grad_stack(*a, **k))
    return calls


class TestPriorKernelRoute:
    """The numeric prior vulnerability is the one-observation problem of
    the per-observation kernels; objectives outside their table keep the
    central-difference route."""

    @pytest.mark.parametrize("family, kind, alpha", _route_cases())
    def test_optimize_matches_closed_form(self, family, kind, alpha, fd_calls):
        g, phi = _kernel_family(family, alpha)
        for p in _route_priors(kind):
            closed = prior_vulnerability(p, g, phi, g.sense, "closed_form").value
            res = prior_vulnerability(p, g, phi, method="optimize")
            assert res.method == "optimize"
            # the kernels stop after three relative changes below 1e-10,
            # which leaves up to about 7e-9 on these priors
            assert abs(res.value - closed) <= 1e-8 * abs(closed), (p.probs, res.value, closed)
        assert not fd_calls

    @pytest.mark.parametrize("g, phi, closed_phi", [
        (soft01_gain(), affine_transform(q_log_aggregator(0.5), 2.0, -1.0),
         q_log_aggregator(0.5)),
        (transformed_gain(3.0), linear_aggregator(), linear_aggregator()),
        (soft01_gain(), linear_aggregator(), linear_aggregator()),
    ])
    def test_objectives_outside_the_table_keep_finite_differences(self, g, phi, closed_phi,
                                                                   fd_calls):
        p = make_pmf([0.5, 0.3, 0.2])
        res = prior_vulnerability(p, g, phi, method="optimize")
        assert fd_calls
        # an affine change of generator keeps the mean, so the closed value
        # of the plain generator is the reference
        closed = prior_vulnerability(p, g, closed_phi, g.sense, "closed_form").value
        assert abs(res.value - closed) <= 1e-6 * max(1.0, abs(closed))

    @pytest.mark.parametrize("probs", [[8.578e-08, 1.0 - 8.578e-08],
                                       [5.117e-08, 0.8984, 0.1016 - 5.117e-08]])
    def test_tiny_masses_below_order_one(self, probs):
        # from the prior itself the deformed-log kernel once stopped after a
        # few tiny steps, 0.4-0.55 off, doubling its fallback step each time
        p = make_pmf(probs, renormalize=True)
        g, phi = _kernel_family("soft01_qlog", 0.3)
        closed = prior_vulnerability(p, g, phi, g.sense, "closed_form").value
        res = prior_vulnerability(p, g, phi, method="optimize")
        assert abs(res.value - closed) <= 1e-8 * abs(closed)

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_opposite_sense_runs_the_kernel_the_other_way(self, alpha):
        # minimizing the expected power score above order 1 puts all mass
        # on the least likely symbol: alpha p_min + 1 - alpha
        p = make_pmf([0.5, 0.3, 0.2])
        res = prior_vulnerability(p, power_score_gain(alpha), linear_aggregator(),
                                  sense="loss", method="optimize")
        expected = alpha * 0.2 + 1.0 - alpha
        assert abs(res.value - expected) <= 1e-9
        assert res.rule.probs.argmax() == 2

    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_hayashi_via_leakage_optimize_matches_closed_form(self, kind, alpha):
        # the finite-difference prior route raised DomainError here: some of
        # its perturbed points made the power score negative
        rng = np.random.default_rng({"dense": 41, "sparse": 42}[kind])
        for _ in range(3):
            p = rng.dirichlet(np.ones(3))
            W = rng.dirichlet(np.ones(3), size=3)
            if kind == "sparse":
                p[0] = 0.0
                W[np.arange(3), np.arange(3)] = 0.0
            P = make_pmf(p, renormalize=True)
            C = make_channel(W, renormalize=True)
            closed = alpha_mi("hayashi", P, C, alpha, method="closed_form")
            got = alpha_mi_via_leakage("hayashi", P, C, alpha, method="optimize")
            assert abs(got - closed) <= 1e-3 * abs(closed)


class TestCondVulnerability:
    def test_identity_channel_perfect(self, identity_channel):
        p = make_pmf([0.3, 0.7])
        for phi in (log_aggregator(), q_log_aggregator(0.5), q_log_aggregator(2.0)):
            res = cond_vulnerability(p, identity_channel, soft01_gain(), phi, phi)
            assert abs(res.value - 1.0) < 1e-12
            # the optimal rule reveals the observed symbol
            np.testing.assert_allclose(res.rule.matrix, np.eye(2), atol=1e-12)

    def test_constant_channel_equals_prior(self, constant_channel):
        p = make_pmf([0.25, 0.75])
        for phi in (log_aggregator(), q_log_aggregator(0.5), q_log_aggregator(3.0)):
            cond = cond_vulnerability(p, constant_channel, soft01_gain(), phi, phi)
            prior = prior_vulnerability(p, soft01_gain(), phi)
            assert abs(cond.value - prior.value) < 1e-12

    def test_bsc_escort_value_and_oracle(self, bsc):
        p, W = bsc
        agg = q_log_aggregator(0.5)  # order 2
        res = cond_vulnerability(p, W, soft01_gain(), agg, agg)
        expected = math.exp(-cond_renyi_entropy("arimoto", p, W, 2.0))
        assert abs(res.value - expected) < 1e-12
        assert abs(res.value - 0.8200) < 1e-4
        oracle = cond_vulnerability(p, W, soft01_gain(), agg, agg, method="oracle",
                                    cfg=OptimizerConfig(grid_resolution=1e-3))
        assert abs(oracle.value - expected) < 1e-4

    def test_vulnerability_entropy_pairs_on_random_instances(self, rng, cfg):
        # closed-path vulnerability against the matching exponential of
        # the conditional entropy (small sample of the acceptance sweep)
        for _ in range(3):
            p, W = random_pair(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            for alpha in ALPHAS:
                agg = q_log_aggregator(1.0 / alpha)
                v = cond_vulnerability(p, W, soft01_gain(), agg, agg, cfg=cfg).value
                rhs = math.exp(-cond_renyi_entropy("arimoto", p, W, alpha))
                assert abs(v - rhs) <= 1e-6 * max(1.0, rhs)
                hagg = q_log_aggregator(alpha)
                h = cond_vulnerability(p, W, power_loss(alpha), hagg, hagg,
                                       sense="loss", cfg=cfg).value
                rhs_h = math.exp(cond_renyi_entropy("hayashi", p, W, alpha))
                assert abs(h - rhs_h) <= 1e-6 * max(1.0, rhs_h)

    def test_coupled_tuples_optimize(self, rng, cfg):
        p, W = random_pair(rng, 2, 3)
        for alpha in (0.6, 2.0):
            spec = leakage_spec_for("augustin_csiszar", p, alpha)
            v = cond_vulnerability(p, W, spec.gain, spec.phi, spec.psi,
                                   method="optimize", cfg=cfg).value
            rhs = math.exp(-cond_renyi_entropy("augustin_csiszar", p, W, alpha, cfg=cfg))
            assert abs(v - rhs) <= 1e-3 * max(1.0, rhs)
            lspec = leakage_spec_for("lapidoth_pfister", p, alpha)
            v = cond_vulnerability(lspec.prior, W, lspec.gain, lspec.phi, lspec.psi,
                                   method="optimize", cfg=cfg).value
            rhs = math.exp(-cond_renyi_entropy("lapidoth_pfister", p, W, alpha, cfg=cfg))
            assert abs(v - rhs) <= 1e-3 * max(1.0, rhs)

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (2.0, 1.0), (1.0, 5.0)])
    def test_power_score_under_affine_generators(self, a, b):
        # every affine generator's mean is the arithmetic mean, so the
        # numeric routes must give the closed value whatever a and b are
        p = make_pmf([0.5, 0.3, 0.2])
        W = make_channel([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        phi = linear_aggregator(a, b)
        g = power_score_gain(2.0)
        closed = cond_vulnerability(p, W, g, phi, phi, method="closed_form").value
        assert abs(closed - 0.450740296118) < 1e-12
        assert abs(cond_vulnerability(p, W, g, phi, phi, method="optimize").value
                   - closed) < 1e-10
        oracle = cond_vulnerability(p, W, g, phi, phi, method="oracle").value
        assert abs(oracle - closed) <= p.n * OptimizerConfig().grid_resolution

    def test_generic_mixed_oracle_at_boundary_rules(self):
        # a zero entry of a grid rule makes the power score infinite below
        # order 1; floored rules keep the oracle finite and near the optimum
        p = make_pmf([0.5, 0.3, 0.2])
        W = make_channel([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        args = (power_score_gain(0.5), log_aggregator(), q_log_aggregator(2.0))
        grid = OptimizerConfig(grid_resolution=0.1)
        oracle = cond_vulnerability(p, W, *args, method="oracle", cfg=grid).value
        optimized = cond_vulnerability(p, W, *args, method="optimize").value
        assert math.isfinite(oracle)
        assert abs(oracle - optimized) <= 3 * grid.grid_resolution

    def test_rule_is_posterior_argmax_of_transformed_gain(self, rng):
        # with matching increasing generators the recorded action at each
        # observation maximizes the posterior mean of phi(gain)
        from alphaleak import compose_joint

        p, W = random_pair(rng, 3, 2)
        agg = q_log_aggregator(0.5)
        res = cond_vulnerability(p, W, soft01_gain(), agg, agg)
        joint = compose_joint(p, W)
        grid = simplex_grid(3, 5e-3)
        for y in range(W.n_y):
            pi = joint.posteriors[y]
            with np.errstate(divide="ignore"):
                vals = np.asarray(
                    [(pi * np.asarray([agg.forward(max(v, 1e-300)) for v in row])).sum()
                     for row in grid])
            best = grid[int(np.argmax(vals))]
            assert np.abs(best - res.rule.matrix[y]).sum() < 0.02

    def test_affine_reparameterization_keeps_argmax(self, rng, cfg):
        p, W = random_pair(rng, 2, 2)
        base = q_log_aggregator(2.0)
        scaled = affine_transform(base, 2.5, -0.75)
        r1 = cond_vulnerability(p, W, soft01_gain(), base, base,
                                method="optimize", cfg=cfg)
        r2 = cond_vulnerability(p, W, soft01_gain(), scaled, scaled,
                                method="optimize", cfg=cfg)
        assert np.abs(r1.rule.matrix - r2.rule.matrix).max() < 1e-4
        assert abs(r1.value - r2.value) < 1e-6


class TestPosteriorHat:
    def test_identity_channel_one(self, identity_channel):
        p = make_pmf([0.4, 0.6])
        v = posterior_vulnerability_hat(p, identity_channel, soft01_gain(),
                                        log_aggregator(), q_log_aggregator(0.5))
        assert abs(v - 1.0) < 1e-12

    def test_matching_generators_agree(self, rng, cfg):
        for _ in range(5):
            p, W = random_pair(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            for alpha in (0.5, 2.0):
                agg = q_log_aggregator(1.0 / alpha)
                lhs = cond_vulnerability(p, W, soft01_gain(), agg, agg, cfg=cfg).value
                rhs = posterior_vulnerability_hat(p, W, soft01_gain(), agg, agg, cfg=cfg)
                assert abs(lhs - rhs) <= 1e-9

    def test_mixed_generators_differ_generically(self, rng, cfg):
        p, W = random_pair(rng, 3, 3)
        phi, psi = log_aggregator(), q_log_aggregator(0.5)
        hat = posterior_vulnerability_hat(p, W, soft01_gain(), phi, psi, cfg=cfg)
        cond = cond_vulnerability(p, W, soft01_gain(), phi, psi,
                                  method="optimize", cfg=cfg).value
        # no direction is asserted, only that the two notions differ here
        assert abs(hat - cond) > 1e-6


class TestGLeakage:
    def test_constant_channel_zero(self, constant_channel):
        p = make_pmf([0.3, 0.7])
        for variant in ("shannon", "arimoto", "hayashi"):
            spec = leakage_spec_for(variant, p, 2.0)
            assert abs(g_leakage(spec, constant_channel)) < 1e-10

    def test_gain_sense_nonnegative(self, rng, cfg):
        for _ in range(5):
            p, W = random_pair(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            for alpha in ALPHAS:
                for variant in ("arimoto", "sibson"):
                    spec = leakage_spec_for(variant, p, alpha)
                    assert g_leakage(spec, W, cfg=cfg) >= -1e-9

    def test_bsc_arimoto(self, bsc):
        p, W = bsc
        spec = leakage_spec_for("arimoto", p, 2.0)
        assert abs(g_leakage(spec, W) - 0.4946962418361073) < 1e-9

    def test_degenerate_prior_raises(self, bsc):
        p, W = bsc
        # transformed gain has nonpositive vulnerability; a ratio of
        # vulnerabilities is meaningless there
        spec = LeakageSpec(p, linear_aggregator(), linear_aggregator(),
                           transformed_gain(2.0), "gain")
        with pytest.raises(DegenerateVulnerability):
            g_leakage(spec, W)

    @pytest.mark.parametrize("method", ["auto", "optimize"])
    @pytest.mark.parametrize("variant", ["arimoto", "sibson", "augustin_csiszar", "hayashi",
                                         "lapidoth_pfister"])
    def test_sense_none_takes_the_sense_of_the_gain(self, variant, method):
        # the vulnerabilities read sense=None as the gain's own sense, and so
        # must the ratio: on both generator branches it was log(vp / vc) for
        # the gain-sense tuples, e.g. -0.24023506483676726 for Arimoto at
        # order 2 on this input instead of 0.24023506483676735
        p = make_pmf([0.2, 0.3, 0.5])
        W = make_channel([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        s = leakage_spec_for(variant, p, 2.0)
        unset = LeakageSpec(s.prior, s.phi, s.psi, s.gain, None)
        assert g_leakage(unset, W, method).hex() == g_leakage(s, W, method).hex()
        assert g_leakage(unset, W, method) > 0.2

    def test_point_mass_prior_leaks_nothing(self, bsc):
        _, W = bsc
        p = make_pmf([1.0, 0.0])
        for variant in ("shannon", "arimoto"):
            spec = leakage_spec_for(variant, p, 2.0)
            assert abs(g_leakage(spec, W)) < 1e-12


class TestMiViaLeakage:
    def test_constant_channel_all_zero(self, constant_channel):
        p = make_pmf([0.2, 0.8])
        for variant in MiVariant:
            for alpha in (0.6, 2.0):
                assert abs(alpha_mi_via_leakage(variant, p, constant_channel, alpha)) < 1e-9

    def test_identities_small_sample(self, rng, cfg):
        for _ in range(2):
            p, W = random_pair(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            for alpha in ALPHAS:
                for variant in MiVariant:
                    if variant is MiVariant.LAPIDOTH_PFISTER and alpha <= 0.5:
                        continue
                    coupled = variant in (MiVariant.AUGUSTIN_CSISZAR,
                                          MiVariant.LAPIDOTH_PFISTER)
                    lhs = alpha_mi_via_leakage(
                        variant, p, W, alpha,
                        method="optimize" if coupled else "auto", cfg=cfg)
                    rhs = alpha_mi(variant, p, W, alpha, cfg=cfg)
                    tol = 1e-3 if coupled else 1e-6
                    assert abs(lhs - rhs) <= tol * max(1.0, rhs), (variant, alpha)

    def test_bsc_value(self, bsc):
        p, W = bsc
        assert abs(alpha_mi_via_leakage("arimoto", p, W, 2.0) - 0.49469624) < 1e-7

    @pytest.mark.parametrize("alpha", [50.0, 1000.0])
    def test_hayashi_at_high_order(self, alpha):
        p = make_pmf([0.2, 0.3, 0.5])
        W = make_channel([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        assert abs(alpha_mi_via_leakage("hayashi", p, W, alpha)
                   - alpha_mi("hayashi", p, W, alpha)) < 1e-6

    def test_alpha_one_dispatch(self, bsc):
        p, W = bsc
        base = shannon_measures(p, W).mutual_information
        for variant in MiVariant:
            assert abs(alpha_mi_via_leakage(variant, p, W, 1.0) - base) < 1e-12


class TestArrowPratt:
    def test_closed_values(self):
        assert arrow_pratt(2.0, 0.5) == 1.0
        assert arrow_pratt(1.0, 1.0) == 1.0

    def test_finite_diff_agreement(self):
        for alpha in (0.5, 1.0, 2.0, 5.0):
            for r in np.linspace(0.05, 1.0, 20):
                closed = arrow_pratt(alpha, float(r), "closed")
                fd = arrow_pratt(alpha, float(r), "finite_diff")
                assert abs(closed - fd) < 1e-4, (alpha, r)

    def test_decreasing_in_alpha(self):
        for r in (0.05, 0.3, 1.0):
            vals = [arrow_pratt(a, r) for a in (0.5, 1.0, 2.0, 5.0)]
            assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            arrow_pratt(2.0, 0.0)
        with pytest.raises(DomainError):
            arrow_pratt(2.0, 5e-4, "finite_diff")
        with pytest.raises(InvalidOrder):
            arrow_pratt(-1.0, 0.5)


class TestPowerScoreExtremum:
    def test_grid_extremum_is_alpha_norm_power(self, rng):
        grid = simplex_grid(3, 5e-3)
        for _ in range(5):
            p = make_pmf(0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3, renormalize=True)
            for alpha in (0.5, 2.0):
                base = np.maximum(grid, 1e-30) if alpha < 1.0 else grid
                vals = alpha * (base ** (alpha - 1.0) @ p.probs) \
                    + (1.0 - alpha) * (base ** alpha).sum(axis=1)
                extremum = vals.max() if alpha > 1.0 else vals.min()
                target = (p.probs ** alpha).sum()
                assert abs(extremum - target) <= 3 * 5e-3


class TestOraclesOnAZeroMassInput:
    """The grid oracles score the objectives that EG optimizes: on a prior
    with a zero-mass input, and on boundary grid points, every value is
    finite and within n_x * resolution of its closed form."""

    P = make_pmf([0.0, 0.4, 0.6])
    W = make_channel([[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.0, 0.3, 0.7]])

    @pytest.mark.parametrize("alpha", [0.3, 0.6])
    def test_augustin_csiszar_alpha_mi(self, alpha):
        cfg = OptimizerConfig()
        oracle = alpha_mi("augustin_csiszar", self.P, self.W, alpha, "oracle", cfg)
        closed = alpha_mi("augustin_csiszar", self.P, self.W, alpha)
        assert math.isfinite(oracle)
        assert abs(oracle - closed) <= self.P.n * cfg.grid_resolution

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.08])
    def test_augustin_csiszar_via_leakage_at_tiny_orders(self, alpha):
        # below order about 0.09 the floored power 1e-30**beta overflows; a
        # zero channel entry takes its power at R = 1, so its term is 0
        # and not 0 * inf (the overflow warnings of the floor remain)
        cfg = OptimizerConfig(grid_resolution=0.1)
        with np.errstate(over="ignore"):
            oracle = alpha_mi_via_leakage("augustin_csiszar", self.P, self.W, alpha, "oracle",
                                          cfg)
        closed = alpha_mi("augustin_csiszar", self.P, self.W, alpha)
        assert math.isfinite(oracle)
        assert abs(oracle - closed) <= self.P.n * cfg.grid_resolution

    def test_soft01_log_cond_vulnerability(self):
        cfg = OptimizerConfig()
        args = (self.P, self.W, soft01_gain(), log_aggregator(), log_aggregator())
        oracle = cond_vulnerability(*args, method="oracle", cfg=cfg).value
        closed = cond_vulnerability(*args).value
        assert math.isfinite(oracle)
        assert abs(oracle - closed) <= self.P.n * cfg.grid_resolution

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("probs", [[0.2, 0.3, 0.5], [0.0, 0.4, 0.6]])
    def test_power_loss_prior_vulnerability(self, alpha, probs):
        # the boundary grid points, where the power score is infinite or
        # zero, are scored by the power-score objective
        p, cfg = make_pmf(probs), OptimizerConfig()
        args = (p, power_loss(alpha), q_log_aggregator(alpha))
        oracle = prior_vulnerability(*args, method="oracle", cfg=cfg)
        closed = prior_vulnerability(*args)
        assert oracle.method == "oracle" and closed.method == "closed_form"
        assert math.isfinite(oracle.value)
        assert abs(oracle.value - closed.value) <= p.n * cfg.grid_resolution

    def test_power_loss_oracle_floors_only_its_negative_power(self):
        # the zero coordinate of the best grid point is floored under the
        # negative power r**(alpha-1), where its zero posterior mass makes
        # the term 0, and not under the positive power r**alpha, where a
        # floor of 1e-30 added (1 - alpha) * 1e-30**alpha, 7e-10 relative
        # here; the value is a 60-digit mpmath evaluation at [0, .8, .2]
        p = make_pmf([0.0, 0.99341018, 0.00658982])
        res = prior_vulnerability(p, power_loss(0.3), q_log_aggregator(0.3), method="oracle",
                                  cfg=OptimizerConfig(grid_resolution=0.2))
        np.testing.assert_array_equal(res.rule.probs, [0.0, 0.8, 0.2])
        exact = float.fromhex("0x1.af778790dcd4cp+0")
        assert abs(res.value - exact) <= 2.0 * math.ulp(exact)


class TestUnboundedPowerProblems:
    """Below order 1 the power score grows without bound as a coordinate
    of the action goes to 0, so maximizing it, or the power loss, has no
    finite optimum: every method raises before any solve."""

    P = make_pmf([0.2, 0.3, 0.5])
    W = make_channel([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    METHODS = ("auto", "closed_form", "optimize", "oracle")

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("tuple_", ["power_score", "power_loss"])
    def test_gain_sense_below_order_one_raises(self, tuple_, method):
        g, phi = ((power_score_gain(0.3), linear_aggregator()) if tuple_ == "power_score"
                  else (power_loss(0.3), q_log_aggregator(0.3)))
        with pytest.raises(DegenerateVulnerability, match="no finite gain-sense optimum"):
            prior_vulnerability(self.P, g, phi, sense="gain", method=method)
        with pytest.raises(DegenerateVulnerability, match="no finite gain-sense optimum"):
            cond_vulnerability(self.P, self.W, g, phi, phi, sense="gain", method=method)

    def test_decreasing_generator_raises(self):
        # minimizing -g is maximizing g
        with pytest.raises(DegenerateVulnerability):
            prior_vulnerability(self.P, power_score_gain(0.3), linear_aggregator(-1.0),
                                sense="gain", method="optimize")

    def test_bounded_generator_keeps_its_optimum(self):
        # the deformed log of order 2 is bounded above by 1, so the power
        # score's blow-up at the boundary leaves a finite optimum
        res = prior_vulnerability(self.P, power_score_gain(0.3), q_log_aggregator(2.0),
                                  sense="gain", method="optimize")
        assert math.isfinite(res.value) and res.value > 5.0

    @pytest.mark.parametrize("sense", ["gain", "loss"])
    def test_order_two_runs_under_both_senses(self, sense):
        res = prior_vulnerability(self.P, power_score_gain(2.0), linear_aggregator(),
                                  sense=sense, method="optimize")
        assert math.isfinite(res.value)

    def test_one_secret_is_bounded(self):
        res = prior_vulnerability(make_pmf([1.0]), power_score_gain(0.3), linear_aggregator(),
                                  sense="gain")
        assert res.value == pytest.approx(1.0)


class TestPriorIsTheOneRowCase:
    """The prior vulnerability runs the phi = psi body of the conditional
    one on one row, so both share the closed forms and the start rule."""

    # a prior of mass 2.1e-8 in its last symbol: its posteriors drove the
    # deformed-log kernel into a fallback step, after which the parent
    # loop doubled the step from about 1e-17 and stopped far off
    P = make_pmf([0.29138926, 0.708610719, 2.1e-8], renormalize=True)
    W = make_channel([[0.4233, 0.5767], [0.8436, 0.1564], [0.979, 0.021]])

    def test_conditional_optimize_below_order_one_on_a_tiny_mass(self):
        spec = leakage_spec_for("arimoto", self.P, 0.3)
        closed = cond_vulnerability(self.P, self.W, spec.gain, spec.phi, spec.psi,
                                    method="closed_form").value
        assert closed == pytest.approx(0.5284559964, abs=1e-10)
        res = cond_vulnerability(self.P, self.W, spec.gain, spec.phi, spec.psi,
                                 method="optimize")
        assert abs(res.value - closed) <= 1e-9 * closed

    @pytest.mark.parametrize("variant", ["arimoto", "sibson"])
    def test_mutual_information_routes_match_the_closed_form(self, variant):
        closed = alpha_mi(variant, self.P, self.W, 0.3)
        if variant == "arimoto":
            assert closed == pytest.approx(0.0314777286, abs=1e-10)
        for route in (alpha_mi, alpha_mi_via_leakage):
            assert abs(route(variant, self.P, self.W, 0.3, method="optimize") - closed) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0, np.inf])
    def test_conditional_transformed_gain_has_the_closed_form(self, alpha):
        p = make_pmf([0.2, 0.3, 0.5])
        W = make_channel([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        g, lin = transformed_gain(alpha), linear_aggregator()
        auto = cond_vulnerability(p, W, g, lin, lin)
        assert auto.method == "closed_form"
        optimized = cond_vulnerability(p, W, g, lin, lin, method="optimize")
        assert abs(auto.value - optimized.value) <= 1e-6
        # a channel that reveals nothing gives the prior's value
        silent = cond_vulnerability(p, make_channel(np.ones((3, 1))), g, lin, lin)
        prior = prior_vulnerability(p, g, lin)
        assert prior.method == "closed_form"
        assert silent.value == pytest.approx(prior.value, rel=1e-14, abs=1e-15)


class TestTypedErrors:
    P = make_pmf([0.2, 0.3, 0.5])
    W = make_channel([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])

    @pytest.mark.parametrize("entry", [
        lambda p, W, m: prior_vulnerability(p, soft01_gain(), log_aggregator(), method=m),
        lambda p, W, m: cond_vulnerability(p, W, soft01_gain(), log_aggregator(),
                                           log_aggregator(), method=m),
        lambda p, W, m: g_leakage(leakage_spec_for("arimoto", p, 2.0), W, method=m),
        lambda p, W, m: alpha_mi_via_leakage("sibson", p, W, 2.0, method=m),
        lambda p, W, m: alpha_mi("sibson", p, W, 2.0, method=m),
        lambda p, W, m: cond_renyi_entropy("arimoto", p, W, 2.0, method=m),
    ], ids=["prior_vulnerability", "cond_vulnerability", "g_leakage",
            "alpha_mi_via_leakage", "alpha_mi", "cond_renyi_entropy"])
    def test_unknown_method_raises(self, entry, monkeypatch):
        solves = []
        monkeypatch.setattr(leakage, "_per_observation",
                            lambda *a, **k: solves.append(1) or (0.5, None, 0.0))
        with pytest.raises(UnsupportedVariant):
            entry(self.P, self.W, "fast")
        assert not solves

    @pytest.mark.parametrize("entry", [
        lambda p, W: leakage_spec_for("renyi", p, 2.0),
        lambda p, W: alpha_mi("renyi", p, W, 2.0),
        lambda p, W: alpha_mi_via_leakage("renyi", p, W, 2.0),
    ], ids=["leakage_spec_for", "alpha_mi", "alpha_mi_via_leakage"])
    def test_unknown_variant_raises(self, entry):
        with pytest.raises(UnsupportedVariant):
            entry(self.P, self.W)

    @pytest.mark.parametrize("phi", [log_aggregator(), linear_aggregator()],
                             ids=["log", "linear"])
    def test_nan_vulnerability_raises(self, phi):
        # the power score 2 r(x) - sum r^2 is negative on part of the
        # simplex, outside the domain of the log: the check comes before
        # any solve, so no NaN is computed and no warning is emitted
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="negative values"):
                cond_vulnerability(self.P, self.W, power_score_gain(2.0), phi,
                                   log_aggregator(), method="optimize")

    def test_nan_result_raises(self):
        with pytest.raises(NumericalInconsistency, match="optimize vulnerability is NaN"):
            VulnerabilityResult(value=math.nan, rule=None, method="optimize", residual=0.0)
