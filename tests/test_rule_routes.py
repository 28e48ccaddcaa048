"""The numeric conditional Renyi entropies.

``cond_renyi_entropy(method="optimize" | "oracle")`` is -log of the
conditional vulnerability of the variant's leakage tuple (+log for the
Hayashi loss tuple).  Its values must stay those recorded when each
variant solved its decision-rule problem through a route of its own, but
for the Hayashi optimize values, re-recorded when its power-score
problems started at their posteriors, which must come no farther from
the closed form.
"""

import itertools
import math

import numpy as np
import pytest

from alphaleak import (
    alpha_mi,
    cond_renyi_entropy,
    cond_vulnerability,
    log_aggregator,
    make_channel,
    make_pmf,
    q_log_aggregator,
    simplex_grid,
    soft01_gain,
)
from alphaleak.optimize import OptimizerConfig
from test_kernels import _seeded

# grid resolutions whose rule grids fit the oracle budget on the coupled
# variants: 66**3 rules on the 3x3 instance, 21**4 on the 3x4 one
ORACLE_CFG = {"dense": OptimizerConfig(grid_resolution=0.1),
              "sparse": OptimizerConfig(grid_resolution=0.2)}

# float.hex of cond_renyi_entropy, recorded while each variant had a route
# of its own; the sparse augustin_csiszar oracle values above order 1 are
# those of the best rule of test_rule_oracles_match_a_pointwise_scan
RECORDED = {
    ('optimize', 'sibson', 0.3, 'dense'): '0x1.56af5ce9922b8p-1',
    ('optimize', 'sibson', 0.3, 'sparse'): '0x1.440ce97526bdep-2',
    ('optimize', 'sibson', 0.6, 'dense'): '0x1.89c9d5be8f7a9p-1',
    ('optimize', 'sibson', 0.6, 'sparse'): '0x1.e314934773f7ep-7',
    ('optimize', 'sibson', 2.0, 'dense'): '0x1.b0e09fb262b8fp-1',
    ('optimize', 'sibson', 2.0, 'sparse'): '0x1.830ea5b4152e1p-5',
    ('optimize', 'sibson', 4.0, 'dense'): '0x1.972b960c1c942p-1',
    ('optimize', 'sibson', 4.0, 'sparse'): '0x1.e14900972c89ep-5',
    ('optimize', 'sibson', 10.0, 'dense'): '0x1.5a3302423db26p-1',
    ('optimize', 'sibson', 10.0, 'sparse'): '0x1.166a3e3da2c13p-4',
    ('optimize', 'sibson', 50.0, 'dense'): '0x1.32740991333a4p-1',
    ('optimize', 'sibson', 50.0, 'sparse'): '0x1.2a4dfb6dd4ef5p-4',
    ('optimize', 'arimoto', 0.3, 'dense'): '0x1.f8c99107a1056p-1',
    ('optimize', 'arimoto', 0.3, 'sparse'): '0x1.38ba2358fdee2p-3',
    ('optimize', 'arimoto', 0.6, 'dense'): '0x1.cd0b1a9f97529p-1',
    ('optimize', 'arimoto', 0.6, 'sparse'): '0x1.eb232b4b5fce9p-5',
    ('optimize', 'arimoto', 2.0, 'dense'): '0x1.7316c5bbd18c2p-1',
    ('optimize', 'arimoto', 2.0, 'sparse'): '0x1.0512c1658e2aap-6',
    ('optimize', 'arimoto', 4.0, 'dense'): '0x1.4971f7ce3a328p-1',
    ('optimize', 'arimoto', 4.0, 'sparse'): '0x1.acc18fab7fe22p-7',
    ('optimize', 'arimoto', 10.0, 'dense'): '0x1.25b6bcfb0b581p-1',
    ('optimize', 'arimoto', 10.0, 'sparse'): '0x1.7ee269ae0d613p-7',
    ('optimize', 'arimoto', 50.0, 'dense'): '0x1.10545a2799cdbp-1',
    ('optimize', 'arimoto', 50.0, 'sparse'): '0x1.61e43797032b4p-7',
    ('optimize', 'hayashi', 0.3, 'dense'): '0x1.f22f0c740e39ep-1',
    ('optimize', 'hayashi', 0.3, 'sparse'): '0x1.057d13ff54195p-3',
    ('optimize', 'hayashi', 0.6, 'dense'): '0x1.ca4e6ecd86467p-1',
    ('optimize', 'hayashi', 0.6, 'sparse'): '0x1.dd87292a9b81ep-5',
    ('optimize', 'hayashi', 2.0, 'dense'): '0x1.673de34149516p-1',
    ('optimize', 'hayashi', 2.0, 'sparse'): '0x1.db709f3c14332p-7',
    ('optimize', 'hayashi', 4.0, 'dense'): '0x1.11f845707fa68p-1',
    ('optimize', 'hayashi', 4.0, 'sparse'): '0x1.26f7e35c12559p-7',
    ('optimize', 'hayashi', 10.0, 'dense'): '0x1.49bfb24558239p-2',
    ('optimize', 'hayashi', 10.0, 'sparse'): '0x1.53adc11ffe312p-8',
    ('optimize', 'hayashi', 50.0, 'dense'): '0x1.193ea7aad030bp+0',
    ('optimize', 'hayashi', 50.0, 'sparse'): '0x1.193ea7aad030bp+0',
    ('optimize', 'augustin_csiszar', 0.3, 'dense'): '0x1.c4b57ae08e6eap-1',
    ('optimize', 'augustin_csiszar', 0.3, 'sparse'): '0x1.167b8a6c786d6p-4',
    ('optimize', 'augustin_csiszar', 0.6, 'dense'): '0x1.b51666efa3002p-1',
    ('optimize', 'augustin_csiszar', 0.6, 'sparse'): '0x1.7f782c5072106p-5',
    ('optimize', 'augustin_csiszar', 2.0, 'dense'): '0x1.90ae9b934c128p-1',
    ('optimize', 'augustin_csiszar', 2.0, 'sparse'): '0x1.1718ad8613642p-6',
    ('optimize', 'augustin_csiszar', 4.0, 'dense'): '0x1.7e121f94e9421p-1',
    ('optimize', 'augustin_csiszar', 4.0, 'sparse'): '0x1.c156b795ce552p-7',
    ('optimize', 'augustin_csiszar', 10.0, 'dense'): '0x1.6d68ee1b0c846p-1',
    ('optimize', 'augustin_csiszar', 10.0, 'sparse'): '0x1.879135d5b5dd0p-7',
    ('optimize', 'augustin_csiszar', 50.0, 'dense'): '0x1.6032704864cdap-1',
    ('optimize', 'augustin_csiszar', 50.0, 'sparse'): '0x1.68405685a5777p-7',
    ('optimize', 'lapidoth_pfister', 0.6, 'dense'): '0x1.51c4f5022e349p-1',
    ('optimize', 'lapidoth_pfister', 0.6, 'sparse'): '0x1.28a6b3a67283dp-8',
    ('optimize', 'lapidoth_pfister', 2.0, 'dense'): '0x1.a6f8a080a9595p-1',
    ('optimize', 'lapidoth_pfister', 2.0, 'sparse'): '0x1.0e44ee1adf0dcp-5',
    ('optimize', 'lapidoth_pfister', 4.0, 'dense'): '0x1.9714338b3dcb8p-1',
    ('optimize', 'lapidoth_pfister', 4.0, 'sparse'): '0x1.d07ea9fd907b3p-6',
    ('optimize', 'lapidoth_pfister', 10.0, 'dense'): '0x1.850af5d98ac4bp-1',
    ('optimize', 'lapidoth_pfister', 10.0, 'sparse'): '0x1.aca70963377bfp-6',
    ('optimize', 'lapidoth_pfister', 50.0, 'dense'): '0x1.775daa31e4c91p-1',
    ('optimize', 'lapidoth_pfister', 50.0, 'sparse'): '0x1.9d7db6b7ec39fp-6',
    ('oracle', 'sibson', 0.3, 'dense'): '0x1.6916110a01a31p-1',
    ('oracle', 'sibson', 0.3, 'sparse'): '0x1.84355b3b2e237p-4',
    ('oracle', 'sibson', 0.6, 'dense'): '0x1.984b33d65b7a5p-1',
    ('oracle', 'sibson', 0.6, 'sparse'): '0x1.65e5789b9aca0p-4',
    ('oracle', 'sibson', 2.0, 'dense'): '0x1.b39fa432a16d2p-1',
    ('oracle', 'sibson', 2.0, 'sparse'): '0x1.91c90dcf77abep-5',
    ('oracle', 'sibson', 4.0, 'dense'): '0x1.98b89b6c221cdp-1',
    ('oracle', 'sibson', 4.0, 'sparse'): '0x1.e19fdaa283bfep-5',
    ('oracle', 'sibson', 10.0, 'dense'): '0x1.5a7fde711a2eep-1',
    ('oracle', 'sibson', 10.0, 'sparse'): '0x1.166a479c9e99dp-4',
    ('oracle', 'sibson', 50.0, 'dense'): '0x1.3274099131f0cp-1',
    ('oracle', 'sibson', 50.0, 'sparse'): '0x1.2a4dfb6db40edp-4',
    ('oracle', 'arimoto', 0.3, 'dense'): '0x1.fd98879d35df6p-1',
    ('oracle', 'arimoto', 0.3, 'sparse'): '0x1.3f0f564c964fap-3',
    ('oracle', 'arimoto', 0.6, 'dense'): '0x1.d5a7fb78032adp-1',
    ('oracle', 'arimoto', 0.6, 'sparse'): '0x1.a94632cc1dd9cp-4',
    ('oracle', 'arimoto', 2.0, 'dense'): '0x1.785aecafee772p-1',
    ('oracle', 'arimoto', 2.0, 'sparse'): '0x1.05adace2e3fcdp-6',
    ('oracle', 'arimoto', 4.0, 'dense'): '0x1.4baf79c6f8c1ep-1',
    ('oracle', 'arimoto', 4.0, 'sparse'): '0x1.ad8943de5883ep-7',
    ('oracle', 'arimoto', 10.0, 'dense'): '0x1.25d8a1ef61510p-1',
    ('oracle', 'arimoto', 10.0, 'sparse'): '0x1.81593789f194ep-7',
    ('oracle', 'arimoto', 50.0, 'dense'): '0x1.10555c27cd530p-1',
    ('oracle', 'arimoto', 50.0, 'sparse'): '0x1.61e4383ac3bcfp-7',
    ('oracle', 'hayashi', 0.3, 'dense'): '0x1.03f5f0ef8215ep+0',
    ('oracle', 'hayashi', 0.3, 'sparse'): '0x1.c01a7e8172ea4p-3',
    ('oracle', 'hayashi', 0.6, 'dense'): '0x1.e282aa662cf59p-1',
    ('oracle', 'hayashi', 0.6, 'sparse'): '0x1.3570b46ed3272p-3',
    ('oracle', 'hayashi', 2.0, 'dense'): '0x1.6923e507e6e0bp-1',
    ('oracle', 'hayashi', 2.0, 'sparse'): '0x1.de6234f91a68ep-7',
    ('oracle', 'hayashi', 4.0, 'dense'): '0x1.14de9f76e54a1p-1',
    ('oracle', 'hayashi', 4.0, 'sparse'): '0x1.294a2ebf96b59p-7',
    ('oracle', 'hayashi', 10.0, 'dense'): '0x1.595e1f2f0d96fp-2',
    ('oracle', 'hayashi', 10.0, 'sparse'): '0x1.5bf444daa6a14p-8',
    ('oracle', 'hayashi', 50.0, 'dense'): '0x1.cc6fa90e0f28dp-3',
    ('oracle', 'hayashi', 50.0, 'sparse'): '0x1.dd117d8821b45p-9',
    ('oracle', 'augustin_csiszar', 0.3, 'dense'): '0x1.ccc1a84108628p-1',
    ('oracle', 'augustin_csiszar', 0.3, 'sparse'): '0x1.e48bdc52d90a4p-4',
    ('oracle', 'augustin_csiszar', 0.6, 'dense'): '0x1.c04e12574581dp-1',
    ('oracle', 'augustin_csiszar', 0.6, 'sparse'): '0x1.a08782c0a42a7p-4',
    ('oracle', 'augustin_csiszar', 2.0, 'dense'): '0x1.942be48724cfep-1',
    ('oracle', 'augustin_csiszar', 2.0, 'sparse'): '0x1.19b73f22fde90p-6',
    ('oracle', 'augustin_csiszar', 4.0, 'dense'): '0x1.7f8a6ddc50965p-1',
    ('oracle', 'augustin_csiszar', 4.0, 'sparse'): '0x1.c34bb21277952p-7',
    ('oracle', 'augustin_csiszar', 10.0, 'dense'): '0x1.6dfecfb971b81p-1',
    ('oracle', 'augustin_csiszar', 10.0, 'sparse'): '0x1.88460e8f61ebap-7',
    ('oracle', 'augustin_csiszar', 50.0, 'dense'): '0x1.603b453b25f6dp-1',
    ('oracle', 'augustin_csiszar', 50.0, 'sparse'): '0x1.68405683ad877p-7',
    ('oracle', 'lapidoth_pfister', 0.6, 'dense'): '0x1.66b1e7461f7eap-1',
    ('oracle', 'lapidoth_pfister', 0.6, 'sparse'): '0x1.5b1cd3b19b687p-4',
    ('oracle', 'lapidoth_pfister', 2.0, 'dense'): '0x1.a8bd44c34199dp-1',
    ('oracle', 'lapidoth_pfister', 2.0, 'sparse'): '0x1.1d1e1c19e49c0p-5',
    ('oracle', 'lapidoth_pfister', 4.0, 'dense'): '0x1.97e5cb4716251p-1',
    ('oracle', 'lapidoth_pfister', 4.0, 'sparse'): '0x1.d09c6f78d8afbp-6',
    ('oracle', 'lapidoth_pfister', 10.0, 'dense'): '0x1.86005689330c8p-1',
    ('oracle', 'lapidoth_pfister', 10.0, 'sparse'): '0x1.aca70963b5826p-6',
    ('oracle', 'lapidoth_pfister', 50.0, 'dense'): '0x1.7784ecef83d72p-1',
    ('oracle', 'lapidoth_pfister', 50.0, 'sparse'): '0x1.9d7db6b762a97p-6',
}


# float.hex of the Hayashi optimize values re-recorded when the
# per-observation power-score problems started at their posteriors; each
# must lie at least as close to the closed form as the RECORDED value it
# replaced (at orders 0.3 and 0.6 the sparse rows keep the error of the
# EPS floor of the iterates on a zero-mass symbol)
POSTERIOR_STARTS = {
    ('optimize', 'hayashi', 0.3, 'dense'): '0x1.f22f0c7337af8p-1',
    ('optimize', 'hayashi', 0.3, 'sparse'): '0x1.057d13f9b651ap-3',
    ('optimize', 'hayashi', 0.6, 'dense'): '0x1.ca4e6ecae50e6p-1',
    ('optimize', 'hayashi', 0.6, 'sparse'): '0x1.dd872929dbe47p-5',
    ('optimize', 'hayashi', 2.0, 'dense'): '0x1.673de33b7e1e9p-1',
    ('optimize', 'hayashi', 2.0, 'sparse'): '0x1.db70976891357p-7',
    ('optimize', 'hayashi', 4.0, 'dense'): '0x1.11f84501f1079p-1',
    ('optimize', 'hayashi', 4.0, 'sparse'): '0x1.26f7e1397b8cbp-7',
    ('optimize', 'hayashi', 10.0, 'dense'): '0x1.49bfb1fb4271ep-2',
    ('optimize', 'hayashi', 10.0, 'sparse'): '0x1.53adbfcc6abb0p-8',
    ('optimize', 'hayashi', 50.0, 'dense'): '0x1.8136ef3ab8311p-3',
    ('optimize', 'hayashi', 50.0, 'sparse'): '0x1.8aaa083f69ed4p-9',
}


def _pmf_channel(kind):
    p, W, _ = _seeded(kind)
    return make_pmf(p), make_channel(W)


@pytest.mark.parametrize("key", sorted(RECORDED), ids=lambda k: "-".join(map(str, k)))
def test_rule_routes_match_recorded(key):
    method, variant, alpha, kind = key
    cfg = ORACLE_CFG[kind] if method == "oracle" else OptimizerConfig()
    value = cond_renyi_entropy(variant, *_pmf_channel(kind), alpha, method, cfg)
    expected = float.fromhex(RECORDED[key])
    if key in POSTERIOR_STARTS:
        assert value.hex() == POSTERIOR_STARTS[key]
        closed = cond_renyi_entropy(variant, *_pmf_channel(kind), alpha)
        assert abs(value - closed) <= abs(expected - closed) + 1e-12 * abs(closed)
    elif method == "optimize" and variant in ("augustin_csiszar", "lapidoth_pfister"):
        # the leakage route adds the constant prior-optimal rule as one more
        # start, and starts the product-divergence rule at the posteriors of
        # the tilted prior, so the optimum is reached from other points
        assert value == pytest.approx(expected, rel=0.0, abs=1e-8)
    else:
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("alpha", [100.0, 1000.0])
def test_hayashi_oracle_at_high_order(kind, alpha):
    # the mean power score falls far below 1e-16 here; its 1/(1-alpha)
    # power must not go through 1 + (1-alpha) * (deformed-log mean)
    p, W = _pmf_channel(kind)
    cfg = OptimizerConfig()
    closed = cond_renyi_entropy("hayashi", p, W, alpha)
    oracle = cond_renyi_entropy("hayashi", p, W, alpha, "oracle", cfg)
    assert abs(oracle - closed) <= p.n * cfg.grid_resolution


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
@pytest.mark.parametrize("alpha", [20.0, 70.0, 200.0, 1000.0])
def test_hayashi_optimize_at_high_order(shape, alpha):
    # from uniform the power-score problems stalled here, off by up to a
    # nat, or reached a mean score of 0 and returned inf; from each
    # posterior, their optimum, they stop at it
    rng = np.random.default_rng(5)
    for _ in range(4):
        p = make_pmf(rng.dirichlet(np.ones(shape[0])))
        W = make_channel(rng.dirichlet(np.ones(shape[1]), size=shape[0]))
        value = alpha_mi("hayashi", p, W, alpha, method="optimize")
        assert math.isfinite(value)
        assert abs(value - alpha_mi("hayashi", p, W, alpha)) <= 1e-12


@pytest.mark.parametrize("variant", ["sibson", "arimoto", "hayashi", "augustin_csiszar",
                                     "lapidoth_pfister"])
@pytest.mark.parametrize("alpha", [1.0 - 1e-5, 1.0 + 1e-5])
def test_optimize_route_just_off_order_one(variant, alpha):
    # orders within 1e-4 of one, outside the order-1 dispatch, need deformed
    # logs whose round trip holds there; the power score is flat in the
    # action to within |1 - alpha|, so its problems start at their optimum
    p, W = _pmf_channel("dense")
    closed = cond_renyi_entropy(variant, p, W, alpha)
    assert math.isclose(cond_renyi_entropy(variant, p, W, alpha, "optimize"), closed,
                        rel_tol=0.0, abs_tol=1e-6)


def _pointwise_rule_scan(p, W, alpha, tuple_, resolution):
    """(best value, best rule) of the inner objective of the AC or LP tuple
    over every rule of the grid, in lexicographic order, each rule's value
    summed term by term over the inputs of positive mass (a grid point
    under a negative power is floored at 1e-30, as the oracles floor it)."""
    grid = simplex_grid(p.size, resolution)
    beta = 1.0 - 1.0 / alpha
    qt = alpha / (2.0 * alpha - 1.0)
    base = np.maximum(grid, 1e-30) if beta < 0.0 else grid
    # terms[x][y][i] = W[x, y] * r(x)**beta, r grid point i, the action at y
    terms = [[(W[x, y] * base[:, x] ** beta).tolist() for y in range(W.shape[1])]
             for x in np.flatnonzero(p > 0.0)]
    mass = p[p > 0.0].tolist()
    best, best_combo = None, None
    for combo in itertools.product(range(len(grid)), repeat=W.shape[1]):
        S = [sum(t[i] for t, i in zip(tx, combo)) for tx in terms]
        if tuple_ == "ac":
            v = sum(m * (math.log(s) if s > 0.0 else -math.inf) for m, s in zip(mass, S))
        else:
            total = sum(m * s ** qt for m, s in zip(mass, S))
            v = math.log(total) if total > 0.0 else -math.inf
        if best is None or (v > best if alpha > 1.0 else v < best):
            best, best_combo = v, combo
    return best, grid[list(best_combo)]


@pytest.mark.parametrize("tuple_, alpha", [("ac", 0.6), ("ac", 2.0), ("ac", 4.0),
                                           ("ac", 10.0), ("ac", 50.0), ("lp", 0.6),
                                           ("lp", 2.0), ("lp", 10.0)])
def test_rule_oracles_match_a_pointwise_scan(tuple_, alpha):
    # the sparse instance has a zero-mass input: its terms must count 0,
    # never 0 * log 0, at every rule
    p, W, _ = _seeded("sparse")
    cfg = ORACLE_CFG["sparse"]
    best, rule = _pointwise_rule_scan(p, W, alpha, tuple_, cfg.grid_resolution)
    if tuple_ == "ac":
        phi, expected = log_aggregator(), math.exp(alpha / (alpha - 1.0) * best)
    else:
        qt = alpha / (2.0 * alpha - 1.0)
        phi, expected = q_log_aggregator(qt), math.exp(best / (1.0 - qt))
    res = cond_vulnerability(make_pmf(p), make_channel(W), soft01_gain(), phi,
                             q_log_aggregator(1.0 / alpha), method="oracle", cfg=cfg)
    assert res.value == pytest.approx(expected, rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(res.rule.matrix, rule)
