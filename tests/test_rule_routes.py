"""The numeric conditional Renyi entropies, pinned.

``cond_renyi_entropy(method="optimize" | "oracle")`` is -log of the
conditional vulnerability of the variant's leakage tuple (+log for the
Hayashi loss tuple).  ``PINS`` holds ``float.hex`` of both routes on the
seeded instances and the distance to the closed form, that is
``cond_renyi_entropy`` by its default method; the Lapidoth-Pfister closed
form raises ``ConvergenceFailure`` at order 50 on the sparse instance, so
those two keys have none.  The sparse Hayashi oracle at order 0.3 also
pins its grid rule, and its source is a 60-digit mpmath evaluation of the
objective at that rule (``MPMATH_VALUE``).  How the table is kept is in
``pins``.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from alphaleak import (
    alpha_mi,
    alpha_mi_via_leakage,
    cond_renyi_entropy,
    cond_vulnerability,
    leakage_spec_for,
    log_aggregator,
    make_channel,
    make_pmf,
    q_log_aggregator,
    simplex_grid,
    soft01_gain,
)
from alphaleak.optimize import OptimizerConfig
from pins import assert_pin, closed_form, outcome, pin_id, seeded

# grid resolutions whose rule grids fit the oracle budget on the coupled
# variants: 66**3 rules on the 3x3 instance, 21**4 on the 3x4 one
ORACLE_CFG = {"dense": OptimizerConfig(grid_resolution=0.1),
              "sparse": OptimizerConfig(grid_resolution=0.2)}

# key -> (value[, grid rule], source, distance); the sparse augustin_csiszar
# oracle values above order 1 are those of the best rule of
# test_rule_oracles_match_a_pointwise_scan
PINS = {
    ('optimize', 'arimoto', 0.3, 'dense'): ('0x1.f8c9910799979p-1', 'cond_renyi_entropy', 1.4e-12),
    ('optimize', 'arimoto', 0.3, 'sparse'):
        ('0x1.38ba2358fdfa6p-3', 'cond_renyi_entropy', 1.6e-12),
    ('optimize', 'arimoto', 0.6, 'dense'): ('0x1.cd0b1a9f661fcp-1', 'cond_renyi_entropy', 5.9e-15),
    ('optimize', 'arimoto', 0.6, 'sparse'):
        ('0x1.eb232b01a38edp-5', 'cond_renyi_entropy', 1.7e-12),
    ('optimize', 'arimoto', 2.0, 'dense'): ('0x1.7316c5ba32e9ap-1', 'cond_renyi_entropy', 7e-14),
    ('optimize', 'arimoto', 2.0, 'sparse'): ('0x1.0512c1658e2a7p-6', 'cond_renyi_entropy', 6e-12),
    ('optimize', 'arimoto', 4.0, 'dense'): ('0x1.4971f7ce1984dp-1', 'cond_renyi_entropy', 1.7e-12),
    ('optimize', 'arimoto', 4.0, 'sparse'):
        ('0x1.acc18fab7fe0dp-7', 'cond_renyi_entropy', 1.7e-12),
    ('optimize', 'arimoto', 10.0, 'dense'):
        ('0x1.25b6bcfb0aa92p-1', 'cond_renyi_entropy', 3.1e-12),
    ('optimize', 'arimoto', 10.0, 'sparse'): ('0x1.7ee269ae0d5d1p-7', 'cond_renyi_entropy', 2e-12),
    ('optimize', 'arimoto', 50.0, 'dense'):
        ('0x1.10545a2799cdbp-1', 'cond_renyi_entropy', 9.1e-13),
    ('optimize', 'arimoto', 50.0, 'sparse'):
        ('0x1.61e437970325fp-7', 'cond_renyi_entropy', 3.4e-11),
    ('optimize', 'augustin_csiszar', 0.3, 'dense'):
        ('0x1.c4b57ae09ac91p-1', 'cond_renyi_entropy', 7.4e-12),
    ('optimize', 'augustin_csiszar', 0.3, 'sparse'):
        ('0x1.167b8a6e1dd0dp-4', 'cond_renyi_entropy', 4.8e-11),
    ('optimize', 'augustin_csiszar', 0.6, 'dense'):
        ('0x1.b51666ef9f76bp-1', 'cond_renyi_entropy', 3.2e-13),
    ('optimize', 'augustin_csiszar', 0.6, 'sparse'):
        ('0x1.7f782c510beafp-5', 'cond_renyi_entropy', 2.7e-10),
    ('optimize', 'augustin_csiszar', 2.0, 'dense'):
        ('0x1.90ae9b927565cp-1', 'cond_renyi_entropy', 1.2e-11),
    ('optimize', 'augustin_csiszar', 2.0, 'sparse'):
        ('0x1.1718ad9bb6d56p-6', 'cond_renyi_entropy', 5.3e-10),
    ('optimize', 'augustin_csiszar', 4.0, 'dense'):
        ('0x1.7e121f94fd4d1p-1', 'cond_renyi_entropy', 1.7e-11),
    ('optimize', 'augustin_csiszar', 4.0, 'sparse'):
        ('0x1.c156b7b30946ap-7', 'cond_renyi_entropy', 2.2e-10),
    ('optimize', 'augustin_csiszar', 10.0, 'dense'):
        ('0x1.6d68ee1be4fcbp-1', 'cond_renyi_entropy', 1.6e-10),
    ('optimize', 'augustin_csiszar', 10.0, 'sparse'):
        ('0x1.879135d5b5dbfp-7', 'cond_renyi_entropy', 5e-11),
    ('optimize', 'augustin_csiszar', 50.0, 'dense'):
        ('0x1.6032704a9ce57p-1', 'cond_renyi_entropy', 5.2e-10),
    ('optimize', 'augustin_csiszar', 50.0, 'sparse'):
        ('0x1.68405685e8daap-7', 'cond_renyi_entropy', 7.1e-10),
    ('optimize', 'hayashi', 0.3, 'dense'): ('0x1.f22f0c7337af8p-1', 'cond_renyi_entropy', 2.3e-16),
    ('optimize', 'hayashi', 0.3, 'sparse'):
        ('0x1.057d13f9b651ap-3', 'cond_renyi_entropy', 0.00038),
    ('optimize', 'hayashi', 0.6, 'dense'): ('0x1.ca4e6ecae50e6p-1', 'cond_renyi_entropy', 0.0),
    ('optimize', 'hayashi', 0.6, 'sparse'):
        ('0x1.dd872929dbe47p-5', 'cond_renyi_entropy', 1.1e-07),
    ('optimize', 'hayashi', 2.0, 'dense'): ('0x1.673de33b7e1e9p-1', 'cond_renyi_entropy', 1.2e-16),
    ('optimize', 'hayashi', 2.0, 'sparse'):
        ('0x1.db70976891357p-7', 'cond_renyi_entropy', 7.2e-17),
    ('optimize', 'hayashi', 4.0, 'dense'): ('0x1.11f84501f1079p-1', 'cond_renyi_entropy', 1.2e-16),
    ('optimize', 'hayashi', 4.0, 'sparse'):
        ('0x1.26f7e1397b8cbp-7', 'cond_renyi_entropy', 5.6e-17),
    ('optimize', 'hayashi', 10.0, 'dense'):
        ('0x1.49bfb1fb4271ep-2', 'cond_renyi_entropy', 1.7e-16),
    ('optimize', 'hayashi', 10.0, 'sparse'):
        ('0x1.53adbfcc6abb0p-8', 'cond_renyi_entropy', 7.3e-17),
    ('optimize', 'hayashi', 50.0, 'dense'): ('0x1.8136ef3ab8311p-3', 'cond_renyi_entropy', 2e-16),
    ('optimize', 'hayashi', 50.0, 'sparse'):
        ('0x1.8aaa083f69ed4p-9', 'cond_renyi_entropy', 1.3e-17),
    ('optimize', 'lapidoth_pfister', 0.6, 'dense'):
        ('0x1.51c4f5023323dp-1', 'cond_renyi_entropy', 2.8e-12),
    ('optimize', 'lapidoth_pfister', 0.6, 'sparse'):
        ('0x1.28a6b3c11afd9p-8', 'cond_renyi_entropy', 3.9e-10),
    ('optimize', 'lapidoth_pfister', 2.0, 'dense'):
        ('0x1.a6f8a08065802p-1', 'cond_renyi_entropy', 5e-13),
    ('optimize', 'lapidoth_pfister', 2.0, 'sparse'):
        ('0x1.0e44ee274fcd0p-5', 'cond_renyi_entropy', 2.2e-10),
    ('optimize', 'lapidoth_pfister', 4.0, 'dense'):
        ('0x1.9714338b40d27p-1', 'cond_renyi_entropy', 5.9e-12),
    ('optimize', 'lapidoth_pfister', 4.0, 'sparse'):
        ('0x1.d07eaa00e2c6bp-6', 'cond_renyi_entropy', 5.2e-11),
    ('optimize', 'lapidoth_pfister', 10.0, 'dense'):
        ('0x1.850af5d9b0ec2p-1', 'cond_renyi_entropy', 8.3e-11),
    ('optimize', 'lapidoth_pfister', 10.0, 'sparse'):
        ('0x1.aca7096337715p-6', 'cond_renyi_entropy', 1.7e-10),
    ('optimize', 'lapidoth_pfister', 50.0, 'dense'):
        ('0x1.775daa313d5a7p-1', 'cond_renyi_entropy', 2.1e-10),
    ('optimize', 'lapidoth_pfister', 50.0, 'sparse'): ('0x1.9d7db6b7ec3a1p-6', None, None),
    ('optimize', 'sibson', 0.3, 'dense'): ('0x1.56af5ce94aeecp-1', 'cond_renyi_entropy', 3.9e-15),
    ('optimize', 'sibson', 0.3, 'sparse'): ('0x1.3239eed40d5f5p-7', 'cond_renyi_entropy', 2e-12),
    ('optimize', 'sibson', 0.6, 'dense'): ('0x1.89c9d5bd894e1p-1', 'cond_renyi_entropy', 1.4e-12),
    ('optimize', 'sibson', 0.6, 'sparse'): ('0x1.e31493404750fp-7', 'cond_renyi_entropy', 1.7e-12),
    ('optimize', 'sibson', 2.0, 'dense'): ('0x1.b0e09fb262b8fp-1', 'cond_renyi_entropy', 9.1e-13),
    ('optimize', 'sibson', 2.0, 'sparse'): ('0x1.830ea599c6217p-5', 'cond_renyi_entropy', 1.7e-12),
    ('optimize', 'sibson', 4.0, 'dense'): ('0x1.972b960a9f5eep-1', 'cond_renyi_entropy', 6.6e-13),
    ('optimize', 'sibson', 4.0, 'sparse'): ('0x1.e1490096e28d1p-5', 'cond_renyi_entropy', 4.4e-12),
    ('optimize', 'sibson', 10.0, 'dense'): ('0x1.5a3302420e40ap-1', 'cond_renyi_entropy', 5.6e-12),
    ('optimize', 'sibson', 10.0, 'sparse'):
        ('0x1.166a3e3da2c16p-4', 'cond_renyi_entropy', 1.7e-12),
    ('optimize', 'sibson', 50.0, 'dense'): ('0x1.32740991333a3p-1', 'cond_renyi_entropy', 5.9e-13),
    ('optimize', 'sibson', 50.0, 'sparse'):
        ('0x1.2a4dfb6dd4ee9p-4', 'cond_renyi_entropy', 1.9e-12),
    ('oracle', 'arimoto', 0.3, 'dense'): ('0x1.fd98879d35df5p-1', 'cond_renyi_entropy', 0.0094),
    ('oracle', 'arimoto', 0.3, 'sparse'): ('0x1.3f0f564c964f8p-3', 'cond_renyi_entropy', 0.0031),
    ('oracle', 'arimoto', 0.6, 'dense'): ('0x1.d5a7fb78032adp-1', 'cond_renyi_entropy', 0.017),
    ('oracle', 'arimoto', 0.6, 'sparse'): ('0x1.a94632cc1dd99p-4', 'cond_renyi_entropy', 0.044),
    ('oracle', 'arimoto', 2.0, 'dense'): ('0x1.785aecafee771p-1', 'cond_renyi_entropy', 0.011),
    ('oracle', 'arimoto', 2.0, 'sparse'): ('0x1.05adace2e3f7fp-6', 'cond_renyi_entropy', 3.7e-05),
    ('oracle', 'arimoto', 4.0, 'dense'): ('0x1.4baf79c6f8c1bp-1', 'cond_renyi_entropy', 0.0044),
    ('oracle', 'arimoto', 4.0, 'sparse'): ('0x1.ad8943de5882cp-7', 'cond_renyi_entropy', 2.4e-05),
    ('oracle', 'arimoto', 10.0, 'dense'): ('0x1.25d8a1ef61511p-1', 'cond_renyi_entropy', 0.00026),
    ('oracle', 'arimoto', 10.0, 'sparse'): ('0x1.81593789f1906p-7', 'cond_renyi_entropy', 7.6e-05),
    ('oracle', 'arimoto', 50.0, 'dense'): ('0x1.10555c27cd52fp-1', 'cond_renyi_entropy', 7.7e-06),
    ('oracle', 'arimoto', 50.0, 'sparse'): ('0x1.61e4383ac3b76p-7', 'cond_renyi_entropy', 3.4e-10),
    ('oracle', 'augustin_csiszar', 0.3, 'dense'):
        ('0x1.ccc1a8410862bp-1', 'cond_renyi_entropy', 0.016),
    ('oracle', 'augustin_csiszar', 0.3, 'sparse'):
        ('0x1.e48bdc52d90a2p-4', 'cond_renyi_entropy', 0.051),
    ('oracle', 'augustin_csiszar', 0.6, 'dense'):
        ('0x1.c04e12574581bp-1', 'cond_renyi_entropy', 0.022),
    ('oracle', 'augustin_csiszar', 0.6, 'sparse'):
        ('0x1.a08782c0a42b5p-4', 'cond_renyi_entropy', 0.055),
    ('oracle', 'augustin_csiszar', 2.0, 'dense'):
        ('0x1.942be48724cfdp-1', 'cond_renyi_entropy', 0.0069),
    ('oracle', 'augustin_csiszar', 2.0, 'sparse'):
        ('0x1.19b73f22fde90p-6', 'cond_renyi_entropy', 0.00016),
    ('oracle', 'augustin_csiszar', 4.0, 'dense'):
        ('0x1.7f8a6ddc50965p-1', 'cond_renyi_entropy', 0.0029),
    ('oracle', 'augustin_csiszar', 4.0, 'sparse'):
        ('0x1.c34bb21277952p-7', 'cond_renyi_entropy', 6e-05),
    ('oracle', 'augustin_csiszar', 10.0, 'dense'):
        ('0x1.6dfecfb971b81p-1', 'cond_renyi_entropy', 0.0012),
    ('oracle', 'augustin_csiszar', 10.0, 'sparse'):
        ('0x1.88460e8f61ebap-7', 'cond_renyi_entropy', 2.2e-05),
    ('oracle', 'augustin_csiszar', 50.0, 'dense'):
        ('0x1.603b453b25f6cp-1', 'cond_renyi_entropy', 6.8e-05),
    ('oracle', 'augustin_csiszar', 50.0, 'sparse'):
        ('0x1.68405683ad877p-7', 'cond_renyi_entropy', 7e-10),
    ('oracle', 'hayashi', 0.3, 'dense'): ('0x1.03f5f0ef8215ep+0', 'cond_renyi_entropy', 0.043),
    ('oracle', 'hayashi', 0.3, 'sparse'):
        ('0x1.c01a7e5150511p-3', [[0.0, 0.8, 0.2], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                  [0.0, 0.4, 0.6]], 'mpmath', 1.2e-16),
    ('oracle', 'hayashi', 0.6, 'dense'): ('0x1.e282aa662cf56p-1', 'cond_renyi_entropy', 0.048),
    ('oracle', 'hayashi', 0.6, 'sparse'): ('0x1.3570b46ed3272p-3', 'cond_renyi_entropy', 0.093),
    ('oracle', 'hayashi', 2.0, 'dense'): ('0x1.6923e507e6e0cp-1', 'cond_renyi_entropy', 0.0038),
    ('oracle', 'hayashi', 2.0, 'sparse'): ('0x1.de6234f91a6b9p-7', 'cond_renyi_entropy', 9e-05),
    ('oracle', 'hayashi', 4.0, 'dense'): ('0x1.14de9f76e54a2p-1', 'cond_renyi_entropy', 0.0057),
    ('oracle', 'hayashi', 4.0, 'sparse'): ('0x1.294a2ebf96b5bp-7', 'cond_renyi_entropy', 7.1e-05),
    ('oracle', 'hayashi', 10.0, 'dense'): ('0x1.595e1f2f0d96fp-2', 'cond_renyi_entropy', 0.016),
    ('oracle', 'hayashi', 10.0, 'sparse'): ('0x1.5bf444daa69aep-8', 'cond_renyi_entropy', 0.00013),
    ('oracle', 'hayashi', 50.0, 'dense'): ('0x1.cc6fa90e0f28cp-3', 'cond_renyi_entropy', 0.037),
    ('oracle', 'hayashi', 50.0, 'sparse'): ('0x1.dd117d8821a64p-9', 'cond_renyi_entropy', 0.00063),
    ('oracle', 'lapidoth_pfister', 0.6, 'dense'):
        ('0x1.66b1e7461f7e9p-1', 'cond_renyi_entropy', 0.041),
    ('oracle', 'lapidoth_pfister', 0.6, 'sparse'):
        ('0x1.5b1cd3b19b697p-4', 'cond_renyi_entropy', 0.081),
    ('oracle', 'lapidoth_pfister', 2.0, 'dense'):
        ('0x1.a8bd44c34199cp-1', 'cond_renyi_entropy', 0.0035),
    ('oracle', 'lapidoth_pfister', 2.0, 'sparse'):
        ('0x1.1d1e1c19e4994p-5', 'cond_renyi_entropy', 0.0019),
    ('oracle', 'lapidoth_pfister', 4.0, 'dense'):
        ('0x1.97e5cb4716252p-1', 'cond_renyi_entropy', 0.0016),
    ('oracle', 'lapidoth_pfister', 4.0, 'sparse'):
        ('0x1.d09c6f78d8af0p-6', 'cond_renyi_entropy', 7.1e-06),
    ('oracle', 'lapidoth_pfister', 10.0, 'dense'):
        ('0x1.86005689330c7p-1', 'cond_renyi_entropy', 0.0019),
    ('oracle', 'lapidoth_pfister', 10.0, 'sparse'):
        ('0x1.aca70963b588ep-6', 'cond_renyi_entropy', 1.7e-10),
    ('oracle', 'lapidoth_pfister', 50.0, 'dense'):
        ('0x1.7784ecef83d71p-1', 'cond_renyi_entropy', 0.0003),
    ('oracle', 'lapidoth_pfister', 50.0, 'sparse'): ('0x1.9d7db6b762b0ap-6', None, None),
    ('oracle', 'sibson', 0.3, 'dense'): ('0x1.6916110a01a2fp-1', 'cond_renyi_entropy', 0.036),
    ('oracle', 'sibson', 0.3, 'sparse'): ('0x1.84355b3b2e235p-4', 'cond_renyi_entropy', 0.086),
    ('oracle', 'sibson', 0.6, 'dense'): ('0x1.984b33d65b7a5p-1', 'cond_renyi_entropy', 0.029),
    ('oracle', 'sibson', 0.6, 'sparse'): ('0x1.65e5789b9ac9ep-4', 'cond_renyi_entropy', 0.073),
    ('oracle', 'sibson', 2.0, 'dense'): ('0x1.b39fa432a16d2p-1', 'cond_renyi_entropy', 0.0054),
    ('oracle', 'sibson', 2.0, 'sparse'): ('0x1.91c90dcf77ac1p-5', 'cond_renyi_entropy', 0.0018),
    ('oracle', 'sibson', 4.0, 'dense'): ('0x1.98b89b6c221ccp-1', 'cond_renyi_entropy', 0.0031),
    ('oracle', 'sibson', 4.0, 'sparse'): ('0x1.e19fdaa283c11p-5', 'cond_renyi_entropy', 4.2e-05),
    ('oracle', 'sibson', 10.0, 'dense'): ('0x1.5a7fde711a2edp-1', 'cond_renyi_entropy', 0.00059),
    ('oracle', 'sibson', 10.0, 'sparse'): ('0x1.166a479c9e994p-4', 'cond_renyi_entropy', 3.5e-08),
    ('oracle', 'sibson', 50.0, 'dense'): ('0x1.3274099131f0cp-1', 'cond_renyi_entropy', 3.6e-15),
    ('oracle', 'sibson', 50.0, 'sparse'): ('0x1.2a4dfb6db40f0p-4', 'cond_renyi_entropy', 1.2e-16),
}

# the sparse Hayashi oracle's objective at order 0.3 at its pinned grid rule
MPMATH_VALUE = "0x1.c01a7e5150515p-3"


def _pmf_channel(kind):
    p, W, _ = seeded(kind)
    return make_pmf(p), make_channel(W)


def observe(key):
    method, variant, alpha, kind = key
    cfg = ORACLE_CFG[kind] if method == "oracle" else OptimizerConfig()
    p, W = _pmf_channel(kind)

    def run():
        value = cond_renyi_entropy(variant, p, W, alpha, method, cfg).hex()
        if len(PINS[key]) == 3:
            return (value,)
        spec = leakage_spec_for(variant, p, alpha)
        res = cond_vulnerability(spec.prior, W, spec.gain, spec.phi, spec.psi, spec.sense,
                                 method, cfg)
        return value, res.rule.matrix.tolist()

    return outcome(run)


def independent(source, key):
    if source == "mpmath":
        return float.fromhex(MPMATH_VALUE)
    _, variant, alpha, kind = key
    return closed_form(source, variant, alpha, kind)


@pytest.mark.parametrize("key", sorted(PINS), ids=pin_id)
def test_pins(key):
    assert_pin(PINS[key], observe(key), lambda source: independent(source, key))


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


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.05])
def test_augustin_csiszar_leakage_route_at_tiny_orders(alpha):
    # a zero-mass input through a channel with zeros: as powers, the rule
    # objective's R**(beta - 1) of an entry at the EPS floor overflowed
    # below order 0.05, and at order 0.01 every row ended on a failed line
    # search, at 0.000925 against 0.00144; as logs they stay finite
    p = make_pmf([0.0, 0.4, 0.6])
    W = make_channel([[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.0, 0.3, 0.7]])
    closed = alpha_mi("augustin_csiszar", p, W, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = alpha_mi_via_leakage("augustin_csiszar", p, W, alpha, method="optimize")
    assert abs(value - closed) <= 1e-4 * closed


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
    p, W, _ = seeded("sparse")
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
