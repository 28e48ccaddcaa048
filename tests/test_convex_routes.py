"""The convex optimize routes of ``alpha_mi`` take one EG start.

Sibson and Augustin-Csiszar minimize a Renyi divergence D_alpha(P || Q)
over the output distribution q, which is convex in q at every order (van
Erven & Harremoes, IEEE Trans. IT 60(7), 2014, Thm. 12).
Lapidoth-Pfister minimizes over pairs (q_x, q_y), and each of its terms
P^alpha q_x^(1-alpha) q_y^(1-alpha) is jointly convex above order 1 and
jointly concave on (1/2, 1).  None of the three programs has a spurious
local optimum, so each route runs one row of ``_kernels.eg`` from its
marginal start, whatever ``cfg.restarts`` says, and lands on the closed
form.  The EG polish of the Augustin fixed point runs one start on the
same objective.
"""

import numpy as np
import pytest

from alphaleak import _kernels as K
from alphaleak import alpha_mi, make_channel, make_pmf
from alphaleak.optimize import OptimizerConfig

VARIANTS = ("sibson", "augustin_csiszar", "lapidoth_pfister")
ORDERS = (0.3, 0.6, 2.0, 4.0, 10.0)
SHAPES = ((2, 3, "dense"), (3, 4, "dense"), (3, 4, "sparse"), (4, 2, "sparse"),
          (8, 8, "dense"), (8, 8, "sparse"))


def _instance(nx, ny, kind):
    """A seeded pair; a sparse one has a zero-mass input and about 30 %
    zeros in the channel, with the diagonal kept live."""
    rng = np.random.default_rng(100 * nx + ny + (kind == "sparse"))
    p = rng.dirichlet(np.ones(nx))
    W = rng.dirichlet(np.ones(ny), size=nx)
    if kind == "sparse":
        p[0] = 0.0
        W[rng.random((nx, ny)) < 0.3] = 0.0
        W[np.arange(nx), np.arange(nx) % ny] += 0.05
    return (make_pmf(p, renormalize=True),
            make_channel(W / W.sum(axis=1, keepdims=True)))


CASES = [(variant, alpha, shape) for variant in VARIANTS for alpha in ORDERS for shape in SHAPES
         if variant != "lapidoth_pfister" or alpha > 0.5]


@pytest.mark.parametrize("variant,alpha,shape", CASES,
                         ids=[f"{v}-{a}-{nx}x{ny}-{kind}" for v, a, (nx, ny, kind) in CASES])
def test_optimize_matches_the_closed_form(variant, alpha, shape):
    p, W = _instance(*shape)
    value = alpha_mi(variant, p, W, alpha, method="optimize")
    closed = alpha_mi(variant, p, W, alpha)
    assert closed > 0.0
    assert abs(value - closed) <= 1e-8 * closed


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("alpha", (0.6, 4.0))
def test_optimize_runs_one_row(monkeypatch, variant, alpha):
    rows = []
    eg = K.eg

    def counted(objective, grad, blocks, *args):
        rows.append(blocks[0].shape[0])
        return eg(objective, grad, blocks, *args)

    monkeypatch.setattr(K, "eg", counted)
    p, W = _instance(3, 4, "dense")
    for restarts in (1, 10, 25):
        rows.clear()
        value = alpha_mi(variant, p, W, alpha, method="optimize",
                         cfg=OptimizerConfig(restarts=restarts))
        assert rows == [1]
    if variant != "augustin_csiszar":
        return
    # the EG polish of the Augustin fixed point minimizes the same convex
    # objective: forced by a plateau at the marginal, it runs one row from
    # there too, and lands on the optimize route's value
    monkeypatch.setattr(K, "augustin_solve",
                        lambda p_x, Wa, alpha, q0, *args: (q0, 1.0, 500, 1))
    for restarts in (1, 10, 25):
        rows.clear()
        polished = alpha_mi(variant, p, W, alpha, cfg=OptimizerConfig(restarts=restarts))
        assert rows == [1]
        assert abs(polished - value) <= 1e-10 * value


@pytest.mark.parametrize("variant", ("sibson", "augustin_csiszar"))
@pytest.mark.parametrize("alpha", (30.0, 50.0, 200.0))
def test_oracle_above_the_overflow_order(variant, alpha):
    # above order about 26.7 the floored power EPS**(1 - alpha) overflows to
    # inf, and a zero channel entry times inf made the Augustin-Csiszar
    # oracle NaN at 21 grid points; such an entry now takes its power at 1
    p = make_pmf([0.0, 0.4, 0.6])
    W = make_channel([[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.0, 0.3, 0.7]])
    cfg = OptimizerConfig(grid_resolution=0.05)
    with np.errstate(over="ignore"):
        value = alpha_mi(variant, p, W, alpha, method="oracle", cfg=cfg)
    closed = alpha_mi(variant, p, W, alpha)
    assert closed <= value <= closed + p.n * cfg.grid_resolution
