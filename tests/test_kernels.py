"""The exponentiated-gradient kernels and ``eg_optimize``, pinned.

Every EG route runs through the one loop ``_kernels.eg``.  ``PINS`` holds,
for the four EG entry points and three ``eg_optimize`` shapes on the
seeded dense and sparse instances, ``float.hex`` of the value and of the
residual and the iteration count (and whether ``eg_optimize`` converged).
Equality is exact, so any change to the update, the line search or the
stop rule shows here.  How the table is kept is in ``pins``.

A residual of 0 is a row whose line search failed, which still reads as
converged (ROADMAP item 2): the tsallis kernel at order 4 (sparse), and
the ``fd`` shape at order 2 (sparse) and at order 4 (dense), which ends on
the closed form, where no step improves the finite-difference objective.
The lp kernel at order 0.6 (sparse) crawls: its value changes by about
the tolerance for thousands of iterations, toward an optimum on the
boundary, and the three-hit stop ends it 2.4e-5 relative above the
minimum that a run to tolerance 1e-15 reaches (``CRAWL_OPTIMUM``).
"""

import numpy as np
import pytest

from alphaleak import _kernels as K
from alphaleak import (
    alpha_mi,
    alpha_mi_via_leakage,
    compose_joint,
    cond_vulnerability,
    leakage,
    leakage_spec_for,
    log_aggregator,
    make_channel,
    make_pmf,
    optimize,
    q_log_aggregator,
    soft01_gain,
    tilt,
)
from alphaleak.leakage import _joint_eg_inits
from alphaleak.optimize import _expected_divergence_eg
from pins import assert_pin, closed_form, outcome, pin_id, seeded

TOL = 1e-10
ITERS = 100_000


def _instances(n=20, nx=3, ny=3, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        p = 0.9 * rng.dirichlet(np.ones(nx)) + 0.1 / nx
        W = 0.9 * rng.dirichlet(np.ones(ny), size=nx) + 0.1 / ny
        W /= W.sum(axis=1, keepdims=True)
        R0 = np.ascontiguousarray(rng.dirichlet(np.ones(nx), size=ny))
        yield p / p.sum(), W, R0


def _kernel_case(name, alpha, kind):
    p, W, R0 = seeded(kind)
    beta = 1.0 - 1.0 / alpha
    maximize = alpha > 1.0
    joint = p[:, None] * W
    if name == "tsallis":
        w = np.ascontiguousarray(joint[:, -1])
        out = K.tsallis_eg(w[None], beta, False, (w / w.sum())[None], maximize, TOL, ITERS)
    elif name == "power":
        pi = joint[:, -1] / joint[:, -1].sum()
        out = K.power_eg(pi[None], alpha, np.full((1, p.size), 1.0 / p.size), maximize, TOL,
                         ITERS)
    elif name == "ac":
        out = K.ac_eg(p, W, beta, R0[None], maximize, TOL, ITERS)
    else:
        qt = alpha / (2.0 * alpha - 1.0)
        pt = p ** qt / (p ** qt).sum()
        out = K.lp_eg(pt, W, beta, qt, R0[None], maximize, TOL, ITERS)
    # every entry point runs a stack: this one is a stack of one
    _, (value,), (resid,), _, (iters,) = out
    return float(value).hex(), float(resid).hex(), int(iters)


def _eg_optimize_case(name, alpha, kind):
    """``fd``: Sibson objective, central differences; ``grad``: expected
    divergence with its gradient; ``lp``: the two-block product objective."""
    p, W, _ = seeded(kind)
    cfg = optimize.OptimizerConfig(restarts=3)
    p_y = p @ W
    if name == "lp":
        Pa = (p[:, None] * W) ** alpha

        def objective(blocks):
            ax = np.maximum(blocks[0], K.EPS) ** (1.0 - alpha)
            ay = np.maximum(blocks[1], K.EPS) ** (1.0 - alpha)
            return float(np.log(ax @ Pa @ ay) / (alpha - 1.0))

        def grad(blocks):
            qx = np.maximum(blocks[0], K.EPS)
            qy = np.maximum(blocks[1], K.EPS)
            ax, ay = qx ** (1.0 - alpha), qy ** (1.0 - alpha)
            tot = ax @ Pa @ ay
            return [-(qx ** -alpha) * (Pa @ ay) / tot, -(qy ** -alpha) * (ax @ Pa) / tot]

        shape, inits = [p.size, W.shape[1]], [p, p_y]
    elif name == "fd":
        A = p @ W ** alpha

        def objective(blocks):
            q = np.maximum(blocks[0], K.EPS)
            return float(np.log(A @ q ** (1.0 - alpha)) / (alpha - 1.0))

        grad = None
        shape, inits = [W.shape[1]], [p_y]
    else:
        Wa = W ** alpha

        def objective(blocks):
            q = np.maximum(blocks[0], K.EPS)
            S = Wa @ q ** (1.0 - alpha)
            live = p > 0.0
            return float((p[live] * np.log(S[live])).sum() / (alpha - 1.0))

        def grad(blocks):
            q = np.maximum(blocks[0], K.EPS)
            S = Wa @ q ** (1.0 - alpha)
            return [-(p / S) @ (Wa * q[None, :] ** -alpha)]

        shape, inits = [W.shape[1]], [p_y]
    res = optimize.eg_optimize(objective, shape, "min", cfg, grad=grad, inits=inits)
    return res.value.hex(), res.residual.hex(), res.iterations, res.converged


# key -> (value, residual, iterations[, converged], source, distance) of
# the entry points ("kernel") and of the eg_optimize shapes, on the seeded
# instances; the sources are the optimum of a power or tsallis problem, the
# closed form of the program an eg_optimize shape solves, and the crawl's
# minimum
PINS = {
    ('eg_optimize', 'fd', 0.3, 'dense'):
        ('0x1.3644090d33e3cp-5', '0x1.0200000000000p-47', 11, True, 'alpha_mi', 8.4e-17),
    ('eg_optimize', 'fd', 0.3, 'sparse'):
        ('0x1.669d94a71a606p-6', '0x1.5c20000000000p-47', 12, True, 'alpha_mi', 5.8e-16),
    ('eg_optimize', 'fd', 0.6, 'dense'):
        ('0x1.1449575be1053p-4', '0x1.0b20000000000p-45', 14, True, 'alpha_mi', 9.5e-16),
    ('eg_optimize', 'fd', 0.6, 'sparse'):
        ('0x1.31a2a0a10228bp-5', '0x1.d2e0000000000p-46', 10, True, 'alpha_mi', 1.5e-15),
    ('eg_optimize', 'fd', 2.0, 'dense'):
        ('0x1.4665429a6ddb0p-3', '0x1.c000000000000p-53', 5, True, 'alpha_mi', 0.0),
    ('eg_optimize', 'fd', 2.0, 'sparse'):
        ('0x1.aa35e4797ccf3p-3', '0x0.0p+0', 9, True, 'alpha_mi', 2.5e-16),
    ('eg_optimize', 'fd', 4.0, 'dense'):
        ('0x1.055767ef3ece8p-2', '0x0.0p+0', 13, True, 'alpha_mi', 0.0),
    ('eg_optimize', 'fd', 4.0, 'sparse'):
        ('0x1.79a50e86119b4p-2', '0x1.0000000000000p-54', 16, True, 'alpha_mi', 5.6e-17),
    ('eg_optimize', 'fd', 10.0, 'dense'):
        ('0x1.9c9a3bcfebb45p-2', '0x1.0340000000000p-43', 18, True, 'alpha_mi', 7.7e-15),
    ('eg_optimize', 'fd', 10.0, 'sparse'):
        ('0x1.041ed59854edcp-1', '0x1.1d00000000000p-45', 19, True, 'alpha_mi', 2.2e-15),
    ('eg_optimize', 'grad', 0.3, 'dense'):
        ('0x1.3ffea591715dbp-5', '0x1.2850000000000p-43', 13, True, 'alpha_mi', 1.1e-14),
    ('eg_optimize', 'grad', 0.3, 'sparse'):
        ('0x1.29813336c57a7p-5', '0x1.6c50000000000p-43', 14, True, 'alpha_mi', 2.1e-14),
    ('eg_optimize', 'grad', 0.6, 'dense'):
        ('0x1.1cf7f250173c3p-4', '0x1.aec0000000000p-45', 15, True, 'alpha_mi', 3.8e-15),
    ('eg_optimize', 'grad', 0.6, 'sparse'):
        ('0x1.d7001bdf27f3dp-5', '0x1.7c02000000000p-42', 13, True, 'alpha_mi', 7.6e-14),
    ('eg_optimize', 'grad', 2.0, 'dense'):
        ('0x1.201b269d16496p-3', '0x1.3000000000000p-51', 15, True, 'alpha_mi', 7.8e-16),
    ('eg_optimize', 'grad', 2.0, 'sparse'):
        ('0x1.6575f8c3097eep-4', '0x1.86c0000000000p-46', 14, True, 'alpha_mi', 3.8e-16),
    ('eg_optimize', 'grad', 4.0, 'dense'):
        ('0x1.6a8d169322e38p-3', '0x1.c6c0000000000p-45', 20, True, 'alpha_mi', 1.8e-14),
    ('eg_optimize', 'grad', 4.0, 'sparse'):
        ('0x1.73114d1e79615p-4', '0x1.e920000000000p-44', 21, True, 'alpha_mi', 5.8e-15),
    ('eg_optimize', 'grad', 10.0, 'dense'):
        ('0x1.ad31dc7c255dep-3', '0x1.8000000000000p-49', 14, True, 'alpha_mi', 1.2e-16),
    ('eg_optimize', 'grad', 10.0, 'sparse'):
        ('0x1.7a49fd4d8d02fp-4', '0x1.fbdc700000000p-36', 35, True, 'alpha_mi', 2e-11),
    ('eg_optimize', 'lp', 0.6, 'dense'):
        ('0x1.0e729374e1e96p-4', '0x1.c8e8000000000p-42', 13, True, 'alpha_mi', 6.3e-14),
    ('eg_optimize', 'lp', 0.6, 'sparse'):
        ('0x1.cf1611f78ec6cp-6', '0x1.2ce0000000000p-44', 11, True, 'alpha_mi', 1.4e-14),
    ('eg_optimize', 'lp', 2.0, 'dense'):
        ('0x1.3332357bc5717p-3', '0x1.c300000000000p-46', 22, True, 'alpha_mi', 6.9e-14),
    ('eg_optimize', 'lp', 2.0, 'sparse'):
        ('0x1.34b0a8f95c061p-3', '0x1.18e6000000000p-39', 17, True, 'alpha_mi', 1.7e-12),
    ('eg_optimize', 'lp', 4.0, 'dense'):
        ('0x1.9403d16d7a368p-3', '0x1.1ac7000000000p-39', 17, True, 'alpha_mi', 2e-13),
    ('eg_optimize', 'lp', 4.0, 'sparse'):
        ('0x1.8adbf536aaa15p-3', '0x1.6fa7e00000000p-36', 34, True, 'alpha_mi', 5.4e-12),
    ('eg_optimize', 'lp', 10.0, 'dense'):
        ('0x1.ec3fedb6ff0b5p-3', '0x1.42bf800000000p-38', 28, True, 'alpha_mi', 3.7e-11),
    ('eg_optimize', 'lp', 10.0, 'sparse'):
        ('0x1.ba36a9831d8a2p-3', '0x1.74c5780000000p-34', 70, True, 'alpha_mi', 1.3e-12),
    ('kernel', 'ac', 0.3, 'dense'):
        ('0x1.081487adabe94p+1', '0x1.476e4b7ce7c6dp-37', 24, None, None),
    ('kernel', 'ac', 0.3, 'sparse'):
        ('0x1.44e5b7157a870p-3', '0x1.a74cc00000000p-34', 17462, None, None),
    ('kernel', 'ac', 0.6, 'dense'):
        ('0x1.2364449fbf865p-1', '0x1.27c0000000000p-41', 15, None, None),
    ('kernel', 'ac', 0.6, 'sparse'):
        ('0x1.ff4aeba3702aap-6', '0x1.1e743e0000000p-34', 750, None, None),
    ('kernel', 'ac', 2.0, 'dense'):
        ('-0x1.90ae9b925ca26p-2', '0x1.2d08000000000p-41', 24, None, None),
    ('kernel', 'ac', 2.0, 'sparse'):
        ('-0x1.1718ae18ac8c2p-7', '0x1.158b378000000p-34', 111, None, None),
    ('kernel', 'ac', 4.0, 'dense'):
        ('-0x1.1e8d97afc5845p-1', '0x1.cf42000000000p-37', 29, None, None),
    ('kernel', 'ac', 4.0, 'sparse'):
        ('-0x1.510109ec16e6cp-7', '0x1.e1d3d20000000p-35', 43, None, None),
    ('kernel', 'ac', 10.0, 'dense'):
        ('-0x1.48de6fe5a1cc7p-1', '0x1.6fcf000000000p-35', 60, None, None),
    ('kernel', 'ac', 10.0, 'sparse'):
        ('-0x1.606916d9f078cp-7', '0x1.cac0000000000p-49', 17, None, None),
    ('kernel', 'lp', 0.6, 'dense'):
        ('0x1.51c4f50232129p+0', '0x1.c9b571f703b2bp-38', 25, None, None),
    ('kernel', 'lp', 0.6, 'sparse'):
        ('0x1.28a888267bdbap-7', '0x1.7daaad0000000p-34', 14177, 'crawl', 2.2e-07),
    ('kernel', 'lp', 2.0, 'dense'):
        ('-0x1.19fb15aaf11b2p-2', '0x1.2a98000000000p-39', 20, None, None),
    ('kernel', 'lp', 2.0, 'sparse'):
        ('-0x1.685be840c47b8p-7', '0x1.562dc00000000p-35', 45, None, None),
    ('kernel', 'lp', 4.0, 'dense'):
        ('-0x1.5cecbe7764c28p-2', '0x1.115e000000000p-38', 23, None, None),
    ('kernel', 'lp', 4.0, 'sparse'):
        ('-0x1.8e236d2401640p-7', '0x1.3bd4800000000p-37', 25, None, None),
    ('kernel', 'lp', 10.0, 'dense'):
        ('-0x1.70911ece27f80p-2', '0x1.a95d000000000p-37', 30, None, None),
    ('kernel', 'lp', 10.0, 'sparse'):
        ('-0x1.961782281a038p-7', '0x1.8300000000000p-48', 14, None, None),
    ('kernel', 'power', 0.3, 'dense'):
        ('0x1.10d8cc89d844ep+1', '0x1.e062fcdb64516p-53', 10, 'optimum', 1.4e-15),
    ('kernel', 'power', 0.3, 'sparse'):
        ('0x1.9f25495a8607dp+0', '0x1.fdb671dc64f71p-36', 20, 'optimum', 0.00018),
    ('kernel', 'power', 0.6, 'dense'):
        ('0x1.87c57a7368330p+0', '0x1.9cf9bc1845035p-42', 14, 'optimum', 2.4e-13),
    ('kernel', 'power', 0.6, 'sparse'):
        ('0x1.5114017527788p+0', '0x1.4388854fc1afep-43', 12, 'optimum', 2.6e-08),
    ('kernel', 'power', 2.0, 'dense'):
        ('0x1.7e8c6e4309f74p-2', '0x1.65f4000000000p-39', 18, 'optimum', 9.6e-13),
    ('kernel', 'power', 2.0, 'sparse'):
        ('0x1.047fb1f917f6ep-1', '0x1.a446600000000p-34', 718, 'optimum', 3e-08),
    ('kernel', 'power', 4.0, 'dense'):
        ('0x1.16cc4a24da96cp-4', '0x1.a0c4000000000p-37', 22, 'optimum', 9.3e-12),
    ('kernel', 'power', 4.0, 'sparse'):
        ('0x1.1b1265f8d7de4p-3', '0x1.6363d00000000p-34', 1510, 'optimum', 6.8e-08),
    ('kernel', 'power', 10.0, 'dense'):
        ('0x1.bd05e7a349708p-11', '0x1.7a33be4000000p-34', 216, 'optimum', 2.3e-09),
    ('kernel', 'power', 10.0, 'sparse'):
        ('0x1.db5631dcbbb20p-9', '0x1.2b14880000000p-34', 1133, 'optimum', 4.6e-08),
    ('kernel', 'tsallis', 0.3, 'dense'):
        ('0x1.a411b34c06eeap+2', '0x1.1287ef5bbfd99p-37', 17, 'optimum', 2.9e-11),
    ('kernel', 'tsallis', 0.3, 'sparse'):
        ('0x1.680ec68d077d5p-4', '0x1.a004000000000p-40', 12, 'optimum', 4.4e-13),
    ('kernel', 'tsallis', 0.6, 'dense'):
        ('0x1.11f35098ef4c3p+0', '0x1.f7aead1f1dd8dp-44', 9, 'optimum', 4.5e-15),
    ('kernel', 'tsallis', 0.6, 'sparse'):
        ('0x1.c6da8a487d5e6p-6', '0x1.0000000000000p-58', 11, 'optimum', 1.9e-14),
    ('kernel', 'tsallis', 2.0, 'dense'):
        ('0x1.498feb6dbb1c4p-2', '0x1.2aa0000000000p-42', 14, 'optimum', 2.4e-14),
    ('kernel', 'tsallis', 2.0, 'sparse'):
        ('0x1.9a38bd3b91670p-7', '0x1.37a6d00000000p-38', 20, 'optimum', 2.1e-12),
    ('kernel', 'tsallis', 4.0, 'dense'):
        ('0x1.13687078087fep-2', '0x1.9a80000000000p-44', 14, 'optimum', 3.6e-15),
    ('kernel', 'tsallis', 4.0, 'sparse'):
        ('0x1.5eaa3c852445ap-7', '0x0.0p+0', 15, 'optimum', 8.1e-15),
    ('kernel', 'tsallis', 10.0, 'dense'):
        ('0x1.09d7d78d32e9cp-2', '0x1.262d000000000p-38', 18, 'optimum', 1.4e-12),
    ('kernel', 'tsallis', 10.0, 'sparse'):
        ('0x1.47de762a09742p-7', '0x1.ed00000000000p-49', 17, 'optimum', 9.1e-15),
}

# the minimum of the sparse lp kernel problem at order 0.6, run to tolerance 1e-15
CRAWL_OPTIMUM = "0x1.28a6b221951ddp-7"

# the program each eg_optimize shape minimizes
_PROGRAMS = {"fd": "sibson", "grad": "augustin_csiszar", "lp": "lapidoth_pfister"}


def _kernel_optimum(name, alpha, kind):
    """The optimum of a pinned power or tsallis problem."""
    p, W, _ = seeded(kind)
    col = (p[:, None] * W)[:, -1]
    if name == "power":
        # a proper score: the optimum is at r = pi, where it is sum pi**alpha
        pi = col / col.sum()
        return float((pi ** alpha).sum())
    beta = 1.0 - 1.0 / alpha
    w = col[col > 0.0]
    return float((w ** (1.0 / (1.0 - beta))).sum() ** (1.0 - beta))


def observe(key):
    route, name, alpha, kind = key
    case = _kernel_case if route == "kernel" else _eg_optimize_case
    return outcome(lambda: case(name, alpha, kind))


def independent(source, key):
    _, name, alpha, kind = key
    if source == "optimum":
        return _kernel_optimum(name, alpha, kind)
    if source == "crawl":
        return float.fromhex(CRAWL_OPTIMUM)
    return closed_form(source, _PROGRAMS[name], alpha, kind)


@pytest.mark.parametrize("key", sorted(PINS), ids=pin_id)
def test_pins(key):
    assert_pin(PINS[key], observe(key), lambda source: independent(source, key))


@pytest.mark.parametrize("name, alpha", [("ac", a) for a in (0.3, 0.6, 2.0, 4.0, 10.0)]
                         + [("lp", a) for a in (0.6, 2.0, 4.0, 10.0)])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_coupled_routes_run_one_start_that_reaches_the_stack_optimum(name, alpha, kind,
                                                                      monkeypatch):
    """The optimize route of the Augustin-Csiszar or Lapidoth-Pfister tuple
    passes its kernel one start, the posterior family, and reaches the best
    value of the stack of starts the mixed-generator route runs (the
    posteriors, the prior-optimal rule and nine seeded draws).  Each rule
    objective is concave above order 1, a log of a sum of concave powers
    R^beta with 0 < beta < 1, and convex below it, a log-sum-exp of the
    convex terms beta log R with beta < 0, so it has no optimum but the
    global one; what is left is the stop rule's reach, at most 8.0e-9
    relative here (Augustin-Csiszar at order 4, sparse)."""
    p, W, _ = seeded(kind)
    qt = alpha / (2.0 * alpha - 1.0)
    spec = leakage_spec_for("augustin_csiszar" if name == "ac" else "lapidoth_pfister",
                            make_pmf(p), alpha)
    C = make_channel(W)
    kernel = K.ac_eg if name == "ac" else K.lp_eg
    runs = []

    def recorded(*args):
        runs.append((args, kernel(*args)))
        return runs[-1][1]

    monkeypatch.setattr(K, kernel.__name__, recorded)
    cond_vulnerability(spec.prior, C, spec.gain, spec.phi, spec.psi, spec.sense, "optimize")
    # the start sits before (maximize, tol, max_iters) in either kernel's arguments
    ((args, (_, (value,), (resid,), _, _)),) = runs
    np.testing.assert_array_equal(args[-4], compose_joint(spec.prior, C).posteriors[None])
    assert resid <= TOL
    prior_action = p if name == "ac" else tilt(spec.prior, 1.0 / qt).probs
    starts = _joint_eg_inits(spec.prior, C, prior_action, optimize.OptimizerConfig())
    assert len(starts) == 11
    _, values, _, _, _ = kernel(*args[:-4], starts, *args[-3:])
    best = values.max() if alpha > 1.0 else values.min()
    assert abs(value - best) <= 1e-8 * abs(best)


def test_mixed_route_runs_its_restarts(monkeypatch):
    # outside the two tuples, the mixed-generator route keeps its stack:
    # the posteriors, the prior-optimal rule and cfg.restarts - 1 draws
    p, W, _ = seeded("dense")
    cfg = optimize.OptimizerConfig(restarts=3)
    run = leakage._eg_run
    rows = []

    def recorded(stacked, blocks, *rest):
        rows.append(len(blocks[0]))
        return run(stacked, blocks, *rest)

    monkeypatch.setattr(leakage, "_eg_run", recorded)
    cond_vulnerability(make_pmf(p), make_channel(W), soft01_gain(), q_log_aggregator(0.5),
                       log_aggregator(), None, "optimize", cfg)
    assert rows == [cfg.restarts + 1]


def test_tsallis_eg_descent_reaches_minimum_on_sparse_weights():
    # one observation of the arimoto optimize route at order 0.3: the
    # minimum of sum w r^beta (beta < 0) is (sum w^(1/(1-beta)))^(1-beta),
    # reached at r proportional to w^(1/(1-beta))
    w = np.array([4.55e-9, 0.0, 0.2284])
    beta = 1.0 - 1.0 / 0.3
    _, (value,), *_ = K.tsallis_eg(w[None], beta, False, (w / w.sum())[None], False, 1e-10,
                                   100_000)
    minimum = (w[w > 0.0] ** (1.0 / (1.0 - beta))).sum() ** (1.0 - beta)
    assert abs(value - minimum) <= 1e-6 * minimum


def test_tsallis_eg_restarts_its_step_after_a_fallback():
    # the posterior of the prior of mass 2.1e-8 in the last symbol below
    # (order 0.3): at the 2.7e-8 coordinate no step down to _MIN_STEP
    # meets Armijo's bound, and doubling the fallback step of about 1e-17
    # stopped the descent after 4 iterations at 6.711 against 4.919
    w = np.array([0.6555747573, 2.72e-8, 0.3444252155])
    w /= w.sum()
    beta = 1.0 - 1.0 / 0.3
    run = (False, 1e-10, 100_000)
    _, (value,), *_ = K.tsallis_eg(w[None], beta, False, w[None], *run)
    _, (from_uniform,), *_ = K.tsallis_eg(w[None], beta, False, np.full((1, 3), 1.0 / 3.0), *run)
    assert abs(value - from_uniform) <= 1e-12 * from_uniform


def _hex_pair(p, W):
    return (make_pmf([float.fromhex(h) for h in p]),
            make_channel([[float.fromhex(h) for h in row] for row in W]))


def test_sibson_restarts_stop_without_zigzag(monkeypatch):
    # a 2x3 dense cell of the measure-numeric benchmark at order 4: under
    # a "not worse" line search two restarts of the Sibson optimize route
    # overshot the optimum to points of almost equal value and zigzagged
    # across it for 71 897 and 73 361 iterations
    P, C = _hex_pair(["0x1.0f99cd408888cp-1", "0x1.e0cc657eeeee8p-2"],
                     [["0x1.254c8cdb58c0cp-2", "0x1.9d08b946b4d36p-2", "0x1.3daab9ddf26bfp-2"],
                      ["0x1.e7efd70a8be51p-3", "0x1.3b99f104b4529p-1", "0x1.29a864e2a2d0cp-3"]])
    iters = []
    eg = K.eg

    def counted(*args, **kwargs):
        out = eg(*args, **kwargs)
        iters.append(out[4].tolist())
        return out

    monkeypatch.setattr(K, "eg", counted)
    closed = alpha_mi("sibson", P, C, 4.0)
    # all ten restarts, as the route ran them before it took one start
    sibson = _expected_divergence_eg(np.ones(1), np.log(P.probs @ C.matrix ** 4.0)[None, :], 4.0)
    res = optimize.eg_optimize(sibson, [C.n_y], "min", inits=[P.probs @ C.matrix])
    assert len(iters) == 1 and len(iters[0]) == optimize.OptimizerConfig().restarts
    assert max(iters[0]) <= 100
    assert abs(res.value - closed) <= 1e-12 * closed
    # the route itself runs its one row from the output marginal
    iters.clear()
    value = alpha_mi("sibson", P, C, 4.0, method="optimize")
    assert len(iters) == 1 and len(iters[0]) == 1
    assert iters[0][0] <= 100
    assert abs(value - closed) <= 1e-12 * closed


def test_arimoto_optimize_below_order_one_on_sparse_input():
    # a 3x4 sparse cell of the measure-numeric benchmark at order 0.3: the
    # tsallis_eg descents stopped far from their minima, so alpha_mi raised
    # NumericalInconsistency (-0.363) and the leakage route returned -0.363
    P, C = _hex_pair(["0x1.eb204708a873ap-8", "0x0.0p+0", "0x1.fc29bf71eeaf2p-1"],
                     [["0x1.462eac011cc0dp-21", "0x1.b4eeb1108c80ap-1", "0x0.0p+0",
                       "0x1.2c44ea3222fd9p-3"],
                      ["0x1.7afcc6878f1cap-4", "0x0.0p+0", "0x1.7b8faf2e80e5cp-1",
                       "0x1.5442e00234dadp-3"],
                      ["0x1.d758822309a93p-3", "0x1.49392092eb401p-3", "0x1.0313d19ac7997p-1",
                       "0x1.a63e2dbdd9625p-4"]])
    closed = alpha_mi("arimoto", P, C, 0.3)
    assert closed == pytest.approx(0.142834, abs=1e-6)
    for route in (alpha_mi, alpha_mi_via_leakage):
        assert abs(route("arimoto", P, C, 0.3, method="optimize") - closed) <= 1e-3


# cells of the measure-numeric benchmark at order 0.3 on which the Sibson
# leakage route missed the closed form: under a "not worse" line search
# (the 2x3 cell: -0.320 against 0.00137), and under a sufficient-decrease
# test without a fallback for steps that no step size can meet (the 4x2
# cell: at a posterior coordinate of 4.3e-10 the gradient is -1.1e22, so
# every step down to _MIN_STEP saturates the update at the same point,
# whose first-order gain, 1.05e22, dwarfs its decrease, 1.96e12, and the
# row stalled at its start)
SIBSON_LEAKAGE_CELLS = {
    "2x3": (["0x1.ce1fe7461de05p-7", "0x1.f8c78062e7888p-1"],
            [["0x1.9898e148fb54bp-1", "0x1.1f09ae83f968ep-5", "0x1.55da0f3b1452ep-3"],
             ["0x1.0066ab3684aedp-1", "0x1.12496213556b0p-2", "0x1.d9d28eff426efp-3"]]),
    "4x2": (["0x1.96dddef124cb9p-5", "0x1.be95ba57bf103p-2", "0x1.062863cf5a584p-1",
             "0x1.1ee115b3d2ea3p-9"],
            [["0x1.7ac3f4b66bf59p-1", "0x1.0a7816932814fp-2"],
             ["0x1.d06ff7bfd5f6bp-1", "0x1.7c804201504aap-4"],
             ["0x1.e8b669f65e7f3p-2", "0x1.0ba4cb04d0c07p-1"],
             ["0x1.188c57ed8357bp-5", "0x1.ee773a8127ca8p-1"]]),
}


@pytest.mark.parametrize("cell", sorted(SIBSON_LEAKAGE_CELLS))
def test_sibson_leakage_route_below_order_one(cell):
    P, C = _hex_pair(*SIBSON_LEAKAGE_CELLS[cell])
    closed = alpha_mi("sibson", P, C, 0.3)
    assert abs(alpha_mi_via_leakage("sibson", P, C, 0.3, method="optimize") - closed) <= 1e-3


def test_kernel_determinism():
    p, W, R0 = next(_instances(n=1))
    a = K.ac_eg(p, W, 0.5, R0[None], True, TOL, ITERS)
    b = K.ac_eg(p, W, 0.5, R0[None], True, TOL, ITERS)
    np.testing.assert_array_equal(a[0][0], b[0][0])
    assert a[1].tobytes() == b[1].tobytes()


def test_backend_is_numpy():
    from alphaleak import backend

    assert backend() == "numpy"
