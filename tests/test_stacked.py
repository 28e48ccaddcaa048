"""The stacked exponentiated-gradient loop, and the optimize routes pinned.

``_kernels.eg`` runs a stack of independent problems, one per row, and
every row must follow the path it follows alone: the same value and
residual (by ``float.hex``), the same iteration count and the same
point; ``eg_optimize`` runs its one start as such a row, and the central
differences of a stack give each row those of the point alone.  The
stacked objectives of the optimize routes must agree with
their one-point forms.  ``PINS`` holds ``float.hex`` (or the error) of the
``alpha_mi`` and ``alpha_mi_via_leakage`` optimize routes on the seeded
instances, with the distance to ``alpha_mi``'s closed form, and of the
generic per-observation objectives and the mixed-generator route on the
instances of ``_generic_instance``.  How the table is kept is in ``pins``.
"""

import numpy as np
import pytest

from alphaleak import _kernels as K
from alphaleak import ConvergenceFailure, affine_transform, make_channel, make_pmf, optimize
from alphaleak.leakage import (
    _prior_objective,
    alpha_mi_via_leakage,
    cond_vulnerability,
    power_loss,
    power_score_gain,
    prior_vulnerability,
    soft01_gain,
    transformed_gain,
)
from alphaleak.optimize import _eg_run, _expected_divergence_eg, _fd_grad_stack
from alphaleak.qcalc import linear_aggregator, log_aggregator, q_log_aggregator
from alphaleak.renyi import _lp_objective, alpha_mi
from pins import assert_pin, closed_form, outcome, pin_id, seeded
from test_kernels import ITERS, TOL
from test_kernels import PINS as KERNEL_PINS

ORDERS = (0.3, 0.6, 2.0, 4.0, 10.0)


def _hexes(value, resid, iters):
    return float(value).hex(), float(resid).hex(), int(iters)


def _alone(out):
    """(point, value, residual, iterations) of a kernel run on a stack of one."""
    (X,), (value,), (resid,), _, (iters,) = out
    return X[0], value, resid, int(iters)


def _assert_rows_alone(stacked, solo):
    """Each row of a stacked result against the same problem run alone,
    and the total iteration count against the sum of the rows."""
    (X,), values, resids, total, iters = stacked
    assert isinstance(total, int)
    assert total == sum(s[3] for s in solo)
    for i, (x, value, resid, it) in enumerate(solo):
        assert _hexes(values[i], resids[i], iters[i]) == _hexes(value, resid, it)
        assert X[i].tobytes() == x.tobytes()


def _vector_case(name, alpha, kind):
    """(weights or posterior, start) of the pinned tsallis/power cases."""
    p, W, _ = seeded(kind)
    col = np.ascontiguousarray((p[:, None] * W)[:, -1])
    if name == "tsallis":
        return col, col / col.sum()
    return col / col.sum(), np.full(p.size, 1.0 / p.size)


def _vector_kernel(name, alpha, data, start):
    """The kernel on (m, n) stacks of data and starts."""
    beta = 1.0 - 1.0 / alpha
    if name == "tsallis":
        return K.tsallis_eg(data, beta, False, start, alpha > 1.0, TOL, ITERS)
    return K.power_eg(data, alpha, start, alpha > 1.0, TOL, ITERS)


def _solo_vector(name, alpha, data, start):
    """One problem of the kernel, run as a stack of one."""
    return _alone(_vector_kernel(name, alpha, data[None], start[None]))


@pytest.mark.parametrize("name", ["tsallis", "power"])
@pytest.mark.parametrize("alpha", ORDERS)
def test_vector_kernel_rows_match_their_recorded_solo_runs(name, alpha):
    # the dense and the sparse pinned problems as two rows of one stack
    cases = [_vector_case(name, alpha, kind) for kind in ("dense", "sparse")]
    stacked = _vector_kernel(name, alpha, np.stack([c[0] for c in cases]),
                             np.stack([c[1] for c in cases]))
    solo = [_solo_vector(name, alpha, *c) for c in cases]
    _assert_rows_alone(stacked, solo)
    for i, kind in enumerate(("dense", "sparse")):
        assert _hexes(stacked[1][i], stacked[2][i], stacked[4][i]) == \
            KERNEL_PINS["kernel", name, alpha, kind][:3]


def test_far_apart_stops_keep_their_counts():
    # power at order 2: the dense row stops after 18 iterations, the
    # sparse one runs on alone to 718
    stacked = _vector_kernel("power", 2.0, *map(np.stack, zip(
        _vector_case("power", 2.0, "dense"), _vector_case("power", 2.0, "sparse"))))
    assert list(stacked[4]) == [18, 718]
    assert stacked[3] == 736


def test_a_row_whose_line_search_fails_stops_alone():
    # tsallis at order 4: on the sparse weights of the pinned case no step
    # size is accepted at iteration 15 (residual 0); the dense weights of
    # the second observation go on to 18
    p, W, _ = seeded("dense")
    col = np.ascontiguousarray((p[:, None] * W)[:, 1])
    cases = [_vector_case("tsallis", 4.0, "sparse"), (col, col / col.sum())]
    stacked = _vector_kernel("tsallis", 4.0, np.stack([c[0] for c in cases]),
                             np.stack([c[1] for c in cases]))
    _, values, resids, total, iters = stacked
    assert resids[0] == 0.0 and resids[1] > 0.0
    assert list(iters) == [15, 18] and total == 33
    pin = KERNEL_PINS["kernel", "tsallis", 4.0, "sparse"][:3]
    assert _hexes(values[0], resids[0], iters[0]) == pin
    _assert_rows_alone(stacked, [_solo_vector("tsallis", 4.0, *c) for c in cases])


def _rule_kernel(name, alpha, p, W, R0):
    beta = 1.0 - 1.0 / alpha
    if name == "ac":
        return K.ac_eg(p, W, beta, R0, alpha > 1.0, TOL, ITERS)
    qt = alpha / (2.0 * alpha - 1.0)
    pt = p ** qt / (p ** qt).sum()
    return K.lp_eg(pt, W, beta, qt, R0, alpha > 1.0, TOL, ITERS)


@pytest.mark.parametrize("name", ["ac", "lp"])
@pytest.mark.parametrize("alpha", [0.6, 2.0, 10.0])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_rule_kernel_restarts_match_solo_runs(name, alpha, kind):
    p, W, R0 = seeded(kind)
    optimum = _alone(_rule_kernel(name, alpha, p, W, R0[None]))[0]
    rng = np.random.default_rng(3)
    # the pinned start, its own optimum (which stops within a few
    # iterations), uniform rules and seeded draws
    starts = np.stack([R0, optimum, np.full_like(R0, 1.0 / p.size)]
                      + [rng.dirichlet(np.ones(p.size), size=W.shape[1]) for _ in range(3)])
    stacked = _rule_kernel(name, alpha, p, W, starts)
    solo = [_alone(_rule_kernel(name, alpha, p, W, S[None])) for S in starts]
    _assert_rows_alone(stacked, solo)
    assert _hexes(*solo[0][1:]) == KERNEL_PINS["kernel", name, alpha, kind][:3]
    if (name, alpha, kind) == ("ac", 0.6, "sparse"):
        assert stacked[4][0] == 750 and stacked[4][1] <= 10


def _sibson_problem(kind, alpha):
    # Sibson's program: the expected divergence of the one input row p W^alpha
    p, W, _ = seeded(kind)
    A = make_pmf(p).probs @ make_channel(W).matrix ** alpha
    return _expected_divergence_eg(np.ones(1), np.log(A)[None, :], alpha), p @ W


def _problem(form, kind, alpha):
    """A stacked objective and the first start of each of its blocks:
    Sibson's program with its gradient (``stacked``) or with central
    differences (``fd_grad``), or the two-block Lapidoth-Pfister objective
    (``two_block``)."""
    sibson, p_y = _sibson_problem(kind, alpha)
    if form == "two_block":
        p, W, _ = seeded(kind)
        return _lp_objective(p[:, None] * W, alpha), [p, p_y]
    if form == "stacked":
        return sibson, [p_y]

    def value(q):
        return sibson.objective([q], None)[0]

    return K._Stacked(lambda blocks, data: (value(blocks[0]), None),
                      lambda blocks, cache, data: [_fd_grad_stack(value, blocks[0])]), [p_y]


def _starts(first, n, count=5, seed=0):
    """A (count, n) stack of starts: ``first``, then seeded draws."""
    rng = np.random.default_rng(seed)
    return np.stack([first] + [rng.dirichlet(np.ones(n)) for _ in range(count - 1)])


def _block_starts(firsts):
    """One stack of starts per block, each drawn with its own seed."""
    return [_starts(f, f.size, seed=i) for i, f in enumerate(firsts)]


@pytest.mark.parametrize("form", ["stacked", "fd_grad", "two_block"])
@pytest.mark.parametrize("alpha", [0.6, 4.0])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_eg_run_rows_match_solo_runs(form, alpha, kind):
    stacked, firsts = _problem(form, kind, alpha)
    starts = _block_starts(firsts)
    blocks, values, resids, total, iters = _eg_run(stacked, starts, False, TOL, ITERS)
    solo = [_eg_run(stacked, [b[i:i + 1] for b in starts], False, TOL, ITERS)
            for i in range(len(values))]
    assert isinstance(total, int) and total == sum(s[3] for s in solo)
    for i, (b1, v1, r1, _, it1) in enumerate(solo):
        assert _hexes(values[i], resids[i], iters[i]) == _hexes(v1[0], r1[0], it1[0])
        for b, b_solo in zip(blocks, b1):
            assert b[i].tobytes() == b_solo[0].tobytes()


@pytest.mark.parametrize("form", ["stacked", "fd_grad", "two_block"])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_eg_optimize_runs_its_one_start_as_a_row_of_the_stack(form, kind):
    """``eg_optimize`` from a start gives that start's row of a stacked run,
    and without ``inits`` the row of the uniform start."""
    stacked, firsts = _problem(form, kind, 2.0)
    shape = [f.size for f in firsts]
    cfg = optimize.OptimizerConfig(tolerance=TOL, max_iters=ITERS)
    uniform = [np.full((1, n), 1.0 / n) for n in shape]
    starts = [np.vstack([u, s]) for u, s in zip(uniform, _block_starts(firsts))]
    blocks, values, resids, _, iters = _eg_run(stacked, starts, False, TOL, ITERS)
    runs = [optimize.eg_optimize(stacked, shape, "min", cfg)]
    runs += [optimize.eg_optimize(stacked, shape, "min", cfg, inits=[b[i] for b in starts])
             for i in range(1, len(values))]
    for i, res in enumerate(runs):
        assert _hexes(res.value, res.residual, res.iterations) == \
            _hexes(values[i], resids[i], iters[i])
        assert res.converged
        for x, b in zip(res.point, blocks):
            assert x.tobytes() == b[i].tobytes()


@pytest.mark.parametrize("alpha", [0.6, 4.0])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_fd_grad_stack_rows_match_solo_rows_and_the_gradient(alpha, kind):
    """The central differences of a stack of points: each row is that of
    the point alone, and lies near the analytic gradient.  The steps are
    multiplicative, so q * gradient is what they resolve to a rounding
    error of about 1e-16 |f| / 1e-6."""
    stacked, (p_y,) = _problem("stacked", kind, alpha)
    points = _starts(p_y, p_y.size, count=6, seed=5)

    def value(q):
        return stacked.objective([q], None)[0]

    fd = _fd_grad_stack(value, points)
    assert fd.shape == points.shape
    for i, q in enumerate(points):
        assert fd[i].tobytes() == _fd_grad_stack(value, q[None])[0].tobytes()
    _, cache = stacked.objective([points], None)
    np.testing.assert_allclose(fd * points, stacked.grad([points], cache, None)[0] * points,
                               rtol=1e-6, atol=1e-9)


# ----------------------------------------------------------------------
# stacked objectives against their one-point forms
# ----------------------------------------------------------------------

def _points(rng, n, m=6):
    """m interior points, then m points with coordinates floored at EPS."""
    interior = rng.dirichlet(np.ones(n), size=m)
    boundary = rng.dirichlet(np.ones(n), size=m)
    boundary[np.arange(m), rng.integers(n, size=m)] = 0.0
    boundary[0, : n - 1] = 0.0
    return np.vstack([interior, K._floor_rows(boundary)])


def _close(stacked, rows):
    np.testing.assert_allclose(stacked, np.asarray(rows), rtol=1e-12, atol=0.0)


def _instance(rng, nx, ny, sparse):
    p = rng.dirichlet(np.ones(nx))
    W = rng.dirichlet(np.ones(ny), size=nx)
    if sparse:
        p[0] = 0.0
        p /= p.sum()
        W[np.arange(nx), np.arange(nx) % ny] = 0.0
        W /= W.sum(axis=1, keepdims=True)
    return p, W


@pytest.mark.parametrize("alpha", ORDERS)
@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("route", ["augustin_csiszar", "augustin_fallback", "sibson"])
def test_expected_divergence_objective_matches_one_point_form(alpha, sparse, route):
    # the Augustin-Csiszar program, and Sibson's as its one-input case: the
    # row p W^alpha of mass 1
    rng = np.random.default_rng(22)
    p, W = _instance(rng, 3, 4, sparse)
    Wa = W ** alpha
    with np.errstate(divide="ignore"):
        if route == "augustin_csiszar":
            stacked = _expected_divergence_eg(make_pmf(p).probs,
                                              alpha * np.log(make_channel(W).matrix), alpha)
        elif route == "augustin_fallback":
            stacked = _expected_divergence_eg(p, alpha * np.log(W), alpha)
        else:
            p, Wa = np.ones(1), (p @ Wa)[None, :]
            stacked = _expected_divergence_eg(p, np.log(Wa), alpha)
    Q = _points(rng, 4)
    values, S = stacked.objective([Q], None)
    (grad,) = stacked.grad([Q], S, None)
    mask = p > 0.0
    for i, q in enumerate(np.maximum(Q, K.EPS)):
        s = Wa @ q ** (1.0 - alpha)
        _close(values[i], (p[mask] * np.log(s[mask])).sum() / (alpha - 1.0))
        _close(grad[i], -(p / s) @ (Wa * q[None, :] ** (-alpha)))


@pytest.mark.parametrize("alpha", [0.6, 2.0, 4.0, 10.0])
@pytest.mark.parametrize("sparse", [False, True])
def test_lp_two_block_objective_matches_one_point_form(alpha, sparse):
    rng = np.random.default_rng(23)
    p, W = _instance(rng, 3, 4, sparse)
    Pa = (p[:, None] * W) ** alpha
    stacked = _lp_objective(p[:, None] * W, alpha)
    QX, QY = _points(rng, 3), _points(rng, 4)
    values, tot = stacked.objective([QX, QY], None)
    gx, gy = stacked.grad([QX, QY], tot, None)
    for i, (qx, qy) in enumerate(zip(np.maximum(QX, K.EPS), np.maximum(QY, K.EPS))):
        ax, ay = qx ** (1.0 - alpha), qy ** (1.0 - alpha)
        t = ax @ Pa @ ay
        _close(values[i], np.log(t) / (alpha - 1.0))
        _close(gx[i], -(qx ** (-alpha)) * (Pa @ ay) / t)
        _close(gy[i], -(qy ** (-alpha)) * (ax @ Pa) / t)


@pytest.mark.parametrize("g, phi", [
    (soft01_gain(), log_aggregator()),
    (soft01_gain(), q_log_aggregator(0.5)),
    (soft01_gain(), q_log_aggregator(2.0)),
    (power_score_gain(2.0), linear_aggregator()),
    (power_loss(0.5), q_log_aggregator(2.0)),
    (transformed_gain(3.0), linear_aggregator()),
])
@pytest.mark.parametrize("sparse", [False, True])
def test_prior_aggregate_and_fd_gradient_match_one_point_form(g, phi, sparse):
    rng = np.random.default_rng(24)
    probs = rng.dirichlet(np.ones(4))
    if sparse:
        probs[1] = 0.0
        probs /= probs.sum()
    stacked = _prior_objective(g, phi)
    R = _points(rng, 4)
    W = np.broadcast_to(probs, R.shape)
    _close(stacked.objective([R], W)[0], [stacked.objective([r[None]], probs[None])[0][0]
                                          for r in R])
    _close(stacked.grad([R], None, W)[0],
           [_fd_grad_stack(lambda s: stacked.objective([s], probs[None])[0], r[None])[0]
            for r in R])


def test_generic_mixed_route_optimizes():
    # mismatched generators outside the recognized tuples run the
    # mixed-generator objective over stacked restarts; the result is no worse
    # than the best point of a coarse grid
    P = make_pmf([0.5, 0.3, 0.2])
    C = make_channel([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
    cfg = optimize.OptimizerConfig(restarts=3)
    grid = optimize.OptimizerConfig(grid_resolution=0.1)
    for g, phi, psi in ((power_score_gain(0.5), q_log_aggregator(0.5), log_aggregator()),
                        (soft01_gain(), q_log_aggregator(0.5), log_aggregator())):
        res = cond_vulnerability(P, C, g, phi, psi, None, "optimize", cfg)
        oracle = cond_vulnerability(P, C, g, phi, psi, None, "oracle", grid).value
        assert res.method == "optimize" and res.residual <= cfg.tolerance
        if g.sense == "gain":
            assert oracle - 1e-9 <= res.value <= oracle + 0.01
        else:
            assert oracle - 0.01 <= res.value <= oracle + 1e-9


# ----------------------------------------------------------------------
# the generic per-observation objectives and the mixed-generator route
# ----------------------------------------------------------------------

GENERIC = {
    "custom": lambda: (soft01_gain(), affine_transform(q_log_aggregator(2.0), 2.5, -0.75)),
    "transformed": lambda: (transformed_gain(3.0), linear_aggregator()),
    "soft01_linear": lambda: (soft01_gain(), linear_aggregator()),
    "power_loss_log": lambda: (power_loss(0.5), q_log_aggregator(2.0)),
}
MIXED = {
    "soft01_q05_log": lambda: (soft01_gain(), q_log_aggregator(0.5), log_aggregator()),
    "power05_log_q2": lambda: (power_score_gain(0.5), log_aggregator(), q_log_aggregator(2.0)),
    "transformed_lin_q05": lambda: (transformed_gain(3.0), linear_aggregator(),
                                    q_log_aggregator(0.5)),
}


def _generic_instance(tag):
    """The prior and channel of a '<n_x>x<n_y>' + 'd'ense or 's'parse tag."""
    n_x, n_y, sparse = int(tag[0]), int(tag[2]), tag[3] == "s"
    rng = np.random.default_rng(10 * n_x + n_y)
    p = rng.dirichlet(np.ones(n_x))
    W = rng.dirichlet(np.ones(n_y), size=n_x)
    if sparse:
        p[0] = 0.0
        W[rng.random((n_x, n_y)) < 0.3] = 0.0
        W[np.arange(n_x), np.arange(n_x) % n_y] += 0.05
        W /= W.sum(axis=1, keepdims=True)
        p /= p.sum()
    return make_pmf(p), make_channel(W)


def _generic_run(kind, name, method, tag):
    p, W = _generic_instance(tag)
    cfg = optimize.OptimizerConfig(
        grid_resolution={"cond": 0.01, "prior": 0.01, "mixed": 0.1}[kind] * (1 + (p.n > 3)))
    if kind == "mixed":
        g, phi, psi = MIXED[name]()
        res = cond_vulnerability(p, W, g, phi, psi, None, method, cfg)
    elif kind == "prior":
        res = prior_vulnerability(p, *GENERIC[name](), None, method, cfg)
    else:
        g, phi = GENERIC[name]()
        res = cond_vulnerability(p, W, g, phi, phi, None, method, cfg)
    assert res.method == method
    return (res.value.hex(),)


@pytest.mark.parametrize("kind", ["prior", "cond"])
def test_generic_route_raises_when_no_start_converges(kind):
    p, W = _generic_instance("3x2d")
    g, phi = GENERIC["custom"]()
    cfg = optimize.OptimizerConfig(max_iters=1)
    with pytest.raises(ConvergenceFailure, match="no EG restart reached residual 1e-10 "
                                                 "within 1 iterations"):
        if kind == "prior":
            prior_vulnerability(p, g, phi, None, "optimize", cfg)
        else:
            cond_vulnerability(p, W, g, phi, phi, None, "optimize", cfg)


# every EG route: under a budget of two iterations no row of the dense3
# problems below can stop on three hits or reach the tolerance, and each
# route raises (the tsallis, coupled and mixed-generator routes returned
# the best row's value, e.g. 0x1.cbf7362f0c313p-4 for Arimoto at 0.6)
EG_ROUTES = {
    "tsallis_arimoto": lambda p, W, a, cfg: alpha_mi_via_leakage("arimoto", p, W, a,
                                                                 "optimize", cfg),
    "tsallis_sibson": lambda p, W, a, cfg: alpha_mi_via_leakage("sibson", p, W, a,
                                                                "optimize", cfg),
    "coupled_ac": lambda p, W, a, cfg: cond_vulnerability(
        p, W, soft01_gain(), log_aggregator(), q_log_aggregator(1.0 / a), "gain", "optimize",
        cfg),
    "coupled_lp": lambda p, W, a, cfg: cond_vulnerability(
        p, W, soft01_gain(), q_log_aggregator(a / (2.0 * a - 1.0)), q_log_aggregator(1.0 / a),
        "gain", "optimize", cfg),
    "mixed": lambda p, W, a, cfg: cond_vulnerability(
        p, W, *MIXED["soft01_q05_log"](), None, "optimize", cfg),
    "generic": lambda p, W, a, cfg: prior_vulnerability(p, *GENERIC["custom"](), None,
                                                        "optimize", cfg),
    "eg_optimize": lambda p, W, a, cfg: optimize.eg_optimize(
        _expected_divergence_eg(np.ones(1), np.log(p.probs @ W.matrix ** a)[None, :], a),
        [W.n_y], "min", cfg),
}


@pytest.mark.parametrize("alpha", [0.6, 2.0])
@pytest.mark.parametrize("route", sorted(EG_ROUTES))
def test_every_eg_route_raises_when_no_row_converges(route, alpha):
    p = make_pmf([0.2, 0.3, 0.5])
    W = make_channel([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    cfg = optimize.OptimizerConfig(max_iters=2)
    with pytest.raises(ConvergenceFailure, match="no EG restart reached residual 1e-10 "
                                                 "within 2 iterations"):
        EG_ROUTES[route](p, W, alpha, cfg)


# ----------------------------------------------------------------------
# the pinned optimize routes
# ----------------------------------------------------------------------

# key -> (value, source, distance): ("alpha_mi" | "via_leakage", variant,
# order, instance) of the optimize routes, and ("cond" | "prior" | "mixed",
# objective, method, instance) of the generic and mixed-generator routes
PINS = {
    ('alpha_mi', 'arimoto', 0.6, 'dense'): ('0x1.642830fe5d718p-4', 'alpha_mi', 5.9e-15),
    ('alpha_mi', 'arimoto', 0.6, 'sparse'): ('0x1.31434d289fe73p-3', 'alpha_mi', 1.7e-12),
    ('alpha_mi', 'arimoto', 2.0, 'dense'): ('0x1.3c7941a9a3750p-4', 'alpha_mi', 7e-14),
    ('alpha_mi', 'arimoto', 2.0, 'sparse'): ('0x1.bf5f748f2fbe9p-6', 'alpha_mi', 6e-12),
    ('alpha_mi', 'arimoto', 4.0, 'dense'): ('0x1.1524da3119280p-5', 'alpha_mi', 1.7e-12),
    ('alpha_mi', 'arimoto', 4.0, 'sparse'): ('0x1.074103efd39dep-6', 'alpha_mi', 1.7e-12),
    ('alpha_mi', 'arimoto', 10.0, 'dense'): ('0x1.652c1d5afeb80p-8', 'alpha_mi', 3.1e-12),
    ('alpha_mi', 'arimoto', 10.0, 'sparse'): ('0x1.9d2bcdb3981f7p-7', 'alpha_mi', 2e-12),
    ('alpha_mi', 'augustin_csiszar', 0.6, 'dense'): ('0x1.1cf7f25017740p-4', 'alpha_mi', 1.7e-14),
    ('alpha_mi', 'augustin_csiszar', 0.6, 'sparse'): ('0x1.d7001bdf2af27p-5', 'alpha_mi', 1.7e-13),
    ('alpha_mi', 'augustin_csiszar', 2.0, 'dense'): ('0x1.201b269d164f6p-3', 'alpha_mi', 3.5e-15),
    ('alpha_mi', 'augustin_csiszar', 2.0, 'sparse'): ('0x1.6575f8c309890p-4', 'alpha_mi', 2.6e-15),
    ('alpha_mi', 'augustin_csiszar', 4.0, 'dense'): ('0x1.6a8d16932449fp-3', 'alpha_mi', 1.8e-13),
    ('alpha_mi', 'augustin_csiszar', 4.0, 'sparse'): ('0x1.73114d1e79704p-4', 'alpha_mi', 8.9e-15),
    ('alpha_mi', 'augustin_csiszar', 10.0, 'dense'): ('0x1.ad31dc7c255e8p-3', 'alpha_mi', 3.9e-16),
    ('alpha_mi', 'augustin_csiszar', 10.0, 'sparse'): ('0x1.7a49fd4d8d034p-4', 'alpha_mi', 2e-11),
    ('alpha_mi', 'hayashi', 0.6, 'dense'): ('0x1.7a0d8fa265fc8p-4', 'alpha_mi', 0.0),
    ('alpha_mi', 'hayashi', 0.6, 'sparse'): ('0x1.34aa4d9e91d1cp-3', 'alpha_mi', 1.1e-07),
    ('alpha_mi', 'hayashi', 2.0, 'dense'): ('0x1.9b40559f49cd8p-4', 'alpha_mi', 1.2e-16),
    ('alpha_mi', 'hayashi', 2.0, 'sparse'): ('0x1.d6b9ea40754e4p-6', 'alpha_mi', 7e-17),
    ('alpha_mi', 'hayashi', 4.0, 'dense'): ('0x1.233001bce83f0p-3', 'alpha_mi', 1.2e-16),
    ('alpha_mi', 'hayashi', 4.0, 'sparse'): ('0x1.4a25db28d5c80p-6', 'alpha_mi', 5.6e-17),
    ('alpha_mi', 'hayashi', 10.0, 'dense'): ('0x1.074278703edb4p-2', 'alpha_mi', 1.7e-16),
    ('alpha_mi', 'hayashi', 10.0, 'sparse'): ('0x1.391babbdb80f8p-6', 'alpha_mi', 7.3e-17),
    ('alpha_mi', 'lapidoth_pfister', 0.6, 'dense'): ('0x1.0e729374e1e90p-4', 'alpha_mi', 6.3e-14),
    ('alpha_mi', 'lapidoth_pfister', 0.6, 'sparse'): ('0x1.cf1611f78ec70p-6', 'alpha_mi', 1.4e-14),
    ('alpha_mi', 'lapidoth_pfister', 2.0, 'dense'): ('0x1.3332357bc5760p-3', 'alpha_mi', 6.7e-14),
    ('alpha_mi', 'lapidoth_pfister', 2.0, 'sparse'): ('0x1.34b0a8f95c058p-3', 'alpha_mi', 1.7e-12),
    ('alpha_mi', 'lapidoth_pfister', 4.0, 'dense'): ('0x1.9403d16d7a365p-3', 'alpha_mi', 2e-13),
    ('alpha_mi', 'lapidoth_pfister', 4.0, 'sparse'): ('0x1.8adbf536aaa20p-3', 'alpha_mi', 5.4e-12),
    ('alpha_mi', 'lapidoth_pfister', 10.0, 'dense'): ('0x1.ec3fedb6ff0b4p-3', 'alpha_mi', 3.7e-11),
    ('alpha_mi', 'lapidoth_pfister', 10.0, 'sparse'):
        ('0x1.ba36a9831d89dp-3', 'alpha_mi', 1.3e-12),
    ('alpha_mi', 'sibson', 0.6, 'dense'): ('0x1.1449575be1148p-4', 'alpha_mi', 4.4e-15),
    ('alpha_mi', 'sibson', 0.6, 'sparse'): ('0x1.31a2a0a102258p-5', 'alpha_mi', 1.2e-15),
    ('alpha_mi', 'sibson', 2.0, 'dense'): ('0x1.4665429a6ddb0p-3', 'alpha_mi', 0.0),
    ('alpha_mi', 'sibson', 2.0, 'sparse'): ('0x1.aa35e4797ccf4p-3', 'alpha_mi', 2.3e-16),
    ('alpha_mi', 'sibson', 4.0, 'dense'): ('0x1.055767ef3ece9p-2', 'alpha_mi', 5.6e-17),
    ('alpha_mi', 'sibson', 4.0, 'sparse'): ('0x1.79a50e86119b5p-2', 'alpha_mi', 0.0),
    ('alpha_mi', 'sibson', 10.0, 'dense'): ('0x1.9c9a3bcfebc8bp-2', 'alpha_mi', 2.6e-14),
    ('alpha_mi', 'sibson', 10.0, 'sparse'): ('0x1.041ed59854edcp-1', 'alpha_mi', 2.2e-15),
    ('cond', 'custom', 'optimize', '2x2d'): ('0x1.15a35ab2a3022p-1', None, None),
    ('cond', 'custom', 'optimize', '2x2s'): ('0x1.fffffffffdcd0p-1', None, None),
    ('cond', 'custom', 'optimize', '3x2d'): ('0x1.7e361d77f8452p-2', None, None),
    ('cond', 'custom', 'optimize', '3x2s'): ('0x1.20c67c5810fd3p-1', None, None),
    ('cond', 'custom', 'optimize', '4x2d'): ('0x1.249bc4ce13cd0p-2', None, None),
    ('cond', 'custom', 'optimize', '4x2s'): ('0x1.ddaa42adf90ffp-2', None, None),
    ('cond', 'custom', 'oracle', '2x2d'): ('0x1.15a0a2dfdef99p-1', None, None),
    ('cond', 'custom', 'oracle', '2x2s'): ('0x1.0000000000000p+0', None, None),
    ('cond', 'custom', 'oracle', '3x2d'): ('0x1.7e34a21f3799dp-2', None, None),
    ('cond', 'custom', 'oracle', '3x2s'): ('0x1.20c3f18a8f858p-1', None, None),
    ('cond', 'custom', 'oracle', '4x2d'): ('0x1.24543ce5db3a6p-2', None, None),
    ('cond', 'custom', 'oracle', '4x2s'): ('0x1.dda49d4667b22p-2', None, None),
    ('cond', 'power_loss_log', 'optimize', '2x2d'): ('0x1.57e6e906133b8p+0', None, None),
    ('cond', 'power_loss_log', 'optimize', '2x2s'): ('0x1.000010c6f7e72p+0', None, None),
    ('cond', 'power_loss_log', 'optimize', '3x2d'): ('0x1.aacc9eca24075p+0', None, None),
    ('cond', 'power_loss_log', 'optimize', '3x2s'): ('0x1.526b5ace0935cp+0', None, None),
    ('cond', 'power_loss_log', 'optimize', '4x2d'): ('0x1.3c67c56048ecfp+1', None, None),
    ('cond', 'power_loss_log', 'optimize', '4x2s'): ('0x1.f84718fd52ec2p+0', None, None),
    ('cond', 'power_loss_log', 'oracle', '2x2d'): ('0x1.57e6d27c5e8e1p+0', None, None),
    ('cond', 'power_loss_log', 'oracle', '2x2s'): ('0x1.0000000000000p+0', None, None),
    ('cond', 'power_loss_log', 'oracle', '3x2d'): ('0x1.aacc66d92c5dap+0', None, None),
    ('cond', 'power_loss_log', 'oracle', '3x2s'): ('0x1.50f82aba58b24p+0', None, None),
    ('cond', 'power_loss_log', 'oracle', '4x2d'): ('0x1.3c67872b26234p+1', None, None),
    ('cond', 'power_loss_log', 'oracle', '4x2s'): ('0x1.d8addfeeddd4bp+0', None, None),
    ('cond', 'soft01_linear', 'optimize', '2x2d'): ('0x1.7d21d95a26e1cp-1', None, None),
    ('cond', 'soft01_linear', 'optimize', '2x2s'): ('0x1.fffffffffdcd1p-1', None, None),
    ('cond', 'soft01_linear', 'optimize', '3x2d'): ('0x1.331aeb11ad3d8p-1', None, None),
    ('cond', 'soft01_linear', 'optimize', '3x2s'): ('0x1.84f916af3dc39p-1', None, None),
    ('cond', 'soft01_linear', 'optimize', '4x2d'): ('0x1.9e413173c1e1bp-2', None, None),
    ('cond', 'soft01_linear', 'optimize', '4x2s'): ('0x1.154bbf97bf851p-1', None, None),
    ('cond', 'soft01_linear', 'oracle', '2x2d'): ('0x1.7d21d95a27f4ep-1', None, None),
    ('cond', 'soft01_linear', 'oracle', '2x2s'): ('0x1.0000000000000p+0', None, None),
    ('cond', 'soft01_linear', 'oracle', '3x2d'): ('0x1.331aeb11aeff9p-1', None, None),
    ('cond', 'soft01_linear', 'oracle', '3x2s'): ('0x1.84f916af4093ap-1', None, None),
    ('cond', 'soft01_linear', 'oracle', '4x2d'): ('0x1.9e413173c499ap-2', None, None),
    ('cond', 'soft01_linear', 'oracle', '4x2s'): ('0x1.154bbf97c215bp-1', None, None),
    ('cond', 'transformed', 'optimize', '2x2d'): ('-0x1.703117415b5a9p-2', None, None),
    ('cond', 'transformed', 'optimize', '2x2s'): ('-0x1.197bfffffffffp-40', None, None),
    ('cond', 'transformed', 'optimize', '3x2d'): ('-0x1.16059af0529d7p-1', None, None),
    ('cond', 'transformed', 'optimize', '3x2s'): ('-0x1.37b40598facdep-2', None, None),
    ('cond', 'transformed', 'optimize', '4x2d'): ('-0x1.7df05ec0071a8p-1', None, None),
    ('cond', 'transformed', 'optimize', '4x2s'): ('-0x1.1a24ae4ffc6bfp-1', None, None),
    ('cond', 'transformed', 'oracle', '2x2d'): ('-0x1.7084c60faf9b1p-2', None, None),
    ('cond', 'transformed', 'oracle', '2x2s'): ('0x0.0p+0', None, None),
    ('cond', 'transformed', 'oracle', '3x2d'): ('-0x1.164908c307db2p-1', None, None),
    ('cond', 'transformed', 'oracle', '3x2s'): ('-0x1.387ee8e8b9090p-2', None, None),
    ('cond', 'transformed', 'oracle', '4x2d'): ('-0x1.7e31cc1cf04dbp-1', None, None),
    ('cond', 'transformed', 'oracle', '4x2s'): ('-0x1.1a265f5fc3d90p-1', None, None),
    ('mixed', 'power05_log_q2', 'optimize', '2x2d'): ('0x1.486bf13466c23p+0', None, None),
    ('mixed', 'power05_log_q2', 'optimize', '2x2s'): ('0x1.000008637bd06p+0', None, None),
    ('mixed', 'power05_log_q2', 'optimize', '3x2d'): ('0x1.92265d4891025p+0', None, None),
    ('mixed', 'power05_log_q2', 'optimize', '3x2s'): ('0x1.42e6d12ede38fp+0', None, None),
    ('mixed', 'power05_log_q2', 'oracle', '2x2d'): ('0x1.48bd1d482580bp+0', None, None),
    ('mixed', 'power05_log_q2', 'oracle', '2x2s'): ('0x1.0000000000002p+0', None, None),
    ('mixed', 'power05_log_q2', 'oracle', '3x2d'): ('0x1.941b923367eb3p+0', None, None),
    ('mixed', 'power05_log_q2', 'oracle', '3x2s'): ('0x1.42fb25f83ee89p+0', None, None),
    ('mixed', 'soft01_q05_log', 'optimize', '2x2d'): ('0x1.29079e79b4859p-1', None, None),
    ('mixed', 'soft01_q05_log', 'optimize', '2x2s'): ('0x1.fffffffffdcd0p-1', None, None),
    ('mixed', 'soft01_q05_log', 'optimize', '3x2d'): ('0x1.d2af6b6987d70p-2', None, None),
    ('mixed', 'soft01_q05_log', 'optimize', '3x2s'): ('0x1.4fd39299070dcp-1', None, None),
    ('mixed', 'soft01_q05_log', 'oracle', '2x2d'): ('0x1.27ee8aa973227p-1', None, None),
    ('mixed', 'soft01_q05_log', 'oracle', '2x2s'): ('0x1.0000000000000p+0', None, None),
    ('mixed', 'soft01_q05_log', 'oracle', '3x2d'): ('0x1.ceb8701e7b7e2p-2', None, None),
    ('mixed', 'soft01_q05_log', 'oracle', '3x2s'): ('0x1.4dcca5b8e8c95p-1', None, None),
    ('mixed', 'transformed_lin_q05', 'optimize', '2x2d'): ('DomainError', None, None),
    ('mixed', 'transformed_lin_q05', 'optimize', '2x2s'): ('DomainError', None, None),
    ('mixed', 'transformed_lin_q05', 'optimize', '3x2d'): ('DomainError', None, None),
    ('mixed', 'transformed_lin_q05', 'optimize', '3x2s'): ('DomainError', None, None),
    ('mixed', 'transformed_lin_q05', 'oracle', '2x2d'): ('DomainError', None, None),
    ('mixed', 'transformed_lin_q05', 'oracle', '2x2s'): ('DomainError', None, None),
    ('mixed', 'transformed_lin_q05', 'oracle', '3x2d'): ('DomainError', None, None),
    ('mixed', 'transformed_lin_q05', 'oracle', '3x2s'): ('DomainError', None, None),
    ('prior', 'custom', 'optimize', '2x2d'): ('0x1.003183f82bd3ep-1', None, None),
    ('prior', 'custom', 'optimize', '2x2s'): ('0x1.fffffffffdcd0p-1', None, None),
    ('prior', 'custom', 'optimize', '3x2d'): ('0x1.6f933f5686c3fp-2', None, None),
    ('prior', 'custom', 'optimize', '3x2s'): ('0x1.12e7ad36dedc1p-1', None, None),
    ('prior', 'custom', 'optimize', '4x2d'): ('0x1.1da5e17f55db5p-2', None, None),
    ('prior', 'custom', 'optimize', '4x2s'): ('0x1.8ac05e03e52f4p-2', None, None),
    ('prior', 'custom', 'oracle', '2x2d'): ('0x1.002dd66ecdbb8p-1', None, None),
    ('prior', 'custom', 'oracle', '2x2s'): ('0x1.0000000000000p+0', None, None),
    ('prior', 'custom', 'oracle', '3x2d'): ('0x1.6f89846f04366p-2', None, None),
    ('prior', 'custom', 'oracle', '3x2s'): ('0x1.12e27a803329fp-1', None, None),
    ('prior', 'custom', 'oracle', '4x2d'): ('0x1.1d9dbaf1cc4ccp-2', None, None),
    ('prior', 'custom', 'oracle', '4x2s'): ('0x1.8a7ccd866a733p-2', None, None),
    ('prior', 'power_loss_log', 'optimize', '2x2d'): ('0x1.fe6f73772ea50p+0', None, None),
    ('prior', 'power_loss_log', 'optimize', '2x2s'): ('0x1.000010c6f7e72p+0', None, None),
    ('prior', 'power_loss_log', 'optimize', '3x2d'): ('0x1.aacc9eca24075p+0', None, None),
    ('prior', 'power_loss_log', 'optimize', '3x2s'): ('0x1.53f24d5b42896p+0', None, None),
    ('prior', 'power_loss_log', 'optimize', '4x2d'): ('0x1.8f05652d456b4p+1', None, None),
    ('prior', 'power_loss_log', 'optimize', '4x2s'): ('0x1.0f24d6499a8f6p+1', None, None),
    ('prior', 'power_loss_log', 'oracle', '2x2d'): ('0x1.e556c367d113dp+0', None, None),
    ('prior', 'power_loss_log', 'oracle', '2x2s'): ('0x1.0000000000000p+0', None, None),
    ('prior', 'power_loss_log', 'oracle', '3x2d'): ('0x1.aacc66d92c5dcp+0', None, None),
    ('prior', 'power_loss_log', 'oracle', '3x2s'): ('0x1.53f220cc92b17p+0', None, None),
    ('prior', 'power_loss_log', 'oracle', '4x2d'): ('0x1.8a3d5168e8f03p+1', None, None),
    ('prior', 'power_loss_log', 'oracle', '4x2s'): ('0x1.0c69233016c82p+1', None, None),
    ('prior', 'soft01_linear', 'optimize', '2x2d'): ('0x1.0e10155ad100bp-1', None, None),
    ('prior', 'soft01_linear', 'optimize', '2x2s'): ('0x1.fffffffffdcd1p-1', None, None),
    ('prior', 'soft01_linear', 'optimize', '3x2d'): ('0x1.331aeb11ad3dap-1', None, None),
    ('prior', 'soft01_linear', 'optimize', '3x2s'): ('0x1.81913ca4ebbcbp-1', None, None),
    ('prior', 'soft01_linear', 'optimize', '4x2d'): ('0x1.4c77ca8b6c2c6p-2', None, None),
    ('prior', 'soft01_linear', 'optimize', '4x2s'): ('0x1.e853883b2e9d0p-2', None, None),
    ('prior', 'soft01_linear', 'oracle', '2x2d'): ('0x1.0e10155ad11fap-1', None, None),
    ('prior', 'soft01_linear', 'oracle', '2x2s'): ('0x1.0000000000000p+0', None, None),
    ('prior', 'soft01_linear', 'oracle', '3x2d'): ('0x1.331aeb11aeffap-1', None, None),
    ('prior', 'soft01_linear', 'oracle', '3x2s'): ('0x1.81913ca4ee819p-1', None, None),
    ('prior', 'soft01_linear', 'oracle', '4x2d'): ('0x1.4c77ca8b6d7cap-2', None, None),
    ('prior', 'soft01_linear', 'oracle', '4x2s'): ('0x1.e853883b329acp-2', None, None),
    ('prior', 'transformed', 'optimize', '2x2d'): ('-0x1.1abc1832a518cp-1', None, None),
    ('prior', 'transformed', 'optimize', '2x2s'): ('-0x1.197bfffffffffp-40', None, None),
    ('prior', 'transformed', 'optimize', '3x2d'): ('-0x1.283408a7b4a42p-1', None, None),
    ('prior', 'transformed', 'optimize', '3x2s'): ('-0x1.6ddc1af0c9863p-2', None, None),
    ('prior', 'transformed', 'optimize', '4x2d'): ('-0x1.9c9e70938768cp-1', None, None),
    ('prior', 'transformed', 'optimize', '4x2s'): ('-0x1.3715aca11b301p-1', None, None),
    ('prior', 'transformed', 'oracle', '2x2d'): ('-0x1.1abc4441ddbf2p-1', None, None),
    ('prior', 'transformed', 'oracle', '2x2s'): ('0x0.0p+0', None, None),
    ('prior', 'transformed', 'oracle', '3x2d'): ('-0x1.283c23d759645p-1', None, None),
    ('prior', 'transformed', 'oracle', '3x2s'): ('-0x1.6dedafe74488cp-2', None, None),
    ('prior', 'transformed', 'oracle', '4x2d'): ('-0x1.9cb05de7f6380p-1', None, None),
    ('prior', 'transformed', 'oracle', '4x2s'): ('-0x1.3737335b738bfp-1', None, None),
    ('via_leakage', 'arimoto', 0.6, 'dense'): ('0x1.642830fe5d71fp-4', 'alpha_mi', 5.8e-15),
    ('via_leakage', 'arimoto', 0.6, 'sparse'): ('0x1.31434d28a8f87p-3', 'alpha_mi', 5.9e-13),
    ('via_leakage', 'arimoto', 2.0, 'dense'): ('0x1.3c7941a9ac2bep-4', 'alpha_mi', 4.3e-13),
    ('via_leakage', 'arimoto', 2.0, 'sparse'): ('0x1.bf5f748f7622ap-6', 'alpha_mi', 5e-12),
    ('via_leakage', 'arimoto', 4.0, 'dense'): ('0x1.1524da3119493p-5', 'alpha_mi', 1.7e-12),
    ('via_leakage', 'arimoto', 4.0, 'sparse'): ('0x1.074103f01b1e3p-6', 'alpha_mi', 6.3e-13),
    ('via_leakage', 'arimoto', 10.0, 'dense'): ('0x1.652c1d5b023e3p-8', 'alpha_mi', 3e-12),
    ('via_leakage', 'arimoto', 10.0, 'sparse'): ('0x1.9d2bcdb47ad2ep-7', 'alpha_mi', 3.3e-13),
    ('via_leakage', 'augustin_csiszar', 0.6, 'dense'):
        ('0x1.1cf7f25011b1bp-4', 'alpha_mi', 3.2e-13),
    ('via_leakage', 'augustin_csiszar', 0.6, 'sparse'):
        ('0x1.d7001bbb8410bp-5', 'alpha_mi', 2.6e-10),
    ('via_leakage', 'augustin_csiszar', 2.0, 'dense'):
        ('0x1.201b269cb11c9p-3', 'alpha_mi', 1.2e-11),
    ('via_leakage', 'augustin_csiszar', 2.0, 'sparse'):
        ('0x1.6575f89f5a488p-4', 'alpha_mi', 5.2e-10),
    ('via_leakage', 'augustin_csiszar', 4.0, 'dense'):
        ('0x1.6a8d1692917f3p-3', 'alpha_mi', 1.7e-11),
    ('via_leakage', 'augustin_csiszar', 4.0, 'sparse'):
        ('0x1.73114d0fe6d42p-4', 'alpha_mi', 2.2e-10),
    ('via_leakage', 'augustin_csiszar', 10.0, 'dense'):
        ('0x1.ad31dc76f2c0cp-3', 'alpha_mi', 1.6e-10),
    ('via_leakage', 'augustin_csiszar', 10.0, 'sparse'):
        ('0x1.7a49fd4b91418p-4', 'alpha_mi', 4.9e-11),
    ('via_leakage', 'hayashi', 0.6, 'dense'): ('0x1.7a0d8fa265fcbp-4', 'alpha_mi', 4.2e-17),
    ('via_leakage', 'hayashi', 0.6, 'sparse'): ('0x1.34aa5568a5116p-3', 'alpha_mi', 4.3e-08),
    ('via_leakage', 'hayashi', 2.0, 'dense'): ('0x1.9b40559f49ccap-4', 'alpha_mi', 3.1e-16),
    ('via_leakage', 'hayashi', 2.0, 'sparse'): ('0x1.d6b9ea40754e3p-6', 'alpha_mi', 6.6e-17),
    ('via_leakage', 'hayashi', 4.0, 'dense'): ('0x1.233001bce83edp-3', 'alpha_mi', 2e-16),
    ('via_leakage', 'hayashi', 4.0, 'sparse'): ('0x1.4a25db28d5c77p-6', 'alpha_mi', 8.7e-17),
    ('via_leakage', 'hayashi', 10.0, 'dense'): ('0x1.074278703edb3p-2', 'alpha_mi', 2.3e-16),
    ('via_leakage', 'hayashi', 10.0, 'sparse'): ('0x1.391babbdb80e3p-6', 'alpha_mi', 1.5e-16),
    ('via_leakage', 'lapidoth_pfister', 0.6, 'dense'):
        ('0x1.0e729374b1177p-4', 'alpha_mi', 2.8e-12),
    ('via_leakage', 'lapidoth_pfister', 0.6, 'sparse'):
        ('0x1.cf16118ee64a2p-6', 'alpha_mi', 3.9e-10),
    ('via_leakage', 'lapidoth_pfister', 2.0, 'dense'):
        ('0x1.3332357bc23efp-3', 'alpha_mi', 4.4e-13),
    ('via_leakage', 'lapidoth_pfister', 2.0, 'sparse'):
        ('0x1.34b0a8f1f12fbp-3', 'alpha_mi', 2.2e-10),
    ('via_leakage', 'lapidoth_pfister', 4.0, 'dense'):
        ('0x1.9403d16d49099p-3', 'alpha_mi', 5.8e-12),
    ('via_leakage', 'lapidoth_pfister', 4.0, 'sparse'):
        ('0x1.8adbf5351f31ep-3', 'alpha_mi', 5.1e-11),
    ('via_leakage', 'lapidoth_pfister', 10.0, 'dense'):
        ('0x1.ec3fedb56e54dp-3', 'alpha_mi', 8.3e-11),
    ('via_leakage', 'lapidoth_pfister', 10.0, 'sparse'):
        ('0x1.ba36a97d7b6e6p-3', 'alpha_mi', 1.7e-10),
    ('via_leakage', 'sibson', 0.6, 'dense'): ('0x1.1449575bc9008p-4', 'alpha_mi', 1.4e-12),
    ('via_leakage', 'sibson', 0.6, 'sparse'): ('0x1.31a2a0a0ebd1bp-5', 'alpha_mi', 6.4e-13),
    ('via_leakage', 'sibson', 2.0, 'dense'): ('0x1.4665429a65f92p-3', 'alpha_mi', 9e-13),
    ('via_leakage', 'sibson', 2.0, 'sparse'): ('0x1.aa35e479774fcp-3', 'alpha_mi', 6.3e-13),
    ('via_leakage', 'sibson', 4.0, 'dense'): ('0x1.055767ef3c772p-2', 'alpha_mi', 5.4e-13),
    ('via_leakage', 'sibson', 4.0, 'sparse'): ('0x1.79a50e8602ddfp-2', 'alpha_mi', 3.4e-12),
    ('via_leakage', 'sibson', 10.0, 'dense'): ('0x1.9c9a3bcfd32d3p-2', 'alpha_mi', 5.6e-12),
    ('via_leakage', 'sibson', 10.0, 'sparse'): ('0x1.041ed5985367cp-1', 'alpha_mi', 7e-13),
}


def _pmf_channel(kind):
    p, W, _ = seeded(kind)
    return make_pmf(p), make_channel(W)


def observe(key):
    route, name, third, tag = key
    if route not in ("alpha_mi", "via_leakage"):
        return outcome(lambda: _generic_run(*key))
    fn = alpha_mi if route == "alpha_mi" else alpha_mi_via_leakage
    return outcome(lambda: (fn(name, *_pmf_channel(tag), third, method="optimize").hex(),))


def independent(source, key):
    _, variant, alpha, kind = key
    return closed_form(source, variant, alpha, kind)


@pytest.mark.parametrize("key", sorted(PINS), ids=pin_id)
def test_pins(key):
    assert_pin(PINS[key], observe(key), lambda source: independent(source, key))
