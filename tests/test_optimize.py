import math
import tracemalloc
import warnings

import numpy as np
import pytest

from alphaleak import (
    ConvergenceFailure,
    InvalidOrder,
    NumericalInconsistency,
    OracleTooLarge,
    ValidationError,
    alpha_mi,
    augustin_fixed_point,
    compose_joint,
    eg_optimize,
    gibbs_optimum,
    joint_from_matrix,
    lp_alternating,
    make_channel,
    make_pmf,
    q_log,
    simplex_grid,
)
from alphaleak import _kernels, optimize
from alphaleak._kernels import _Stacked, power_objective
from alphaleak.optimize import (
    OptimizerConfig,
    _compositions,
    oracle_optimize_rule,
    oracle_optimize_single,
)
from conftest import random_pair


def _compositions_reference(n, k):
    """Recursive lexicographic compositions of k into n nonnegative parts."""
    if n == 2:
        first = np.arange(k + 1)
        return np.column_stack([first, k - first])
    blocks = []
    for first in range(k + 1):
        rest = _compositions_reference(n - 1, k - first)
        blocks.append(np.column_stack([np.full(len(rest), first), rest]))
    return np.vstack(blocks)


class TestSimplexGrid:
    def test_two_symbols_half(self):
        grid = simplex_grid(2, 0.5)
        np.testing.assert_allclose(grid, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])

    def test_three_symbols_count(self):
        assert simplex_grid(3, 0.5).shape == (6, 3)  # C(4,2)

    def test_rows_are_pmfs(self):
        for row in simplex_grid(3, 0.25):
            make_pmf(row)  # raises if invalid

    def test_budget_guard(self):
        with pytest.raises(OracleTooLarge):
            simplex_grid(8, 1e-3)

    def test_resolution_must_divide(self):
        with pytest.raises(ValidationError):
            simplex_grid(2, 0.3)

    def test_needs_two_symbols(self):
        with pytest.raises(ValidationError):
            simplex_grid(1, 0.5)

    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("k", (1, 7, 50, 200))
    def test_compositions_match_recursive_reference(self, n, k):
        got = _compositions(n, k)
        assert got.shape == (math.comb(k + n - 1, n - 1), n)
        np.testing.assert_array_equal(got, _compositions_reference(n, k))

    def test_grid_is_compositions_over_k(self):
        grid = simplex_grid(3, 0.125)
        np.testing.assert_array_equal(grid, _compositions(3, 8) / 8.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("resolution", [0.5, 0.1, 0.02, 5e-3])
    def test_grid_keeps_the_bits_and_order_of_a_float_copy(self, n, resolution):
        # the grid was built as a float64 copy of the compositions divided by
        # k; dividing the integers directly gives the same bits, column-major
        k = round(1.0 / resolution)
        grid = simplex_grid(n, resolution)
        built = _compositions(n, k).astype(np.float64) / k
        assert grid.dtype == built.dtype and grid.shape == built.shape
        assert grid.flags.f_contiguous and built.flags.f_contiguous
        assert grid.tobytes(order="A") == built.tobytes(order="A")


def _stacked(value, grad):
    """A stacked objective from the values and the gradients, one array per
    block, of a stack of points given as its list of blocks."""
    return _Stacked(lambda blocks, data: (value(blocks), None),
                    lambda blocks, cache, data: grad(blocks))


def _linear(*c):
    """sum_i c_i . b_i over the blocks b_i of each point."""
    return _stacked(lambda blocks: sum(b @ ci for b, ci in zip(blocks, c)),
                    lambda blocks: [np.broadcast_to(ci, b.shape) for b, ci in zip(blocks, c)])


class TestEgOptimize:
    def test_linear_objective_hits_vertex(self, cfg):
        res = eg_optimize(_linear(np.array([0.1, 0.9, 0.3])), [3], "max", cfg)
        assert abs(res.value - 0.9) < 1e-6
        assert res.point[0][1] > 1.0 - 1e-5
        # two blocks: the vertices 3 and 5
        res = eg_optimize(_linear(np.array([1.0, 3.0, 2.0]), np.array([5.0, 4.0])), [3, 2],
                          "max", cfg)
        assert abs(res.value - 8.0) < 1e-5

    def test_gibbs_objective_matches_closed_form(self, cfg, rng):
        # closed-form optimum as the oracle for the EG engine
        for q in (0.5, 2.0):
            p = make_pmf(0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3, renormalize=True)
            opt = gibbs_optimum(p, q)
            objective = _stacked(lambda b: q_log(np.maximum(b[0], 1e-300), q) @ p.probs,
                                 lambda b: [p.probs * b[0] ** -q])
            res = eg_optimize(objective, [3], "max", cfg)
            assert abs(res.value - opt.value) < 1e-8
            assert np.abs(res.point[0] - opt.argmax.probs).sum() < 0.01

    def test_monotone_final_at_least_initial(self, rng):
        cfg = OptimizerConfig(max_iters=2000)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            A = rng.normal(size=(n, n))
            A = A @ A.T + np.eye(n)
            b = rng.normal(size=n)
            objective = _stacked(
                lambda x, A=A, b=b: x[0] @ b - 0.5 * np.einsum("mi,ij,mj->m", x[0], A, x[0]),
                lambda x, A=A, b=b: [b - x[0] @ A])
            start = rng.dirichlet(np.ones(n))
            f0 = objective.objective([start[None]], None)[0][0]
            res = eg_optimize(objective, [n], "max", cfg, inits=[start])
            assert res.value >= f0 - 1e-12

    def test_deterministic(self, rng):
        c = rng.normal(size=4)
        objective = _stacked(lambda x: x[0] @ c - (x[0] ** 2).sum(axis=-1),
                             lambda x: [c - 2.0 * x[0]])
        r1 = eg_optimize(objective, [4], "max")
        r2 = eg_optimize(objective, [4], "max")
        assert r1.value.hex() == r2.value.hex()
        np.testing.assert_array_equal(r1.point[0], r2.point[0])

    def test_min_sense(self, cfg):
        res = eg_optimize(_linear(np.array([0.4, 0.1, 0.5])), [3], "min", cfg)
        assert abs(res.value - 0.1) < 1e-6

    @pytest.mark.parametrize("inits", [
        [np.full(3, 1 / 3)],  # a block short: one block was optimized and returned, value 3
        [np.full(3, 1 / 3), np.full(3, 1 / 3)],
        [np.full(3, 1 / 3), np.full(2, 0.5), np.full(2, 0.5)],
        [np.full((1, 3), 1 / 3), np.full(2, 0.5)],
    ])
    def test_inits_must_match_the_shape(self, inits):
        # a linear objective whose maximum over the two blocks is 3 + 5 = 8
        c = [np.array([1.0, 3.0, 2.0]), np.array([5.0, 4.0])]
        with pytest.raises(ValidationError, match=r"^inits must hold one vector per block"):
            eg_optimize(_linear(*c), [3, 2], "max", inits=inits)


class TestAugustinFixedPoint:
    def test_order_one_returns_marginal(self, bsc):
        p, W = bsc
        res = augustin_fixed_point(p, W, 1.0)
        np.testing.assert_allclose(res.q_y.probs, [0.5, 0.5])
        assert res.engine == "marginal"

    def test_symmetric_uniform(self, bsc):
        p, W = bsc
        for alpha in (0.5, 2.0):
            res = augustin_fixed_point(p, W, alpha)
            np.testing.assert_allclose(res.q_y.probs, [0.5, 0.5], atol=1e-8)

    def test_against_grid_oracle(self, rng):
        cfg = OptimizerConfig(seed=3, grid_resolution=2e-3)
        for _ in range(3):
            p, W = random_pair(rng, 3, 3)
            for alpha in (0.6, 2.0):
                res = augustin_fixed_point(p, W, alpha, cfg)
                Wa = W.matrix ** alpha
                grid = simplex_grid(3, 2e-3)
                base = np.maximum(grid, 1e-30) if alpha > 1.0 else grid
                T = base ** (1.0 - alpha) @ Wa.T
                vals = np.log(T) @ p.probs / (alpha - 1.0)
                assert res.value <= vals.min() + 1e-9
                assert abs(res.value - vals.min()) < 1e-3

    def test_residual_monotone_below_one(self, rng):
        # reimplemented update rule, observing the residual sequence
        for _ in range(50):
            p, W = random_pair(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            alpha = float(rng.uniform(0.2, 0.9))
            Wa = W.matrix ** alpha
            q = p.probs @ W.matrix
            residuals = []
            for _ in range(60):
                t = Wa * q[None, :] ** (1.0 - alpha)
                u = t / t.sum(axis=1, keepdims=True)
                qn = p.probs @ u
                residuals.append(np.abs(qn - q).max())
                q = qn
            tail = residuals[10:]
            assert all(tail[i + 1] <= tail[i] + 1e-15 for i in range(len(tail) - 1))

    def test_invalid_alpha(self, bsc):
        p, W = bsc
        with pytest.raises(InvalidOrder):
            augustin_fixed_point(p, W, -1.0)


class TestLpAlternating:
    def test_product_joint_zero(self):
        joint = joint_from_matrix(np.outer([0.3, 0.7], [0.6, 0.4]))
        res = lp_alternating(joint, 2.0)
        assert abs(res.value) < 1e-12
        np.testing.assert_allclose(res.q_x.probs, [0.3, 0.7], atol=1e-9)
        np.testing.assert_allclose(res.q_y.probs, [0.6, 0.4], atol=1e-9)

    def test_doubly_symmetric_uniform(self):
        joint = joint_from_matrix([[0.4, 0.1], [0.1, 0.4]])
        res = lp_alternating(joint, 2.0)
        np.testing.assert_allclose(res.q_x.probs, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(res.q_y.probs, [0.5, 0.5], atol=1e-9)

    def test_against_double_grid_oracle(self, rng):
        # chunked exhaustive scan over products of two simplex grids
        p, W = random_pair(rng, 3, 3)
        joint = compose_joint(p, W)
        for alpha in (0.6, 2.0):
            res = lp_alternating(joint, alpha)
            Pa = joint.matrix ** alpha
            grid = simplex_grid(3, 5e-3)
            base = np.maximum(grid, 1e-30) if alpha > 1.0 else grid
            Gp = base ** (1.0 - alpha)
            A = Gp @ Pa  # (m, ny)
            best = np.inf if alpha > 1.0 else -np.inf
            for start in range(0, Gp.shape[0], 512):
                M = A[start:start + 512] @ Gp.T
                best = min(best, M.min()) if alpha > 1.0 else max(best, M.max())
            oracle = float(np.log(best) / (alpha - 1.0))
            assert res.value <= oracle + 1e-9
            assert abs(res.value - oracle) < 1e-3

    def test_value_sequence_nonincreasing(self, rng):
        # reimplemented coordinate updates, watching the value sequence
        for alpha in (0.6, 2.0, 4.0):
            p, W = random_pair(rng, 3, 3)
            joint = compose_joint(p, W)
            Pa = joint.matrix ** alpha
            qx, qy = joint.p_x.copy(), joint.p_y.copy()
            inv = 1.0 / (alpha - 1.0)

            def value(qx, qy):
                return inv * np.log(qx ** (1 - alpha) @ Pa @ qy ** (1 - alpha))

            prev = value(qx, qy)
            for _ in range(30):
                qy = (qx ** (1 - alpha) @ Pa) ** (1 / alpha)
                qy /= qy.sum()
                v1 = value(qx, qy)
                assert v1 <= prev + 1e-10
                qx = (Pa @ qy ** (1 - alpha)) ** (1 / alpha)
                qx /= qx.sum()
                prev2 = value(qx, qy)
                assert prev2 <= v1 + 1e-10
                prev = prev2

    def test_invalid_alpha(self):
        joint = joint_from_matrix([[0.4, 0.1], [0.1, 0.4]])
        for alpha in (0.5, 0.3, 1.0):
            with pytest.raises(InvalidOrder):
                lp_alternating(joint, alpha)

    def test_nan_residual_raises(self):
        # joint**50 underflows on this sparse input and the iterates turn
        # NaN; a NaN residual must not pass the tolerance check
        p = make_pmf([0.5, 0.5, 0.0])
        W = make_channel([[0.9, 0.1, 0, 0], [0, 0.2, 0.8, 0], [0, 0, 0.5, 0.5]])
        with np.errstate(all="ignore"), pytest.raises(ConvergenceFailure, match="nan"):
            lp_alternating(compose_joint(p, W), 50.0, OptimizerConfig(max_iters=5))

    @pytest.mark.parametrize("inputs, alpha", [("sparse3", 50.0), ("sparse3", 1000.0),
                                               ("dense3", 1000.0)])
    def test_stops_at_its_first_nan_residual(self, inputs, alpha):
        # the residual of these inputs of the CI measure runs is NaN from the
        # first iteration on; the solver ran its whole budget of 100 000
        # iterations (2.6-3.0 s) before it raised
        p, W = {"dense3": ([0.2, 0.3, 0.5], [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3],
                                             [0.1, 0.2, 0.7]]),
                "sparse3": ([0.0, 0.4, 0.6], [[0.6, 0.4, 0.0], [0.2, 0.5, 0.3],
                                              [0.0, 0.3, 0.7]])}[inputs]
        p, W = make_pmf(p), make_channel(W)
        joint = compose_joint(p, W)
        with np.errstate(all="ignore"):
            *_, resid, iters, status = _kernels.lp_alternating_solve(
                joint.matrix ** alpha, alpha, joint.p_x, joint.p_y, 1e-10, 100_000)
            assert np.isnan(resid) and iters == 1 and status == 2
            with pytest.raises(ConvergenceFailure, match=r"residual nan .* after 1 iterations$"):
                alpha_mi("lapidoth_pfister", p, W, alpha)


class TestNonFiniteSolverOutputs:
    # a solver output that is not finite is a numerical failure of the
    # library, not invalid input: both solvers raise NumericalInconsistency,
    # not the ValidationError of make_pmf
    def test_augustin(self, monkeypatch):
        monkeypatch.setattr(_kernels, "augustin_solve",
                            lambda p, Wa, *a: (np.array([np.nan, 0.5]), 0.0, 1, 0))
        with pytest.raises(NumericalInconsistency, match="not finite"):
            augustin_fixed_point(make_pmf([0.5, 0.5]), make_channel([[0.9, 0.1], [0.2, 0.8]]), 2.0)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_lp_alternating(self, monkeypatch, bad):
        def solve(Pa, alpha, p_x, p_y, *a):
            q = [p_x.copy(), p_y.copy()]
            q[bad][0] = np.inf
            return q[0], q[1], 0.1, 0.0, 1, 0

        monkeypatch.setattr(_kernels, "lp_alternating_solve", solve)
        joint = compose_joint(make_pmf([0.5, 0.5]), make_channel([[0.9, 0.1], [0.2, 0.8]]))
        with pytest.raises(NumericalInconsistency, match="not finite"):
            lp_alternating(joint, 2.0)


class TestOracleScanners:
    def test_nan_score_raises(self):
        # argmax and argmin would return a NaN score as the best one, and a
        # chunk of rules whose best score is NaN would be skipped
        cfg = OptimizerConfig(grid_resolution=0.1)

        def single(b, data):
            vals = b[0][:, 0].copy()
            vals[7] = np.nan
            return vals, None

        def rule(b, data):
            vals = b[0][:, 0, 0].copy()
            vals[vals.size // 2] = np.nan
            return vals, None

        for maximize in (True, False):
            with pytest.raises(NumericalInconsistency, match="NaN"):
                oracle_optimize_single(single, 3, maximize, cfg)
            with pytest.raises(NumericalInconsistency, match="NaN"):
                oracle_optimize_rule(rule, 2, 2, maximize, cfg)

    def test_chunked_scan_matches_one_scan(self, monkeypatch):
        # two problems share a grid of 66 points; their rounded scores tie
        # across chunk boundaries, and every tie breaks to the lowest index
        cfg = OptimizerConfig(grid_resolution=0.1)
        rows = np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]])
        pairs = []

        def objective(b, w):
            pairs.append(b[0].shape[0] * len(w))
            return (np.round(4.0 * b[0]) * w).sum(axis=-1), None

        grid = simplex_grid(3, cfg.grid_resolution)
        scores, _ = objective([grid], rows[:, None])
        for maximize in (True, False):
            best = scores.argmax(axis=-1) if maximize else scores.argmin(axis=-1)
            for chunk in (1 << 17, 14, 2):
                monkeypatch.setattr(optimize, "_GRID_CHUNK", chunk)
                pairs.clear()
                points, vals = oracle_optimize_single(objective, 3, maximize, cfg, rows)
                # each call scores at most chunk (problem, point) pairs
                assert max(pairs) <= chunk
                np.testing.assert_array_equal(points, grid[best])
                np.testing.assert_array_equal(vals, scores[[0, 1], best])

    def test_per_observation_scan_memory_is_bounded(self):
        # every observation was broadcast against the whole grid: 61 MB on
        # this 4x64 instance, and about 3.4 GB at the default resolution
        rng = np.random.default_rng(4)
        p = make_pmf(rng.dirichlet(np.ones(4)))
        W = make_channel(rng.dirichlet(np.ones(64), size=4))
        cfg = OptimizerConfig(grid_resolution=0.02)
        tracemalloc.start()
        try:
            value = alpha_mi("arimoto", p, W, 2.0, method="oracle", cfg=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value.hex() == "0x1.398ab91a8dde0p-2"
        assert peak < 16e6

    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    def test_small_output_oracle_peak_and_value(self, monkeypatch, alpha):
        # a 4x2 oracle at grid 0.02 scores 2 x 23 426 (observation, point)
        # pairs; in chunks of 1 << 17 pairs it peaked at 5.3 MB, in chunks of
        # 1 << 14 at 2.3 MB, with the same value
        rng = np.random.default_rng(4)
        p = make_pmf(rng.dirichlet(np.ones(4)))
        W = make_channel(rng.dirichlet(np.ones(2), size=4))
        cfg = OptimizerConfig(grid_resolution=0.02)
        tracemalloc.start()
        try:
            value = alpha_mi("arimoto", p, W, alpha, method="oracle", cfg=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6
        monkeypatch.setattr(optimize, "_GRID_CHUNK", 1 << 17)
        assert repr(alpha_mi("arimoto", p, W, alpha, method="oracle", cfg=cfg)) == repr(value)

    @pytest.mark.parametrize("variant", ["augustin_csiszar", "sibson"])
    def test_expected_divergence_oracle_peak_and_value(self, monkeypatch, variant):
        # the one expected-divergence objective sums each grid point's rows on
        # their own, in chunks of 1 << 14 points: a 4x4 sparse oracle at grid
        # 0.02 (23 426 points) peaked at 1.9 MB (Augustin-Csiszar) and 1.8 MB
        # (Sibson), with the same value in chunks of 1 << 17
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(4))
        p[0] = 0.0
        W = rng.dirichlet(np.ones(4), size=4)
        W[rng.random((4, 4)) < 0.3] = 0.0
        W[np.arange(4), np.arange(4)] += 0.05
        p, W = make_pmf(p, renormalize=True), make_channel(W / W.sum(axis=1, keepdims=True))
        cfg = OptimizerConfig(grid_resolution=0.02)
        tracemalloc.start()
        try:
            value = alpha_mi(variant, p, W, 2.0, method="oracle", cfg=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6
        monkeypatch.setattr(optimize, "_GRID_CHUNK", 1 << 17)
        assert repr(alpha_mi(variant, p, W, 2.0, method="oracle", cfg=cfg)) == repr(value)

    def test_rule_scan_takes_a_stacked_objective(self):
        # one stacked objective per call; the best rule of the lexicographic
        # scan wins, ties to the first
        cfg = OptimizerConfig(grid_resolution=0.25)
        R, val = oracle_optimize_rule(lambda b, data: (b[0][:, 1, 0] - b[0][:, 0, 0], None),
                                      2, 2, True, cfg)
        np.testing.assert_array_equal(R, [[0.0, 1.0], [1.0, 0.0]])
        assert val == 1.0


class TestOracleSandwich:
    def test_power_score_sandwich(self, rng):
        # closed-form optimum dominates the grid; gap below L * resolution
        cfg = OptimizerConfig(seed=0, grid_resolution=5e-3)
        for _ in range(5):
            p = make_pmf(0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3, renormalize=True)
            alpha = 2.0
            closed = float((p.probs ** alpha).sum())
            point, val = oracle_optimize_single(power_objective(alpha).objective, 3, True, cfg,
                                                p.probs)
            assert val <= closed + 1e-9
            grid = simplex_grid(3, cfg.grid_resolution)
            grads = alpha * (alpha - 1.0) * (p.probs[None, :] * grid ** (alpha - 2.0)
                                             - grid ** (alpha - 1.0))
            L = float(np.abs(grads).max())
            assert closed - val <= L * cfg.grid_resolution * 3


class TestObjectiveBoundary:
    """Every objective is finite on the closed simplex by itself: the grid
    scan adds no boundary rule, so each factory's objective must give no
    NaN at grid points with zero coordinates, against weights with zeros."""

    GRID = simplex_grid(3, 0.1)
    # every pair of grid points, as the rows of a rule on two observations
    RULES = np.stack(np.broadcast_arrays(GRID[:, None, :], GRID[None, :, :]),
                     axis=-2).reshape(-1, 2, 3)
    WEIGHTS = np.array([0.0, 0.3, 0.7])
    # a zero-mass input, and a channel with a zero in every row
    P = np.array([0.0, 0.4, 0.6])
    W = np.array([[0.6, 0.0], [0.0, 1.0], [1.0, 0.0]])

    @staticmethod
    def _values(stacked, points, data=None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="ignore"):
                return stacked.objective([points], data)[0]

    @pytest.mark.parametrize("beta, use_log", [(0.0, True), (-0.5, False), (0.5, False)],
                             ids=["log", "beta<0", "beta>0"])
    def test_tsallis(self, beta, use_log):
        values = self._values(_kernels.tsallis_objective(beta, use_log), self.GRID,
                              self.WEIGHTS)
        assert values.shape == (len(self.GRID),)
        assert not np.isnan(values).any()

    def test_tsallis_overflowing_power(self):
        # below beta = -10 the floored power 1e-30**beta overflows to inf; a
        # zero weight must still count 0, not 0 * inf (an Arimoto oracle on a
        # zero-mass prior at order 0.05 runs this form)
        with np.errstate(over="ignore"):
            values = self._values(_kernels.tsallis_objective(-19.0, False), self.GRID,
                                  self.WEIGHTS)
        assert not np.isnan(values).any()

    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    def test_power(self, alpha):
        values = self._values(power_objective(alpha), self.GRID, self.WEIGHTS)
        assert not np.isnan(values).any()
        assert np.isfinite(values).all()

    @pytest.mark.parametrize("beta", [-0.5, 0.5])
    @pytest.mark.parametrize("factory", [
        lambda p, W, beta: _kernels.ac_objective(p, W, beta),
        lambda p, W, beta: _kernels.lp_objective(p, W, beta, 0.75),
    ], ids=["ac", "lp"])
    def test_rule_objectives(self, factory, beta):
        values = self._values(factory(self.P, self.W, beta), self.RULES)
        assert values.shape == (len(self.RULES),)
        assert not np.isnan(values).any()

    def test_ac_overflowing_power(self):
        # at beta = -19 (order 0.05) the power of a zero grid coordinate
        # would overflow to inf, and in the gradient beta - 1 = -31 would
        # overflow the power of an EPS entry; the objective takes both as
        # logs, and a zero channel entry counts 0 in the value and in the
        # gradient, here at a rule whose EPS entries sit where the channel
        # is zero
        stacked = _kernels.ac_objective(self.P, self.W, -19.0)
        values = self._values(stacked, self.RULES)
        assert not np.isnan(values).any()
        R = np.array([[[0.5, _kernels.EPS, 0.5], [0.5, 0.5, _kernels.EPS]]])
        stacked = _kernels.ac_objective(self.P, self.W, -30.0)
        value, S = stacked.objective([R], None)
        assert np.isfinite(value).all()
        assert np.isfinite(stacked.grad([R], S, None)[0]).all()

    @pytest.mark.parametrize("alpha", [30.0, 50.0, 200.0])
    def test_expected_divergence_overflowing_power(self, alpha):
        # above order about 26.7 the power EPS**(1 - alpha) of a zero grid
        # coordinate would overflow to inf; the objective takes it as the
        # log (1 - alpha) log EPS, a zero channel entry (log -inf) of an
        # input of positive mass counts 0, and an output that only the
        # zero-mass input reaches gets a zero gradient
        W = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.7, 0.3, 0.0]])
        with np.errstate(divide="ignore"):
            stacked = optimize._expected_divergence_eg(self.P, alpha * np.log(W), alpha)
        values = self._values(stacked, self.GRID)
        assert not np.isnan(values).any()
        q = np.array([[0.3, 0.3, 0.4]])
        value, S = stacked.objective([q], None)
        (g,) = stacked.grad([q], S, None)
        assert np.isfinite(value).all() and np.isfinite(g).all()
        assert g[0, 2] == 0.0 and (g[0, :2] < 0.0).all()
