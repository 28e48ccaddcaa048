"""The closed forms over a stack of observation rows.

The Sibson, Arimoto and Hayashi closed forms, the phi = psi closed
vulnerabilities and the posteriors of a joint reduce every observation
along one C-contiguous row.  The references below are per-observation
loops: each observation's weights are compressed to their positive
entries and reduced alone.  A row padded with zeros keeps the sequential
sum numpy takes below 8 terms, so below 8 secrets the two agree bit for
bit; above it numpy's pairwise sum groups the terms otherwise, and they
agree within 1e-14 relative.

The loops of the soft 0-1 gain under log and linear generators and of
the power score once added their observation terms one at a time in
Python; here, as in the library, the terms of all observations are
summed by numpy, as the other closed forms always did.  A zero-mass
observation plays uniform under every closed form.
"""

import numpy as np
import pytest

from alphaleak import (
    DecisionRule,
    DimensionMismatch,
    JointDist,
    NegativeWeight,
    NotNormalized,
    ValidationError,
    linear_aggregator,
    log_aggregator,
    make_channel,
    make_pmf,
    power_loss,
    power_score_gain,
    q_log_aggregator,
    soft01_gain,
)
from alphaleak import renyi, simplex
from alphaleak.leakage import cond_vulnerability, prior_vulnerability
from alphaleak.simplex import compose_joint

ALPHAS = (0.3, 0.55, 2.0, 10.0, 50.0, 1000.0)
SHAPES = ((2, 3), (3, 4), (4, 8), (7, 12), (8, 16), (16, 32), (32, 64), (64, 2), (64, 64))


def _lse(a):
    """The per-observation logsumexp: shift by the maximum of a vector."""
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(a - m).sum()))


def _instance(shape, sparse: bool, seed: int):
    """A seeded pair; a sparse one has a zero-mass prior symbol, an output
    no input reaches, an output one input reaches (a one-hot posterior)
    and about 30 % zeros in the channel rows."""
    nx, ny = shape
    rng = np.random.default_rng([nx, ny, sparse, seed])
    p = rng.dirichlet(np.ones(nx))
    W = rng.dirichlet(np.ones(ny), size=nx)
    if sparse:
        p[rng.integers(nx)] = 0.0
        zero = rng.random((nx, ny)) < 0.3
        if ny >= 3:
            zero[:, :2] = True
            zero[rng.integers(nx), 1] = False
            zero[np.arange(nx), rng.integers(2, ny, size=nx)] = False
        else:
            zero[np.arange(nx), rng.integers(ny, size=nx)] = False
        W[zero] = 0.0
    return make_pmf(p, renormalize=True), make_channel(W, renormalize=True)


INSTANCES = [(shape, sparse) for shape in SHAPES for sparse in (False, True)]


def _ids(case):
    (nx, ny), sparse = case
    return f"{nx}x{ny}-{'sparse' if sparse else 'dense'}"


def _same(got, want, n_x):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if n_x < 8:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


# ----------------------------------------------------------------------
# per-observation references
# ----------------------------------------------------------------------

def _ref_posteriors(m):
    p_y = m.sum(axis=0)
    post = np.zeros((m.shape[1], m.shape[0]))
    for y in np.flatnonzero(p_y > 0.0):
        post[y] = m[:, y] / p_y[y]
        post[y] /= float(post[y].sum())
    return post


def _ref_log_sum_col_norms(L, alpha):
    inner = np.empty(L.shape[1])
    for y in range(L.shape[1]):
        col = L[:, y]
        col = col[np.isfinite(col)]
        inner[y] = _lse(col) / alpha if col.size else -np.inf
    return _lse(inner[np.isfinite(inner)])


def _ref_renyi(p, W, alpha):
    """(Sibson I, Arimoto H, Hayashi H) closed forms."""
    with np.errstate(divide="ignore"):
        L_sib = np.log(p.probs)[:, None] + alpha * np.log(W.matrix)
        L_ari = alpha * (np.log(p.probs)[:, None] + np.log(W.matrix))
    sibson = alpha / (alpha - 1.0) * _ref_log_sum_col_norms(L_sib, alpha)
    arimoto = alpha / (1.0 - alpha) * _ref_log_sum_col_norms(L_ari, alpha)
    joint = compose_joint(p, W)
    terms = []
    for y in np.flatnonzero(joint.y_support):
        pi = joint.posteriors[y]
        terms.append(np.log(joint.p_y[y]) + _lse(alpha * np.log(pi[pi > 0.0])))
    hayashi = _lse(np.array(terms)) / (1.0 - alpha)
    return sibson, arimoto, hayashi


def _ref_cond_closed(p, W, kind, alpha):
    """(value, rule rows) of one phi = psi closed form, observation by
    observation."""
    joint = compose_joint(p, W)
    weights = joint.matrix
    n_x, n_y = weights.shape
    rows = np.full((n_y, n_x), 1.0 / n_x)
    terms = []
    for y in np.flatnonzero(joint.y_support):
        pi, col = joint.posteriors[y], weights[:, y]
        if kind == "log":
            terms.append(joint.p_y[y] * float((pi[pi > 0.0] * np.log(pi[pi > 0.0])).sum()))
            rows[y] = pi
        elif kind == "q_log":
            q = 1.0 / alpha
            lw = np.log(col[col > 0.0]) / q
            terms.append(q * _lse(lw))
            w = np.exp(lw - lw.max())
            rows[y] = 0.0
            rows[y][col > 0.0] = w / w.sum()
        elif kind == "linear":
            idx = int(np.argmax(col))
            terms.append(col[idx])
            rows[y] = 0.0
            rows[y][idx] = 1.0
        elif kind == "power":
            terms.append(joint.p_y[y] * float((pi ** alpha).sum()))
            rows[y] = pi
        else:
            lse = _lse(alpha * np.log(col[col > 0.0]))
            terms.append((1.0 - alpha) * np.log(joint.p_y[y]) + lse)
            rows[y] = pi
    terms = np.array(terms)
    if kind == "log":
        return float(np.exp(terms.sum())), rows
    if kind == "q_log":
        return float(np.exp(_lse(terms) / (1.0 - 1.0 / alpha))), rows
    if kind in ("linear", "power"):
        return float(terms.sum()), rows
    return float(np.exp(_lse(terms) / (1.0 - alpha))), rows


def _tuple(kind, alpha):
    if kind == "log":
        return soft01_gain(), log_aggregator()
    if kind == "q_log":
        return soft01_gain(), q_log_aggregator(1.0 / alpha)
    if kind == "linear":
        return soft01_gain(), linear_aggregator()
    if kind == "power":
        return power_score_gain(alpha), linear_aggregator()
    return power_loss(alpha), q_log_aggregator(alpha)


KINDS = ("log", "q_log", "linear", "power", "power_loss")
# the soft 0-1 gain under log and linear generators has no order
TUPLES = [(kind, alpha) for kind in KINDS
          for alpha in ((2.0,) if kind in ("log", "linear") else ALPHAS)]


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", INSTANCES, ids=_ids)
def test_posteriors_match_the_loop_bit_for_bit(case):
    # every row is reduced alone along the same contiguous axis, so the
    # posteriors keep their bits at every size
    for seed in range(3):
        p, W = _instance(*case, seed)
        joint = compose_joint(p, W)
        assert joint.posteriors.tobytes() == _ref_posteriors(joint.matrix).tobytes()


@pytest.mark.parametrize("case", INSTANCES, ids=_ids)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_renyi_closed_forms_match_the_loops(case, alpha):
    for seed in range(2):
        p, W = _instance(*case, seed)
        got = (renyi._sibson_closed(p, W, alpha),
               renyi._arimoto_style_closed(p, W, alpha),
               renyi._hayashi_closed(p, W, alpha))
        _same(got, _ref_renyi(p, W, alpha), p.n)


@pytest.mark.parametrize("case", INSTANCES, ids=_ids)
@pytest.mark.parametrize("kind,alpha", TUPLES)
def test_closed_vulnerabilities_match_the_loops(case, kind, alpha):
    g, phi = _tuple(kind, alpha)
    for seed in range(2):
        p, W = _instance(*case, seed)
        res = cond_vulnerability(p, W, g, phi, phi, g.sense, "closed_form")
        want_value, want_rows = _ref_cond_closed(p, W, kind, alpha)
        _same(res.value, want_value, p.n)
        _same(res.rule.matrix, want_rows, p.n)


@pytest.mark.parametrize("case", INSTANCES, ids=_ids)
@pytest.mark.parametrize("kind", KINDS)
def test_prior_is_the_one_observation_case(case, kind):
    # a channel that reveals nothing, written as the joint of one output
    # column: its one weight row is the prior, of mass 1
    alpha = 2.0
    g, phi = _tuple(kind, alpha)
    p, _ = _instance(*case, 0)
    res = prior_vulnerability(p, g, phi, g.sense, "closed_form")
    value, action = res.value, res.rule
    one = make_channel(np.ones((p.n, 1)))
    want_value, want_rows = _ref_cond_closed(p, one, kind, alpha)
    np.testing.assert_allclose(value, want_value, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(action.probs, want_rows[0], rtol=1e-14, atol=1e-300)


def test_default_labels_are_shared():
    a, b = make_pmf([0.5, 0.5]), make_pmf([0.3, 0.7])
    assert a.labels is b.labels
    assert a.labels == ("x0", "x1")
    W = make_channel([[0.5, 0.5], [0.2, 0.8]])
    assert W.x_labels is a.labels
    assert make_pmf([0.2, 0.3, 0.5]).labels == ("x0", "x1", "x2")


class TestRowErrors:
    def test_channel_names_the_first_negative_row(self):
        with pytest.raises(NegativeWeight, match="channel row 2$"):
            make_channel([[0.5, 0.5], [0.2, 0.8], [-0.1, 1.1], [1.2, -0.2]])

    def test_channel_names_the_first_row_off_one(self):
        with pytest.raises(NotNormalized, match="channel row 1 sums to 0.9"):
            make_channel([[0.5, 0.5], [0.4, 0.5], [-0.1, 1.1]])

    def test_channel_checks_each_row_in_order(self):
        # row 1 has both faults; the negative entry is named first
        with pytest.raises(NegativeWeight, match="channel row 1$"):
            make_channel([[0.5, 0.5], [-0.5, 0.2], [0.3, 0.3]])

    def test_channel_of_a_transposed_array(self):
        m = np.array([[0.5, 0.2, 0.3], [0.5, 0.8, 0.6]]).T  # not C-contiguous
        with pytest.raises(NotNormalized, match="channel row 2 sums to 0.89999"):
            make_channel(m)
        W = make_channel(m[:2])
        assert W.matrix.flags.c_contiguous

    def test_rule_names_the_first_offending_row(self):
        labels = ("x0", "x1")
        with pytest.raises(NegativeWeight, match="rule row 2$"):
            DecisionRule(labels, ("y0", "y1", "y2"),
                         np.array([[0.5, 0.5], [1.0, 0.0], [1.5, -0.5]]))
        with pytest.raises(NotNormalized, match="rule row 1 sums to 1.2"):
            DecisionRule(labels, ("y0", "y1", "y2"),
                         np.array([[0.5, 0.5], [0.6, 0.6], [1.5, -0.5]]))

    def test_joint_errors(self):
        with pytest.raises(NegativeWeight):
            JointDist([[0.5, 0.0], [0.6, -0.1]])
        with pytest.raises(NotNormalized):
            JointDist([[0.5, 0.0], [0.4, 0.0]])
        with pytest.raises(DimensionMismatch):
            JointDist([[0.5, 0.5]], x_labels=("a", "b"))

    def test_joint_error_messages(self, monkeypatch):
        with pytest.raises(NegativeWeight, match="^negative entry in joint matrix$"):
            JointDist([[0.5, 0.0], [0.6, -0.1]])
        with pytest.raises(NotNormalized, match="^joint mass sums to 0.9$"):
            JointDist([[0.5, 0.0], [0.4, 0.0]])
        # the total is exactly 1, but the posterior of y2 sums to 1 - 2**-53;
        # the message names the observation, past the zero-mass y0
        m = [[0.0, 0.11, 0.17], [0.0, 0.33, 0.3899999999999999]]
        monkeypatch.setattr(simplex, "SUM_ATOL", 0.0)
        with pytest.raises(ValidationError,
                           match=r"^posterior for observation 2 sums to 0\.9999999999999999$"):
            JointDist(m)

    def test_joint_zero_mass_observations_are_absent(self):
        joint = JointDist([[0.2, 0.0, 0.1, 0.0], [0.3, 0.0, 0.4, 0.0]])
        assert list(joint.y_support) == [True, False, True, False]
        assert joint.posterior(1) is None and joint.posterior(3) is None
        np.testing.assert_allclose(joint.posterior(2).probs, [0.2, 0.8])
        assert not joint.posteriors[[1, 3]].any()
