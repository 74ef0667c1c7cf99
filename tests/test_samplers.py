import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from stlfalsify.constraints import InfeasibleError, constraints_for
from stlfalsify.samplers import (
    GIBBS_BURN_IN,
    GIBBS_THIN,
    GP_JITTER,
    Categorical,
    DisturbanceModel,
    GaussianProcess,
    IndependentNormal,
    log_likelihood,
    sample_trace,
    sample_traces,
    se_kernel,
    truncated_mvn_sample,
    truncated_normal,
)
from stlfalsify.stl import CategoricalChannel, ContinuousChannel, parse

DIST = CategoricalChannel(
    name="disturbance",
    symbols=("none", "d_med", "d_maj", "a_med", "a_maj", "S", "L"),
)
LT_PROBS = {
    "none": 0.976, "d_med": 1e-2, "d_maj": 1e-3,
    "a_med": 1e-2, "a_maj": 1e-3, "S": 1e-3, "L": 1e-3,
}
ACC = ContinuousChannel(name="a_y", lo=-2.0, hi=2.0)
NOISE = ContinuousChannel(name="n_y", lo=-1.0, hi=1.0)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# one-dimensional truncated normal


def test_truncated_normal_half_line_mean():
    draws = truncated_normal(0.0, 1.0, 0.0, np.inf, rng(), size=40000)
    assert draws.min() >= 0.0
    assert abs(draws.mean() - math.sqrt(2.0 / math.pi)) < 0.02


def test_truncated_normal_matches_rejection_sampler():
    lo, hi = -0.5, 1.25
    draws = truncated_normal(0.3, 0.8, lo, hi, rng(1), size=8000)
    r = rng(2)
    ref = []
    while len(ref) < 8000:
        z = r.normal(0.3, 0.8, size=8000)
        ref.extend(z[(z >= lo) & (z <= hi)].tolist())
    ref = np.array(ref[:8000])
    ks = stats.ks_2samp(draws, ref).statistic
    assert ks < 0.05
    assert draws.min() >= lo and draws.max() <= hi


def test_truncated_normal_far_right_tail_is_finite_and_in_range():
    draws = truncated_normal(0.0, 1.0, 9.0, 10.0, rng(), size=1000)
    assert np.isfinite(draws).all()
    assert (draws >= 9.0).all() and (draws <= 10.0).all()


def test_truncated_normal_degenerate_interval():
    assert truncated_normal(0.0, 1.0, 0.7, 0.7, rng()) == pytest.approx(0.7)


def test_truncated_normal_scalar_and_vector_bounds():
    lo = np.array([0.0, 1.0, -1.0])
    hi = np.array([0.5, 2.0, -0.25])
    draws = truncated_normal(0.0, 1.0, lo, hi, rng())
    assert draws.shape == (3,)
    assert ((draws >= lo) & (draws <= hi)).all()


# ---------------------------------------------------------------------------
# truncated multivariate normal (Gibbs)


def test_truncated_mvn_matches_rejection_moments():
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    lo = np.array([0.0, -np.inf])
    hi = np.array([np.inf, 0.5])
    g = truncated_mvn_sample(np.zeros(2), cov, lo, hi, rng(0), size=6000)
    r = rng(1)
    kept = []
    while len(kept) < 6000:
        z = r.multivariate_normal(np.zeros(2), cov, size=8000)
        sel = (z[:, 0] >= 0.0) & (z[:, 1] <= 0.5)
        kept.extend(z[sel].tolist())
    ref = np.array(kept[:6000])
    assert np.allclose(g.mean(0), ref.mean(0), atol=0.05)
    assert np.allclose(np.cov(g.T), np.cov(ref.T), atol=0.06)
    assert (g[:, 0] >= 0.0).all() and (g[:, 1] <= 0.5).all()


def test_truncated_mvn_holds_pinned_coordinates():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    lo = np.array([0.25, -1.0])
    hi = np.array([0.25, 1.0])
    g = truncated_mvn_sample(np.zeros(2), cov, lo, hi, rng(), size=50)
    assert (g[:, 0] == 0.25).all()
    assert ((g[:, 1] >= -1.0) & (g[:, 1] <= 1.0)).all()


# ---------------------------------------------------------------------------
# the Gibbs chain against a frozen copy of its one-update-at-a-time form


def _tn_scalar_reference(mean, std, lo, hi, r):
    """Scalar inverse-CDF truncated normal drawing one ``r.random()`` per call."""
    a = (lo - mean) / std
    b = (hi - mean) / std
    flip = a > 0.0
    if flip:
        a, b = -b, -a
    Fa = float(ndtr(a))
    mass = float(ndtr(b)) - Fa
    u = r.random()
    if mass <= 0.0:
        z = a if math.isfinite(a) else b
    else:
        z = float(ndtri(Fa + u * mass))
        if not math.isfinite(z):
            z = a if math.isfinite(a) else b
    z = min(max(z, a), b)
    if flip:
        z = -z
    return min(max(mean + std * z, lo), hi)


def _gibbs_reference(mean, cov, lo, hi, r, size):
    """One ``rng.random()`` per coordinate update, one array write per update."""
    d = mean.shape[0]
    if d == 1:
        std = math.sqrt(max(cov[0, 0], 1e-300))
        return truncated_normal(mean[0], std, lo[0], hi[0], r, size=size)[:, None]
    jitter = GP_JITTER * float(np.max(np.diag(cov)))
    prec = np.linalg.inv(cov + jitter * np.eye(d))
    cond_var = 1.0 / np.diag(prec)
    cond_std = np.sqrt(cond_var)
    x = np.clip(mean.copy(), lo, hi)
    delta = x - mean

    def sweep():
        for j in range(d):
            rj = float(prec[j] @ delta) - float(prec[j, j]) * delta[j]
            mu_j = float(mean[j]) - float(cond_var[j]) * rj
            v = _tn_scalar_reference(mu_j, float(cond_std[j]), float(lo[j]), float(hi[j]), r)
            x[j] = v
            delta[j] = v - float(mean[j])

    for _ in range(GIBBS_BURN_IN):
        sweep()
    out = np.empty((size, d))
    out[0] = x
    for i in range(1, size):
        for _ in range(GIBBS_THIN):
            sweep()
        out[i] = x
    return out


def _pc1_gp_boxes(count):
    """GP box blocks exactly as ``_sample_gp`` hands them to the chain."""
    import stlfalsify.samplers as samplers
    from stlfalsify.grammar import sample_expression
    from stlfalsify.sim import scenario

    sc = scenario("pc1")
    blocks = []

    def record(mean, cov, lo, hi, r, size=1):
        blocks.append((mean.copy(), cov.copy(), lo.copy(), hi.copy()))
        return np.tile(np.clip(mean, lo, hi), (size, 1))

    real = samplers.truncated_mvn_sample
    samplers.truncated_mvn_sample = record
    try:
        r = rng(18)
        texts = ["G_[9,23](a_x <= -0.4)"]
        while len(blocks) < count:
            formula = parse(texts.pop(), sc.channels) if texts else sample_expression(sc.grammar, r)
            try:
                cs = constraints_for(formula, sc.channels, sc.horizon, r)
            except InfeasibleError:
                continue
            sample_traces(sc.model, sc.horizon, sc.dt, cs, rng=r, size=1)
    finally:
        samplers.truncated_mvn_sample = real
    return blocks


def _random_boxes(count):
    """SE-kernel and random SPD blocks, d = 1-30, one- and two-sided bounds."""
    r = rng(19)
    blocks = []
    for i in range(count):
        d = 1 + i % 30
        if i % 2:
            cov = se_kernel(np.arange(d) * 0.2, r.uniform(0.2, 2.0), r.uniform(0.1, 1.0))
        else:
            A = r.normal(size=(d, d))
            cov = A @ A.T / d + 0.1 * np.eye(d)
        mean = r.normal(0.0, 0.5, size=d)
        lo = np.full(d, -np.inf)
        hi = np.full(d, np.inf)
        for j in range(d):
            c = r.normal(0.0, 1.0)
            kind = r.integers(4)  # below, above, between, free
            if kind == 0:
                hi[j] = c
            elif kind == 1:
                lo[j] = c
            elif kind == 2:
                lo[j], hi[j] = c, c + r.uniform(0.05, 2.0)
        blocks.append((mean, cov, lo, hi))
    return blocks


def test_truncated_mvn_matches_the_one_update_chain():
    boxes = _pc1_gp_boxes(110) + _random_boxes(200)
    dims = {b[0].shape[0] for b in boxes}
    assert len(boxes) >= 300 and dims >= set(range(1, 31))
    # the pc1 block that fails the rejection oracle, ROADMAP item 1
    assert boxes[0][0].shape == (15,) and (boxes[0][3] == -0.4).all()
    for i, (mean, cov, lo, hi) in enumerate(boxes):
        size = 200 if i % 7 == 3 else (1, 15)[i % 2]
        new_rng, ref_rng = rng(1000 + i), rng(1000 + i)
        got = truncated_mvn_sample(mean, cov, lo, hi, new_rng, size=size)
        want = _gibbs_reference(mean, cov, lo, hi, ref_rng, size)
        assert np.array_equal(got, want), i
        assert new_rng.random() == ref_rng.random(), i


@pytest.mark.parametrize("d, size", [(2, 1), (3, 2), (7, 15), (15, 4)])
def test_truncated_mvn_draws_one_uniform_per_update(d, size):
    mean, cov, lo, hi = _random_boxes(d)[d - 1]  # the box of dimension d
    new_rng, ref_rng = rng(20), rng(20)
    truncated_mvn_sample(mean, cov, lo, hi, new_rng, size=size)
    for _ in range((GIBBS_BURN_IN + (size - 1) * GIBBS_THIN) * d):
        ref_rng.random()
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "name, text",
    [("lt1", None), ("lt1", "G_[0,1](a_maj)"), ("pc1", None), ("pc1", "G_[9,23](a_x <= -0.4)")],
)
def test_sample_traces_of_size_zero_draw_nothing(name, text):
    from stlfalsify.sim import scenario

    sc = scenario(name)
    cs = None if text is None else constraints_for(parse(text, sc.channels), sc.channels, sc.horizon, rng(21))
    r = rng(22)
    state = r.bit_generator.state
    assert sample_traces(sc.model, sc.horizon, sc.dt, cs, rng=r, size=0) == []
    assert r.bit_generator.state == state


@pytest.mark.parametrize("d", [1, 3])
def test_truncated_mvn_of_size_zero_is_an_empty_block(d):
    r = rng(23)
    state = r.bit_generator.state
    box = truncated_mvn_sample(np.zeros(d), np.eye(d), np.zeros(d), np.ones(d), r, size=0)
    assert box.shape == (0, d)
    assert r.bit_generator.state == state


# ---------------------------------------------------------------------------
# per-channel sampling and likelihoods


def cat_model():
    return DisturbanceModel(channels=(DIST,), models={"disturbance": Categorical(LT_PROBS)})


def test_categorical_unconstrained_frequencies():
    model = cat_model()
    traces = sample_traces(model, 200, 0.18, rng=rng(3), size=50)
    symbols = np.concatenate([t.values["disturbance"] for t in traces])
    frac_none = (symbols == "none").mean()
    assert abs(frac_none - 0.976) < 0.01


def test_categorical_constrained_renormalizes():
    model = cat_model()
    f = parse("G_[0,5](!(none))", (DIST,))
    cs = constraints_for(f, (DIST,), 6, rng(4))
    counts = {}
    for tr in sample_traces(model, 6, 0.18, cs, rng=rng(5), size=400):
        for s in tr.values["disturbance"]:
            counts[s] = counts.get(s, 0) + 1
    assert "none" not in counts
    # d_med and a_med carry 1e-2 against 1e-3 for the rest of the allowed set
    assert counts["d_med"] > counts["d_maj"]
    ratio = counts["d_med"] / counts["S"]
    assert 5 < ratio < 20  # true ratio is 10


def test_categorical_loglik_exact():
    model = cat_model()
    tr = sample_trace(model, 3, 0.18, rng=rng())
    tr.values["disturbance"][:] = ["none", "none", "none"]
    assert log_likelihood(model, tr) == pytest.approx(3 * math.log(0.976), abs=1e-12)


def test_normal_channel_constrained_sampling_and_loglik():
    model = DisturbanceModel(channels=(NOISE,), models={"n_y": IndependentNormal(0.0, 0.04)})
    f = parse("G_[0,9](n_y >= 0.1)", (NOISE,))
    cs = constraints_for(f, (NOISE,), 10, rng(6))
    tr = sample_trace(model, 10, 0.2, cs, rng=rng(7))
    assert (tr.values["n_y"] >= 0.1).all()
    want = stats.norm(0.0, 0.2).logpdf(tr.values["n_y"]).sum()
    assert log_likelihood(model, tr) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# Gaussian process channel


def gp_model(m_ch=ACC, variance=1.0, lengthscale=0.4):
    return DisturbanceModel(
        channels=(m_ch,), models={m_ch.name: GaussianProcess(variance, lengthscale)}
    )


def test_se_kernel_values():
    K = se_kernel(np.array([0.0, 0.2]), 2.0, 0.4)
    assert K[0, 0] == pytest.approx(2.0)
    assert K[0, 1] == pytest.approx(2.0 * math.exp(-0.04 / (2 * 0.16)))


def test_gp_unconstrained_covariance():
    model = gp_model()
    m, dt = 5, 0.2
    draws = np.stack(
        [t.values["a_y"] for t in sample_traces(model, m, dt, rng=rng(8), size=4000)]
    )
    emp = np.cov(draws.T)
    want = se_kernel(np.arange(m) * dt, 1.0, 0.4)
    assert np.abs(emp - want).max() < 0.12


def test_gp_equality_steps_reproduced_exactly():
    model = gp_model()
    f = parse("(G_[2,2](a_y = 0.75) & G_[5,5](a_y = -0.25))", (ACC,))
    cs = constraints_for(f, (ACC,), 8, rng(9))
    for tr in sample_traces(model, 8, 0.2, cs, rng=rng(10), size=20):
        assert tr.values["a_y"][2] == 0.75
        assert tr.values["a_y"][5] == -0.25


def test_gp_conditional_moments_match_closed_form():
    # pin step 0, watch step 1: mean and variance follow the usual
    # bivariate-normal conditioning formulas
    model = gp_model()
    f = parse("G_[0,0](a_y = 1.0)", (ACC,))
    cs = constraints_for(f, (ACC,), 2, rng(11))
    vals = np.array(
        [t.values["a_y"][1] for t in sample_traces(model, 2, 0.2, cs, rng=rng(12), size=6000)]
    )
    K = se_kernel(np.array([0.0, 0.2]), 1.0, 0.4)
    mu = K[0, 1] / K[0, 0] * 1.0
    var = K[1, 1] - K[0, 1] ** 2 / K[0, 0]
    assert abs(vals.mean() - mu) < 0.05
    assert abs(vals.var() - var) < 0.05


def test_gp_box_constraints_are_respected():
    model = gp_model()
    f = parse("(G_[1,3](a_y >= 0.2) & G_[5,5](a_y = 0.0))", (ACC,))
    cs = constraints_for(f, (ACC,), 7, rng(13))
    for tr in sample_traces(model, 7, 0.2, cs, rng=rng(14), size=10):
        assert (tr.values["a_y"][1:4] >= 0.2).all()
        assert tr.values["a_y"][5] == 0.0


def test_gp_loglik_matches_scipy():
    model = gp_model()
    tr = sample_trace(model, 6, 0.2, rng=rng(15))
    K = se_kernel(np.arange(6) * 0.2, 1.0, 0.4) + 1e-8 * np.eye(6)
    want = stats.multivariate_normal(np.zeros(6), K).logpdf(tr.values["a_y"])
    assert log_likelihood(model, tr) == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# batches, determinism, validation


def test_sample_traces_batch_size_and_determinism():
    model = cat_model()
    a = sample_traces(model, 5, 0.18, rng=rng(16), size=4)
    b = sample_traces(model, 5, 0.18, rng=rng(16), size=4)
    assert len(a) == 4
    for x, y in zip(a, b):
        assert x.values["disturbance"].tolist() == y.values["disturbance"].tolist()


def test_model_validation():
    with pytest.raises(ValueError):
        Categorical({"a": 0.5, "b": 0.4})
    with pytest.raises(ValueError):
        GaussianProcess(0.0, 0.4)
    with pytest.raises(ValueError):
        DisturbanceModel(channels=(DIST,), models={})
    with pytest.raises(ValueError):
        DisturbanceModel(channels=(DIST,), models={"disturbance": IndependentNormal(0, 1)})
    with pytest.raises(ValueError, match="junk"):  # a model on no declared channel
        DisturbanceModel(
            channels=(DIST,),
            models={"disturbance": Categorical(LT_PROBS), "junk": GaussianProcess(1.0, 0.4)},
        )


# ---------------------------------------------------------------------------
# the batched categorical sampler against a per-step rng.choice loop


def _categorical_reference(ch, model, m, cs, r, size):
    """One ``rng.choice`` per step and trace, trace-major."""
    symbols = list(ch.symbols)
    base = np.array([model.prob(s) for s in symbols])
    out = np.empty((size, m), dtype=object)
    for t in range(size):
        for i in range(m):
            mask = None if cs is None else cs.allowed[ch.name][i]
            if mask is None or mask.all():
                p = base / base.sum()
            else:
                p = base * mask
                total = p.sum()
                p = p / total if total > 0 else mask / mask.sum()
            out[t, i] = symbols[r.choice(len(symbols), p=p)]
    return out


@pytest.mark.parametrize("size", [1, 10])
@pytest.mark.parametrize(
    "probs, text",
    [
        (LT_PROBS, None),
        (LT_PROBS, "(G_[0,3](!(none)) & F_[5,9]((a_maj | d_maj)))"),
        (LT_PROBS, "G_[2,6]((!(none) & !(d_med)))"),
        # S carries no model mass: a step allowing only S falls back to uniform
        ({**LT_PROBS, "none": 0.977, "S": 0.0}, "(G_[1,4](S) & G_[6,7]((S | none)))"),
    ],
)
def test_categorical_sampler_matches_choice_loop(size, probs, text):
    from stlfalsify.samplers import _sample_categorical

    model = Categorical(probs)
    m = 12
    for seed in range(5):
        cs = None if text is None else constraints_for(parse(text, (DIST,)), (DIST,), m, rng(seed))
        new_rng, ref_rng = rng(100 + seed), rng(100 + seed)
        got = _sample_categorical(DIST, model, m, cs, new_rng, size)
        want = _categorical_reference(DIST, model, m, cs, ref_rng, size)
        assert got.shape == (size, m)
        assert (got == want).all()
        assert new_rng.random() == ref_rng.random()
        if text is not None and "S" in text:
            assert (got[:, 1:5] == "S").all()


def test_categorical_sampler_never_draws_zero_mass_symbols():
    # u = 0 must land past leading zero-probability symbols, as
    # searchsorted(side="right") does in Generator.choice
    class ZeroUniforms:
        def random(self, shape):
            return np.zeros(shape)

    from stlfalsify.samplers import _sample_categorical

    model = Categorical({**LT_PROBS, "none": 0.0, "d_med": 0.986})
    got = _sample_categorical(DIST, model, 4, None, ZeroUniforms(), 3)
    assert (got == "d_med").all()


def test_gp_box_blocks_never_carry_pinned_coordinates(monkeypatch):
    # _sample_gp conditions on equality steps before the Gibbs chain runs,
    # so the chain only ever sees boxes with lo < hi
    import stlfalsify.samplers as samplers
    from stlfalsify.grammar import sample_expression
    from stlfalsify.sim import scenario

    real = samplers.truncated_mvn_sample
    blocks = []

    def spy(mean, cov, lo, hi, rng, size=1):
        blocks.append((np.asarray(lo).copy(), np.asarray(hi).copy()))
        return real(mean, cov, lo, hi, rng, size=size)

    monkeypatch.setattr(samplers, "truncated_mvn_sample", spy)
    sc = scenario("pc1")
    gp_names = [n for n, cm in sc.model.models.items() if isinstance(cm, GaussianProcess)]
    r = rng(17)
    formulas = mixed = 0  # mixed: GP channels with both equality and box steps
    while formulas < 200:
        try:
            cs = constraints_for(sample_expression(sc.grammar, r), sc.channels, sc.horizon, r)
        except InfeasibleError:
            continue
        formulas += 1
        for n in gp_names:
            if n in cs.lower:
                lo, hi = cs.lower[n], cs.upper[n]
                eq = np.isfinite(lo) & (lo == hi)
                mixed += bool(eq.any() and (np.isfinite(lo) | np.isfinite(hi))[~eq].any())
        sample_traces(sc.model, sc.horizon, sc.dt, cs, rng=r, size=2)
    assert blocks and mixed
    for lo, hi in blocks:
        assert (lo < hi).all()
