import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import ndtr, ndtri

from stlfalsify.constraints import ConstraintSet, InfeasibleError, constraints_for
from stlfalsify.samplers import (
    GIBBS_BURN_IN,
    GIBBS_THIN,
    GP_JITTER,
    Categorical,
    DisturbanceModel,
    GaussianProcess,
    IndependentNormal,
    build_traces,
    draw_traces,
    log_likelihood,
    log_likelihoods,
    sample_trace,
    sample_traces,
    se_kernel,
    truncated_mvn_sample,
    truncated_normal,
)
from stlfalsify.stl import CategoricalChannel, ContinuousChannel, SignalTrace, TraceBatch, parse

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


def test_a_zero_uniform_draws_a_finite_value_inside_its_box():
    # Generator.random returns 0.0 with probability 2**-53 per draw.  It
    # draws the interval's low end: its lower bound, or with none the
    # normal's finite low end, ndtri of the smallest positive double, or
    # the upper bound below that.
    low = float(ndtri(5e-324))
    assert -40.0 < low < -38.0
    mean, std = 0.2, 0.5
    lo = np.array([-np.inf, -np.inf, -np.inf, 0.5, -1.0, 1.0])
    hi = np.array([np.inf, 0.3, mean - 50 * std, np.inf, -0.25, np.inf])
    draws = truncated_normal(mean, std, lo, hi, EveryKthUniformZero(0, k=1))
    assert np.isfinite(draws).all() and ((lo <= draws) & (draws <= hi)).all()
    # the fourth and sixth lie right of the mean and are worked as mirror images
    assert draws.tolist() == [mean + std * low, mean + std * low, hi[2], 0.5, -1.0, 1.0]
    # the Gibbs chain's coordinate updates, against the frozen one-update chain
    for i, (b_mean, cov, b_lo, b_hi) in enumerate(_random_boxes(30)):
        for k in (1, 3):
            size = (1, 15)[i % 2]
            got = truncated_mvn_sample(b_mean, cov, b_lo, b_hi, EveryKthUniformZero(60 + i, k), size=size)
            want = _gibbs_reference(b_mean, cov, b_lo, b_hi, EveryKthUniformZero(60 + i, k), size)
            assert np.array_equal(got, want), (i, k)
            assert np.isfinite(got).all() and ((b_lo <= got) & (got <= b_hi)).all(), (i, k)


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
            # a zero uniform with no lower bound: the normal's finite low end
            z = a if math.isfinite(a) else float(ndtri(5e-324)) if u == 0.0 and not flip else b
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
    """GP box blocks exactly as ``sample_traces`` hands them to the chain."""
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


def _bits(x):
    """Each float's IEEE bits, so that signed zeros and nans compare too."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _tail_boxes():
    """Boxes far out in the tails, where the chain's non-finite branch runs.

    At d = 1, 2 and 15, on a weakly correlated and on pc1's SE kernel:
    each coordinate gets one bound 35-45 conditional standard deviations
    from its mean, on a random side (right-hand boxes are worked as mirror
    images), or a narrow box 39-45 out, where ndtr(b) - ndtr(a) underflows
    to 0 (ndtr is 0 below about -38.5).
    """
    r = rng(74)
    boxes = []
    for d in (1, 2, 15):
        for cov in (0.7 * np.eye(d) + 0.3 * np.ones((d, d)), se_kernel(np.arange(d) * 0.2, 1.0, 0.4)):
            prec = np.linalg.inv(cov + GP_JITTER * np.eye(d))
            sd = 1.0 / np.sqrt(np.diag(prec))
            for narrow in (False, True):
                mean = r.normal(0.0, 0.5, size=d)
                side = np.where(r.random(d) < 0.5, -1.0, 1.0)
                near = mean + side * r.uniform(39.0 if narrow else 35.0, 45.0, size=d) * sd
                far = near + side * (r.uniform(1e-3, 1.0, size=d) * sd if narrow else np.inf)
                boxes.append((mean, cov, np.minimum(near, far), np.maximum(near, far)))
    return boxes


@pytest.mark.parametrize("size", [1, 15])
def test_truncated_mvn_matches_the_one_update_chain_in_the_tails(size):
    for i, (mean, cov, lo, hi) in enumerate(_tail_boxes()):
        new_rng, ref_rng = rng(2000 + i), rng(2000 + i)
        got = truncated_mvn_sample(mean, cov, lo, hi, new_rng, size=size)
        want = _gibbs_reference(mean, cov, lo, hi, ref_rng, size)
        assert _bits(got).tolist() == _bits(want).tolist(), i
        assert np.isfinite(got).all() and ((lo <= got) & (got <= hi)).all(), i
        assert new_rng.random() == ref_rng.random(), i


BOUND_SHAPES = ("upper", "lower", "two-sided", "free", "pinned")


def _bounds_of_shape(shape, near, width):
    """``(lo, hi)`` in which every coordinate has bounds of one ``shape``:
    ``near`` is the bound (the lower one of a two-sided box, the value of
    a pinned one) and ``near + width`` a two-sided box's other end."""
    lo, hi = np.full(near.shape, -np.inf), np.full(near.shape, np.inf)
    if shape in ("upper", "pinned"):
        hi = near.copy()
    if shape in ("lower", "two-sided", "pinned"):
        lo = near.copy()
    if shape == "two-sided":
        hi = near + width
    return lo, hi


def _shape_boxes(shape, tail):
    """Boxes in which every coordinate has bounds of one ``shape``.

    At d = 2 and 15, on a diagonal, a weakly correlated and pc1's SE
    kernel.  Bounds alternate sides of the mean, 35-45 conditional standard
    deviations out with ``tail`` (a two-sided box 39-45 out and narrow,
    where ndtr(b) - ndtr(a) underflows) and within 2 of it without.  A
    lower bound right of a coordinate's conditional mean takes the mirrored
    update, one left of it the plain update; on the diagonal kernel the
    conditional mean is the mean, so both run in every lower-only box.
    Without ``tail`` the first coordinate's bound is its mean, which a
    diagonal kernel's chain meets exactly: there the plain update's CDF
    sum rounds to 1 at the largest uniform below 1, and ndtri saturates.
    """
    r = rng(77)
    boxes = []
    for d in (2, 15):
        for cov in (np.diag(r.uniform(0.5, 2.0, size=d)), 0.7 * np.eye(d) + 0.3 * np.ones((d, d)),
                    se_kernel(np.arange(d) * 0.2, 4.0, 0.4)):
            sd = 1.0 / np.sqrt(np.diag(np.linalg.inv(cov + GP_JITTER * np.max(np.diag(cov)) * np.eye(d))))
            mean = r.normal(0.0, 0.5, size=d)
            side = np.where(np.arange(d) % 2, 1.0, -1.0)
            if tail:
                out = r.uniform(39.0 if shape == "two-sided" else 35.0, 45.0, size=d)
                width = r.uniform(1e-3, 1.0, size=d) * sd
            else:
                out = r.uniform(0.0, 2.0, size=d)
                out[0] = 0.0
                width = r.uniform(0.05, 2.0, size=d) * sd
            boxes.append((mean, cov, *_bounds_of_shape(shape, mean + side * out * sd, width)))
    return boxes


@pytest.mark.parametrize("size", [1, 15])
@pytest.mark.parametrize("shape", BOUND_SHAPES)
def test_every_bound_shape_matches_the_one_update_chain(shape, size):
    # truncated_mvn_sample picks each coordinate's update by its bound shape
    # (upper only, lower only, or the general one); boxes of one shape run
    # the same update at every coordinate
    for tail in (False, True):
        for i, (mean, cov, lo, hi) in enumerate(_shape_boxes(shape, tail)):
            finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
            assert {"upper": ~finite_lo & finite_hi, "lower": finite_lo & ~finite_hi,
                    "two-sided": finite_lo & (lo < hi), "free": ~finite_lo & ~finite_hi,
                    "pinned": finite_lo & (lo == hi)}[shape].all()
            # a plain generator, every k-th uniform 0.0, every uniform the largest below 1
            for k in (None, 1, 3, "top"):
                seed = 3000 + 10 * i + (k if k in (1, 3) else 0)
                new_rng, ref_rng = (rng(seed) if k is None else AllUniformsTop() if k == "top"
                                    else EveryKthUniformZero(seed, k) for _ in "ab")
                got = truncated_mvn_sample(mean, cov, lo, hi, new_rng, size=size)
                want = _gibbs_reference(mean, cov, lo, hi, ref_rng, size)
                assert _bits(got).tolist() == _bits(want).tolist(), (tail, i, k)
                assert np.isfinite(got).all() and ((lo <= got) & (got <= hi)).all(), (tail, i, k)
                assert getattr(new_rng, "real", new_rng).random() == getattr(ref_rng, "real", ref_rng).random()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_truncated_mvn_draw_lies_inside_its_box(data):
    d = data.draw(st.integers(1, 30), label="d")
    r = rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="SE kernel"):
        cov = se_kernel(np.arange(d) * 0.2, r.uniform(0.2, 4.0), r.uniform(0.1, 1.0))
    else:
        A = r.normal(size=(d, d))
        cov = A @ A.T / d + 0.1 * np.eye(d)
    mean = r.normal(0.0, 1.0, size=d)
    sd = np.sqrt(np.diag(cov))
    shapes = data.draw(st.lists(st.sampled_from(BOUND_SHAPES), min_size=d, max_size=d), label="shapes")
    # each bound up to 45 marginal standard deviations from the mean
    near = mean + sd * data.draw(st.lists(st.floats(-45.0, 45.0), min_size=d, max_size=d), label="bounds")
    width = sd * data.draw(st.lists(st.floats(0.0, 5.0), min_size=d, max_size=d), label="widths")
    lo, hi = np.full(d, -np.inf), np.full(d, np.inf)
    for shape in BOUND_SHAPES:
        of_shape = np.array(shapes) == shape
        s_lo, s_hi = _bounds_of_shape(shape, near, width)
        lo[of_shape], hi[of_shape] = s_lo[of_shape], s_hi[of_shape]
    size = data.draw(st.integers(1, 20), label="size")
    draws = truncated_mvn_sample(mean, cov, lo, hi, r, size=size)
    assert draws.shape == (size, d)
    assert np.isfinite(draws).all() and ((lo <= draws) & (draws <= hi)).all()


def test_blas_ddot_matches_ndarray_dot():
    # truncated_mvn_sample takes each precision row's dot with BLAS ddot
    # (scipy.linalg.blas) where _gibbs_reference takes prec[j] @ delta.
    # The chain keeps its draws only while both run the same kernel.
    from scipy.linalg.blas import ddot

    r = rng(75)
    for k in range(1, 31):
        cov = se_kernel(np.arange(k) * 0.2, 1.0, 0.4)  # pc1's GP block of k steps
        prec = np.linalg.inv(cov + GP_JITTER * np.eye(k))
        rows = list(prec) + list(r.normal(size=(100, k)) * 10.0 ** r.uniform(-3, 6, size=(100, 1)))
        deltas = r.normal(size=(len(rows), k)) * 10.0 ** r.uniform(-4, 1, size=(len(rows), 1))
        for row, delta in zip(rows, deltas):
            got = ddot(row, delta)
            assert type(got) is float
            assert _bits(got) == _bits(row.dot(delta)) == _bits(row @ delta), k


def test_cython_ndtr_and_ndtri_match_the_ufuncs():
    # truncated_mvn_sample calls the Cython scalar ndtr and ndtri where
    # _gibbs_reference calls the scipy.special ufuncs
    from scipy.special import cython_special

    r = rng(76)
    edges = [math.inf, -math.inf, 0.0, -0.0, 38.5, -38.5, 40.0, -40.0, math.nan]
    x = np.concatenate([r.normal(0.0, 1.0, 50_000), r.normal(0.0, 15.0, 50_000), edges])
    scalar_ndtr = cython_special.ndtr["double"]
    got = [scalar_ndtr(v) for v in x.tolist()]
    assert all(type(v) is float for v in got)
    assert _bits(got).tolist() == _bits(ndtr(x)).tolist()
    p = np.concatenate([r.random(100_000), 10.0 ** -r.uniform(0.0, 323.0, 100_000), edges,
                        [0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0]])
    got = [cython_special.ndtri(v) for v in p.tolist()]
    assert all(type(v) is float for v in got)
    assert _bits(got).tolist() == _bits(ndtri(p)).tolist()


@pytest.mark.parametrize("d, size", [(2, 1), (3, 2), (7, 15), (15, 4)])
def test_truncated_mvn_draws_one_uniform_per_update(d, size):
    mean, cov, lo, hi = _random_boxes(d)[d - 1]  # the box of dimension d
    new_rng, ref_rng = rng(20), rng(20)
    truncated_mvn_sample(mean, cov, lo, hi, new_rng, size=size)
    for _ in range((GIBBS_BURN_IN + (size - 1) * GIBBS_THIN) * d):
        ref_rng.random()
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("d, size", [(2, 1), (3, 2), (7, 15), (15, 4)])
def test_one_uniform_block_equals_the_chains_blocks(d, size):
    # the chain's burn-in block and its blocks for later rows are the
    # numbers of one block of their total size: how many uniforms a chain
    # takes is fixed by its box and row count, however they are cut
    one, parts = rng(53), rng(53)
    block = one.random((GIBBS_BURN_IN + (size - 1) * GIBBS_THIN) * d)
    pieces = [parts.random(GIBBS_BURN_IN * d)] + [parts.random(GIBBS_THIN * d) for _ in range(size - 1)]
    assert np.array_equal(block, np.concatenate(pieces))
    assert one.bit_generator.state == parts.bit_generator.state


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
    batch = sample_traces(sc.model, sc.horizon, sc.dt, cs, rng=r, size=0)
    assert (len(batch), batch.m, list(batch)) == (0, sc.horizon, [])
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


@pytest.mark.parametrize("model, other", [
    (gp_model(), DIST),
    (DisturbanceModel(channels=(NOISE,), models={"n_y": IndependentNormal(0.0, 0.04)}), DIST),
    (cat_model(), NOISE),
], ids=["gp", "normal", "categorical"])
def test_a_constraint_set_of_other_channels_is_refused(model, other):
    # every ConstraintSet holds bounds or a mask for each channel it was
    # compiled on, and the samplers read them directly: one compiled on
    # other channels names the missing channel
    (ch,) = model.channels
    with pytest.raises(KeyError, match=ch.name):
        sample_traces(model, 5, 0.2, ConstraintSet((other,), 5), rng=rng(13), size=3)


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


@pytest.mark.parametrize("name, text", [("lt1", "F_[0,5](disturbance = a_maj)"), ("pc1", "G_[9,23](a_x <= -0.4)")])
def test_trace_batch_round_trips_through_signal_traces(name, text):
    from stlfalsify.sim import scenario

    sc = scenario(name)
    r = rng(24)
    cs = constraints_for(parse(text, sc.channels), sc.channels, sc.horizon, r)
    batch = sample_traces(sc.model, sc.horizon, sc.dt, cs, rng=r, size=15)
    again = TraceBatch.from_traces(sc.channels, list(batch))
    joined = batch.take([3, 0, *range(15)])
    assert (len(again), again.m, again.dt, again.channels) == (15, sc.horizon, sc.dt, sc.channels)
    for ch in sc.channels:
        assert again.blocks[ch.name].dtype == batch.blocks[ch.name].dtype
        assert np.array_equal(again.blocks[ch.name], batch.blocks[ch.name])
        assert np.array_equal(joined.blocks[ch.name][2:], batch.blocks[ch.name])
        assert np.array_equal(joined[1].values[ch.name], batch[0].values[ch.name])


# Constraint draws that give each kind of channel its kinds of steps.  lt1:
# no constraint, then masks on one to four steps.  pc1: no constraint, a_y
# pinned on three steps with the rest free, a_x boxed on one step (d = 1)
# and on fifteen (d > 1) beside pins and free steps, and the normal
# channels boxed and pinned.
BUILD_CASES = {
    "lt1": [None, "G_[0,3](!(none))", "(G_[0,3](!(none)) & F_[5,9]((a_maj | d_maj)))"],
    "pc1": [
        None,
        "G_[3,5](a_y = 0.5)",
        "G_[9,9](a_x <= -0.4)",
        "(G_[9,23](a_x <= -0.4) & G_[3,5](a_x = 0.5))",
        "(G_[0,29](n_y >= -0.5) & G_[2,2](n_x = 0.1))",
    ],
}


@pytest.mark.parametrize("name", sorted(BUILD_CASES))
def test_built_draws_match_one_sample_traces_call_per_batch(name):
    from stlfalsify.sim import scenario

    sc = scenario(name)
    make = rng(51)
    sets = [None if t is None else constraints_for(parse(t, sc.channels), sc.channels, sc.horizon, make)
            for t in BUILD_CASES[name]]
    if name == "pc1":
        pinned, boxed = (lambda n, cs: cs.lower[n] == cs.upper[n]), (lambda n, cs: np.isfinite(cs.upper[n]))
        assert pinned("a_y", sets[1]).sum() == 3 and not np.isfinite(sets[1].upper["a_x"]).any()
        assert boxed("a_x", sets[2]).sum() == 1
        assert (boxed("a_x", sets[3]) & ~pinned("a_x", sets[3])).sum() == 15 and pinned("a_x", sets[3]).sum() == 3
        assert np.isfinite(sets[4].lower["n_y"]).all() and pinned("n_x", sets[4]).sum() == 1
    else:
        assert all((~cs.allowed["disturbance"].all(axis=1)).any() for cs in sets[1:])
    for model in (sc.model, sc.proposal):
        new_rng, ref_rng = rng(52), rng(52)
        for size in (0, 1, 15):
            batches = 2 * sets  # each constraint set twice, among the others
            draws = [draw_traces(model, sc.horizon, sc.dt, cs, rng=new_rng, size=size) for cs in batches]
            got = build_traces(model, sc.horizon, sc.dt, draws)
            want = [sample_traces(model, sc.horizon, sc.dt, cs, rng=ref_rng, size=size) for cs in batches]
            assert len(got) == size * len(batches)
            for ch in sc.channels:
                block = np.concatenate([batch.blocks[ch.name] for batch in want])
                assert got.blocks[ch.name].dtype == block.dtype
                assert np.array_equal(got.blocks[ch.name], block), (size, ch.name)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    with pytest.raises(ValueError, match="draws differ in size"):
        build_traces(sc.model, sc.horizon, sc.dt, [draw_traces(sc.model, sc.horizon, sc.dt, rng=rng(54), size=n)
                                                   for n in (1, 2)])


class EveryKthUniformZero:
    """A generator whose every ``k``-th uniform along the stream is 0.0, so
    that steps with no lower bound take the inverse CDF's zero-uniform
    rule; other draws are those of ``default_rng(seed)``."""

    def __init__(self, seed, k=7):
        self.real, self.k, self.seen = np.random.default_rng(seed), k, 0

    def random(self, shape=None):
        u = np.asarray(self.real.random(shape))
        flat = u.reshape(-1)  # a view
        flat[-self.seen % self.k:: self.k] = 0.0
        self.seen += flat.size
        return u if shape is not None else float(u)

    def standard_normal(self, shape):
        return self.real.standard_normal(shape)


class AllUniformsTop:
    """A generator whose every uniform is the largest double below 1."""

    TOP = 1.0 - 2.0**-53

    def random(self, shape=None):
        return self.TOP if shape is None else np.full(shape, self.TOP)


def _assert_finite_and_in_box(batch, sets):
    """Every value of the one-trace-per-set ``batch`` is finite and inside its set's bounds."""
    for ch in batch.channels:
        block = batch.blocks[ch.name]
        assert np.isfinite(block).all(), ch.name
        for row, cs in zip(block, sets):
            if cs is not None and ch.name in cs.lower:
                assert ((cs.lower[ch.name] <= row) & (row <= cs.upper[ch.name])).all(), ch.name


def test_baseline_builds_match_one_sample_traces_call_per_draw():
    # the baseline's path: a chunk of one-trace draws, all unconstrained (the
    # build's bounds stay scalar), or None among bounded constraint sets,
    # including one that bounds a GP channel only
    from stlfalsify.sim import scenario

    sc = scenario("pc1")
    make = rng(55)
    bounded = [constraints_for(parse(t, sc.channels), sc.channels, sc.horizon, make) for t in (
        "G_[0,29](n_y >= -0.5)",
        "(G_[0,29](n_vy <= 0.8) & G_[2,2](n_x = 0.1))",
        "G_[9,23](a_x <= -0.4)",
    )]
    chunks = {"unconstrained": [None] * 60, "mixed": [None, bounded[0], None, bounded[1], None, bounded[2]] * 10}
    for model in (sc.proposal, sc.model):
        for what, sets in chunks.items():
            for make_rng in (rng, EveryKthUniformZero):
                new_rng, ref_rng, frozen_rng = make_rng(56), make_rng(56), make_rng(56)
                draws = [draw_traces(model, sc.horizon, sc.dt, cs, rng=new_rng, size=1) for cs in sets]
                got = build_traces(model, sc.horizon, sc.dt, draws)
                want = [sample_traces(model, sc.horizon, sc.dt, cs, rng=ref_rng, size=1) for cs in sets]
                frozen = [sample_traces_frozen(model, sc.horizon, sc.dt, cs, frozen_rng, 1)[0] for cs in sets]
                for ch in sc.channels:
                    block = np.concatenate([batch.blocks[ch.name] for batch in want])
                    assert np.array_equal(got.blocks[ch.name], block), (what, ch.name)
                    assert np.array_equal(block, [trace.values[ch.name] for trace in frozen]), (what, ch.name)
                if make_rng is EveryKthUniformZero:
                    # zeros fall on unbounded normal steps and on GP box
                    # coordinates with no lower bound: each draws the
                    # normal's finite low end, inside its box
                    _assert_finite_and_in_box(got, sets)
                    assert (got.blocks["n_y"] < -5.0).any()
                else:
                    assert new_rng.bit_generator.state == ref_rng.bit_generator.state == frozen_rng.bit_generator.state


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
    # non-finite parameters: nan fails every comparison, so each needs its own test
    with pytest.raises(ValueError, match="'a'"):
        Categorical({"a": math.nan, "b": 0.5})
    with pytest.raises(ValueError, match="'b'"):
        Categorical({"a": 1.5, "b": -0.5})
    for mean, variance in [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)]:
        with pytest.raises(ValueError):
            IndependentNormal(mean, variance)
    for variance, lengthscale in [(math.nan, 0.4), (math.inf, 0.4), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            GaussianProcess(variance, lengthscale)
    with pytest.raises(ValueError):
        GaussianProcess(1.0, 0.0)


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
    model = Categorical(probs)
    one_channel = DisturbanceModel(channels=(DIST,), models={"disturbance": model})
    m = 12
    for seed in range(5):
        cs = None if text is None else constraints_for(parse(text, (DIST,)), (DIST,), m, rng(seed))
        new_rng, ref_rng = rng(100 + seed), rng(100 + seed)
        indices = sample_traces(one_channel, m, 0.18, cs, rng=new_rng, size=size).blocks["disturbance"]
        got = np.array(DIST.symbols, dtype=object)[indices]
        want = _categorical_reference(DIST, model, m, cs, ref_rng, size)
        assert got.shape == (size, m)
        assert (got == want).all()
        assert new_rng.random() == ref_rng.random()
        if text is not None and "S" in text:
            assert (got[:, 1:5] == "S").all()


def test_categorical_prob_table_is_no_field():
    model = Categorical({**LT_PROBS, "S": 0.0, "none": 0.977})
    for symbol, p in model.probs:
        assert model.prob(symbol) == dict(model.probs)[symbol] == p
    assert model.prob("unknown") == 0.0
    same = Categorical(dict(reversed(model.probs)))
    assert same == model and hash(same) == hash(model)
    assert repr(model) == f"Categorical(probs={model.probs!r})"
    assert [f.name for f in dataclasses.fields(model)] == ["probs"]


def test_categorical_sampler_never_draws_zero_mass_symbols():
    # u = 0 must land past leading zero-probability symbols, as
    # searchsorted(side="right") does in Generator.choice
    class ZeroUniforms:
        def random(self, shape):
            return np.zeros(shape)

    probs = {**LT_PROBS, "none": 0.0, "d_med": 0.986}
    model = DisturbanceModel(channels=(DIST,), models={"disturbance": Categorical(probs)})
    got = sample_traces(model, 4, 0.18, rng=ZeroUniforms(), size=3).blocks["disturbance"]
    assert got.shape == (3, 4) and (got == DIST.symbols.index("d_med")).all()


def test_gp_box_blocks_never_carry_pinned_coordinates(monkeypatch):
    # _conditioned_gp conditions on equality steps before the Gibbs chain
    # runs, so the chain only ever sees boxes with lo < hi
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


# ---------------------------------------------------------------------------
# sample_traces against a frozen copy of its earlier form: one list of rows
# per channel, a posterior that takes its jitter from the observed block's
# largest variance and a GP block filled with the posterior mean first


def _gp_posterior_frozen(K, obs_idx, obs_val):
    m = K.shape[0]
    if obs_idx.size == 0:
        return np.zeros(m), K.copy()
    Koo = K[np.ix_(obs_idx, obs_idx)]
    Kxo = K[:, obs_idx]
    L = np.linalg.cholesky(Koo + GP_JITTER * np.max(np.diag(Koo)) * np.eye(obs_idx.size))
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, obs_val))
    mean = Kxo @ alpha
    V = np.linalg.solve(L, Kxo.T)
    cov = K - V.T @ V
    return mean, cov


def _bounds_frozen(cs, name, m):
    if cs is None or name not in cs.lower:
        return np.full(m, -np.inf), np.full(m, np.inf)
    return cs.lower[name], cs.upper[name]


def _sample_categorical_frozen(ch, model, m, cs, r, size):
    """(size, m) symbol indices by inverse CDF, one ``r.random((size, m))`` call."""
    base = np.array([model.prob(s) for s in ch.symbols])
    p = np.tile(base / base.sum(), (m, 1))
    if cs is not None:
        mask = cs.allowed[ch.name]
        rows = ~mask.all(axis=1)
        if rows.any():
            sub = mask[rows]
            weights = base * sub
            total = weights.sum(axis=1, keepdims=True)
            fallback = sub / sub.sum(axis=1, keepdims=True)
            p[rows] = np.divide(weights, total, out=fallback, where=total > 0)
    cdf = p.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = r.random((size, m))
    return (cdf <= u[:, :, None]).sum(axis=2)


def _sample_gp_frozen(ch, model, m, dt, cs, r, size):
    from stlfalsify.samplers import _kernel_and_chol

    K, L_full = _kernel_and_chol(model.variance, model.lengthscale, m, dt)
    lo, hi = _bounds_frozen(cs, ch.name, m)
    eq = np.isfinite(lo) & (lo == hi)
    box = (np.isfinite(lo) | np.isfinite(hi)) & ~eq
    obs_idx = np.flatnonzero(eq)
    mean, cov = _gp_posterior_frozen(K, obs_idx, lo[obs_idx])

    out = np.tile(mean, (size, 1))
    c_idx = np.flatnonzero(box)
    f_idx = np.flatnonzero(~eq & ~box)
    if c_idx.size:
        xc = truncated_mvn_sample(
            mean[c_idx], cov[np.ix_(c_idx, c_idx)], lo[c_idx], hi[c_idx], r, size=size
        )
        out[:, c_idx] = xc
        if f_idx.size:
            Ccc = cov[np.ix_(c_idx, c_idx)]
            Cfc = cov[np.ix_(f_idx, c_idx)]
            Cff = cov[np.ix_(f_idx, f_idx)]
            jit = GP_JITTER * model.variance
            Lc = np.linalg.cholesky(Ccc + jit * np.eye(c_idx.size))
            W = np.linalg.solve(Lc, Cfc.T)
            cond_cov = Cff - W.T @ W
            Lf = np.linalg.cholesky(cond_cov + jit * np.eye(f_idx.size))
            for i in range(size):
                u = np.linalg.solve(Lc.T, np.linalg.solve(Lc, xc[i] - mean[c_idx]))
                mu_f = mean[f_idx] + Cfc @ u
                out[i, f_idx] = mu_f + Lf @ r.standard_normal(f_idx.size)
    elif f_idx.size:
        if obs_idx.size:
            jit = GP_JITTER * model.variance
            Lf = np.linalg.cholesky(cov[np.ix_(f_idx, f_idx)] + jit * np.eye(f_idx.size))
        else:
            Lf = L_full
        out[:, f_idx] = mean[f_idx] + r.standard_normal((size, f_idx.size)) @ Lf.T
    if obs_idx.size:
        out[:, obs_idx] = lo[obs_idx]
    return out


def sample_traces_frozen(model, m, dt, constraints, r, size):
    columns = {}
    for ch in model.channels:
        cm = model.models[ch.name]
        if isinstance(cm, Categorical):
            symbols = np.array(ch.symbols, dtype=object)
            columns[ch.name] = list(symbols[_sample_categorical_frozen(ch, cm, m, constraints, r, size)])
        elif isinstance(cm, IndependentNormal):
            lo, hi = _bounds_frozen(constraints, ch.name, m)
            vals = truncated_normal(
                cm.mean, cm.std, lo[None, :].repeat(size, 0), hi[None, :].repeat(size, 0), r
            )
            columns[ch.name] = [vals[i] for i in range(size)]
        else:
            block = _sample_gp_frozen(ch, cm, m, dt, constraints, r, size)
            columns[ch.name] = [block[i] for i in range(size)]
    traces = []
    for i in range(size):
        values = {name: col[i] for name, col in columns.items()}
        traces.append(SignalTrace(dt=dt, channels=model.channels, values=values))
    return traces


# normal, GP, normal, normal, GP: runs of normal channels that open the
# model, hold one channel, or hold two between GP channels
MIXED_CHANNELS = (
    ContinuousChannel("n_a", -1.0, 1.0),
    ContinuousChannel("g_a", -2.0, 2.0),
    ContinuousChannel("n_b", -1.0, 1.0),
    ContinuousChannel("n_c", -2.0, 2.0),
    ContinuousChannel("g_b", -2.0, 2.0),
)
MIXED_MODEL = DisturbanceModel(
    channels=MIXED_CHANNELS,
    models={
        "n_a": IndependentNormal(0.1, 0.09),
        "g_a": GaussianProcess(1.0, 0.4),
        "n_b": IndependentNormal(-0.2, 0.25),
        "n_c": IndependentNormal(0.0, 1.0),
        "g_b": GaussianProcess(0.5, 0.6),
    },
)
FROZEN_FORMULAS = {
    "lt1": [None, "G_[0,1](a_maj)", "(G_[0,3](!(none)) & F_[5,9]((a_maj | d_maj)))"],
    "pc1": [
        None,
        # a_x: box and free steps; a_y: pinned and free steps
        "G_[9,23](a_x <= -0.4) & G_[3,5](a_y = 0.5)",
        # a_x: pinned, box and free steps; normal channels boxed and pinned
        "G_[9,23](a_x <= -0.4) & G_[3,5](a_x = 0.5) & G_[0,29](n_y >= -0.5) & G_[2,2](n_x = 0.1)",
        # a_y: box at every step, so no free steps
        "G_[0,29](a_y >= -1.0) & G_[0,29](a_y <= 1.0)",
    ],
    "mixed": [
        None,
        "G_[0,11](n_b >= -0.3) & G_[2,4](n_a = 0.2) & G_[3,7](g_a <= -0.5)",
        "G_[1,3](n_c <= -1.5) & G_[0,5](g_b >= 0.5) & G_[6,6](g_b = 0.1) & G_[0,11](n_a <= 0.0)",
        "G_[2,3](g_a = 0.5) & G_[0,11](g_b >= -1.0) & G_[4,4](n_c = 0.3)",
    ],
}
FROZEN_FORMULAS["pc2"] = FROZEN_FORMULAS["pc1"]  # the same channels


def _frozen_case(name):
    """A model to sample, with its channels, horizon, dt and grammar."""
    from types import SimpleNamespace

    from stlfalsify.grammar import GrammarSpec
    from stlfalsify.sim import scenario

    if name != "mixed":
        return scenario(name)
    return SimpleNamespace(
        model=MIXED_MODEL, channels=MIXED_CHANNELS, horizon=12, dt=0.2,
        grammar=GrammarSpec(channels=MIXED_CHANNELS, t_max=11),
    )


@pytest.mark.parametrize("size", [0, 1, 15])
@pytest.mark.parametrize("name", ["lt1", "pc1", "pc2", "mixed"])
def test_sample_traces_matches_frozen_copy(name, size):
    from stlfalsify.grammar import sample_expression

    sc = _frozen_case(name)
    make = rng(31)
    formulas = [None if t is None else parse(t, sc.channels) for t in FROZEN_FORMULAS[name]]
    formulas += [sample_expression(sc.grammar, make) for _ in range(20)]
    gp_names = [n for n, cm in sc.model.models.items() if isinstance(cm, GaussianProcess)]
    kinds = set()  # (pinned, boxed, free) steps present on a GP channel
    for i, f in enumerate(formulas):
        try:
            cs = None if f is None else constraints_for(f, sc.channels, sc.horizon, make)
        except InfeasibleError:
            continue
        for n in gp_names:
            lo, hi = (cs.lower[n], cs.upper[n]) if cs is not None and n in cs.lower else (
                np.full(sc.horizon, -np.inf), np.full(sc.horizon, np.inf))
            eq = np.isfinite(lo) & (lo == hi)
            boxed = (np.isfinite(lo) | np.isfinite(hi)) & ~eq
            kinds.add((bool(eq.any()), bool(boxed.any()), bool((~eq & ~boxed).any())))
        new_rng, ref_rng = rng(500 + i), rng(500 + i)
        got = sample_traces(sc.model, sc.horizon, sc.dt, cs, rng=new_rng, size=size)
        want = sample_traces_frozen(sc.model, sc.horizon, sc.dt, cs, ref_rng, size)
        assert len(got) == len(want) == size
        for g, w in zip(got, want):
            for ch in sc.channels:
                assert g.values[ch.name].dtype == w.values[ch.name].dtype
                assert np.array_equal(g.values[ch.name], w.values[ch.name]), (i, ch.name)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state, i
    if name != "lt1":
        assert {(False, False, True), (True, False, True), (False, True, True),
                (True, True, True), (False, True, False)} <= kinds


# ---------------------------------------------------------------------------
# log_likelihoods against a frozen copy of the per-trace log_likelihood


def log_likelihood_frozen(model, trace):
    from stlfalsify.samplers import _kernel_and_chol

    total = 0.0
    m = trace.m
    for ch in model.channels:
        cm = model.models[ch.name]
        vals = trace.values[ch.name]
        if isinstance(cm, Categorical):
            for s in vals.tolist():
                p = cm.prob(s)
                if p <= 0.0:
                    return -np.inf
                total += math.log(p)
        elif isinstance(cm, IndependentNormal):
            v = np.asarray(vals, dtype=float)
            z = (v - cm.mean) / cm.std
            total += float(-0.5 * np.sum(z * z) - m * (0.5 * math.log(2.0 * math.pi) + math.log(cm.std)))
        else:
            _, L = _kernel_and_chol(cm.variance, cm.lengthscale, m, trace.dt)
            v = np.asarray(vals, dtype=float)
            w = np.linalg.solve(L, v)
            total += float(
                -0.5 * np.dot(w, w)
                - np.sum(np.log(np.diag(L)))
                - 0.5 * m * math.log(2.0 * math.pi)
            )
    return total


def _assert_scores_match_frozen(model, traces):
    got = log_likelihoods(model, traces)
    want = [log_likelihood_frozen(model, t) for t in traces]
    assert got.shape == (len(traces),)
    assert got.tolist() == want
    assert [log_likelihood(model, t) for t in traces] == want
    return want


def _constrained_traces(sc, model, r, count, per_formula):
    """A batch of ``count`` traces from ``model``, ``per_formula`` under
    each random formula's constraint draw, made with ``TraceBatch.from_traces``."""
    from stlfalsify.grammar import sample_expression

    traces = []
    while len(traces) < count:
        try:
            cs = constraints_for(sample_expression(sc.grammar, r), sc.channels, sc.horizon, r)
        except InfeasibleError:
            continue
        size = min(per_formula, count - len(traces))
        traces += sample_traces(model, sc.horizon, sc.dt, cs, rng=r, size=size)
    if not traces:  # from_traces needs a trace: an empty draw's batch
        return sample_traces(model, sc.horizon, sc.dt, rng=r, size=0)
    return TraceBatch.from_traces(sc.channels, traces)


@pytest.mark.parametrize("count", [0, 1, 200])
@pytest.mark.parametrize("name", ["lt1", "lt3", "pc1", "pc2"])
def test_log_likelihoods_match_frozen_copy(name, count):
    from stlfalsify.sim import scenario

    sc = scenario(name)
    r = rng(41)
    scored = 0
    for source in (sc.model, sc.proposal):
        batches = [
            sample_traces(source, sc.horizon, sc.dt, rng=r, size=count),
            _constrained_traces(sc, source, r, count, per_formula=10),
        ]
        for traces in batches:
            assert len(traces) == count
            for model in (sc.model, sc.proposal):
                want = _assert_scores_match_frozen(model, traces)
                scored += sum(math.isfinite(w) for w in want)
    assert scored == 8 * count


def test_log_likelihoods_of_zero_probability_symbols():
    # S carries no mass: any trace holding it scores -inf, whatever the
    # channels before or after the categorical one add
    probs = {**LT_PROBS, "none": 0.977, "S": 0.0}
    cat = DisturbanceModel(channels=(DIST,), models={"disturbance": Categorical(probs)})
    mixed = DisturbanceModel(
        channels=(ACC, DIST, NOISE),
        models={"a_y": GaussianProcess(1.0, 0.4), "disturbance": Categorical(probs),
                "n_y": IndependentNormal(0.0, 0.04)},
    )
    uniform = Categorical({s: 1 / len(DIST.symbols) for s in DIST.symbols})
    for model in (cat, mixed):
        source = DisturbanceModel(channels=model.channels, models={**model.models, "disturbance": uniform})
        traces = sample_traces(source, 12, 0.2, rng=rng(42), size=200)
        want = _assert_scores_match_frozen(model, traces)
        has_s = ["S" in t.values["disturbance"].tolist() for t in traces]
        assert [w == -np.inf for w in want] == has_s
        assert 0 < sum(has_s) < len(traces)
    # a nan on another channel does not turn an impossible trace into nan
    values = {**traces[has_s.index(True)].values, "a_y": np.full(12, np.nan)}
    poisoned = dataclasses.replace(traces[0], values=values)
    assert log_likelihood_frozen(mixed, poisoned) == -np.inf
    assert log_likelihoods(mixed, TraceBatch.from_traces(mixed.channels, [traces[0], poisoned]))[1] == -np.inf


def test_log_likelihoods_name_what_they_cannot_score():
    from stlfalsify.sim import scenario

    def scores(model, traces):  # of the batch that TraceBatch.from_traces makes
        return log_likelihoods(model, TraceBatch.from_traces(model.channels, traces))

    lt, pc = scenario("lt1"), scenario("pc1")
    with pytest.raises(ValueError, match="trace 1 has no channel 'a_x' of the model"):
        scores(pc.model, [pc.nominal_trace(), lt.nominal_trace()])
    with pytest.raises(ValueError, match="trace 0 has no channel 'disturbance' of the model"):
        log_likelihood(lt.model, pc.nominal_trace())
    model = gp_model()
    short, longer = (sample_trace(model, m, 0.2, rng=rng(43)) for m in (5, 6))
    with pytest.raises(ValueError, match="traces differ in step count or dt: trace 0 has 5 steps of 0.2 s, "
                                         "trace 1 6 steps of 0.2 s"):
        scores(model, [short, longer])
    slower = sample_trace(model, 5, 0.25, rng=rng(44))
    with pytest.raises(ValueError, match="trace 2 5 steps of 0.25 s"):
        scores(model, [short, short, slower])
    # TraceBatch.from_traces also rejects a symbol that the model's channel
    # does not declare: it sits on a channel declared otherwise
    with pytest.raises(ValueError, match="trace 1 has no channel 'disturbance' of the model"):
        TraceBatch.from_traces(lt.channels, [lt.nominal_trace(), pc.nominal_trace()])
    with pytest.raises(ValueError, match="trace 0 has 5 steps of 0.2 s, trace 1 6 steps of 0.2 s"):
        TraceBatch.from_traces(model.channels, [short, longer])
    wider = (CategoricalChannel("disturbance", symbols=(*DIST.symbols, "X")),)
    odd = SignalTrace(dt=lt.dt, channels=wider, values={"disturbance": np.array(["none"] * 23 + ["X"], dtype=object)})
    with pytest.raises(ValueError, match="trace 1 has no channel 'disturbance' of the model"):
        scores(lt.model, [lt.nominal_trace(), odd])
    with pytest.raises(ValueError, match="batch channels do not match the model"):
        log_likelihoods(lt.model, TraceBatch.from_traces(wider, [odd]))


# ---------------------------------------------------------------------------
# scipy.special is imported only where a truncated normal is drawn


def test_a_categorical_pipeline_never_imports_scipy_special(tmp_path):
    # sampling, rolling and scoring lt1 batches, a small search, the
    # baseline and monitor on an lt1 CSV, in a fresh interpreter; then one
    # pc1 batch, whose normal channels do import it.  scipy.linalg (the
    # Gibbs chain's BLAS ddot) waits for the first chain: a constrained
    # pc1 batch imports it, an unconstrained one does not.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import stlfalsify

    code = f"""
import sys
import numpy as np
import stlfalsify as sf
from stlfalsify.cli import main
from stlfalsify.samplers import log_likelihoods

sc = sf.scenario("lt1")
rng = np.random.default_rng(61)
batch = sf.sample_traces(sc.model, sc.horizon, sc.dt, rng=rng, size=100)
sc.fail_steps(batch)
log_likelihoods(sc.model, batch)
sf.importance_sample(sc, 60, rng)
sf.run(sc, sf.GpConfig(population=10, generations=1, seed=61))
sc.run(batch[0]).to_csv({str(tmp_path / "lt1.csv")!r})
assert main(["monitor", "F_[0,5](disturbance = a_maj)", {str(tmp_path / "lt1.csv")!r}, "--scenario", "lt1"]) == 0
print("lt1", "scipy.special" in sys.modules, "scipy.linalg" in sys.modules)
pc = sf.scenario("pc1")
sf.sample_traces(pc.model, pc.horizon, pc.dt, rng=rng, size=1)
print("pc1", "scipy.special" in sys.modules, "scipy.linalg" in sys.modules)
cs = sf.constraints_for(sf.parse("G_[9,23](a_x <= -0.4)", pc.channels), pc.channels, pc.horizon, rng)
sf.sample_traces(pc.model, pc.horizon, pc.dt, cs, rng=rng, size=1)
print("pc1 constrained", "scipy.linalg" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(stlfalsify.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-3:] == ["lt1 False False", "pc1 True False", "pc1 constrained True"]
