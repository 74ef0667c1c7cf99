"""Disturbance models and constrained trace sampling.

A disturbance model assigns each channel one of three independent marginal
processes: a per-step categorical distribution, per-step independent
normals, or a zero-mean Gaussian process with a squared-exponential kernel
over step times.  Channels are independent of one another, so trace
log-likelihoods add across channels.

Constrained sampling keeps every draw inside its box.  Categorical steps
renormalize over the allowed mask and normal steps become univariate
truncated normals; both are exact.  GP channels split the constrained steps
into equalities (treated as exact observations, standard posterior
conditioning, also exact) and interval constraints, which a Gibbs chain
over the posterior restricted to those steps samples only approximately:
it does not mix on badly conditioned blocks such as pc1's.  The remaining
steps are then drawn from the conditional posterior.  The Gibbs chain is
shared across a batch, which is why ``sample_traces`` takes a ``size``.

Random stream: a batch's random numbers are drawn (``draw_traces``)
before the batch is built, and how many each channel takes depends only
on the constraint set's equality, box and free steps, never on a drawn
value.  Channels draw in ``model.channels`` order.  A categorical
channel takes one uniform per step, one ``(size, m)`` block in
trace-major order, and maps it through the step's CDF with the
arithmetic of ``Generator.choice``; the draws are those of a per-step
``rng.choice`` loop over traces and steps.  A run of consecutive normal
channels takes one ``(channels, size, m)`` block of uniforms,
channel-major: consecutive ``rng.random`` calls draw what one call of
their total size draws, so this equals one block per channel.  An
unconstrained GP channel takes one ``(size, m)`` block of standard
normals.  A GP channel with box steps takes the Gibbs chain's uniforms,
one per coordinate update, in blocks in update order (see
``truncated_mvn_sample``), and then its free steps' standard normals,
one ``(size, |F|)`` block; with equality steps only it takes that block
alone.  A ``(size, k)`` block of normals is the draws of one ``k``
block per trace.

Batches: ``build_traces`` turns the draws of one or more batches of one
size into one ``stl.TraceBatch``, one block per channel, and
``sample_traces`` is ``build_traces`` of one ``draw_traces``;
``log_likelihoods`` scores a batch, and ``sample_trace`` and indexing a
batch build ``SignalTrace`` objects.  A build inverts the CDFs of every draw of a categorical channel
or run of normal channels in one pass over their stacked masks and
bounds (normal steps that no constraint bounds as plain normals, which
give the truncated inverse's bits), and multiplies the normals of every
unconstrained GP draw by the kernel's factor in one ``(draws, size, m)``
product.  A GP channel with equality or box steps is sampled per batch as it is
drawn, chain and conditioning, so that waiting draws hold its values,
not its chain's uniforms.  The free-step conditioning and the
likelihoods solve and multiply all traces in one stacked call on
``(size, k, 1)`` right-hand sides.  numpy runs each stacked call as one
LAPACK or BLAS call per row or per draw, and the inverse CDFs are
element-wise, so each trace gets the bits that drawing its batch alone
would give.

scipy's normal CDF and its inverse (``scipy.special.ndtr`` and
``ndtri``) are imported inside their only callers, ``_normal_at``,
``_truncated_normal_at`` and ``truncated_mvn_sample``, on first use:
importing ``scipy.special`` takes about 0.35 s, and a purely
categorical model, the monitor and the parser never need it.
``truncated_mvn_sample``'s docstring gives the Gibbs chain's scalar
entry points and update bodies, and why.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintSet, InfeasibleError
from .stl import CategoricalChannel, ChannelSpec, SignalTrace, TraceBatch

__all__ = [
    "Categorical",
    "IndependentNormal",
    "GaussianProcess",
    "DisturbanceModel",
    "se_kernel",
    "truncated_normal",
    "truncated_mvn_sample",
    "TraceDraw",
    "draw_traces",
    "build_traces",
    "sample_trace",
    "sample_traces",
    "log_likelihood",
    "log_likelihoods",
]

_LOG_2PI = math.log(2.0 * math.pi)
GP_JITTER = 1e-8
GIBBS_BURN_IN = 200  # sweeps before the first returned row
GIBBS_THIN = 5  # sweeps between returned rows
_TINY = 5e-324  # the smallest positive double: a zero uniform's stand-in


@dataclass(frozen=True)
class Categorical:
    """Per-step distribution over a categorical channel's symbols."""

    probs: tuple[tuple[str, float], ...]

    def __init__(self, probs):
        items = tuple(sorted(dict(probs).items()))
        object.__setattr__(self, "probs", items)
        for s, p in items:
            if not p >= 0:  # also false for nan
                raise ValueError(f"probability of {s!r} is {p}, not a non-negative number")
        total = sum(p for _, p in items)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        # a lookup table, not a field: it stays out of eq, hash and repr
        object.__setattr__(self, "_by_symbol", dict(items))

    def prob(self, symbol: str) -> float:
        return self._by_symbol.get(symbol, 0.0)


@dataclass(frozen=True)
class IndependentNormal:
    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0 < self.variance < math.inf):
            raise ValueError("mean must be finite and variance finite and positive")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class GaussianProcess:
    """Zero-mean GP with squared-exponential kernel over step times."""

    variance: float
    lengthscale: float  # seconds

    def __post_init__(self):
        if not (0 < self.variance < math.inf and 0 < self.lengthscale < math.inf):
            raise ValueError("variance and lengthscale must be finite and positive")


ChannelModel = Categorical | IndependentNormal | GaussianProcess


@dataclass(frozen=True)
class DisturbanceModel:
    """One marginal model per channel, independent across channels."""

    channels: tuple[ChannelSpec, ...]
    models: dict[str, ChannelModel] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        declared = sorted(ch.name for ch in self.channels)
        if sorted(self.models) != declared:
            raise ValueError(f"models for {sorted(self.models)} do not match channels {declared}")
        for ch in self.channels:
            m = self.models[ch.name]
            if isinstance(ch, CategoricalChannel) != isinstance(m, Categorical):
                raise ValueError(f"model kind mismatch on channel {ch.name!r}")
            if isinstance(m, Categorical):
                extra = {s for s, p in m.probs if p > 0} - set(ch.symbols)
                if extra:
                    raise ValueError(f"model symbols {extra} not on channel {ch.name!r}")

    @property
    def discrete(self) -> bool:
        """Every channel is categorical, so a trace likelihood is a probability."""
        return all(isinstance(cm, Categorical) for cm in self.models.values())

    @functools.cached_property
    def _groups(self) -> list[tuple[ChannelSpec, ...]]:
        """The channels in the order they draw: each categorical and GP
        channel alone, and each run of consecutive normal channels together."""
        return [tuple(group) for _, group in itertools.groupby(
            self.channels, lambda ch: isinstance(self.models[ch.name], IndependentNormal) or ch.name)]


# ---------------------------------------------------------------------------
# Kernels


def se_kernel(times: np.ndarray, variance: float, lengthscale: float) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    d = t[:, None] - t[None, :]
    return variance * np.exp(-(d * d) / (2.0 * lengthscale**2))


@functools.cache
def _kernel_and_chol(variance, lengthscale, m, dt):
    """Cached (K, cholesky(K + jitter)) for a step grid.  Do not mutate."""
    K = se_kernel(np.arange(m) * dt, variance, lengthscale)
    return K, np.linalg.cholesky(K + GP_JITTER * variance * np.eye(m))


@functools.cache
def _log_det_chol(variance, lengthscale, m, dt):
    """Cached log determinant of ``_kernel_and_chol``'s factor."""
    return np.sum(np.log(np.diag(_kernel_and_chol(variance, lengthscale, m, dt)[1])))


# ---------------------------------------------------------------------------
# Truncated normals


def truncated_normal(mean, std, lo, hi, rng: np.random.Generator, size=None):
    """Draw from N(mean, std²) conditioned on [lo, hi], element-wise.

    Inverse-CDF construction at one ``rng.random`` block of the broadcast
    shape (see ``_truncated_normal_at``).
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    shape = np.broadcast_shapes(mean.shape, std.shape, lo.shape, hi.shape,
                                () if size is None else tuple(np.atleast_1d(size)))
    out = _truncated_normal_at(rng.random(shape), mean, std, lo, hi)
    return float(out) if out.ndim == 0 else out


def _truncated_normal_at(u, mean, std, lo, hi) -> np.ndarray:
    """N(mean, std²) conditioned on [lo, hi] at the uniforms ``u``, element-wise.

    Right tails are reflected into left tails so the CDF differences keep
    precision; if the interval's mass underflows entirely the draw
    collapses to the nearest bound.  A zero uniform draws the interval's
    low end: its lower bound, or with none ``ndtri`` of the smallest
    positive double (about -38.5 standard deviations, clamped to the upper
    bound), where ``ndtri(0)`` would be ``-inf``.  Every operation is
    element-wise, so a draw does not depend on what else is in the block.
    """
    from scipy.special import ndtr, ndtri  # see the module docstring

    a = (lo - mean) / std
    b = (hi - mean) / std
    flip = a > 0  # entire interval right of the mean: work with the mirror image
    a_w = np.where(flip, -b, a)
    b_w = np.where(flip, -a, b)
    Fa = ndtr(a_w)
    Fb = ndtr(b_w)
    mass = Fb - Fa
    with np.errstate(invalid="ignore"):
        z = ndtri(Fa + u * mass)
    # Degenerate mass: clamp to the nearer endpoint of the working interval.
    bad = ~np.isfinite(z) | (mass <= 0)
    if np.any(bad):
        low = np.where((u == 0.0) & ~flip & (mass > 0), ndtri(_TINY), b_w)
        z = np.where(bad, np.where(np.isfinite(a_w), a_w, low), z)
    z = np.clip(z, a_w, b_w)
    z = np.where(flip, -z, z)
    # clamp in value space too: un-standardising can slip a ulp outside the
    # interval, which matters when lo == hi encodes an equality pin
    return np.clip(mean + std * z, lo, hi)


def _normal_at(u, mean, std) -> np.ndarray:
    """N(mean, std²) at the uniforms ``u``: ``_truncated_normal_at`` with
    no bounds, whose ``ndtr`` calls and clamps change no bit there, with
    the same draw at a zero uniform.  One new array, transformed in place."""
    from scipy.special import ndtri  # see the module docstring

    z = np.maximum(u, _TINY)
    ndtri(z, out=z)
    z *= std
    z += mean
    return z


def truncated_mvn_sample(
    mean: np.ndarray,
    cov: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    rng: np.random.Generator,
    size: int = 1,
) -> np.ndarray:
    """Gibbs sampler for N(mean, cov) restricted to the box [lo, hi].

    Returns an array of shape (size, d).  One chain serves the whole batch:
    after ``GIBBS_BURN_IN`` sweeps, successive returned rows are
    ``GIBBS_THIN`` sweeps apart.  Each coordinate update inverts a
    truncated normal CDF at one uniform; the uniforms come in update order,
    one ``rng.random`` block for the burn-in and one per later row, so a
    call draws ``(GIBBS_BURN_IN + (size - 1) * GIBBS_THIN) * d`` of them
    (none at ``size == 0``).  A single coordinate is drawn exactly.

    An update makes a few scalar calls (a dot product, ``ndtr`` at each
    finite bound and ``ndtri``), so it takes their scalar entry points,
    which return a Python float without a ufunc's or an array method's
    call overhead: BLAS ``ddot`` from ``scipy.linalg.blas`` and
    ``cython_special.ndtr``'s double specialisation and
    ``cython_special.ndtri``, imported here on first use (about 45 ms and
    3 ms to import after ``scipy.special``).  The frozen chain in the
    tests calls ``ndarray.dot`` and the ufuncs instead.  Each entry point
    runs the same routine as its counterpart (numpy's 1-d dot is the same
    OpenBLAS ``ddot`` kernel, a ufunc loop calls the same C function per
    element), and the float operations and their order are unchanged,
    so the draws keep their bits; the tests pin both premises.

    Which update a coordinate takes is decided once per call, by its
    bound shape.  A coordinate with an upper bound only has ``a = -inf``,
    so its update has no ``a``, no mirror image, ``Fa = 0`` and no lower
    clamp.  One with a lower bound only has ``b = inf`` and no upper
    clamp; it keeps the mirrored update (bound right of the conditional
    mean) and the plain one.  Two-sided, free and pinned coordinates take
    the general update.  Each one-sided body is the general one with only
    the operations that the infinite bound fixes taken out, and every
    float operation left keeps its order, so the draws are those of the
    general update; the tests pin each shape.  The new coordinate goes
    into the array that ``ddot`` reads through a ``memoryview``, which
    stores the same double as ``ndarray.__setitem__`` at a fraction of
    its cost.
    """
    from scipy.linalg.blas import ddot  # both: see the docstring
    from scipy.special import cython_special

    ndtr, ndtri = cython_special.ndtr["double"], cython_special.ndtri

    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = mean.shape[0]
    if cov.shape != (d, d) or lo.shape != (d,) or hi.shape != (d,):
        raise ValueError("dimension mismatch")
    if np.any(lo > hi):
        raise InfeasibleError("box has lo > hi")
    if size == 0:
        return np.empty((0, d))
    if d == 1:
        std = math.sqrt(max(cov[0, 0], 1e-300))
        return truncated_normal(mean[0], std, lo[0], hi[0], rng, size=size)[:, None]

    jitter = GP_JITTER * float(np.max(np.diag(cov)))
    prec = np.linalg.inv(cov + jitter * np.eye(d))
    cond_var = 1.0 / np.diag(prec)
    start = np.clip(mean, lo, hi)  # feasible start; clip is a no-op on infinite bounds
    delta = start - mean  # the array each row's dot reads, kept in step with x
    delta_w = memoryview(delta)  # writes the doubles that ddot reads, without ndarray.__setitem__
    x = start.tolist()
    delta_l = delta.tolist()  # Python-float mirror of delta
    # each coordinate's bound shape, decided once: upper only, lower only,
    # or anything else (two-sided, free, pinned), which takes the general update
    UPPER, LOWER, OTHER = 1, 2, 0
    shape = np.where(np.isneginf(lo) & np.isfinite(hi), UPPER,
                     np.where(np.isfinite(lo) & np.isposinf(hi), LOWER, OTHER))
    coords = list(zip(
        range(d), list(prec), mean.tolist(), cond_var.tolist(),
        np.sqrt(cond_var).tolist(), lo.tolist(), hi.tolist(), np.diag(prec).tolist(), shape.tolist(),
    ))
    inf = math.inf
    z_low = ndtri(_TINY)  # a zero uniform's draw with no lower bound

    def sweeps(n):
        # truncated_normal for one coordinate: ndtr(-inf) and ndtr(inf) are
        # exactly 0 and 1, and the clamps are min(max(...)) without the calls.
        # The one-sided bodies are the general one (the last) minus what
        # their infinite bound fixes.
        for u, (j, prec_j, m_j, var_j, std_j, lo_j, hi_j, p_jj, s) in zip(
            rng.random(n * d).tolist(), coords * n
        ):
            mu = m_j - var_j * (ddot(prec_j, delta) - p_jj * delta_l[j])
            if s == UPPER:
                b = (hi_j - mu) / std_j
                mass = ndtr(b)
                p = u * mass  # Fa + u * mass with Fa = 0
                # p == 0: a zero uniform's low end, or no mass, or p underflowed
                z = ndtri(p) if p > 0.0 else z_low if u == 0.0 and mass > 0.0 else b
                z = b if b < z else z
                v = mu + std_j * z
                v = hi_j if hi_j < v else v
            elif s == LOWER:
                a = (lo_j - mu) / std_j
                if a > 0.0:  # mirrored: the upper-only body on [-inf, -a]
                    b = -a
                    p = u * ndtr(b)
                    z = ndtri(p) if p > 0.0 else b
                    z = b if b < z else z
                    v = mu + std_j * -z
                else:  # a <= 0 leaves at least half the mass; ndtri is inf only at Fa + u * mass == 1
                    Fa = ndtr(a)
                    z = ndtri(Fa + u * (1.0 - Fa))
                    z = a if a > z or z == inf else z
                    v = mu + std_j * z
                v = lo_j if lo_j > v else v
            else:
                a = (lo_j - mu) / std_j
                b = (hi_j - mu) / std_j
                flip = a > 0.0  # work on the left tail, where CDF differences keep precision
                if flip:
                    a, b = -b, -a
                Fa = 0.0 if a == -inf else ndtr(a)
                mass = (1.0 if b == inf else ndtr(b)) - Fa
                z = ndtri(Fa + u * mass) if mass > 0.0 else inf
                if not math.isfinite(z):  # no mass, or ndtri saturated: take the finite bound
                    z = a if math.isfinite(a) else z_low if u == 0.0 and not flip and mass > 0.0 else b
                z = a if a > z else z
                z = b if b < z else z
                v = mu + std_j * (-z if flip else z)
                v = lo_j if lo_j > v else v
                v = hi_j if hi_j < v else v
            x[j] = v
            delta_w[j] = delta_l[j] = v - m_j

    sweeps(GIBBS_BURN_IN)
    out = np.empty((size, d))
    out[0] = x
    for i in range(1, size):
        sweeps(GIBBS_THIN)
        out[i] = x
    return out


# ---------------------------------------------------------------------------
# Trace sampling: draw the random numbers, then build the traces


@dataclass(frozen=True)
class TraceDraw:
    """The random numbers of one batch of ``size`` traces under ``constraints``.

    ``numbers`` holds one entry per group of ``model._groups``, what
    ``build_traces`` turns into the group's blocks: the ``(channels, size,
    m)`` uniforms of a categorical channel or of a run of normal channels,
    and for a GP channel ``(conditioned, block)``.  An unconstrained GP
    channel's block is its ``(size, m)`` standard normals; a channel with
    equality or box steps is sampled as it is drawn (``_conditioned_gp``),
    and its block holds its ``(size, m)`` values: a draw waiting for its
    build would otherwise hold its chain's ``(GIBBS_BURN_IN + (size - 1)
    * GIBBS_THIN) * |box|`` uniforms, far more numbers than its values.
    """

    constraints: ConstraintSet | None
    size: int
    numbers: list = field(repr=False)


def _gp_steps(cs: ConstraintSet | None, name: str):
    """``(lo, hi, eq, box, free)`` of a GP channel: its bounds and the
    indices of its equality, box and free steps, which partition the
    horizon; None when no step is an equality or box step."""
    if cs is None:
        return None
    lo, hi = cs.lower[name], cs.upper[name]
    eq = np.isfinite(lo) & (lo == hi)
    box = (np.isfinite(lo) | np.isfinite(hi)) & ~eq
    if not (eq.any() or box.any()):
        return None
    return lo, hi, np.flatnonzero(eq), np.flatnonzero(box), np.flatnonzero(~eq & ~box)


def draw_traces(
    model: DisturbanceModel,
    m: int,
    dt: float,
    constraints: ConstraintSet | None = None,
    *,
    rng: np.random.Generator,
    size: int = 1,
) -> TraceDraw:
    """The random numbers of a batch of ``size`` traces, in stream order.

    How many numbers each channel takes depends only on ``constraints``'
    equality, box and free steps, never on a drawn value.
    """
    numbers = []
    for group in model._groups:
        cm = model.models[group[0].name]
        if not isinstance(cm, GaussianProcess):
            numbers.append(rng.random((len(group), size, m)))
        elif (steps := _gp_steps(constraints, group[0].name)) is None:
            numbers.append((False, rng.standard_normal((size, m))))
        else:
            numbers.append((True, _conditioned_gp(cm, m, dt, steps, rng, size)))
    return TraceDraw(constraints, size, numbers)


def build_traces(model: DisturbanceModel, m: int, dt: float, draws: list[TraceDraw]) -> TraceBatch:
    """The traces of one or more ``draws`` of ``model``, ``m`` and ``dt``,
    all of one size, in order, as one batch.

    Each group of channels is built for every draw at once: one
    inverse-CDF pass per categorical channel or run of normal channels,
    over a ``(draws, size, m)`` block of uniforms against each draw's
    mask or bounds, and one ``(draws, size, m)`` product with the
    kernel's factor for the unconstrained GP draws.
    """
    size = draws[0].size
    if any(draw.size != size for draw in draws):
        raise ValueError("draws differ in size")
    blocks = {}
    for group, numbers in zip(model._groups, zip(*(draw.numbers for draw in draws))):
        cm = model.models[group[0].name]
        names = [ch.name for ch in group]
        if isinstance(cm, GaussianProcess):
            values = _build_gp(cm, m, dt, numbers)[None]
        elif isinstance(cm, Categorical):
            values = _build_categorical(group[0], cm, m, draws, np.stack(numbers)[:, 0])[None]
        else:
            values = _build_normals(names, model, m, draws, np.stack(numbers, axis=1))
        blocks.update(zip(names, values.reshape(len(names), len(draws) * size, m)))
    return TraceBatch(dt=dt, channels=model.channels, blocks=blocks)


def _build_normals(names, model: DisturbanceModel, m, draws, u) -> np.ndarray:
    """(len(names), draws, size, m) values of a run of normal channels at
    their uniforms ``u``; each draw's bounds apply to all its traces.

    Every step is inverted as an unbounded normal (``_normal_at``), and
    the steps that a draw's constraint set bounds are inverted again,
    gathered as one ``(steps, size)`` block, through
    ``_truncated_normal_at`` against their bounds.  Both are element-wise,
    so each value is the one drawing its batch alone gives.
    """
    mean = np.array([model.models[name].mean for name in names])[:, None, None, None]
    std = np.array([model.models[name].std for name in names])[:, None, None, None]
    out = _normal_at(u, mean, std)
    if any(draw.constraints is not None for draw in draws):
        lo = np.full((len(names), len(draws), m), -np.inf)
        hi = np.full((len(names), len(draws), m), np.inf)
        for i, draw in enumerate(draws):
            if (cs := draw.constraints) is not None:
                for c, name in enumerate(names):
                    lo[c, i], hi[c, i] = cs.lower[name], cs.upper[name]
        bounded = np.nonzero(np.isfinite(lo) | np.isfinite(hi))  # (channel, draw, step) of each
        if bounded[0].size:
            c, i, k = bounded
            out[c, i, :, k] = _truncated_normal_at(
                u[c, i, :, k], mean[c, 0, 0], std[c, 0, 0], lo[bounded][:, None], hi[bounded][:, None])
    return out


def _build_categorical(ch, model: Categorical, m, draws, u) -> np.ndarray:
    """(draws, size, m) symbol indices, each step by inverse CDF at its uniform in ``u``.

    Unconstrained steps use the model's probabilities; constrained steps
    renormalize them over the allowed mask, or fall back to uniform over
    the mask when every allowed symbol has zero model mass.  The
    arithmetic is that of ``Generator.choice(k, p=p)`` step by step, so
    the draws equal a per-step ``rng.choice`` loop.
    """
    base = np.array([model.prob(s) for s in ch.symbols])
    everything = np.ones((m, base.size), dtype=bool)
    mask = np.concatenate([everything if draw.constraints is None else draw.constraints.allowed[ch.name]
                           for draw in draws])  # (draws * m, k)
    p = np.tile(base / base.sum(), (mask.shape[0], 1))
    rows = ~mask.all(axis=1)
    if rows.any():
        sub = mask[rows]
        weights = base * sub
        total = weights.sum(axis=1, keepdims=True)
        fallback = sub / sub.sum(axis=1, keepdims=True)
        p[rows] = np.divide(weights, total, out=fallback, where=total > 0)
    cdf = p.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf.reshape(len(draws), 1, m, -1) <= u[..., None]).sum(axis=3)


def _build_gp(model: GaussianProcess, m, dt, numbers) -> np.ndarray:
    """(draws, size, m) values of one GP channel from each draw's ``(conditioned, block)``."""
    out = np.stack([block for _, block in numbers])
    free = [i for i, (conditioned, _) in enumerate(numbers) if not conditioned]
    if free:
        # (draws, size, m) @ L.T runs each draw's own (size, m) gemm, or one
        # gemv per row at size 1: one (n, m) gemm would move the last bits
        out[free] = out[free] @ _kernel_and_chol(model.variance, model.lengthscale, m, dt)[1].T
    return out


def _gp_posterior(K, obs_idx, obs_val, jit):
    """Mean and covariance of the GP at all steps given exact observations,
    with ``jit`` added to the observed block's diagonal.  Do not mutate."""
    if obs_idx.size == 0:
        return np.zeros(K.shape[0]), K
    Kxo = K[:, obs_idx]
    L = np.linalg.cholesky(K[np.ix_(obs_idx, obs_idx)] + jit * np.eye(obs_idx.size))
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, obs_val))
    V = np.linalg.solve(L, Kxo.T)
    return Kxo @ alpha, K - V.T @ V


def _conditioned_gp(model: GaussianProcess, m, dt, steps, rng, size) -> np.ndarray:
    """(size, m) values of a GP channel with equality or box steps.

    Equality, box and free steps partition the horizon, and each kind
    fills its own columns: the pins, the Gibbs chain, and then the
    conditional posterior at ``(size, |F|)`` standard normals.
    """
    K = _kernel_and_chol(model.variance, model.lengthscale, m, dt)[0]
    jit = GP_JITTER * model.variance  # the SE kernel's diagonal is the variance
    lo, hi, obs_idx, c_idx, f_idx = steps
    mean, cov = _gp_posterior(K, obs_idx, lo[obs_idx], jit)
    out = np.empty((size, m))
    if c_idx.size:
        Ccc = cov[np.ix_(c_idx, c_idx)]
        xc = truncated_mvn_sample(mean[c_idx], Ccc, lo[c_idx], hi[c_idx], rng, size=size)
        out[:, c_idx] = xc
        if f_idx.size:
            Cfc = cov[np.ix_(f_idx, c_idx)]
            Cff = cov[np.ix_(f_idx, f_idx)]
            Lc = np.linalg.cholesky(Ccc + jit * np.eye(c_idx.size))
            W = np.linalg.solve(Lc, Cfc.T)  # (|C|, |F|)
            cond_cov = Cff - W.T @ W
            Lf = np.linalg.cholesky(cond_cov + jit * np.eye(f_idx.size))
            # stacked right-hand sides, not a (k, size) matrix: a matrix
            # solve or a gemm would move the last bits of every trace
            u = np.linalg.solve(Lc.T, np.linalg.solve(Lc, (xc - mean[c_idx])[:, :, None]))
            mu_f = mean[f_idx] + (Cfc @ u)[:, :, 0]
            z = rng.standard_normal((size, f_idx.size))
            out[:, f_idx] = mu_f + (Lf @ z[:, :, None])[:, :, 0]
    elif f_idx.size:
        Lf = np.linalg.cholesky(cov[np.ix_(f_idx, f_idx)] + jit * np.eye(f_idx.size))
        out[:, f_idx] = mean[f_idx] + rng.standard_normal((size, f_idx.size)) @ Lf.T
    out[:, obs_idx] = lo[obs_idx]
    return out


def sample_traces(
    model: DisturbanceModel,
    m: int,
    dt: float,
    constraints: ConstraintSet | None = None,
    *,
    rng: np.random.Generator,
    size: int = 1,
) -> TraceBatch:
    """Draw a batch of ``size`` traces, every one satisfying ``constraints``
    if given: the build of one draw."""
    return build_traces(model, m, dt, [draw_traces(model, m, dt, constraints, rng=rng, size=size)])


def sample_trace(
    model: DisturbanceModel,
    m: int,
    dt: float,
    constraints: ConstraintSet | None = None,
    *,
    rng: np.random.Generator,
) -> SignalTrace:
    return sample_traces(model, m, dt, constraints, rng=rng, size=1)[0]


# ---------------------------------------------------------------------------
# Likelihood


def log_likelihoods(model: DisturbanceModel, batch: TraceBatch) -> np.ndarray:
    """Log density of each trace of ``batch`` under the unconstrained
    model, as an array.

    Channels are independent, so contributions add, in channel order.  A
    categorical symbol of zero model probability gives -inf rather than an
    error.  The batch must be on the model's channels.  Each GP channel is
    one stacked solve and one ``np.vecdot``, each normal channel one row
    sum, and each categorical channel one row-wise ``np.cumsum`` started
    from the total so far, so every row takes the float operations of
    scoring its trace alone.
    """
    if len(batch) == 0:
        return np.empty(0)
    if batch.channels != model.channels:
        raise ValueError("batch channels do not match the model")
    total = np.zeros(len(batch))
    impossible = np.zeros(len(batch), dtype=bool)  # -inf even where another channel is nan
    for ch in model.channels:
        cm, v = model.models[ch.name], batch.blocks[ch.name]
        if isinstance(cm, Categorical):
            log_p = np.array([math.log(p) if p > 0.0 else -math.inf for p in map(cm.prob, ch.symbols)])
            steps = log_p[v]
            impossible |= np.isneginf(steps).any(axis=1)
            total = np.cumsum(np.column_stack([total, steps]), axis=1)[:, -1]
        elif isinstance(cm, IndependentNormal):
            z = (v - cm.mean) / cm.std
            total += -0.5 * np.sum(z * z, axis=1) - batch.m * (0.5 * _LOG_2PI + math.log(cm.std))
        else:
            grid = (cm.variance, cm.lengthscale, batch.m, batch.dt)
            w = np.linalg.solve(_kernel_and_chol(*grid)[1], v[:, :, None])[:, :, 0]
            total += -0.5 * np.vecdot(w, w) - _log_det_chol(*grid) - 0.5 * batch.m * _LOG_2PI
    total[impossible] = -np.inf
    return total


def log_likelihood(model: DisturbanceModel, trace: SignalTrace) -> float:
    """Log density of one trace under the unconstrained model
    (``log_likelihoods`` of its one-trace batch on the model's channels)."""
    return float(log_likelihoods(model, TraceBatch.from_traces(model.channels, [trace]))[0])
