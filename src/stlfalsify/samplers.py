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

Random stream: channels draw in ``model.channels`` order.  A categorical
channel consumes exactly one uniform per step, for the whole batch at once
in trace-major order (one ``rng.random((size, m))`` call), and maps it
through the step's CDF with the arithmetic of ``Generator.choice``; the
draws are those of a per-step ``rng.choice`` loop over traces and steps.
The Gibbs chain consumes one uniform per coordinate update, drawn in
blocks in update order (see ``truncated_mvn_sample``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .constraints import ConstraintSet, InfeasibleError
from .stl import CategoricalChannel, ChannelSpec, SignalTrace

__all__ = [
    "Categorical",
    "IndependentNormal",
    "GaussianProcess",
    "DisturbanceModel",
    "se_kernel",
    "truncated_normal",
    "truncated_mvn_sample",
    "sample_trace",
    "sample_traces",
    "log_likelihood",
]

_LOG_2PI = math.log(2.0 * math.pi)
GP_JITTER = 1e-8
GIBBS_BURN_IN = 200  # sweeps before the first returned row
GIBBS_THIN = 5  # sweeps between returned rows


@dataclass(frozen=True)
class Categorical:
    """Per-step distribution over a categorical channel's symbols."""

    probs: tuple[tuple[str, float], ...]

    def __init__(self, probs):
        items = tuple(sorted(dict(probs).items()))
        object.__setattr__(self, "probs", items)
        total = sum(p for _, p in items)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for _, p in items):
            raise ValueError("negative probability")

    def prob(self, symbol: str) -> float:
        return dict(self.probs).get(symbol, 0.0)


@dataclass(frozen=True)
class IndependentNormal:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class GaussianProcess:
    """Zero-mean GP with squared-exponential kernel over step times."""

    variance: float
    lengthscale: float  # seconds

    def __post_init__(self):
        if self.variance <= 0 or self.lengthscale <= 0:
            raise ValueError("variance and lengthscale must be positive")


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


# ---------------------------------------------------------------------------
# Truncated normals


def truncated_normal(mean, std, lo, hi, rng: np.random.Generator, size=None):
    """Draw from N(mean, std²) conditioned on [lo, hi], element-wise.

    Inverse-CDF construction.  Right tails are reflected into left tails so
    the CDF differences keep precision; if the interval's mass underflows
    entirely the draw collapses to the nearest bound.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a = (lo - mean) / std
    b = (hi - mean) / std
    shape = np.broadcast_shapes(a.shape, b.shape, () if size is None else tuple(np.atleast_1d(size)))
    if size is not None:
        a = np.broadcast_to(a, shape).copy()
        b = np.broadcast_to(b, shape).copy()
    flip = a > 0  # entire interval right of the mean: work with the mirror image
    a_w = np.where(flip, -b, a)
    b_w = np.where(flip, -a, b)
    Fa = ndtr(a_w)
    Fb = ndtr(b_w)
    u = rng.uniform(size=a_w.shape)
    mass = Fb - Fa
    with np.errstate(invalid="ignore"):
        z = ndtri(Fa + u * mass)
    # Degenerate mass: clamp to the nearer endpoint of the working interval.
    bad = ~np.isfinite(z) | (mass <= 0)
    if np.any(bad):
        z = np.where(bad, np.where(np.isfinite(a_w), a_w, b_w), z)
    z = np.clip(z, a_w, b_w)
    z = np.where(flip, -z, z)
    # clamp in value space too: un-standardising can slip a ulp outside the
    # interval, which matters when lo == hi encodes an equality pin
    out = np.clip(mean + std * z, lo, hi)
    return float(out) if out.ndim == 0 else out


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
    """
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
    x = start.tolist()
    delta_l = delta.tolist()  # Python-float mirror of delta
    coords = list(zip(
        range(d), [prec[j].dot for j in range(d)], mean.tolist(), cond_var.tolist(),
        np.sqrt(cond_var).tolist(), lo.tolist(), hi.tolist(), np.diag(prec).tolist(),
    ))
    inf = math.inf

    def sweeps(n):
        # truncated_normal for one coordinate: ndtr(-inf) and ndtr(inf) are
        # exactly 0 and 1, and the clamps are min(max(...)) without the calls.
        for u, (j, dot, m_j, var_j, std_j, lo_j, hi_j, p_jj) in zip(
            rng.random(n * d).tolist(), coords * n
        ):
            mu = m_j - var_j * (float(dot(delta)) - p_jj * delta_l[j])
            a = (lo_j - mu) / std_j
            b = (hi_j - mu) / std_j
            flip = a > 0.0  # work on the left tail, where CDF differences keep precision
            if flip:
                a, b = -b, -a
            Fa = 0.0 if a == -inf else float(ndtr(a))
            mass = (1.0 if b == inf else float(ndtr(b))) - Fa
            z = float(ndtri(Fa + u * mass)) if mass > 0.0 else inf
            if not math.isfinite(z):  # no mass, or ndtri saturated: take the finite bound
                z = a if math.isfinite(a) else b
            z = a if a > z else z
            z = b if b < z else z
            v = mu + std_j * (-z if flip else z)
            v = lo_j if lo_j > v else v
            v = hi_j if hi_j < v else v
            x[j] = v
            delta[j] = delta_l[j] = v - m_j

    sweeps(GIBBS_BURN_IN)
    out = np.empty((size, d))
    out[0] = x
    for i in range(1, size):
        sweeps(GIBBS_THIN)
        out[i] = x
    return out


# ---------------------------------------------------------------------------
# Trace sampling


def _bounds_for(cs: ConstraintSet | None, name: str, m: int):
    if cs is None or name not in cs.lower:
        return np.full(m, -np.inf), np.full(m, np.inf)
    return cs.lower[name], cs.upper[name]


def _sample_categorical(ch, model: Categorical, m, cs, rng, size) -> np.ndarray:
    """(size, m) symbols, each step drawn by inverse CDF from one uniform.

    Unconstrained steps use the model's probabilities; constrained steps
    renormalize them over the allowed mask, or fall back to uniform over
    the mask when every allowed symbol has zero model mass.  The uniforms
    come from a single ``rng.random((size, m))`` call, trace-major, and the
    arithmetic is that of ``Generator.choice(k, p=p)`` step by step, so the
    draws equal a per-step ``rng.choice`` loop.
    """
    symbols = np.array(ch.symbols, dtype=object)
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
    u = rng.random((size, m))
    idx = (cdf <= u[:, :, None]).sum(axis=2)
    return symbols[idx]


def _gp_posterior(K, obs_idx, obs_val):
    """Mean and covariance of the GP at all steps given exact observations."""
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


def _sample_gp(ch, model: GaussianProcess, m, dt, cs, rng, size):
    K, L_full = _kernel_and_chol(model.variance, model.lengthscale, m, dt)
    lo, hi = _bounds_for(cs, ch.name, m)
    eq = np.isfinite(lo) & (lo == hi)
    box = (np.isfinite(lo) | np.isfinite(hi)) & ~eq
    obs_idx = np.flatnonzero(eq)
    mean, cov = _gp_posterior(K, obs_idx, lo[obs_idx])

    out = np.tile(mean, (size, 1))
    c_idx = np.flatnonzero(box)
    f_idx = np.flatnonzero(~eq & ~box)
    if c_idx.size:
        xc = truncated_mvn_sample(
            mean[c_idx], cov[np.ix_(c_idx, c_idx)], lo[c_idx], hi[c_idx], rng, size=size
        )
        out[:, c_idx] = xc
        if f_idx.size:
            Ccc = cov[np.ix_(c_idx, c_idx)]
            Cfc = cov[np.ix_(f_idx, c_idx)]
            Cff = cov[np.ix_(f_idx, f_idx)]
            jit = GP_JITTER * model.variance
            Lc = np.linalg.cholesky(Ccc + jit * np.eye(c_idx.size))
            W = np.linalg.solve(Lc, Cfc.T)  # (|C|, |F|)
            cond_cov = Cff - W.T @ W
            Lf = np.linalg.cholesky(cond_cov + jit * np.eye(f_idx.size))
            for i in range(size):
                u = np.linalg.solve(Lc.T, np.linalg.solve(Lc, xc[i] - mean[c_idx]))
                mu_f = mean[f_idx] + Cfc @ u
                out[i, f_idx] = mu_f + Lf @ rng.standard_normal(f_idx.size)
    elif f_idx.size:
        if obs_idx.size:
            jit = GP_JITTER * model.variance
            Lf = np.linalg.cholesky(cov[np.ix_(f_idx, f_idx)] + jit * np.eye(f_idx.size))
        else:
            Lf = L_full  # unconstrained: reuse the cached factor
        out[:, f_idx] = mean[f_idx] + rng.standard_normal((size, f_idx.size)) @ Lf.T
    if obs_idx.size:
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
) -> list[SignalTrace]:
    """Draw ``size`` traces, every one satisfying ``constraints`` if given."""
    columns: dict[str, list] = {}
    for ch in model.channels:
        cm = model.models[ch.name]
        if isinstance(cm, Categorical):
            columns[ch.name] = list(_sample_categorical(ch, cm, m, constraints, rng, size))
        elif isinstance(cm, IndependentNormal):
            lo, hi = _bounds_for(constraints, ch.name, m)
            vals = truncated_normal(
                cm.mean, cm.std, lo[None, :].repeat(size, 0), hi[None, :].repeat(size, 0), rng
            )
            columns[ch.name] = [vals[i] for i in range(size)]
        else:
            block = _sample_gp(ch, cm, m, dt, constraints, rng, size)
            columns[ch.name] = [block[i] for i in range(size)]
    traces = []
    for i in range(size):
        values = {name: col[i] for name, col in columns.items()}
        traces.append(SignalTrace(dt=dt, channels=model.channels, values=values))
    return traces


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


def log_likelihood(model: DisturbanceModel, trace: SignalTrace) -> float:
    """Log density of ``trace`` under the unconstrained model.

    Channels are independent, so contributions add.  A categorical symbol
    of zero model probability gives -inf rather than an error.
    """
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
            total += float(-0.5 * np.sum(z * z) - m * (0.5 * _LOG_2PI + math.log(cm.std)))
        else:
            _, L = _kernel_and_chol(cm.variance, cm.lengthscale, m, trace.dt)
            v = np.asarray(vals, dtype=float)
            w = np.linalg.solve(L, v)
            total += float(
                -0.5 * np.dot(w, w)
                - np.sum(np.log(np.diag(L)))
                - 0.5 * m * _LOG_2PI
            )
    return total
