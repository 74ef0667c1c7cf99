"""Checks on the program's outputs, each computed apart from the code it checks.

Every check returns a list of problems; an empty list means it passed.  The
checks re-derive what they test with their own arithmetic: formula truth
by a separate numpy evaluator, likelihoods with scipy's densities and the
model's probability table, collisions from the recorded poses with a
corner-based box test, and the constrained GP mean from a rejection oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

import stlfalsify as sf
from stlfalsify.samplers import GP_JITTER

CAR_DIMS = (4.5, 2.0)  # length, width in metres
PED_DIMS = (0.6, 0.6)
ONCOMING_HEADING = -math.pi / 2  # the left-turn oncoming car drives south
PEDESTRIAN_HEADING = math.pi / 2  # the pedestrian crosses north
CLAIM_Z = 3.0  # standard errors by which the search must beat the baseline
ORACLE_Z = 5.0  # standard errors a sampler batch may sit from the oracle

# ---------------------------------------------------------------------------
# Formula truth


def _is_scalar(f) -> bool:
    if isinstance(f, (sf.Always, sf.Eventually)):
        return True
    if isinstance(f, sf.Cmp):
        return False
    return _is_scalar(f.arg if isinstance(f, sf.Not) else f.lhs)


def _series(f, v: dict) -> np.ndarray:
    if isinstance(f, sf.Cmp):
        x = v[f.channel]
        if f.op == "<=":
            return np.asarray(x <= f.value, dtype=bool)
        if f.op == ">=":
            return np.asarray(x >= f.value, dtype=bool)
        return np.asarray(x == f.value, dtype=bool)
    if isinstance(f, sf.Not):
        return ~_series(f.arg, v)
    if isinstance(f, sf.And):
        return _series(f.lhs, v) & _series(f.rhs, v)
    return _series(f.lhs, v) | _series(f.rhs, v)


def _scalar(f, v: dict) -> bool:
    if isinstance(f, (sf.Always, sf.Eventually)):
        window = _series(f.arg, v)[f.interval.lo : f.interval.hi + 1]
        return bool(window.all() if isinstance(f, sf.Always) else window.any())
    if isinstance(f, sf.Not):
        return not _scalar(f.arg, v)
    if isinstance(f, sf.And):
        return _scalar(f.lhs, v) and _scalar(f.rhs, v)
    return _scalar(f.lhs, v) or _scalar(f.rhs, v)


def holds(formula, values: dict) -> bool:
    """Truth of ``formula`` on channel arrays; a series root holds at every step."""
    if _is_scalar(formula):
        return _scalar(formula, values)
    return bool(_series(formula, values).all())


def traces_satisfy(fails, predicate, label: str) -> list[str]:
    bad = sum(not predicate(res.trace.values) for res in fails)
    return [f"{label}: {bad} of {len(fails)} returned traces break the formula"] if bad else []


# ---------------------------------------------------------------------------
# Likelihoods


def se_cov(m: int, dt: float, variance: float, lengthscale: float) -> np.ndarray:
    """Squared-exponential covariance on the step grid, with the model's jitter."""
    t = np.arange(m) * dt
    k = variance * np.exp(-np.subtract.outer(t, t) ** 2 / (2.0 * lengthscale**2))
    return k + GP_JITTER * variance * np.eye(m)


def trajectory_logliks(model, traces) -> np.ndarray:
    """Log density of each trace under ``model``, channel by channel."""
    if not traces:
        return np.zeros(0)
    m, dt = traces[0].m, traces[0].dt
    total = np.zeros(len(traces))
    for ch in model.channels:
        cm = model.models[ch.name]
        if isinstance(cm, sf.Categorical):
            logp = {s: math.log(p) if p > 0 else -math.inf for s, p in cm.probs}
            total += [sum(logp.get(ch.resolve(s), -math.inf) for s in t.values[ch.name]) for t in traces]
            continue
        x = np.stack([np.asarray(t.values[ch.name], dtype=float) for t in traces])
        if isinstance(cm, sf.GaussianProcess):
            cov = se_cov(m, dt, cm.variance, cm.lengthscale)
            total += np.atleast_1d(stats.multivariate_normal(np.zeros(m), cov).logpdf(x))
        elif isinstance(cm, sf.IndependentNormal):
            total += stats.norm(cm.mean, math.sqrt(cm.variance)).logpdf(x).sum(axis=1)
        else:
            raise TypeError(f"no reference density for {type(cm).__name__}")
    return total


def failure_stats(fails, model, trials: int) -> tuple[float, float, float | None, float | None]:
    """Fail rate, its binomial se, and the likelihood statistic with its se.

    With only categorical channels the statistic is the geometric mean step
    probability of each failing trace, otherwise its log-likelihood.
    """
    n = len(fails)
    rate = n / trials
    rate_se = math.sqrt(rate * (1.0 - rate) / trials)
    if n == 0:
        return rate, rate_se, None, None
    ll = trajectory_logliks(model, [res.trace for res in fails])
    if all(isinstance(cm, sf.Categorical) for cm in model.models.values()):
        vals = np.exp(ll / fails[0].trace.m)
    else:
        vals = ll
    se = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return rate, rate_se, float(np.mean(vals)), se


def report_matches(report, fails, model, trials: int, label: str) -> list[str]:
    """Counts and the likelihood statistic, recomputed from the failing traces."""
    problems = []
    n = len(fails)
    if report.n_trials != trials or report.n_failures != n or report.fail_rate != n / trials:
        problems.append(f"{label}: counts {report.n_trials}/{report.n_failures}/{report.fail_rate} "
                        f"disagree with {trials} trials and {n} returned failures")
    if not all(res.failure for res in fails):
        problems.append(f"{label}: a returned rollout is not a failure")
    _, _, want, want_se = failure_stats(fails, model, trials)
    if want is None:
        if report.likelihood is not None:
            problems.append(f"{label}: likelihood reported without failures")
    elif report.likelihood is None or not math.isclose(report.likelihood, want, rel_tol=1e-6, abs_tol=1e-6):
        problems.append(f"{label}: likelihood {report.likelihood} but failing traces give {want}")
    elif not math.isclose(report.likelihood_se, want_se, rel_tol=1e-4, abs_tol=1e-6):
        problems.append(f"{label}: likelihood se {report.likelihood_se} but failing traces give {want_se}")
    return problems


# ---------------------------------------------------------------------------
# Collisions


def _aabb_half(heading: float, dims) -> tuple[float, float]:
    """Half extents of a rotated box's axis-aligned hull, from its corners."""
    c, s = math.cos(heading), math.sin(heading)
    xs, ys = [], []
    for dx in (-dims[0] / 2, dims[0] / 2):
        for dy in (-dims[1] / 2, dims[1] / 2):
            xs.append(c * dx - s * dy)
            ys.append(s * dx + c * dy)
    return max(xs), max(ys)


def record_collides(rec: dict) -> bool:
    """Closed overlap test between the ego and the other agent of one record."""
    ego = (rec["ego_x"], rec["ego_y"], rec.get("ego_heading", 0.0), CAR_DIMS)
    if "adv_x" in rec:
        other = (rec["adv_x"], rec["adv_y"], ONCOMING_HEADING, CAR_DIMS)
    else:
        other = (rec["ped_x"], rec["ped_y"], PEDESTRIAN_HEADING, PED_DIMS)
    hx_a, hy_a = _aabb_half(ego[2], ego[3])
    hx_b, hy_b = _aabb_half(other[2], other[3])
    return abs(ego[0] - other[0]) <= hx_a + hx_b and abs(ego[1] - other[1]) <= hy_a + hy_b


def collisions_rederived(fails, label: str) -> list[str]:
    """Each failing rollout collides at its last record and not before."""
    bad = 0
    for res in fails:
        hits = [record_collides(rec) for rec in res.records]
        if not hits or not hits[-1] or any(hits[:-1]) or res.fail_step != len(res.records):
            bad += 1
    return [f"{label}: {bad} of {len(fails)} failing rollouts do not collide where recorded"] if bad else []


# ---------------------------------------------------------------------------
# Search


def search_consistent(best, history, config, lookups: int, scored: int) -> list[str]:
    """Properties every search must have, whatever formulas it finds."""
    problems = []
    if len(history) != config.generations:
        problems.append(f"search: {len(history)} history rows for {config.generations} generations")
    so_far = [row["best_so_far_cost"] for row in history]
    if any(b > a for a, b in zip(so_far, so_far[1:])):
        problems.append(f"search: best_so_far_cost rose: {so_far}")
    if lookups != config.population * config.generations:
        problems.append(f"search: {lookups} cache lookups, expected population x generations "
                        f"= {config.population * config.generations}")
    if not 0 < scored <= lookups:
        problems.append(f"search: {scored} formulas scored for {lookups} lookups")
    if so_far and (best.cost != so_far[-1] or best.cost != min(r["best_cost"] for r in history)):
        problems.append(f"search: best cost {best.cost} is not the history's best {so_far[-1]}")
    return problems


def claim_holds(best, baseline) -> list[str]:
    """The searched formula fails more often and more likely than the baseline.

    Both arguments are ``failure_stats`` tuples; each gap must exceed
    CLAIM_Z combined standard errors.
    """
    problems = []
    (rate, rate_se, lik, lik_se), (is_rate, is_rate_se, is_lik, is_lik_se) = best, baseline
    se = math.hypot(rate_se, is_rate_se)
    if not rate - is_rate > CLAIM_Z * se:
        problems.append(f"claim: fail rate {rate:.4f} vs baseline {is_rate:.4f} "
                        f"is not {CLAIM_Z} se ({se:.4f}) better")
    if lik is None:
        problems.append("claim: the searched formula produced no failures")
    elif is_lik is not None:
        se = math.hypot(lik_se, is_lik_se)
        if not lik - is_lik > CLAIM_Z * se:
            problems.append(f"claim: likelihood {lik:.6g} vs baseline {is_lik:.6g} "
                            f"is not {CLAIM_Z} se ({se:.4g}) better")
    return problems


# ---------------------------------------------------------------------------
# Constrained GP oracle


def rejection_oracle(variance, lengthscale, dt, steps: int, bound: float, draws: int, rng):
    """Mean and standard error of the per-trace mean of a zero-mean SE GP
    over ``steps`` consecutive steps, conditioned on every step <= bound."""
    t = np.arange(steps) * dt
    k = variance * np.exp(-np.subtract.outer(t, t) ** 2 / (2.0 * lengthscale**2))
    chol = np.linalg.cholesky(k)
    accepted = []
    chunk = 50_000
    for start in range(0, draws, chunk):
        x = rng.standard_normal((min(chunk, draws - start), steps)) @ chol.T
        accepted.append(x[(x <= bound).all(axis=1)].mean(axis=1))
    means = np.concatenate(accepted)
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(means.size))


def oracle_gap(step_means: np.ndarray, oracle_mean: float, oracle_se: float) -> float:
    """Distance of a batch's mean from the oracle, in combined standard errors."""
    se = math.hypot(step_means.std(ddof=1) / math.sqrt(step_means.size), oracle_se)
    return abs(step_means.mean() - oracle_mean) / se if se > 0 else math.inf
