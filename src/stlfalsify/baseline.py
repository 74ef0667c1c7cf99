"""The shared rollout loop, the importance-sampling baseline and the
failure metrics.

Search, re-evaluation and the baseline all roll traces through
``rollouts``: one constraint draw per batch (none for the baseline),
sampled traces, record-free scenario rollouts (one per distinct symbol
sequence when the model is discrete), and the log-likelihood of every
failing trace.  Every draw comes from the generator the caller
passes.  The baseline samples the scenario's proposal, the others its
model.  Search scores a formula with one batch of N traces;
re-evaluation and the baseline run one batch per trial, so every
re-evaluated trial gets a fresh constraint draw, and roll their failing
traces once more for the records they return.  Likelihoods are
always scored under the scenario's true disturbance model, never under the
model the traces were drawn from, so optimizer output and the baseline are
directly comparable.  Reports carry:

* fail rate over all trials, with a binomial standard error;
* a likelihood statistic over the failing trajectories only.

With purely discrete disturbances a full-trajectory product shrinks with
the horizon, so the report carries the geometric mean of the per-step
probabilities.  With continuous channels densities are not probabilities
and the report carries trajectory log-likelihoods instead.  The report
names which definition it used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import InfeasibleError, constraints_for
from .samplers import DisturbanceModel, log_likelihood, sample_traces
from .sim import Scenario, SimResult
from .stl import Formula, SignalTrace

__all__ = ["MetricReport", "importance_sample", "evaluate_expression", "rollouts"]

GEOMEAN_STEP_PROB = "geometric_mean_step_probability"
TRAJECTORY_LOGLIK = "trajectory_log_likelihood"


@dataclass(frozen=True)
class MetricReport:
    fail_rate: float
    fail_rate_se: float
    n_trials: int
    n_failures: int
    likelihood: float | None  # None when nothing failed
    likelihood_se: float | None
    likelihood_kind: str
    n_infeasible: int = 0
    infeasible: bool = False  # no trial could be constrained at all


def rollouts(
    scenario: Scenario,
    model: DisturbanceModel,
    formula: Formula | None,
    rng: np.random.Generator,
    batches: int,
    size: int,
) -> tuple[list[SignalTrace], list[float], int]:
    """Roll ``batches`` batches of ``size`` traces drawn from ``model``.

    Each batch makes one constraint draw for ``formula`` (none when it is
    None) and draws its traces under it.  A batch whose draw stays
    infeasible through the retry budget rolls nothing and adds ``size`` to
    the infeasible count.  Returns the failing traces, their
    log-likelihoods under ``scenario.model`` and the infeasible count.

    Rollouts and likelihoods draw no random numbers, so a trace's outcome
    depends on its values alone.  When ``scenario.model`` is discrete,
    each distinct symbol sequence is rolled and scored once per call, and
    every repeat of it reuses that outcome.
    """
    if batches * size < 1:
        raise ValueError("trials must be at least 1")
    m, dt = scenario.horizon, scenario.dt
    known = {} if scenario.model.discrete else None  # symbol sequence -> outcome
    fails, lls, n_infeasible = [], [], 0
    for _ in range(batches):
        try:
            cs = None if formula is None else constraints_for(formula, scenario.channels, m, rng)
            traces = sample_traces(model, m, dt, cs, rng=rng, size=size)
        except InfeasibleError:
            n_infeasible += size
            continue
        for trace in traces:
            if known is None:
                ll = _outcome(scenario, trace)
            else:
                key = tuple([tuple(col.tolist()) for col in trace.values.values()])
                if key not in known:
                    known[key] = _outcome(scenario, trace)
                ll = known[key]
            if ll is not None:
                fails.append(trace)
                lls.append(ll)
    return fails, lls, n_infeasible


def _outcome(scenario: Scenario, trace: SignalTrace) -> float | None:
    """The log-likelihood of a failing trace under ``scenario.model``, or
    None when the trace does not fail."""
    if scenario.fail_step(trace) is None:
        return None
    return log_likelihood(scenario.model, trace)


def _trial_batch(
    scenario: Scenario,
    model: DisturbanceModel,
    formula: Formula | None,
    trials: int,
    rng: np.random.Generator,
) -> tuple[MetricReport, list[SimResult]]:
    """One batch of one trace per trial, drawn from ``model`` under fresh
    constraints for ``formula``: the report, and the failing trials rolled
    again for their records."""
    fails, lls, n_infeasible = rollouts(scenario, model, formula, rng, batches=trials, size=1)
    discrete = scenario.model.discrete
    vals = [math.exp(ll / scenario.horizon) for ll in lls] if discrete else lls
    rate = len(lls) / trials
    likelihood = likelihood_se = None
    if vals:
        likelihood = float(np.mean(vals))
        likelihood_se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    report = MetricReport(
        fail_rate=rate,
        fail_rate_se=math.sqrt(rate * (1.0 - rate) / trials),
        n_trials=trials,
        n_failures=len(lls),
        likelihood=likelihood,
        likelihood_se=likelihood_se,
        likelihood_kind=GEOMEAN_STEP_PROB if discrete else TRAJECTORY_LOGLIK,
        n_infeasible=n_infeasible,
        infeasible=n_infeasible >= trials,
    )
    return report, [scenario.run(t) for t in fails]


def importance_sample(
    scenario: Scenario,
    trials: int,
    rng: np.random.Generator,
) -> tuple[MetricReport, list[SimResult]]:
    """Sample unconstrained traces from ``scenario.proposal``, keep the
    failures.

    The fail rate is the raw fraction of proposal trials that failed; the
    likelihood statistic re-scores those failures under the true model.
    Each trial is its own batch of one trace, drawn with ``rng``.
    """
    return _trial_batch(scenario, scenario.proposal, None, trials, rng)


def evaluate_expression(
    formula: Formula,
    scenario: Scenario,
    trials: int,
    rng: np.random.Generator,
) -> tuple[MetricReport, list[SimResult]]:
    """Re-evaluate a formula: fresh constraints per trial, one conforming
    trace each drawn with ``rng``, scenario rollout, failure metrics.

    Trials whose constraint draw stays infeasible through the retry budget
    are counted but produce no trace; if every trial is infeasible the
    report says so and the fail rate is 0.
    """
    return _trial_batch(scenario, scenario.model, formula, trials, rng)
