"""The shared build-roll-score step, the importance-sampling baseline
and the failure metrics.

Search, re-evaluation and the baseline all roll traces in two steps.
``draw_batch`` makes one constraint draw (none for the baseline) and
draws the random numbers of a batch of traces under it
(``samplers.draw_traces``); every draw comes from the generator the
caller passes.  ``roll_draws`` then takes many drawn batches in stream
order, builds them into one ``stl.TraceBatch`` in one numpy pass per
channel (``samplers.build_traces``), rolls it without records in one
``Scenario.fail_steps`` call (a crosswalk batch of any size in closed
form, a left-turn batch in one lockstep of the oncoming cars from its
config's lane count on and one trace at a time below it), and scores
the failing traces in one ``samplers.log_likelihoods`` call.  Building,
rollouts and likelihoods draw no random numbers, and each trace's fail
step and likelihood do not depend on the rest of its batch, so drawing
batches first and building and rolling them afterwards gives the same
draws and outcomes as sampling and rolling each batch as it is drawn.
The search and the trial batches each draw about ``CHUNK`` traces per
``roll_draws`` call.

The baseline samples the scenario's proposal, the others its model.
Search scores a formula with one batch of N traces and rolls the
batches of many formulas together (``optimize.run``); re-evaluation and
the baseline run one batch per trial, so every re-evaluated trial gets a
fresh constraint draw, and roll their failing traces once more for the
records they return.  Likelihoods are always scored under the scenario's
true disturbance model, never under the model the traces were drawn
from, so optimizer output and the baseline are directly comparable.
Reports carry:

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

from .constraints import DescentPlan, InfeasibleError, constraints_for
from .samplers import DisturbanceModel, TraceDraw, build_traces, draw_traces, log_likelihoods
from .sim import Scenario, SimResult
from .stl import Formula, TraceBatch

__all__ = [
    "MetricReport",
    "importance_sample",
    "evaluate_expression",
    "draw_batch",
    "roll_draws",
]

GEOMEAN_STEP_PROB = "geometric_mean_step_probability"
TRAJECTORY_LOGLIK = "trajectory_log_likelihood"
# Traces drawn before they are rolled together: enough lanes for the
# lockstep to pay, few enough to keep the pending traces small.  On the
# pc1 search 2048 ran no faster and grew peak memory by 9 MB, 1024 by 5.
CHUNK = 1024


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


def draw_batch(
    scenario: Scenario,
    model: DisturbanceModel,
    formula: Formula | DescentPlan | None,
    rng: np.random.Generator,
    size: int,
) -> TraceDraw | None:
    """One batch: a constraint draw for ``formula``, a formula or its
    ``DescentPlan`` for the scenario (no draw when it is None), and the
    random numbers of ``size`` traces from ``model`` under it
    (``samplers.draw_traces``), or None when the draw stays infeasible
    through the retry budget."""
    try:
        cs = None if formula is None else constraints_for(formula, scenario.channels, scenario.horizon, rng)
        return draw_traces(model, scenario.horizon, scenario.dt, cs, rng=rng, size=size)
    except InfeasibleError:
        return None


def roll_draws(
    scenario: Scenario,
    model: DisturbanceModel,
    drawn: list[TraceDraw | None],
) -> tuple[TraceBatch | None, list[float | None]]:
    """Build, roll and score drawn batches: the one step that search,
    re-evaluation and the baseline share.

    ``drawn`` holds ``draw_batch`` results in stream order, None for an
    infeasible draw.  The feasible ones are built into one batch
    (``samplers.build_traces``), rolled in one ``Scenario.fail_steps``
    call and their failing traces scored under ``scenario.model`` in one
    ``log_likelihoods`` call.  Returns that batch (None when no draw is
    feasible) and, per trace in batch order, its log-likelihood if it
    fails, else None.  Each trace's outcome is the one it gets rolled and
    scored alone, whatever else is in the batch.
    """
    feasible = [draw for draw in drawn if draw is not None]
    if not feasible:
        return None, []
    batch = build_traces(model, scenario.horizon, scenario.dt, feasible)
    steps = scenario.fail_steps(batch)
    failing = [i for i, step in enumerate(steps) if step is not None]
    scores = iter(log_likelihoods(scenario.model, batch.take(failing)).tolist())
    return batch, [None if step is None else next(scores) for step in steps]


def _trial_batch(
    scenario: Scenario,
    model: DisturbanceModel,
    formula: Formula | None,
    trials: int,
    rng: np.random.Generator,
) -> tuple[MetricReport, list[SimResult]]:
    """One batch of one trace per trial, drawn from ``model`` under fresh
    constraints for ``formula``: the report, and the failing trials rolled
    again for their records.

    Every trial draws its constraints from one descent plan of
    ``formula``.  The trials are drawn in order, ``CHUNK`` at a time, and
    each chunk is built, rolled and scored in one ``roll_draws``; an
    infeasible draw rolls nothing and counts as an infeasible trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    plan = None if formula is None else DescentPlan(formula, scenario.channels, scenario.horizon)
    fails, lls, n_infeasible = [], [], 0
    for first in range(0, trials, CHUNK):
        drawn = [draw_batch(scenario, model, plan, rng, 1) for _ in range(min(CHUNK, trials - first))]
        n_infeasible += sum(draw is None for draw in drawn)
        batch, scored = roll_draws(scenario, model, drawn)
        fails += [batch[i] for i, ll in enumerate(scored) if ll is not None]
        lls += [ll for ll in scored if ll is not None]
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
