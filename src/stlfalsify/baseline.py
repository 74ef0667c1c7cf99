"""The shared rollout loop, the importance-sampling baseline and the
failure metrics.

Search, re-evaluation and the baseline all roll traces in three steps.
``draw_batch`` makes one constraint draw (none for the baseline) and
draws the random numbers of a batch of traces under it
(``samplers.draw_traces``); every draw comes from the generator the
caller passes.  ``samplers.build_traces`` then turns many drawn batches
into one ``stl.TraceBatch`` in one numpy pass per channel, and
``outcomes`` rolls that batch without records, in one
``Scenario.fail_steps`` call (numpy over all traces at once from the
scenario config's ``lockstep_lanes`` traces on: a lockstep of the
oncoming cars from 48 left-turn traces, a closed form from 3 crosswalk
traces, so a crosswalk batch of 60 baseline trials rolls in one call
and a single re-evaluated trial on the scalar loop; one lane per
distinct symbol sequence when the model is discrete), and scores the
failing traces in one
``samplers.log_likelihoods`` call.  Building, rollouts and likelihoods
draw no random numbers, so drawing batches first and building and
rolling them afterwards gives the same draws and outcomes as sampling
and rolling each batch as it is drawn.  ``rollouts`` builds and rolls
about ``CHUNK`` traces at a time, and builds a ``SignalTrace`` only for
each failing trace it returns.

The baseline samples the scenario's proposal, the others its model.
Search scores a formula with one batch of N traces (``optimize.run``
drives the two steps itself); re-evaluation and the baseline run one
batch per trial, so every re-evaluated trial gets a fresh constraint
draw, and roll their failing traces once more for the records they
return.  Likelihoods are always scored under the scenario's true
disturbance model, never under the model the traces were drawn from, so
optimizer output and the baseline are directly comparable.  Reports carry:

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
from .samplers import DisturbanceModel, TraceDraw, build_traces, draw_traces, log_likelihoods
from .sim import Scenario, SimResult
from .stl import Formula, SignalTrace, TraceBatch

__all__ = [
    "MetricReport",
    "importance_sample",
    "evaluate_expression",
    "rollouts",
    "draw_batch",
    "outcomes",
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
    formula: Formula | None,
    rng: np.random.Generator,
    size: int,
) -> TraceDraw | None:
    """One batch: a constraint draw for ``formula`` (none when it is None)
    and the random numbers of ``size`` traces from ``model`` under it
    (``samplers.draw_traces``), or None when the draw stays infeasible
    through the retry budget."""
    try:
        cs = None if formula is None else constraints_for(formula, scenario.channels, scenario.horizon, rng)
        return draw_traces(model, scenario.horizon, scenario.dt, cs, rng=rng, size=size)
    except InfeasibleError:
        return None


def outcomes(scenario: Scenario, batch: TraceBatch) -> list[float | None]:
    """Each trace's log-likelihood under ``scenario.model`` if it fails, else None.

    The batch is rolled in one ``Scenario.fail_steps`` call, which steps
    its traces in lockstep when there are enough of them, and the failing
    ones are scored in one ``log_likelihoods`` call, each to the bits of
    ``log_likelihood``.  When ``scenario.model`` is discrete, each distinct
    symbol sequence is rolled and scored once, and every repeat of it
    reuses that outcome.
    """
    index = range(len(batch))
    if scenario.model.discrete:
        codes = np.concatenate([batch.blocks[ch.name] for ch in batch.channels], axis=1)
        # one opaque key per trace: np.unique of these takes a tenth of axis=0's time
        rows = codes.view(f"V{codes.itemsize * codes.shape[1]}")[:, 0]
        _, first, index = np.unique(rows, return_index=True, return_inverse=True)
        batch = batch.take(first)
    steps = scenario.fail_steps(batch)
    failing = [i for i, step in enumerate(steps) if step is not None]
    scores = iter(log_likelihoods(scenario.model, batch.take(failing)).tolist())
    lls = [None if step is None else next(scores) for step in steps]
    return [lls[i] for i in index]


def rollouts(
    scenario: Scenario,
    model: DisturbanceModel,
    formula: Formula | None,
    rng: np.random.Generator,
    batches: int,
    size: int,
) -> tuple[list[SignalTrace], list[float], int]:
    """Roll ``batches`` batches of ``size`` traces drawn from ``model``.

    Each batch is one ``draw_batch``; a batch whose draw stays infeasible
    rolls nothing and adds ``size`` to the infeasible count.  Returns the
    failing traces, their log-likelihoods under ``scenario.model`` and the
    infeasible count.  The batches are drawn first, in order, and built
    and rolled together afterwards, ``CHUNK`` traces or so at a time
    (``samplers.build_traces``, ``outcomes``).
    """
    if batches * size < 1:
        raise ValueError("trials must be at least 1")
    fails, lls, n_infeasible = [], [], 0
    per_chunk = max(1, CHUNK // size)
    for first in range(0, batches, per_chunk):
        drawn = [draw_batch(scenario, model, formula, rng, size)
                 for _ in range(min(per_chunk, batches - first))]
        n_infeasible += size * sum(draw is None for draw in drawn)
        drawn = [draw for draw in drawn if draw is not None]
        if drawn:
            chunk = build_traces(model, scenario.horizon, scenario.dt, drawn)
            scored = outcomes(scenario, chunk)
            fails += [chunk[i] for i, ll in enumerate(scored) if ll is not None]
            lls += [ll for ll in scored if ll is not None]
    return fails, lls, n_infeasible


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
