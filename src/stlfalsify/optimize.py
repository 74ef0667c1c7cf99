"""Genetic programming over formulas, scored by constrained rollouts.

Each candidate formula is scored by one batch of the rollout steps that
re-evaluation and the baseline also use: a single constraint draw and
the random numbers of disturbance traces that satisfy it
(``baseline.draw_batch``), then scenario rollouts and the likelihood of
each failing trace under the scenario's model (``baseline.roll_draws``).
``run`` splits drawing from building and rolling: each cache miss draws
its batch's numbers at once, in the order the search makes its
formulas, and ``settle`` hands the pending draws to one ``roll_draws``
once ``baseline.CHUNK`` traces have gathered or the generation ends; a
search builds no ``SignalTrace``.  Then ``evaluate_cost`` scores each
pending formula from its outcomes, once per cache miss.  Building and
rollouts draw no random numbers and tournaments read only the previous
generation, so the draws and results are those of scoring each formula
as it is made.

The cost averages -likelihood * failure over the batch, so low cost means
the formula pins down likely failures.  With discrete disturbance models
the likelihood is an honest probability and the average is used directly.
With continuous models raw densities span hundreds of orders of magnitude,
so individuals are ranked lexicographically: failure fraction first, then
the mean log-likelihood of the failing rollouts.

Selection is by tournament.  Each new population slot copies, crosses, or
mutates tournament winners with probabilities ``P_REPRODUCE``,
``P_CROSSOVER`` and ``P_MUTATE``; there is no elitism, and the returned
best individual is tracked globally across all evaluations.  Costs are
cached per canonical formula text for the duration of one run, since
reproduction keeps re-submitting identical formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import baseline
from .grammar import crossover, mutate, sample_expression
from .samplers import TraceDraw
from .stl import Formula, canonical_text

__all__ = ["GpConfig", "Individual", "evaluate_cost", "run"]

P_REPRODUCE = 0.3
P_CROSSOVER = 0.3
P_MUTATE = 0.4  # the rest: a slot that neither copies nor crosses mutates
TOURNAMENT_SIZE = 7


@dataclass(frozen=True)
class GpConfig:
    population: int = 1000
    generations: int = 30
    samples_per_eval: int = 10
    seed: int = 0

    def __post_init__(self):
        if min(self.population, self.generations, self.samples_per_eval) < 1:
            raise ValueError("counts must be at least 1")


@dataclass(frozen=True)
class Individual:
    formula: Formula
    cost: float
    fail_count: int
    mean_fail_loglik: float  # -inf when no rollout failed
    n_evals: int  # 0 when the formula stayed infeasible

    @property
    def feasible(self) -> bool:
        return self.n_evals > 0

    def sort_key(self):
        """Lower is better; ties on cost break toward likelier failures."""
        return (self.cost, -self.mean_fail_loglik)


_WORST = dict(cost=0.0, fail_count=0, mean_fail_loglik=-math.inf, n_evals=0)


def evaluate_cost(formula: Formula, scenario, outcomes: list[float | None] | None) -> Individual:
    """Score one formula from its batch's outcomes (``baseline.roll_draws``).

    ``outcomes`` holds one entry per trace of the formula's single
    constraint draw: the log-likelihood of a failing trace, None for one
    that does not fail.  A formula whose draw stayed infeasible through
    the retry budget (``outcomes`` None) gets the worst cost (0: it never
    demonstrates a failure).
    """
    if outcomes is None:
        return Individual(formula=formula, **_WORST)
    N = len(outcomes)
    fail_lls = [ll for ll in outcomes if ll is not None]
    fails = len(fail_lls)
    if scenario.model.discrete:
        mean_p_fail = 0.0
        for ll in fail_lls:
            mean_p_fail += math.exp(ll)
        mean_p_fail /= N
        cost = -mean_p_fail
    else:
        cost = -fails / N
    return Individual(
        formula=formula,
        cost=cost,
        fail_count=fails,
        mean_fail_loglik=(sum(fail_lls) / len(fail_lls)) if fail_lls else -math.inf,
        n_evals=N,
    )


def _tournament(pop: list[Individual], k: int, rng) -> Individual:
    idx = rng.integers(0, len(pop), size=k)
    best = pop[idx[0]]
    for i in idx[1:]:
        if pop[i].sort_key() < best.sort_key():
            best = pop[i]
    return best


def run(scenario, config: GpConfig, progress=None) -> tuple[Individual, list[dict]]:
    """Evolve for ``config.generations`` rounds, the first being the random
    initial population.  Returns the best individual ever evaluated and one
    history record per generation; ``progress`` (if given) receives each
    record as it is produced.
    """
    grammar = scenario.grammar
    rng = np.random.default_rng(config.seed)
    cache: dict[str, Individual] = {}
    pending: dict[str, tuple[Formula, TraceDraw | None]] = {}  # drawn, not yet built

    def settle():
        """Build and roll every pending trace together, then score each pending formula."""
        outs = iter(baseline.roll_draws(scenario, scenario.model, [draw for _, draw in pending.values()])[1])
        for key, (formula, draw) in pending.items():
            scored = None if draw is None else [next(outs) for _ in range(draw.size)]
            cache[key] = evaluate_cost(formula, scenario, scored)
        pending.clear()

    def lookup(formula: Formula) -> str:
        key = canonical_text(formula)
        if key not in cache and key not in pending:
            draw = baseline.draw_batch(scenario, scenario.model, formula, rng, config.samples_per_eval)
            pending[key] = (formula, draw)
            if len(pending) * config.samples_per_eval >= baseline.CHUNK:  # infeasible draws count too
                settle()
        return key

    def generation(make) -> list[Individual]:
        """One population of ``make()`` formulas, every one scored."""
        keys = [lookup(make()) for _ in range(config.population)]
        settle()
        return [cache[key] for key in keys]

    def child() -> Formula:
        r = rng.random()
        if r < P_REPRODUCE:
            return _tournament(population, TOURNAMENT_SIZE, rng).formula
        if r < P_REPRODUCE + P_CROSSOVER:
            recipient = _tournament(population, TOURNAMENT_SIZE, rng).formula
            donor = _tournament(population, TOURNAMENT_SIZE, rng).formula
            return crossover(donor, recipient, grammar, rng)
        parent = _tournament(population, TOURNAMENT_SIZE, rng).formula
        return mutate(parent, grammar, rng)

    population = generation(lambda: sample_expression(grammar, rng))
    best = min(population, key=Individual.sort_key)
    history: list[dict] = []

    def record(gen: int, pop: list[Individual]):
        nonlocal best
        gen_best = min(pop, key=Individual.sort_key)
        if gen_best.sort_key() < best.sort_key():
            best = gen_best
        row = {
            "generation": gen,
            "best_cost": gen_best.cost,
            "mean_cost": sum(ind.cost for ind in pop) / len(pop),
            "best_formula": canonical_text(gen_best.formula),
            "best_so_far_cost": best.cost,
            "best_so_far_formula": canonical_text(best.formula),
        }
        history.append(row)
        if progress is not None:
            progress(row)

    record(0, population)
    for gen in range(1, config.generations):
        population = generation(child)
        record(gen, population)
    return best, history
