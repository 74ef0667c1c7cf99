import math

import numpy as np
import pytest

import stlfalsify.optimize as optimize
from stlfalsify.baseline import draw_batch, roll_draws
from stlfalsify.optimize import GpConfig, Individual, evaluate_cost, run
from stlfalsify.samplers import Categorical, DisturbanceModel
from stlfalsify.sim import scenario
from stlfalsify.stl import CategoricalChannel, SignalTrace, canonical_text, parse


class StubResult:
    def __init__(self, failure):
        self.failure = failure


class StubScenario:
    """One categorical channel, one step, failure decided by a predicate.

    Makes evaluate_cost's expected value exactly enumerable.
    """

    def __init__(self, fails_when=lambda trace: True, m=1):
        self.channels = (
            CategoricalChannel(name="act", symbols=("common", "rare")),
        )
        self.model = DisturbanceModel(
            channels=self.channels,
            models={"act": Categorical({"common": 0.9, "rare": 0.1})},
        )
        self.horizon = m
        self.dt = 1.0
        self._fails_when = fails_when

    def run(self, trace: SignalTrace):
        return StubResult(self._fails_when(trace))

    def fail_steps(self, traces):
        return [1 if self._fails_when(trace) else None for trace in traces]


def score(formula, sc, N, rng):
    """evaluate_cost on one batch of N traces, drawn, built and rolled as ``run`` does."""
    draw = draw_batch(sc, sc.model, formula, rng, N)
    return evaluate_cost(formula, sc, None if draw is None else roll_draws(sc, sc.model, [draw])[1])


def test_config_validation():
    with pytest.raises(ValueError):
        GpConfig(population=0)
    GpConfig()  # defaults are valid


def test_cost_is_exact_for_enumerable_model():
    sc = StubScenario()
    rng = np.random.default_rng(0)
    common = parse("G_[0,0](common)", sc.channels)
    rare = parse("G_[0,0](rare)", sc.channels)
    ind_common = score(common, sc, N=10, rng=rng)
    ind_rare = score(rare, sc, N=10, rng=rng)
    assert ind_common.cost == pytest.approx(-0.9, abs=1e-12)
    assert ind_rare.cost == pytest.approx(-0.1, abs=1e-12)
    assert ind_common.fail_count == ind_rare.fail_count == 10


def test_rarer_disturbances_cost_more_at_equal_fail_rates():
    # both formulas always fail; the one forcing the rare action ranks worse
    sc = StubScenario()
    rng = np.random.default_rng(1)
    common = score(parse("G_[0,0](common)", sc.channels), sc, N=5, rng=rng)
    rare = score(parse("G_[0,0](rare)", sc.channels), sc, N=5, rng=rng)
    assert common.cost < rare.cost
    assert common.sort_key() < rare.sort_key()


def test_never_failing_formula_costs_zero():
    sc = StubScenario(fails_when=lambda trace: False)
    rng = np.random.default_rng(2)
    ind = score(parse("G_[0,0](common)", sc.channels), sc, N=8, rng=rng)
    assert ind.cost == 0.0
    assert ind.feasible
    assert ind.fail_count == 0
    assert ind.mean_fail_loglik == -math.inf


def test_infeasible_formula_gets_worst_cost():
    sc = StubScenario()
    f = parse("G_[0,0]((common & rare))", sc.channels)  # contradictory pin
    ind = score(f, sc, N=5, rng=np.random.default_rng(3))
    assert ind.cost == 0.0
    assert not ind.feasible


def test_cost_reads_the_batch_outcomes_in_trace_order():
    sc = StubScenario()
    f = parse("G_[0,0](common)", sc.channels)
    ind = evaluate_cost(f, sc, [None, math.log(0.5), None, math.log(0.25)])
    assert ind.cost == pytest.approx(-(0.5 + 0.25) / 4, abs=1e-15)
    assert (ind.fail_count, ind.n_evals) == (2, 4)
    assert ind.mean_fail_loglik == pytest.approx((math.log(0.5) + math.log(0.25)) / 2, abs=1e-15)
    assert evaluate_cost(f, sc, None) == Individual(f, 0.0, 0, -math.inf, 0)


def test_continuous_ranking_is_lexicographic():
    lo = Individual(None, cost=-0.8, fail_count=8, mean_fail_loglik=-50.0, n_evals=10)
    hi = Individual(None, cost=-0.8, fail_count=8, mean_fail_loglik=-10.0, n_evals=10)
    weak = Individual(None, cost=-0.2, fail_count=2, mean_fail_loglik=5.0, n_evals=10)
    assert hi.sort_key() < lo.sort_key()  # same fail rate, likelier failures win
    assert lo.sort_key() < weak.sort_key()  # fail rate dominates


def test_degenerate_run_returns_single_individual():
    sc = scenario("lt1")
    best, history = run(sc, GpConfig(population=1, generations=1, seed=5))
    assert len(history) == 1
    assert history[0]["generation"] == 0
    assert canonical_text(best.formula) == history[0]["best_formula"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_best_so_far_is_non_increasing(seed):
    sc = scenario("lt1")
    best, history = run(sc, GpConfig(population=25, generations=6, seed=seed))
    assert len(history) == 6
    costs = [row["best_so_far_cost"] for row in history]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert best.cost == costs[-1]


def test_run_is_deterministic_per_seed():
    sc = scenario("lt1")
    cfg = GpConfig(population=20, generations=4, seed=9)
    best_a, hist_a = run(sc, cfg)
    best_b, hist_b = run(sc, cfg)
    assert canonical_text(best_a.formula) == canonical_text(best_b.formula)
    assert hist_a == hist_b


def test_costs_are_cached_per_canonical_text(monkeypatch):
    sc = scenario("lt1")
    calls, looked_up = [], []
    real, real_text = optimize.evaluate_cost, optimize.canonical_text

    def counting(formula, *args, **kwargs):
        calls.append(real_text(formula))
        return real(formula, *args, **kwargs)

    def rendering(formula):
        looked_up.append(real_text(formula))
        return looked_up[-1]

    monkeypatch.setattr(optimize, "evaluate_cost", counting)
    monkeypatch.setattr(optimize, "canonical_text", rendering)
    cfg = GpConfig(population=30, generations=5, seed=4)
    run(sc, cfg)
    # one rendering per lookup, two per history row
    assert len(looked_up) == cfg.population * cfg.generations + 2 * cfg.generations
    assert sorted(calls) == sorted(set(looked_up))  # every text looked up is scored exactly once


def test_progress_callback_sees_every_generation():
    sc = scenario("lt1")
    rows = []
    run(sc, GpConfig(population=10, generations=3, seed=6), progress=rows.append)
    assert [r["generation"] for r in rows] == [0, 1, 2]
    assert all("best_formula" in r and "mean_cost" in r for r in rows)
