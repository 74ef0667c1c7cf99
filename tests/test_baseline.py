import dataclasses
import json
import math

import numpy as np
import pytest

import stlfalsify.baseline as baseline
import stlfalsify.sim as sim
from stlfalsify.baseline import (
    GEOMEAN_STEP_PROB,
    TRAJECTORY_LOGLIK,
    MetricReport,
    evaluate_expression,
    importance_sample,
)
from stlfalsify.cli import _report_payload
from stlfalsify.constraints import InfeasibleError, constraints_for
from stlfalsify.optimize import GpConfig, evaluate_cost, run
from stlfalsify.samplers import build_traces, log_likelihood, sample_traces
from stlfalsify.sim import Scenario, scenario
from stlfalsify.stl import SignalTrace, parse


def rng(seed=0):
    return np.random.default_rng(seed)


def score(formula, sc, N, rng):
    """evaluate_cost on one batch of N traces, drawn, built and rolled as search does."""
    draw = baseline.draw_batch(sc, sc.model, formula, rng, N)
    return evaluate_cost(formula, sc, None if draw is None else baseline.roll_draws(sc, sc.model, [draw])[1])


def test_report_serializes():
    rep = MetricReport(
        fail_rate=0.25, fail_rate_se=0.02, n_trials=400, n_failures=100,
        likelihood=0.5, likelihood_se=0.01, likelihood_kind=GEOMEAN_STEP_PROB,
    )
    blob = json.loads(json.dumps(_report_payload(rep), sort_keys=True))
    assert blob["fail_rate"] == 0.25
    assert blob["likelihood_kind"] == GEOMEAN_STEP_PROB
    assert blob["infeasible"] is False


def test_importance_sampling_on_true_model_finds_almost_nothing():
    sc = scenario("lt1")
    rep, fails = importance_sample(
        dataclasses.replace(sc, proposal=sc.model), trials=400, rng=rng(1)
    )
    assert rep.fail_rate <= 0.01
    assert rep.n_trials == 400
    assert len(fails) == rep.n_failures


def test_importance_sampling_uniform_proposal_on_lt1():
    sc = scenario("lt1")
    rep, fails = importance_sample(sc, trials=400, rng=rng(2))
    # uniform proposal surfaces failures at a few percent
    assert 0.001 < rep.fail_rate < 0.1
    assert rep.likelihood_kind == GEOMEAN_STEP_PROB
    assert rep.likelihood is not None and 0.0 < rep.likelihood < 1.0
    # binomial standard error
    p = rep.fail_rate
    assert rep.fail_rate_se == pytest.approx(math.sqrt(p * (1 - p) / 400))


def test_likelihood_is_scored_under_true_model_not_proposal():
    sc = scenario("lt1")
    rep, fails = importance_sample(sc, trials=400, rng=rng(3))
    assert fails
    from stlfalsify.samplers import log_likelihood

    res = fails[0]
    m = res.trace.m
    geo = math.exp(log_likelihood(sc.model, res.trace) / m)
    geo_prop = math.exp(log_likelihood(sc.proposal, res.trace) / m)
    assert geo != pytest.approx(geo_prop)  # the two models genuinely differ
    # every failure's geomean step probability under the true model is the
    # statistic being averaged
    vals = [math.exp(log_likelihood(sc.model, f.trace) / f.trace.m) for f in fails]
    assert rep.likelihood == pytest.approx(float(np.mean(vals)))


def test_trial_counts_are_validated():
    sc = scenario("lt1")
    with pytest.raises(ValueError):
        importance_sample(sc, trials=0, rng=rng())
    with pytest.raises(ValueError):
        evaluate_expression(parse("G_[0,0](a_maj)", sc.channels), sc, trials=0, rng=rng())


def test_evaluate_expression_reproduces_forced_failure():
    sc = scenario("lt1")
    f = parse("G_[0,1](a_maj)", sc.channels)
    rep, fails = evaluate_expression(f, sc, trials=60, rng=rng(4))
    assert rep.fail_rate >= 0.9
    assert rep.n_failures == len(fails)
    assert rep.likelihood is not None


def test_forced_failures_are_far_likelier_than_imported_ones():
    sc = scenario("lt1")
    f = parse("G_[0,1](a_maj)", sc.channels)
    rep_iv, _ = evaluate_expression(f, sc, trials=60, rng=rng(5))
    rep_is, _ = importance_sample(sc, trials=400, rng=rng(6))
    assert rep_iv.likelihood > rep_is.likelihood


def test_unsatisfiable_formula_reports_infeasible():
    sc = scenario("pc1")
    f = parse("G_[0,0]((a_y <= -1.0 & a_y >= 1.0))", sc.channels)
    rep, fails = evaluate_expression(f, sc, trials=5, rng=rng(7))
    assert rep.infeasible
    assert rep.fail_rate == 0.0
    assert rep.n_infeasible == 5
    assert fails == []


def test_crosswalk_reports_carry_trajectory_logliks():
    sc = scenario("pc1")
    f = parse("G_[0,2](n_vy <= -1.2)", sc.channels)
    rep, _ = evaluate_expression(f, sc, trials=30, rng=rng(8))
    assert rep.likelihood_kind == TRAJECTORY_LOGLIK
    if rep.n_failures:
        assert rep.likelihood is not None


def test_single_failure_has_zero_likelihood_se():
    sc = scenario("lt1")
    f = parse("G_[0,1](a_maj)", sc.channels)
    rep, _ = evaluate_expression(f, sc, trials=1, rng=rng(9))
    if rep.n_failures == 1:
        assert rep.likelihood_se == 0.0


def test_constraint_draws_per_batch_differ_by_caller(monkeypatch):
    # search scores a formula from one draw; re-evaluation draws per trial;
    # the baseline samples unconstrained
    sc = scenario("lt1")
    f = parse("G_[0,1](a_maj)", sc.channels)  # feasible on every first draw
    draws = []
    real = baseline.constraints_for

    def counting(*args, **kwargs):
        draws.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(baseline, "constraints_for", counting)
    score(f, sc, N=10, rng=rng(0))
    assert len(draws) == 1
    evaluate_expression(f, sc, trials=10, rng=rng(0))
    assert len(draws) == 11
    importance_sample(sc, trials=10, rng=rng(0))
    assert len(draws) == 11


def test_search_batch_shares_one_witness_step():
    sc = scenario("lt1")
    draw = baseline.draw_batch(sc, sc.model, parse("F_[0,5](disturbance = a_maj)", sc.channels), rng(1), 10)
    drawn = build_traces(sc.model, sc.horizon, sc.dt, [draw])
    assert len(drawn) == 10
    a_maj = np.array([tr.values["disturbance"][:6] == "a_maj" for tr in drawn])
    assert a_maj.all(axis=0).any()  # one step is a_maj in every trace


def _rollouts_through_run(sc, model, formula, rng, batches, size):
    """The program's rollouts written as a loop that runs every trace with records."""
    fails, lls, n_infeasible = [], [], 0
    for _ in range(batches):
        try:
            cs = None if formula is None else constraints_for(formula, sc.channels, sc.horizon, rng)
            traces = sample_traces(model, sc.horizon, sc.dt, cs, rng=rng, size=size)
        except InfeasibleError:
            n_infeasible += size
            continue
        for trace in traces:
            res = sc.run(trace)
            if res.failure:
                fails.append(res)
                lls.append(log_likelihood(sc.model, trace))
    return fails, lls, n_infeasible


def _search_rollouts(sc, model, formula, rng, batches, size):
    """``batches`` draws of ``size`` traces rolled as ``optimize.run`` rolls
    them: handed to ``roll_draws`` once ``CHUNK`` traces have gathered.
    Returns the failing traces, their log-likelihoods and the infeasible count."""
    traces, lls, n_infeasible, drawn = [], [], 0, []
    for made in range(1, batches + 1):
        drawn.append(baseline.draw_batch(sc, model, formula, rng, size))
        n_infeasible += size * (drawn[-1] is None)
        if len(drawn) * size >= baseline.CHUNK or made == batches:
            batch, scored = baseline.roll_draws(sc, model, drawn)
            traces += [batch[i] for i, ll in enumerate(scored) if ll is not None]
            lls += [ll for ll in scored if ll is not None]
            drawn = []
    return traces, lls, n_infeasible


def _assert_same_results(sc, fails, ref_fails):
    """The same rollouts: records, fail steps and traces, in order."""
    assert [r.records for r in fails] == [r.records for r in ref_fails]
    assert [r.fail_step for r in fails] == [r.fail_step for r in ref_fails]
    for res, ref in zip(fails, ref_fails, strict=True):
        for ch in sc.channels:
            assert np.array_equal(res.trace.values[ch.name], ref.trace.values[ch.name])


def _spy_roll_draws(monkeypatch, check=lambda: None) -> tuple[list, list]:
    """Patch ``baseline.roll_draws`` to collect every failing trace it
    rolls and its log-likelihood, in order; ``check`` runs after each call."""
    traces, lls = [], []
    real = baseline.roll_draws

    def spying(*args):
        batch, scored = real(*args)
        traces.extend(batch[i] for i, ll in enumerate(scored) if ll is not None)
        lls.extend(ll for ll in scored if ll is not None)
        check()
        return batch, scored

    monkeypatch.setattr(baseline, "roll_draws", spying)
    return traces, lls


ROLLOUT_CASES = [
    ("lt1", "proposal", None, 40, 5),
    ("lt2", "model", "F_[0,1](disturbance = S)", 3, 20),
    ("pc1", "model", "G_[0,2](n_vy <= -0.8)", 2, 15),
    ("pc2", "proposal", None, 60, 1),
    ("pc1", "model", "G_[0,2](n_vy <= -0.8)", 40, 1),
    # above the lockstep's lane count, and across a chunk boundary
    ("lt3", "proposal", None, 2100, 1),
    ("pc2", "model", "F_[0,10](n_y >= 0.5)", 150, 15),
]


@pytest.mark.parametrize("name,which,text,batches,size", ROLLOUT_CASES)
def test_rollouts_match_a_loop_that_runs_every_trace(monkeypatch, name, which, text, batches, size):
    # one trace per batch: a re-evaluation or baseline trial; more: a search's draws
    sc = scenario(name)
    model = getattr(sc, which)
    formula = None if text is None else parse(text, sc.channels)
    ref_fails, ref_lls, ref_inf = _rollouts_through_run(sc, model, formula, rng(21), batches, size)
    assert ref_fails  # the case exercises the record pass
    if size == 1:
        _, lls = _spy_roll_draws(monkeypatch)
        if formula is None:
            assert model is sc.proposal
            report, fails = importance_sample(sc, batches, rng(21))
        else:
            assert model is sc.model
            report, fails = evaluate_expression(formula, sc, batches, rng(21))
        n_inf = report.n_infeasible
        assert report.n_failures == len(fails)
    else:
        traces, lls, n_inf = _search_rollouts(sc, model, formula, rng(21), batches, size)
        fails = [sc.run(t) for t in traces]
    assert (lls, n_inf) == (ref_lls, ref_inf)
    _assert_same_results(sc, fails, ref_fails)


@pytest.mark.parametrize("name,text", [
    ("lt1", "G_[0,1](disturbance = a_maj)"),
    ("pc1", "G_[0,2](n_vy <= -0.8)"),
])
def test_every_drawn_trace_is_rolled_once_per_chunk(monkeypatch, name, text):
    # one build and one fail_steps call per chunk, whether the model is
    # discrete (lt1) or not (pc1): every drawn trace is rolled exactly once
    sc = scenario(name)
    formula = parse(text, sc.channels)
    built, rolled = [], []
    real_build, real_fail_steps = baseline.build_traces, sim.fail_steps

    def recording(*args, **kwargs):
        batch = real_build(*args, **kwargs)
        built.append(batch)
        return batch

    def counting(scenario, batch):
        rolled.append(batch)
        return real_fail_steps(scenario, batch)

    monkeypatch.setattr(baseline, "build_traces", recording)
    monkeypatch.setattr(sim, "fail_steps", counting)

    def rolled_once(sizes):
        assert [len(batch) for batch in built] == sizes
        assert len(rolled) == len(built)
        for got, drawn in zip(rolled, built):
            for ch in sc.channels:
                assert np.array_equal(got.blocks[ch.name], drawn.blocks[ch.name])
        built.clear(), rolled.clear()

    ref_fails, ref_lls, ref_inf = _rollouts_through_run(sc, sc.model, formula, rng(24), 4, 25)
    traces, lls, n_inf = _search_rollouts(sc, sc.model, formula, rng(24), 4, 25)  # one chunk
    assert (lls, n_inf) == (ref_lls, ref_inf) and ref_fails
    _assert_same_results(sc, [sc.run(t) for t in traces], ref_fails)
    rolled_once([100])

    monkeypatch.setattr(baseline, "CHUNK", 40)
    ref_fails, _, _ = _rollouts_through_run(sc, sc.model, formula, rng(24), 100, 1)
    report, fails = evaluate_expression(formula, sc, 100, rng(24))
    assert report.n_infeasible == 0 and report.n_failures > 0
    _assert_same_results(sc, fails, ref_fails)
    rolled_once([40, 40, 20])


@pytest.mark.parametrize("name,text,trials", [
    ("lt1", "G_[0,1](disturbance = a_maj)", 30),
    ("pc1", "G_[0,2](n_vy <= -0.8)", 20),
])
def test_chunk_boundaries_change_nothing(monkeypatch, name, text, trials):
    # neither a search nor a trial batch depends on where its chunks end
    sc = scenario(name)
    formula = parse(text, sc.channels)
    config = GpConfig(population=120, generations=2, samples_per_eval=10, seed=27)  # past one CHUNK

    rolls = []  # roll_draws calls per search
    real = baseline.roll_draws
    monkeypatch.setattr(baseline, "roll_draws", lambda *args: rolls.append(1) or real(*args))

    def outputs():
        rolls.clear()
        searched = run(sc, config)
        return (searched, len(rolls), evaluate_expression(formula, sc, trials, rng(31)),
                importance_sample(sc, 3 * trials, rng(32)))

    (ref_best, ref_history), ref_rolls, ref_reeval, ref_is = outputs()
    assert ref_best.fail_count > 0 and ref_reeval[0].n_failures > 0 and ref_is[0].n_failures > 0
    for chunk in (1, 7, 10**6):
        monkeypatch.setattr(baseline, "CHUNK", chunk)
        (best, history), n_rolls, reeval, is_ = outputs()
        assert (best, history) == (ref_best, ref_history), chunk
        if chunk == 10**6:  # the search's chunks move: one roll per generation ...
            assert n_rolls == config.generations
        else:  # ... or one per cache miss
            assert n_rolls > ref_rolls > config.generations
        for (report, fails), (ref_report, ref_fails) in ((reeval, ref_reeval), (is_, ref_is)):
            assert report == ref_report, chunk
            _assert_same_results(sc, fails, ref_fails)


def _count_record_passes(monkeypatch) -> list:
    """Patch ``Scenario.run`` to append each trace it rolls to the returned list."""
    calls = []
    real = Scenario.run

    def counting(self, trace):
        calls.append(trace)
        return real(self, trace)

    monkeypatch.setattr(Scenario, "run", counting)
    return calls


def test_rollouts_run_only_the_failing_traces_with_records(monkeypatch):
    sc = scenario("lt1")
    calls = _count_record_passes(monkeypatch)
    passes_while_rolling = []
    traces, _ = _spy_roll_draws(monkeypatch, check=lambda: passes_while_rolling.append(len(calls)))
    report, fails = importance_sample(sc, trials=200, rng=rng(22))
    assert 0 < len(traces) < 200
    assert passes_while_rolling == [0]  # the rollouts run no trace with records
    assert len(calls) == len(fails) == report.n_failures == len(traces)
    assert all(trace is res.trace for trace, res in zip(calls, fails))


def test_search_scoring_builds_no_records(monkeypatch):
    sc = scenario("lt1")
    calls = _count_record_passes(monkeypatch)
    ind = score(parse("G_[0,1](disturbance = a_maj)", sc.channels), sc, N=10, rng=rng(23))
    assert ind.fail_count > 0
    assert calls == []
    # nor any SignalTrace: a search keeps its traces as blocks
    built = []
    real_init = SignalTrace.__post_init__
    monkeypatch.setattr(SignalTrace, "__post_init__", lambda self: built.append(self) or real_init(self))
    for name, seed in (("lt1", 27), ("pc1", 23)):  # searches whose best formula fails
        best, _ = run(scenario(name), GpConfig(population=20, generations=2, seed=seed))
        assert best.fail_count > 0, name
    assert calls == [] and built == []


def _roll_spy(monkeypatch, config_type) -> dict:
    """Patch ``config_type.roll`` and its numpy batch roll (the left turn's
    lockstep ``roll_lanes``, the crosswalk's closed-form ``fail_steps``) to
    count what they roll: ``roll`` calls without and with records, and the
    lanes of each numpy call."""
    seen = {"roll": 0, "records": 0, "lanes": []}
    numpy_roll = "roll_lanes" if config_type is sim.LeftTurnConfig else "fail_steps"
    real_roll, real_lanes = config_type.roll, getattr(config_type, numpy_roll)

    def roll(self, values, records=None):
        seen["roll" if records is None else "records"] += 1
        return real_roll(self, values, records)

    def lanes(self, blocks):
        seen["lanes"].append(len(next(iter(blocks.values()))))
        return real_lanes(self, blocks)

    monkeypatch.setattr(config_type, "roll", roll)
    monkeypatch.setattr(config_type, numpy_roll, lanes)
    return seen


@pytest.mark.parametrize("name,text,trials,seed,lockstep", [
    ("pc1", None, 60, 25, True),  # a crosswalk baseline batch, in closed form
    ("lt1", None, 25, 25, False),  # a left-turn baseline batch, short of its lane count
    ("pc1", "G_[0,29](n_y >= 0.8)", 1, 29, True),  # one re-evaluated trial, in closed form too
])
def test_trial_batches_roll_in_lockstep_from_the_scenarios_lane_count(monkeypatch, name, text, trials, seed, lockstep):
    # a crosswalk batch rolls in closed form at any size, a left-turn one in
    # lockstep from its config's lane count on
    sc = scenario(name)
    if isinstance(sc.config, sim.LeftTurnConfig):
        assert (trials >= sc.config.lockstep_lanes) == lockstep

    def trial_batch():
        if text is None:
            return importance_sample(sc, trials, rng(seed))
        return evaluate_expression(parse(text, sc.channels), sc, trials, rng(seed))

    with monkeypatch.context() as frozen:  # every trace's row of the blocks through the scalar loop, with records
        frozen.setattr(Scenario, "fail_steps", lambda self, batch: [
            self.config.roll({name: block[i] for name, block in batch.blocks.items()}, [])
            for i in range(len(batch))])
        ref_report, ref_fails = trial_batch()
    seen = _roll_spy(monkeypatch, type(sc.config))
    report, fails = trial_batch()
    assert report == ref_report and report.n_failures > 0
    _assert_same_results(sc, fails, ref_fails)
    assert seen["records"] == len(fails)  # the failing trials, rolled again for their records
    if lockstep:
        assert seen["lanes"] == [trials] and seen["roll"] == 0
    else:
        assert seen["lanes"] == [] and 0 < seen["roll"] <= trials
