"""Self-tests for the benchmark: tiny runs of each workload, and a planted
wrong value for every check.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run  # noqa: I001  (puts the checkout's src on sys.path first)
import checks
import workloads
from run import sf

ROOT = Path(__file__).resolve().parent.parent


def _tiny(wl):
    """Few trials per phase.  The crosswalk search keeps its size: smaller
    populations find no formula that beats the baseline by the claim margin."""
    search = wl.search if wl.oracle else dataclasses.replace(wl.search, population=300)
    oracle = wl.oracle and dataclasses.replace(wl.oracle, per_trial=5, batch=20, batches=1, draws=200_000)
    return dataclasses.replace(wl, search=search, searches=1, batches=4, reeval_trials=2, is_trials=100,
                               claim_trials=150, oracle=oracle)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", {k: _tiny(v) for k, v in workloads.WORKLOADS.items()})


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run(tiny, name):
    out = run.bench(name, seed=5, seconds=1e-3, trace=False)
    assert out["correct"]
    assert set(out["metrics"]) == {m for m, _, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in out["metrics"].values())
    wl = run.WORKLOADS[name]
    oracle_ops = 2 * wl.oracle.batches if wl.oracle else 0
    assert out["attempted"] == 1 + wl.searches + 2 * wl.batches + oracle_ops
    assert out["failed"] <= oracle_ops


def test_tiny_traced_run_repeats_its_counts(tiny):
    first, second = (run.bench("left-turn", seed=2, seconds=1e-3, trace=True) for _ in range(2))
    assert first["correct"]
    assert set(first["metrics"]) == {m for m, _, _ in run.per_layer_metrics()}
    for name, v in first["metrics"].items():
        if name.endswith(".calls") or name in ("samplers.traces", "sim.steps", "sim.failures",
                                               "optimize.cache_hit_ratio"):
            assert v["value"] == second["metrics"][name]["value"], name


# ---------------------------------------------------------------------------
# Planted wrong values


@pytest.fixture(scope="module")
def lt():
    sc = sf.scenario("lt1")
    formula = sf.parse("G_[0,1](disturbance = a_maj)", sc.channels)
    report, fails = sf.evaluate_expression(formula, sc, trials=60, rng=np.random.default_rng(0))
    assert fails
    return sc, formula, report, fails


@pytest.fixture(scope="module")
def pc():
    sc = sf.scenario("pc1")
    report, fails = sf.importance_sample(sc, trials=150, rng=np.random.default_rng(0))
    assert len(fails) > 1
    return sc, report, fails


def _plant(res, channel, step, value):
    values = {k: v.copy() for k, v in res.trace.values.items()}
    values[channel][step] = value
    return dataclasses.replace(res, trace=dataclasses.replace(res.trace, values=values))


def test_formula_check_catches_a_broken_trace(lt):
    sc, formula, _, fails = lt
    pred = workloads.LEFT_TURN.formulas[0].predicate
    assert checks.traces_satisfy(fails, pred, "x") == []
    assert checks.traces_satisfy(fails, lambda v: checks.holds(formula, v), "x") == []
    broken = fails[:-1] + [_plant(fails[-1], "disturbance", 1, "none")]
    assert checks.traces_satisfy(broken, pred, "x")
    assert checks.traces_satisfy(broken, lambda v: checks.holds(formula, v), "x")


def test_bloated_predicates_agree_with_the_generic_evaluator():
    rng = np.random.default_rng(3)
    for wl in workloads.WORKLOADS.values():
        sc = sf.scenario(wl.scenario)
        f = wl.formulas[1]
        formula = sf.parse(f.text, sc.channels)
        for _ in range(200):
            values = sf.sample_trace(sc.proposal, sc.horizon, sc.dt, rng=rng).values
            assert f.predicate(values) == checks.holds(formula, values)
        report, fails = sf.evaluate_expression(formula, sc, trials=20, rng=rng)
        assert checks.traces_satisfy(fails, f.predicate, "x") == []


def test_likelihood_check_catches_a_wrong_statistic(lt, pc):
    sc, _, report, fails = lt
    assert checks.report_matches(report, fails, sc.model, 60, "x") == []
    assert checks.report_matches(dataclasses.replace(report, likelihood=report.likelihood * 1.001),
                                 fails, sc.model, 60, "x")
    assert checks.report_matches(report, fails[1:], sc.model, 60, "x")
    sc, report, fails = pc
    assert checks.report_matches(report, fails, sc.model, 150, "x") == []
    assert checks.report_matches(dataclasses.replace(report, likelihood=report.likelihood + 1e-3),
                                 fails, sc.model, 150, "x")
    wrong = [_plant(fails[0], "n_x", 3, fails[0].trace.values["n_x"][3] + 0.1)] + fails[1:]
    assert checks.report_matches(report, wrong, sc.model, 150, "x")


def test_collision_check_catches_a_moved_agent(lt, pc):
    for fails in (lt[3], pc[2]):
        assert checks.collisions_rederived(fails, "x") == []
        last = dict(fails[0].records[-1])
        key = "adv_y" if "adv_y" in last else "ped_y"
        last[key] += 50.0
        moved = dataclasses.replace(fails[0], records=fails[0].records[:-1] + (last,))
        assert checks.collisions_rederived([moved] + fails[1:], "x")


def test_search_check_catches_rising_cost_and_lost_lookups():
    sc = sf.scenario("lt1")
    cfg = sf.GpConfig(population=20, generations=3, seed=1)
    best, history = sf.run(sc, cfg)
    assert checks.search_consistent(best, history, cfg, 60, 40) == []
    assert checks.search_consistent(best, history, cfg, 59, 40)
    risen = [dict(r) for r in history]
    risen[-1]["best_so_far_cost"] = risen[0]["best_so_far_cost"] + 1.0
    assert checks.search_consistent(best, risen, cfg, 60, 40)


def test_claim_check_catches_a_baseline_that_wins(lt):
    sc, _, _, fails = lt
    _, is_fails = sf.importance_sample(sc, trials=300, rng=np.random.default_rng(1))
    best = checks.failure_stats(fails, sc.model, 60)
    baseline = checks.failure_stats(is_fails, sc.model, 300)
    assert checks.claim_holds(best, baseline) == []
    assert checks.claim_holds(baseline, best)
    assert checks.claim_holds(best[:2] + baseline[2:], baseline)


def test_oracle_gap_passes_exact_draws_and_catches_a_shift():
    mean, se = checks.rejection_oracle(1.0, 0.4, 0.2, 15, -0.4, 400_000, np.random.default_rng(0))
    assert mean == pytest.approx(-1.31, abs=0.03)
    t = np.arange(15) * 0.2
    chol = np.linalg.cholesky(np.exp(-np.subtract.outer(t, t) ** 2 / 0.32))
    x = np.random.default_rng(1).standard_normal((100_000, 15)) @ chol.T
    exact = x[(x <= -0.4).all(axis=1)].mean(axis=1)
    assert checks.oracle_gap(exact, mean, se) < checks.ORACLE_Z
    assert checks.oracle_gap(exact + 0.7, mean, se) > checks.ORACLE_Z


def test_speed_clock_scales_each_stretch_by_its_nearest_blocks():
    import speed

    clock = speed.SpeedClock()
    # ticks at 0, 1, 2, 3 s; the machine runs at half speed around the last stretch
    clock.start = [0.0, 1.0, 2.0, 3.0]
    clock.block = [speed.REF_S, speed.REF_S, 2 * speed.REF_S, 2 * speed.REF_S]
    assert clock.raw(0, 3) == pytest.approx(3.0 - 4 * speed.REF_S)
    assert clock.scaled(0, 1) == pytest.approx(1.0 - speed.REF_S)
    assert clock.scaled(2, 3) == pytest.approx((1.0 - 2 * speed.REF_S) / 2)
    first = clock.tick()
    assert clock.block[first] > 0 and clock.sink != 0.0
