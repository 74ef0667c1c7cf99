import ast
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import stlfalsify
from stlfalsify.constraints import InfeasibleError, constraints_for
from stlfalsify.grammar import sample_expression
from stlfalsify.samplers import GP_JITTER, sample_traces, se_kernel
from stlfalsify.sim import (
    CAR_LENGTH,
    CAR_WIDTH,
    PED_SIZE,
    IDM_B,
    LT_OFFSETS,
    LT_SYMBOLS,
    CrosswalkConfig,
    LeftTurnConfig,
    Scenario,
    boxes_overlap,
    fail_steps,
    idm_accel,
    run,
    scenario,
    scenario_names,
)
from stlfalsify.stl import CategoricalChannel, SignalTrace, TraceBatch, parse


def lt_trace(sc: Scenario, symbols):
    """Pad a symbol prefix with 'none' out to the horizon."""
    m = sc.horizon
    syms = list(symbols) + ["none"] * (m - len(symbols))
    return SignalTrace(
        dt=sc.dt,
        channels=sc.channels,
        values={"disturbance": np.array(syms, dtype=object)},
    )


def pc_trace(sc: Scenario, **columns):
    m = sc.horizon
    values = {ch.name: np.zeros(m) for ch in sc.channels}
    for name, arr in columns.items():
        values[name] = np.asarray(arr, dtype=float)
    return SignalTrace(dt=sc.dt, channels=sc.channels, values=values)


# ---------------------------------------------------------------------------
# car-following model


def test_idm_free_road_acceleration():
    assert idm_accel(math.inf, 0.0, 0.0) == pytest.approx(3.0)
    assert idm_accel(math.inf, 29.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_idm_closing_on_slower_lead():
    # frozen reference value for a 20 m gap at matched speeds
    assert idm_accel(20.0, 10.0, 10.0) == pytest.approx(
        -0.042415956317220505, abs=1e-9
    )


def test_idm_braking_is_clamped():
    a = idm_accel(0.5, 25.0, 0.0)
    assert a == pytest.approx(-2.0 * IDM_B)


# ---------------------------------------------------------------------------
# collision geometry


def test_boxes_overlap_axis_aligned():
    a = (0.0, 0.0, 0.0)
    assert boxes_overlap(a, (4.5, 2.0), (4.0, 0.0, 0.0), (4.5, 2.0))
    assert not boxes_overlap(a, (4.5, 2.0), (5.0, 0.0, 0.0), (4.5, 2.0))
    # closed overlap: exact touching counts
    assert boxes_overlap(a, (4.5, 2.0), (4.5, 0.0, 0.0), (4.5, 2.0))


def test_boxes_overlap_uses_heading_extents():
    a = (0.0, 0.0, 0.0)
    # a rotated car reaches further in y than its width alone
    close = (0.0, CAR_WIDTH / 2 + CAR_LENGTH / 2 - 0.1, math.pi / 2)
    assert boxes_overlap(a, (CAR_LENGTH, CAR_WIDTH), close, (CAR_LENGTH, CAR_WIDTH))


# ---------------------------------------------------------------------------
# scenario registry


def test_registry_names_and_lookup():
    assert scenario_names() == ("lt1", "lt2", "lt3", "pc1", "pc2")
    assert isinstance(scenario("lt1").config, LeftTurnConfig)
    assert isinstance(scenario("pc2").config, CrosswalkConfig)
    with pytest.raises(KeyError):
        scenario("nope")


def test_lt_channel_has_alias_for_signal_symbol():
    sc = scenario("lt2")
    (ch,) = sc.channels
    assert ch.resolve("B") == "S"
    assert ch.resolve("S") == "S"


@pytest.mark.parametrize("name", ["lt1", "lt2", "lt3"])
def test_left_turn_disturbances_are_pinned(name):
    # the symbol order fixes the categorical CDF, and so every lt draw
    assert LT_SYMBOLS == ("none", "d_med", "d_maj", "a_med", "a_maj", "S", "L")
    assert list(LT_OFFSETS.items()) == [
        ("none", 0.0), ("d_med", -1.5), ("d_maj", -3.0), ("a_med", 1.5),
        ("a_maj", 3.0), ("S", 0.0), ("L", 0.0),
    ]
    sc = scenario(name)
    assert sc.channels[0].symbols == LT_SYMBOLS
    assert sc.model.models["disturbance"].probs == (
        ("L", 1e-3), ("S", 1e-3), ("a_maj", 1e-3), ("a_med", 1e-2),
        ("d_maj", 1e-3), ("d_med", 1e-2), ("none", 0.976),
    )
    assert sc.proposal.models["disturbance"].probs == tuple((s, 1.0 / 7) for s in sorted(LT_SYMBOLS))
    assert sc.phrases == {
        ("disturbance", "none"): "nothing unusual happens",
        ("disturbance", "d_med"): "the oncoming car slows moderately",
        ("disturbance", "d_maj"): "the oncoming car brakes hard",
        ("disturbance", "a_med"): "the oncoming car speeds up moderately",
        ("disturbance", "a_maj"): "the oncoming car accelerates hard",
        ("disturbance", "S"): "the oncoming car toggles its turn signal",
        ("disturbance", "L"): "the oncoming car decides to turn",
    }


# ---------------------------------------------------------------------------
# nominal behavior


@pytest.mark.parametrize("name", scenario_names())
def test_zero_disturbance_is_safe(name):
    sc = scenario(name)
    res = sc.run(sc.nominal_trace())
    assert not res.failure
    assert res.fail_step is None
    assert len(res.records) == sc.horizon


# ---------------------------------------------------------------------------
# left-turn failure routes


def test_lt1_hard_acceleration_prefix_causes_collision():
    sc = scenario("lt1")
    res = sc.run(lt_trace(sc, ["a_maj", "a_maj", "a_maj"]))
    assert res.failure
    t_fail = res.fail_step * sc.dt
    assert 1.0 <= t_fail <= 2.1


def test_lt1_single_hard_acceleration_is_absorbed():
    sc = scenario("lt1")
    assert not sc.run(lt_trace(sc, ["a_maj"])).failure
    assert not sc.run(lt_trace(sc, ["none", "a_maj"])).failure


def test_lt1_braking_disturbances_yield_no_collision():
    sc = scenario("lt1")
    assert not sc.run(lt_trace(sc, ["d_maj", "d_maj", "d_maj"])).failure


def test_lt2_spurious_signal_causes_collision():
    sc = scenario("lt2")
    assert not sc.run(sc.nominal_trace()).failure
    assert sc.run(lt_trace(sc, ["S"])).failure


def test_lt3_signal_route_collides():
    sc = scenario("lt3")
    assert sc.run(lt_trace(sc, ["S"])).failure


def test_lt_rollout_truncates_at_collision():
    sc = scenario("lt1")
    res = sc.run(lt_trace(sc, ["a_maj", "a_maj", "a_maj"]))
    assert len(res.records) == res.fail_step
    assert res.records[-1]["collision"] == True  # noqa: E712


# ---------------------------------------------------------------------------
# crosswalk failure routes


def test_pc1_false_slow_reading_with_steady_walker_collides():
    sc = scenario("pc1")
    m = sc.horizon
    n_vy = np.zeros(m)
    n_vy[:3] = -1.4  # ego reads the walker as nearly stopped and commits early
    res = sc.run(pc_trace(sc, n_vy=n_vy))
    assert res.failure


def test_pc1_walker_leaving_the_road_is_safe():
    sc = scenario("pc1")
    a_y = np.full(sc.horizon, -2.0)  # walker turns around and heads away
    res = sc.run(pc_trace(sc, a_y=a_y))
    assert not res.failure


def test_pc_records_expose_disturbances_and_pose():
    sc = scenario("pc1")
    res = sc.run(sc.nominal_trace())
    rec = res.records[0]
    for key in ("t", "ego_x", "ped_y", "a_x", "a_y", "n_vy", "collision"):
        assert key in rec


# ---------------------------------------------------------------------------
# run() validation and output


def test_run_rejects_wrong_channels():
    sc = scenario("lt1")
    other = scenario("pc1")
    with pytest.raises(ValueError):
        run(sc, other.nominal_trace())


def test_run_rejects_short_trace():
    sc = scenario("lt1")
    short = SignalTrace(
        dt=sc.dt,
        channels=sc.channels,
        values={"disturbance": np.array(["none"] * 3, dtype=object)},
    )
    with pytest.raises(ValueError):
        sc.run(short)


def test_fail_step_rejects_what_run_rejects():
    sc = scenario("lt1")
    short = SignalTrace(
        dt=sc.dt, channels=sc.channels, values={"disturbance": np.array(["none"] * 3, dtype=object)}
    )
    for bad in (scenario("pc1").nominal_trace(), short):
        assert _raised(fail_steps, sc, TraceBatch.from_traces(bad.channels, [bad])) == _raised(run, sc, bad)


# Formulas whose constraint draws push rollouts toward each scenario's failure
# route, so that the sampled traces mix failing and safe rollouts.
AGREEMENT_FORMULAS = {
    "lt": "F_[0,6](disturbance = a_maj) & G_[0,2](disturbance = a_med | disturbance = a_maj)",
    "pc": "G_[0,2](n_vy <= -0.8) | F_[0,10](n_y >= 0.5)",
}


def _lt_overlap(rec):
    ego = (rec["ego_x"], rec["ego_y"], rec["ego_heading"])
    adv = (rec["adv_x"], rec["adv_y"], -math.pi / 2)
    return boxes_overlap(ego, (CAR_LENGTH, CAR_WIDTH), adv, (CAR_LENGTH, CAR_WIDTH))


def _pc_overlap(rec):
    ego = (rec["ego_x"], rec["ego_y"], 0.0)
    ped = (rec["ped_x"], rec["ped_y"], math.pi / 2)
    return boxes_overlap(ego, (CAR_LENGTH, CAR_WIDTH), ped, (PED_SIZE, PED_SIZE))


@pytest.mark.parametrize("name", scenario_names())
def test_fail_step_agrees_with_run(name):
    # 100 traces under each of the model and the proposal, with and without
    # a constraint draw: 400 per scenario, 2000 over the five.  Every
    # record's collision flag also matches the reference box test on the
    # poses it reports.
    sc = scenario(name)
    overlap = _lt_overlap if name.startswith("lt") else _pc_overlap
    formula = parse(AGREEMENT_FORMULAS[name[:2]], sc.channels)
    rng = np.random.default_rng(17)
    steps = []
    for model in (sc.model, sc.proposal):
        for constrained in (False, True):
            cs = constraints_for(formula, sc.channels, sc.horizon, rng) if constrained else None
            batch = sample_traces(model, sc.horizon, sc.dt, cs, rng=rng, size=100)
            lockstep = fail_steps(sc, batch)
            # the scalar loop just below the scenario's own lane count, the
            # lockstep at it and at twice it
            lanes = sc.config.lockstep_lanes
            for n in (lanes - 1, lanes, 2 * lanes):
                assert fail_steps(sc, batch.take(range(n))) == lockstep[:n]
            for trace, step in zip(batch, lockstep):
                res = run(sc, trace)
                assert step == res.fail_step
                assert res.failure == (res.fail_step is not None)
                assert [r["collision"] for r in res.records] == [overlap(r) for r in res.records]
                steps.append(res.fail_step)
    assert len(steps) == 400
    assert any(s is None for s in steps) and any(s is not None for s in steps)


def _lockstep_traces(sc: Scenario, n: int, rng) -> TraceBatch:
    """A batch of n traces: a quarter each unconstrained from the model and
    the proposal, the rest from either under the constraint draws of random
    formulas."""
    m, dt = sc.horizon, sc.dt
    batches = [sample_traces(model, m, dt, None, rng=rng, size=n // 4) for model in (sc.model, sc.proposal)]
    drawn = 2 * (n // 4)
    while drawn < n:
        formula = sample_expression(sc.grammar, rng)
        try:
            cs = constraints_for(formula, sc.channels, m, rng)
        except InfeasibleError:
            continue
        model = (sc.model, sc.proposal)[drawn % 2]
        batches.append(sample_traces(model, m, dt, cs, rng=rng, size=min(25, n - drawn)))
        drawn += len(batches[-1])
    return TraceBatch(dt, sc.channels, {ch.name: np.concatenate([b.blocks[ch.name] for b in batches])
                                        for ch in sc.channels})


@pytest.mark.parametrize("names,per_scenario", [(("lt1", "lt2", "lt3"), 7000), (("pc1", "pc2"), 10500)])
def test_lockstep_fail_steps_match_roll(names, per_scenario):
    # over 20 000 traces per scenario kind; None means no collision
    for name in names:
        sc = scenario(name)
        batch = _lockstep_traces(sc, per_scenario, np.random.default_rng(41))
        want = [sc.config.roll(t.values) for t in batch]
        assert sc.config.roll_lanes(batch.blocks) == want
        assert fail_steps(sc, batch) == want
        failing = sum(s is not None for s in want)
        assert 0 < failing < len(want), name


@pytest.mark.parametrize("name", scenario_names())
def test_fail_steps_agree_below_and_above_the_lockstep_lanes(monkeypatch, name):
    sc = scenario(name)
    lanes = sc.config.lockstep_lanes
    calls = []  # lanes of each roll_lanes call
    real = type(sc.config).roll_lanes

    def counting(self, blocks):
        calls.append(len(next(iter(blocks.values()))))
        return real(self, blocks)

    monkeypatch.setattr(type(sc.config), "roll_lanes", counting)
    batch = _lockstep_traces(sc, 3 * lanes, np.random.default_rng(43))
    for n in (0, 1, lanes - 1, lanes, 2 * lanes, len(batch)):
        part = batch.take(range(n))
        calls.clear()
        assert fail_steps(sc, part) == [run(sc, t).fail_step for t in part]
        assert calls == ([n] if n >= lanes else []), n
    # traces past the horizon roll their first horizon steps only
    part = batch.take(range(2 * lanes))
    longer = TraceBatch(sc.dt, sc.channels, {k: np.concatenate([v, v[:, :3]], axis=1) for k, v in part.blocks.items()})
    assert fail_steps(sc, longer) == fail_steps(sc, part)


def _raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_roll_raises_on_unknown_symbols():
    # roll reads a trace's symbols; roll_lanes reads a batch's symbol
    # indices, which cannot name an unknown symbol
    cfg = scenario("lt1").config
    good = {"disturbance": np.array(["none"] * cfg.horizon, dtype=object)}
    late = {"disturbance": np.array(["none"] * 20 + ["zz", "none", "none", "none"], dtype=object)}
    early = {"disturbance": np.array(["none", "q"] + ["none"] * 22, dtype=object)}
    # the a_maj prefix collides at step 10, before roll reaches the unknown symbol
    crash = {"disturbance": np.array(["a_maj"] * 3 + ["none"] * 17 + ["zz"] * 4, dtype=object)}
    assert cfg.roll(good) is None and cfg.roll(crash) == 10
    assert _raised(cfg.roll, late) == "unknown disturbance symbol 'zz'"
    assert _raised(cfg.roll, early) == "unknown disturbance symbol 'q'"


@pytest.mark.parametrize("n", sorted({n for cfg in (LeftTurnConfig, CrosswalkConfig)
                                       for n in (1, cfg.lockstep_lanes - 1, cfg.lockstep_lanes,
                                                 2 * cfg.lockstep_lanes)}))
def test_fail_steps_reject_what_fail_step_rejects(n):
    # a batch that run would reject trace by trace, below and above each
    # scenario kind's lane count
    sc = scenario("lt1")
    short = SignalTrace(
        dt=sc.dt, channels=sc.channels, values={"disturbance": np.array(["none"] * 3, dtype=object)}
    )
    # the scenario's channel name with its symbols in another order: the
    # batch's symbol indices would read as other symbols
    reordered = (CategoricalChannel("disturbance", symbols=LT_SYMBOLS[::-1]),)
    for bad in (short, scenario("pc1").nominal_trace(),
                SignalTrace(dt=sc.dt, channels=reordered, values=sc.nominal_trace().values)):
        assert _raised(fail_steps, sc, TraceBatch.from_traces(bad.channels, [bad] * n)) == _raised(run, sc, bad)
    other = scenario("pc2")
    assert _raised(fail_steps, other, TraceBatch.from_traces(sc.channels, [sc.nominal_trace()] * n)) == (
        _raised(run, other, sc.nominal_trace())
    )


@pytest.mark.parametrize("lo,hi", [(0.0, 40.0), (0.0, 2.0), (1e-3, 1e4)])
def test_float_power_matches_python_pow(lo, hi):
    # The lockstep rolls use np.float_power where the scalar loops use **:
    # both must call libm pow, or lockstep fail steps drift from roll's.
    # Speeds reach 0-40 m/s, ratios such as v/v0 0-2; s_star/gap spans more.
    x = np.random.default_rng(45).uniform(lo, hi, 100_000)
    for p in (2.0, 4.0):
        got = np.float_power(x, p)
        want = np.array([v ** p for v in x.tolist()])
        assert np.array_equal(got, want), f"np.float_power(x, {p}) differs from ** on this platform"
    squares = np.array([v ** 2 for v in x.tolist()])
    assert np.array_equal(np.float_power(x, 2.0), squares)


@pytest.mark.parametrize("n", [1, 2, 15, 64, 200])
def test_stacked_linear_algebra_matches_per_row_calls(n):
    # The GP sampler and the likelihoods solve and multiply a batch's rows
    # as one stacked (n, k, 1) call, and sum rows along axis 1; building a
    # chunk multiplies its unconstrained GP rows as one (n, 1, k) @ L.T and
    # its draws' normals as one (draws, size, k) @ L.T.  That keeps the
    # draws and scores of one call per row or per draw only while numpy
    # runs the same LAPACK and BLAS routine once per row or per draw.
    rng = np.random.default_rng(47)
    for k in range(1, 31):
        L = np.linalg.cholesky(se_kernel(np.arange(k) * 0.2, 1.0, 0.4) + GP_JITTER * np.eye(k))
        A = rng.normal(size=(k + 3, k))
        X = rng.normal(size=(n, k))
        Z = rng.normal(size=(n, 15, k))
        stacked = X[:, :, None]
        cases = {
            "solve": (np.linalg.solve(L, stacked)[:, :, 0], [np.linalg.solve(L, x) for x in X]),
            "two solves": (np.linalg.solve(L.T, np.linalg.solve(L, stacked))[:, :, 0],
                           [np.linalg.solve(L.T, np.linalg.solve(L, x)) for x in X]),
            "matvec": ((A @ stacked)[:, :, 0], [A @ x for x in X]),
            "square matvec": ((L @ stacked)[:, :, 0], [L @ x for x in X]),
            "row times factor": ((X[:, None, :] @ L.T)[:, 0], [(x[None, :] @ L.T)[0] for x in X]),
            "block times factor": (Z @ L.T, [z @ L.T for z in Z]),
            "vecdot": (np.vecdot(X, X), [np.dot(x, x) for x in X]),
            "row sum": (np.sum(X, axis=1), [np.sum(x) for x in X]),
        }
        for what, (got, want) in cases.items():
            assert np.array_equal(got, np.array(want)), f"stacked {what} differs per row at k={k}, n={n}"


def test_lockstep_transcendentals_match_math():
    # the left-turn arc (cos, sin) and the crosswalk arrival time (sqrt)
    rng = np.random.default_rng(46)
    angles = rng.uniform(-1.0, 2.0 + math.pi / 2, 100_000)
    roots = rng.uniform(0.0, 2000.0, 100_000)
    cases = ((np.cos, math.cos, angles), (np.sin, math.sin, angles), (np.sqrt, math.sqrt, roots))
    for np_fn, math_fn, x in cases:
        assert np.array_equal(np_fn(x), [math_fn(v) for v in x.tolist()]), np_fn.__name__


def test_rollout_csv_is_stable(tmp_path):
    sc = scenario("lt1")
    res = sc.run(lt_trace(sc, ["a_maj", "a_maj", "a_maj"]))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    res.to_csv(p1)
    sc.run(lt_trace(sc, ["a_maj", "a_maj", "a_maj"])).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.startswith("t,")
    assert "disturbance" in header


# ---------------------------------------------------------------------------
# pinned rollouts: the full CSV of two failing runs, one per scenario kind

LT1_A_MAJ_CSV = (
    "t,ego_x,ego_y,ego_heading,ego_v,adv_x,adv_y,adv_v,signal,intent,adv_mode,committed,disturbance,collision\n"
    "0.18,1.85,-13.308,1.5707963267948966,9.4,-1.85,27.00697427698468,11.0723651278629,0,0,normal,1,a_maj,0\n"
    "0.36,1.85,-11.543645320197044,1.5707963267948966,9.801970443349754,-1.85,24.821614104713834,12.140889845949129,0,0,normal,1,a_maj,0\n"
    "0.54,1.85,-9.70646378033906,1.5707963267948966,10.206564110322136,-1.85,22.444839839934847,13.20430147099438,0,0,continue,1,a_maj,0\n"
    "0.72,1.85,-7.795739907152896,1.5707963267948966,10.615132628812026,-1.85,19.975043263114692,13.721092093445295,0,0,continue,1,none,0\n"
    "0.9,1.8476999694146148,-5.809986342464914,1.5950042525979826,11.03206735948401,-1.85,17.412917808109086,14.234030305586696,0,0,continue,1,none,0\n"
    "1.08,1.5519663479146546,-3.857500459751604,1.84723355196104,11.0,-1.85,14.759233739122733,14.742689272146402,0,0,continue,1,none,0\n"
    "1.26,0.7783212932486299,-2.040598473823069,2.0994628513240974,11.0,-1.85,12.014841709161601,15.246622388672952,0,0,continue,1,none,0\n"
    "1.44,-0.4242765790648173,-0.4742594764832777,2.3516921506871546,11.0,-1.85,9.180675916977489,15.745365512133965,0,0,continue,1,none,0\n"
    "1.62,-1.97972321265122,0.7423938295760033,2.603921450050212,11.0,-1.85,6.257756789605043,16.238439596513583,0,0,continue,1,none,0\n"
    "1.8,-3.789585206774375,1.5323679173211735,2.8561507494132696,11.0,-1.85,3.2471931189578265,16.72535372581787,0,0,continue,1,none,1\n"
)

PC1_FALSE_SLOW_CSV = (
    "t,ego_x,ego_y,ego_v,ped_x,ped_y,ped_vx,ped_vy,perc_x,perc_y,perc_vx,perc_vy,committed,a_x,a_y,n_x,n_y,n_vx,n_vy,collision\n"
    "0.2,-32.66,0.0,11.7,0.0,-3.7,0.0,1.5,0.0,-4.0,0.0,0.10000000000000009,1,0.0,0.0,0.0,0.0,0.0,-1.4,0\n"
    "0.4,-30.319999999999997,0.0,11.7,0.0,-3.4000000000000004,0.0,1.5,0.0,-3.7,0.0,0.10000000000000009,1,0.0,0.0,0.0,0.0,0.0,-1.4,0\n"
    "0.6,-27.979999999999997,0.0,11.7,0.0,-3.1000000000000005,0.0,1.5,0.0,-3.4000000000000004,0.0,0.10000000000000009,1,0.0,0.0,0.0,0.0,0.0,-1.4,0\n"
    "0.8,-25.639999999999997,0.0,11.7,0.0,-2.8000000000000007,0.0,1.5,0.0,-3.1000000000000005,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,0\n"
    "1.0,-23.299999999999997,0.0,11.7,0.0,-2.500000000000001,0.0,1.5,0.0,-2.8000000000000007,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,0\n"
    "1.2,-20.959999999999997,0.0,11.7,0.0,-2.200000000000001,0.0,1.5,0.0,-2.500000000000001,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,0\n"
    "1.4,-18.619999999999997,0.0,11.7,0.0,-1.900000000000001,0.0,1.5,0.0,-2.200000000000001,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,0\n"
    "1.6,-16.279999999999998,0.0,11.7,0.0,-1.600000000000001,0.0,1.5,0.0,-1.900000000000001,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,0\n"
    "1.8,-13.939999999999998,0.0,11.7,0.0,-1.300000000000001,0.0,1.5,0.0,-1.600000000000001,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,0\n"
    "2.0,-11.599999999999998,0.0,11.7,0.0,-1.0000000000000009,0.0,1.5,0.0,-1.300000000000001,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,0\n"
    "2.2,-9.259999999999998,0.0,11.7,0.0,-0.7000000000000008,0.0,1.5,0.0,-1.0000000000000009,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,0\n"
    "2.4,-6.919999999999998,0.0,11.7,0.0,-0.4000000000000008,0.0,1.5,0.0,-0.7000000000000008,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,0\n"
    "2.6,-4.579999999999998,0.0,11.7,0.0,-0.10000000000000075,0.0,1.5,0.0,-0.4000000000000008,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,0\n"
    "2.8,-2.2399999999999984,0.0,11.7,0.0,0.1999999999999993,0.0,1.5,0.0,-0.10000000000000075,0.0,1.5,1,0.0,0.0,0.0,0.0,0.0,0.0,1\n"
)


def test_lt1_failing_rollout_csv_is_pinned(tmp_path):
    sc = scenario("lt1")
    path = tmp_path / "lt1.csv"
    sc.run(lt_trace(sc, ["a_maj", "a_maj", "a_maj"])).to_csv(path)
    assert path.read_text() == LT1_A_MAJ_CSV


def test_pc1_failing_rollout_csv_is_pinned(tmp_path):
    sc = scenario("pc1")
    n_vy = np.zeros(sc.horizon)
    n_vy[:3] = -1.4
    path = tmp_path / "pc1.csv"
    sc.run(pc_trace(sc, n_vy=n_vy)).to_csv(path)
    assert path.read_text() == PC1_FALSE_SLOW_CSV


# ---------------------------------------------------------------------------
# exports


@pytest.mark.parametrize(
    "module",
    ["stlfalsify"]
    + [f"stlfalsify.{m.name}" for m in pkgutil.iter_modules(stlfalsify.__path__)],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_perfbench_traced_functions_resolve():
    # perfbench wraps each function its TRACED dict names, by name, and a
    # name that no longer resolves would crash its traced run.  The dict is
    # read from the source: importing the runner would pin BLAS threads.
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text())
    traced = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)]
    assert len(traced) == 1 and traced[0]
    for name in traced[0]:
        module, function = name.split(".")
        fn = getattr(importlib.import_module(f"stlfalsify.{module}"), function, None)
        assert hasattr(fn, "__code__"), f"perfbench traces {name}, which is no function of stlfalsify"
