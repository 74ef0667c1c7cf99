import ast
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import stlfalsify
from stlfalsify.constraints import InfeasibleError, constraints_for
from stlfalsify.grammar import sample_expression
from stlfalsify.samplers import GP_JITTER, GaussianProcess, IndependentNormal, sample_traces, se_kernel
from stlfalsify.sim import (
    _CONTINUE,
    _MODES,
    _NORMAL,
    _YIELD,
    CAR_LENGTH,
    CAR_WIDTH,
    IDM_A_MAX,
    IDM_B,
    IDM_B_HARD,
    IDM_DELTA,
    IDM_HEADWAY,
    IDM_S0,
    IDM_V0,
    LT_DISTURBANCES,
    LT_SYMBOLS,
    PC_CHANNEL_NAMES,
    PED_SIZE,
    _LT_CODE_OFFSETS,
    _box_extents,
    CrosswalkConfig,
    LeftTurnConfig,
    Scenario,
    fail_steps,
    idm_accel,
    run,
    scenario,
    scenario_names,
)
from stlfalsify.stl import CategoricalChannel, ContinuousChannel, SignalTrace, TraceBatch, parse


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
    assert idm_accel(math.inf, 0.0) == pytest.approx(3.0)
    assert idm_accel(math.inf, 29.0) == pytest.approx(0.0, abs=1e-12)


def test_idm_closing_on_a_standing_leader():
    # at 10 m/s the desired gap is 5 + 15 + 100 / (2 sqrt 6), about 40.4 m:
    # 20 m short of a standing leader brakes at the clamp, 60 m short of it
    # at a frozen reference value
    assert idm_accel(20.0, 10.0) == -IDM_B_HARD
    assert idm_accel(60.0, 10.0) == pytest.approx(1.5966146706874522, abs=1e-9)


def test_idm_braking_is_clamped():
    a = idm_accel(0.5, 25.0)
    assert a == pytest.approx(-2.0 * IDM_B)


def test_idm_desired_speed_is_keyword_only():
    # a stale positional leader speed must not be read as a desired speed
    with pytest.raises(TypeError):
        idm_accel(math.inf, 10.0, 0.0)


def _idm_accel_moving_leader(gap, v, v_lead, v0=IDM_V0):
    """The IDM acceleration with a leader moving at ``v_lead``, as the
    scenarios computed it when every leader's speed was passed in."""
    free = (v / v0) ** IDM_DELTA
    if math.isinf(gap):
        interaction = 0.0
    else:
        gap = max(gap, 0.01)
        s_star = IDM_S0 + max(
            0.0, v * IDM_HEADWAY + v * (v - v_lead) / (2.0 * math.sqrt(IDM_A_MAX * IDM_B))
        )
        interaction = (s_star / gap) ** 2
    a = IDM_A_MAX * (1.0 - free - interaction)
    return min(max(a, -IDM_B_HARD), IDM_A_MAX)


@given(
    gap=st.floats(0.01, 200.0) | st.just(math.inf),
    v=st.floats(0.0, 40.0) | st.sampled_from([0.0, -0.0]),
    v0=st.sampled_from([IDM_V0, CrosswalkConfig.v_cruise]),
)
def test_idm_matches_the_moving_leader_form_at_a_standing_leader(gap, v, v0):
    want = _idm_accel_moving_leader(gap, v, 0.0, v0)
    got = idm_accel(gap, v, v0=v0)
    assert got.hex() == want.hex()


# ---------------------------------------------------------------------------
# collision geometry


def _overlap(pose_a, dims_a, pose_b, dims_b) -> bool:
    """The reference box test: closed axis-aligned overlap of the boxes of
    two poses ``(x, y, heading)``; touching edges count as contact."""
    xa, ya, ha = pose_a
    xb, yb, hb = pose_b
    exa, eya = _box_extents(ha, *dims_a)
    exb, eyb = _box_extents(hb, *dims_b)
    return abs(xa - xb) <= exa + exb and abs(ya - yb) <= eya + eyb


def test_box_extents_axis_aligned():
    # a 4.5 m x 2 m box heading east reaches 2.25 m in x and 1 m in y; two
    # of them side by side overlap 4 m apart, not 5 m apart, and touch
    # 4.5 m apart, which the closed test counts as contact
    assert _box_extents(0.0, 4.5, 2.0) == (2.25, 1.0)
    for x, hit in ((4.0, True), (5.0, False), (4.5, True)):
        assert _overlap((0.0, 0.0, 0.0), (4.5, 2.0), (x, 0.0, 0.0), (4.5, 2.0)) == hit


def test_box_extents_follow_the_heading():
    # a car rotated by pi/2 reaches further in y than its width alone
    ex, ey = _box_extents(math.pi / 2, CAR_LENGTH, CAR_WIDTH)
    assert ex == pytest.approx(CAR_WIDTH / 2) and ey == pytest.approx(CAR_LENGTH / 2)
    close = (0.0, CAR_WIDTH / 2 + CAR_LENGTH / 2 - 0.1, math.pi / 2)
    assert _overlap((0.0, 0.0, 0.0), (CAR_LENGTH, CAR_WIDTH), close, (CAR_LENGTH, CAR_WIDTH))
    assert not _overlap((0.0, 0.0, 0.0), (CAR_LENGTH, CAR_WIDTH), close[:2] + (0.0,), (CAR_LENGTH, CAR_WIDTH))


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
    assert list(_LT_OFFSETS.items()) == [
        ("none", 0.0), ("d_med", -1.5), ("d_maj", -3.0), ("a_med", 1.5),
        ("a_maj", 3.0), ("S", 0.0), ("L", 0.0),
    ]
    assert _LT_CODE_OFFSETS == tuple(_LT_OFFSETS.values())
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


@pytest.mark.parametrize("name,model,proposal", [
    # acceleration, position and velocity variances: sigma**2 and (2 * sigma)**2
    ("pc1", (1.0, 0.04000000000000001, 0.25), (4.0, 0.16000000000000003, 1.0)),
    ("pc2", (1.0, 1.0, 1.0), (4.0, 4.0, 4.0)),
])
def test_crosswalk_models_are_pinned(name, model, proposal):
    sc = scenario(name)
    assert PC_CHANNEL_NAMES == ("a_x", "a_y", "n_x", "n_y", "n_vx", "n_vy")
    assert sc.channels == (
        ContinuousChannel("a_x", -2.0, 2.0), ContinuousChannel("a_y", -2.0, 2.0),
        ContinuousChannel("n_x", -1.0, 1.0), ContinuousChannel("n_y", -1.0, 1.0),
        ContinuousChannel("n_vx", -2.0, 2.0), ContinuousChannel("n_vy", -2.0, 2.0),
    )
    for got, (acc, pos, vel) in ((sc.model, model), (sc.proposal, proposal)):
        assert got.channels == sc.channels
        assert got.models == {
            "a_x": GaussianProcess(acc, 0.4), "a_y": GaussianProcess(acc, 0.4),
            "n_x": IndependentNormal(0.0, pos), "n_y": IndependentNormal(0.0, pos),
            "n_vx": IndependentNormal(0.0, vel), "n_vy": IndependentNormal(0.0, vel),
        }
        assert list(got.models) == list(PC_CHANNEL_NAMES)


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
    return _overlap(ego, (CAR_LENGTH, CAR_WIDTH), adv, (CAR_LENGTH, CAR_WIDTH))


def _pc_overlap(rec):
    ego = (rec["ego_x"], rec["ego_y"], 0.0)
    ped = (rec["ped_x"], rec["ped_y"], math.pi / 2)
    return _overlap(ego, (CAR_LENGTH, CAR_WIDTH), ped, (PED_SIZE, PED_SIZE))


@pytest.mark.parametrize("name", scenario_names())
def test_fail_step_agrees_with_run(name):
    # 100 traces (more on a left turn whose lane count asks for more) under
    # each of the model and the proposal, with and without a constraint
    # draw: 400 per scenario, 2000 over the five.  Every record's collision
    # flag also matches the reference box test on the poses it reports.
    sc = scenario(name)
    if isinstance(sc.config, LeftTurnConfig):
        # the scalar loop just below the lane count, the lockstep at it and
        # at twice it, and over the whole batch
        lanes = sc.config.lockstep_lanes
        size, parts, overlap = max(100, 2 * lanes + 1), (lanes - 1, lanes, 2 * lanes), _lt_overlap
    else:
        # the closed form at every size
        size, parts, overlap = 100, (0, 1, 2, 3), _pc_overlap
    formula = parse(AGREEMENT_FORMULAS[name[:2]], sc.channels)
    rng = np.random.default_rng(17)
    steps = []
    for model in (sc.model, sc.proposal):
        for constrained in (False, True):
            cs = constraints_for(formula, sc.channels, sc.horizon, rng) if constrained else None
            batch = sample_traces(model, sc.horizon, sc.dt, cs, rng=rng, size=size)
            lockstep = fail_steps(sc, batch)
            for n in parts:
                assert fail_steps(sc, batch.take(range(n))) == lockstep[:n]
            for trace, step in zip(batch, lockstep):
                res = run(sc, trace)
                assert step == res.fail_step
                assert res.failure == (res.fail_step is not None)
                assert [r["collision"] for r in res.records] == [overlap(r) for r in res.records]
                steps.append(res.fail_step)
    assert len(steps) == 4 * size
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


def _rows(batch: TraceBatch) -> list[dict]:
    """Each trace of ``batch`` as the row that ``config.roll`` reads: its
    row of each block."""
    return [{name: block[i] for name, block in batch.blocks.items()} for i in range(len(batch))]


def _numpy_roll(config):
    """The config's numpy roll of a whole batch: the left turn's lockstep
    ``roll_lanes``, which its ``fail_steps`` takes only from its lane count
    on, and the crosswalk's closed-form ``fail_steps``."""
    return config.roll_lanes if isinstance(config, LeftTurnConfig) else config.fail_steps


@pytest.mark.parametrize("names,per_scenario", [(("lt1", "lt2", "lt3"), 7000), (("pc1", "pc2"), 10500)])
def test_lockstep_fail_steps_match_roll(names, per_scenario):
    # over 20 000 traces per scenario kind; None means no collision
    for name in names:
        sc = scenario(name)
        batch = _lockstep_traces(sc, per_scenario, np.random.default_rng(41))
        lt = isinstance(sc.config, LeftTurnConfig)  # the crosswalk rolls with records only
        want = [sc.config.roll(row, None if lt else []) for row in _rows(batch)]
        assert _numpy_roll(sc.config)(batch.blocks) == want
        assert fail_steps(sc, batch) == want
        failing = sum(s is not None for s in want)
        assert 0 < failing < len(want), name


@pytest.mark.parametrize("name", ["lt1", "lt2", "lt3"])
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


@pytest.mark.parametrize("name", ["pc1", "pc2"])
def test_crosswalk_batches_roll_in_one_closed_form_call(monkeypatch, name):
    # a batch of any size from 0 to 60 makes one closed-form call and no
    # roll, with run's fail steps
    sc = scenario(name)
    batch = _lockstep_traces(sc, 60, np.random.default_rng(43))
    want = [run(sc, t).fail_step for t in batch]
    calls = []  # lanes of each closed-form call, and None for each roll
    real_lanes, real_roll = CrosswalkConfig.fail_steps, CrosswalkConfig.roll

    def lanes(self, blocks):
        calls.append(len(next(iter(blocks.values()))))
        return real_lanes(self, blocks)

    def roll(self, row, records):
        calls.append(None)
        return real_roll(self, row, records)

    monkeypatch.setattr(CrosswalkConfig, "fail_steps", lanes)
    monkeypatch.setattr(CrosswalkConfig, "roll", roll)
    for n in range(len(batch) + 1):
        part = batch.take(range(n))
        calls.clear()
        assert fail_steps(sc, part) == want[:n]
        assert calls == [n], n
    # traces past the horizon roll their first horizon steps only
    longer = TraceBatch(sc.dt, sc.channels, {k: np.concatenate([v, v[:, :3]], axis=1) for k, v in batch.blocks.items()})
    assert fail_steps(sc, longer) == want


# ---------------------------------------------------------------------------
# the rollouts against verbatim frozen copies of their earlier form, which
# stepped the ego in every rollout; ``self`` is the scenario's config.
# Since then only their call sites changed: ``idm_accel`` takes no leader
# speed (every leader stands), and the offsets by symbol are a table here.

_LT_OFFSETS = {s: offset for s, (offset, _, _) in LT_DISTURBANCES.items()}


def _lt_roll_frozen(self, values, records: list | None = None) -> int | None:
    """Roll ``values["disturbance"]`` to the horizon or the first collision.

    Returns the 1-based step of the first collision, or None.  When
    ``records`` is a list, each step's record is appended to it.
    """
    d0 = self.s_ego + self.turn_entry_y  # distance to the arc entry
    u_clear = d0 + self.u_clear_extra
    if d0 <= 0:
        raise ValueError("ego must start before the turn entry")
    dt, arc_end, r, c = self.dt, d0 + self.arc_len, self.arc_radius, self.turn_entry_y
    y_north, x_ego_lane, x_adv = -self.s_ego, self.lane_half, -self.lane_half
    v_cap, v_cap2 = self.v_turn_max, self.v_turn_max**2
    a_lo, a_hi = -IDM_B_HARD, IDM_A_MAX
    # Box extents of the fixed headings; only the ego on the arc turns.
    ex_adv, ey_adv = _box_extents(-math.pi / 2, CAR_LENGTH, CAR_WIDTH)
    ex_north, ey_north = _box_extents(math.pi / 2, CAR_LENGTH, CAR_WIDTH)
    ex_west, ey_west = _box_extents(math.pi, CAR_LENGTH, CAR_WIDTH)

    u, v_ego, y_adv, v_adv = 0.0, self.v_ego, self.s_adv, self.v_adv
    signal = intent = committed = decided = False
    commit_step, mode = -1, _NORMAL
    obs0 = obs1 = 0.0  # the oncoming car's last two observed accelerations
    for k, symbol in enumerate(values["disturbance"][: self.horizon].tolist()):
        offset = _LT_OFFSETS.get(symbol)
        if offset is None:
            raise ValueError(f"unknown disturbance symbol {symbol!r}")
        if symbol == "S":
            signal = not signal
        elif symbol == "L":
            intent = not intent

        # The ego commits once the intersection looks clear: a turn signal
        # seen from afar, the oncoming car past or visibly braking, or
        # enough time gap to clear the conflict zone.
        if not committed and (
            (signal and y_adv >= self.signal_trust_dist)
            or y_adv <= self.y_receded
            or (obs0 <= self.detect_decel and obs1 <= self.detect_decel
                and k >= self.detect_steps)
            or (y_adv - self.y_contact) / max(v_adv, 0.1)
            > (u_clear - u) / max((v_ego + v_cap) / 2.0, 1.0) + self.t_margin
        ):
            committed, commit_step = True, k
        if not committed:
            a_ego = idm_accel(max(d0 - u, 0.01), v_ego)  # hold short of the turn entry
        else:
            a_ego = idm_accel(math.inf, v_ego)
            if u < d0:
                # pace the approach so the arc entry is hit at no more than the cap
                a_ego = min(a_ego, (v_cap2 - v_ego**2) / (2.0 * max(d0 - u, 0.1)))
            elif u < arc_end:
                a_ego = min(a_ego, (v_cap - v_ego) / dt)
            a_ego = min(max(a_ego, a_lo), a_hi)

        # Oncoming car: its own turn intention makes it yield when it still
        # can.  Once the ego commits, after a reaction delay it decides once
        # and for all: yield if the braking to its stop line is tolerable,
        # else keep going.
        gap = (y_adv - CAR_LENGTH / 2) - self.y_stopline  # front bumper to stop line
        if mode == _NORMAL and intent and not decided:
            if v_adv**2 / (2.0 * max(gap, 0.3)) <= self.b_giveup:
                mode = _YIELD
        if committed and not decided and mode != _CONTINUE and k >= commit_step + self.react_steps:
            decided = True
            mode = _YIELD if v_adv**2 / (2.0 * max(gap, 0.3)) <= self.b_giveup else _CONTINUE
        if mode == _YIELD and committed and u >= u_clear:
            mode = _NORMAL  # ego is through; resume
        if mode == _YIELD:
            a_adv = -min(self.b_yield_hard, v_adv**2 / (2.0 * max(gap - self.stop_margin, 0.3)))
        else:
            a_adv = idm_accel(math.inf, v_adv)
        a_adv += offset

        v_prev = v_adv
        v_ego = max(v_ego + a_ego * dt, 0.0)
        u += v_ego * dt
        v_adv = max(v_adv + a_adv * dt, 0.0)
        y_adv -= v_adv * dt
        obs0, obs1 = obs1, (v_adv - v_prev) / dt

        # ego pose from path length: straight north, quarter arc, straight west
        if u < d0:
            x, y, heading, ex, ey = x_ego_lane, y_north + u, math.pi / 2, ex_north, ey_north
        elif u < arc_end:
            th = (u - d0) / r  # arc centre sits at (-6, -6) by symmetry
            x, y, heading = c + r * math.cos(th), c + r * math.sin(th), math.pi / 2 + th
            ex, ey = _box_extents(heading, CAR_LENGTH, CAR_WIDTH)
        else:
            x, y, heading = c - (u - d0 - self.arc_len), x_ego_lane, math.pi
            ex, ey = ex_west, ey_west
        hit = abs(x - x_adv) <= ex + ex_adv and abs(y - y_adv) <= ey + ey_adv
        if records is not None:
            records.append({
                "t": round((k + 1) * dt, 9),
                "ego_x": x,
                "ego_y": y,
                "ego_heading": heading,
                "ego_v": v_ego,
                "adv_x": x_adv,
                "adv_y": y_adv,
                "adv_v": v_adv,
                "signal": signal,
                "intent": intent,
                "adv_mode": _MODES[mode],
                "committed": committed,
                "disturbance": symbol,
                "collision": hit,
            })
        if hit:
            return k + 1
    return None


def _pc_roll_frozen(self, values, records: list | None = None) -> int | None:
    """Roll the six channels of ``values`` to the horizon or the first collision.

    Returns the 1-based step of the first collision, or None.  When
    ``records`` is a list, each step's record is appended to it.
    """
    columns = [values[name][: self.horizon].tolist() for name in PC_CHANNEL_NAMES]
    dt, x_stop, b_brake, v_cruise = self.dt, self.x_stop, self.b_brake, self.v_cruise
    a_lo, a_hi = -self.b_hard, IDM_A_MAX
    ex_ego, ey_ego = _box_extents(0.0, CAR_LENGTH, CAR_WIDTH)
    ex_ped, ey_ped = _box_extents(math.pi / 2, PED_SIZE, PED_SIZE)

    x_ego, v_ego, committed = self.ego_x0, self.v_cruise, False
    ped_x, ped_y, ped_vx, ped_vy = 0.0, self.ped_y0, 0.0, self.ped_vy0
    for k, (a_x, a_y, n_x, n_y, n_vx, n_vy) in enumerate(zip(*columns)):
        perc_x, perc_y = ped_x + n_x, ped_y + n_y
        perc_vx, perc_vy = ped_vx + n_vx, ped_vy + n_vy
        if not committed and x_ego < 0:
            # commit once the pedestrian looks clear of the lane on arrival
            y_pred = perc_y + perc_vy * self.time_to_crosswalk(x_ego, v_ego)
            committed = y_pred >= self.clear_ahead or y_pred <= -self.clear_behind
        d = x_stop - x_ego
        if committed:
            a = idm_accel(math.inf, v_ego, v0=v_cruise)
        elif d <= 0.1:
            a = -v_ego / dt  # hold at the stop point
        elif v_ego**2 / (2.0 * d) >= b_brake:
            a = -v_ego**2 / (2.0 * d)
        else:
            a = idm_accel(math.inf, v_ego, v0=v_cruise)
        a = min(max(a, a_lo), a_hi)

        v_ego = max(v_ego + a * dt, 0.0)
        x_ego += v_ego * dt
        ped_vx += a_x * dt
        ped_vy += a_y * dt
        ped_x += ped_vx * dt
        ped_y += ped_vy * dt
        # the ego drives along y = 0
        hit = abs(x_ego - ped_x) <= ex_ego + ex_ped and abs(ped_y) <= ey_ego + ey_ped
        if records is not None:
            records.append({
                "t": round((k + 1) * dt, 9),
                "ego_x": x_ego,
                "ego_y": 0.0,
                "ego_v": v_ego,
                "ped_x": ped_x,
                "ped_y": ped_y,
                "ped_vx": ped_vx,
                "ped_vy": ped_vy,
                "perc_x": perc_x,
                "perc_y": perc_y,
                "perc_vx": perc_vx,
                "perc_vy": perc_vy,
                "committed": committed,
                "a_x": a_x,
                "a_y": a_y,
                "n_x": n_x,
                "n_y": n_y,
                "n_vx": n_vx,
                "n_vy": n_vy,
                "collision": hit,
            })
        if hit:
            return k + 1
    return None


def _strict(records) -> list:
    """Records as (key, type, repr) triples: repr tells -0.0 from 0.0."""
    return [[(k, type(v).__name__, repr(v)) for k, v in rec.items()] for rec in records]


def _assert_rolls_match_frozen(sc: Scenario, batch: TraceBatch) -> list:
    """``run``, ``fail_steps`` and the config's numpy roll on ``batch``
    against the frozen roll: the same fail steps, and records of the same
    values, types and zero signs.  Returns the fail steps."""
    frozen = _lt_roll_frozen if isinstance(sc.config, LeftTurnConfig) else _pc_roll_frozen
    want = []
    for trace in batch:
        records = []
        want.append(frozen(sc.config, trace.values, records))
        res = run(sc, trace)
        assert res.fail_step == want[-1]
        assert _strict(res.records) == _strict(records)
    assert fail_steps(sc, batch) == want
    assert _numpy_roll(sc.config)(batch.blocks) == want
    return want


@pytest.mark.parametrize("n", [0, 1, 2, 60, 1024])
@pytest.mark.parametrize("name", scenario_names())
def test_rolls_match_their_frozen_copies(name, n):
    sc = scenario(name)
    steps = _assert_rolls_match_frozen(sc, _lockstep_traces(sc, n, np.random.default_rng(48)))
    assert len(steps) == n
    if n == 1024:
        assert 0 < sum(s is not None for s in steps) < n


def _batch(sc: Scenario, values: list[dict]) -> TraceBatch:
    return TraceBatch.from_traces(sc.channels, [SignalTrace(sc.dt, sc.channels, v) for v in values])


def _first_commit(records) -> int | None:
    return next((i for i, rec in enumerate(records) if rec["committed"]), None)


def test_hand_made_left_turns_reach_every_branch():
    # (scenario, symbol prefix): (fail step, first committed step, the
    # oncoming car's mode at each step as n/y/c)
    cases = {
        # the time-gap rule commits at once; the car decides to yield two
        # steps later and resumes once the ego is through
        ("lt1", ()): (None, 0, "nnyyyyyyyyyynnnnnnnnnnnn"),
        # its own turn intention makes the car yield before any decision
        ("lt1", ("L",)): (None, 0, "yyyyyyyyyyyynnnnnnnnnnnn"),
        # braking it cannot bear: it carries on and hits the turning ego
        ("lt1", ("a_maj", "a_maj", "a_maj")): (10, 0, "nncccccccc"),
        # a turn signal seen from afar
        ("lt2", ("S",)): (7, 0, "nnccccc"),
        # the car has passed: the ego commits behind it
        ("lt2", ()): (None, 10, "nnnnnnnnnnnncccccccccccc"),
        # the car visibly braking, from the third step on
        ("lt3", ("d_maj", "d_maj", "d_maj")): (None, 2, "nnnncccccccccccccccccccc"),
        ("lt3", ("S", "L", "d_med", "a_med", "S")): (9, 0, "nnccccccc"),
    }
    for name in ("lt1", "lt2", "lt3"):
        sc = scenario(name)
        values, longer = [], []
        for (case, prefix), (fail, commit, modes) in cases.items():
            if case != name:
                continue
            symbols = np.array(list(prefix) + ["none"] * (sc.horizon - len(prefix)), dtype=object)
            records = []
            assert _lt_roll_frozen(sc.config, {"disturbance": symbols}, records) == fail, prefix
            assert _first_commit(records) == commit, prefix
            assert "".join(rec["adv_mode"][0] for rec in records) == modes, prefix
            values.append({"disturbance": symbols})
            longer.append({"disturbance": np.concatenate([symbols, ["a_maj"] * 3])})  # past the horizon
        _assert_rolls_match_frozen(sc, _batch(sc, values))
        _assert_rolls_match_frozen(sc, _batch(sc, longer))


@pytest.mark.parametrize("name", ["lt1", "lt2", "lt3"])
def test_every_symbol_at_every_step_rolls_as_its_frozen_copy(name):
    # one symbol at one step of an otherwise quiet trace, for every symbol
    # and step: each symbol index's offset and toggle as run encodes it,
    # as roll reads it below the lockstep lanes and as roll_lanes reads it
    sc = scenario(name)
    h, lanes = sc.horizon, sc.config.lockstep_lanes
    values = []
    for symbol in LT_SYMBOLS:
        for k in range(h):
            symbols = np.array(["none"] * h, dtype=object)
            symbols[k] = symbol
            values.append({"disturbance": symbols})
    batch = _batch(sc, values)
    want = _assert_rolls_match_frozen(sc, batch)  # run, and fail_steps and roll_lanes on all 168
    assert len(want) == len(LT_SYMBOLS) * h > lanes
    below = [fail_steps(sc, batch.take(range(i, min(i + lanes - 1, len(batch)))))
             for i in range(0, len(batch), lanes - 1)]
    assert sum(below, []) == want


def _pc_values(sc: Scenario, m: int | None = None, **columns) -> dict:
    """Zero channels of ``m`` steps (the horizon by default), with prefixes from ``columns``."""
    values = {name: np.zeros(m or sc.horizon) for name in PC_CHANNEL_NAMES}
    for name, prefix in columns.items():
        values[name][: len(prefix)] = prefix
    return values


def _knife_edge(roll, values: dict, channel: str, step: int, lo: float, hi: float) -> list[dict]:
    """Two traces one ulp apart in ``values[channel][step]``, between ``lo``
    and ``hi``, on either side of a point where ``roll``'s fail step changes:
    a collision or a commit decided in the last bit."""
    def at(x):
        out = {name: v.copy() for name, v in values.items()}
        out[channel][step] = x
        return out

    first = roll(at(lo))
    assert roll(at(hi)) != first, (channel, step)
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if roll(at(mid)) == first else (lo, mid)
    return [at(lo), at(hi)]


def test_hand_made_crosswalks_reach_every_branch():
    sc = scenario("pc1")
    cfg = sc.config
    a_y0, a_y_held = np.full(sc.horizon, -0.0), [0.0] * 10 + [-7.5]
    # name: (channels, fail step, first committed step)
    cases = {
        # waits, brakes, and commits once the walker is across
        "nominal": (_pc_values(sc), None, 19),
        # -0.0 everywhere: the same rollout, and every record keeps its zero signs
        "negative zeros": (_pc_values(sc, **{name: a_y0 for name in PC_CHANNEL_NAMES}), None, 19),
        # a walker read as nearly stopped: commits behind it, and hits it
        "commit behind": (_pc_values(sc, n_vy=[-1.4] * 3), 14, 0),
        # a walker read as fast: commits ahead of it, and hits it
        "commit ahead": (_pc_values(sc, n_vy=[4.0]), 14, 0),
        # a walker who stops in the lane: the ego brakes, holds at the stop
        # point and never commits
        "never commits": (_pc_values(sc, a_y=a_y_held), None, None),
        # a walker thrown at the ego
        "collides at step 1": (_pc_values(sc, a_x=[-800.0], a_y=[70.0]), 1, None),
        # a walker drifting west into the held ego at the last step
        "collides at the last step": (_pc_values(sc, a_x=[-0.087] * sc.horizon, a_y=a_y_held), 30, None),
        # steps past the horizon, which would collide at once, are not rolled
        "longer than the horizon": (_pc_values(sc, sc.horizon + 3, n_vy=[-1.4] * 3), 14, 0),
    }
    values = []
    for name, (trace, fail, commit) in cases.items():
        if name == "longer than the horizon":
            trace["a_x"][sc.horizon:] = -800.0
        records = []
        assert _pc_roll_frozen(cfg, trace, records) == fail, name
        assert _first_commit(records) == commit, name
        values.append(trace)
    held = []
    _pc_roll_frozen(cfg, cases["never commits"][0], held)
    speeds = [rec["ego_v"] for rec in held]
    # braked short of the stop point, then held there
    assert any(b < a for a, b in zip(speeds, speeds[1:])) and speeds[-8:] == [0.0] * 8
    assert cfg.x_stop - held[-1]["ego_x"] <= 0.1
    zeros = []
    _pc_roll_frozen(cfg, cases["negative zeros"][0], zeros)
    assert repr(zeros[0]["a_x"]) == "-0.0" and repr(zeros[0]["ped_vx"]) == "0.0"

    # collisions and commits decided in the last bit, on traces with
    # noise in every channel
    def roll(v):
        return _pc_roll_frozen(cfg, v)

    edges = []
    for seed, channel, step, lo, hi in [
        (0, "n_vy", 2, -1.5, 0.0), (0, "n_vy", 2, 0.0, 1.5), (0, "n_y", 6, 1.5, 3.0),
        (1, "a_y", 0, -3.0, -1.5), (3, "a_y", 0, -3.0, -1.5), (3, "a_y", 0, -1.5, 0.0),
        (3, "a_y", 5, -3.0, -1.5), (3, "a_y", 5, -1.5, 0.0), (4, "a_y", 0, -3.0, -1.5),
        (5, "a_y", 0, -3.0, -1.5), (5, "n_y", 6, -3.0, -1.5),
    ]:
        r = np.random.default_rng(seed)
        noisy = {name: r.normal(0.0, 0.4, sc.horizon) for name in PC_CHANNEL_NAMES}
        edges += _knife_edge(roll, noisy, channel, step, lo, hi)
    for batch in (values[:-1], [values[-1]], edges):
        for name in ("pc1", "pc2"):
            _assert_rolls_match_frozen(scenario(name), _batch(scenario(name), batch))


@pytest.mark.parametrize("name", ["pc1", "pc2"])
def test_a_waiting_crosswalk_ego_decides_at_every_step(name):
    # a waiting ego holds at x_stop, short of the crosswalk, so at every step
    # it has a finite arrival time, taken where it stands before the step
    cfg = scenario(name).config
    arrive, rows = cfg._ego
    before = [(cfg.ego_x0, cfg.v_cruise)] + list(rows[cfg.horizon][:-1])
    assert len(arrive) == len(before) == cfg.horizon
    assert all(x < 0 for x, _ in before) and all(math.isfinite(t) for t in arrive)
    assert list(arrive) == [cfg.time_to_crosswalk(x, v) for x, v in before]


def test_a_waiting_crosswalk_ego_past_the_crosswalk_is_refused():
    class StopPastTheCrosswalk(CrosswalkConfig):
        x_stop = 2.0

    with pytest.raises(ValueError, match="stop short of the crosswalk"):
        StopPastTheCrosswalk()._ego


def _raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("name", ["lt1", "lt2", "lt3"])
def test_left_turn_stops_bound_every_overlap(name):
    # _stops recomputed from the steps at which each row of _ego sets x_hit
    cfg = scenario(name).config
    rows, stops, h = cfg._ego[1], cfg._stops, cfg.horizon
    hits = [[k for k, step in enumerate(row) if step[4]] for row in rows]
    assert len(stops) == h + 1 and hits[h] == []  # a waiting ego never overlaps the lane
    for c in range(h):
        assert stops[c] == (hits[c][-1] + 1 if hits[c] else 0)
    # from its stop on, a waiting ego cannot be hit at whatever step it
    # commits; one step earlier it can
    wait = stops[h]
    assert all(k < wait for c in range(wait, h + 1) for k in hits[c])
    assert wait > 0 and any(k >= wait - 1 for c in range(wait - 1, h + 1) for k in hits[c])
    if name == "lt1":
        assert [s - 1 for s in stops[:17]] == [9, 10, 10, 11, 12, 13, 14, 16, 17, 19, 20, 22, 23, 23, 23, 23, 23]
        assert hits[17:] == [[]] * 8 and wait == 17


def test_early_stop_matches_the_full_loop():
    # roll without records stops at its row's stop step; run's records path
    # steps to the horizon, and roll_lanes steps every lane until none can
    # collide.  Model and proposal traces, and constrained draws that put
    # rare symbols late, in batches on both sides of the lockstep lanes.
    late_formulas = ("F_[12,20](disturbance = L)", "G_[10,23](!disturbance = none)")
    rng = np.random.default_rng(29)
    at_stop = after_wait = 0
    for name in ("lt1", "lt2", "lt3"):
        sc = scenario(name)
        lanes, stops = sc.config.lockstep_lanes, sc.config._stops
        batches = [sample_traces(model, sc.horizon, sc.dt, None, rng=rng, size=2 * lanes)
                   for model in (sc.model, sc.proposal)]
        for text in late_formulas:
            formula = parse(text, sc.channels)
            for model in (sc.model, sc.proposal):
                for _ in range(4):
                    cs = constraints_for(formula, sc.channels, sc.horizon, rng)
                    batches.append(sample_traces(model, sc.horizon, sc.dt, cs, rng=rng, size=lanes // 2))
        steps = []
        for batch in batches:
            want = []
            for trace, row in zip(batch, _rows(batch)):
                res = run(sc, trace)
                assert len(res.records) == (res.fail_step or sc.horizon)
                assert sc.config.roll(row) == res.fail_step
                want.append(res.fail_step)
                if res.failure:
                    commit = _first_commit(res.records)
                    at_stop += res.fail_step == stops[commit]
                    after_wait += commit > 0
            for n in (lanes - 1, lanes, len(batch)):
                if n <= len(batch):
                    assert fail_steps(sc, batch.take(range(n))) == want[:n]
            assert sc.config.roll_lanes(batch.blocks) == want
            steps += want
        assert 0 < sum(s is not None for s in steps) < len(steps), name
    # No left-turn trace is known to collide after step 10 (a search for
    # one found none), so the sample guards the stops where collisions do
    # come: at the last step a row can overlap, which a stop one step
    # earlier would lose, and after an ego that waited commits, which a
    # waiting stop at or before that commit would lose.
    assert at_stop > 0 and after_wait > 0


_LT_LANES = LeftTurnConfig.lockstep_lanes


@pytest.mark.parametrize("n", sorted({0, 1, 2, 3, 6, _LT_LANES - 1, _LT_LANES, 2 * _LT_LANES}))
def test_fail_steps_reject_what_fail_step_rejects(n):
    # a batch that run would reject trace by trace: an empty one, small
    # ones, and either side of the left turn's lane count
    sc = scenario("lt1")
    short = SignalTrace(
        dt=sc.dt, channels=sc.channels, values={"disturbance": np.array(["none"] * 3, dtype=object)}
    )
    # the scenario's channel name with its symbols in another order: the
    # batch's symbol indices would read as other symbols
    reordered = (CategoricalChannel("disturbance", symbols=LT_SYMBOLS[::-1]),)
    for bad in (short, scenario("pc1").nominal_trace(),
                SignalTrace(dt=sc.dt, channels=reordered, values=sc.nominal_trace().values)):
        batch = TraceBatch.from_traces(bad.channels, [bad]).take([0] * n)
        assert _raised(fail_steps, sc, batch) == _raised(run, sc, bad)
    other = scenario("pc2")
    batch = TraceBatch.from_traces(sc.channels, [sc.nominal_trace()]).take([0] * n)
    assert _raised(fail_steps, other, batch) == _raised(run, other, sc.nominal_trace())


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
