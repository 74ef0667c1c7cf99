import math

import numpy as np
import pytest

from stlfalsify.sim import (
    CAR_LENGTH,
    CAR_WIDTH,
    CrosswalkConfig,
    IdmParams,
    LeftTurnConfig,
    Scenario,
    boxes_overlap,
    idm_accel,
    run,
    scenario,
    scenario_names,
)
from stlfalsify.stl import SignalTrace


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
    p = IdmParams()
    assert idm_accel(math.inf, 0.0, 0.0, p) == pytest.approx(3.0)
    assert idm_accel(math.inf, 29.0, 0.0, p) == pytest.approx(0.0, abs=1e-12)


def test_idm_closing_on_slower_lead():
    # frozen reference value for a 20 m gap at matched speeds
    p = IdmParams()
    assert idm_accel(20.0, 10.0, 10.0, p) == pytest.approx(
        -0.042415956317220505, abs=1e-9
    )


def test_idm_braking_is_clamped():
    p = IdmParams()
    a = idm_accel(0.5, 25.0, 0.0, p)
    assert a == pytest.approx(-2.0 * p.b)


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
