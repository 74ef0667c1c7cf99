"""Deterministic driving scenarios whose failures the search hunts for.

Two intersection setups share one ego controller family built on the
intelligent driver model (IDM):

* Unprotected left turn.  The ego waits at a four-way intersection to turn
  left across an oncoming car.  Disturbances are seven discrete symbols per
  step: nothing, medium or major slowdowns and speedups added to the
  oncoming car's acceleration, a turn-signal toggle, and a turn-intention
  toggle.  The ego commits to the turn when the intersection looks clear
  (enough time gap, a turn signal while the car is still far, the car
  visibly yielding, or the car already past).  Once the ego commits, the
  oncoming car reacts after a short delay: it yields if the required
  braking is comfortable, otherwise it gives up on stopping and carries on.
  That give-up decision is the scenario's failure mechanism.

* Pedestrian crosswalk.  The ego approaches a crosswalk while a pedestrian
  crosses.  Disturbances are six continuous channels: pedestrian
  acceleration (two axes, Gaussian-process distributed) and sensor noise on
  the perceived pedestrian position and velocity (independent normals).
  The ego extrapolates the noisy perception to its own arrival time and
  commits to driving through once the pedestrian looks clear of the lane;
  the commit is irrevocable, so a noise spike at the wrong moment sends the
  ego through the crosswalk while the pedestrian is still in it.

Failure is an axis-aligned bounding-box collision between the ego and the
other agent, with box extents projected from each agent's heading.  All
stepping is semi-implicit Euler (velocity first, then position) and every
rollout is a pure function of (config, disturbance trace).

In both scenarios the ego's motion depends on a trace only through the
step at which it commits.  Each config therefore states the ego's
dynamics once, in ``config._ego``: one scalar loop, run on first use,
that tabulates the ``horizon + 1`` ego trajectories (commit at step 0 ...
horizon - 1, or never) together with what a rollout reads of them (the
time gap a waiting left-turn ego needs, a waiting crosswalk ego's
arrival time, the ego's box extents).  Every rollout reads its row.

Each config rolls a trace in one plain loop, ``config.roll(row,
records)``, that steps only the other agent, keeps its state in local
variables and stops at the first collision.  Every rollout reads one row
format, a trace's row of each ``TraceBatch`` block: symbol indices on a
categorical channel, floats on a continuous one.  ``run`` is the one
place a ``SignalTrace`` becomes such a row, and it passes a list for one
record per step.  A left-turn ego can touch the oncoming car only while
its box overlaps the oncoming lane, so ``config._stops`` tabulates, per
ego row, the step from which no collision can come any more: without
records, ``roll`` stops there, and ``roll_lanes`` once every lane has
collided or reached its stop.  An lt1 ego commits at step 0 and stops
after 10 of the 24 steps.

``fail_steps`` gives the fail steps of a ``TraceBatch``, without records:
it hands the batch's blocks to ``config.fail_steps``, which computes
with ``roll``'s float operations in ``roll``'s order (``np.float_power``
for ``**``), so each trace's fail step is ``roll``'s bit for bit.  The
pedestrian never reacts to the ego, so a crosswalk batch of any size
rolls in closed form: running sums of the pedestrian's steps, the first
clearing decision, and the first overlap with that commit step's ego
row; the crosswalk's ``roll`` serves records only.  The oncoming car
reacts to the ego's commit, so its steps cannot be summed: a left-turn
batch rolls in ``roll_lanes``, a numpy lockstep of the oncoming cars,
one step per time step for every trace (lane) at once, branches turned
into masks, or, below the lane count the config states beside its
dynamics, where the lockstep's fixed cost outweighs it, through ``roll``
on each row of the symbol block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grammar import GrammarSpec
from .samplers import (
    Categorical,
    DisturbanceModel,
    GaussianProcess,
    IndependentNormal,
)
from .stl import CategoricalChannel, ChannelSpec, ContinuousChannel, SignalTrace, TraceBatch, write_csv

__all__ = [
    "idm_accel",
    "LeftTurnConfig",
    "CrosswalkConfig",
    "SimResult",
    "Scenario",
    "run",
    "fail_steps",
    "scenario",
    "scenario_names",
    "LT_SYMBOLS",
]


# IDM parameters of every driver in both scenarios; only the desired
# velocity differs, and the crosswalk ego passes its cruise speed.
IDM_V0 = 29.0  # desired velocity, m/s
IDM_S0 = 5.0  # minimum spacing, m
IDM_A_MAX = 3.0  # m/s^2
IDM_B = 2.0  # comfortable deceleration, m/s^2
IDM_B_HARD = 2.0 * IDM_B
IDM_HEADWAY = 1.5  # s
IDM_DELTA = 4.0


def idm_accel(gap: float, v: float, *, v0: float = IDM_V0) -> float:
    """IDM acceleration toward a standing leader ``gap`` metres ahead at
    desired speed ``v0``.

    A free road is ``gap = inf``; the one finite gap, the turn entry that a
    waiting left-turn ego holds short of, does not move, so the desired
    gap's approach term is ``v * v``.  That term is floored at zero, and
    the result is clamped to [-2b, a_max].
    """
    free = (v / v0) ** IDM_DELTA
    if math.isinf(gap):
        interaction = 0.0
    else:
        gap = max(gap, 0.01)
        s_star = IDM_S0 + max(
            0.0, v * IDM_HEADWAY + v * v / (2.0 * math.sqrt(IDM_A_MAX * IDM_B))
        )
        interaction = (s_star / gap) ** 2
    a = IDM_A_MAX * (1.0 - free - interaction)
    return min(max(a, -IDM_B_HARD), IDM_A_MAX)


def _idm_free_accel_lanes(v: np.ndarray) -> np.ndarray:
    """``idm_accel`` on a free road (``gap = inf``) at ``IDM_V0`` for a lane array ``v``.

    The same operations in the same order, with ``np.float_power`` for
    ``**`` (it calls libm ``pow`` as Python does; ``np.power`` may round
    otherwise), so each lane gets ``idm_accel``'s double: subtracting its
    zero interaction term changes no bit.
    """
    a = IDM_A_MAX * (1.0 - np.float_power(v / IDM_V0, IDM_DELTA))  # minus a zero interaction
    return np.minimum(np.maximum(a, -IDM_B_HARD), IDM_A_MAX)


# ---------------------------------------------------------------------------
# Geometry helpers

CAR_LENGTH = 4.5
CAR_WIDTH = 2.0
PED_SIZE = 0.6


def _box_extents(heading: float, length: float, width: float) -> tuple[float, float]:
    c, s = abs(math.cos(heading)), abs(math.sin(heading))
    return c * length / 2 + s * width / 2, s * length / 2 + c * width / 2


# ---------------------------------------------------------------------------
# Left turn

# The left turn's disturbance symbols, in channel order (which fixes the
# categorical CDF and so the draws): each one's acceleration offset on the
# oncoming car (m/s^2), model probability and English phrase.
LT_DISTURBANCES = {
    "none": (0.0, 0.976, "nothing unusual happens"),
    "d_med": (-1.5, 1e-2, "the oncoming car slows moderately"),
    "d_maj": (-3.0, 1e-3, "the oncoming car brakes hard"),
    "a_med": (1.5, 1e-2, "the oncoming car speeds up moderately"),
    "a_maj": (3.0, 1e-3, "the oncoming car accelerates hard"),
    "S": (0.0, 1e-3, "the oncoming car toggles its turn signal"),
    "L": (0.0, 1e-3, "the oncoming car decides to turn"),
}
LT_SYMBOLS = tuple(LT_DISTURBANCES)
# What the rollouts read of a symbol index into ``LT_SYMBOLS``: each
# index's offset, and the indices of the signal and intention toggles.
_LT_CODE_OFFSETS = tuple(offset for offset, _, _ in LT_DISTURBANCES.values())
_LT_SIGNAL, _LT_INTENT = LT_SYMBOLS.index("S"), LT_SYMBOLS.index("L")
_NORMAL, _YIELD, _CONTINUE = range(3)  # the oncoming car's modes
_MODES = ("normal", "yield", "continue")


@dataclass(frozen=True)
class LeftTurnConfig:
    """Initial conditions plus the intersection's fixed layout.

    Both roads meet at the origin.  The ego drives north in the lane
    x = +1.85 and turns left onto the westbound lane y = +1.85 along a
    quarter-circle arc; the oncoming car drives south in the lane x = -1.85.
    ``s_ego``/``s_adv`` are start distances from the intersection centre.
    The initial conditions are the only fields; the layout and the drivers'
    rules are class constants shared by every left-turn scenario.
    """

    s_ego: float
    v_ego: float
    s_adv: float
    v_adv: float

    dt = 0.18
    horizon = 24
    # Traces from which ``fail_steps`` rolls in lockstep, where ``roll_lanes``
    # breaks even with a ``roll`` per trace.  Timed as the median of 31
    # alternating calls on unconstrained lt1, lt2 and lt3 model and proposal
    # traces (Python 3.11, numpy 2.4, one core of a shared 2-vCPU x86-64
    # host), with both reading the tabulated ego and stopping at ``_stops``:
    # a lockstep call costs about 0.3 ms on lt1 (every lane stops by step
    # 10) and 0.65-0.75 ms on lt2 and lt3, the loop 6 us per lt1 trace and
    # 11-13 us per lt2 or lt3 trace; at 48 traces the loop took 0.29-0.64 ms
    # and the lockstep 0.31-0.74 ms; even at 52-56 traces on lt1 and lt2,
    # 56-60 on lt3.  Between 48 and 60 traces the two differ by 0.1 ms a
    # call at most, and the pipeline's batches fall on either side: 5- and
    # 25-trace trial batches on the loop, 300-500-trace claim and CLI
    # batches and search chunks of about a thousand traces in lockstep.
    lockstep_lanes = 48

    lane_half = 1.85
    turn_entry_y = -6.0
    arc_radius = 7.85
    arc_len = arc_radius * math.pi / 2
    v_turn_max = 11.0  # speed cap through the turn
    u_clear_extra = 12.5  # path length past the entry that clears the conflict
    # ego commit rule
    y_contact = 2.0
    t_margin = 0.25
    signal_trust_dist = 26.0  # trust a turn signal only from this far out
    y_receded = -8.0
    detect_decel = -2.0
    detect_steps = 2
    # oncoming car's yield-or-continue decision
    react_steps = 2
    b_giveup = 4.34  # max braking it will commit to, m/s^2
    b_yield_hard = 6.0
    y_stopline = 6.0
    stop_margin = 2.0

    @functools.cached_property
    def _ego(self) -> tuple[tuple[float, ...], tuple[tuple[tuple, ...], ...]]:
        """The ego's motion, which a trace moves only through the step at
        which the ego commits: ``(wait, rows)``.

        ``rows[c][k]`` is ``(x, y, heading, v, x_hit, ey_hit, through)``
        after step k when the ego commits at step c, or never at ``c ==
        horizon``: its pose and speed, whether its x extent overlaps the
        oncoming lane (``x_hit``), the y extents' sum (``ey_hit``), and
        whether it was through the conflict zone before the step
        (``through``).  ``wait[k]`` is the time gap the oncoming car must
        exceed at step k to let a waiting ego commit.
        """
        d0 = self.s_ego + self.turn_entry_y  # distance to the arc entry
        u_clear = d0 + self.u_clear_extra
        if d0 <= 0:
            raise ValueError("ego must start before the turn entry")
        h, dt, arc_end, r, c = self.horizon, self.dt, d0 + self.arc_len, self.arc_radius, self.turn_entry_y
        y_north, x_ego_lane, x_adv = -self.s_ego, self.lane_half, -self.lane_half
        v_cap, v_cap2 = self.v_turn_max, self.v_turn_max**2
        a_lo, a_hi = -IDM_B_HARD, IDM_A_MAX
        # Box extents of the fixed headings; only the ego on the arc turns.
        ex_adv, ey_adv = _box_extents(-math.pi / 2, CAR_LENGTH, CAR_WIDTH)
        ex_north, ey_north = _box_extents(math.pi / 2, CAR_LENGTH, CAR_WIDTH)
        ex_west, ey_west = _box_extents(math.pi, CAR_LENGTH, CAR_WIDTH)

        wait, rows = [], []
        for commit in range(h + 1):
            u, v_ego, row = 0.0, self.v_ego, []
            for k in range(h):
                if commit == h:
                    wait.append((u_clear - u) / max((v_ego + v_cap) / 2.0, 1.0) + self.t_margin)
                through = u >= u_clear
                if k < commit:
                    a_ego = idm_accel(max(d0 - u, 0.01), v_ego)  # hold short of the turn entry
                else:
                    a_ego = idm_accel(math.inf, v_ego)
                    if u < d0:
                        # pace the approach so the arc entry is hit at no more than the cap
                        a_ego = min(a_ego, (v_cap2 - v_ego**2) / (2.0 * max(d0 - u, 0.1)))
                    elif u < arc_end:
                        a_ego = min(a_ego, (v_cap - v_ego) / dt)
                    a_ego = min(max(a_ego, a_lo), a_hi)
                v_ego = max(v_ego + a_ego * dt, 0.0)
                u += v_ego * dt

                # pose from path length: straight north, quarter arc, straight west
                if u < d0:
                    x, y, heading, ex, ey = x_ego_lane, y_north + u, math.pi / 2, ex_north, ey_north
                elif u < arc_end:
                    th = (u - d0) / r  # arc centre sits at (-6, -6) by symmetry
                    x, y, heading = c + r * math.cos(th), c + r * math.sin(th), math.pi / 2 + th
                    ex, ey = _box_extents(heading, CAR_LENGTH, CAR_WIDTH)
                else:
                    x, y, heading = c - (u - d0 - self.arc_len), x_ego_lane, math.pi
                    ex, ey = ex_west, ey_west
                row.append((x, y, heading, v_ego, abs(x - x_adv) <= ex + ex_adv, ey + ey_adv, through))
            rows.append(tuple(row))
        return tuple(wait), tuple(rows)

    @functools.cached_property
    def _ego_lanes(self) -> tuple[np.ndarray, ...]:
        """``_ego``'s ``y``, ``x_hit``, ``ey_hit`` and ``through`` as
        ``(horizon + 1, horizon)`` arrays, for ``roll_lanes``."""
        rows = self._ego[1]
        return tuple(np.array([[step[i] for step in row] for row in rows]) for i in (1, 4, 5, 6))

    @functools.cached_property
    def _stops(self) -> tuple[int, ...]:
        """``stops[c]``: the step from which an ego in row c of ``_ego`` can
        no longer be hit.  Only the ego's box overlapping the oncoming lane
        (``x_hit``) lets the cars touch, so for a committed row it is one
        past the row's last such step, or 0.  A waiting ego (``c ==
        horizon``) may still commit: its stop is the first step k at which
        no row c >= k overlaps at step k or later.
        """
        h, rows = self.horizon, self._ego[1]
        last = [max((k for k, step in enumerate(row) if step[4]), default=-1) for row in rows]
        waiting = next(k for k in range(h + 1) if max(last[k:]) < k)
        return tuple(k + 1 for k in last[:h]) + (waiting,)

    def roll(self, row, records: list | None = None) -> int | None:
        """Roll ``row["disturbance"]``, a trace's symbols as indices into
        ``LT_SYMBOLS`` (a row of a ``TraceBatch`` block), to the horizon or
        the first collision.

        Returns the 1-based step of the first collision, or None.  When
        ``records`` is a list, each step's record is appended to it.  Only
        the oncoming car is stepped; the ego reads its row of ``_ego``.
        Without records, stepping ends at the ego row's ``_stops`` step,
        from which no collision can come.
        """
        wait, rows = self._ego
        dt, x_adv = self.dt, -self.lane_half
        ego = rows[self.horizon]  # the ego waits until it commits
        stops = self._stops if records is None else (self.horizon,) * (self.horizon + 1)
        stop = stops[self.horizon]

        y_adv, v_adv = self.s_adv, self.v_adv
        signal = intent = committed = decided = False
        commit_step, mode = -1, _NORMAL
        obs0 = obs1 = 0.0  # the oncoming car's last two observed accelerations
        for k, code in enumerate(row["disturbance"][: self.horizon].tolist()):
            if k >= stop:
                return None
            if code == _LT_SIGNAL:
                signal = not signal
            elif code == _LT_INTENT:
                intent = not intent

            # The ego commits once the intersection looks clear: a turn signal
            # seen from afar, the oncoming car past or visibly braking, or
            # enough time gap to clear the conflict zone.
            if not committed and (
                (signal and y_adv >= self.signal_trust_dist)
                or y_adv <= self.y_receded
                or (obs0 <= self.detect_decel and obs1 <= self.detect_decel
                    and k >= self.detect_steps)
                or (y_adv - self.y_contact) / max(v_adv, 0.1) > wait[k]
            ):
                committed, commit_step, ego, stop = True, k, rows[k], stops[k]
            x, y, heading, v_ego, x_hit, ey_hit, through = ego[k]

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
            if mode == _YIELD and committed and through:
                mode = _NORMAL  # ego is through; resume
            if mode == _YIELD:
                a_adv = -min(self.b_yield_hard, v_adv**2 / (2.0 * max(gap - self.stop_margin, 0.3)))
            else:
                a_adv = idm_accel(math.inf, v_adv)
            a_adv += _LT_CODE_OFFSETS[code]

            v_prev = v_adv
            v_adv = max(v_adv + a_adv * dt, 0.0)
            y_adv -= v_adv * dt
            obs0, obs1 = obs1, (v_adv - v_prev) / dt

            hit = x_hit and abs(y - y_adv) <= ey_hit
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
                    "disturbance": LT_SYMBOLS[code],
                    "collision": hit,
                })
            if hit:
                return k + 1
        return None

    def fail_steps(self, blocks) -> list[int | None]:
        """``roll``'s fail step for each trace of a ``TraceBatch``'s
        ``blocks``: ``roll_lanes`` from the lane count on, else ``roll`` on
        each row of the symbol block."""
        codes = blocks["disturbance"]
        if len(codes) >= self.lockstep_lanes:
            return self.roll_lanes(blocks)
        return [self.roll({"disturbance": row}) for row in codes]

    def roll_lanes(self, blocks) -> list[int | None]:
        """``roll``'s fail step for each trace (lane) of a ``TraceBatch``'s
        ``blocks``, of ``horizon`` steps at least, bit for bit.  The
        oncoming cars step in lockstep and each lane's ego reads its
        commit step's row of ``_ego_lanes``.  A lane that has collided, or
        passed its row's ``_stops`` step, is stepped on but keeps its fail
        step; the loop stops once every lane has done either.
        """
        codes = blocks["disturbance"][:, : self.horizon].T  # (step, lane)
        h, n = codes.shape
        offsets = np.array(_LT_CODE_OFFSETS)[codes]
        signals = np.cumsum(codes == _LT_SIGNAL, axis=0) % 2 == 1
        intents = np.cumsum(codes == _LT_INTENT, axis=0) % 2 == 1
        dt, wait, stops = self.dt, self._ego[0], np.array(self._stops)
        ys, x_hits, ey_hits, throughs = self._ego_lanes

        y_adv, v_adv = np.full(n, self.s_adv), np.full(n, self.v_adv)
        committed, decided = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        row, mode = np.full(n, self.horizon), np.full(n, _NORMAL)  # row: the commit step once committed
        obs0 = obs1 = np.zeros(n)
        fail = np.zeros(n, dtype=np.int64)
        for k in range(h):
            signal, intent = signals[k], intents[k]
            clear = (
                (signal & (y_adv >= self.signal_trust_dist))
                | (y_adv <= self.y_receded)
                | ((y_adv - self.y_contact) / np.maximum(v_adv, 0.1) > wait[k])
            )
            if k >= self.detect_steps:
                clear |= (obs0 <= self.detect_decel) & (obs1 <= self.detect_decel)
            commits = clear & ~committed
            committed = committed | commits
            row = np.where(commits, k, row)

            gap = (y_adv - CAR_LENGTH / 2) - self.y_stopline
            v_adv2 = np.float_power(v_adv, 2.0)
            bearable = v_adv2 / (2.0 * np.maximum(gap, 0.3)) <= self.b_giveup
            mode = np.where((mode == _NORMAL) & intent & ~decided & bearable, _YIELD, mode)
            decides = committed & ~decided & (mode != _CONTINUE) & (k >= row + self.react_steps)
            decided = decided | decides
            mode = np.where(decides, np.where(bearable, _YIELD, _CONTINUE), mode)
            mode = np.where((mode == _YIELD) & committed & throughs[row, k], _NORMAL, mode)
            a_adv = np.where(
                mode == _YIELD,
                -np.minimum(self.b_yield_hard, v_adv2 / (2.0 * np.maximum(gap - self.stop_margin, 0.3))),
                _idm_free_accel_lanes(v_adv),
            )
            a_adv = a_adv + offsets[k]

            v_prev = v_adv
            v_adv = np.maximum(v_adv + a_adv * dt, 0.0)
            y_adv = y_adv - v_adv * dt
            obs0, obs1 = obs1, (v_adv - v_prev) / dt

            hit = x_hits[row, k] & (np.abs(ys[row, k] - y_adv) <= ey_hits[row, k])
            fail[hit & (fail == 0)] = k + 1
            if ((fail > 0) | (stops[row] <= k + 1)).all():
                break
        return [int(s) if s else None for s in fail.tolist()]


# ---------------------------------------------------------------------------
# Pedestrian crosswalk

# The crosswalk's disturbance channels, in channel order: each one's
# threshold bound (its range is [-bound, bound]) and which of a scenario's
# sigmas it takes: the pedestrian's acceleration ("acc", a Gaussian process
# over time) or the noise on its perceived position ("pos") or velocity
# ("vel", independent normals).
PC_CHANNELS = (
    ("a_x", 2.0, "acc"),
    ("a_y", 2.0, "acc"),
    ("n_x", 1.0, "pos"),
    ("n_y", 1.0, "pos"),
    ("n_vx", 2.0, "vel"),
    ("n_vy", 2.0, "vel"),
)
PC_CHANNEL_NAMES = tuple(name for name, _, _ in PC_CHANNELS)
# The ego's box extents (heading east) plus the pedestrian's (heading
# north): the two touch where their centres are no farther apart in x and y.
_PC_HIT_BOX = tuple(e + p for e, p in zip(_box_extents(0.0, CAR_LENGTH, CAR_WIDTH),
                                         _box_extents(math.pi / 2, PED_SIZE, PED_SIZE)))


@dataclass(frozen=True)
class CrosswalkConfig:
    """Single lane along y = 0; crosswalk crosses it at x = 0.

    The ego drives east toward the crosswalk; the pedestrian starts south of
    the lane and crosses northward.  Perception adds the noise channels to
    the true pedestrian position and velocity with no filtering.  Every
    crosswalk scenario shares this layout and the ego's rules; they differ
    only in their disturbance models.
    """

    dt = 0.2
    horizon = 30

    ego_x0 = -35.0
    v_cruise = 11.7
    ped_y0 = -4.0
    ped_vy0 = 1.5
    gp_lengthscale = 0.4
    # stopping behaviour
    x_stop = -5.0  # centre of a stop just short of the crosswalk
    b_brake = 3.5
    b_hard = 4.0
    # commit rule: predicted pedestrian clearance at arrival, metres
    clear_ahead = 3.0
    clear_behind = 3.0

    def time_to_crosswalk(self, x: float, v: float) -> float:
        """Travel time to x = 0 accelerating at a_max up to cruise speed."""
        dist = -x
        if dist <= 0:
            return 0.0
        a, vc = IDM_A_MAX, self.v_cruise
        if v >= vc:
            return dist / v
        t1 = (vc - v) / a
        d1 = v * t1 + 0.5 * a * t1 * t1
        if d1 >= dist:
            return (-v + math.sqrt(v * v + 2 * a * dist)) / a
        return t1 + (dist - d1) / vc

    @functools.cached_property
    def _ego(self) -> tuple[tuple[float, ...], tuple[tuple[tuple[float, float], ...], ...]]:
        """The ego's motion, which a trace moves only through the step at
        which the ego commits: ``(arrive, rows)``.

        ``rows[c][k]`` is the ego's ``(x, v)`` after step k when it commits
        at step c, or never at ``c == horizon``.  ``arrive[k]`` is a waiting
        ego's ``time_to_crosswalk`` at step k.  A waiting ego holds at
        ``x_stop``, short of the crosswalk, so it has a decision to make at
        every step; a layout whose waiting ego reaches the crosswalk raises
        ValueError.
        """
        h, dt, x_stop, b_brake, v_cruise = self.horizon, self.dt, self.x_stop, self.b_brake, self.v_cruise
        a_lo, a_hi = -self.b_hard, IDM_A_MAX
        arrive, rows = [], []
        for commit in range(h + 1):
            x_ego, v_ego, row = self.ego_x0, self.v_cruise, []
            for k in range(h):
                if commit == h:
                    if x_ego >= 0:
                        raise ValueError("a waiting ego must stop short of the crosswalk")
                    arrive.append(self.time_to_crosswalk(x_ego, v_ego))
                d = x_stop - x_ego
                if k >= commit:
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
                row.append((x_ego, v_ego))
            rows.append(tuple(row))
        return tuple(arrive), tuple(rows)

    @functools.cached_property
    def _ego_lanes(self) -> tuple[np.ndarray, np.ndarray]:
        """``_ego`` for ``fail_steps``: ``arrive`` as a ``(horizon,)`` array
        and the ego's x as a ``(horizon + 1, horizon)`` array."""
        arrive, rows = self._ego
        return np.array(arrive), np.array([[x for x, _ in row] for row in rows])

    def roll(self, row, records: list) -> int | None:
        """Roll the six channels of ``row`` to the horizon or the first
        collision, appending each step's record to ``records``.

        Returns the 1-based step of the first collision, or None.  Only the
        pedestrian is stepped; the ego reads its row of ``_ego``.  It serves
        ``run``'s records; ``fail_steps`` rolls without them.
        """
        arrive, rows = self._ego
        columns = [row[name][: self.horizon].tolist() for name in PC_CHANNEL_NAMES]
        dt = self.dt
        ex_hit, ey_hit = _PC_HIT_BOX

        ego, committed = rows[self.horizon], False  # the ego waits until it commits
        ped_x, ped_y, ped_vx, ped_vy = 0.0, self.ped_y0, 0.0, self.ped_vy0
        for k, (a_x, a_y, n_x, n_y, n_vx, n_vy) in enumerate(zip(*columns)):
            perc_x, perc_y = ped_x + n_x, ped_y + n_y
            perc_vx, perc_vy = ped_vx + n_vx, ped_vy + n_vy
            if not committed:
                # commit once the pedestrian looks clear of the lane on arrival
                y_pred = perc_y + perc_vy * arrive[k]
                committed = y_pred >= self.clear_ahead or y_pred <= -self.clear_behind
                if committed:
                    ego = rows[k]
            x_ego, v_ego = ego[k]

            ped_vx += a_x * dt
            ped_vy += a_y * dt
            ped_x += ped_vx * dt
            ped_y += ped_vy * dt
            # the ego drives along y = 0
            hit = abs(x_ego - ped_x) <= ex_hit and abs(ped_y) <= ey_hit
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

    def fail_steps(self, blocks) -> list[int | None]:
        """``roll``'s fail step for each trace (lane) of a ``TraceBatch``'s
        ``blocks``, of ``horizon`` steps at least, bit for bit, in closed
        form.  The pedestrian never reacts to the ego, so its states are
        running sums of its steps (``np.cumsum`` adds them in ``roll``'s
        order, from the initial state); the ego commits at the first step
        whose prediction clears, and the trace fails at its
        first overlap with that commit step's row of ``_ego_lanes``.
        """
        h, dt = self.horizon, self.dt
        arrive, ego_x = self._ego_lanes
        a_x, a_y, n_y, n_vy = (blocks[name][:, :h] for name in ("a_x", "a_y", "n_y", "n_vy"))
        n = len(a_x)
        ex_hit, ey_hit = _PC_HIT_BOX

        def states(start, steps):  # (lane, h + 1): the state before each step and after the last
            return np.cumsum(np.column_stack([np.full(n, start), steps]), axis=1)

        ped_vx = states(0.0, a_x * dt)
        ped_vy = states(self.ped_vy0, a_y * dt)
        ped_x = states(0.0, ped_vx[:, 1:] * dt)
        ped_y = states(self.ped_y0, ped_vy[:, 1:] * dt)
        # the perceived x and vx only feed records
        y_pred = (ped_y[:, :h] + n_y) + (ped_vy[:, :h] + n_vy) * arrive
        clears = (y_pred >= self.clear_ahead) | (y_pred <= -self.clear_behind)
        commit = np.where(clears.any(axis=1), clears.argmax(axis=1), h)
        hit = (np.abs(ego_x[commit] - ped_x[:, 1:]) <= ex_hit) & (np.abs(ped_y[:, 1:]) <= ey_hit)
        fail = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, 0)
        return [int(s) if s else None for s in fail.tolist()]


# ---------------------------------------------------------------------------
# Scenario wrapper


@dataclass(frozen=True)
class SimResult:
    fail_step: int | None
    records: tuple[dict, ...]
    trace: SignalTrace = field(repr=False)

    @property
    def failure(self) -> bool:
        return self.fail_step is not None

    def to_csv(self, path) -> None:
        if not self.records:
            raise ValueError("empty rollout")
        names = list(self.records[0])
        write_csv(path, names, ([rec[n] for n in names] for rec in self.records))


@dataclass(frozen=True)
class Scenario:
    """A named configuration bundling dynamics, channels and models."""

    name: str
    config: LeftTurnConfig | CrosswalkConfig
    model: DisturbanceModel
    proposal: DisturbanceModel
    phrases: dict = field(default_factory=dict, repr=False)

    @property
    def channels(self) -> tuple[ChannelSpec, ...]:
        return self.model.channels

    @property
    def dt(self) -> float:
        return self.config.dt

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def grammar(self) -> GrammarSpec:
        return GrammarSpec(channels=self.channels, t_max=self.horizon - 1)

    def run(self, trace: SignalTrace) -> SimResult:
        return run(self, trace)

    def fail_steps(self, batch: TraceBatch) -> list[int | None]:
        return fail_steps(self, batch)

    def nominal_trace(self) -> SignalTrace:
        """The zero-disturbance trace."""
        m = self.horizon
        values = {}
        for ch in self.channels:
            if isinstance(ch, CategoricalChannel):
                values[ch.name] = np.array(["none"] * m, dtype=object)
            else:
                values[ch.name] = np.zeros(m)
        return SignalTrace(dt=self.dt, channels=self.channels, values=values)


def _check(scenario: Scenario, traces: SignalTrace | TraceBatch) -> None:
    if traces.channels != scenario.channels:
        raise ValueError("trace channels do not match the scenario")
    if traces.m < scenario.horizon:
        raise ValueError(f"trace has {traces.m} steps, need {scenario.horizon}")


def run(scenario: Scenario, trace: SignalTrace) -> SimResult:
    """Roll the scenario to the horizon or the first collision, with records.

    The one place a trace becomes the row that ``config.roll`` reads, as a
    ``TraceBatch`` block holds it: a categorical channel's symbols as
    indices into its symbols, a continuous channel's floats as they are.
    """
    _check(scenario, trace)
    row = {ch.name: np.array([ch.symbols.index(s) for s in trace.values[ch.name].tolist()], dtype=np.intp)
           if isinstance(ch, CategoricalChannel) else trace.values[ch.name] for ch in scenario.channels}
    records: list[dict] = []
    step = scenario.config.roll(row, records)
    return SimResult(fail_step=step, records=tuple(records), trace=trace)


def fail_steps(scenario: Scenario, batch: TraceBatch) -> list[int | None]:
    """The 1-based step of each trace's first collision, or None; no records."""
    _check(scenario, batch)
    return scenario.config.fail_steps(batch.blocks)


# ---------------------------------------------------------------------------
# Built-in scenarios


def _lt_scenario(name: str, inits: tuple[float, float, float, float]) -> Scenario:
    channels = (CategoricalChannel("disturbance", symbols=LT_SYMBOLS, aliases=(("B", "S"),)),)
    probs = {s: p for s, (_, p, _) in LT_DISTURBANCES.items()}
    uniform = {s: 1.0 / len(LT_SYMBOLS) for s in LT_SYMBOLS}
    return Scenario(
        name=name,
        config=LeftTurnConfig(*inits),
        model=DisturbanceModel(channels=channels, models={"disturbance": Categorical(probs)}),
        proposal=DisturbanceModel(channels=channels, models={"disturbance": Categorical(uniform)}),
        phrases={("disturbance", s): phrase for s, (_, _, phrase) in LT_DISTURBANCES.items()},
    )


def _pc_scenario(name: str, **sigmas: float) -> Scenario:
    """A crosswalk scenario whose model takes ``sigmas`` (by ``PC_CHANNELS``'
    names) and whose proposal takes them doubled."""
    cfg = CrosswalkConfig()
    channels = tuple(ContinuousChannel(ch, -bound, bound) for ch, bound, _ in PC_CHANNELS)

    def model(variance):  # of a channel's sigma
        return DisturbanceModel(channels=channels, models={
            ch: GaussianProcess(variance(sigmas[s]), cfg.gp_lengthscale) if s == "acc"
            else IndependentNormal(0.0, variance(sigmas[s])) for ch, _, s in PC_CHANNELS})

    return Scenario(name=name, config=cfg, model=model(lambda s: s**2), proposal=model(lambda s: (2 * s)**2))


_BUILTIN = {
    "lt1": lambda: _lt_scenario("lt1", (15.0, 9.0, 29.0, 10.0)),
    "lt2": lambda: _lt_scenario("lt2", (15.0, 9.0, 29.0, 20.0)),
    "lt3": lambda: _lt_scenario("lt3", (19.0, 9.0, 43.0, 29.0)),
    "pc1": lambda: _pc_scenario("pc1", acc=1.0, pos=0.2, vel=0.5),
    "pc2": lambda: _pc_scenario("pc2", acc=1.0, pos=1.0, vel=1.0),
}


def scenario(name: str) -> Scenario:
    try:
        factory = _BUILTIN[name.lower()]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; choose from {scenario_names()}") from None
    return factory()


def scenario_names() -> tuple[str, ...]:
    return tuple(_BUILTIN)
