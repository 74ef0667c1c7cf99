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

Both scenarios follow one step protocol, which ``run`` drives:
``config.start()`` returns a fresh state, and ``state.step(values, k)``
applies step ``k`` of the trace's ``values`` (channel name to array),
advances the state by one step and returns that step's record.  The
record's ``collision`` entry comes from the same poses the record reports,
and the loop stops at the first step that collides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grammar import GrammarSpec
from .samplers import (
    Categorical,
    DisturbanceModel,
    GaussianProcess,
    IndependentNormal,
)
from .stl import CategoricalChannel, ChannelSpec, ContinuousChannel, SignalTrace

__all__ = [
    "IdmParams",
    "IDM",
    "idm_accel",
    "LeftTurnConfig",
    "CrosswalkConfig",
    "LtState",
    "PcState",
    "SimResult",
    "Scenario",
    "run",
    "scenario",
    "scenario_names",
    "LT_SYMBOLS",
    "LT_OFFSETS",
]


@dataclass(frozen=True)
class IdmParams:
    v0: float = 29.0  # desired velocity, m/s
    s0: float = 5.0  # minimum spacing, m
    a_max: float = 3.0  # m/s^2
    b: float = 2.0  # comfortable deceleration, m/s^2
    headway: float = 1.5  # s
    delta: float = 4.0

    @property
    def b_hard(self) -> float:
        return 2.0 * self.b


IDM = IdmParams()  # every driver in both scenarios; the crosswalk ego swaps in its cruise speed


def idm_accel(gap: float, v: float, v_lead: float, p: IdmParams = IDM) -> float:
    """IDM acceleration toward a leader ``gap`` metres ahead.

    A free road is ``gap = inf``.  The desired-gap term is floored at zero
    (a fast-approaching leader cannot make the desired gap negative), and
    the result is clamped to [-2b, a_max].
    """
    free = (v / p.v0) ** p.delta
    if math.isinf(gap):
        interaction = 0.0
    else:
        gap = max(gap, 0.01)
        s_star = p.s0 + max(0.0, v * p.headway + v * (v - v_lead) / (2.0 * math.sqrt(p.a_max * p.b)))
        interaction = (s_star / gap) ** 2
    a = p.a_max * (1.0 - free - interaction)
    return min(max(a, -p.b_hard), p.a_max)


# ---------------------------------------------------------------------------
# Geometry helpers

CAR_LENGTH = 4.5
CAR_WIDTH = 2.0
PED_SIZE = 0.6


def _box_extents(heading: float, length: float, width: float) -> tuple[float, float]:
    c, s = abs(math.cos(heading)), abs(math.sin(heading))
    return c * length / 2 + s * width / 2, s * length / 2 + c * width / 2


def boxes_overlap(pose_a, dims_a, pose_b, dims_b) -> bool:
    """Closed axis-aligned overlap test; touching edges count as contact."""
    xa, ya, ha = pose_a
    xb, yb, hb = pose_b
    exa, eya = _box_extents(ha, *dims_a)
    exb, eyb = _box_extents(hb, *dims_b)
    return abs(xa - xb) <= exa + exb and abs(ya - yb) <= eya + eyb


# ---------------------------------------------------------------------------
# Left turn

LT_SYMBOLS = ("none", "d_med", "d_maj", "a_med", "a_maj", "S", "L")
LT_OFFSETS = {
    "none": 0.0,
    "d_med": -1.5,
    "d_maj": -3.0,
    "a_med": 1.5,
    "a_maj": 3.0,
    "S": 0.0,
    "L": 0.0,
}


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

    @property
    def straight_len(self) -> float:
        return self.s_ego + self.turn_entry_y  # distance to the arc entry

    @property
    def u_clear(self) -> float:
        return self.straight_len + self.u_clear_extra

    def start(self) -> LtState:
        if self.straight_len <= 0:
            raise ValueError("ego must start before the turn entry")
        return LtState(cfg=self, v_ego=self.v_ego, y_adv=self.s_adv, v_adv=self.v_adv)


@dataclass
class LtState:
    cfg: LeftTurnConfig
    k: int = 0
    u: float = 0.0  # ego path length from its start
    v_ego: float = 0.0
    committed: bool = False
    commit_step: int = -1
    y_adv: float = 0.0
    v_adv: float = 0.0
    signal: bool = False
    intent: bool = False
    adv_mode: str = "normal"  # normal | yield | continue
    decided: bool = False
    obs_accel: tuple[float, float] = (0.0, 0.0)  # last two observed accelerations

    def step(self, values, k: int) -> dict:
        """Advance one step under ``values["disturbance"][k]``; return its record."""
        cfg = self.cfg
        symbol = values["disturbance"][k]
        if symbol not in LT_OFFSETS:
            raise ValueError(f"unknown disturbance symbol {symbol!r}")
        if symbol == "S":
            self.signal = not self.signal
        elif symbol == "L":
            self.intent = not self.intent

        if not self.committed and _lt_ego_wants_go(self):
            self.committed = True
            self.commit_step = self.k
        a_ego = _lt_ego_accel(self)

        # Oncoming car: its own turn intention makes it yield when it still can.
        # Once the ego commits, after a reaction delay it decides once and for
        # all: yield if the required braking is tolerable, else keep going.
        if self.adv_mode == "normal" and self.intent and not self.decided:
            if _lt_brake_required(self) <= cfg.b_giveup:
                self.adv_mode = "yield"
        if (
            self.committed
            and not self.decided
            and self.adv_mode != "continue"
            and self.k >= self.commit_step + cfg.react_steps
        ):
            self.decided = True
            self.adv_mode = "yield" if _lt_brake_required(self) <= cfg.b_giveup else "continue"
        if self.adv_mode == "yield" and self.committed and self.u >= cfg.u_clear:
            self.adv_mode = "normal"  # ego is through; resume
        a_adv = _lt_adv_accel(self) + LT_OFFSETS[symbol]

        v_prev = self.v_adv
        self.v_ego = max(self.v_ego + a_ego * cfg.dt, 0.0)
        self.u += self.v_ego * cfg.dt
        self.v_adv = max(self.v_adv + a_adv * cfg.dt, 0.0)
        self.y_adv -= self.v_adv * cfg.dt
        self.obs_accel = (self.obs_accel[1], (self.v_adv - v_prev) / cfg.dt)
        self.k += 1

        # ego pose from path length: straight north, quarter arc, straight west
        d0, u = cfg.straight_len, self.u
        if u < d0:
            ego = (cfg.lane_half, -cfg.s_ego + u, math.pi / 2)
        elif u < d0 + cfg.arc_len:
            r, c = cfg.arc_radius, cfg.turn_entry_y  # arc centre sits at (-6, -6) by symmetry
            th = (u - d0) / r
            ego = (c + r * math.cos(th), c + r * math.sin(th), math.pi / 2 + th)
        else:
            ego = (cfg.turn_entry_y - (u - d0 - cfg.arc_len), cfg.lane_half, math.pi)
        adv = (-cfg.lane_half, self.y_adv, -math.pi / 2)
        return {
            "t": round(self.k * cfg.dt, 9),
            "ego_x": ego[0],
            "ego_y": ego[1],
            "ego_heading": ego[2],
            "ego_v": self.v_ego,
            "adv_x": adv[0],
            "adv_y": adv[1],
            "adv_v": self.v_adv,
            "signal": self.signal,
            "intent": self.intent,
            "adv_mode": self.adv_mode,
            "committed": self.committed,
            "disturbance": symbol,
            "collision": boxes_overlap(ego, (CAR_LENGTH, CAR_WIDTH), adv, (CAR_LENGTH, CAR_WIDTH)),
        }


def _lt_brake_required(st: LtState) -> float:
    """Deceleration the oncoming car needs to stop at its stop line."""
    cfg = st.cfg
    d = (st.y_adv - CAR_LENGTH / 2) - cfg.y_stopline
    return st.v_adv**2 / (2.0 * max(d, 0.3))


def _lt_ego_wants_go(st: LtState) -> bool:
    cfg = st.cfg
    if st.signal and st.y_adv >= cfg.signal_trust_dist:
        return True
    if st.y_adv <= cfg.y_receded:
        return True
    if all(a <= cfg.detect_decel for a in st.obs_accel) and st.k >= cfg.detect_steps:
        return True
    t_arrive = (st.y_adv - cfg.y_contact) / max(st.v_adv, 0.1)
    t_cross = (cfg.u_clear - st.u) / max((st.v_ego + cfg.v_turn_max) / 2.0, 1.0)
    return t_arrive > t_cross + cfg.t_margin


def _lt_ego_accel(st: LtState) -> float:
    cfg = st.cfg
    d0 = cfg.straight_len
    if not st.committed:
        # hold short of the turn entry
        return idm_accel(max(d0 - st.u, 0.01), st.v_ego, 0.0)
    a = idm_accel(math.inf, st.v_ego, 0.0)
    if st.u < d0:
        # pace the approach so the arc entry is hit at no more than the cap
        a = min(a, (cfg.v_turn_max**2 - st.v_ego**2) / (2.0 * max(d0 - st.u, 0.1)))
    elif st.u < d0 + cfg.arc_len:
        a = min(a, (cfg.v_turn_max - st.v_ego) / cfg.dt)
    return min(max(a, -IDM.b_hard), IDM.a_max)


def _lt_adv_accel(st: LtState) -> float:
    cfg = st.cfg
    if st.adv_mode == "yield":
        d = (st.y_adv - CAR_LENGTH / 2) - cfg.y_stopline
        b = st.v_adv**2 / (2.0 * max(d - cfg.stop_margin, 0.3))
        return -min(cfg.b_yield_hard, b)
    return idm_accel(math.inf, st.v_adv, 0.0)


# ---------------------------------------------------------------------------
# Pedestrian crosswalk

PC_CHANNEL_NAMES = ("a_x", "a_y", "n_x", "n_y", "n_vx", "n_vy")


@dataclass(frozen=True)
class CrosswalkConfig:
    """Single lane along y = 0; crosswalk crosses it at x = 0.

    The ego drives east toward the crosswalk; the pedestrian starts south of
    the lane and crosses northward.  Perception adds the noise channels to
    the true pedestrian position and velocity with no filtering.  The
    disturbance scales are the only fields; the layout and the ego's rules
    are class constants shared by every crosswalk scenario.
    """

    sigma_acc: float
    sigma_pos: float
    sigma_vel: float

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
        a, vc = 3.0, self.v_cruise
        if v >= vc:
            return dist / v
        t1 = (vc - v) / a
        d1 = v * t1 + 0.5 * a * t1 * t1
        if d1 >= dist:
            return (-v + math.sqrt(v * v + 2 * a * dist)) / a
        return t1 + (dist - d1) / vc

    def start(self) -> PcState:
        return PcState(
            cfg=self,
            cruise=replace(IDM, v0=self.v_cruise),
            x_ego=self.ego_x0,
            v_ego=self.v_cruise,
            ped_y=self.ped_y0,
            ped_vy=self.ped_vy0,
        )


@dataclass
class PcState:
    cfg: CrosswalkConfig
    cruise: IdmParams  # the ego's IDM with the scenario's cruise speed
    k: int = 0
    x_ego: float = 0.0
    v_ego: float = 0.0
    committed: bool = False
    commit_step: int = -1
    ped_x: float = 0.0
    ped_y: float = 0.0
    ped_vx: float = 0.0
    ped_vy: float = 0.0

    def step(self, values, k: int) -> dict:
        """Advance one step under each channel's ``values[name][k]``; return its record."""
        cfg = self.cfg
        dist = {name: float(values[name][k]) for name in PC_CHANNEL_NAMES}

        perc_x, perc_y = self.ped_x + dist["n_x"], self.ped_y + dist["n_y"]
        perc_vx, perc_vy = self.ped_vx + dist["n_vx"], self.ped_vy + dist["n_vy"]
        if not self.committed and self.x_ego < 0:
            t_arr = cfg.time_to_crosswalk(self.x_ego, self.v_ego)
            y_pred = perc_y + perc_vy * t_arr
            if y_pred >= cfg.clear_ahead or y_pred <= -cfg.clear_behind:
                self.committed = True
                self.commit_step = self.k
        a_ego = _pc_ego_accel(self)

        self.v_ego = max(self.v_ego + a_ego * cfg.dt, 0.0)
        self.x_ego += self.v_ego * cfg.dt
        self.ped_vx += dist["a_x"] * cfg.dt
        self.ped_vy += dist["a_y"] * cfg.dt
        self.ped_x += self.ped_vx * cfg.dt
        self.ped_y += self.ped_vy * cfg.dt
        self.k += 1

        ego = (self.x_ego, 0.0, 0.0)
        ped = (self.ped_x, self.ped_y, math.pi / 2)
        return {
            "t": round(self.k * cfg.dt, 9),
            "ego_x": ego[0],
            "ego_y": ego[1],
            "ego_v": self.v_ego,
            "ped_x": ped[0],
            "ped_y": ped[1],
            "ped_vx": self.ped_vx,
            "ped_vy": self.ped_vy,
            "perc_x": perc_x,
            "perc_y": perc_y,
            "perc_vx": perc_vx,
            "perc_vy": perc_vy,
            "committed": self.committed,
            **dist,
            "collision": boxes_overlap(ego, (CAR_LENGTH, CAR_WIDTH), ped, (PED_SIZE, PED_SIZE)),
        }


def _pc_ego_accel(st: PcState) -> float:
    cfg = st.cfg
    if st.committed:
        a = idm_accel(math.inf, st.v_ego, 0.0, st.cruise)
    else:
        d = cfg.x_stop - st.x_ego
        if d <= 0.1:
            a = -st.v_ego / cfg.dt  # hold at the stop point
        elif st.v_ego**2 / (2.0 * d) >= cfg.b_brake:
            a = -st.v_ego**2 / (2.0 * d)
        else:
            a = idm_accel(math.inf, st.v_ego, 0.0, st.cruise)
    return min(max(a, -cfg.b_hard), IDM.a_max)


# ---------------------------------------------------------------------------
# Scenario wrapper


@dataclass(frozen=True)
class SimResult:
    failure: bool
    fail_step: int | None
    records: tuple[dict, ...]
    trace: SignalTrace = field(repr=False)

    def to_csv(self, path) -> None:
        if not self.records:
            raise ValueError("empty rollout")
        names = list(self.records[0])
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for rec in self.records:
                cells = []
                for n in names:
                    v = rec[n]
                    if isinstance(v, bool):
                        cells.append(str(int(v)))
                    elif isinstance(v, float):
                        cells.append(f"{v:.6g}")
                    else:
                        cells.append(str(v))
                fh.write(",".join(cells) + "\n")


@dataclass(frozen=True)
class Scenario:
    """A named configuration bundling dynamics, channels and models."""

    name: str
    config: LeftTurnConfig | CrosswalkConfig
    channels: tuple[ChannelSpec, ...]
    model: DisturbanceModel
    proposal: DisturbanceModel
    phrases: dict = field(default_factory=dict, repr=False)

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


def run(scenario: Scenario, trace: SignalTrace) -> SimResult:
    """Roll the scenario to the horizon or the first collision."""
    names = {ch.name for ch in scenario.channels}
    if {ch.name for ch in trace.channels} != names:
        raise ValueError("trace channels do not match the scenario")
    if trace.m < scenario.horizon:
        raise ValueError(f"trace has {trace.m} steps, need {scenario.horizon}")

    st = scenario.config.start()
    records = []
    for k in range(scenario.horizon):
        records.append(st.step(trace.values, k))
        if records[-1]["collision"]:
            break
    failure = records[-1]["collision"]
    return SimResult(
        failure=failure,
        fail_step=len(records) if failure else None,
        records=tuple(records),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Built-in scenarios

LT_PROBS = {
    "none": 0.976,
    "d_med": 1e-2,
    "a_med": 1e-2,
    "d_maj": 1e-3,
    "a_maj": 1e-3,
    "S": 1e-3,
    "L": 1e-3,
}

LT_PHRASES = {
    ("disturbance", "none"): "nothing unusual happens",
    ("disturbance", "d_med"): "the oncoming car slows moderately",
    ("disturbance", "d_maj"): "the oncoming car brakes hard",
    ("disturbance", "a_med"): "the oncoming car speeds up moderately",
    ("disturbance", "a_maj"): "the oncoming car accelerates hard",
    ("disturbance", "S"): "the oncoming car toggles its turn signal",
    ("disturbance", "L"): "the oncoming car decides to turn",
}


def _lt_scenario(name: str, inits: tuple[float, float, float, float]) -> Scenario:
    ch = CategoricalChannel("disturbance", symbols=LT_SYMBOLS, aliases=(("B", "S"),))
    channels = (ch,)
    model = DisturbanceModel(channels=channels, models={"disturbance": Categorical(LT_PROBS)})
    uniform = DisturbanceModel(
        channels=channels,
        models={"disturbance": Categorical({s: 1.0 / len(LT_SYMBOLS) for s in LT_SYMBOLS})},
    )
    cfg = LeftTurnConfig(*inits)
    return Scenario(
        name=name,
        config=cfg,
        channels=channels,
        model=model,
        proposal=uniform,
        phrases=LT_PHRASES,
    )


def _pc_scenario(name: str, sigma_acc: float, sigma_pos: float, sigma_vel: float) -> Scenario:
    cfg = CrosswalkConfig(sigma_acc=sigma_acc, sigma_pos=sigma_pos, sigma_vel=sigma_vel)
    channels = (
        ContinuousChannel("a_x", -2.0, 2.0, units="m/s^2"),
        ContinuousChannel("a_y", -2.0, 2.0, units="m/s^2"),
        ContinuousChannel("n_x", -1.0, 1.0, units="m"),
        ContinuousChannel("n_y", -1.0, 1.0, units="m"),
        ContinuousChannel("n_vx", -2.0, 2.0, units="m/s"),
        ContinuousChannel("n_vy", -2.0, 2.0, units="m/s"),
    )

    def models(s_acc, s_pos, s_vel):
        return {
            "a_x": GaussianProcess(s_acc**2, cfg.gp_lengthscale),
            "a_y": GaussianProcess(s_acc**2, cfg.gp_lengthscale),
            "n_x": IndependentNormal(0.0, s_pos**2),
            "n_y": IndependentNormal(0.0, s_pos**2),
            "n_vx": IndependentNormal(0.0, s_vel**2),
            "n_vy": IndependentNormal(0.0, s_vel**2),
        }

    model = DisturbanceModel(channels=channels, models=models(sigma_acc, sigma_pos, sigma_vel))
    doubled = DisturbanceModel(
        channels=channels, models=models(2 * sigma_acc, 2 * sigma_pos, 2 * sigma_vel)
    )
    return Scenario(
        name=name,
        config=cfg,
        channels=channels,
        model=model,
        proposal=doubled,
    )


_BUILTIN = {
    "lt1": lambda: _lt_scenario("lt1", (15.0, 9.0, 29.0, 10.0)),
    "lt2": lambda: _lt_scenario("lt2", (15.0, 9.0, 29.0, 20.0)),
    "lt3": lambda: _lt_scenario("lt3", (19.0, 9.0, 43.0, 29.0)),
    "pc1": lambda: _pc_scenario("pc1", 1.0, 0.2, 0.5),
    "pc2": lambda: _pc_scenario("pc2", 1.0, 1.0, 1.0),
}


def scenario(name: str) -> Scenario:
    try:
        factory = _BUILTIN[name.lower()]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; choose from {scenario_names()}") from None
    return factory()


def scenario_names() -> tuple[str, ...]:
    return tuple(_BUILTIN)
