"""The benchmark's two workloads and their fixed inputs.

``left-turn`` stresses constraint descent and the categorical sampler;
``crosswalk`` stresses the Gibbs sampler for GP channels.  Each fixed
formula carries a hand-written numpy predicate that tests its windows
directly, so returned traces are checked without the program's monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import stlfalsify as sf


@dataclass(frozen=True)
class Formula:
    text: str
    predicate: Callable[[dict], bool]


@dataclass(frozen=True)
class Oracle:
    """GP oracle batches: the window, the per-trial and batch-path draws."""

    text: str
    channel: str
    lo: int
    hi: int
    bound: float
    per_trial: int  # trials per batch through constraints_for + sample_trace
    batch: int  # traces per batch through one sample_traces call
    batches: int  # batches per path and round
    draws: int  # unconstrained draws for the rejection oracle
    seed: int  # fixed: the oracle batches do not depend on --seed


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    search: sf.GpConfig
    formulas: tuple[Formula, ...]
    searches: int  # repeats of the search per round
    batches: int  # re-evaluation and baseline batches per round, interleaved
    reeval_trials: int  # per fixed formula and batch
    is_trials: int  # per baseline batch
    claim_trials: int  # fresh trials for the search's best formula
    oracle: Oracle | None = None


def _lt_bloated(v: dict) -> bool:
    d = v["disturbance"]
    step = ~~~((d != "a_maj") | (d == "S")) | ((d == "a_maj") & (d == "d_maj"))
    late = ((d[12:21] == "none") | (d[12:21] == "d_med")).all()
    return bool(step[0:2].all() and not ((d[6:10] == "S").any() and late))


def _pc_bloated(v: dict) -> bool:
    ax, ay, ny, nvx, nvy = (v[k] for k in ("a_x", "a_y", "n_y", "n_vx", "n_vy"))
    inner = (ax <= -0.4) & ~((nvy >= 1.9) & (nvy <= -1.9))
    first = inner[9:24].all() and (ay[26:28] == 0.25).any()
    second = not ((ny[2:6] >= 0.47).any() and (nvx[17:30] == -1.13).all())
    return bool(first and second)


LEFT_TURN = Workload(
    name="left-turn",
    scenario="lt1",
    # the default GpConfig at the lt1 acceptance seed, cut to two generations
    search=sf.GpConfig(generations=2, seed=7),
    formulas=(
        Formula("G_[0,1](disturbance = a_maj)", lambda v: bool((v["disturbance"][0:2] == "a_maj").all())),
        Formula(
            "(G_[0,1]((!!!(!disturbance = a_maj | disturbance = S)"
            " | (disturbance = a_maj & disturbance = d_maj)))"
            " & !(F_[6,9](disturbance = S) & G_[12,20]((disturbance = none | disturbance = d_med))))",
            _lt_bloated,
        ),
    ),
    searches=1,
    batches=80,
    reeval_trials=5,
    is_trials=25,
    claim_trials=500,
)

CROSSWALK = Workload(
    name="crosswalk",
    scenario="pc1",
    # the pc1 acceptance shape (pop 400, 15 samples, seed 3), cut to two generations
    search=sf.GpConfig(population=400, generations=2, samples_per_eval=15, seed=3),
    formulas=(
        Formula("G_[9,23](a_x <= -0.4)", lambda v: bool((v["a_x"][9:24] <= -0.4).all())),
        Formula(
            "((!!G_[9,23]((a_x <= -0.4 & !(n_vy >= 1.9 & n_vy <= -1.9))) & F_[26,27](a_y = 0.25))"
            " & !(F_[2,5](n_y >= 0.47) & G_[17,29](n_vx = -1.13)))",
            _pc_bloated,
        ),
    ),
    searches=2,
    batches=64,
    reeval_trials=1,
    is_trials=60,
    claim_trials=300,
    oracle=Oracle(
        text="G_[9,23](a_x <= -0.4)",
        channel="a_x",
        lo=9,
        hi=23,
        bound=-0.4,
        per_trial=40,
        batch=200,
        batches=2,
        draws=800_000,
        seed=20040680,
    ),
)

WORKLOADS = {wl.name: wl for wl in (LEFT_TURN, CROSSWALK)}


def phase_rng(seed: int, round_index: int, phase: int) -> np.random.Generator:
    """Independent stream for one phase of one round, fixed by --seed."""
    return np.random.default_rng([seed, round_index, phase])
