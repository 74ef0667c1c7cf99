"""Falsification benchmark for stlfalsify.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload left-turn --seed 1 --seconds 30 --trace 0

Each run repeats whole rounds until ``--seconds`` have passed.  A round:

* set-up probes: fresh processes timed from start to a ready scenario;
* search: ``sf.run`` at the workload's fixed GpConfig, once or twice,
  alternating with short batches of
* re-evaluation: ``sf.evaluate_expression`` on each fixed formula, and
* baseline: ``sf.importance_sample`` with the scenario's proposal;
* claim: the search's best formula re-evaluated on fresh trials and
  compared with the round's baseline batches;
* on ``crosswalk``, GP oracle batches of ``G_[9,23](a_x <= -0.4)``.

Every output is checked (see checks.py).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run does one untraced round and then
the same round again with every traced function wrapped in a span
recorder; the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are at most 30x30, and extra threads only
# add noise on a shared machine.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5  # per round


def _import_program():
    """Import stlfalsify from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "stlfalsify" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import stlfalsify

    if Path(stlfalsify.__file__).resolve().parent != SRC / "stlfalsify":
        sys.exit(f"perfbench: imported stlfalsify from {stlfalsify.__file__}, not {SRC}")
    return stlfalsify


sf = _import_program()
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Recorder, install  # noqa: E402
from speed import SpeedClock, ticking  # noqa: E402
from workloads import WORKLOADS, phase_rng  # noqa: E402

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("search_s", "s", "lower"),
    ("evals_per_s", "1/s", "higher"),
    ("reeval_trials_per_s", "1/s", "higher"),
    ("is_trials_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# Traced functions, with the tail percentile each reports: the highest one
# with at least ten calls beyond it in a traced round of every workload
# that calls the function.  None: too few calls for a tail, median only.
TRACED = {
    "optimize.run": None,
    "optimize.evaluate_cost": 90,
    "constraints.constraints_for": 99,
    "constraints.sample_constraints": 99,
    "constraints.compile_constraints": 99,
    "samplers.sample_traces": 99,
    "samplers.sample_trace": 99,
    "samplers.truncated_mvn_sample": 90,
    "samplers.log_likelihood": 90,
    "sim.run": 99.9,
    "grammar.sample_expression": 90,
    "grammar.mutate": 90,
    "grammar.crossover": 90,
    "stl.canonical_text": 90,
    "baseline.evaluate_expression": None,
    "baseline.importance_sample": None,
}
COUNTS = [
    ("optimize.cache_hit_ratio", "ratio", "higher"),
    ("optimize.infeasible", "count", "lower"),
    ("constraints.attempts_per_call", "ratio", "lower"),
    ("constraints.infeasible", "count", "lower"),
    ("samplers.traces", "count", "lower"),
    ("sim.steps", "count", "lower"),
    ("sim.us_per_step", "us", "lower"),
    ("sim.failures", "count", "higher"),
    ("trace.search_overhead", "%", "lower"),
]


def _pct_name(p) -> str:
    return f"us_p{p:g}".replace(".", "_")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = []
    for fn, tail in TRACED.items():
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.s", "s", "lower"),
                (f"{fn}.self_s", "s", "lower"), (f"{fn}.us_p50", "us", "lower")]
        if tail is not None:
            out.append((f"{fn}.{_pct_name(tail)}", "us", "lower"))
    return out + COUNTS


# ---------------------------------------------------------------------------
# Set-up


def measure_setup(scenario: str, clock: SpeedClock) -> float:
    """Scaled seconds from starting a fresh process to its scenario being ready."""
    first = clock.tick()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), scenario],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        last = clock.tick()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return clock.scaled(first, last)


# ---------------------------------------------------------------------------
# One round


class Round:
    """Timings, operations and problems of one round.

    Times are scaled to the reference speed (speed.py); ``search_raw``
    keeps the unscaled search times for the log.
    """

    def __init__(self):
        self.ops: list[tuple[str, bool]] = []
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.search_s: list[float] = []
        self.search_raw: list[float] = []
        self.histories: list[list[dict]] = []
        self.scored = self.lookups = 0
        self.reeval_trials = self.is_trials = 0
        self.reeval_s = self.is_s = 0.0

    def op(self, name: str, problems: list[str], ok: bool = True):
        self.problems += problems
        self.ops.append((name, ok and not problems))


def _rollout_checks(label, report, fails, model, trials, predicate=None):
    problems = checks.report_matches(report, fails, model, trials, label)
    problems += checks.collisions_rederived(fails, label)
    if predicate is not None:
        problems += checks.traces_satisfy(fails, predicate, label)
    return problems


def _search(wl, sc, recorder: Recorder, clock: SpeedClock, rd: Round):
    calls = recorder.calls
    before = calls["optimize.evaluate_cost"], calls["stl.canonical_text"]
    first = clock.tick()
    best, history = sf.run(sc, wl.search)  # ticks inside, before evaluate_cost calls
    last = clock.tick()
    rd.search_s.append(clock.scaled(first, last))
    rd.search_raw.append(clock.raw(first, last))
    rd.histories.append(history)
    rd.scored = calls["optimize.evaluate_cost"] - before[0]
    # every lookup renders the formula's cache key; each history row renders two more
    rd.lookups = calls["stl.canonical_text"] - before[1] - 2 * len(history)
    rd.op("search", checks.search_consistent(best, history, wl.search, rd.lookups, rd.scored))
    return best


def _batches(wl, sc, formulas, seed: int, index: int, batches: range, clock: SpeedClock, rd: Round) -> list:
    """Alternating re-evaluation and baseline batches; returns the baseline failures."""
    is_fails = []
    for c in batches:
        results = []
        first = clock.tick()
        for i, (_, formula) in enumerate(formulas):
            rng = phase_rng(seed, index, 100 + 10 * c + i)
            results.append(sf.evaluate_expression(formula, sc, trials=wl.reeval_trials, rng=rng))
        rd.reeval_s += clock.scaled(first, clock.tick())
        rd.reeval_trials += len(formulas) * wl.reeval_trials
        problems = []
        for (f, _), (report, fails) in zip(formulas, results):
            problems += _rollout_checks(f"reeval {f.text[:40]}", report, fails, sc.model,
                                        wl.reeval_trials, f.predicate)
        rd.op(f"reeval {c}", problems)

        rng = phase_rng(seed, index, 200 + c)
        first = clock.tick()
        report, fails = sf.importance_sample(sc, trials=wl.is_trials, rng=rng)
        rd.is_s += clock.scaled(first, clock.tick())
        rd.is_trials += wl.is_trials
        rd.op(f"baseline {c}", _rollout_checks("baseline", report, fails, sc.model, wl.is_trials))
        is_fails += fails
    return is_fails


def run_round(wl, sc, seed: int, index: int, recorder: Recorder, clock: SpeedClock, oracle_ref,
              probes: int = 0) -> Round:
    """One round; its inputs depend only on (seed, index)."""
    rd = Round()
    rd.setup_s = [measure_setup(wl.scenario, clock) for _ in range(probes)]
    # Searches and short re-evaluation and baseline batches alternate, so
    # all of them sample the machine's speed all through the round.
    formulas = [(f, sf.parse(f.text, sc.channels)) for f in wl.formulas]
    is_fails = []
    for k in range(wl.searches):
        best = _search(wl, sc, recorder, clock, rd)
        share = range(k * wl.batches // wl.searches, (k + 1) * wl.batches // wl.searches)
        is_fails += _batches(wl, sc, formulas, seed, index, share, clock, rd)

    rng = phase_rng(seed, index, 300)
    report, fails = sf.evaluate_expression(best.formula, sc, trials=wl.claim_trials, rng=rng)
    problems = _rollout_checks("claim", report, fails, sc.model, wl.claim_trials,
                               lambda v: checks.holds(best.formula, v))
    problems += checks.claim_holds(
        checks.failure_stats(fails, sc.model, wl.claim_trials),
        checks.failure_stats(is_fails, sc.model, wl.batches * wl.is_trials),
    )
    rd.op("claim", problems)
    print(f"round {index}: searches {[round(t, 3) for t in rd.search_s]}s scaled, "
          f"{[round(t, 3) for t in rd.search_raw]}s raw, {rd.scored} scored, best fails "
          f"{len(fails)}/{wl.claim_trials}, baseline {len(is_fails)}/{wl.batches * wl.is_trials}",
          file=sys.stderr)

    if wl.oracle is not None:
        oracle_batches(wl.oracle, sc, index, oracle_ref, rd)
    return rd


def oracle_batches(orc, sc, index: int, oracle_ref, rd: Round):
    """Constrained GP draws on both sampling paths, against the rejection oracle.

    A batch whose mean sits more than ORACLE_Z standard errors from the
    oracle is a failed operation; a trace outside the window is a wrong
    output.  The streams depend on the round, never on --seed.
    """
    formula = sf.parse(orc.text, sc.channels)
    m, dt = sc.horizon, sc.dt
    for b in range(orc.batches):
        rng = np.random.default_rng([orc.seed, 0, index, b])
        per_trial = [
            sf.sample_trace(sc.model, m, dt, sf.constraints_for(formula, sc.channels, m, rng), rng=rng)
            for _ in range(orc.per_trial)
        ]
        rng = np.random.default_rng([orc.seed, 1, index, b])
        cs = sf.constraints_for(formula, sc.channels, m, rng)
        batch = sf.sample_traces(sc.model, m, dt, cs, rng=rng, size=orc.batch)
        for path, traces in (("per-trial", per_trial), ("batch", batch)):
            x = np.stack([t.values[orc.channel][orc.lo : orc.hi + 1] for t in traces])
            label = f"oracle {path} batch {b}"
            problems = [] if (x <= orc.bound).all() else [f"{label}: a trace leaves the window"]
            gap = checks.oracle_gap(x.mean(axis=1), *oracle_ref)
            rd.op(label, problems, ok=gap <= checks.ORACLE_Z)
            print(f"{label}: mean {x.mean():.4f} vs oracle {oracle_ref[0]:.4f} "
                  f"({gap:.1f} se)", file=sys.stderr)


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """End-to-end metrics from a run's rounds (see "Timing" in README.md).

    Times are scaled to the reference speed.  ``search_s`` and ``setup_s``
    are medians over the run's searches and set-up probes; the trial rates
    are all trials of a phase over all its scaled time.
    """
    search_s = float(np.median([t for r in rounds for t in r.search_s]))
    print("repeats " + json.dumps([{"setup_s": r.setup_s, "search_s": r.search_s, "search_raw": r.search_raw,
                                    "reeval_s": r.reeval_s, "is_s": r.is_s} for r in rounds]), file=sys.stderr)
    return {
        "setup_s": float(np.median([t for r in rounds for t in r.setup_s])),
        "search_s": search_s,
        "evals_per_s": rounds[0].scored / search_s,
        "reeval_trials_per_s": sum(r.reeval_trials for r in rounds) / sum(r.reeval_s for r in rounds),
        "is_trials_per_s": sum(r.is_trials for r in rounds) / sum(r.is_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rec: Recorder, extra: Counter, traced: Round, untraced: Round) -> dict[str, float]:
    summary = rec.summary()
    out = {}
    for fn, tail in TRACED.items():
        s = summary[fn]
        us = s["us"]
        out[f"{fn}.calls"] = s["calls"]
        out[f"{fn}.s"] = s["s"]
        out[f"{fn}.self_s"] = s["self_s"]
        out[f"{fn}.us_p50"] = float(np.percentile(us, 50)) if us.size else 0.0
        if tail is not None:
            out[f"{fn}.{_pct_name(tail)}"] = float(np.percentile(us, tail)) if us.size else 0.0
    calls, raised = rec.calls, rec.raised
    lookups = traced.lookups
    out["optimize.cache_hit_ratio"] = (lookups - traced.scored) / lookups
    out["optimize.infeasible"] = extra["optimize.infeasible"]
    descents = calls["constraints.constraints_for"]
    out["constraints.attempts_per_call"] = calls["constraints.sample_constraints"] / descents if descents else 0.0
    out["constraints.infeasible"] = raised["constraints.constraints_for"]
    out["samplers.traces"] = extra["samplers.traces"]
    out["sim.steps"] = extra["sim.steps"]
    out["sim.us_per_step"] = summary["sim.run"]["s"] * 1e6 / extra["sim.steps"]
    out["sim.failures"] = extra["sim.failures"]
    out["trace.search_overhead"] = 100.0 * (traced.search_s[0] / untraced.search_s[0] - 1.0)
    return out


def traced_functions(extra: Counter) -> dict:
    def infeasible(ind):
        extra["optimize.infeasible"] += not ind.feasible

    def traces(out):
        extra["samplers.traces"] += len(out)

    def rollout(res):
        extra["sim.steps"] += len(res.records)
        extra["sim.failures"] += res.failure

    observe = {"optimize.evaluate_cost": infeasible, "samplers.sample_traces": traces, "sim.run": rollout}
    return {fn: observe.get(fn) for fn in TRACED}


# ---------------------------------------------------------------------------
# Entry point


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    sc = sf.scenario(wl.scenario)
    sf.log_likelihood(sc.model, sc.nominal_trace())  # factorise GP kernels, as the probe does
    oracle_ref = None
    if wl.oracle is not None:
        orc = wl.oracle
        gp = sc.model.models[orc.channel]
        oracle_ref = checks.rejection_oracle(gp.variance, gp.lengthscale, sc.dt, orc.hi - orc.lo + 1,
                                             orc.bound, orc.draws, np.random.default_rng(orc.seed))

    # The untraced rounds record spans of two functions only: scoring and
    # the cache-key renderer, to count scored formulas and cache lookups.
    clock = SpeedClock()
    light = Recorder()
    restore = install(light, {"optimize.evaluate_cost": None, "stl.canonical_text": None})
    untick = ticking(clock, sf.optimize, "evaluate_cost")
    rounds = []
    try:
        t0 = time.perf_counter()
        while True:
            probes = 0 if trace else SETUP_PROBES
            rounds.append(run_round(wl, sc, seed, len(rounds), light, clock, oracle_ref, probes))
            if trace or time.perf_counter() - t0 >= seconds:
                break
    finally:
        untick()
        restore()

    if trace:
        extra: Counter = Counter()
        rec = Recorder()
        # No ticks inside the traced search: tick time would fall into the
        # spans of optimize.run.  Its time is scaled by the ticks around it.
        restore = install(rec, traced_functions(extra))
        try:
            rounds.append(run_round(wl, sc, seed, 0, rec, clock, oracle_ref))
        finally:
            restore()
        OUT.mkdir(exist_ok=True)
        rec.save(OUT / f"spans-{workload}-seed{seed}.npz")
        metrics = per_layer(rec, extra, rounds[1], rounds[0])
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        metrics = end_to_end(rounds)
        units = {name: unit for name, unit, _ in END_TO_END}

    problems = [p for r in rounds for p in r.problems]
    if any(h != rounds[0].histories[0] for r in rounds for h in r.histories):
        problems.append("search: the same GpConfig gave a different history in another search")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    ops = [op for r in rounds for op in r.ops]
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not ok for _, ok in ops),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
