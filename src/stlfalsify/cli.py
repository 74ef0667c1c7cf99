"""Command-line front end.

Four subcommands share one plumbing style: a JSON config file may supply
any long option, explicit flags win, and everything that rolls dice takes
its seed from --seed so a bundle can be reproduced byte for byte.  Output
bundles never contain timestamps for the same reason.

Exit codes: 0 success, 2 usage or configuration problem, 3 a requested
formula could not be satisfied within the constraint retry budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .baseline import evaluate_expression, importance_sample
from .constraints import DescentPlan, InfeasibleError, constraints_for
from .grammar import MAX_DEPTH_DEFAULT
from .optimize import P_CROSSOVER, P_MUTATE, P_REPRODUCE, TOURNAMENT_SIZE, GpConfig, run
from .samplers import sample_trace
from .sim import scenario as load_scenario, scenario_names
from .stl import ParseError, SignalTrace, canonical_text, evaluate, parse, render_natural_language

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

MAX_ROLLOUT_FILES = 5


def _finite(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return x


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _make_dir(path: str) -> str:
    """Create directory ``path`` (and its parents) unless it exists; return it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {path}: {exc}")
    return path


def _write_rollouts(out_dir: str, fails) -> list[str]:
    roll_dir = _make_dir(os.path.join(out_dir, "rollouts"))
    written = []
    for i, res in enumerate(fails[:MAX_ROLLOUT_FILES]):
        name = f"fail_{i:03d}.csv"
        res.to_csv(os.path.join(roll_dir, name))
        written.append(name)
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlfalsify",
        description="Search for temporal-logic descriptions of likely failures "
        "in the built-in driving scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--scenario", help="scenario id: " + "|".join(scenario_names()))
        p.add_argument("--seed", type=int, help="rng seed (default 0)")
        p.add_argument("--config", help="JSON file of defaults for any long option")
        if out:
            p.add_argument("--out", help="output directory (default out)")

    p = sub.add_parser("optimize", help="evolve a failure description")
    common(p)
    p.add_argument("--pop", type=int, help="population size")
    p.add_argument("--gens", type=int, help="number of generations")
    p.add_argument("--trials", type=int, help="re-evaluation trials for the report (default 500)")

    p = sub.add_parser("baseline", help="importance-sampling baseline")
    common(p)
    p.add_argument("--trials", type=int, help="number of proposal trials (default 500)")

    p = sub.add_parser("monitor", help="check a formula against a trace CSV")
    p.add_argument("formula", help="formula text, e.g. 'G_[0,2](a_maj)'")
    p.add_argument("trace", help="CSV with a t column plus one column per channel")
    common(p, out=False)

    p = sub.add_parser("sample", help="emit traces that satisfy a formula")
    p.add_argument("formula", help="formula text")
    common(p)
    p.add_argument("--trials", type=int, help="number of traces to emit (default 10)")

    return parser


def _option_types(parser: argparse.ArgumentParser) -> dict[str, type]:
    """Value type of each option that takes a value, over all subcommands."""
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        a.dest: a.type or str
        for sub in subparsers.choices.values()
        for a in sub._actions
        if a.option_strings and a.nargs != 0
    }


def _merge_config(args: argparse.Namespace, types: dict[str, type]) -> dict:
    """Config file values fill in flags the user did not pass.

    A config key must name an option of some subcommand, so that one config
    can serve several commands, and its value must have the option's type:
    JSON integers (not booleans) for integer options, JSON strings for the
    others.  The seed, from either source, must be non-negative.
    """
    merged = {}
    if args.config:
        try:
            with open(args.config) as fh:
                merged = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}")
        if not isinstance(merged, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        for key, val in merged.items():
            want = types.get(key)
            if want is None:
                raise ValueError(f"config {args.config}: {key!r} is no option of any command")
            if not isinstance(val, want) or isinstance(val, bool):
                raise ValueError(
                    f"config {args.config}: {key!r} must be of type {want.__name__}, "
                    f"not {type(val).__name__}"
                )
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        merged[key] = val
    merged.setdefault("seed", 0)
    if merged["seed"] < 0:
        raise ValueError("--seed must be a non-negative integer")
    merged.setdefault("out", "out")
    return merged


def _require_scenario(cfg: dict):
    name = cfg.get("scenario")
    if not name:
        raise ValueError("--scenario is required")
    try:
        return load_scenario(name)
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; choose from {', '.join(scenario_names())}")


def _parse_formula(text: str, channels):
    try:
        return parse(text, channels)
    except ParseError as exc:
        raise ValueError(f"bad formula: {exc}")


def _trials(cfg: dict, default: int) -> int:
    trials = cfg.get("trials", default)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return trials


def _report_payload(report) -> dict:
    payload = dict(report.__dict__)
    payload["likelihood"] = _finite(payload["likelihood"])
    payload["likelihood_se"] = _finite(payload["likelihood_se"])
    return payload


def cmd_optimize(cfg: dict) -> int:
    sc = _require_scenario(cfg)
    trials = _trials(cfg, 500)
    gp_kwargs = {"seed": cfg["seed"]}
    if cfg.get("pop") is not None:
        gp_kwargs["population"] = cfg["pop"]
    if cfg.get("gens") is not None:
        gp_kwargs["generations"] = cfg["gens"]
    gp = GpConfig(**gp_kwargs)

    out_dir = _make_dir(cfg["out"])
    with open(os.path.join(out_dir, "history.jsonl"), "w") as hist_fh:

        def progress(row):
            hist_fh.write(json.dumps(row, sort_keys=True) + "\n")

        best, _ = run(sc, gp, progress=progress)

    rng = np.random.default_rng(cfg["seed"] + 1)
    report, fails = evaluate_expression(best.formula, sc, trials=trials, rng=rng)
    rollouts = _write_rollouts(out_dir, fails)

    _write_json(
        os.path.join(out_dir, "result.json"),
        {
            "scenario": sc.name,
            "seed": cfg["seed"],
            "gp": {
                "population": gp.population,
                "generations": gp.generations,
                "p_reproduce": P_REPRODUCE,
                "p_crossover": P_CROSSOVER,
                "p_mutate": P_MUTATE,
                "tournament_size": TOURNAMENT_SIZE,
                "samples_per_eval": gp.samples_per_eval,
                "max_depth": MAX_DEPTH_DEFAULT,
            },
            "best": {
                "formula": canonical_text(best.formula),
                "natural_language": render_natural_language(best.formula, sc.dt, sc.phrases),
                "cost": best.cost,
                "feasible": best.feasible,
                "fail_count": best.fail_count,
                "mean_fail_loglik": _finite(best.mean_fail_loglik),
                "n_evals": best.n_evals,
            },
            "rollouts": rollouts,
        },
    )
    _write_json(os.path.join(out_dir, "report.json"), _report_payload(report))
    print(canonical_text(best.formula))
    print(render_natural_language(best.formula, sc.dt, sc.phrases))
    return EXIT_OK


def cmd_baseline(cfg: dict) -> int:
    sc = _require_scenario(cfg)
    trials = _trials(cfg, 500)
    out_dir = _make_dir(cfg["out"])
    rng = np.random.default_rng(cfg["seed"])
    report, fails = importance_sample(sc, trials=trials, rng=rng)
    rollouts = _write_rollouts(out_dir, fails)
    _write_json(
        os.path.join(out_dir, "result.json"),
        {"scenario": sc.name, "seed": cfg["seed"], "trials": trials, "rollouts": rollouts},
    )
    payload = _report_payload(report)
    _write_json(os.path.join(out_dir, "report.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_monitor(cfg: dict, formula_text: str, trace_path: str) -> int:
    sc = _require_scenario(cfg)
    formula = _parse_formula(formula_text, sc.channels)
    try:
        trace = SignalTrace.from_csv(trace_path, sc.channels, dt=sc.dt)
    except (OSError, ValueError) as exc:
        raise ValueError(str(exc))
    verdict = evaluate(formula, trace)
    print(verdict)
    print(render_natural_language(formula, sc.dt, sc.phrases))
    return EXIT_OK


def cmd_sample(cfg: dict, formula_text: str) -> int:
    sc = _require_scenario(cfg)
    count = _trials(cfg, 10)
    formula = _parse_formula(formula_text, sc.channels)
    out_dir = _make_dir(cfg["out"])
    rng = np.random.default_rng(cfg["seed"])
    plan = DescentPlan(formula, sc.channels, sc.horizon)
    for i in range(count):
        try:
            cs = constraints_for(plan, sc.channels, sc.horizon, rng)
            trace = sample_trace(sc.model, sc.horizon, sc.dt, cs, rng=rng)
        except InfeasibleError as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        if not evaluate(formula, trace):
            raise AssertionError("constrained sample does not satisfy its formula")
        trace.to_csv(os.path.join(out_dir, f"trace_{i:03d}.csv"))
    print(f"wrote {count} traces to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, _option_types(parser))
        if args.command == "optimize":
            return cmd_optimize(cfg)
        if args.command == "baseline":
            return cmd_baseline(cfg)
        if args.command == "monitor":
            return cmd_monitor(cfg, args.formula, args.trace)
        return cmd_sample(cfg, args.formula)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a file inside --out could not be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
