#!/usr/bin/env python3
"""Print one blake2b digest of what this checkout computes at fixed seeds.

The digest covers, for each search configuration below:
  - the search's history and best individual;
  - re-evaluation reports of the best formula and of the scenario's fixed
    formulas, with every failing trial's fail step, records and trace;
  - an importance-sampling baseline report with its failing trials;
constrained pc1 batches of 200 traces (every channel's block); on lt1,
lt2 and pc1, three ``constraints_for`` calls on each of 300 grammar
formulas (every fourth one cut to a series root), each call's arrays or
error message and the generator's next number after the three; and the
CLI bundles below, each command's files, stdout, stderr and exit status.
Floats enter as their exact hex form, arrays as their raw bytes, so two
checkouts print the same digest only if they draw and compute the same
bits.  Each part's own digest goes to stderr, to show where two checkouts
part.

Configurations: the benchmark's `left-turn` search (lt1 at the default
GpConfig cut to 2 generations, seed 7) and `crosswalk` search (pc1,
population 400, 2 generations, 15 samples, seed 3), plus a small lt2 and
pc2 search (population 50, 2 generations, seed 5).

CLI bundles, all at seed 5: ``optimize --pop 50 --gens 2 --trials 100``
and ``baseline --trials 200`` on every scenario (lt1, lt2, lt3, pc1 and
pc2; lt3's ego table and pc2's models differ from the others');
``sample 'F_[0,5](n_vy <= -0.5)' --trials 10`` on pc1; and two lt1
samples with ``--trials 10``: one that draws coins and witness steps, and
the bloated left-turn formula of perfbench, which runs out of retries on
one trace and exits 3.  Each command runs in process, inside one
temporary directory, with a relative ``--out``, so what it prints does
not depend on where the checkout sits.

It imports the `src` of its own checkout and takes about 5 s on one core.

    python3 scripts/digest.py

To compare two checkouts, run each one's copy and compare the two lines.
"""

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stlfalsify as sf  # noqa: E402
from stlfalsify import cli  # noqa: E402

LT_BLOATED = ("(G_[0,1]((!!!(!disturbance = a_maj | disturbance = S)"
              " | (disturbance = a_maj & disturbance = d_maj)))"
              " & !(F_[6,9](disturbance = S) & G_[12,20]((disturbance = none | disturbance = d_med))))")
PC_BLOATED = ("((!!G_[9,23]((a_x <= -0.4 & !(n_vy >= 1.9 & n_vy <= -1.9))) & F_[26,27](a_y = 0.25))"
              " & !(F_[2,5](n_y >= 0.47) & G_[17,29](n_vx = -1.13)))")

# scenario, search config, fixed formulas, re-evaluation and baseline trials
RUNS = [
    ("lt1", sf.GpConfig(generations=2, seed=7), ["G_[0,1](disturbance = a_maj)", LT_BLOATED], 300, 300),
    ("pc1", sf.GpConfig(population=400, generations=2, samples_per_eval=15, seed=3),
     ["G_[9,23](a_x <= -0.4)", PC_BLOATED], 100, 300),
    ("lt2", sf.GpConfig(population=50, generations=2, seed=5), ["F_[0,5](disturbance = a_maj)"], 300, 300),
    ("pc2", sf.GpConfig(population=50, generations=2, samples_per_eval=15, seed=5),
     ["F_[0,10](n_y >= 0.5)"], 100, 300),
]
DESCENTS = ["lt1", "lt2", "pc1"]  # scenarios whose grammar formulas are descended
BATCHES = ["G_[9,23](a_x <= -0.4)", PC_BLOATED, "G_[3,8]((a_y >= 0.3 & a_y <= 1.2)) & G_[0,4](n_vy <= -0.5)"]
BUNDLES = [  # bundle name, CLI arguments but --seed and --out
    *[(f"{sc}-{cmd}", [cmd, "--scenario", sc, *args])
      for sc in ["lt1", "lt2", "lt3", "pc1", "pc2"]
      for cmd, args in [("optimize", ["--pop", "50", "--gens", "2", "--trials", "100"]),
                        ("baseline", ["--trials", "200"])]],
    ("pc1-sample", ["sample", "F_[0,5](n_vy <= -0.5)", "--scenario", "pc1", "--trials", "10"]),
    ("lt1-sample", ["sample", "F_[0,5]((disturbance = a_maj | disturbance = d_maj)) & G_[8,12](!disturbance = S)",
                    "--scenario", "lt1", "--trials", "10"]),
    ("lt1-sample-bloated", ["sample", LT_BLOATED, "--scenario", "lt1", "--trials", "10"]),
]


def feed(h, obj):
    """Add ``obj`` to the hash ``h`` with a type tag, floats exactly."""
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            feed(h, key)
            feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        if obj.dtype == object:
            feed(h, obj.tolist())
        else:
            h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode() + b";")
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, str):
        h.update(b"s%d:" % len(obj) + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def trials(sc, text, n, seed):
    """A re-evaluation (``text``) or baseline (None) report and its failing trials."""
    rng = np.random.default_rng(seed)
    if text is None:
        report, fails = sf.importance_sample(sc, n, rng)
    else:
        report, fails = sf.evaluate_expression(sf.parse(text, sc.channels), sc, n, rng)
    return [vars(report), [[f.fail_step, f.records, f.trace.values] for f in fails]]


def first_series(f):
    """The argument of the leftmost window: a series root."""
    while isinstance(f, (sf.Not, sf.And, sf.Or)):
        f = f.arg if isinstance(f, sf.Not) else f.lhs
    return f.arg


def descents(sc, formulas):
    """Three constraint draws per formula, each from its own generator."""
    out = []
    for i, f in enumerate(formulas):
        rng = np.random.default_rng(i)
        for _ in range(3):
            try:
                cs = sf.constraints_for(f, sc.channels, sc.horizon, rng)
                out.append([cs.lower, cs.upper, cs.allowed])
            except sf.InfeasibleError as e:
                out.append(str(e))
        out.append(rng.random())
    return out


def bundle(name, args):
    """Run the CLI's ``args`` at seed 5 with ``--out name`` in the current
    directory: every file of the bundle, then stdout, stderr and exit status."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main([*args, "--seed", "5", "--out", name])
    files = sorted(path for path in Path(name).rglob("*") if path.is_file())
    return [[[path.relative_to(name).as_posix(), path.read_bytes()] for path in files],
            out.getvalue(), err.getvalue(), status]


def parts():
    for name, config, texts, reeval_trials, is_trials in RUNS:
        sc = sf.scenario(name)
        best, history = sf.run(sc, config)
        best_text = sf.canonical_text(best.formula)
        yield f"{name} search", [history, best_text, best.cost, best.fail_count,
                                 best.mean_fail_loglik, best.n_evals]
        for i, text in enumerate([best_text, *texts]):
            yield f"{name} re-evaluation {i}", trials(sc, text, reeval_trials, 12 + i)
        yield f"{name} baseline", trials(sc, None, is_trials, 11)
    pc = sf.scenario("pc1")
    rng = np.random.default_rng(13)
    for i, text in enumerate(BATCHES):
        cs = sf.constraints_for(sf.parse(text, pc.channels), pc.channels, pc.horizon, rng)
        batch = sf.sample_traces(pc.model, pc.horizon, pc.dt, cs, rng=rng, size=200)
        yield f"pc1 batch {i}", batch.blocks
    for k, name in enumerate(DESCENTS):
        sc = sf.scenario(name)
        make = np.random.default_rng([17, k])  # lt1 and lt2 share a grammar, not formulas
        formulas = [sf.sample_expression(sc.grammar, make) for _ in range(300)]
        formulas[::4] = [first_series(f) for f in formulas[::4]]
        yield f"{name} descents", descents(sc, formulas)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, args in BUNDLES:
                yield f"{name} bundle", bundle(name, args)
        finally:
            os.chdir(home)


def main():
    total = hashlib.blake2b(digest_size=16)
    for label, obj in parts():
        h = hashlib.blake2b(digest_size=16)
        feed(h, obj)
        print(f"{h.hexdigest()}  {label}", file=sys.stderr)
        feed(total, label)
        total.update(h.digest())
    print(total.hexdigest())


if __name__ == "__main__":
    main()
