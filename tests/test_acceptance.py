"""End-to-end acceptance checks, one test per shipping criterion.

Each test states its own thresholds inline.  The expensive ones (the two
optimizer reproductions and the CLI determinism check) pin their seeds so a
green run is repeatable; the statistical ones use sample sizes large enough
that the asserted tolerances hold with wide margin.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

import filecmp
import json
import math
import os

import numpy as np
import pytest
from scipy import stats

import stlfalsify as sf
from stlfalsify.cli import main as cli_main
from stlfalsify.grammar import get_at, loci
from stlfalsify.stl import CategoricalChannel, ContinuousChannel, check


# ---------------------------------------------------------------------------
# 1. every constrained sample satisfies the formula it was sampled from


@pytest.mark.parametrize("name", ["lt1", "pc1"])
def test_01_constrained_samples_satisfy_their_formula(name):
    sc = sf.scenario(name)
    rng = np.random.default_rng(101)
    checked = infeasible = 0
    for _ in range(500):
        formula = sf.sample_expression(sc.grammar, rng)
        try:
            cs = sf.constraints_for(formula, sc.channels, sc.horizon, rng)
        except sf.InfeasibleError:
            infeasible += 1
            continue
        traces = sf.sample_traces(
            sc.model, sc.horizon, sc.dt, cs, rng=rng, size=20
        )
        for trace in traces:
            assert sf.evaluate(formula, trace), sf.canonical_text(formula)
            checked += 1
    # the retry loop rescues most coin-flip contradictions, so feasible
    # formulas should dominate and give a meaningful sample
    assert checked >= 500 * 20 // 2
    print(f"\n[{name}] {checked} samples satisfied, {infeasible} infeasible")


# ---------------------------------------------------------------------------
# 2. the minimal-restriction conversion rules, every operator x output


T, F, A = "T", "F", "A"  # a step that must be true, must be false, or is free
DIST = CategoricalChannel(name="disturbance", symbols=("none", "a_med", "a_maj", "L"))


def _outcome_set(text, atoms, m=1, n=300):
    """The distinct outcomes of n descents of ``text`` on an m-step trace.

    An outcome holds, per symbol in ``atoms``, the m step codes that the
    descent requires of its comparison: all A where it left no leaf.
    """
    formula = sf.parse(text, (DIST,))
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(n):
        leaves = sf.sample_constraints(formula, m, rng)
        masks = {leaf.atom.value: (leaf.true, leaf.false) for leaf in leaves}
        assert len(masks) == len(leaves)  # one comparison per symbol
        seen.add(tuple(
            tuple(T if t >> i & 1 else F if f >> i & 1 else A for i in range(m))
            for t, f in (masks.get(a, (0, 0)) for a in atoms)
        ))
    return seen


def _at(steps, mark, m):
    """m step codes: ``mark`` at ``steps``, A elsewhere."""
    return tuple(mark if i in steps else A for i in range(m))


def test_02_conversion_rule_table():
    # scalar rules on a 1-step trace.  Each operand is G_[0,0](symbol), so
    # its one leaf outputs what the operand must: T, F, or A (no leaf).  The
    # root is required true, a "!" above a node requires it false, and the
    # free side of a false "and" requires it arbitrary.
    one = lambda *outs: {tuple((o,) for o in outs)}
    P, Q, R = "G_[0,0](a_med)", "G_[0,0](a_maj)", "G_[0,0](L)"
    PQ, RPQ = ("a_med", "a_maj"), ("L", "a_med", "a_maj")
    assert _outcome_set(f"!{Q}", ("a_maj",)) == one(F)  # not T
    assert _outcome_set(f"!!{Q}", ("a_maj",)) == one(T)  # not F
    # not A: the "!" on the right gets A where a_med is F, else F
    assert _outcome_set(f"!({P} & !{Q})", PQ) == one(F, A) | one(A, T)
    assert _outcome_set(f"({P} & {Q})", PQ) == one(T, T)
    assert _outcome_set(f"!({P} & {Q})", PQ) == one(F, A) | one(A, F)
    # and A, or A: the inner node gets A where L is F, else F
    assert _outcome_set(f"!({R} & ({P} & {Q}))", RPQ) == (
        one(F, A, A) | one(A, F, A) | one(A, A, F)
    )
    assert _outcome_set(f"({P} | {Q})", PQ) == one(T, A) | one(A, T)
    assert _outcome_set(f"!({P} | {Q})", PQ) == one(F, F)
    assert _outcome_set(f"!({R} & ({P} | {Q}))", RPQ) == one(F, A, A) | one(A, F, F)

    # windowed rules over [1, 3] of a 5-step trace
    window, free, lone = {1, 2, 3}, _at((), A, 5), _at({0}, F, 5)
    assert _outcome_set("G_[1,3](a_maj)", ("a_maj",), m=5) == {(_at(window, T, 5),)}
    assert _outcome_set("!F_[1,3](a_maj)", ("a_maj",), m=5) == {(_at(window, F, 5),)}
    # an arbitrary window, on the free side of a false "and", pins nothing
    got = _outcome_set("!(G_[0,0](a_med) & G_[1,3](a_maj))", PQ, m=5)
    assert got == {(lone, free)} | {(free, _at({i}, F, 5)) for i in window}
    got = _outcome_set("!(G_[0,0](a_med) & F_[1,3](a_maj))", PQ, m=5)
    assert got == {(lone, free), (free, _at(window, F, 5))}
    # a violated "always" picks one uniform step, a satisfied "eventually"
    # one uniform witness; every window position must show up
    for text, mark in (("!G_[1,3](a_maj)", F), ("F_[1,3](a_maj)", T)):
        got = _outcome_set(text, ("a_maj",), m=5, n=400)
        assert got == {(_at({i}, mark, 5),) for i in window}

    # series rules run step by step with an independent coin per step.  A
    # window's argument is required true at some steps or false at some,
    # never both, so each rule is read off [0, 1] of a 3-step trace, whose
    # step 2 is free.
    both, splits = {0, 1}, [set(), {0}, {1}, {0, 1}]
    steps = lambda mark, *sides: {tuple(_at(s, mark, 3) for s in sides)}
    assert _outcome_set("G_[0,1]((a_med & a_maj))", PQ, m=3, n=400) == steps(T, both, both)
    got = _outcome_set("!F_[0,1]((a_med & a_maj))", PQ, m=3, n=400)
    assert got == set().union(*(steps(F, s, both - s) for s in splits))
    got = _outcome_set("G_[0,1]((a_med | a_maj))", PQ, m=3, n=400)
    assert got == set().union(*(steps(T, s, both - s) for s in splits))
    assert _outcome_set("!F_[0,1]((a_med | a_maj))", PQ, m=3, n=400) == steps(F, both, both)
    assert _outcome_set("G_[0,1](!a_maj)", ("a_maj",), m=3) == steps(F, both)
    assert _outcome_set("!F_[0,1](!a_maj)", ("a_maj",), m=3) == steps(T, both)


# ---------------------------------------------------------------------------
# 3. truncated-normal sampler against closed form and a rejection oracle


def test_03_truncated_normal_sampler():
    rng = np.random.default_rng(11)
    draws = sf.truncated_normal(0.0, 1.0, 0.0, np.inf, rng, size=100_000)
    assert abs(draws.mean() - math.sqrt(2.0 / math.pi)) < 0.01

    lo, hi = -0.5, 1.25
    sample = sf.truncated_normal(0.0, 1.0, lo, hi, rng, size=10_000)
    pool = rng.standard_normal(200_000)
    oracle = pool[(pool >= lo) & (pool <= hi)][:10_000]
    ks = stats.ks_2samp(sample, oracle).statistic
    assert ks < 0.02
    print(f"\nhalf-line mean {draws.mean():.4f}, KS {ks:.4f}")


# ---------------------------------------------------------------------------
# 4. GP sampler covariance and exact equality conditioning


def test_04_gp_sampler_covariance():
    m, dt, ell = 10, 0.2, 0.4
    ch = ContinuousChannel(name="g", lo=-6.0, hi=6.0)
    model = sf.DisturbanceModel(
        channels=(ch,), models={"g": sf.GaussianProcess(1.0, ell)}
    )
    rng = np.random.default_rng(12)
    traces = sf.sample_traces(model, m, dt, None, rng=rng, size=10_000)
    sample = np.stack([tr.values["g"] for tr in traces])
    emp = np.cov(sample, rowvar=False)
    kernel = sf.samplers.se_kernel(np.arange(m) * dt, 1.0, ell)
    # relative to the kernel's own scale; far-apart entries are ~1e-5 and
    # cannot carry a per-entry relative tolerance at this sample size
    err = np.abs(emp - kernel).max() / np.abs(kernel).max()
    assert err < 0.05

    pinned = sf.parse("G_[3,5](g = 0.75)", (ch,))
    cs = sf.constraints_for(pinned, (ch,), m, rng)
    for tr in sf.sample_traces(model, m, dt, cs, rng=rng, size=50):
        assert tr.values["g"][3:6].tolist() == [0.75, 0.75, 0.75]
    print(f"\ncovariance error {err:.4f} of kernel scale")


# ---------------------------------------------------------------------------
# 5. left-turn reproduction: optimizer beats the importance-sampling
#    baseline on failure rate and on failure likelihood


def test_05_left_turn_reproduction():
    sc = sf.scenario("lt1")
    best, _ = sf.run(sc, sf.GpConfig(seed=7))
    assert best.feasible

    re_eval, _ = sf.evaluate_expression(
        best.formula, sc, trials=500, rng=np.random.default_rng(11)
    )
    is_rep, _ = sf.importance_sample(sc, trials=500, rng=np.random.default_rng(13))

    assert re_eval.fail_rate >= 0.9
    assert is_rep.fail_rate <= 0.05
    iv_lik = re_eval.likelihood or 0.0
    is_lik = is_rep.likelihood or 0.0
    assert iv_lik > is_lik
    print(
        f"\n{sf.canonical_text(best.formula)}\n"
        f"re-eval fail {re_eval.fail_rate:.3f} lik {iv_lik:.4f} | "
        f"IS fail {is_rep.fail_rate:.3f} lik {is_lik:.4f}"
    )


# ---------------------------------------------------------------------------
# 6. pedestrian-crossing reproduction: same comparison on log-likelihoods


def test_06_pedestrian_crossing_reproduction():
    sc = sf.scenario("pc1")
    best, _ = sf.run(
        sc, sf.GpConfig(population=400, generations=30, samples_per_eval=15, seed=3)
    )
    assert best.feasible

    re_eval, _ = sf.evaluate_expression(
        best.formula, sc, trials=500, rng=np.random.default_rng(12)
    )
    is_rep, _ = sf.importance_sample(sc, trials=500, rng=np.random.default_rng(14))

    assert re_eval.fail_rate >= 0.9
    assert 0.02 <= is_rep.fail_rate <= 0.4
    iv_ll = re_eval.likelihood if re_eval.likelihood is not None else -math.inf
    is_ll = is_rep.likelihood if is_rep.likelihood is not None else -math.inf
    assert iv_ll > is_ll
    print(
        f"\n{sf.canonical_text(best.formula)}\n"
        f"re-eval fail {re_eval.fail_rate:.3f} ll {iv_ll:.1f} | "
        f"IS fail {is_rep.fail_rate:.3f} ll {is_ll:.1f}"
    )


# ---------------------------------------------------------------------------
# 7. zero disturbance is safe in every built-in scenario


def test_07_nominal_safety():
    for name in sf.scenario_names():
        sc = sf.scenario(name)
        result = sc.run(sc.nominal_trace())
        assert not result.failure, name


# ---------------------------------------------------------------------------
# 8. grammar operations stay well-typed; best-so-far never regresses


def test_08_grammar_and_search_invariants():
    rng = np.random.default_rng(21)
    for name in ("lt1", "pc1"):
        g = sf.scenario(name).grammar
        pool = [sf.sample_expression(g, rng) for _ in range(2000)]
        work = list(pool)
        for _ in range(1500):
            work.append(sf.mutate(work[rng.integers(len(work))], g, rng))
        for _ in range(1500):
            donor = work[rng.integers(len(work))]
            recipient = work[rng.integers(len(work))]
            work.append(sf.crossover(donor, recipient, g, rng))
        for f in work:  # 5000 results per channel set, 10^4 total
            check(f, g.channels)
            assert sf.depth(f) <= 10
            assert all(get_at(f, s.path) <= g.t_max for s in loci(f) if s.kind == ("T",))

    sc = sf.scenario("lt1")
    for seed in (0, 1, 2):
        _, history = sf.run(
            sc, sf.GpConfig(population=30, generations=6, seed=seed)
        )
        costs = [row["best_so_far_cost"] for row in history]
        assert all(b <= a for a, b in zip(costs, costs[1:]))


# ---------------------------------------------------------------------------
# 9. the optimize command is reproducible byte-for-byte


def test_09_cli_determinism(tmp_path):
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in dirs:
        rc = cli_main(
            ["optimize", "--scenario", "lt1", "--seed", "7", "--out", out]
        )
        assert rc == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    assert "result.json" in names and "history.jsonl" in names
    for name in names:
        a, b = os.path.join(dirs[0], name), os.path.join(dirs[1], name)
        if os.path.isdir(a):
            inner = sorted(os.listdir(a))
            assert inner == sorted(os.listdir(b))
            match, mismatch, errors = filecmp.cmpfiles(a, b, inner, shallow=False)
            assert not mismatch and not errors
        else:
            assert filecmp.cmp(a, b, shallow=False), name
    with open(os.path.join(dirs[0], "result.json")) as fh:
        best = json.load(fh)["best"]
    print(f"\nidentical bundles; best {best['formula']}")
