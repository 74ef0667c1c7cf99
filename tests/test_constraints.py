"""Unit coverage for the formula-to-constraint conversion.

The conversion is one top-down descent, ``sample_constraints``, that applies
the minimal-restriction rule of each operator it meets.  Every rule
(operator x required output) is pinned here through small formulas whose
leaves show what each node was required to output, both for the
deterministic cases and for the coin-flip cases where the rule picks one
child at random.
"""

import gc
from enum import IntEnum

import numpy as np
import pytest

from stlfalsify.constraints import (
    EPSILON,
    DescentPlan,
    InfeasibleError,
    LeafConstraint,
    compile_constraints,
    constraints_for,
    sample_constraints,
)
from stlfalsify.grammar import GrammarSpec, loci, sample_expression
from stlfalsify.samplers import sample_trace
from stlfalsify.sim import scenario
from stlfalsify.stl import (
    Always,
    And,
    CategoricalChannel,
    Cmp,
    ContinuousChannel,
    Eventually,
    FormulaTypeError,
    Level,
    Not,
    Or,
    SignalTrace,
    TimeInterval,
    check,
    evaluate,
    parse,
    root_level,
)

DIST = CategoricalChannel(
    name="disturbance",
    symbols=("none", "d_med", "d_maj", "a_med", "a_maj", "S", "L"),
)
ACC = ContinuousChannel(name="a_y", lo=-2.0, hi=2.0)
CHANNELS = (DIST, ACC)



class Output(IntEnum):
    """Per-step output codes, as the frozen descent below holds them."""

    ARBITRARY = 0
    TRUE = 1
    FALSE = 2


T, F, A = Output.TRUE, Output.FALSE, Output.ARBITRARY
P, Q, R = "G_[0,0](a_med)", "G_[0,0](a_maj)", "G_[0,0](L)"
PQ, RPQ = ("a_med", "a_maj"), ("L", "a_med", "a_maj")


def rng(seed=0):
    return np.random.default_rng(seed)


def allowed_sets(cs, ch=DIST):
    """The per-step allowed symbols of a categorical channel, as sets."""
    return [
        {s for s, ok in zip(ch.symbols, row) if ok}
        for row in cs.allowed[ch.name].tolist()
    ]


def as_masks(codes):
    """Per-step codes as the descent's (true, false) step masks."""
    return tuple(sum(1 << i for i in np.flatnonzero(codes == c).tolist()) for c in (T, F))


def outcomes(text, atoms, m=1, n=400):
    """The distinct outcomes of n descents of ``text`` on an m-step trace:
    per symbol in ``atoms``, the m codes that its comparison must output
    (all A where the descent left no leaf)."""
    f = parse(text, CHANNELS)
    r = rng(42)
    seen = set()
    for _ in range(n):
        leaves = sample_constraints(f, m, r)
        masks = {leaf.atom.value: (leaf.true, leaf.false) for leaf in leaves}
        assert len(masks) == len(leaves)  # one comparison per symbol
        seen.add(tuple(
            tuple(T if t >> i & 1 else F if f >> i & 1 else A for i in range(m))
            for t, f in (masks.get(a, (0, 0)) for a in atoms)
        ))
    return seen


def one(*outs):
    """One outcome of 1-step codes."""
    return {tuple((o,) for o in outs)}


def at(steps, mark, m):
    """m step codes: ``mark`` at ``steps``, A elsewhere."""
    return tuple(mark if i in steps else A for i in range(m))


# ---------------------------------------------------------------------------
# scalar rules, one operator at a time.  On a 1-step trace each operand
# G_[0,0](symbol) has one leaf, which outputs what the operand must: T, F,
# or A (no leaf).  The root is required true, a "!" above a node requires
# it false, and the free side of a false "and" requires it arbitrary.


def test_not_swaps_required_output():
    assert outcomes(f"!{Q}", ("a_maj",)) == one(F)
    assert outcomes(f"!!{Q}", ("a_maj",)) == one(T)
    # the "!" on the right is required A where a_med is F, F elsewhere
    assert outcomes(f"!({P} & !{Q})", PQ) == one(F, A) | one(A, T)


def test_and_true_restricts_both_children():
    assert outcomes(f"({P} & {Q})", PQ) == one(T, T)


def test_and_false_picks_one_false_child():
    assert outcomes(f"!({P} & {Q})", PQ) == one(F, A) | one(A, F)


def test_or_true_picks_one_true_child():
    assert outcomes(f"({P} | {Q})", PQ) == one(T, A) | one(A, T)


def test_or_false_restricts_both_children():
    assert outcomes(f"!({P} | {Q})", PQ) == one(F, F)


def test_arbitrary_propagates_through_connectives():
    # the inner node is required A where L is F, F elsewhere
    assert outcomes(f"!({R} & ({P} & {Q}))", RPQ) == one(F, A, A) | one(A, F, A) | one(A, A, F)
    assert outcomes(f"!({R} & ({P} | {Q}))", RPQ) == one(F, A, A) | one(A, F, F)


def test_always_true_pins_whole_window():
    assert outcomes("G_[2,4](a_maj)", ("a_maj",), m=6) == {((A, A, T, T, T, A),)}


def test_always_false_pins_single_uniform_step():
    f = parse("!G_[1,3](a_maj)", CHANNELS)
    counts = np.zeros(6, dtype=int)
    r = rng(1)
    for _ in range(600):
        (leaf,) = sample_constraints(f, 6, r)
        assert leaf.true == 0 and leaf.false in (1 << 1, 1 << 2, 1 << 3)
        counts[leaf.false.bit_length() - 1] += 1
    assert counts[1:4].min() > 120  # roughly uniform over the window


def test_eventually_true_pins_single_uniform_witness():
    f = parse("F_[0,2](a_maj)", CHANNELS)
    seen = set()
    r = rng(2)
    for _ in range(600):
        (leaf,) = sample_constraints(f, 4, r)
        assert leaf.false == 0 and leaf.true in (1 << 0, 1 << 1, 1 << 2)
        seen.add(leaf.true.bit_length() - 1)
    assert seen == {0, 1, 2}


def test_eventually_false_pins_whole_window():
    assert outcomes("!F_[1,2](a_maj)", ("a_maj",), m=4) == {((A, F, F, A),)}


def test_windowed_arbitrary_leaves_everything_free():
    # the window is required A where a_med is F
    for op in ("G", "F"):
        got = outcomes(f"!({P} & {op}_[0,3](a_maj))", PQ, m=4)
        assert {w for v, w in got if v == (F, A, A, A)} == {(A, A, A, A)}


# ---------------------------------------------------------------------------
# series rules work step by step with per-step coins.  A window's argument
# is required true at some steps or false at some, never both, so each rule
# shows on [0, 1] of a 3-step trace, whose step 2 is free.


def test_series_and_element_wise():
    assert outcomes("G_[0,1]((a_med & a_maj))", PQ, m=3) == {((T, T, A), (T, T, A))}
    got = outcomes("!F_[1,1]((a_med & a_maj))", PQ, m=3)
    assert got == {((A, F, A), (A, A, A)), ((A, A, A), (A, F, A))}
    got = outcomes("G_[1,1]((a_med | a_maj))", PQ, m=3)
    assert got == {((A, T, A), (A, A, A)), ((A, A, A), (A, T, A))}
    assert outcomes("!F_[0,1]((a_med | a_maj))", PQ, m=3) == {((F, F, A), (F, F, A))}


def test_series_coins_are_independent_across_steps():
    both = {0, 1}
    for text, mark in (("!F_[0,1]((a_maj & a_med))", F), ("G_[0,1]((a_maj | a_med))", T)):
        got = outcomes(text, ("a_maj", "a_med"), m=2)
        assert got == {(at(s, mark, 2), at(both - s, mark, 2)) for s in (set(), {0}, {1}, both)}


def test_series_not_negates_codes():
    assert outcomes("G_[0,1](!a_maj)", ("a_maj",), m=3) == {((F, F, A),)}
    assert outcomes("!F_[0,1](!a_maj)", ("a_maj",), m=3) == {((T, T, A),)}


# ---------------------------------------------------------------------------
# leaf collection and compilation


def test_sample_constraints_collects_leaf_codes():
    f = parse("G_[0,1](a_maj)", CHANNELS)
    leaves = sample_constraints(f, m=4, rng=rng())
    assert len(leaves) == 1
    (leaf,) = leaves
    assert leaf.atom.channel == "disturbance"
    assert (leaf.true, leaf.false, leaf.m) == (0b0011, 0, 4)


def test_series_root_is_lifted_to_whole_horizon():
    f = parse("a_maj", CHANNELS)  # bare series formula
    leaves = sample_constraints(f, m=3, rng=rng())
    assert (leaves[0].true, leaves[0].false) == (0b111, 0)


# Ill-typed trees, which the parser rejects, built by hand.  Each one puts
# the wrong-level node somewhere else: under a lifted series root, beside a
# scalar root, as a window's argument, or on a side that the descent only
# reaches with an arbitrary output.  The last two hold a node that is no
# formula at all, at each level.
_SYM, _W = Cmp("disturbance", "=", "a_maj"), TimeInterval(0, 1)
MIXED_LEVEL = [
    And(_SYM, Always(_W, _SYM)),
    Or(Eventually(_W, _SYM), Not(_SYM)),
    Always(_W, Eventually(_W, _SYM)),
    Not(And(Eventually(_W, _SYM), Not(_SYM))),
    Or(Always(_W, _SYM), Always(_W, Or(_SYM, Always(_W, _SYM)))),
    And(Always(_W, _SYM), "a_maj"),
    Always(_W, Not(None)),
]


def _trace(m):
    values = {"disturbance": ["none"] * m, "a_y": [0.0] * m}
    return SignalTrace(dt=0.5, channels=CHANNELS, values=values)


READERS = {
    "check": lambda f: check(f, CHANNELS),
    "evaluate": lambda f: evaluate(f, _trace(3)),
    "loci": loci,
    "sample_constraints": lambda f: sample_constraints(f, m=3, rng=rng()),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("f", MIXED_LEVEL)
def test_every_reader_rejects_mixed_levels(f, reader):
    with pytest.raises(FormulaTypeError, match="not a (scalar |series )?formula"):
        READERS[reader](f)


@pytest.mark.parametrize("f", [
    Eventually(TimeInterval(1, 3), _SYM),
    Or(Always(_W, _SYM), Always(TimeInterval(2, 3), _SYM)),
    Not(And(Eventually(_W, _SYM), Always(TimeInterval(0, 3), Not(_SYM)))),
])
def test_window_ending_at_step_m_raises_one_message(f):
    with pytest.raises(FormulaTypeError) as read:
        evaluate(f, _trace(3))
    with pytest.raises(FormulaTypeError) as drawn:
        sample_constraints(f, m=3, rng=rng())
    assert str(read.value) == str(drawn.value)
    assert str(read.value).endswith("] exceeds trace horizon 3")


@pytest.mark.parametrize("f", MIXED_LEVEL)
def test_sample_constraints_rejects_mixed_levels(f):
    for seed in range(10):
        with pytest.raises(FormulaTypeError):
            sample_constraints(f, m=3, rng=rng(seed))


@pytest.mark.parametrize("f", MIXED_LEVEL)
def test_constraints_for_rejects_mixed_levels(f):
    for seed in range(10):
        with pytest.raises(FormulaTypeError):
            constraints_for(f, CHANNELS, 3, rng(seed))


def test_compile_categorical_true_and_false():
    f = parse("G_[0,1](a_maj)", CHANNELS)
    cs = compile_constraints(sample_constraints(f, 3, rng()), CHANNELS, 3)
    assert cs.allowed["disturbance"].shape == (3, len(DIST.symbols))
    assert allowed_sets(cs)[0] == {"a_maj"}
    assert allowed_sets(cs)[1] == {"a_maj"}
    assert allowed_sets(cs)[2] == set(DIST.symbols)  # unconstrained

    g = parse("G_[0,0](!(a_maj))", CHANNELS)
    cs = compile_constraints(sample_constraints(g, 2, rng()), CHANNELS, 2)
    assert allowed_sets(cs)[0] == set(DIST.symbols) - {"a_maj"}


def test_compile_continuous_bounds_and_epsilon():
    cs = constraints_for(parse("G_[0,0](a_y <= 0.5)", CHANNELS), CHANNELS, 2, rng())
    assert cs.upper["a_y"][0] == 0.5
    assert np.isinf(cs.lower["a_y"][0])

    # a negated <= becomes a strict >, realized by an epsilon shift
    cs = constraints_for(parse("G_[0,0](!(a_y <= 0.5))", CHANNELS), CHANNELS, 2, rng())
    assert cs.lower["a_y"][0] == pytest.approx(0.5 + EPSILON)

    cs = constraints_for(parse("G_[0,0](a_y = 0.25)", CHANNELS), CHANNELS, 2, rng())
    assert cs.lower["a_y"][0] == 0.25 == cs.upper["a_y"][0]


def test_negated_equality_on_continuous_tightens_nothing():
    cs = constraints_for(parse("G_[0,1](!(a_y = 0.25))", CHANNELS), CHANNELS, 2, rng())
    assert np.isinf(cs.lower["a_y"]).all()
    assert np.isinf(cs.upper["a_y"]).all()


def test_negated_equality_on_a_step_pinned_to_its_value_is_infeasible():
    f = parse("G_[0,0]((a_y = 0.25 & !a_y = 0.25))", CHANNELS)
    with pytest.raises(InfeasibleError):
        constraints_for(f, CHANNELS, 1, rng())
    # a step pinned to another value stays satisfiable
    g = parse("G_[0,0]((a_y >= 0.25 & a_y <= 0.25 & !a_y = 0.5))", CHANNELS)
    assert constraints_for(g, CHANNELS, 1, rng()).lower["a_y"][0] == 0.25


def test_pinned_and_negated_equalities_sample_satisfying_traces():
    # F's witness lands on a step G pins to 0.5 on two of five draws; those
    # draws must be redrawn, not sampled at 0.5.  Only the witness step
    # meets n_y >= 1.0 in practice, so no other step rescues F.
    sc = scenario("pc1")
    f = parse("(G_[3,5](n_x = 0.5) & F_[4,8]((!n_x = 0.5 & n_y >= 1.0)))", sc.channels)
    r = rng(5)
    for _ in range(40):
        cs = constraints_for(f, sc.channels, sc.horizon, r)
        assert evaluate(f, sample_trace(sc.model, sc.horizon, sc.dt, cs, rng=r))


def test_conjoined_bounds_intersect():
    f = parse("G_[0,2]((a_y >= -0.5 & a_y <= 0.5))", CHANNELS)
    cs = constraints_for(f, CHANNELS, 3, rng())
    assert cs.lower["a_y"].tolist() == [-0.5] * 3
    assert cs.upper["a_y"].tolist() == [0.5] * 3


def test_contradiction_raises_infeasible():
    f = parse("G_[0,0]((a_y <= -1.0 & a_y >= 1.0))", CHANNELS)
    with pytest.raises(InfeasibleError):
        constraints_for(f, CHANNELS, 1, rng())
    g = parse("G_[0,0]((a_maj & none))", CHANNELS)
    with pytest.raises(InfeasibleError):
        constraints_for(g, CHANNELS, 1, rng())


def test_retries_find_a_feasible_coin_assignment():
    # the left disjunct is impossible; only draws picking the right one work
    f = parse("G_[0,0](((a_y <= -1.0 & a_y >= 1.0) | a_maj))", CHANNELS)
    for seed in range(20):
        cs = constraints_for(f, CHANNELS, 1, rng(seed))
        assert allowed_sets(cs)[0] == {"a_maj"}


# ---------------------------------------------------------------------------
# the descent against a frozen copy of its two-encoding form, which held a
# scalar output as an Output member and a series output as int8 codes


_REF_ARB, _REF_TRUE, _REF_FALSE = Output.ARBITRARY, Output.TRUE, Output.FALSE
_REF_CODES = {Output.ARBITRARY: np.int8(0), Output.TRUE: np.int8(1), Output.FALSE: np.int8(2)}
_REF_NEG = np.array([np.int8(0), np.int8(2), np.int8(1)])


def _negate_frozen(out):
    if isinstance(out, Output):
        if out is _REF_ARB:
            return out
        return _REF_FALSE if out is _REF_TRUE else _REF_TRUE
    return _REF_NEG[out]


def _split_conjunctive_frozen(out, r, false_splits):
    one_side = _REF_FALSE if false_splits else _REF_TRUE
    if isinstance(out, Output):
        if out is not one_side:
            return out, out
        if r.integers(2):
            return one_side, _REF_ARB
        return _REF_ARB, one_side
    split = out == _REF_CODES[one_side]
    to_right = split & (r.integers(0, 2, size=len(out)) == 1)
    left = np.where(to_right, np.int8(0), out)
    right = np.where(split ^ to_right, np.int8(0), out)
    return left, right


def _window_frozen(op, out, interval, m, r):
    if interval.hi >= m:
        raise FormulaTypeError("interval exceeds horizon")
    child = np.zeros(m, dtype=np.int8)
    if out is _REF_ARB:
        return child
    if (op == "always") == (out is _REF_TRUE):
        child[interval.lo : interval.hi + 1] = _REF_CODES[out]
    else:
        child[int(r.integers(interval.lo, interval.hi + 1))] = _REF_CODES[out]
    return child


def sample_constraints_frozen(formula, m, r):
    if root_level(formula) is Level.SERIES:
        formula = Always(TimeInterval(0, m - 1), formula)
    leaves = []

    def scalar(f, out):
        if isinstance(f, Not):
            scalar(f.arg, _negate_frozen(out))
        elif isinstance(f, (And, Or)):
            left, right = _split_conjunctive_frozen(out, r, isinstance(f, And))
            scalar(f.lhs, left)
            scalar(f.rhs, right)
        elif isinstance(f, (Always, Eventually)):
            op = "always" if isinstance(f, Always) else "eventually"
            series(f.arg, _window_frozen(op, out, f.interval, m, r))
        else:
            raise FormulaTypeError(f"not a scalar formula: {f!r}")

    def series(f, out):
        if isinstance(f, Cmp):
            if out.any():
                leaves.append((f, out))
        elif isinstance(f, Not):
            series(f.arg, _REF_NEG[out])
        elif isinstance(f, (And, Or)):
            left, right = _split_conjunctive_frozen(out, r, isinstance(f, And))
            series(f.lhs, left)
            series(f.rhs, right)
        else:
            raise FormulaTypeError(f"not a series formula: {f!r}")

    scalar(formula, _REF_TRUE)
    return leaves


def _first_series(f):
    """The argument of the leftmost window, so a series root is tested too."""
    while isinstance(f, (Not, And, Or)):
        f = f.arg if isinstance(f, Not) else f.lhs
    return f.arg


@pytest.mark.parametrize("name", ["lt1", "pc1"])
def test_descent_matches_frozen_two_encoding_descent(name):
    sc = scenario(name)
    make = rng(2024)
    for i in range(2000):
        f = sample_expression(sc.grammar, make)
        if i % 4 == 0:
            f = _first_series(f)
        new_rng, ref_rng = rng(i), rng(i)
        got = sample_constraints(f, sc.horizon, new_rng)
        want = sample_constraints_frozen(f, sc.horizon, ref_rng)
        assert [leaf.atom for leaf in got] == [atom for atom, _ in want]
        for leaf, (_, codes) in zip(got, want):
            assert codes.dtype == np.int8 and leaf.m == sc.horizon
            assert (leaf.true, leaf.false) == as_masks(codes)
        assert new_rng.random() == ref_rng.random()


@pytest.mark.parametrize("name", ["lt1", "pc1"])
@pytest.mark.parametrize("m", [1, 70])
def test_descent_matches_frozen_descent_at_any_horizon(name, m):
    # m = 1 leaves one bit per mask; m = 70 needs more than 64 bits per mask
    grammar = GrammarSpec(channels=scenario(name).channels, t_max=m - 1)
    make = rng(m)
    for i in range(500):
        f = sample_expression(grammar, make)
        if i % 4 == 0:
            f = _first_series(f)
        new_rng, ref_rng = rng(i), rng(i)
        got = sample_constraints(f, m, new_rng)
        want = sample_constraints_frozen(f, m, ref_rng)
        assert [leaf.atom for leaf in got] == [atom for atom, _ in want]
        for leaf, (_, codes) in zip(got, want):
            assert (leaf.true, leaf.false) == as_masks(codes)
        assert new_rng.random() == ref_rng.random()


# ---------------------------------------------------------------------------
# constraints_for, walking a plan or a formula, against the frozen descent in
# the retry loop as it stood before plans: same sets, errors and draws


def constraints_for_frozen(formula, channels, m, r):
    """The retry loop as it stood with the tree descent: a fresh frozen
    descent and a full compile per attempt, ten attempts."""
    last = None
    for _ in range(10):
        leaves = [LeafConstraint(atom, *as_masks(codes), m) for atom, codes in sample_constraints_frozen(formula, m, r)]
        try:
            return compile_constraints(leaves, channels, m)
        except InfeasibleError as e:
            last = e
    raise InfeasibleError(f"no feasible constraints after 10 attempts: {last}")


def _drawn(draw, n, seed):
    """n draws by ``draw(r)`` from one generator: each constraint set's
    arrays or each error's type and text, then the generator's next number."""
    r = rng(seed)
    out = []
    for _ in range(n):
        try:
            cs = draw(r)
        except InfeasibleError as e:
            out.append((type(e), str(e)))
        else:
            out.append([{name: a.tolist() for name, a in arrays.items()}
                        for arrays in (cs.lower, cs.upper, cs.allowed)])
    return out, r.random()


def _assert_plan_draws_match_frozen(f, channels, m, seed, n=3):
    plan = DescentPlan(f, channels, m)
    want = _drawn(lambda r: constraints_for_frozen(f, channels, m, r), n, seed)
    assert _drawn(lambda r: constraints_for(plan, channels, m, r), n, seed) == want
    assert _drawn(lambda r: constraints_for(f, channels, m, r), n, seed) == want


@pytest.mark.parametrize("name,seed", [("lt1", 7), ("lt2", 8), ("lt3", 9), ("pc1", 10)])
def test_retry_loop_matches_frozen_retry_loop(name, seed):
    sc = scenario(name)
    make = rng(seed)  # the left turns share a grammar: a seed each gives other formulas
    for i in range(150):
        f = sample_expression(sc.grammar, make)
        if i % 4 == 0:
            f = _first_series(f)
        _assert_plan_draws_match_frozen(f, sc.channels, sc.horizon, i)


LT_BLOATED = ("(G_[0,1]((!!!(!disturbance = a_maj | disturbance = S)"
              " | (disturbance = a_maj & disturbance = d_maj)))"
              " & !(F_[6,9](disturbance = S) & G_[12,20]((disturbance = none | disturbance = d_med))))")
_ALL_BUT_L = " & ".join(f"G_[0,0](!disturbance = {s})" for s in DIST.symbols[:-1])


@pytest.mark.parametrize("text", [
    LT_BLOATED,  # no symbol left at a first-window step on three of its four coin patterns
    "G_[0,1]((disturbance = a_maj & disturbance = d_maj))",
    "(F_[0,3](disturbance = a_maj) & G_[2,2](!disturbance = a_maj))",  # required and refused at one step
    "(G_[0,1](disturbance = a_maj) & F_[0,3](disturbance = a_maj))",  # required twice, still feasible
    "(!F_[0,3](disturbance = S) & !G_[1,2](disturbance = S))",  # refused twice, still feasible
    f"({_ALL_BUT_L} & F_[0,1](!disturbance = L))",  # every symbol refused at step 0 on half the draws
    f"({_ALL_BUT_L} & G_[0,0](!disturbance = L))",  # every symbol refused, on every draw
    "(G_[0,1](disturbance = a_maj) & G_[3,4](!disturbance = S))",  # draw-free, feasible
    "(G_[0,2](disturbance = a_maj) & G_[2,3](disturbance = none))",  # draw-free, infeasible
])
def test_hand_built_lt1_draws_match_frozen_retry_loop(text):
    sc = scenario("lt1")
    for seed in range(20):
        _assert_plan_draws_match_frozen(parse(text, sc.channels), sc.channels, sc.horizon, seed, n=5)


@pytest.mark.parametrize("text", [
    "G_[9,23](a_x <= -0.4)",  # draw-free, feasible
    "(G_[0,2](a_x <= -0.4) & G_[1,1](a_x >= 0.5))",  # draw-free, infeasible
])
def test_draw_free_continuous_draws_match_frozen_retry_loop(text):
    sc = scenario("pc1")
    for seed in range(5):
        _assert_plan_draws_match_frozen(parse(text, sc.channels), sc.channels, sc.horizon, seed, n=5)


@pytest.mark.parametrize("text", [LT_BLOATED, "G_[0,1]((disturbance = a_maj & disturbance = d_maj))"])
def test_failed_attempts_leave_no_reference_cycles(text):
    # A failed attempt's error, kept with its traceback, would tie the
    # retry loop's frame into a cycle that only the garbage collector
    # frees, and the collector would then run in whatever comes next.
    sc = scenario("lt1")
    f = parse(text, sc.channels)
    gc.collect()
    gc.disable()
    try:
        for seed in range(5):
            try:
                constraints_for(f, sc.channels, sc.horizon, rng(seed))
            except InfeasibleError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("m", [1, 3, 7, 24, 64, 65, 70])
def test_coin_calls_equal_one_block_draw(m):
    # The descent draws a window's coins as one (k, m) block in place of k
    # calls of size m.  That keeps the stream only while numpy serves each
    # coin from one buffered 32-bit half that lives in the generator state.
    for k in range(1, 6):
        for seed in range(5):
            calls, block = rng(seed), rng(seed)
            before = [calls.integers(2), calls.integers(0, m)]
            assert [block.integers(2), block.integers(0, m)] == before
            rows = [calls.integers(0, 2, size=m) for _ in range(k)]
            assert np.array_equal(np.stack(rows), block.integers(0, 2, size=(k, m)))
            assert calls.integers(2) == block.integers(2)
            assert calls.bit_generator.state == block.bit_generator.state
            assert calls.random() == block.random()
