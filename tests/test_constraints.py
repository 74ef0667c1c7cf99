"""Unit coverage for the formula-to-constraint conversion.

The conversion applies the minimal-restriction rules one operator at a
time; every rule (operator x required output) is pinned here, both for the
deterministic cases and for the coin-flip cases where the rule picks one
child at random.
"""

import numpy as np
import pytest

from stlfalsify.constraints import (
    EPSILON,
    InfeasibleError,
    Output,
    compile_constraints,
    constraints_for,
    sample_constraints,
    subexpression_outputs,
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
    level,
    parse,
    root_level,
)

DIST = CategoricalChannel(
    name="disturbance",
    symbols=("none", "d_med", "d_maj", "a_med", "a_maj", "S", "L"),
)
ACC = ContinuousChannel(name="a_y", lo=-2.0, hi=2.0)
CHANNELS = (DIST, ACC)

T, F, A = Output.TRUE, Output.FALSE, Output.ARBITRARY


def rng(seed=0):
    return np.random.default_rng(seed)


def allowed_sets(cs, ch=DIST):
    """The per-step allowed symbols of a categorical channel, as sets."""
    return [
        {s for s, ok in zip(ch.symbols, row) if ok}
        for row in cs.allowed[ch.name].tolist()
    ]


def outcomes(op, out, n=400, **kw):
    """Set of child-output tuples the rule produces over many draws."""
    seen = set()
    r = rng(42)
    for _ in range(n):
        kids = subexpression_outputs(op, out, r, **kw)
        seen.add(tuple(tuple(np.atleast_1d(k).tolist()) for k in kids))
    return seen


# ---------------------------------------------------------------------------
# scalar rules, one operator at a time


def test_not_swaps_required_output():
    assert subexpression_outputs("not", T, rng()) == (F,)
    assert subexpression_outputs("not", F, rng()) == (T,)
    assert subexpression_outputs("not", A, rng()) == (A,)


def test_and_true_restricts_both_children():
    assert outcomes("and", T) == {((int(T),), (int(T),))}


def test_and_false_picks_one_false_child():
    got = outcomes("and", F)
    assert got == {((int(F),), (int(A),)), ((int(A),), (int(F),))}


def test_or_true_picks_one_true_child():
    got = outcomes("or", T)
    assert got == {((int(T),), (int(A),)), ((int(A),), (int(T),))}


def test_or_false_restricts_both_children():
    assert outcomes("or", F) == {((int(F),), (int(F),))}


def test_arbitrary_propagates_through_connectives():
    assert outcomes("and", A) == {((int(A),), (int(A),))}
    assert outcomes("or", A) == {((int(A),), (int(A),))}


def test_always_true_pins_whole_window():
    (codes,) = subexpression_outputs("always", T, rng(), interval=TimeInterval(2, 4), m=6)
    assert codes.tolist() == [A, A, T, T, T, A]


def test_always_false_pins_single_uniform_step():
    seen = set()
    counts = np.zeros(6, dtype=int)
    r = rng(1)
    for _ in range(600):
        (codes,) = subexpression_outputs("always", F, r, interval=TimeInterval(1, 3), m=6)
        idx = [i for i, c in enumerate(codes) if c == F]
        assert len(idx) == 1 and 1 <= idx[0] <= 3
        assert all(codes[i] == A for i in range(6) if i != idx[0])
        counts[idx[0]] += 1
        seen.add(idx[0])
    assert seen == {1, 2, 3}
    assert counts[1:4].min() > 120  # roughly uniform over the window


def test_eventually_true_pins_single_uniform_witness():
    seen = set()
    r = rng(2)
    for _ in range(600):
        (codes,) = subexpression_outputs("eventually", T, r, interval=TimeInterval(0, 2), m=4)
        idx = [i for i, c in enumerate(codes) if c == T]
        assert len(idx) == 1 and idx[0] <= 2
        seen.add(idx[0])
    assert seen == {0, 1, 2}


def test_eventually_false_pins_whole_window():
    (codes,) = subexpression_outputs("eventually", F, rng(), interval=TimeInterval(1, 2), m=4)
    assert codes.tolist() == [A, F, F, A]


def test_windowed_arbitrary_leaves_everything_free():
    for op in ("always", "eventually"):
        (codes,) = subexpression_outputs(op, A, rng(), interval=TimeInterval(0, 3), m=4)
        assert codes.tolist() == [A, A, A, A]


# ---------------------------------------------------------------------------
# series rules work element-wise with per-step coins


def test_series_and_element_wise():
    out = np.array([T, F, A], dtype=np.int8)
    got = outcomes("and", out, n=600)
    for left, right in got:
        assert (left[0], right[0]) == (T, T)
        assert {(left[1], right[1])} <= {(int(F), int(A)), (int(A), int(F))}
        assert (left[2], right[2]) == (A, A)
    # both coin outcomes occur at the F step
    assert {(l[1], r[1]) for l, r in got} == {(int(F), int(A)), (int(A), int(F))}


def test_series_coins_are_independent_across_steps():
    out = np.array([F, F], dtype=np.int8)
    combos = {
        (left[0], left[1]) for left, _ in outcomes("and", out, n=600)
    }
    assert combos == {(int(F), int(F)), (int(F), int(A)), (int(A), int(F)), (int(A), int(A))}


def test_series_not_negates_codes():
    out = np.array([T, F, A], dtype=np.int8)
    (codes,) = subexpression_outputs("not", out, rng())
    assert codes.tolist() == [F, T, A]


# ---------------------------------------------------------------------------
# leaf collection and compilation


def test_sample_constraints_collects_leaf_codes():
    f = parse("G_[0,1](a_maj)", CHANNELS)
    leaves = sample_constraints(f, m=4, rng=rng())
    assert len(leaves) == 1
    (leaf,) = leaves
    assert leaf.atom.channel == "disturbance"
    assert leaf.outputs.tolist() == [T, T, A, A]


def test_series_root_is_lifted_to_whole_horizon():
    f = parse("a_maj", CHANNELS)  # bare series formula
    leaves = sample_constraints(f, m=3, rng=rng())
    assert leaves[0].outputs.tolist() == [T, T, T]


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
    "level": level,
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
# the series rules, through the descent's step masks, against their
# copy-and-assign definitions


def _negate_reference(out):
    flipped = out.copy()
    flipped[out == Output.TRUE] = Output.FALSE
    flipped[out == Output.FALSE] = Output.TRUE
    return flipped


def _split_reference(out, r, false_splits):
    one_side = Output.FALSE if false_splits else Output.TRUE
    left = out.copy()
    right = out.copy()
    split = out == one_side
    to_right = split & (r.integers(0, 2, size=out.shape) == 1)
    to_left = split & ~to_right
    left[to_right] = Output.ARBITRARY
    right[to_left] = Output.ARBITRARY
    return left, right


def test_series_helpers_match_reference_draw_for_draw():
    codes = rng(99)
    for seed in range(200):
        out = codes.integers(0, 3, size=int(codes.integers(1, 40))).astype(np.int8)
        (got,) = subexpression_outputs("not", out, rng())
        assert got.dtype == np.int8
        assert np.array_equal(got, _negate_reference(out))
        for false_splits in (True, False):
            new_rng, ref_rng = rng(seed), rng(seed)
            got = subexpression_outputs("and" if false_splits else "or", out, new_rng)
            want = _split_reference(out, ref_rng, false_splits)
            for g, w in zip(got, want):
                assert g.dtype == np.int8
                assert np.array_equal(g, w)
            assert new_rng.random() == ref_rng.random()


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
            assert leaf.outputs.dtype == codes.dtype == np.int8
            assert np.array_equal(leaf.outputs, codes)
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
            assert np.array_equal(leaf.outputs, codes)
        assert new_rng.random() == ref_rng.random()


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
