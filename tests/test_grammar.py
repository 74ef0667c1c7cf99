import numpy as np
import pytest

import stlfalsify.grammar as grammar_module
from stlfalsify.grammar import (
    _MIN_DEPTH,
    MAX_DEPTH_DEFAULT,
    GrammarError,
    GrammarSpec,
    NodeLocus,
    _atom_rules,
    _sample_interval,
    _sample_value,
    crossover,
    get_at,
    loci,
    mutate,
    replace_at,
    sample_expression,
)
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
    TimeInterval,
    canonical_text,
    check,
    depth,
    parse,
    root_level,
)

CHANNELS = (
    CategoricalChannel(
        name="disturbance",
        symbols=("none", "d_med", "d_maj", "a_med", "a_maj", "S", "L"),
    ),
    ContinuousChannel(name="a_y", lo=-2.0, hi=2.0),
)
GRAMMAR = GrammarSpec(channels=CHANNELS, t_max=23)


def test_config_validation():
    with pytest.raises(GrammarError):
        GrammarSpec(channels=CHANNELS, t_max=-1)


def test_sampled_formulas_are_well_typed():
    rng = np.random.default_rng(7)
    for _ in range(300):
        f = sample_expression(GRAMMAR, rng)
        assert check(f, CHANNELS) is Level.SCALAR
        assert depth(f) <= MAX_DEPTH_DEFAULT
        assert all(get_at(f, s.path) <= GRAMMAR.t_max for s in loci(f) if s.kind == ("T",))


def test_sampling_honors_small_depth_budgets():
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = sample_expression(GRAMMAR, rng, max_depth=2)
        assert depth(f) <= 2
    with pytest.raises(GrammarError):
        sample_expression(GRAMMAR, rng, max_depth=1)  # scalar needs two levels


def test_sampling_is_deterministic_per_seed():
    a = sample_expression(GRAMMAR, np.random.default_rng(123))
    b = sample_expression(GRAMMAR, np.random.default_rng(123))
    assert canonical_text(a) == canonical_text(b)


def test_mutate_preserves_typing():
    rng = np.random.default_rng(11)
    f = sample_expression(GRAMMAR, rng)
    for _ in range(300):
        f = mutate(f, GRAMMAR, rng)
        assert check(f, CHANNELS) is Level.SCALAR
        assert depth(f) <= MAX_DEPTH_DEFAULT
        assert all(get_at(f, s.path) <= GRAMMAR.t_max for s in loci(f) if s.kind == ("T",))


def test_mutate_eventually_changes_something():
    rng = np.random.default_rng(3)
    f = parse("G_[0,2](a_maj)", CHANNELS)
    texts = {canonical_text(mutate(f, GRAMMAR, rng)) for _ in range(50)}
    assert len(texts) > 1


def test_crossover_preserves_typing_and_root():
    rng = np.random.default_rng(5)
    for _ in range(300):
        donor = sample_expression(GRAMMAR, rng)
        recipient = sample_expression(GRAMMAR, rng)
        child = crossover(donor, recipient, GRAMMAR, rng)
        assert type(child) is type(recipient)
        assert check(child, CHANNELS) is Level.SCALAR
        assert depth(child) <= MAX_DEPTH_DEFAULT
        assert all(get_at(child, s.path) <= GRAMMAR.t_max for s in loci(child) if s.kind == ("T",))


def test_crossover_grafts_donor_material():
    rng = np.random.default_rng(9)
    donor = parse("G_[7,7](d_med)", CHANNELS)
    recipient = parse("(F_[0,1](a_maj) & F_[2,3](a_maj))", CHANNELS)
    seen_donor_bits = False
    for _ in range(60):
        child = crossover(donor, recipient, GRAMMAR, rng)
        if "d_med" in canonical_text(child) or "[7,7]" in canonical_text(child):
            seen_donor_bits = True
            break
    assert seen_donor_bits


def test_loci_cover_every_node_kind():
    f = parse("(G_[0,2](a_maj) & F_[1,3]((a_y <= 0.5 | !a_maj)))", CHANNELS)
    kinds = {s.kind for s in loci(f)}
    assert ("B",) in kinds  # scalar formula nodes
    assert ("S",) in kinds  # series formula nodes
    assert ("T",) in kinds  # interval endpoints
    assert ("X", "disturbance") in kinds and ("X", "a_y") in kinds
    assert loci(f)[0].path == ()  # root comes first


def _loci_by_node_level(formula):
    """Reference: tag every node by calling ``root_level`` on it."""
    out = []

    def walk(f, path, d):
        tag = "B" if root_level(f) is Level.SCALAR else "S"
        out.append(NodeLocus(path, (tag,), d))
        if isinstance(f, Cmp):
            out.append(NodeLocus(path + (0,), ("X", f.channel), d))
        elif isinstance(f, Not):
            walk(f.arg, path + (0,), d + 1)
        elif isinstance(f, (And, Or)):
            walk(f.lhs, path + (0,), d + 1)
            walk(f.rhs, path + (1,), d + 1)
        else:
            out.append(NodeLocus(path + (0,), ("T",), d))
            out.append(NodeLocus(path + (1,), ("T",), d))
            walk(f.arg, path + (2,), d + 1)

    walk(formula, (), 1)
    return out


def test_loci_match_per_node_levels():
    rng = np.random.default_rng(17)
    for start in (Level.SCALAR, Level.SERIES):
        for _ in range(60):
            f = sample_expression(GRAMMAR, rng, start=start)
            assert loci(f) == _loci_by_node_level(f)


def test_loci_reject_mixed_levels():
    a_maj = Cmp("disturbance", "=", "a_maj")
    window = Always(TimeInterval(0, 2), a_maj)
    for bad in (And(a_maj, window), Not(Or(window, a_maj)), Eventually(TimeInterval(0, 1), window)):
        with pytest.raises(FormulaTypeError):
            loci(bad)


# ---------------------------------------------------------------------------
# Frozen copies of the rule draw and the node addressing as they stood before
# the grammar read one slot layout (``_slots``) and one rule order per level.
# mutate and crossover run against them by patching the module's helpers.


def _sample_expression_frozen(grammar, rng, start=Level.SCALAR, max_depth=MAX_DEPTH_DEFAULT):
    if max_depth < _MIN_DEPTH[start]:
        raise GrammarError(f"no {start.value} rule terminates within depth {max_depth}")
    atoms = _atom_rules(grammar)

    def series(budget):
        rules = [(f"atom:{i}", 1) for i in range(len(atoms))]
        rules += [("and", 2), ("or", 2), ("not", 2)]
        feasible = [r for r, need in rules if need <= budget]
        rule = feasible[int(rng.integers(len(feasible)))]
        if rule.startswith("atom:"):
            name, op = atoms[int(rule.split(":")[1])]
            return Cmp(name, op, _sample_value(grammar, name, rng))
        if rule == "not":
            return Not(series(budget - 1))
        lhs, rhs = series(budget - 1), series(budget - 1)
        return And(lhs, rhs) if rule == "and" else Or(lhs, rhs)

    def scalar(budget):
        rules = [("and", 3), ("or", 3), ("not", 3), ("always", 2), ("eventually", 2)]
        feasible = [r for r, need in rules if need <= budget]
        rule = feasible[int(rng.integers(len(feasible)))]
        if rule in ("always", "eventually"):
            iv = _sample_interval(grammar, rng)
            arg = series(budget - 1)
            return Always(iv, arg) if rule == "always" else Eventually(iv, arg)
        if rule == "not":
            return Not(scalar(budget - 1))
        lhs, rhs = scalar(budget - 1), scalar(budget - 1)
        return And(lhs, rhs) if rule == "and" else Or(lhs, rhs)

    return series(max_depth) if start is Level.SERIES else scalar(max_depth)


def _loci_frozen(formula):
    out = []

    def walk(f, path, d, tag):
        if isinstance(f, Cmp):
            out.append(NodeLocus(path, ("S",), d))
            out.append(NodeLocus(path + (0,), ("X", f.channel), d))
        elif isinstance(f, Not):
            out.append(NodeLocus(path, (tag,), d))
            walk(f.arg, path + (0,), d + 1, tag)
        elif isinstance(f, (And, Or)):
            out.append(NodeLocus(path, (tag,), d))
            walk(f.lhs, path + (0,), d + 1, tag)
            walk(f.rhs, path + (1,), d + 1, tag)
        else:
            out.append(NodeLocus(path, ("B",), d))
            out.append(NodeLocus(path + (0,), ("T",), d))
            out.append(NodeLocus(path + (1,), ("T",), d))
            walk(f.arg, path + (2,), d + 1, "S")

    walk(formula, (), 1, "B" if check(formula, _FROZEN_CHANNELS) is Level.SCALAR else "S")
    return out


# every channel of the grammars that the frozen copies serve
_FROZEN_CHANNELS = scenario("lt1").channels + scenario("pc1").channels


def _get_at_frozen(formula, path):
    if not path:
        return formula
    head, rest = path[0], path[1:]
    if isinstance(formula, Cmp):
        if head == 0 and not rest:
            return formula.value
    elif isinstance(formula, Not):
        if head == 0:
            return _get_at_frozen(formula.arg, rest)
    elif isinstance(formula, (And, Or)):
        if head == 0:
            return _get_at_frozen(formula.lhs, rest)
        if head == 1:
            return _get_at_frozen(formula.rhs, rest)
    elif isinstance(formula, (Always, Eventually)):
        if head == 0 and not rest:
            return formula.interval.lo
        if head == 1 and not rest:
            return formula.interval.hi
        if head == 2:
            return _get_at_frozen(formula.arg, rest)
    raise GrammarError(f"no node at path {path} in {type(formula).__name__}")


def _replace_at_frozen(formula, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(formula, Cmp):
        if head == 0 and not rest:
            return Cmp(formula.channel, formula.op, new)
    elif isinstance(formula, Not):
        if head == 0:
            return Not(_replace_at_frozen(formula.arg, rest, new))
    elif isinstance(formula, (And, Or)):
        cls = type(formula)
        if head == 0:
            return cls(_replace_at_frozen(formula.lhs, rest, new), formula.rhs)
        if head == 1:
            return cls(formula.lhs, _replace_at_frozen(formula.rhs, rest, new))
    elif isinstance(formula, (Always, Eventually)):
        cls = type(formula)
        if head in (0, 1) and not rest:
            pair = [formula.interval.lo, formula.interval.hi]
            pair[head] = int(new)
            return cls(TimeInterval(min(pair), max(pair)), formula.arg)
        if head == 2:
            return cls(formula.interval, _replace_at_frozen(formula.arg, rest, new))
    raise GrammarError(f"no node at path {path} in {type(formula).__name__}")


_FROZEN = {
    "sample_expression": _sample_expression_frozen,
    "loci": _loci_frozen,
    "get_at": _get_at_frozen,
    "replace_at": _replace_at_frozen,
}


def _outcome(fn, *args):
    """``fn(*args)``, or the class of the grammar or typing error it raises."""
    try:
        return fn(*args)
    except (GrammarError, FormulaTypeError) as e:
        return type(e)


def _paired(fn, seed, *args):
    """Run ``fn`` as it is and against the frozen helpers, each on its own
    generator seeded ``seed``; return both outcomes and both next uniforms."""
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _outcome(fn, *args, got_rng)
    with pytest.MonkeyPatch.context() as mp:
        for name, frozen in _FROZEN.items():
            mp.setattr(grammar_module, name, frozen)
        want = _outcome(fn, *args, want_rng)
    return got, want, got_rng.random(), want_rng.random()


@pytest.mark.parametrize("name", ["lt1", "pc1"])
def test_grammar_matches_frozen_parent(name):
    grammar = scenario(name).grammar
    mixed = 0
    for i in range(2000):
        start, budget = (Level.SCALAR, Level.SERIES)[i % 2], 1 + (i // 2) % 10
        got_rng, want_rng = np.random.default_rng(i), np.random.default_rng(i)
        f = _outcome(sample_expression, grammar, got_rng, start, budget)
        assert f == _outcome(_sample_expression_frozen, grammar, want_rng, start, budget)
        assert got_rng.random() == want_rng.random()
        if f is GrammarError:
            continue
        sites = loci(f)
        assert sites == _loci_frozen(f)

        got, want, u, v = _paired(mutate, (i, 1), f, grammar)
        assert got == want and u == v
        mutant = got
        got, want, u, v = _paired(crossover, (i, 2), f, mutant, grammar)
        assert got == want and u == v

        pick = np.random.default_rng((i, 3))
        for s in pick.choice(len(sites), size=min(6, len(sites)), replace=False):
            p = sites[s].path
            paths = [p, p + (0,), p + (2,)]
            if p:
                paths += [p[:-1] + (p[-1] + 1,), p[:-1] + (-1,)]
            for q in paths:
                assert _outcome(get_at, f, q) == _outcome(_get_at_frozen, f, q)
                assert _outcome(replace_at, f, q, 7) == _outcome(_replace_at_frozen, f, q, 7)

        # Graft a formula of the other level below the root.  That mixes
        # levels unless only negations lie above it.
        formula_sites = [s for s in sites if s.kind in (("B",), ("S",))]
        below = [s for s in formula_sites if s.path] or formula_sites
        site = below[int(pick.integers(len(below)))]
        other = Level.SERIES if site.kind == ("B",) else Level.SCALAR
        graft = sample_expression(grammar, pick, start=other, max_depth=3)
        g = replace_at(f, site.path, graft)
        got = _outcome(loci, g)
        assert got == _outcome(_loci_frozen, g)
        mixed += got is FormulaTypeError
    assert mixed > 800
