import numpy as np
import pytest

from stlfalsify.grammar import (
    MAX_DEPTH_DEFAULT,
    GrammarError,
    GrammarSpec,
    NodeLocus,
    crossover,
    get_at,
    loci,
    mutate,
    sample_expression,
)
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
    level,
    parse,
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
        assert level(f) is Level.SCALAR
        assert depth(f) <= MAX_DEPTH_DEFAULT
        check(f, CHANNELS)
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
        assert level(f) is Level.SCALAR
        assert depth(f) <= MAX_DEPTH_DEFAULT
        check(f, CHANNELS)
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
        assert level(child) is Level.SCALAR
        assert depth(child) <= MAX_DEPTH_DEFAULT
        check(child, CHANNELS)
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
    """Reference: tag every node by calling ``level`` on it."""
    out = []

    def walk(f, path, d):
        tag = "B" if level(f) is Level.SCALAR else "S"
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
