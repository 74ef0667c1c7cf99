import numpy as np
import pytest

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
    ParseError,
    SignalTrace,
    TimeInterval,
    canonical_text,
    check,
    depth,
    eval_series,
    evaluate,
    level,
    parse,
    render_natural_language,
)

DIST = CategoricalChannel(
    name="disturbance",
    symbols=("none", "d_med", "d_maj", "a_med", "a_maj", "S", "L"),
    aliases=(("B", "S"),),
)
ACC = ContinuousChannel(name="a_y", lo=-2.0, hi=2.0)
CHANNELS = (DIST, ACC)


def make_trace(symbols, acc=None):
    symbols = list(symbols)
    if acc is None:
        acc = [0.0] * len(symbols)
    return SignalTrace(
        dt=0.5,
        channels=CHANNELS,
        values={
            "disturbance": np.array(symbols, dtype=object),
            "a_y": np.asarray(acc, dtype=float),
        },
    )


# ---------------------------------------------------------------------------
# interval and node construction


def _only_at(steps, m=8):
    """A trace that reads a_maj at ``steps`` and none elsewhere."""
    return make_trace(["a_maj" if i in steps else "none" for i in range(m)])


def test_interval_orders_bounds():
    atom = Cmp("disturbance", "=", "a_maj")
    iv = TimeInterval(2, 5)
    assert evaluate(Always(iv, atom), _only_at({2, 3, 4, 5}))
    assert not evaluate(Eventually(iv, atom), _only_at({1, 6}))
    with pytest.raises(ValueError):
        TimeInterval(5, 2)
    with pytest.raises(ValueError):
        TimeInterval(-1, 3)


def test_interval_is_closed_on_both_ends():
    atom = Cmp("disturbance", "=", "a_maj")
    for lo, hi in ((2, 5), (3, 3)):
        window = Eventually(TimeInterval(lo, hi), atom)
        assert evaluate(window, _only_at({lo})) and evaluate(window, _only_at({hi}))
        assert not evaluate(window, _only_at({lo - 1, hi + 1}))


def test_cmp_rejects_symbol_inequalities():
    with pytest.raises(FormulaTypeError):
        Cmp("disturbance", "<=", "a_maj")
    with pytest.raises(FormulaTypeError):
        Cmp("a_y", "!=", 0.0)


def test_levels():
    atom = Cmp("a_y", "<=", 0.5)
    assert level(atom) is Level.SERIES
    assert level(Not(atom)) is Level.SERIES
    g = Always(TimeInterval(0, 3), atom)
    assert level(g) is Level.SCALAR
    assert level(And(g, Not(g))) is Level.SCALAR


def test_mixed_level_connective_rejected():
    atom = Cmp("a_y", ">=", 0.0)
    g = Always(TimeInterval(0, 1), atom)
    with pytest.raises(FormulaTypeError):
        level(And(atom, g))


def test_windowed_operator_needs_series_argument():
    g = Always(TimeInterval(0, 1), Cmp("a_y", "<=", 0.0))
    with pytest.raises(FormulaTypeError):
        level(Always(TimeInterval(0, 1), g))


def test_depth_counts_formula_nodes_only():
    atom = Cmp("disturbance", "=", "a_maj")
    assert depth(atom) == 1
    assert depth(Not(atom)) == 2
    assert depth(Always(TimeInterval(0, 2), Not(atom))) == 3
    assert depth(And(Always(TimeInterval(0, 2), atom), Eventually(TimeInterval(0, 2), atom))) == 3


def test_depth_of_a_chain_deeper_than_the_recursion_limit():
    f = Cmp("disturbance", "=", "a_maj")
    for _ in range(3000):
        f = Not(f)
    assert depth(f) == 3001


def test_check_validates_channels_and_ranges():
    assert check(parse("G_[0,2](a_maj)", CHANNELS), CHANNELS) is Level.SCALAR
    with pytest.raises(FormulaTypeError):
        check(Cmp("missing", "<=", 0.0), CHANNELS)
    with pytest.raises(FormulaTypeError):
        check(Cmp("disturbance", "=", "warp"), CHANNELS)
    with pytest.raises(FormulaTypeError):
        check(Cmp("a_y", "<=", 9.0), CHANNELS)  # outside declared range


# ---------------------------------------------------------------------------
# evaluation


def test_series_semantics_pointwise():
    tr = make_trace(["none", "a_maj", "none", "a_maj"])
    hits = eval_series(Cmp("disturbance", "=", "a_maj"), tr)
    assert hits.tolist() == [False, True, False, True]
    assert eval_series(Not(Cmp("disturbance", "=", "a_maj")), tr).tolist() == [
        True, False, True, False,
    ]


def test_always_and_eventually_windows():
    tr = make_trace(["a_maj", "a_maj", "none", "none"])
    atom = Cmp("disturbance", "=", "a_maj")
    assert evaluate(Always(TimeInterval(0, 1), atom), tr)
    assert not evaluate(Always(TimeInterval(0, 2), atom), tr)
    assert evaluate(Eventually(TimeInterval(1, 3), atom), tr)
    assert not evaluate(Eventually(TimeInterval(2, 3), atom), tr)


def test_window_beyond_horizon_is_an_error():
    tr = make_trace(["none"] * 3)
    with pytest.raises(FormulaTypeError):
        evaluate(Always(TimeInterval(0, 3), Cmp("disturbance", "=", "none")), tr)


def test_evaluate_walks_both_sides_of_every_connective():
    # The left side decides each of these, so a short-circuit never reaches
    # the right side's window past the end or its node of the wrong level.
    tr = make_trace(["none"] * 24)
    atom = Cmp("disturbance", "=", "a_maj")
    short, long = Always(TimeInterval(0, 1), atom), Always(TimeInterval(0, 99), atom)
    never = Not(Eventually(TimeInterval(0, 1), atom))
    for f in (And(short, long), And(long, short), Or(never, long), Or(never, atom),
              And(short, Not(atom)), Or(atom, never)):
        with pytest.raises(FormulaTypeError):
            evaluate(f, tr)


def test_bare_series_root_means_at_every_step():
    atom = Cmp("disturbance", "=", "none")
    assert evaluate(atom, make_trace(["none"] * 4))
    assert not evaluate(atom, make_trace(["none", "S", "none", "none"]))


def test_scalar_connectives():
    tr = make_trace(["a_maj", "none", "none"])
    first = Always(TimeInterval(0, 0), Cmp("disturbance", "=", "a_maj"))
    later = Eventually(TimeInterval(1, 2), Cmp("disturbance", "=", "a_maj"))
    assert evaluate(And(first, Not(later)), tr)
    assert evaluate(Or(later, first), tr)
    assert not evaluate(And(first, later), tr)


def test_continuous_comparisons_are_inclusive():
    tr = make_trace(["none"] * 3, acc=[0.5, -0.5, 0.0])
    assert evaluate(Eventually(TimeInterval(0, 2), Cmp("a_y", ">=", 0.5)), tr)
    assert evaluate(Eventually(TimeInterval(0, 2), Cmp("a_y", "=", -0.5)), tr)
    assert not evaluate(Always(TimeInterval(0, 2), Cmp("a_y", "<=", 0.25)), tr)


# ---------------------------------------------------------------------------
# traces


def test_trace_validates_lengths_and_symbols():
    with pytest.raises(ValueError):
        SignalTrace(
            dt=0.5,
            channels=CHANNELS,
            values={
                "disturbance": np.array(["none", "none"], dtype=object),
                "a_y": np.zeros(3),
            },
        )
    with pytest.raises(ValueError):
        make_trace(["none", "bogus"])


def test_trace_rejects_undeclared_channels_and_keeps_its_own_values():
    lt1 = (CategoricalChannel("disturbance", symbols=DIST.symbols),)
    values = {"disturbance": ["none"] * 24, "extra": [1.0, 2.0, 3.0]}
    with pytest.raises(ValueError, match="extra"):
        SignalTrace(dt=0.18, channels=lt1, values=values)
    del values["extra"]
    trace = SignalTrace(dt=0.18, channels=lt1, values=values)
    assert trace.m == 24
    assert isinstance(values["disturbance"], list)  # the caller's dict is untouched
    assert trace.values is not values


def test_trace_values_may_leave_the_threshold_range():
    trace = make_trace(["none"], acc=[5.0])  # a_y thresholds lie in [-2, 2]
    assert trace.values["a_y"][0] == 5.0


def test_trace_csv_roundtrip(tmp_path):
    tr = make_trace(["none", "a_maj", "S"], acc=[0.125, -1.0, 0.3333333333333333])
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    back = SignalTrace.from_csv(path, CHANNELS, dt=tr.dt)
    assert back.values["disturbance"].tolist() == ["none", "a_maj", "S"]
    np.testing.assert_array_equal(back.values["a_y"], tr.values["a_y"])


def test_trace_csv_roundtrip_over_many_steps_at_an_inexact_rate(tmp_path):
    # t is written to six significant digits, so 1/3 s steps read back
    # rounded: the spacing check must allow for that, up to t = 333
    n = 1000
    tr = SignalTrace(dt=1 / 3, channels=CHANNELS, values={
        "disturbance": np.array(["none", "S"] * (n // 2), dtype=object),
        "a_y": np.linspace(-1.0, 1.0, n),
    })
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    back = SignalTrace.from_csv(path, CHANNELS, dt=tr.dt)
    assert back.m == n
    np.testing.assert_array_equal(back.values["a_y"], tr.values["a_y"])


@pytest.mark.parametrize("name", ["lt1", "pc1"])
def test_rollout_csv_roundtrip(tmp_path, name):
    # rollout rows start at t = dt, one per simulated step
    from stlfalsify.sim import scenario

    sc = scenario(name)
    trace = sc.nominal_trace()
    res = sc.run(trace)
    path = tmp_path / "rollout.csv"
    res.to_csv(path)
    assert path.read_text().splitlines()[1].split(",")[0] == repr(round(sc.dt, 9))
    back = SignalTrace.from_csv(path, sc.channels, dt=sc.dt)
    assert back.m == len(res.records)
    for ch in sc.channels:
        assert back.values[ch.name].tolist() == trace.values[ch.name][: back.m].tolist()


def _rows(path):
    return path.read_text().splitlines()


def test_trace_csv_at_another_rate_names_the_line(tmp_path):
    path = tmp_path / "trace.csv"
    make_trace(["none", "a_maj", "S"]).to_csv(path)  # dt = 0.5
    with pytest.raises(ValueError, match="line 3"):
        SignalTrace.from_csv(path, CHANNELS, dt=0.25)
    lines = _rows(path)
    lines[3] = "1.5," + lines[3].split(",", 1)[1]  # a skipped row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4"):
        SignalTrace.from_csv(path, CHANNELS, dt=0.5)


@pytest.mark.parametrize("column,cell", [
    (0, "abc"), (0, "nan"), (0, "inf"), (2, "xyz"), (2, "nan"), (2, "inf"), (2, "-inf"),
])
def test_trace_csv_garbage_cell_names_the_line(tmp_path, column, cell):
    path = tmp_path / "trace.csv"
    make_trace(["none", "a_maj", "S"]).to_csv(path)
    lines = _rows(path)
    cells = lines[2].split(",")
    cells[column] = cell
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        SignalTrace.from_csv(path, CHANNELS, dt=0.5)


# ---------------------------------------------------------------------------
# text forms


def test_canonical_text_roundtrip():
    texts = [
        "G_[0,2](disturbance = a_maj)",
        "F_[1,5](!(disturbance = S | disturbance = L))",
        "(G_[0,1](a_y <= 0.5) & F_[0,3]((a_y >= -1.0 & disturbance = none)))",
    ]
    for text in texts:
        f = parse(text, CHANNELS)
        assert canonical_text(parse(canonical_text(f), CHANNELS)) == canonical_text(f)


def test_parse_accepts_unicode_and_shorthand():
    a = parse("□_[0,2](a_maj)", CHANNELS)
    b = parse("G_[0,2](disturbance = a_maj)", CHANNELS)
    assert canonical_text(a) == canonical_text(b)
    c = parse("◊_[0,1](¬(S ∧ L))", CHANNELS)
    d = parse("F_[0,1](!(disturbance = S & disturbance = L))", CHANNELS)
    assert canonical_text(c) == canonical_text(d)


def test_parse_resolves_aliases():
    f = parse("G_[0,0](B)", CHANNELS)
    assert canonical_text(f) == "G_[0,0](disturbance = S)"


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse("G_[0,2](", CHANNELS)
    assert err.value.pos is not None
    with pytest.raises(ParseError):
        parse("G_[2,0](a_maj)", CHANNELS)
    with pytest.raises((ParseError, FormulaTypeError)):
        parse("G_[0,2](nope = 1)", CHANNELS)


def test_natural_language_mentions_phrases_and_times():
    phrases = {("disturbance", "a_maj"): "the oncoming car accelerates hard"}
    text = render_natural_language(
        parse("G_[0,2](a_maj)", CHANNELS), dt=0.5, phrases=phrases
    )
    assert "the oncoming car accelerates hard" in text
    assert "0" in text and "1" in text  # the window in seconds
    plain = render_natural_language(parse("F_[0,1](a_y <= 0.5)", CHANNELS), dt=0.5)
    assert "at some time" in plain
