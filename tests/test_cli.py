import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stlfalsify import cli
from stlfalsify.cli import main
from stlfalsify.constraints import constraints_for
from stlfalsify.samplers import sample_trace
from stlfalsify.sim import scenario
from stlfalsify.stl import SignalTrace, parse


def read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# monitor


def test_monitor_nominal_trace_is_false(tmp_path, capsys):
    sc = scenario("lt1")
    trace_path = tmp_path / "nominal.csv"
    sc.nominal_trace().to_csv(trace_path)
    code = main(["monitor", "G_[0,2](a_maj)", str(trace_path), "--scenario", "lt1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "False"


def test_monitor_forced_trace_is_true(tmp_path, capsys):
    sc = scenario("lt1")
    tr = sc.nominal_trace()
    tr.values["disturbance"][:3] = "a_maj"
    trace_path = tmp_path / "forced.csv"
    tr.to_csv(trace_path)
    code = main(["monitor", "G_[0,2](a_maj)", str(trace_path), "--scenario", "lt1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "True"
    assert len(out.splitlines()) >= 2  # natural-language rendering follows


def test_monitor_rejects_malformed_formula(tmp_path, capsys):
    sc = scenario("lt1")
    trace_path = tmp_path / "nominal.csv"
    sc.nominal_trace().to_csv(trace_path)
    code = main(["monitor", "G_[0,2](", str(trace_path), "--scenario", "lt1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("position") == 1


def test_monitor_requires_known_scenario(tmp_path, capsys):
    trace_path = tmp_path / "x.csv"
    trace_path.write_text("t,disturbance\n0,none\n")
    assert main(["monitor", "a_maj", str(trace_path), "--scenario", "zzz"]) == 2
    assert main(["monitor", "a_maj", str(trace_path)]) == 2


# ---------------------------------------------------------------------------
# sample


def test_sample_emits_verified_traces(tmp_path, capsys):
    out_dir = tmp_path / "samples"
    code = main([
        "sample", "G_[0,2](a_maj)", "--scenario", "lt1",
        "--trials", "5", "--seed", "3", "--out", str(out_dir),
    ])
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert files == [f"trace_{i:03d}.csv" for i in range(5)]
    sc = scenario("lt1")
    for name in files:
        tr = SignalTrace.from_csv(out_dir / name, sc.channels, dt=sc.dt)
        assert (tr.values["disturbance"][:3] == "a_maj").all()


def test_sample_equality_pin_appears_in_output(tmp_path):
    out_dir = tmp_path / "samples"
    code = main([
        "sample", "G_[4,6](a_y = 0.25)", "--scenario", "pc1",
        "--trials", "2", "--seed", "1", "--out", str(out_dir),
    ])
    assert code == 0
    sc = scenario("pc1")
    tr = SignalTrace.from_csv(out_dir / "trace_000.csv", sc.channels, dt=sc.dt)
    assert np.allclose(tr.values["a_y"][4:7], 0.25)


def test_sample_infeasible_formula_exits_3(tmp_path, capsys):
    code = main([
        "sample", "G_[0,0]((a_y <= -1.0 & a_y >= 1.0))", "--scenario", "pc1",
        "--trials", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_sample_pinned_and_negated_equality_exits_3(tmp_path, capsys):
    code = main([
        "sample", "--scenario", "pc1", "--out", str(tmp_path / "x"),
        "--", "(n_x = 0 & !n_x = 0)",
    ])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_sample_rejects_zero_trials(tmp_path, capsys):
    code = main([
        "sample", "a_maj", "--scenario", "lt1",
        "--trials", "0", "--out", str(tmp_path / "x"),
    ])
    assert code == 2


# ---------------------------------------------------------------------------
# baseline


def test_baseline_writes_report_bundle(tmp_path, capsys):
    out_dir = tmp_path / "base"
    code = main([
        "baseline", "--scenario", "lt1", "--trials", "200",
        "--seed", "2", "--out", str(out_dir),
    ])
    assert code == 0
    report = json.loads(read(out_dir / "report.json"))
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"
    assert report["n_trials"] == 200
    assert 0.0 <= report["fail_rate"] <= 1.0
    assert report["likelihood_kind"] == "geometric_mean_step_probability"
    assert report["infeasible"] is False
    result = json.loads(read(out_dir / "result.json"))
    assert result["scenario"] == "lt1"
    for name in result["rollouts"]:
        assert (out_dir / "rollouts" / name).exists()


# ---------------------------------------------------------------------------
# optimize


def test_optimize_writes_full_bundle(tmp_path, capsys):
    out_dir = tmp_path / "opt"
    code = main([
        "optimize", "--scenario", "lt1", "--seed", "7",
        "--pop", "30", "--gens", "4", "--trials", "50", "--out", str(out_dir),
    ])
    assert code == 0
    result = json.loads(read(out_dir / "result.json"))
    assert result["gp"]["population"] == 30
    assert result["best"]["formula"]
    assert result["best"]["natural_language"]
    history = [json.loads(line) for line in read(out_dir / "history.jsonl").splitlines()]
    assert [h["generation"] for h in history] == [0, 1, 2, 3]
    costs = [h["best_so_far_cost"] for h in history]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert (out_dir / "report.json").exists()


def test_optimize_records_the_whole_gp_configuration(tmp_path):
    out_dir = tmp_path / "opt"
    assert main([
        "optimize", "--scenario", "lt1", "--seed", "3",
        "--pop", "6", "--gens", "2", "--trials", "5", "--out", str(out_dir),
    ]) == 0
    result = json.loads(read(out_dir / "result.json"))
    assert result["gp"] == {
        "population": 6,
        "generations": 2,
        "p_reproduce": 0.3,
        "p_crossover": 0.3,
        "p_mutate": 0.4,
        "tournament_size": 7,
        "samples_per_eval": 10,
        "max_depth": 10,
    }


def test_optimize_bundles_are_reproducible(tmp_path):
    args = ["optimize", "--scenario", "lt1", "--seed", "11",
            "--pop", "25", "--gens", "3", "--trials", "30"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("result.json", "history.jsonl", "report.json"):
        assert read(a / name) == read(b / name)
    assert sorted(os.listdir(a / "rollouts")) == sorted(os.listdir(b / "rollouts"))
    for name in os.listdir(a / "rollouts"):
        assert read(a / "rollouts" / name) == read(b / "rollouts" / name)


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "scenario": "lt1", "pop": 12, "gens": 2, "trials": 20, "seed": 5,
        "out": str(tmp_path / "from_config"),
    }))
    assert main(["optimize", "--config", str(cfg)]) == 0
    result = json.loads(read(tmp_path / "from_config" / "result.json"))
    assert result["gp"]["population"] == 12

    assert main(["optimize", "--config", str(cfg), "--pop", "8",
                 "--out", str(tmp_path / "override")]) == 0
    result = json.loads(read(tmp_path / "override" / "result.json"))
    assert result["gp"]["population"] == 8


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["optimize", "--config", str(cfg)]) == 2
    cfg.write_text('["a", "list"]')
    assert main(["optimize", "--config", str(cfg)]) == 2


def test_missing_scenario_exits_2(capsys):
    assert main(["optimize"]) == 2
    assert "scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra",
    [
        ("baseline", {"trials": "5"}),
        ("optimize", {"trials": "5"}),
        ("sample", {"trials": "5"}),
        ("baseline", {"seed": "3"}),
        ("optimize", {"pop": True}),
    ],
)
def test_mistyped_config_value_exits_2(tmp_path, capsys, command, extra):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"scenario": "lt1", "out": str(tmp_path / "o"), **extra}))
    argv = [command, "--config", str(cfg)]
    if command == "sample":
        argv.insert(1, "a_maj")
    assert main(argv) == 2
    (key,) = extra
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--scenario", "lt1", "--pop", "4", "--gens", "1", "--trials", "2"],
        ["baseline", "--scenario", "lt1", "--trials", "2"],
        ["sample", "a_maj", "--scenario", "lt1", "--trials", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv, via):
    if via == "flag":
        seed = ["--seed", "-1"]
    else:
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": -1}))
        seed = ["--config", str(cfg)]
    out = tmp_path / "out"
    code = main(argv + seed + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--seed must be a non-negative integer" in err and "Traceback" not in err
    assert not out.exists()


def test_monitor_ragged_csv_exits_2(tmp_path, capsys):
    trace_path = tmp_path / "ragged.csv"
    trace_path.write_text("t,disturbance\n0,none\n\n0.36\n0.54,none\n")
    code = main(["monitor", "--scenario", "lt1", "G_[0,1](disturbance = a_maj)", str(trace_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 4" in err and "Traceback" not in err


@pytest.mark.parametrize("rows,line", [
    ("abc,a_maj\nxyz,a_maj\n", "line 2"),  # no time column
    ("0,a_maj\n0.36,a_maj\n", "line 3"),  # lt1 steps are 0.18 s apart
])
def test_monitor_bad_time_column_exits_2(tmp_path, capsys, rows, line):
    trace_path = tmp_path / "bad_t.csv"
    trace_path.write_text("t,disturbance\n" + rows)
    code = main(["monitor", "--scenario", "lt1", "G_[0,1](a_maj)", str(trace_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert line in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("formula", ["G_[0,0](a_x <= 0.5)", "G_[0,0](!a_x <= 0.5)"])
def test_monitor_non_finite_cell_exits_2(tmp_path, capsys, formula, cell):
    trace_path = tmp_path / "nan.csv"
    scenario("pc1").nominal_trace().to_csv(trace_path)
    lines = trace_path.read_text().splitlines()
    col = lines[0].split(",").index("a_x")
    cells = lines[1].split(",")
    cells[col] = cell
    lines[1] = ",".join(cells)
    trace_path.write_text("\n".join(lines) + "\n")
    code = main(["monitor", "--scenario", "pc1", formula, str(trace_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "line 2" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("formula", ["a_maj", "G_[0,0](a_maj)"])
def test_monitor_trace_without_rows_exits_2(tmp_path, capsys, formula):
    trace_path = tmp_path / "header_only.csv"
    trace_path.write_text("t,disturbance\n")
    code = main(["monitor", "--scenario", "lt1", formula, str(trace_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(trace_path) in err and "no rows" in err and "Traceback" not in err


def test_monitor_rechecks_a_rollout_csv_at_full_precision(tmp_path, capsys):
    # An exact pin reads true on the rollout CSV as on the trace CSV: the
    # rollout writes its floats at full precision, not rounded to six digits.
    sc = scenario("pc1")
    text = "G_[2,4](n_y = 0.2013579)"
    rng = np.random.default_rng(5)
    cs = constraints_for(parse(text, sc.channels), sc.channels, sc.horizon, rng)
    trace = sample_trace(sc.model, sc.horizon, sc.dt, cs, rng=rng)
    res = sc.run(trace)
    assert len(res.records) > 4  # the rollout reaches the pinned window
    trace.to_csv(tmp_path / "trace.csv")
    res.to_csv(tmp_path / "rollout.csv")
    for name in ("trace.csv", "rollout.csv"):
        assert main(["monitor", "--scenario", "pc1", text, str(tmp_path / name)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "True"


def test_baseline_rejects_zero_trials(tmp_path, capsys):
    out_dir = tmp_path / "x"
    code = main(["baseline", "--scenario", "lt1", "--trials", "0", "--out", str(out_dir)])
    assert code == 2
    assert "trials" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--scenario", "lt1", "--pop", "4", "--gens", "1", "--trials", "2"],
        ["baseline", "--scenario", "lt1", "--trials", "2"],
        ["sample", "a_maj", "--scenario", "lt1", "--trials", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_naming_a_file_exits_2(tmp_path, capsys, monkeypatch, argv):
    def sampled(*args, **kwargs):
        raise AssertionError("sampling started before --out was created")

    for name in ("run", "importance_sample", "constraints_for"):
        monkeypatch.setattr(cli, name, sampled)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    code = main(argv + ["--out", str(taken)])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot create output directory" in err and "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "argv,blocked",
    [
        (["sample", "a_maj", "--scenario", "lt1", "--trials", "1"], "trace_000.csv"),
        (["optimize", "--scenario", "lt1", "--pop", "4", "--gens", "1", "--trials", "2"], "history.jsonl"),
        (["baseline", "--scenario", "lt1", "--trials", "2"], "report.json"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_unwritable_file_inside_out_exits_2(tmp_path, capsys, argv, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where the file should go
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write output") and blocked in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# robustness: no input makes the CLI die with a traceback


@pytest.mark.parametrize(
    "formula",
    [
        "!" * 990 + "G_[0,1](a_maj)",
        "(" * 3000 + "a_maj" + ")" * 3000,
        "G_[0,1](" + " & ".join(["a_maj"] * 2000) + ")",
    ],
    ids=["990-negations", "3000-parentheses", "2000-term-conjunction"],
)
def test_deeply_nested_formula_exits_2(tmp_path, capsys, formula):
    trace_path = tmp_path / "nominal.csv"
    scenario("lt1").nominal_trace().to_csv(trace_path)
    code = main(["monitor", "--scenario", "lt1", formula, str(trace_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "deeper than" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["monitor", "sample"])
@pytest.mark.parametrize("formula", ["G_[0,1e400](a_maj)", "F_[0,1e400](a_maj)"])
def test_infinite_interval_endpoint_exits_2(tmp_path, capsys, command, formula):
    if command == "monitor":
        trace_path = tmp_path / "nominal.csv"
        scenario("lt1").nominal_trace().to_csv(trace_path)
        argv = ["monitor", "--scenario", "lt1", formula, str(trace_path)]
    else:
        argv = ["sample", "--scenario", "lt1", "--trials", "1", "--out", str(tmp_path / "o"), formula]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "1e400" in err and "Traceback" not in err


FORMULA_TOKENS = [
    "G_", "F_", "[", "]", "(", ")", ",", "!", "&", "|", "=", "<=", ">=", " ",
    "0", "1", "3", "-1", "0.5", "1e9", "1e400", "disturbance", "a_maj", "none", "B", "a_y", "n_x", "zz",
]
# mostly valid comparisons per scenario, plus a few that fail validation
ATOMS = {
    "lt1": ["a_maj", "none", "B", "S", "disturbance = d_med", "disturbance <= 1", "a_y <= 0.5"],
    "pc1": ["a_y <= 0.5", "a_y >= -3", "n_x = 0", "a_x <= -0.4", "n_vy >= 1.9", "a_maj", "zz = 1"],
}


def formula_texts(name):
    series = st.recursive(
        st.sampled_from(ATOMS[name]),
        lambda sub: st.one_of(
            sub.map("!{}".format),
            st.tuples(sub, st.sampled_from(["&", "|"]), sub).map("({0[0]} {0[1]} {0[2]})".format),
        ),
        max_leaves=4,
    )
    scalar = st.tuples(
        st.sampled_from(["G_", "F_"]), st.integers(-1, 31), st.integers(-1, 31), series
    ).map("{0[0]}[{0[1]},{0[2]}]({0[3]})".format)
    return st.one_of(
        st.text(max_size=30),
        st.lists(st.sampled_from(FORMULA_TOKENS), max_size=25).map("".join),
        series,
        scalar,
        st.tuples(scalar, st.sampled_from(["&", "|"]), scalar).map(" ".join),
    )


CSV_CELLS = ["0", "0.1", "0.2", "-1", "5", "nan", "inf", "none", "a_maj", "B", "x", "t", "", " "]


def _edited(lines, edits) -> bytes:
    """``lines`` with each (line, cell, new value) edit applied; None drops the cell."""
    lines = list(lines)
    for i, j, cell in edits:
        cells = lines[i % len(lines)].split(",")
        if cell is None:
            del cells[j % len(cells)]
        else:
            cells[j % len(cells)] = cell
        lines[i % len(lines)] = ",".join(cells)
    return "\n".join(lines).encode()


FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(name=st.sampled_from(["lt1", "pc1"]), data=st.data())
def test_arbitrary_formula_text_never_raises(tmp_path, capsys, name, data):
    text = data.draw(formula_texts(name))
    trace_path = tmp_path / f"{name}.csv"
    scenario(name).nominal_trace().to_csv(trace_path)
    # "--" keeps text that starts with "-" a positional formula
    assert main(["monitor", "--scenario", name, "--", text, str(trace_path)]) in (0, 2, 3)
    out = str(tmp_path / "samples")
    assert main(["sample", "--scenario", name, "--trials", "2", "--out", out, "--", text]) in (0, 2, 3)
    capsys.readouterr()


@FUZZ
@given(name=st.sampled_from(["lt1", "pc1"]), data=st.data())
def test_arbitrary_trace_bytes_never_raise(tmp_path, capsys, name, data):
    trace_path = tmp_path / "fuzz.csv"
    scenario(name).nominal_trace().to_csv(trace_path)
    lines = trace_path.read_text().splitlines()
    edits = st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 9), st.sampled_from([*CSV_CELLS, None])),
        max_size=4,
    )
    raw = data.draw(st.one_of(
        st.binary(max_size=120),
        st.tuples(st.integers(1, len(lines)), edits).map(lambda ke: _edited(lines[: ke[0]], ke[1])),
    ))
    trace_path.write_bytes(raw)
    formula = "G_[0,1](a_maj)" if name == "lt1" else "F_[0,1](a_y >= 0.5)"
    assert main(["monitor", "--scenario", name, formula, str(trace_path)]) in (0, 2, 3)
    capsys.readouterr()
