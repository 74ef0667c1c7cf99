"""Temporal-logic formulas over sampled multi-channel signals.

Formulas live at two levels.  A *series* formula assigns a truth value to
every step of a trace: comparisons like ``speed >= 4.0`` and the pointwise
connectives and/or/not.  A *scalar* formula assigns a single truth value to
the whole trace: the windowed operators "always" and "eventually" collapse a
series to a scalar over a step interval, and the connectives combine scalars.

Intervals are closed and indexed in steps, so ``Always(TimeInterval(0, 2), s)``
reads "s holds at steps 0, 1 and 2".  Channels are either continuous (float
samples, thresholds drawn from a declared range) or categorical (string
symbols, equality tests only).

Every reader types a formula top down: ``root_level`` reads the root's
level off its leftmost path, and the reader's walk raises FormulaTypeError
at the first node of the wrong level.  On an m-step trace a series root
holds at every step (``lift``) and a window must end inside the trace
(``check_horizon``).

The canonical text form (see ``canonical_text`` / ``parse``) is a plain ASCII
syntax::

    G_[0,2](speed >= 4.0)            always, steps 0..2
    F_[1,5](disturbance = a_maj)     eventually, steps 1..5
    (a & b), (a | b), !a             connectives

Unicode spellings of the operators are accepted on input.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "Level",
    "TimeInterval",
    "ContinuousChannel",
    "CategoricalChannel",
    "ChannelSpec",
    "Cmp",
    "Not",
    "And",
    "Or",
    "Always",
    "Eventually",
    "Formula",
    "FormulaTypeError",
    "ParseError",
    "SignalTrace",
    "TraceBatch",
    "write_csv",
    "root_level",
    "depth",
    "check",
    "lift",
    "check_horizon",
    "evaluate",
    "eval_series",
    "canonical_text",
    "parse",
    "render_natural_language",
]

OPS = ("<=", ">=", "=")


class Level(Enum):
    SCALAR = "scalar"
    SERIES = "series"


class FormulaTypeError(ValueError):
    """A formula is structurally invalid or inconsistent with its channels."""


@dataclass(frozen=True)
class TimeInterval:
    """Closed step interval [lo, hi], both endpoints included."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise FormulaTypeError(f"bad interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class ContinuousChannel:
    """A float-valued channel.

    ``lo``/``hi`` bound the thresholds a formula may compare against, not
    the signal values themselves: the continuous models have unbounded
    support.
    """

    name: str
    lo: float
    hi: float


@dataclass(frozen=True)
class CategoricalChannel:
    """A symbol-valued channel.  ``aliases`` maps alternate spellings that
    formula text may use onto canonical symbols."""

    name: str
    symbols: tuple[str, ...]
    aliases: tuple[tuple[str, str], ...] = ()  # (alternate, canonical) pairs

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise FormulaTypeError(f"duplicate symbols on channel {self.name}")

    def resolve(self, symbol: str) -> str:
        for alt, canon in self.aliases:
            if symbol == alt:
                return canon
        return symbol


ChannelSpec = Union[ContinuousChannel, CategoricalChannel]


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Cmp:
    """Atomic comparison ``channel op value``, a series formula."""

    channel: str
    op: str
    value: Union[float, str]

    def __post_init__(self):
        if self.op not in OPS:
            raise FormulaTypeError(f"unknown comparison op {self.op!r}")
        if isinstance(self.value, str) and self.op != "=":
            raise FormulaTypeError("symbols only support equality tests")


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Always:
    interval: TimeInterval
    arg: "Formula"


@dataclass(frozen=True)
class Eventually:
    interval: TimeInterval
    arg: "Formula"


Formula = Union[Cmp, Not, And, Or, Always, Eventually]


def root_level(formula: Formula) -> Level:
    """The level of a well-typed formula, read off its leftmost path.

    Connectives share their children's level, so the first node below the
    root's connectives decides it: a comparison makes a series, anything
    else a scalar.  Nothing else is checked.
    """
    while isinstance(formula, (Not, And, Or)):
        formula = formula.arg if isinstance(formula, Not) else formula.lhs
    return Level.SERIES if isinstance(formula, Cmp) else Level.SCALAR


def depth(formula: Formula) -> int:
    """Tree depth counting formula nodes only; a lone comparison has depth 1.

    Walks the tree one level at a time without recursion, so a tree of any
    depth is measured.
    """
    d, layer = 0, [formula]
    while layer:
        d += 1
        below = []
        for f in layer:
            if isinstance(f, (And, Or)):
                below += (f.lhs, f.rhs)
            elif isinstance(f, (Not, Always, Eventually)):
                below.append(f.arg)
            elif not isinstance(f, Cmp):
                raise FormulaTypeError(f"not a formula: {f!r}")
        layer = below
    return d


def _channel_map(channels) -> dict[str, ChannelSpec]:
    out = {}
    for ch in channels:
        if ch.name in out:
            raise FormulaTypeError(f"duplicate channel {ch.name}")
        out[ch.name] = ch
    return out


def check(formula: Formula, channels) -> Level:
    """Validate a formula against ``channels`` and return its level.

    One top-down walk raises FormulaTypeError at the first node of the
    wrong level or at a comparison of an unknown channel, an undeclared
    symbol or a threshold outside the channel's declared range.
    """
    by_name = _channel_map(channels)

    def walk(f: Formula, lvl: Level):
        if isinstance(f, Not):
            walk(f.arg, lvl)
        elif isinstance(f, (And, Or)):
            walk(f.lhs, lvl)
            walk(f.rhs, lvl)
        elif isinstance(f, (Always, Eventually)) and lvl is Level.SCALAR:
            walk(f.arg, Level.SERIES)
        elif isinstance(f, Cmp) and lvl is Level.SERIES:
            _check_atom(f, by_name)
        else:  # canonical_text raises in turn at a node that is no formula
            raise FormulaTypeError(f"not a {lvl.value} formula: {canonical_text(f)}")

    lvl = root_level(formula)
    walk(formula, lvl)
    return lvl


def _check_atom(f: Cmp, by_name: dict[str, ChannelSpec]) -> None:
    ch = by_name.get(f.channel)
    if ch is None:
        raise FormulaTypeError(f"unknown channel {f.channel!r}")
    if isinstance(ch, CategoricalChannel):
        if f.op != "=":
            raise FormulaTypeError(f"channel {ch.name} is categorical; only '=' applies")
        if f.value not in ch.symbols:
            raise FormulaTypeError(f"unknown symbol {f.value!r} on channel {ch.name}")
    elif isinstance(f.value, str):
        raise FormulaTypeError(f"channel {ch.name} is continuous, got symbol {f.value!r}")
    elif not (ch.lo <= float(f.value) <= ch.hi):
        raise FormulaTypeError(
            f"threshold {f.value} outside [{ch.lo}, {ch.hi}] for channel {ch.name}"
        )


def lift(formula: Formula, m: int) -> Formula:
    """The scalar formula that ``formula`` states about an m-step trace: a
    series root holds "at every step", an always over [0, m-1]."""
    if root_level(formula) is Level.SERIES:
        return Always(TimeInterval(0, m - 1), formula)
    return formula


def check_horizon(interval: TimeInterval, m: int) -> None:
    """Raise FormulaTypeError unless the window ends inside an m-step trace."""
    if interval.hi >= m:
        raise FormulaTypeError(f"interval [{interval.lo}, {interval.hi}] exceeds trace horizon {m}")


# ---------------------------------------------------------------------------
# Traces


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))  # full precision; float() unwraps numpy scalars
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write ``rows`` under ``header``: floats at full precision (``repr``),
    bools as 0/1 and anything else, such as a symbol, as text."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


@dataclass
class SignalTrace:
    """A fixed-rate recording of every channel over m steps.

    ``values`` maps channel name to a 1-D array: float dtype for continuous
    channels, string/object dtype for categorical ones.  Step i corresponds
    to time ``i * dt`` seconds.  The trace keeps its own converted copy of
    ``values``, and a key that names no declared channel is an error.
    """

    dt: float
    channels: tuple[ChannelSpec, ...]
    values: dict[str, np.ndarray] = field(repr=False)
    m: int = field(init=False)

    def __post_init__(self):
        self.channels = tuple(self.channels)
        undeclared = set(self.values) - {ch.name for ch in self.channels}
        if undeclared:
            raise ValueError(f"trace values for undeclared channels {sorted(undeclared)}")
        values, lengths = {}, set()
        for ch in self.channels:
            if ch.name not in self.values:
                raise ValueError(f"trace missing channel {ch.name}")
            arr = np.asarray(self.values[ch.name])
            if isinstance(ch, CategoricalChannel):
                arr = arr.astype(object)
                bad = set(arr.tolist()) - set(ch.symbols)
                if bad:
                    raise ValueError(f"unknown symbols {bad} on channel {ch.name}")
            else:
                arr = arr.astype(float)
            values[ch.name] = arr
            lengths.add(arr.shape[0])
        if len(lengths) != 1:
            raise ValueError(f"channel lengths differ: {sorted(lengths)}")
        self.values = values
        self.m = lengths.pop()

    def to_csv(self, path) -> None:
        columns = [self.values[ch.name].tolist() for ch in self.channels]
        write_csv(
            path,
            ["t"] + [ch.name for ch in self.channels],
            ([f"{i * self.dt:.6g}", *row] for i, row in enumerate(zip(*columns))),
        )

    @classmethod
    def from_csv(cls, path, channels, dt: float) -> "SignalTrace":
        """Read a trace written by ``to_csv`` or a rollout's ``to_csv``.

        The ``t`` column must hold numbers ``dt`` apart, within the six
        significant digits ``to_csv`` writes; the first row may sit at any
        time (trace files start at 0, rollout files at ``dt``).  ``t`` and
        every continuous cell must be a finite number.
        """
        channels = tuple(channels)

        def number(cell: str, lineno: int) -> float:
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: {cell!r} is not a finite number")
            return value

        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header[0] != "t":
                raise ValueError(f"{path}: first column must be 't'")
            col = {name: j for j, name in enumerate(header)}
            if len(col) < len(header):
                twice = next(name for j, name in enumerate(header) if col[name] != j)
                raise ValueError(f"{path}: column {twice!r} appears more than once in the header")
            rows, prev = [], None
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.strip().split(",")
                if len(cells) != len(header):
                    raise ValueError(
                        f"{path}: line {lineno} has {len(cells)} cells, "
                        f"the header has {len(header)}"
                    )
                t = number(cells[0], lineno)
                if prev is not None and abs(t - prev - dt) > 1e-5 * max(abs(t), abs(prev)):
                    raise ValueError(
                        f"{path}: line {lineno}: t = {cells[0]} is not {dt:g} s after "
                        f"the previous row's {prev:g}"
                    )
                rows.append((lineno, cells))
                prev = t
        missing = [ch.name for ch in channels if ch.name not in col]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        if not rows:
            raise ValueError(f"{path}: no rows, a trace needs at least one step")
        values = {}
        for ch in channels:
            j = col[ch.name]
            if isinstance(ch, CategoricalChannel):
                values[ch.name] = np.array([cells[j] for _, cells in rows], dtype=object)
            else:
                values[ch.name] = np.array([number(cells[j], lineno) for lineno, cells in rows])
        return cls(dt=dt, channels=channels, values=values)


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """n traces of m steps on the same channels, one (n, m) block per channel.

    A continuous channel's block holds floats, a categorical channel's the
    index of each step's symbol in ``channel.symbols``.  ``batch[i]``, and
    so iterating, builds a ``SignalTrace``.
    """

    dt: float
    channels: tuple[ChannelSpec, ...]
    blocks: dict[str, np.ndarray] = field(repr=False)

    def __len__(self) -> int:
        return len(self.blocks[self.channels[0].name])

    @property
    def m(self) -> int:
        return self.blocks[self.channels[0].name].shape[1]

    def __getitem__(self, i: int) -> SignalTrace:
        """Trace i, with symbols on categorical channels."""
        values = {ch.name: np.array(ch.symbols, dtype=object)[self.blocks[ch.name][i]]
                  if isinstance(ch, CategoricalChannel) else self.blocks[ch.name][i] for ch in self.channels}
        return SignalTrace(dt=self.dt, channels=self.channels, values=values)

    def take(self, rows) -> "TraceBatch":
        """The traces at ``rows``, in that order."""
        return TraceBatch(self.dt, self.channels, {n: b[rows] for n, b in self.blocks.items()})

    @classmethod
    def from_traces(cls, channels, traces) -> "TraceBatch":
        """The batch of one or more ``traces`` on ``channels`` (a model's).

        Every trace must carry each of the channels, declared as they are
        (so a symbol it holds is one of theirs), and all must share one
        step count and ``dt``.
        """
        channels, m, dt = tuple(channels), traces[0].m, traces[0].dt
        for i, trace in enumerate(traces):
            missing = [ch.name for ch in channels if ch not in trace.channels]
            if missing:
                raise ValueError(f"trace {i} has no channel {missing[0]!r} of the model")
            if (trace.m, trace.dt) != (m, dt):
                raise ValueError(f"traces differ in step count or dt: trace 0 has {m} steps of {dt} s, "
                                 f"trace {i} {trace.m} steps of {trace.dt} s")

        def block(ch):
            rows = [trace.values[ch.name].tolist() for trace in traces]
            if isinstance(ch, CategoricalChannel):
                return np.array([[ch.symbols.index(s) for s in row] for row in rows], dtype=np.intp)
            return np.array(rows, dtype=float)

        return cls(dt=dt, channels=channels, blocks={ch.name: block(ch) for ch in channels})


# ---------------------------------------------------------------------------
# Evaluation


def eval_series(formula: Formula, trace: SignalTrace) -> np.ndarray:
    """Pointwise truth of a series formula: one bool per step."""
    if isinstance(formula, Cmp):
        vals = trace.values[formula.channel]
        if formula.op == "=":  # a symbol or a number
            return np.asarray(vals == formula.value, dtype=bool)
        v = float(formula.value)
        return np.asarray(vals <= v if formula.op == "<=" else vals >= v)
    if isinstance(formula, Not):
        return ~eval_series(formula.arg, trace)
    if isinstance(formula, And):
        return eval_series(formula.lhs, trace) & eval_series(formula.rhs, trace)
    if isinstance(formula, Or):
        return eval_series(formula.lhs, trace) | eval_series(formula.rhs, trace)
    raise FormulaTypeError(f"not a series formula: {formula!r}")


def evaluate(formula: Formula, trace: SignalTrace) -> bool:
    """Truth of a formula on a whole trace.

    Both sides of every and/or are evaluated, so the walk reaches every
    node: it raises FormulaTypeError at the first node of the wrong level
    and at any window past the trace's end, wherever it sits.
    """

    def scalar(f) -> bool:
        if isinstance(f, (Always, Eventually)):
            iv = f.interval
            check_horizon(iv, trace.m)
            steps = eval_series(f.arg, trace)[iv.lo : iv.hi + 1]
            return bool(steps.all() if isinstance(f, Always) else steps.any())
        if isinstance(f, Not):
            return not scalar(f.arg)
        if isinstance(f, And):
            return scalar(f.lhs) & scalar(f.rhs)
        if isinstance(f, Or):
            return scalar(f.lhs) | scalar(f.rhs)
        raise FormulaTypeError(f"not a scalar formula: {f!r}")

    return scalar(lift(formula, trace.m))


# ---------------------------------------------------------------------------
# Canonical text


def _fmt_value(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def canonical_text(formula: Formula) -> str:
    """Deterministic ASCII rendering; ``parse`` inverts it exactly."""
    if isinstance(formula, Cmp):
        return f"{formula.channel} {formula.op} {_fmt_value(formula.value)}"
    if isinstance(formula, Not):
        return f"!{canonical_text(formula.arg)}"
    if isinstance(formula, And):
        return f"({canonical_text(formula.lhs)} & {canonical_text(formula.rhs)})"
    if isinstance(formula, Or):
        return f"({canonical_text(formula.lhs)} | {canonical_text(formula.rhs)})"
    if isinstance(formula, (Always, Eventually)):
        op = "G" if isinstance(formula, Always) else "F"
        iv = formula.interval
        return f"{op}_[{iv.lo},{iv.hi}]({canonical_text(formula.arg)})"
    raise FormulaTypeError(f"not a formula: {formula!r}")


class ParseError(ValueError):
    """Malformed formula text; ``pos`` is the character offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|==|=|≤|≥)
  | (?P<punct>[()\[\],&|!]|G_|F_|□_|◊_|∧|∨|¬)
    """,
    re.VERBOSE,
)

# Bound on bracket and operator nesting and on the depth of a parsed tree.
# It keeps the parser (three frames per bracket) and every later recursive
# walk of a parsed formula far below the interpreter's recursion limit, and
# far above the search grammar's default depth limit of 10.
MAX_NESTING = 100

_ALIAS = {"≤": "<=", "≥": ">=", "==": "=", "□_": "G_", "◊_": "F_", "∧": "&", "∨": "|", "¬": "!"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            tok = _ALIAS.get(tok, tok)
            tokens.append((kind, tok, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, channels):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0
        self.by_name = _channel_map(channels)

    def peek(self):
        return self.tokens[self.i]

    def take(self, value=None, kind=None):
        k, v, pos = self.tokens[self.i]
        if value is not None and v != value:
            raise ParseError(f"expected {value!r}, got {v or 'end of input'!r}", pos)
        if kind is not None and k != kind:
            raise ParseError(f"expected {kind}, got {v or 'end of input'!r}", pos)
        self.i += 1
        return v, pos

    def parse(self) -> Formula:
        f = self.or_expr()
        k, v, pos = self.peek()
        if k != "eof":
            raise ParseError(f"trailing input {v!r}", pos)
        if depth(f) > MAX_NESTING:
            raise ParseError(f"formula is deeper than {MAX_NESTING} levels", 0)
        return f

    def or_expr(self) -> Formula:
        f = self.and_expr()
        while self.peek()[1] == "|":
            self.take("|")
            f = Or(f, self.and_expr())
        return f

    def and_expr(self) -> Formula:
        f = self.unary()
        while self.peek()[1] == "&":
            self.take("&")
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", self.peek()[2])
        f = self._operand()
        self.nesting -= 1
        return f

    def _operand(self) -> Formula:
        k, v, pos = self.peek()
        if v == "!":
            self.take("!")
            return Not(self.unary())
        if v == "(":
            self.take("(")
            f = self.or_expr()
            self.take(")")
            return f
        if v in ("G_", "F_"):
            self.take(v)
            self.take("[")
            lo, lo_pos = self.take(kind="number")
            self.take(",")
            hi, hi_pos = self.take(kind="number")
            self.take("]")
            self.take("(")
            arg = self.or_expr()
            self.take(")")
            try:
                iv = TimeInterval(self._step(lo, lo_pos), self._step(hi, hi_pos))
            except FormulaTypeError as e:
                raise ParseError(str(e), lo_pos) from None
            return Always(iv, arg) if v == "G_" else Eventually(iv, arg)
        if k == "name":
            return self.atom()
        raise ParseError(f"expected a formula, got {v or 'end of input'!r}", pos)

    @staticmethod
    def _step(tok: str, pos: int) -> int:
        val = float(tok)
        if not math.isfinite(val) or val != int(val):
            raise ParseError(f"interval endpoints are step indices, got {tok}", pos)
        return int(val)

    def atom(self) -> Formula:
        name, name_pos = self.take(kind="name")
        k, v, pos = self.peek()
        if k != "op":
            # bare symbol shorthand: find the categorical channel that owns it
            owners = []
            for ch in self.by_name.values():
                if isinstance(ch, CategoricalChannel):
                    resolved = ch.resolve(name)
                    if resolved in ch.symbols:
                        owners.append((ch.name, resolved))
            if len(owners) != 1:
                raise ParseError(
                    f"{name!r} is not a channel comparison or unique symbol", name_pos
                )
            return Cmp(owners[0][0], "=", owners[0][1])
        op, _ = self.take(kind="op")
        k, v, pos = self.peek()
        if k == "number":
            self.take()
            value: float | str = float(v)
        elif k == "name":
            self.take()
            value = v
        else:
            raise ParseError(f"expected a value, got {v or 'end of input'!r}", pos)
        if name in self.by_name:
            ch = self.by_name[name]
            if isinstance(ch, CategoricalChannel) and isinstance(value, str):
                value = ch.resolve(value)
        try:
            return Cmp(name, op, value)
        except FormulaTypeError as e:
            raise ParseError(str(e), name_pos) from None


def parse(text: str, channels) -> Formula:
    """Parse canonical (or hand-written) formula text against ``channels``.

    Bare categorical symbols are resolved to their owning channel, aliases
    are normalized, and the result is fully validated against the channel
    specs.
    """
    formula = _Parser(text, channels).parse()
    check(formula, channels)
    return formula


# ---------------------------------------------------------------------------
# Natural language


def render_natural_language(
    formula: Formula,
    dt: float = 1.0,
    phrases: dict | None = None,
) -> str:
    """Readable English for a formula.

    ``dt`` converts step indices to seconds.  ``phrases`` optionally maps
    ``(channel, symbol)`` pairs to scenario wording such as "the vehicle
    performs a major acceleration".
    """
    phrases = phrases or {}

    def walk(f) -> str:
        if isinstance(f, Cmp):
            if isinstance(f.value, str):
                key = (f.channel, f.value)
                if key in phrases:
                    return phrases[key]
                return f"{f.channel} equals {f.value}"
            verb = {"<=": "is at most", ">=": "is at least", "=": "equals"}[f.op]
            return f"{f.channel} {verb} {f.value:g}"
        if isinstance(f, Not):
            return f"it is not the case that {walk(f.arg)}"
        if isinstance(f, And):
            return f"{walk(f.lhs)} and {walk(f.rhs)}"
        if isinstance(f, Or):
            return f"{walk(f.lhs)} or {walk(f.rhs)}"
        if isinstance(f, (Always, Eventually)):
            t0 = f.interval.lo * dt
            t1 = f.interval.hi * dt
            head = "always" if isinstance(f, Always) else "at some time"
            return f"{head} between t={t0:.2f}s and t={t1:.2f}s, {walk(f.arg)}"
        raise FormulaTypeError(f"not a formula: {f!r}")

    return walk(formula)
