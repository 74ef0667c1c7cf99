"""From a formula and a desired truth value to per-step sampling constraints.

Working top down, each operator splits its required output among its
children, always choosing a minimally restrictive split and flipping a coin
whenever one child suffices (a false conjunction needs only one false side,
a true disjunction only one true side).  Windowed operators move between the
scalar and series levels: a true "always" pins its whole window, a false one
pins a single uniformly chosen refutation step, "eventually" mirrors that
with a single witness step when true and a fully pinned window when false.
Steps outside a window stay arbitrary.  A series root and a window past
the horizon are read as ``stl.evaluate`` reads them (``stl.lift``,
``stl.check_horizon``).

A scalar node's required output is an ``Output`` code.  A series node's is
a pair of Python-int step masks: bit i of the first is set where step i
must be true, bit i of the second where it must be false, and a step in
neither is arbitrary.  The split rules are mask operations: ``&`` splits
the false mask with a coin mask c into ``F & ~c`` (left) and ``F & c``
(right), ``|`` splits the true mask the same way, and ``!`` swaps the two
masks.  Every series ``&``/``|`` node draws one coin per step, whether or
not that step splits.

A window's series argument holds no window, so its coins are drawn in
preorder with no other draw in between, and the window draws them as one
``rng.integers(0, 2, size=(k, m))`` block for its k connectives (nothing
when k is 0).  That block equals k calls of ``size=m`` and leaves the
generator in the same state: numpy serves each coin from one 32-bit half
of the bit generator's output, and the buffered half lives in the
generator state, not in the call (``tests/test_constraints.py`` pins this).

The leaves of the descent are comparisons annotated with their two step
masks.  Compiling them intersects everything into per-channel boxes: an
interval [lower, upper] per step for continuous channels and a per-step
mask of allowed symbols for categorical ones, built from one allowed-steps
mask per symbol.  Falsified inequalities shift the boundary by a small
epsilon so that sampling the complement stays a closed interval; a
falsified equality on a continuous channel removes only a measure-zero set
and tightens nothing, unless the step is pinned to that value: then the
draw is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .stl import (
    Always,
    And,
    CategoricalChannel,
    Cmp,
    Eventually,
    Formula,
    FormulaTypeError,
    Not,
    Or,
    TimeInterval,
    check_horizon,
    lift,
)

__all__ = [
    "Output",
    "InfeasibleError",
    "LeafConstraint",
    "ConstraintSet",
    "subexpression_outputs",
    "sample_constraints",
    "compile_constraints",
    "constraints_for",
    "EPSILON",
    "RETRIES",
]

EPSILON = 1e-6
RETRIES = 10  # fresh descents constraints_for tries before giving up


class Output(IntEnum):
    ARBITRARY = 0
    TRUE = 1
    FALSE = 2


_ARB, _TRUE, _FALSE = 0, 1, 2  # Output codes as plain ints for the descent
_NEG = (_ARB, _FALSE, _TRUE)  # _NEG[code] negates a scalar code


class InfeasibleError(Exception):
    """The sampled constraint set admits no trace."""


def _bit_rows(masks, m: int) -> np.ndarray:
    """Step masks as a (len(masks), m) bool array, step 0 first in each row."""
    width = (m + 7) // 8
    raw = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=m, bitorder="little").view(bool)


def _mask(steps: np.ndarray) -> int:
    """Bool per step as a step mask."""
    return int.from_bytes(np.packbits(steps, bitorder="little").tobytes(), "little")


def _codes(true: int, false: int, m: int) -> np.ndarray:
    """Two step masks as int8 Output codes per step."""
    true_at, false_at = _bit_rows((true, false), m)
    codes = true_at.astype(np.int8)
    codes[false_at] = _FALSE
    return codes


@dataclass(frozen=True)
class LeafConstraint:
    """One comparison plus the steps where it must be true or false."""

    atom: Cmp
    true: int  # step mask: bit i set where step i must be true
    false: int  # step mask: bit i set where step i must be false
    m: int

    @property
    def outputs(self) -> np.ndarray:
        """int8 Output codes per step."""
        return _codes(self.true, self.false, self.m)


def _split_scalar(out: int, rng, is_and: bool) -> tuple[int, int]:
    """Children of a scalar and/or: a true "and" (false "or") copies to
    both, a false "and" (true "or") lands on a random side."""
    one_side = _FALSE if is_and else _TRUE
    if out != one_side:
        return out, out
    if rng.integers(2):
        return one_side, _ARB
    return _ARB, one_side


def _split_series(true: int, false: int, coins: int, is_and: bool):
    """Children's (true, false) masks of a series and/or: the steps that
    split go right where ``coins`` has a bit and left elsewhere."""
    if is_and:
        return (true, false & ~coins), (true, false & coins)
    return (true & ~coins, false), (true & coins, false)


def _window(is_always: bool, out: int, interval: TimeInterval, m: int, rng) -> tuple[int, int]:
    """The (true, false) masks of a windowed operator's argument."""
    check_horizon(interval, m)
    if out == _ARB:
        return 0, 0
    if is_always == (out == _TRUE):
        steps = ((1 << (interval.hi - interval.lo + 1)) - 1) << interval.lo
    else:
        steps = 1 << int(rng.integers(interval.lo, interval.hi + 1))
    return (steps, 0) if out == _TRUE else (0, steps)


def _coin_rows(rng, k: int, m: int) -> list[int]:
    """k coin masks of m steps from one block draw, row by row."""
    if k == 0:
        return []
    packed = np.packbits(rng.integers(0, 2, size=(k, m)), axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(k)]


def _connectives(f) -> int:
    """The number of and/or nodes in a series formula."""
    if isinstance(f, Cmp):
        return 0
    if isinstance(f, Not):
        return _connectives(f.arg)
    if isinstance(f, (And, Or)):
        return 1 + _connectives(f.lhs) + _connectives(f.rhs)
    raise FormulaTypeError(f"not a series formula: {f!r}")


def subexpression_outputs(
    op: str,
    out,
    rng: np.random.Generator,
    interval: TimeInterval | None = None,
    m: int | None = None,
):
    """Required outputs for the children of one operator application.

    ``out`` is one Output code for scalar context or an array of codes for
    series context; the children's codes come back as int8 of the same
    shape.  Windowed operators ("always", "eventually") take a scalar
    ``out`` plus their interval and the trace length ``m``, and return a
    one-element tuple holding the child's series codes.  Series codes pass
    through the descent's step masks, so the draws are the descent's.
    """
    out = np.asarray(out, dtype=np.int8)
    if op not in ("not", "and", "or", "always", "eventually"):
        raise ValueError(f"unknown operator {op!r}")
    if op in ("always", "eventually"):
        if interval is None or m is None:
            raise ValueError(f"{op} needs interval and m")
        return (_codes(*_window(op == "always", int(out), interval, m, rng), m),)
    if out.ndim == 0:
        if op == "not":
            return (np.int8(_NEG[int(out)]),)
        return tuple(np.int8(c) for c in _split_scalar(int(out), rng, op == "and"))
    n = len(out)
    true, false = _mask(out == _TRUE), _mask(out == _FALSE)
    if op == "not":
        return (_codes(false, true, n),)
    (coins,) = _coin_rows(rng, 1, n)
    return tuple(_codes(t, f, n) for t, f in _split_series(true, false, coins, op == "and"))


def sample_constraints(
    formula: Formula,
    m: int,
    rng: np.random.Generator,
) -> list[LeafConstraint]:
    """Descend ``formula``, required true, and pin down what each
    comparison must output.

    Returns one LeafConstraint per comparison whose outputs are not
    everywhere arbitrary, in left-to-right leaf order.  Besides a window
    past the horizon, a node of the wrong level raises FormulaTypeError:
    the descent raises at a comparison whose output is a scalar, and the
    walk that counts a window's connectives at a window inside its argument.
    """
    formula = lift(formula, m)
    leaves: list[LeafConstraint] = []

    def series(f, true, false, coins):  # coins: one mask per and/or, in preorder
        if isinstance(f, Cmp):
            if true or false:
                leaves.append(LeafConstraint(f, true, false, m))
        elif isinstance(f, Not):
            series(f.arg, false, true, coins)
        else:
            left, right = _split_series(true, false, next(coins), isinstance(f, And))
            series(f.lhs, *left, coins)
            series(f.rhs, *right, coins)

    def scalar(f, out):  # branches in order of how common the node is
        if isinstance(f, (Always, Eventually)):
            true, false = _window(isinstance(f, Always), out, f.interval, m, rng)
            coins = _coin_rows(rng, _connectives(f.arg), m)
            if true or false:  # an arbitrary window still draws its coins
                series(f.arg, true, false, iter(coins))
        elif isinstance(f, (And, Or)):
            left, right = _split_scalar(out, rng, isinstance(f, And))
            scalar(f.lhs, left)
            scalar(f.rhs, right)
        elif isinstance(f, Not):
            scalar(f.arg, _NEG[out])
        else:
            raise FormulaTypeError(f"not a scalar formula: {f!r}")

    scalar(formula, _TRUE)
    return leaves


# ---------------------------------------------------------------------------
# Compilation


class ConstraintSet:
    """Per-channel, per-step sampling boxes.

    Continuous channels carry ``lower``/``upper`` arrays (infinite where no
    constraint bounds the step).  Categorical channels carry an
    ``allowed`` mask of shape (m, len(ch.symbols)): row i is True at the
    symbols step i may take, in ``ch.symbols`` order.  A constraint set is
    feasible by construction; compilation raises InfeasibleError otherwise.
    """

    def __init__(self, channels, m: int):
        self.channels = tuple(channels)
        self.lower: dict[str, np.ndarray] = {}
        self.upper: dict[str, np.ndarray] = {}
        self.allowed: dict[str, np.ndarray] = {}
        for ch in self.channels:
            if not isinstance(ch, CategoricalChannel):
                self.lower[ch.name] = np.full(m, -np.inf)
                self.upper[ch.name] = np.full(m, np.inf)


def _allowed(ch: CategoricalChannel, true_for: dict, false_for: dict, m: int) -> np.ndarray:
    """The (m, len(ch.symbols)) allowed mask of a categorical channel.

    ``true_for`` and ``false_for`` map a symbol to the steps where some
    leaf requires the channel to equal it, or to differ from it.  A symbol
    is allowed at the steps where it is neither required to differ nor
    another symbol required.
    """
    full = (1 << m) - 1
    steps = []
    for s in ch.symbols:
        blocked = false_for.get(s, 0)
        for v, true in true_for.items():
            if v != s:
                blocked |= true
        steps.append(full & ~blocked)
    some = 0
    for mask in steps:
        some |= mask
    if some != full:
        raise InfeasibleError(f"no symbol left on channel {ch.name}")
    return _bit_rows(steps, m).T


def compile_constraints(
    leaves: list[LeafConstraint], channels, m: int
) -> ConstraintSet:
    """Intersect leaf constraints into one feasible ConstraintSet."""
    cs = ConstraintSet(channels, m)
    by_name = {ch.name: ch for ch in cs.channels}
    symbol_steps = {  # per categorical channel: symbol -> (true steps, false steps)
        ch.name: ({}, {}) for ch in cs.channels if isinstance(ch, CategoricalChannel)
    }
    continuous = []
    for leaf in leaves:
        atom = leaf.atom
        if atom.channel not in by_name:
            raise FormulaTypeError(f"unknown channel {atom.channel!r}")
        if leaf.m != m:
            raise ValueError("leaf output length differs from horizon")
        if atom.channel in symbol_steps:
            true_for, false_for = symbol_steps[atom.channel]
            if leaf.true:
                true_for[atom.value] = true_for.get(atom.value, 0) | leaf.true
            if leaf.false:
                false_for[atom.value] = false_for.get(atom.value, 0) | leaf.false
        else:
            continuous.append(leaf)
    # one conversion for every continuous leaf: rows 2i and 2i + 1 are
    # leaf i's true and false steps
    masks = [mask for leaf in continuous for mask in (leaf.true, leaf.false)]
    steps = _bit_rows(masks, m) if masks else None
    unequal = []  # (channel, value, steps) of each falsified continuous "="
    for i, leaf in enumerate(continuous):
        atom = leaf.atom
        true_at, false_at = steps[2 * i], steps[2 * i + 1]
        v = float(atom.value)
        lo, hi = cs.lower[atom.channel], cs.upper[atom.channel]
        if atom.op == "<=":
            if leaf.true:
                np.minimum(hi, v, out=hi, where=true_at)
            if leaf.false:
                np.maximum(lo, v + EPSILON, out=lo, where=false_at)
        elif atom.op == ">=":
            if leaf.true:
                np.maximum(lo, v, out=lo, where=true_at)
            if leaf.false:
                np.minimum(hi, v - EPSILON, out=hi, where=false_at)
        else:  # "=": pin when true; a falsified one is checked below
            if leaf.true:
                np.maximum(lo, v, out=lo, where=true_at)
                np.minimum(hi, v, out=hi, where=true_at)
            if leaf.false:
                unequal.append((atom.channel, v, false_at))
    for name, v, false_at in unequal:
        if (false_at & (cs.lower[name] == v) & (cs.upper[name] == v)).any():
            raise InfeasibleError(f"channel {name} is pinned to {v} where it must differ")
    for name in cs.lower:
        if (cs.lower[name] > cs.upper[name]).any():
            raise InfeasibleError(f"empty interval on channel {name}")
    for name, (true_for, false_for) in symbol_steps.items():
        cs.allowed[name] = _allowed(by_name[name], true_for, false_for, m)
    return cs


def constraints_for(
    formula: Formula,
    channels,
    m: int,
    rng: np.random.Generator,
) -> ConstraintSet:
    """Sample constraints for ``formula``, retrying infeasible draws.

    Different coin flips in the descent can rescue a draw whose first
    attempt contradicted itself, so up to ``RETRIES`` fresh attempts are
    made before giving up.
    """
    last = None
    for _ in range(RETRIES):
        try:
            return compile_constraints(sample_constraints(formula, m, rng), channels, m)
        except InfeasibleError as e:
            last = e
    raise InfeasibleError(
        f"no feasible constraints after {RETRIES} attempts: {last}"
    )
