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

A scalar node's required output is an int code: 0 arbitrary, 1 true, 2
false.  A series node's is a pair of Python-int step masks: bit i of the
first is set where step i must be true, bit i of the second where it must
be false, and a step in neither is arbitrary.  The split rules are mask operations: ``&`` splits
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

The descent walks a ``DescentPlan``, compiled once per formula, channels
and horizon: the scalar nodes in preorder with their "!"s folded in, and
each window's interval mask and connective count.  A window's argument
always receives one non-empty mask, true or false, so each comparison's
mask is that mask cut by some of the window's coin rows; a window's leaf
table lists, per comparison, which side the mask lands on and which rows,
set or clear, cut it.  It is built the first time the window is required
true (or false), so a plan descended once costs a tree walk.  Re-evaluation
and the CLI's ``sample`` draw every trial from one plan; the search builds
one per evaluated formula.  Building a plan checks, before any draw, each
node's level, each window against the horizon and, given channels, each
comparison as ``stl.check`` does (``stl._check_atom``).

A plan gives the same results as the tree descent at less cost in two
cases.  On every categorical channel the walk keeps which steps require or
refuse each symbol (``_Symbols``); once some step of one has no symbol
left it stops making leaves, still makes every draw, and raises the error
that compiling would.  A plan whose descent draws nothing has one
constraint set (or one error), so ``constraints_for`` compiles it once.

The leaves of the descent are comparisons annotated with their two step
masks.  Compiling them intersects everything into per-channel boxes: an
interval [lower, upper] per step for continuous channels and a per-step
mask of allowed symbols for categorical ones.  One ``_Symbols`` per
categorical channel takes the leaves in order, and the first leaf that
leaves a step with no symbol raises, before any continuous check.
Falsified inequalities shift the boundary by a small epsilon so that
sampling the complement stays a closed interval; a falsified equality on
a continuous channel removes only a measure-zero set and tightens
nothing, unless the step is pinned to that value: then the draw is
infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _check_atom,
    check_horizon,
    lift,
)

__all__ = [
    "InfeasibleError",
    "LeafConstraint",
    "ConstraintSet",
    "DescentPlan",
    "sample_constraints",
    "compile_constraints",
    "constraints_for",
    "EPSILON",
    "RETRIES",
]

EPSILON = 1e-6
RETRIES = 10  # fresh descents constraints_for tries before giving up


_ARB, _TRUE, _FALSE = 0, 1, 2  # a scalar node's required output
_NEG = (_ARB, _FALSE, _TRUE)  # _NEG[code] negates a scalar code


class InfeasibleError(Exception):
    """The sampled constraint set admits no trace."""


def _bit_rows(masks, m: int) -> np.ndarray:
    """Step masks as a (len(masks), m) bool array, step 0 first in each row."""
    width = (m + 7) // 8
    raw = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=m, bitorder="little").view(bool)


@dataclass(frozen=True)
class LeafConstraint:
    """One comparison plus the steps where it must be true or false."""

    atom: Cmp
    true: int  # step mask: bit i set where step i must be true
    false: int  # step mask: bit i set where step i must be false
    m: int


def _coin_rows(rng, k: int, m: int) -> list[int]:
    """k coin masks of m steps from one block draw, row by row, then their
    complements: the masks that ``_leaf_table``'s cut indices name."""
    packed = np.packbits(rng.integers(0, 2, size=(k, m)), axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    rows = [int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(k)]
    return rows + [~row for row in rows]


def _series_atoms(f, atoms: list) -> int:
    """Append the comparisons of the series formula ``f`` to ``atoms``,
    left to right, and return its number of and/or nodes."""
    if isinstance(f, Cmp):
        atoms.append(f)
        return 0
    if isinstance(f, Not):
        return _series_atoms(f.arg, atoms)
    if isinstance(f, (And, Or)):
        return 1 + _series_atoms(f.lhs, atoms) + _series_atoms(f.rhs, atoms)
    raise FormulaTypeError(f"not a series formula: {f!r}")


def _leaf_table(f, live_true: bool, cuts: tuple, k: int, rows, table: list) -> None:
    """Append one ``(atom, to_true, cuts)`` entry per comparison of ``f``.

    The window's one non-empty mask reaches ``f`` as its true mask when
    ``live_true``, else as its false mask, cut by the coin rows in
    ``cuts``: index r keeps the steps where row r is set (a right child),
    k + r those where it is clear (a left child).  ``rows`` yields the
    and/or nodes' coin rows in preorder.
    """
    if isinstance(f, Cmp):
        table.append((f, live_true, cuts))
    elif isinstance(f, Not):
        _leaf_table(f.arg, not live_true, cuts, k, rows, table)
    else:
        r = next(rows)
        split = isinstance(f, And) != live_true  # "&" splits the false mask, "|" the true one
        left, right = (cuts + (k + r,), cuts + (r,)) if split else (cuts, cuts)
        _leaf_table(f.lhs, live_true, left, k, rows, table)
        _leaf_table(f.rhs, live_true, right, k, rows, table)


class _Split:
    """A scalar and/or node; its left child comes next in preorder."""

    __slots__ = ("flip", "one_side", "rhs")

    def __init__(self, flip: bool, is_and: bool):
        self.flip = flip  # an odd number of "!" between it and its parent
        self.one_side = _FALSE if is_and else _TRUE  # the output that one child alone gives
        self.rhs = 0  # its right child's preorder index


class _Window:
    """A windowed node: its interval as a step mask, its argument's
    and/or count and, built on first use, one leaf table per output."""

    __slots__ = ("flip", "always", "lo", "hi", "steps", "arg", "k", "tables")

    def __init__(self, flip: bool, f, m: int, atoms: list):
        check_horizon(f.interval, m)
        self.flip = flip
        self.always = isinstance(f, Always)
        self.lo, self.hi = f.interval.lo, f.interval.hi
        self.steps = ((1 << (self.hi - self.lo + 1)) - 1) << self.lo
        self.arg = f.arg
        self.k = _series_atoms(f.arg, atoms)
        self.tables: dict[int, list] = {}

    def leaves(self, out: int) -> list:
        """The leaf table of the window required ``out`` (true or false)."""
        table = self.tables.get(out)
        if table is None:
            table = self.tables[out] = []
            _leaf_table(self.arg, out == _TRUE, (), self.k, iter(range(self.k)), table)
        return table


class _Symbols:
    """The steps where a categorical channel's leaves so far require or
    refuse each symbol; the walk and the compile keep one for every
    categorical channel.  A symbol is allowed at a step unless it is refused
    there or another symbol is required there.  Leaves only add steps, so
    once some step has no symbol left it stays so."""

    __slots__ = ("ch", "required", "refused", "any_required")

    def __init__(self, ch: CategoricalChannel):
        self.ch = ch
        self.required: dict[str, int] = {}
        self.refused: dict[str, int] = {}
        self.any_required = 0

    def conflicts(self, value: str, to_true: bool, mask: int) -> bool:
        """Add one leaf's steps; True once some step has no symbol left."""
        if to_true:
            mine = self.required.get(value, 0)
            # the symbol is refused there, or another one is required there
            clash = mask & (self.refused.get(value, 0) | (self.any_required & ~mine))
            self.required[value] = mine | mask
            self.any_required |= mask
            return clash != 0
        refused = self.refused[value] = self.refused.get(value, 0) | mask
        if mask & self.required.get(value, 0):
            return True
        if len(self.refused) < len(self.ch.symbols):
            return False
        for steps in self.refused.values():  # every symbol refused at one step
            refused &= steps
        return refused != 0

    def allowed(self, m: int) -> np.ndarray:
        """The (m, len(symbols)) allowed mask, while every step has a symbol
        left (and so at most one required)."""
        full, req = (1 << m) - 1, self.any_required
        steps = [full & ~(self.refused.get(s, 0) | (req & ~self.required.get(s, 0))) for s in self.ch.symbols]
        return _bit_rows(steps, m).T


class DescentPlan:
    """The descent of one formula, compiled for its channels and horizon.

    ``sample_constraints`` and ``constraints_for`` walk it in place of the
    formula tree, with the same draws.  A node of the wrong level, a window
    past the horizon or a comparison that ``stl.check`` refuses on
    ``channels`` raises here, before anything is drawn.
    """

    def __init__(self, formula: Formula, channels, m: int):
        self.channels = tuple(channels)
        self.m = m
        self.nodes: list = []  # _Split and _Window nodes in preorder
        atoms: list[Cmp] = []
        self._add(lift(formula, m), False, atoms)
        if self.channels:  # a plan of sample_constraints has none
            by_name = {ch.name: ch for ch in self.channels}
            for atom in atoms:
                _check_atom(atom, by_name)
        self.categorical = [ch for ch in self.channels if isinstance(ch, CategoricalChannel)]
        self.draw_free: bool | None = None  # whether a walk draws nothing; set by the first walk
        self.outcome = None  # a draw-free plan's ConstraintSet, or its error text

    def _add(self, f, flip: bool, atoms: list) -> None:
        while isinstance(f, Not):
            f, flip = f.arg, not flip
        if isinstance(f, (Always, Eventually)):
            self.nodes.append(_Window(flip, f, self.m, atoms))
        elif isinstance(f, (And, Or)):
            node = _Split(flip, isinstance(f, And))
            self.nodes.append(node)
            self._add(f.lhs, False, atoms)
            node.rhs = len(self.nodes)
            self._add(f.rhs, False, atoms)
        else:
            raise FormulaTypeError(f"not a scalar formula: {f!r}")

    def walk(self, rng: np.random.Generator) -> list[LeafConstraint]:
        """One descent: the leaves, or, once a step of some channel has no
        symbol left, InfeasibleError after every draw.  It keeps one
        ``_Symbols`` for every categorical channel."""
        m, nodes = self.m, self.nodes
        outs = [_TRUE] * len(nodes)  # each node's output, as its parent requires it
        leaves: list[LeafConstraint] = []
        symbols = {ch.name: _Symbols(ch) for ch in self.categorical}
        empty = None  # the first channel left with a step of no symbol
        drew = False
        for i, node in enumerate(nodes):
            out = _NEG[outs[i]] if node.flip else outs[i]
            if type(node) is _Split:
                if out != node.one_side:
                    outs[i + 1] = outs[node.rhs] = out
                elif rng.integers(2):  # one child alone gives it: a random side
                    outs[i + 1], outs[node.rhs], drew = out, _ARB, True
                else:
                    outs[i + 1], outs[node.rhs], drew = _ARB, out, True
                continue
            if out == _ARB:
                steps = 0
            elif node.always == (out == _TRUE):
                steps = node.steps
            else:  # a false "always" or a true "eventually" pins one step
                steps, drew = 1 << int(rng.integers(node.lo, node.hi + 1)), True
            if node.k:  # an arbitrary window still draws its coins
                coins, drew = _coin_rows(rng, node.k, m), True
            if not steps or empty:
                continue
            for atom, to_true, cuts in node.leaves(out):
                mask = steps
                for j in cuts:
                    mask &= coins[j]
                if not mask:
                    continue
                leaves.append(LeafConstraint(atom, mask, 0, m) if to_true else LeafConstraint(atom, 0, mask, m))
                acc = symbols.get(atom.channel)
                if acc is not None and acc.conflicts(atom.value, to_true, mask):
                    empty = atom.channel
                    break
        self.draw_free = not drew
        if empty:
            raise InfeasibleError(f"no symbol left on channel {empty}")
        return leaves


def _plan(formula, channels, m: int) -> DescentPlan:
    """``formula`` itself if it is a plan for ``m`` steps, else its plan."""
    if not isinstance(formula, DescentPlan):
        return DescentPlan(formula, channels, m)
    if formula.m != m:
        raise ValueError("the plan was made for another horizon")
    return formula


def sample_constraints(
    formula: Formula | DescentPlan,
    m: int,
    rng: np.random.Generator,
) -> list[LeafConstraint]:
    """Descend ``formula``, required true, and pin down what each
    comparison must output.

    Returns one LeafConstraint per comparison whose outputs are not
    everywhere arbitrary, in left-to-right leaf order.  A window past the
    horizon or a node of the wrong level raises FormulaTypeError.  A plan
    made with channels raises InfeasibleError, with the message
    ``compile_constraints`` would give, once some step of a categorical
    channel has no symbol left; it still makes the rest of its draws.
    """
    return _plan(formula, (), m).walk(rng)


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


def compile_constraints(
    leaves: list[LeafConstraint], channels, m: int
) -> ConstraintSet:
    """Intersect leaf constraints into one feasible ConstraintSet.

    Every comparison must pass ``stl.check`` on ``channels``.  The leaves
    go in order into one ``_Symbols`` for every categorical channel, and
    the first that leaves a step with no symbol raises, before any
    continuous check.
    """
    cs = ConstraintSet(channels, m)
    by_name = {ch.name: ch for ch in cs.channels}
    symbols = {ch.name: _Symbols(ch) for ch in cs.channels if isinstance(ch, CategoricalChannel)}
    continuous = []
    for leaf in leaves:
        atom = leaf.atom
        _check_atom(atom, by_name)
        if leaf.m != m:
            raise ValueError("leaf output length differs from horizon")
        acc = symbols.get(atom.channel)
        if acc is None:
            continuous.append(leaf)
        elif (leaf.true and acc.conflicts(atom.value, True, leaf.true)) or (
            leaf.false and acc.conflicts(atom.value, False, leaf.false)
        ):
            raise InfeasibleError(f"no symbol left on channel {atom.channel}")
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
    for name, acc in symbols.items():
        cs.allowed[name] = acc.allowed(m)
    return cs


def constraints_for(
    formula: Formula | DescentPlan,
    channels,
    m: int,
    rng: np.random.Generator,
) -> ConstraintSet:
    """Sample constraints for ``formula``, retrying infeasible draws.

    Different coin flips in the descent can rescue a draw whose first
    attempt contradicted itself, so up to ``RETRIES`` fresh attempts are
    made before giving up.  ``formula`` may be a DescentPlan made for
    ``channels`` and ``m``, so that many draws build it once.  A
    draw-free plan gives the same outcome on every attempt, so it is
    compiled once and its outcome kept for every later call.
    """
    plan = _plan(formula, channels, m)
    if plan.channels != tuple(channels):
        raise ValueError("the plan was made for other channels")
    if isinstance(plan.outcome, ConstraintSet):
        return plan.outcome
    if plan.outcome is not None:
        raise InfeasibleError(plan.outcome)
    last = None
    for _ in range(RETRIES):
        try:
            cs = compile_constraints(sample_constraints(plan, m, rng), channels, m)
        except InfeasibleError as e:
            last = str(e)  # the error itself would hold this frame in a cycle only gc frees
            if plan.draw_free:  # the other attempts would repeat this one
                break
        else:
            if plan.draw_free:
                plan.outcome = cs
            return cs
    message = f"no feasible constraints after {RETRIES} attempts: {last}"
    if plan.draw_free:
        plan.outcome = message
    raise InfeasibleError(message)
