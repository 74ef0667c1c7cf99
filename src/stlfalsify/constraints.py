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
one per evaluated formula.

A plan gives the same results as the tree descent at less cost in two
cases.  When every comparison reads one categorical channel, the walk
keeps which steps require or refuse each symbol; once some step has no
symbol left it stops making leaves, still makes every draw, and raises the
error that compiling would.  A plan whose descent draws nothing has one
constraint set (or one error), so ``constraints_for`` compiles it once.

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
    refuse each symbol.  Leaves only add steps, so once some step has no
    symbol left (the condition ``_allowed`` raises on) it stays so."""

    __slots__ = ("n", "required", "refused", "any_required")

    def __init__(self, ch: CategoricalChannel):
        self.n = len(ch.symbols)
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
        if len(self.refused) < self.n:
            return False
        for steps in self.refused.values():  # every symbol refused at one step
            refused &= steps
        return refused != 0


def _watched(atoms: list, channels: tuple) -> CategoricalChannel | None:
    """The categorical channel that every comparison reads, when there is
    one and it knows every symbol they name."""
    names = {atom.channel for atom in atoms}
    ch = next((ch for ch in channels if {ch.name} == names), None)
    if isinstance(ch, CategoricalChannel) and all(atom.value in ch.symbols for atom in atoms):
        return ch
    return None


class DescentPlan:
    """The descent of one formula, compiled for its channels and horizon.

    ``sample_constraints`` and ``constraints_for`` walk it in place of the
    formula tree, with the same draws.  A node of the wrong level or a
    window past the horizon raises here, before anything is drawn.
    """

    def __init__(self, formula: Formula, channels, m: int):
        self.channels = tuple(channels)
        self.m = m
        self.nodes: list = []  # _Split and _Window nodes in preorder
        atoms: list[Cmp] = []
        self._add(lift(formula, m), False, atoms)
        self.watch = _watched(atoms, self.channels)
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
        """One descent: the leaves, or InfeasibleError once the watched
        channel has a step with no symbol left, after every draw."""
        m, nodes, watch = self.m, self.nodes, self.watch
        outs = [_TRUE] * len(nodes)  # each node's output, as its parent requires it
        leaves: list[LeafConstraint] = []
        symbols = None if watch is None else _Symbols(watch)
        conflict = drew = False
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
            if not steps or conflict:
                continue
            for atom, to_true, cuts in node.leaves(out):
                mask = steps
                for j in cuts:
                    mask &= coins[j]
                if not mask:
                    continue
                leaves.append(LeafConstraint(atom, mask, 0, m) if to_true else LeafConstraint(atom, 0, mask, m))
                if symbols is not None and symbols.conflicts(atom.value, to_true, mask):
                    conflict = True
                    break
        self.draw_free = not drew
        if conflict:
            raise InfeasibleError(f"no symbol left on channel {watch.name}")
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
    that watches a categorical channel raises InfeasibleError, with the
    message ``compile_constraints`` would give, once some step has no
    symbol left; it still makes the rest of its draws.
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
