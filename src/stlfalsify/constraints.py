"""From a formula and a desired truth value to per-step sampling constraints.

Working top down, each operator splits its required output among its
children, always choosing a minimally restrictive split and flipping a coin
whenever one child suffices (a false conjunction needs only one false side,
a true disjunction only one true side).  Windowed operators move between the
scalar and series levels: a true "always" pins its whole window, a false one
pins a single uniformly chosen refutation step, "eventually" mirrors that
with a single witness step when true and a fully pinned window when false.
Steps outside a window stay arbitrary.  A required output is an int8
``Output`` code at both levels: a scalar at a scalar node and one code per
step at a series node.

The leaves of the descent are comparisons annotated with a per-step output
series.  Compiling them intersects everything into per-channel boxes: an
interval [lower, upper] per step for continuous channels and a per-step
mask of allowed symbols for categorical ones.  Falsified inequalities shift the
boundary by a small epsilon so that sampling the complement stays a closed
interval; a falsified equality on a continuous channel removes only a
measure-zero set and tightens nothing, unless the step is pinned to that
value: then the draw is infeasible.
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
    Level,
    Not,
    Or,
    TimeInterval,
    root_level,
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


_ARBITRARY_CODE, _TRUE_CODE, _FALSE_CODE = np.int8(0), np.int8(1), np.int8(2)
_NEG = np.array([_ARBITRARY_CODE, _FALSE_CODE, _TRUE_CODE])  # _NEG[code] negates


class InfeasibleError(Exception):
    """The sampled constraint set admits no trace."""


@dataclass(frozen=True)
class LeafConstraint:
    """One comparison plus the output it must produce at each step."""

    atom: Cmp
    outputs: np.ndarray  # int8 codes per step


def _split_conjunctive(out, rng, false_splits: bool):
    """Children of and (false_splits=True) or or (false_splits=False).

    For "and" a true output copies to both children and a false one lands on
    a random side; "or" is the mirror image.  A series ``out`` draws one coin
    per step, whether or not that step splits.
    """
    one_side = _FALSE_CODE if false_splits else _TRUE_CODE
    if out.ndim == 0:
        if out != one_side:
            return out, out
        if rng.integers(2):
            return one_side, _ARBITRARY_CODE
        return _ARBITRARY_CODE, one_side
    split = out == one_side
    to_right = split & (rng.integers(0, 2, size=len(out)) == 1)
    left = np.where(to_right, _ARBITRARY_CODE, out)
    right = np.where(split ^ to_right, _ARBITRARY_CODE, out)
    return left, right


def _window(op: str, out, interval: TimeInterval, m: int, rng) -> np.ndarray:
    """Series codes for the argument of a windowed operator."""
    if interval.hi >= m:
        raise FormulaTypeError(
            f"interval [{interval.lo}, {interval.hi}] exceeds horizon {m}"
        )
    child = np.zeros(m, dtype=np.int8)
    if out == _ARBITRARY_CODE:
        return child
    if (op == "always") == (out == _TRUE_CODE):
        child[interval.lo : interval.hi + 1] = out
    else:
        child[int(rng.integers(interval.lo, interval.hi + 1))] = out
    return child


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
    one-element tuple holding the child's series codes.
    """
    out = np.asarray(out, dtype=np.int8)[()]
    if op == "not":
        return (_NEG[out],)
    if op == "and":
        return _split_conjunctive(out, rng, false_splits=True)
    if op == "or":
        return _split_conjunctive(out, rng, false_splits=False)
    if op in ("always", "eventually"):
        if interval is None or m is None:
            raise ValueError(f"{op} needs interval and m")
        return (_window(op, out, interval, m, rng),)
    raise ValueError(f"unknown operator {op!r}")


def sample_constraints(
    formula: Formula,
    m: int,
    rng: np.random.Generator,
) -> list[LeafConstraint]:
    """Descend ``formula``, required true, and pin down what each
    comparison must output.

    Returns one LeafConstraint per comparison whose outputs are not
    everywhere arbitrary, in left-to-right leaf order.  A series formula at
    the root is lifted over all m steps, matching ``stl.evaluate``.

    The root's level is read off its leftmost path (``stl.root_level``),
    and the descent, which visits every node, raises FormulaTypeError at a
    node of the wrong level: a comparison whose output is a scalar or a
    window whose output is a series.
    """
    if root_level(formula) is Level.SERIES:
        formula = Always(TimeInterval(0, m - 1), formula)
    leaves: list[LeafConstraint] = []

    def visit(f, out):  # branches in order of how common the node is
        if isinstance(f, Cmp) and out.ndim:
            if out.any():
                leaves.append(LeafConstraint(f, out))
        elif isinstance(f, (And, Or)):
            left, right = _split_conjunctive(out, rng, isinstance(f, And))
            visit(f.lhs, left)
            visit(f.rhs, right)
        elif isinstance(f, Not):
            visit(f.arg, _NEG[out])
        elif isinstance(f, (Always, Eventually)) and not out.ndim:
            op = "always" if isinstance(f, Always) else "eventually"
            visit(f.arg, _window(op, out, f.interval, m, rng))
        else:
            level = "series" if out.ndim else "scalar"
            raise FormulaTypeError(f"not a {level} formula: {f!r}")

    visit(formula, _TRUE_CODE)
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
            if isinstance(ch, CategoricalChannel):
                self.allowed[ch.name] = np.ones((m, len(ch.symbols)), dtype=bool)
            else:
                self.lower[ch.name] = np.full(m, -np.inf)
                self.upper[ch.name] = np.full(m, np.inf)

    def _check_feasible(self):
        for name in self.lower:
            if (self.lower[name] > self.upper[name]).any():
                raise InfeasibleError(f"empty interval on channel {name}")
        for name, mask in self.allowed.items():
            if not mask.any(axis=1).all():
                raise InfeasibleError(f"no symbol left on channel {name}")


def compile_constraints(
    leaves: list[LeafConstraint], channels, m: int
) -> ConstraintSet:
    """Intersect leaf constraints into one feasible ConstraintSet."""
    cs = ConstraintSet(channels, m)
    by_name = {ch.name: ch for ch in cs.channels}
    unequal = []  # (channel, value, steps) of each falsified continuous "="
    for leaf in leaves:
        atom = leaf.atom
        if atom.channel not in by_name:
            raise FormulaTypeError(f"unknown channel {atom.channel!r}")
        ch = by_name[atom.channel]
        if leaf.outputs.shape[0] != m:
            raise ValueError("leaf output length differs from horizon")
        true_at = leaf.outputs == _TRUE_CODE
        false_at = leaf.outputs == _FALSE_CODE
        if isinstance(ch, CategoricalChannel):
            mask = cs.allowed[ch.name]
            is_sym = np.array([s == atom.value for s in ch.symbols])
            np.logical_and(mask, is_sym, out=mask, where=true_at[:, None])
            np.logical_and(mask, ~is_sym, out=mask, where=false_at[:, None])
            continue
        v = float(atom.value)
        lo, hi = cs.lower[ch.name], cs.upper[ch.name]
        if atom.op == "<=":
            np.minimum(hi, v, out=hi, where=true_at)
            np.maximum(lo, v + EPSILON, out=lo, where=false_at)
        elif atom.op == ">=":
            np.maximum(lo, v, out=lo, where=true_at)
            np.minimum(hi, v - EPSILON, out=hi, where=false_at)
        else:  # "=": pin when true; a falsified one is checked below
            np.maximum(lo, v, out=lo, where=true_at)
            np.minimum(hi, v, out=hi, where=true_at)
            unequal.append((ch.name, v, false_at))
    for name, v, false_at in unequal:
        if (false_at & (cs.lower[name] == v) & (cs.upper[name] == v)).any():
            raise InfeasibleError(f"channel {name} is pinned to {v} where it must differ")
    cs._check_feasible()
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
