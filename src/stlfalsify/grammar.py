"""Random generation and genetic editing of temporal-logic formulas.

The generator expands a small typed grammar: scalar formulas are built from
connectives and the windowed always/eventually operators, series formulas
from connectives and atomic comparisons on the declared channels.  Rules are
drawn uniformly among those that can still finish inside the remaining depth
budget, comparison thresholds uniformly from each channel's range, interval
endpoints uniformly in 0..t_max (drawn independently, then sorted).

Mutation and crossover address individual grammar nodes.  Besides the
formula nodes proper, interval endpoints and comparison values count as
nodes of their own kinds, so a mutation may nudge just a threshold and a
crossover may swap just a window endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stl import (
    Always,
    And,
    CategoricalChannel,
    ChannelSpec,
    Cmp,
    Eventually,
    Formula,
    FormulaTypeError,
    Level,
    Not,
    Or,
    TimeInterval,
    depth,
    root_level,
)

__all__ = [
    "GrammarError",
    "GrammarSpec",
    "NodeLocus",
    "sample_expression",
    "loci",
    "get_at",
    "replace_at",
    "mutate",
    "crossover",
]

MAX_DEPTH_DEFAULT = 10
CROSSOVER_TRIES = 20  # graft draws before crossover gives up

# Minimal tree depth a fresh subtree of each level needs: a series can be a
# lone comparison, a scalar needs at least a window over a comparison.
_MIN_DEPTH = {Level.SERIES: 1, Level.SCALAR: 2}


class GrammarError(ValueError):
    pass


@dataclass(frozen=True)
class GrammarSpec:
    """Channels and interval bound that ground the grammar."""

    channels: tuple[ChannelSpec, ...]
    t_max: int

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.t_max < 0:
            raise GrammarError("t_max must be >= 0")

    def channel(self, name: str) -> ChannelSpec:
        for ch in self.channels:
            if ch.name == name:
                return ch
        raise GrammarError(f"unknown channel {name!r}")


def _atom_rules(grammar: GrammarSpec) -> list[tuple[str, str]]:
    rules = []
    for ch in grammar.channels:
        if isinstance(ch, CategoricalChannel):
            rules.append((ch.name, "="))
        else:
            rules.extend((ch.name, op) for op in ("<=", ">=", "="))
    return rules


def _sample_value(grammar, channel_name, rng):
    ch = grammar.channel(channel_name)
    if isinstance(ch, CategoricalChannel):
        return ch.symbols[int(rng.integers(len(ch.symbols)))]
    return float(rng.uniform(ch.lo, ch.hi))


def _sample_interval(grammar, rng) -> TimeInterval:
    a, b = rng.integers(0, grammar.t_max + 1, size=2)
    return TimeInterval(int(min(a, b)), int(max(a, b)))


def sample_expression(
    grammar: GrammarSpec,
    rng: np.random.Generator,
    start: Level = Level.SCALAR,
    max_depth: int = MAX_DEPTH_DEFAULT,
) -> Formula:
    """Draw a random well-typed formula of depth at most ``max_depth``.

    Each node draws one index into its level's rule order, cut to the rules
    that finish within the remaining budget: the atoms, then ``&``, ``|``,
    ``!`` for a series (only the atoms at budget 1); ``&``, ``|``, ``!``,
    then the windows ``G``, ``F`` for a scalar (only the windows at budget 2).

    Raises GrammarError when no rule of the start level can terminate within
    the budget (a scalar needs depth 2, a series depth 1).
    """
    if max_depth < _MIN_DEPTH[start]:
        raise GrammarError(
            f"no {start.value} rule terminates within depth {max_depth}"
        )
    atoms = _atom_rules(grammar)

    def draw(lvl: Level, budget: int) -> Formula:
        if lvl is Level.SERIES:
            rule = int(rng.integers(len(atoms) + 3 if budget >= 2 else len(atoms)))
            if rule < len(atoms):
                name, op = atoms[rule]
                return Cmp(name, op, _sample_value(grammar, name, rng))
            rule -= len(atoms)  # 0, 1, 2: &, |, !
        else:  # 0, 1, 2, 3, 4: &, |, !, G, F
            rule = int(rng.integers(5)) if budget >= 3 else 3 + int(rng.integers(2))
            if rule >= 3:
                iv = _sample_interval(grammar, rng)
                arg = draw(Level.SERIES, budget - 1)
                return Always(iv, arg) if rule == 3 else Eventually(iv, arg)
        if rule == 2:
            return Not(draw(lvl, budget - 1))
        lhs, rhs = draw(lvl, budget - 1), draw(lvl, budget - 1)
        return And(lhs, rhs) if rule == 0 else Or(lhs, rhs)

    return draw(start, max_depth)


# ---------------------------------------------------------------------------
# Node addressing
#
# Paths are tuples of child slots, in the order ``_slots`` gives them.


def _slots(node) -> tuple:
    """A node's slots in path order; an endpoint or a value has none.

    and/or: 0 (lhs), 1 (rhs); not: 0 (arg); a window: 0 (interval lo),
    1 (interval hi), 2 (arg); a comparison: 0 (its value).
    """
    if isinstance(node, Cmp):
        return (node.value,)
    if isinstance(node, Not):
        return (node.arg,)
    if isinstance(node, (And, Or)):
        return (node.lhs, node.rhs)
    if isinstance(node, (Always, Eventually)):
        return (node.interval.lo, node.interval.hi, node.arg)
    return ()


@dataclass(frozen=True)
class NodeLocus:
    """Address of one grammar node: path from the root plus its kind.

    Kinds are ("B",) for scalar formula nodes, ("S",) for series nodes,
    ("T",) for interval endpoints and ("X", channel) for comparison values.
    ``depth`` counts formula nodes from the root down to (and including)
    this node; endpoint and value nodes inherit their owner's depth.
    """

    path: tuple[int, ...]
    kind: tuple
    depth: int


_TAG = {Level.SCALAR: "B", Level.SERIES: "S"}


def loci(formula: Formula) -> list[NodeLocus]:
    """All node addresses in ``formula``, root first.

    The root's level is read off its leftmost path (``stl.root_level``);
    below it each node's level follows from its parent's, and the walk
    raises FormulaTypeError at the first node of the wrong level.
    """
    out: list[NodeLocus] = []

    def walk(f, path, d, lvl):
        if isinstance(f, (Not, And, Or)):
            out.append(NodeLocus(path, (_TAG[lvl],), d))
            for i, child in enumerate(_slots(f)):
                walk(child, path + (i,), d + 1, lvl)
        elif isinstance(f, Cmp) and lvl is Level.SERIES:
            out.append(NodeLocus(path, ("S",), d))
            out.append(NodeLocus(path + (0,), ("X", f.channel), d))
        elif isinstance(f, (Always, Eventually)) and lvl is Level.SCALAR:
            out.append(NodeLocus(path, ("B",), d))
            out.append(NodeLocus(path + (0,), ("T",), d))
            out.append(NodeLocus(path + (1,), ("T",), d))
            walk(f.arg, path + (2,), d + 1, Level.SERIES)
        else:
            raise FormulaTypeError(f"not a {lvl.value} formula: {f!r}")

    walk(formula, (), 1, root_level(formula))
    return out


def get_at(formula: Formula, path: tuple[int, ...]):
    """Fetch the node at ``path``: a formula, an endpoint int, or a value."""
    node = formula
    for head in path:
        slots = _slots(node)
        if not 0 <= head < len(slots):
            raise GrammarError(f"no node at path {path}: {type(node).__name__} has no slot {head}")
        node = slots[head]
    return node


def replace_at(formula: Formula, path: tuple[int, ...], new) -> Formula:
    """Rebuild ``formula`` with the node at ``path`` replaced by ``new``.

    Replacing a single interval endpoint keeps the interval well formed by
    re-sorting the pair.
    """
    if not path:
        return new
    head, rest = path[0], path[1:]
    slots = list(_slots(formula))
    if not 0 <= head < len(slots):
        raise GrammarError(f"no node at path {path} in {type(formula).__name__}")
    slots[head] = replace_at(slots[head], rest, new)
    if isinstance(formula, Cmp):
        return Cmp(formula.channel, formula.op, slots[0])
    if isinstance(formula, (Always, Eventually)):
        lo, hi = sorted(int(x) for x in slots[:2])
        return type(formula)(TimeInterval(lo, hi), slots[2])
    return type(formula)(*slots)


# ---------------------------------------------------------------------------
# Genetic operators


def _fresh_node(grammar, locus: NodeLocus, rng):
    if locus.kind == ("T",):
        return int(rng.integers(0, grammar.t_max + 1))
    if locus.kind[0] == "X":
        return _sample_value(grammar, locus.kind[1], rng)
    start = Level.SCALAR if locus.kind == ("B",) else Level.SERIES
    budget = MAX_DEPTH_DEFAULT - locus.depth + 1
    return sample_expression(grammar, rng, start=start, max_depth=budget)


def mutate(
    formula: Formula,
    grammar: GrammarSpec,
    rng: np.random.Generator,
) -> Formula:
    """Replace one uniformly chosen node with a fresh draw of the same kind.

    The replacement subtree gets whatever depth budget remains below the
    chosen node, so the result never exceeds ``MAX_DEPTH_DEFAULT``.
    """
    sites = loci(formula)
    locus = sites[int(rng.integers(len(sites)))]
    return replace_at(formula, locus.path, _fresh_node(grammar, locus, rng))


def crossover(
    donor: Formula,
    recipient: Formula,
    grammar: GrammarSpec,
    rng: np.random.Generator,
) -> Formula:
    """Graft a random subtree of ``donor`` onto a matching node of ``recipient``.

    The recipient's root is never replaced.  If the donor has no node whose
    kind occurs in the recipient below the root, or every sampled graft would
    push past ``MAX_DEPTH_DEFAULT`` after ``CROSSOVER_TRIES`` draws, the recipient
    comes back unchanged.
    """
    donor_sites = loci(donor)
    recipient_sites = [s for s in loci(recipient) if s.path != ()]
    kinds_in_recipient = {s.kind for s in recipient_sites}
    candidates = [s for s in donor_sites if s.kind in kinds_in_recipient]
    if not candidates:
        return recipient
    for _ in range(CROSSOVER_TRIES):
        src = candidates[int(rng.integers(len(candidates)))]
        targets = [s for s in recipient_sites if s.kind == src.kind]
        dst = targets[int(rng.integers(len(targets)))]
        child = replace_at(recipient, dst.path, get_at(donor, src.path))
        if depth(child) <= MAX_DEPTH_DEFAULT:
            return child
    return recipient
