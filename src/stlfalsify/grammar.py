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
    Level,
    Not,
    Or,
    TimeInterval,
    depth,
    level,
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

    Raises GrammarError when no rule of the start level can terminate within
    the budget (a scalar needs depth 2, a series depth 1).
    """
    if max_depth < _MIN_DEPTH[start]:
        raise GrammarError(
            f"no {start.value} rule terminates within depth {max_depth}"
        )
    atoms = _atom_rules(grammar)

    def series(budget: int) -> Formula:
        # rule -> minimal completion depth
        rules: list[tuple[str, int]] = [(f"atom:{i}", 1) for i in range(len(atoms))]
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

    def scalar(budget: int) -> Formula:
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


# ---------------------------------------------------------------------------
# Node addressing
#
# Paths are tuples of child slots.  For and/or the slots are 0 (lhs) and
# 1 (rhs); for not, 0 (arg).  Windowed operators expose slot 0 (interval lo),
# 1 (interval hi) and 2 (arg); comparisons expose slot 0 (their value).


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


def loci(formula: Formula) -> list[NodeLocus]:
    """All node addresses in ``formula``, root first.

    ``level`` runs once, on the root, and validates the whole tree; below
    it a node's tag follows from its type: comparisons are series, windows
    are scalar over a series argument, and connectives share their parent's
    level.
    """
    out: list[NodeLocus] = []

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
        else:  # Always / Eventually
            out.append(NodeLocus(path, ("B",), d))
            out.append(NodeLocus(path + (0,), ("T",), d))
            out.append(NodeLocus(path + (1,), ("T",), d))
            walk(f.arg, path + (2,), d + 1, "S")

    walk(formula, (), 1, "B" if level(formula) is Level.SCALAR else "S")
    return out


def get_at(formula: Formula, path: tuple[int, ...]):
    """Fetch the node at ``path``: a formula, an endpoint int, or a value."""
    if not path:
        return formula
    head, rest = path[0], path[1:]
    if isinstance(formula, Cmp):
        if head == 0 and not rest:
            return formula.value
    elif isinstance(formula, Not):
        if head == 0:
            return get_at(formula.arg, rest)
    elif isinstance(formula, (And, Or)):
        if head == 0:
            return get_at(formula.lhs, rest)
        if head == 1:
            return get_at(formula.rhs, rest)
    elif isinstance(formula, (Always, Eventually)):
        if head == 0 and not rest:
            return formula.interval.lo
        if head == 1 and not rest:
            return formula.interval.hi
        if head == 2:
            return get_at(formula.arg, rest)
    raise GrammarError(f"no node at path {path} in {type(formula).__name__}")


def replace_at(formula: Formula, path: tuple[int, ...], new) -> Formula:
    """Rebuild ``formula`` with the node at ``path`` replaced by ``new``.

    Replacing a single interval endpoint keeps the interval well formed by
    re-sorting the pair.
    """
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(formula, Cmp):
        if head == 0 and not rest:
            return Cmp(formula.channel, formula.op, new)
    elif isinstance(formula, Not):
        if head == 0:
            return Not(replace_at(formula.arg, rest, new))
    elif isinstance(formula, (And, Or)):
        cls = type(formula)
        if head == 0:
            return cls(replace_at(formula.lhs, rest, new), formula.rhs)
        if head == 1:
            return cls(formula.lhs, replace_at(formula.rhs, rest, new))
    elif isinstance(formula, (Always, Eventually)):
        cls = type(formula)
        if head in (0, 1) and not rest:
            pair = [formula.interval.lo, formula.interval.hi]
            pair[head] = int(new)
            iv = TimeInterval(min(pair), max(pair))
            return cls(iv, formula.arg)
        if head == 2:
            return cls(formula.interval, replace_at(formula.arg, rest, new))
    raise GrammarError(f"no node at path {path} in {type(formula).__name__}")


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
