"""Times scaled to a reference machine speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to about 1.8x over seconds to minutes, for pure Python and small numpy
work alike.  A fixed reference block, run between timed pieces of work
(a tick), measures the machine's speed at that moment.  A stretch of work
between two ticks is scaled by ``REF_S / block time``, with the block time
taken as the median of the nearest ticks, so a run in a slow spell and one
in a fast spell report about the same time for the same work.  The scaled
time is in seconds at the speed where the block takes ``REF_S``.

The block mixes what the program does: 15x15 numpy draws, Cholesky
factors and solves; scalar random draws and small-array numpy calls; and
a recursive walk with ``isinstance`` dispatch over a tree of small
objects, as the formula code does.  It never touches the program, so a
change to the program moves the scaled time as much as the raw time.
"""

from __future__ import annotations

import time

import numpy as np

# Median block time on the reference machine (README.md, "Timing").
REF_S = 2.0e-3
NEAREST = 2  # ticks on each side of a stretch whose median scales it
TICK_EVERY_S = 0.1  # least work between ticks inside a search


class _Leaf:
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class _Node:
    __slots__ = ("lhs", "rhs", "value")

    def __init__(self, lhs, rhs, value: float):
        self.lhs, self.rhs, self.value = lhs, rhs, value


def _tree(depth: int):
    if depth == 0:
        return _Leaf(0.5)
    return _Node(_tree(depth - 1), _tree(depth - 1), float(depth))


def _walk(t) -> float:
    if isinstance(t, _Leaf):
        return t.value
    return _walk(t.lhs) + 0.5 * _walk(t.rhs) + t.value


class SpeedClock:
    """Ticks between timed work, and the scaled time of the work between ticks.

    A tick runs the reference block and records when it started and how
    long it took.  The work from the end of tick ``i`` to the start of tick
    ``i + 1`` is one stretch; :meth:`scaled` adds up the scaled stretches
    between two ticks.
    """

    def __init__(self):
        self.start: list[float] = []
        self.block: list[float] = []
        self.sink = 0.0
        a = np.random.default_rng(0).standard_normal((15, 15))
        self._spd = a @ a.T + 15.0 * np.eye(15)
        self._tree = _tree(10)

    def reference_block(self) -> float:
        """Fixed work of about two milliseconds; returns a value so none is skipped."""
        acc = 0.0
        rng = np.random.default_rng(1)
        for _ in range(24):
            z = rng.standard_normal(15)
            chol = np.linalg.cholesky(self._spd)
            acc += float(np.linalg.solve(chol, z)[0])
        for i in range(150):
            u = rng.random()
            x = np.zeros(30)
            x[i % 30 :] = u
            acc += float(x.sum()) + float((x > 0.5).any())
        return acc + _walk(self._tree)

    def tick(self) -> int:
        """Run the reference block; returns the tick's index."""
        t0 = time.perf_counter()
        self.sink += self.reference_block()
        t1 = time.perf_counter()
        self.start.append(t0)
        self.block.append(t1 - t0)
        return len(self.block) - 1

    def maybe_tick(self) -> None:
        """Tick if ``TICK_EVERY_S`` has passed since the last tick ended."""
        if not self.block or time.perf_counter() - self.start[-1] - self.block[-1] >= TICK_EVERY_S:
            self.tick()

    def raw(self, first: int, last: int) -> float:
        """Unscaled seconds of work between ticks ``first`` and ``last``."""
        return sum(self.start[i + 1] - self.start[i] - self.block[i] for i in range(first, last))

    def scaled(self, first: int, last: int) -> float:
        """Seconds at reference speed of the work between ticks ``first`` and ``last``."""
        blocks = np.asarray(self.block)
        total = 0.0
        for i in range(first, last):
            near = blocks[max(0, i + 1 - NEAREST) : i + 1 + NEAREST]
            work = self.start[i + 1] - self.start[i] - self.block[i]
            total += work * REF_S / float(np.median(near))
        return total


def ticking(clock: SpeedClock, module, name: str):
    """Tick (at most every ``TICK_EVERY_S``) before each call of ``module.name``.

    Long calls such as a whole search then hold ticks, so each part of them
    is scaled by the speed of its own moment.  Returns a function that puts
    the original back.
    """
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        clock.maybe_tick()
        return orig(*args, **kwargs)

    setattr(module, name, wrapper)

    def restore():
        setattr(module, name, orig)

    return restore
