"""Span recorder that wraps the program's public functions from outside.

A traced function is replaced, in every ``stlfalsify`` module namespace
that holds it, by a wrapper that records one span per call: function,
start, end and parent span.  Callers look the name up in their own module
at call time, so ``evaluate_cost`` calling ``constraints_for`` goes through
the wrapper installed in ``stlfalsify.optimize``.  A function that calls
itself by name (``canonical_text``) is left unwrapped in its own module, so
one lookup gives one span rather than one per formula node.

Spans are kept in memory and only summarised or written out after the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

import numpy as np


class Recorder:
    """Records a span per call of each wrapped function, and counts calls.

    ``observe`` callbacks see each return value, so counts such as traces
    drawn or rollouts failed are taken where the work happens.
    """

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.names: list[str] = []
        self.fn: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        calls, raised = self.calls, self.raised
        fid = len(self.names)
        self.names.append(name)
        fns, starts, ends, parents, stack = self.fn, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        def spanning(*args, **kwargs):
            calls[name] += 1
            i = len(starts)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                raised[name] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        return spanning

    def arrays(self):
        """Spans as numpy arrays: function id, start ns, end ns, parent index."""
        return (
            np.asarray(self.fn, dtype=np.int32),
            np.asarray(self.start, dtype=np.int64),
            np.asarray(self.end, dtype=np.int64),
            np.asarray(self.parent, dtype=np.int64),
        )

    def save(self, path) -> None:
        fn, start, end, parent = self.arrays()
        np.savez_compressed(
            path, names=np.asarray(self.names), fn=fn, start=start, end=end, parent=parent
        )

    def summary(self) -> dict[str, dict]:
        """Per function: calls, busy seconds, self seconds and call durations.

        Self time is a span's duration minus that of its direct children;
        spans of one thread nest, so the children never overlap.
        """
        fn, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for fid, name in enumerate(self.names):
            mask = fn == fid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()) / 1e9,
                "self_s": float((dur[mask] - child[mask]).sum()) / 1e9,
                "us": dur[mask] / 1e3,
            }
        return out


def install(recorder: Recorder, functions: dict[str, object]):
    """Wrap each ``"module.name"`` in ``functions`` wherever it is bound.

    ``functions`` maps the traced name to an observe callback or None.
    Returns a function that puts the originals back.
    """
    undo = []
    modules = [m for k, m in sys.modules.items() if k == "stlfalsify" or k.startswith("stlfalsify.")]
    for qual, observe in functions.items():
        mod_name, attr = qual.split(".")
        home = importlib.import_module(f"stlfalsify.{mod_name}")
        orig = getattr(home, attr)
        wrapper = recorder.wrap(qual, orig, observe)
        recursive = attr in orig.__code__.co_names
        for mod in modules:
            if mod is home and recursive:
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, orig))

    def restore():
        for mod, key, orig in reversed(undo):
            setattr(mod, key, orig)

    return restore
