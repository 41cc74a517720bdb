"""Layer timing from outside the program.

The tracer replaces public functions and methods of the ``adamf`` modules
with timing wrappers, at every place the name is looked up, and puts the
originals back on ``uninstall``.  Each wrapped call is a span: its inclusive
time, its self time (inclusive minus the spans it encloses) and its call
count are accumulated under the span's name, plus whatever counters the
span's hook adds.

``Tape`` kernels get one more trick: every node a kernel appends to the tape
has its ``backward_fn`` replaced by a timed wrapper, so a kernel's backward
time is measured where the tape's reverse sweep calls it.

Bytes are counted for memory the tape adds: a leaf whose value is one of the
``ParameterStore``'s own arrays (``Tape.param``, and ``Tape.leaf`` on a
frozen group) adds none, and a view is counted once, through the array that
owns its memory.

A target that no longer exists (a refactor removed or renamed it) is
recorded in ``absent`` and skipped; its metrics then read 0.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


def _root(a):
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _store_roots(store) -> set[int]:
    """Ids of the arrays that own the store's parameter memory."""
    if store is None:
        return set()
    return {id(_root(store[name])) for name in store.names()}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(int)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> bool:
        """Replace ``owner.attr`` by ``make_wrapper(original)``; False if absent."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))
        return True

    def undo(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []   # per open span: [child seconds]
        self._patches = Patches()
        # per tape: the store's arrays, which do not change while it records
        self._stored = weakref.WeakKeyDictionary()

    # ----------------------------------------------------------------- spans

    def _run(self, name, fn, args, kwargs, hook=None):
        frame = [0.0]
        self._stack.append(frame)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            stat = self.stats[name]
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - frame[0]
        if hook is not None:
            hook(self.stats[name].counts, args, kwargs, result)
        return result

    def wrap(self, name: str, targets, hook=None):
        """Time every call of the function bound at each (owner, attr) target.

        ``hook(counts, args, kwargs, result)`` may add counters after a call.
        """
        found = False
        for owner, attr in targets:
            def make(original):
                @functools.wraps(original)
                def traced(*args, **kwargs):
                    return self._run(name, original, args, kwargs, hook)
                return traced
            found |= self._patches.replace(owner, attr, make)
        if not found and name not in self.absent:
            self.absent.append(name)

    def wrap_tape(self, tape_cls):
        """Time forward and backward of every public ``Tape`` method.

        ``backward`` is the reverse sweep itself; every other public method
        is treated as a kernel.  Nodes appended during a kernel call are
        charged to the innermost kernel that appended them.
        """
        kernels = [n for n, v in vars(tape_cls).items()
                   if inspect.isfunction(v) and not n.startswith("_")
                   and n != "backward"]
        appended = [0]   # nodes charged so far, to attribute nested appends

        for op in kernels:
            def make(original, op=op):
                fwd = f"tape.{op}"
                bwd = f"tape.{op}.bwd"

                @functools.wraps(original)
                def kernel(tape, *args, **kwargs):
                    before = len(tape.nodes)
                    charged = appended[0]
                    node = self._run(fwd, original, (tape,) + args, kwargs)
                    nodes = tape.nodes[before:]
                    own = len(nodes) - (appended[0] - charged)
                    counts = self.stats[fwd].counts
                    for new in nodes[len(nodes) - own:] if own > 0 else ():
                        if new.parents or id(_root(new.value)) not in self._store_of(tape):
                            counts["out_bytes"] += new.value.nbytes
                        if new.backward_fn is not None:
                            new.backward_fn = self._timed_backward(bwd, new.backward_fn)
                    appended[0] = charged + len(nodes)
                    return node
                return kernel
            self._patches.replace(tape_cls, op, make)

        def sweep_hook(counts, args, kwargs, result):
            tape = args[0]
            counts["nodes_max"] = max(counts["nodes_max"], len(tape.nodes))
            stored = self._store_of(tape)
            owners = {}
            for n in tape.nodes:
                root = _root(n.value)
                if id(root) not in stored:
                    owners[id(root)] = root.nbytes
            nbytes = sum(owners.values())
            counts["value_bytes_max"] = max(counts["value_bytes_max"], nbytes)
        self.wrap("tape.backward", [(tape_cls, "backward")], sweep_hook)
        return kernels

    def _store_of(self, tape) -> set[int]:
        stored = self._stored.get(tape)
        if stored is None:
            stored = self._stored[tape] = _store_roots(tape.store)
        return stored

    def _timed_backward(self, name, fn):
        def backward(g):
            return self._run(name, fn, (g,), {})
        return backward

    def uninstall(self):
        self._patches.undo()

    # --------------------------------------------------------------- reading

    def total(self, name: str) -> float:
        return self.stats[name].total_s if name in self.stats else 0.0

    def self_time(self, name: str) -> float:
        return self.stats[name].self_s if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def count(self, name: str, key: str) -> int:
        return self.stats[name].counts.get(key, 0) if name in self.stats else 0
