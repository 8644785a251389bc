"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces a layer's public callables (class attributes or
module-level functions) with timing wrappers.  Each wrapper keeps three
running numbers for its span name: calls, total seconds, and the seconds
spent in traced spans nested directly inside it, so a span's *self time*
is ``total - child``.  Nothing in the program changes; uninstrumented
runs never import this module.

Pool workers fork from the tracing parent and inherit the wrappers.  Each
forked process gets a private row of an anonymous shared-memory table and
copies its running numbers there after every batch it executes, so the
parent can add the workers' spans to its own (:meth:`Tracer.totals`).
"""

from __future__ import annotations

import mmap
import os
import struct
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Rows of the shared table: row 0 is the parent, the rest are forked
#: processes in fork order.  A process forked past the last row keeps its
#: spans to itself.
MAX_ROWS = 16


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.acc: Dict[str, List[float]] = {}
        #: Open spans' nested time; the bottom entry is a sentinel so a
        #: closing span can always add itself to its parent.
        self.stack: List[float] = [0.0]
        self.row = 0
        self._forks = 0
        self._child_row: Optional[int] = None
        self._shared: Optional[mmap.mmap] = None
        self._row_format = ""

    # -- instrumentation -----------------------------------------------------

    def _acc(self, name: str) -> List[float]:
        if self._shared is not None:
            raise RuntimeError("register every span before share_with_forks()")
        if name not in self.acc:
            self.names.append(name)
            self.acc[name] = [0, 0.0, 0.0]
        return self.acc[name]

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` under span ``name``."""
        original = vars(owner)[attr]
        acc = self._acc(name)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += stack.pop()
                stack[-1] += elapsed

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def wrap_overrides(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and on every loaded subclass that
        defines its own, all under one span name."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in vars(cls):
                self.wrap(cls, attr, name)

    def after(self, owner, attr: str, hook: Callable[[], None]) -> None:
        """Call ``hook`` after every call of ``owner.attr`` (untimed)."""
        original = vars(owner)[attr]

        def hooked(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                hook()

        setattr(owner, attr, hooked)

    # -- spans across fork ---------------------------------------------------

    def share_with_forks(self) -> None:
        """Give every process forked from now on a row of a shared table.

        Call after the last :meth:`wrap`; forked processes call
        :meth:`flush` to publish their numbers."""
        self._row_format = "=" + "d" * (3 * len(self.names))
        size = struct.calcsize(self._row_format)
        self._shared = mmap.mmap(-1, size * MAX_ROWS)
        os.register_at_fork(
            before=self._before_fork, after_in_child=self._after_fork_child
        )

    def _before_fork(self) -> None:
        self._forks += 1
        self._child_row = self._forks if self._forks < MAX_ROWS else None

    def _after_fork_child(self) -> None:
        self.row = self._child_row
        self._forks = 0
        for acc in self.acc.values():
            acc[:] = [0, 0.0, 0.0]
        del self.stack[1:]
        self.stack[0] = 0.0

    def flush(self) -> None:
        """Publish this forked process's running numbers to its row."""
        if self._shared is None or not self.row:
            return
        flat = [x for name in self.names for x in self.acc[name]]
        size = struct.calcsize(self._row_format)
        struct.pack_into(self._row_format, self._shared, self.row * size, *flat)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total_s, child_s)`` over this process and
        every forked row published so far."""
        out = {name: list(self.acc[name]) for name in self.names}
        if self._shared is not None:
            size = struct.calcsize(self._row_format)
            for row in range(1, MAX_ROWS):
                flat = struct.unpack_from(
                    self._row_format, self._shared, row * size
                )
                for i, name in enumerate(self.names):
                    for j in range(3):
                        out[name][j] += flat[3 * i + j]
        return {name: (int(c), t, ch) for name, (c, t, ch) in out.items()}


def span_delta(before: Dict[str, Tuple[int, float, float]],
               after: Dict[str, Tuple[int, float, float]]):
    """Spans accumulated between two :meth:`Tracer.totals` readings."""
    return {
        name: tuple(a - b for a, b in zip(after[name], before.get(name, (0, 0.0, 0.0))))
        for name in after
    }
