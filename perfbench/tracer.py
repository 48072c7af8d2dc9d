"""Attribute-level tracer: wraps program functions from the outside.

The tracer replaces a function at its class or module attribute with a
timing wrapper and puts the original object back on :meth:`Tracer.restore`,
so the program's sources stay untouched and an untraced run pays nothing.

Two kinds of wrapper share one call stack:

- a *span* (per-message boundaries such as ``multicast`` or
  ``Network.send``) records one row per call -- name, start, end, parent
  span and a message id -- kept in memory and written out at the end;
- a *count* (functions called many times per message, such as
  ``size_bytes``) only adds to a call count and summed times.  A counted
  generator function is consumed inside the call (it returns a list), so
  its time is its own.

For every name the tracer keeps the number of calls, the inclusive time of
its outermost calls (a recursive call is not counted twice) and its self
time: the duration minus the time its wrapped children cover.  Self times
therefore partition the time spent under the outermost wrapped call.

A third kind, an *excluded* call (the benchmark's own speed samples, which a
timer can fire inside any program call), is counted and timed under its own
name, and its time is taken out of the duration of every wrapped call open
around it, so no inclusive or self time of the program contains it.  Span
rows keep the raw clock readings.

A span or call can be marked a *root*: a catch-all around a block of work
(``Simulator.run``, one experiment) whose self time holds whatever the
probes below it do not name.  :meth:`Tracer.attributed_s` leaves roots out.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``id_of(args, result)`` -> the message id a span belongs to, or None.
IdFn = Callable[[tuple, Any], Any]


class NameStats:
    """Totals for one traced name."""

    __slots__ = ("calls", "incl_ns", "self_ns", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.depth = 0


class Tracer:
    """Installs wrappers, keeps spans and per-name totals, restores."""

    def __init__(self) -> None:
        self.stats: Dict[str, NameStats] = {}
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One child-time cell per active wrapped call, innermost last.
        self._frames: List[List[int]] = []
        # Nanoseconds spent in excluded calls so far.
        self._excluded = [0]
        self.roots: set = set()
        # Indices of the spans currently open, innermost last.
        self._open: List[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_ids: List[Any] = []
        # (owner, attribute, original object as stored on the owner)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installing ------------------------------------------------------------

    def _stats_for(self, name: str) -> NameStats:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = NameStats()
        return entry

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so each call adds to ``name``'s totals."""
        self._install(owner, attr, self._count_wrapper(name))

    def span(self, owner: Any, attr: str, name: str,
             id_of: Optional[IdFn] = None, root: bool = False) -> None:
        """Wrap ``owner.attr`` so each call also records a span row."""
        if root:
            self.roots.add(name)
        self._install(owner, attr, self._span_wrapper(name, id_of))

    def exclude(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so its calls are timed under ``name`` and their
        time is taken out of every wrapped call open around them."""
        self._install(owner, attr, self._exclude_wrapper(name))

    def count_everywhere(self, modules: List[Any], original: Callable,
                         name: str, flatten: bool = False) -> None:
        """Wrap every module attribute that is bound to ``original``.

        A function imported with ``from x import f`` is looked up in the
        importing module's namespace, so each binding is wrapped.  With
        ``flatten``, a recursive function's inner calls run unwrapped: its
        home module's binding is the original while an outermost call runs,
        so only outermost calls are counted and the wrapper's cost is paid
        once per outermost call.
        """
        home = sys.modules[original.__module__] if flatten else None
        make = self._count_wrapper(name, home, original.__name__)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._install(module, attr, make)

    def _install(self, owner: Any, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {owner!r}.{attr}: {type(original).__name__}")
        wrapper = make(original)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__qualname__ = getattr(original, "__qualname__", attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original
        object again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(
            (owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr)) is original
            for owner, attr, original in self._patches
        )
        self._patches.clear()
        return ok

    @property
    def installed(self) -> int:
        return len(self._patches)

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` as a root span named ``name`` around a block of
        the benchmark's own code, such as one experiment."""
        self.roots.add(name)
        return self._span_wrapper(name, None)(fn)(*args)

    # -- wrappers --------------------------------------------------------------

    def _count_wrapper(self, name: str, home: Any = None,
                       home_attr: str = "") -> Callable[[Callable], Callable]:
        stats = self._stats_for(name)
        frames = self._frames
        excluded = self._excluded
        clock = time.perf_counter_ns

        def make(fn: Callable) -> Callable:
            # A generator function does its work when iterated; consume it
            # inside the timed call so the time lands on this name.
            call = (lambda *a, **k: list(fn(*a, **k))) if inspect.isgeneratorfunction(fn) else fn

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stats.calls += 1
                stats.depth += 1
                cell = [0]
                frames.append(cell)
                if home is not None:
                    swapped = getattr(home, home_attr)
                    setattr(home, home_attr, fn)
                skipped = excluded[0]
                start = clock()
                try:
                    return call(*args, **kwargs)
                finally:
                    took = clock() - start - (excluded[0] - skipped)
                    if home is not None:
                        setattr(home, home_attr, swapped)
                    frames.pop()
                    stats.depth -= 1
                    if not stats.depth:
                        stats.incl_ns += took
                    stats.self_ns += took - cell[0]
                    if frames:
                        frames[-1][0] += took
            return wrapper

        return make

    def _span_wrapper(self, name: str,
                      id_of: Optional[IdFn]) -> Callable[[Callable], Callable]:
        stats = self._stats_for(name)
        frames = self._frames
        excluded = self._excluded
        open_spans = self._open
        clock = time.perf_counter_ns
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span_name = self.span_name
        span_parent = self.span_parent
        span_start = self.span_start
        span_end = self.span_end
        span_ids = self.span_ids

        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stats.calls += 1
                stats.depth += 1
                cell = [0]
                frames.append(cell)
                index = len(span_ids)
                span_name.append(name_id)
                span_parent.append(open_spans[-1] if open_spans else -1)
                span_ids.append(None)
                open_spans.append(index)
                skipped = excluded[0]
                start = clock()
                span_start.append(start)
                span_end.append(0)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    took = end - start - (excluded[0] - skipped)
                    span_end[index] = end
                    open_spans.pop()
                    frames.pop()
                    stats.depth -= 1
                    if not stats.depth:
                        stats.incl_ns += took
                    stats.self_ns += took - cell[0]
                    if frames:
                        frames[-1][0] += took
                    if id_of is not None:
                        span_ids[index] = id_of(args, result)
            return wrapper

        return make

    def _exclude_wrapper(self, name: str) -> Callable[[Callable], Callable]:
        stats = self._stats_for(name)
        excluded = self._excluded
        clock = time.perf_counter_ns

        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stats.calls += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = clock() - start
                    stats.incl_ns += took
                    stats.self_ns += took
                    excluded[0] += took
            return wrapper

        return make

    # -- reading ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        entry = self.stats.get(name)
        return entry.calls if entry else 0

    def incl_s(self, name: str) -> float:
        entry = self.stats.get(name)
        return entry.incl_ns / 1e9 if entry else 0.0

    def self_s(self, name: str) -> float:
        entry = self.stats.get(name)
        return entry.self_ns / 1e9 if entry else 0.0

    def self_s_by_prefix(self) -> Dict[str, float]:
        """Self seconds summed per layer: the name without its last part."""
        out: Dict[str, float] = {}
        for name, entry in self.stats.items():
            layer = name.rsplit(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + entry.self_ns / 1e9
        return out

    def attributed_s(self, skip_layers: Tuple[str, ...] = ()) -> float:
        """Self seconds of every name that is not a root and whose first
        part is not in ``skip_layers``: the time the probes name."""
        return sum(entry.self_ns for name, entry in self.stats.items()
                   if name not in self.roots
                   and name.split(".", 1)[0] not in skip_layers) / 1e9

    @property
    def span_count(self) -> int:
        return len(self.span_ids)

    def write_spans(self, path: Path) -> None:
        """Write the spans as gzip TSV: index, name, start_ns, end_ns, parent, id.

        Times are relative to the first span's start.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.span_start[0] if len(self.span_start) else 0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\tid\n")
            for i, msg_id in enumerate(self.span_ids):
                out.write(
                    f"{i}\t{names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - base}\t{self.span_end[i] - base}\t"
                    f"{self.span_parent[i]}\t{'' if msg_id is None else msg_id}\n"
                )

