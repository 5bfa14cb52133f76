"""Span tracing of the scoreplay layers, installed from outside the package.

``Tracer.install`` rebinds every public function of each layer module (the
names in its ``__all__``, or its public ``def``s when it has none) and
``SumEvaluator.final_scores`` to timing wrappers, in every ``scoreplay``
module that holds a reference to them.  ``uninstall`` puts the originals
back.  Nothing under ``src/`` is edited.

Each call of a wrapped function opens a span (name, start, end, parent),
except a call to a function that is already on the stack: a recursive
call belongs to the outer span.  Spans are kept in flat arrays and written
out by ``write_spans``.  Self time (a span's duration minus the time its
child spans cover) is summed per function as spans close; because one
thread runs and spans nest, the child spans of a span never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

#: One layer per module of the package, in import order.
LAYERS = (
    "core", "score", "sums", "order", "canonical",
    "notation", "rulesets", "verify", "cli",
)

#: Name of the benchmark's own span around each request.
REQUEST_SPAN = "bench.request"


def layer_functions(module) -> dict[str, object]:
    """Public plain functions a layer module defines.

    Generator functions are left out: their body runs while the caller
    iterates, after a span around the call would have closed.
    """
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        fn = getattr(module, name, None)
        if (
            inspect.isfunction(fn)
            and fn.__module__ == module.__name__
            and not inspect.isgeneratorfunction(fn)
        ):
            out[name] = fn
    return out


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.memo_hits = 0
        self.memo_probed = False
        # Open spans as [span index, time covered by closed children].
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.request_id = self._name_id(REQUEST_SPAN)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, nid: int) -> list[int]:
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0)
        frame = [idx, 0]
        stack.append(frame)
        self.span_start.append(perf_counter_ns())
        return frame

    def _close(self, nid: int, frame: list[int]) -> None:
        end = perf_counter_ns()
        idx = frame[0]
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.self_ns[nid] += duration - frame[1]
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += duration

    def request(self, fn, arg):
        """Run one benchmark request under a root span."""
        nid = self.request_id
        self.calls[nid] += 1
        frame = self._open(nid)
        try:
            return fn(arg)
        finally:
            self._close(nid, frame)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        calls = self.calls
        open_, close = self._open, self._close
        active = False

        def traced(*args, **kwargs):
            nonlocal active
            calls[nid] += 1
            if active:
                return fn(*args, **kwargs)
            active = True
            frame = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(nid, frame)
                active = False

        traced.__wrapped__ = fn
        return traced

    def _wrap_pair_eval(self, name: str, fn):
        # SumEvaluator.final_scores: also probe the evaluator's memo, so
        # the hit ratio is read from outside the evaluator.
        traced = self._wrap(name, fn)

        def traced_eval(ev, g, h):
            memo = getattr(ev, "_memo", None)
            if memo is not None:
                self.memo_probed = True
                if (g, h) in memo:
                    self.memo_hits += 1
            return traced(ev, g, h)

        traced_eval.__wrapped__ = fn
        return traced_eval

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every layer function, wherever the package holds it."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"scoreplay.{layer}")
            for name, fn in layer_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "scoreplay" and not mod_name.startswith("scoreplay."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        sums = importlib.import_module("scoreplay.sums")
        cls = sums.SumEvaluator
        original = cls.__dict__["final_scores"]
        self._restore.append((cls, "final_scores", original))
        cls.final_scores = self._wrap_pair_eval(
            "sums.SumEvaluator.final_scores", original
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def self_seconds(self, prefix: str) -> float:
        """Summed self time of the spans whose name starts with prefix."""
        return sum(
            ns for name, ns in zip(self.names, self.self_ns)
            if name.startswith(prefix)
        ) / 1e9

    def call_count(self, name: str) -> int | None:
        """Calls of a wrapped function, or None if it was not wrapped."""
        if name not in self.names:
            return None
        return self.calls[self.names.index(name)]

    def write_spans(self, path) -> int:
        """Write spans as gzipped TSV: id, parent, name, start_ns, end_ns.

        Times are relative to the first span's start.  Returns the number
        of spans written.
        """
        n = len(self.span_start)
        t0 = self.span_start[0] if n else 0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(n):
                f.write(
                    f"{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - t0}\t{self.span_end[i] - t0}\n"
                )
        return n
