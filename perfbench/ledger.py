"""Phase timing and the per-layer self-time ledger.

Every timed region of the benchmark is a *phase* (``setup``, ``write``,
``read``, ``degraded_read``, ``repair``, ``serve``, ``durability``).
:class:`Ledger` always accumulates each phase's wall time; when tracing
is on it also opens a root span per phase and, while a traced unit runs,
wraps the public entry points of each layer at class level (so callers
that bound a method or module function at import time are caught too).

Spans carry an id and their parent's id.  A span's *self time* is its
duration minus the time covered by its direct children, so summing self
time over every layer of one phase (the phase span's own remainder is
``harness``) gives exactly the phase's wall time.

Work that event handlers and coroutines do on the simulation engine is
attributed to ``sim`` unless it calls into another wrapped layer (the
reliability simulator's own handlers are wrapped as ``reliability``):
async gateway glue is counted inside ``sim.self_s`` until spans inside
the program land.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

HARNESS = "harness"


class Ledger:
    """Phase wall times, plus spans and layer counters when ``trace`` is on."""

    def __init__(self, trace: bool):
        self.trace = trace
        #: Wall seconds per phase, untraced units / traced units.
        self.phase_wall: dict[str, float] = {}
        self.traced_wall: dict[str, float] = {}
        #: ``phase -> layer -> self seconds`` over every traced unit.
        self.phase_layers: dict[str, dict[str, float]] = {}
        #: ``span name -> calls / self seconds / inclusive seconds``.
        self.span_calls: dict[str, int] = {}
        self.span_self: dict[str, float] = {}
        self.span_total: dict[str, float] = {}
        #: Free-form layer counters (bytes, events, ...).
        self.counts: dict[str, float] = {}
        self._spans: list[list] = []  # [id, parent, name, layer, start, end]
        self._stack: list[int] = []
        self._patches: list = []

    # ---------------------------------------------------------------- spans

    def _open(self, name: str, layer: str) -> int:
        sid = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([sid, parent, name, layer, perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._spans[sid][5] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time one region of a phase; a root span when a traced unit runs.

        The root span shares the phase timer's own timestamps, so the
        per-layer self times of a traced phase sum to its wall time.
        """
        tracing = bool(self._patches)
        sid = self._open(name, HARNESS) if tracing else -1
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            if tracing:
                self._spans[sid][4] = t0
                self._spans[sid][5] = t1
                self._stack.pop()
                self.traced_wall[name] = self.traced_wall.get(name, 0.0) + t1 - t0
            else:
                self.phase_wall[name] = self.phase_wall.get(name, 0.0) + t1 - t0

    def span(self, name: str, layer: str, fn, count=None):
        """Wrap ``fn`` so each call records a span (``count`` tallies extras).

        Calls made outside any phase (the correctness oracles) run bare.
        """
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger._stack:
                return fn(*args, **kwargs)
            sid = ledger._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger._close(sid)
            if count is not None:
                count(ledger, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------- patching

    def patch(self, owner, attr: str, name: str, layer: str, count=None) -> None:
        """Replace ``owner.attr`` with a span wrapper until :meth:`unpatch`."""
        self.replace(owner, attr, lambda original: self.span(name, layer, original, count))

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced(self, install):
        """Run a unit with ``install(ledger)``'s wrappers in place, then roll up."""
        install(self)
        try:
            yield
        finally:
            self.unpatch()
            self._rollup()

    def _rollup(self) -> None:
        """Fold the unit's span tree into per-phase and per-span totals."""
        spans = self._spans
        child_time = [0.0] * len(spans)
        for sid, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        root_of: list[int] = []
        for sid, parent, name, layer, start, end in spans:
            root_of.append(sid if parent < 0 else root_of[parent])
            duration = end - start
            own = duration - child_time[sid]
            phase = spans[root_of[sid]][2]
            layers = self.phase_layers.setdefault(phase, {})
            layers[layer] = layers.get(layer, 0.0) + own
            self.span_self[name] = self.span_self.get(name, 0.0) + own
            # Re-entrant calls (apply_batch -> apply, a subclass __init__
            # calling its base) count once, at the outermost span.
            if parent < 0 or spans[parent][2] != name:
                self.span_calls[name] = self.span_calls.get(name, 0) + 1
                self.span_total[name] = self.span_total.get(name, 0.0) + duration
        self._spans = []
        self._stack = []

    # -------------------------------------------------------------- readout

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, summed over every phase."""
        out: dict[str, float] = {}
        for layers in self.phase_layers.values():
            for layer, seconds in layers.items():
                out[layer] = out.get(layer, 0.0) + seconds
        return out
