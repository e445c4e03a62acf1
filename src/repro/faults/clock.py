"""The virtual clock every simulated-time consumer runs on.

Retry backoff, circuit-breaker reset timeouts and fault windows all need
a notion of *now*.  Real wall-clock time would make tests slow and flaky,
so the storage layer runs on a :class:`VirtualClock` by default: a
float that read latencies and backoff sleeps are added to.  ``advance``
never moves it backwards; only ``pin`` can.

The event-driven layers reuse the same clock by *pinning* it: the serving
gateway pins it to each disk read's sim-time start and reads the elapsed
time back as the read's service duration, and the durability simulator
pins it to the current event instant before asking the repair admission
controller for a lease grant.
"""

from __future__ import annotations


class VirtualClock:
    """A simulated clock: ``now``, explicit ``advance`` and ``pin``."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds (negative dt is a no-op)."""
        if dt > 0:
            self._now += dt
        return self._now

    def pin(self, instant: float) -> None:
        """Set ``now`` to ``instant``, which may lie before the current time."""
        self._now = float(instant)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(now={self._now:.6f})"
