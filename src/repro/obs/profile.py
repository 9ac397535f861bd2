"""Guarded phase timers: near-zero overhead off, per-phase accounting on.

The hot paths of the stack — the trainer's lockstep loop, the LOO
assessment pass, the ALS sweep behind every completion — are instrumented
with::

    from repro.obs.profile import phase

    with phase("als.solve"):
        ...

When no profiler is active (the default), :func:`phase` returns one shared
no-op context manager: the cost is a module-global read plus an empty
``with`` block, and nothing reads a clock — the instrumented code runs at
full speed and stays clock-discipline clean.  When a :class:`Profiler` is
:meth:`~Profiler.activate`\\ d, each phase records its call count and total
:func:`~repro.utils.timing.monotonic` seconds, and — when the profiler was
built with a :class:`~repro.obs.trace.Tracer` — emits a trace span that
nests under whichever batch span is open (so a served completion's ALS
solve shows up *inside* its batch in the Chrome trace).

Profiling is observational only: timers never influence control flow, so a
profiled run is bitwise identical to an unprofiled one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.utils.timing import monotonic

__all__ = ["Profiler", "phase"]

#: The active profiler, if any.  A module global (not thread-local) because
#: the whole stack is cooperatively single-threaded; Profiler.activate()
#: enforces non-reentrancy.
_active: Optional["Profiler"] = None


class _NullPhase:
    """The shared do-nothing context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_PHASE = _NullPhase()


class _Phase:
    """One timed phase: accumulates into the profiler on exit."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Phase":
        self._start = monotonic()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._profiler._record(self._name, self._start, monotonic())
        return False


def phase(name: str):
    """A context manager timing ``name`` under the active profiler (no-op otherwise)."""
    profiler = _active
    if profiler is None:
        return _NULL_PHASE
    return _Phase(profiler, name)


class Profiler:
    """Accumulates per-phase counts and seconds; optionally emits trace spans.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; each recorded phase also
        becomes a ``cat="profile"`` span on it (nested under the open batch
        span, if any).
    """

    def __init__(self, *, tracer: Optional[object] = None) -> None:
        self.tracer = tracer
        # name -> [count, total_seconds]; insertion order is first-seen, but
        # reporting sorts by name so snapshots are deterministic.
        self._phases: Dict[str, List[float]] = {}

    def _record(self, name: str, start: float, end: float) -> None:
        cell = self._phases.get(name)
        if cell is None:
            cell = self._phases[name] = [0, 0.0]
        cell[0] += 1
        cell[1] += end - start
        if self.tracer is not None:
            self.tracer.add_span(name, cat="profile", start=start, end=end)

    @contextmanager
    def activate(self) -> Iterator["Profiler"]:
        """Make this the process-wide active profiler for the block."""
        global _active
        if _active is not None:
            raise RuntimeError("another Profiler is already active")
        _active = self
        try:
            yield self
        finally:
            _active = None

    # -- reporting ---------------------------------------------------------------

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"count": n, "seconds": s}}``, sorted by phase name."""
        return {
            name: {"count": int(count), "seconds": round(seconds, 6)}
            for name, (count, seconds) in sorted(self._phases.items())
        }

    def count(self, name: str) -> int:
        """Times ``name`` was entered (0 if never)."""
        return int(self._phases.get(name, (0, 0.0))[0])

    def seconds(self, name: str) -> float:
        """Total seconds accumulated under ``name`` (0.0 if never)."""
        return float(self._phases.get(name, (0, 0.0))[1])

    def write_to(self, registry: MetricsRegistry) -> None:
        """Write the phase totals into ``registry``.

        ``repro_profile_phase_total{phase=...}`` /
        ``repro_profile_phase_seconds_total{phase=...}`` counters, one pair
        per phase.
        """
        counts = registry.counter(
            "repro_profile_phase_total", "Times each profiled phase ran"
        )
        seconds = registry.counter(
            "repro_profile_phase_seconds_total",
            "Total monotonic seconds spent in each profiled phase",
        )
        for name, (count, total) in sorted(self._phases.items()):
            counts.set_total(int(count), phase=name)
            seconds.set_total(float(total), phase=name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Profiler(phases={len(self._phases)}, tracer={self.tracer is not None})"
