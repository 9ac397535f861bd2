"""Timing helpers shared by the untraced and the traced run.

One measured call always runs on a deep copy of the set-up session
(:func:`timed_run`), and timings are corrected for machine speed.

On the 2-vCPU box this benchmark was built on, the same single-threaded code
runs at two speeds about 1.5x apart: other tenants' load on the physical
cores switches on and off every few seconds, and process CPU time slows
with wall time, so the slowdown cannot be subtracted as waiting.  Raw
throughput of one workload spread by 20-45% between processes.

:class:`SpeedSampler` therefore times a small fixed kernel — ALS-style
numpy solves driven from Python, the mix the workloads run — from a timer
signal every :data:`INTERVAL_S` while set-up and the measured calls run.
The kernel's mean time over a phase, divided by :data:`REFERENCE_S`, is the
phase's *slowness*; a phase's wall time minus the kernel's own time, divided
by its slowness, is the time the box takes at its reference speed.  The
kernel touches no ``repro`` code and no state of the program, so results
stay bit for bit the same and no program change can move the kernel.  Raw
figures are recorded next to calibrated ones.
"""

from __future__ import annotations

import copy
import gc
import math
import resource
import signal
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

#: Where results, provenance and span traces go (git-ignored).
OUT = Path(__file__).resolve().parent / "out"

clock = time.perf_counter

#: Kernel seconds on the reference box (2-vCPU Intel Xeon, numpy 2.4 with
#: scipy-openblas 0.3.31, one BLAS thread) at its fast speed.
REFERENCE_S = 0.0014
#: Seconds between two kernel samples; the kernel costs about 2% of a run.
INTERVAL_S = 0.1


def kernel() -> float:
    """One fixed unit of work: 5 rank-3 ALS-style factorisations of a 20x8 matrix."""
    rng = np.random.default_rng(0)
    data = rng.standard_normal((20, 8))
    mask = rng.random((20, 8)) < 0.5
    ridge = 0.1 * np.eye(3)
    total = 0.0
    for _ in range(5):
        cells = rng.standard_normal((20, 3))
        cycles = rng.standard_normal((8, 3))
        for _ in range(8):
            gram = np.einsum("ij,ik->ijk", cells, cells).sum(0) + ridge
            cycles = np.linalg.solve(gram, cells.T @ np.where(mask, data, 0.0)).T
            gram = cycles.T @ cycles + ridge
            cells = np.linalg.solve(gram, cycles.T @ np.where(mask, data, 0.0).T).T
        total += float(cells.sum()) + sum(i * i for i in range(200))
    return total


class SpeedSampler:
    """Times :func:`kernel` from a ``SIGALRM`` timer while active (one per process)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def sample(self) -> float:
        """Time one kernel call now; the timer calls this too."""
        start = clock()
        kernel()
        elapsed = clock() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        return elapsed

    def _tick(self, signum: int, frame: Any) -> None:
        self.sample()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def now(self) -> float:
        """A clock that stands still while the kernel runs."""
        return clock() - self.spent

    def timed(self, function: Callable[..., Any], *args: Any) -> Dict[str, Any]:
        """Call ``function``; returns its ``result``, its ``start`` and ``end``
        on :func:`clock`, its ``wall`` seconds less the kernel's, and the
        kernel ``samples`` taken during it."""
        first, spent = len(self.samples), self.spent
        start = clock()
        result = function(*args)
        end = clock()
        return {
            "result": result,
            "start": start,
            "end": end,
            "wall": end - start - (self.spent - spent),
            "samples": self.samples[first:],
        }


def slowness(samples: List[float]) -> float:
    """Mean kernel time of ``samples`` relative to :data:`REFERENCE_S`.

    A phase too short to be sampled is measured with one kernel call.
    """
    if not samples:
        start = clock()
        kernel()
        samples = [clock() - start]
    return statistics.fmean(samples) / REFERENCE_S


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def request_probe(workload_name: str, sampler: SpeedSampler):
    """The request-latency probe a serve run carries; ``None`` for the others.

    It reads the sampler's clock, so the kernel's time never counts as
    request latency.
    """
    from spans import RequestLatency

    return RequestLatency(sampler.now) if workload_name == "serve" else None


def timed_run(workload, base, probe, sampler: SpeedSampler) -> Dict[str, Any]:
    """One measured call on a fresh copy of the set-up session.

    Returns the call's ``outcome``, its ``wall`` seconds (the sampler's own
    time taken out), the kernel ``samples`` taken during it and, with a
    request probe, the probe's ``latency`` summary.
    """
    # Session copies form reference cycles; collect the last call's before
    # this one, so each call starts from the same heap and peak RSS counts
    # one call at a time.
    gc.collect()
    session = copy.deepcopy(base)
    if probe is None:
        call = sampler.timed(workload.run, session)
    else:
        probe.reset()
        with probe:
            call = sampler.timed(workload.run, session)
        probe.finish()
        call["latency"] = probe.summary()
    call["outcome"] = call.pop("result")
    return call
