"""Span recording around the public functions of each layer, from outside ``src/``.

:class:`SpanRecorder` replaces chosen methods at class level with thin
wrappers that record one span per call — name, start, end, parent — in
memory, and puts the originals back when the ``with`` block ends.  The
program itself is not edited; the wrappers call straight through, so the
results of a traced run equal an untraced run's bit for bit (the harness
checks this).

A layer's *self* time is its spans' durations minus the time covered by
their direct child spans; its *busy* time is the duration of its outermost
spans only, so a layer that calls itself is not counted twice.

The module also holds the outside probes that patch the same way but record
no spans: request latency (:class:`RequestLatency`), server queue wait
(:class:`QueueWait`) and the ALS solver's own counters (:class:`AlsTally`).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from measure import clock


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    #: Work items the call carried (matrices in a batch, slots assessed, ...).
    items: int
    #: Which part of the run recorded it: ``"setup"`` or ``"run"``.
    stage: str

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``(class, method name, span name, item counter)``; the counter maps the
#: call's positional arguments to the number of work items, or is ``None``.
Target = Tuple[type, str, str, Optional[Callable[[tuple], int]]]


def _count_first(args: tuple) -> int:
    return len(args[1])


def layer_targets() -> List[Target]:
    """The public functions the traced run wraps, one layer name each."""
    from repro.core.trainer import DRCellTrainer
    from repro.inference.base import InferenceAlgorithm
    from repro.inference.compressive import CompressiveSensingInference
    from repro.learner.core import Learner
    from repro.mcs.campaign import BatchedCampaignRunner
    from repro.mcs.environment import SparseMCSEnvironment
    from repro.mcs.qbc import QBCSelectionPolicy
    from repro.nn.network import QNetworkBase
    from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
    from repro.rl.dqn import DQNAgent
    from repro.rl.replay import ArrayReplayBuffer
    from repro.serve.journal import RequestJournal
    from repro.serve.server import DecisionServer

    return [
        (DRCellTrainer, "train", "core.train", None),
        (DRCellTrainer, "train_lockstep", "core.train", None),
        (SparseMCSEnvironment, "step", "mcs.env_step", None),
        (BatchedCampaignRunner, "run", "mcs.campaign", None),
        (QBCSelectionPolicy, "select_cell", "mcs.qbc.select", None),
        (InferenceAlgorithm, "complete", "inference.complete", None),
        (InferenceAlgorithm, "complete_batch", "inference.complete_batch", _count_first),
        (CompressiveSensingInference, "complete_batch", "inference.complete_batch", _count_first),
        (LeaveOneOutBayesianAssessor, "assess_many", "quality.assess_many", _count_first),
        (DQNAgent, "select_action", "rl.select_actions", None),
        (DQNAgent, "select_actions", "rl.select_actions", _count_first),
        (DQNAgent, "learn", "rl.learn", None),
        (DQNAgent, "learn_fused", "rl.learn", None),
        (ArrayReplayBuffer, "sample_arrays", "rl.replay.sample", None),
        (ArrayReplayBuffer, "sample_indices", "rl.replay.sample", None),
        (QNetworkBase, "train_on_batch", "nn.train_on_batch", None),
        (DecisionServer, "run_pending", "serve.pump", None),
        (Learner, "ingest", "learner.ingest", _count_first),
        (RequestJournal, "record_request", "serve.journal", None),
        (RequestJournal, "record_flush", "serve.journal", None),
        (RequestJournal, "record_response", "serve.journal", None),
    ]


class Patch:
    """Replace ``cls.attr`` with ``make(original)`` for each entry while active.

    The originals go back on exit, also when the block raises; an attribute
    the class only inherited is deleted again rather than pinned.
    """

    def __init__(self, entries: Sequence[Tuple[type, str, Callable[[Callable], Callable]]]) -> None:
        self.entries = list(entries)
        self._saved: List[Tuple[type, str, Any]] = []

    def __enter__(self) -> "Patch":
        for cls, attr, make in self.entries:
            self._saved.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, make(getattr(cls, attr)))
        return self

    def __exit__(self, *exc_info: object) -> bool:
        while self._saved:
            cls, attr, original = self._saved.pop()
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        return False


class SpanRecorder(Patch):
    """Records spans around ``targets`` while active (a context manager)."""

    def __init__(self, targets: Sequence[Target]) -> None:
        super().__init__(
            [(cls, attr, functools.partial(self._wrap, name=name, counter=counter))
             for cls, attr, name, counter in targets]
        )
        self.spans: List[Span] = []
        self.stage = "run"
        self._stack: List[int] = []

    def _wrap(self, function: Callable, *, name: str, counter) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(
                Span(name, clock(), 0.0, stack[-1] if stack else -1,
                     counter(args) if counter else 1, self.stage)
            )
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()

        return wrapper


def summarize(spans: Sequence[Span], stages: Sequence[str] = ("run",)) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``items``, ``busy_s`` and ``self_s``."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    out: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span.stage not in stages:
            continue
        row = out.setdefault(span.name, {"calls": 0, "items": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["items"] += span.items
        row["self_s"] += span.duration - child_time[index]
        if not _has_ancestor(spans, index, span.name):
            row["busy_s"] += span.duration
    return out


def _has_ancestor(spans: Sequence[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def coverage(spans: Sequence[Span], start: float, end: float, stage: str = "run") -> float:
    """Share of ``[start, end]`` covered by top-level spans of ``stage``."""
    covered = sum(
        min(span.end, end) - max(span.start, start)
        for span in spans
        if span.parent < 0 and span.stage == stage and span.end > start and span.start < end
    )
    return covered / (end - start) if end > start else 0.0


def to_chrome(spans: Sequence[Span]) -> Dict[str, Any]:
    """The spans as a Chrome trace-event object (``ph: "X"``, microseconds)."""
    if not spans:
        return {"traceEvents": []}
    origin = min(span.start for span in spans)
    pid = os.getpid()
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": 1,
            "args": {"id": index, "parent": span.parent, "items": span.items, "stage": span.stage},
        }
        for index, span in enumerate(spans)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class RequestLatency(Patch):
    """Request latency of a :class:`~repro.serve.server.DecisionServer`, from outside.

    A request's latency runs from the start of the endpoint call that
    submitted it to the end of the outermost public server call (an endpoint
    or a pump) during which its future resolved.  This includes queue wait,
    unlike the server's own per-request figure, which copies the batch
    handler's duration onto every request in the batch.
    """

    ENDPOINTS = ("select_cell", "assess_quality", "complete_matrix", "learn_batch")
    PUMPS = ("run_pending", "flush", "tick")

    def __init__(self, now: Callable[[], float] = clock) -> None:
        from repro.serve.server import DecisionServer

        self.now = now
        super().__init__(
            [(DecisionServer, name, self._endpoint) for name in self.ENDPOINTS]
            + [(DecisionServer, name, self._pump) for name in self.PUMPS]
        )
        self.reset()

    def reset(self) -> None:
        self.pending: List[Tuple[float, Any]] = []
        self.samples: List[float] = []
        self.failed = 0
        self._depth = 0

    def _endpoint(self, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = self.now()
            self._depth += 1
            try:
                future = function(*args, **kwargs)
            finally:
                self._depth -= 1
            self.pending.append((start, future))
            if self._depth == 0:
                self._settle()
            return future

        return wrapper

    def _pump(self, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self._depth += 1
            try:
                return function(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self._settle()

        return wrapper

    def _settle(self) -> None:
        now = self.now()
        waiting = []
        for start, future in self.pending:
            if not future.done:
                waiting.append((start, future))
                continue
            self.samples.append(now - start)
            try:
                future.result()
            except Exception:  # a failed request counts as failed, not as lost
                self.failed += 1
        self.pending = waiting

    def finish(self) -> None:
        """Count the requests that never resolved as failed."""
        self.failed += len(self.pending)
        self.pending = []

    def summary(self) -> Dict[str, Any]:
        return {"failed": self.failed, "samples": list(self.samples)}



class QueueWait(Patch):
    """Per request kind: seconds from ``MicroBatcher.submit`` to the ``drain`` that took it."""

    def __init__(self) -> None:
        from repro.serve.batcher import MicroBatcher

        self.seconds: Dict[str, float] = {}
        self._submitted: Dict[int, float] = {}
        super().__init__(
            [(MicroBatcher, "submit", self._submit), (MicroBatcher, "drain", self._drain)]
        )

    def _submit(self, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = clock()
            request = function(*args, **kwargs)
            self._submitted[request.sequence] = start
            return request

        return wrapper

    def _drain(self, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            now = clock()
            requests = function(*args, **kwargs)
            for request in requests:
                waited = now - self._submitted.pop(request.sequence, now)
                self.seconds[request.kind] = self.seconds.get(request.kind, 0.0) + waited
            return requests

        return wrapper



class AlsTally(Patch):
    """Sums the ALS solver's own counters (``SolverStats.record``) over all instances."""

    FIELDS = ("solves", "matrices", "sweeps_run", "sweeps_saved")

    def __init__(self) -> None:
        from repro.inference.backends.base import SolverStats

        self.counts = dict.fromkeys(self.FIELDS, 0)
        super().__init__([(SolverStats, "record", self._record)])

    def _record(self, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(stats, **kwargs):
            before = [getattr(stats, name) for name in self.FIELDS]
            function(stats, **kwargs)
            for name, old in zip(self.FIELDS, before):
                self.counts[name] += getattr(stats, name) - old

        return wrapper
