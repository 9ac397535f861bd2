"""The traced run: per-layer metrics, and the checks that tracing changes nothing.

After a warm-up call, the workload runs twice on copies of one set-up
session: once untraced (the reference, which also gives the untraced
end-to-end figures and the tracing overhead) and once with layer spans
recorded from :mod:`spans`, the server's queue wait measured from outside,
and the program's own :class:`repro.obs.Profiler` active.  Both runs must give the
same results bit for bit and the same exact counts; the outside span
totals must contain the profiler's ALS and LOO phases.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Tuple

from measure import OUT, SpeedSampler, percentile, request_probe, slowness, timed_run
from spans import AlsTally, QueueWait, SpanRecorder, coverage, layer_targets, summarize, to_chrome

SERVE_KINDS = ("select", "assess", "complete", "learn")
#: Phases of ``repro.obs.profile`` that nest inside the outside spans.
ALS_PHASES = ("als.solve", "als.solve_stacked")
LOO_PHASE = "loo.assess"


def _inference_busy(spans) -> float:
    """Seconds inside any ``inference.*`` span that has no ``inference.*`` ancestor."""
    total = 0.0
    for span in spans:
        if span.stage != "run" or not span.name.startswith("inference."):
            continue
        parent = span.parent
        while parent >= 0 and not spans[parent].name.startswith("inference."):
            parent = spans[parent].parent
        if parent < 0:
            total += span.duration
    return total


def _serve_metrics(outcome, waits: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    stats = outcome.extras.get("stats")
    journal = outcome.extras.get("journal")
    metrics: Dict[str, Tuple[float, str]] = {}
    for kind in SERVE_KINDS:
        endpoint = stats.endpoints.get(kind) if stats is not None else None
        batches = endpoint.batches if endpoint is not None else 0
        metrics[f"serve.{kind}.requests"] = (endpoint.requests if endpoint else 0, "count")
        metrics[f"serve.{kind}.batches"] = (batches, "count")
        metrics[f"serve.{kind}.occupancy"] = (
            endpoint.batched_requests / batches if batches else 0.0,
            "req/batch",
        )
        metrics[f"serve.{kind}.handler_s"] = (endpoint.seconds if endpoint else 0.0, "s")
        metrics[f"serve.{kind}.queue_wait_s"] = (waits.get(kind, 0.0), "s")
    hits = stats.cache_hits if stats is not None else 0
    lookups = hits + (stats.cache_misses if stats is not None else 0)
    metrics["serve.cache.lookups"] = (lookups, "count")
    metrics["serve.cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    metrics["serve.journal.records"] = (len(journal.events) if journal is not None else 0, "count")
    learners = list(stats.learners.values()) if stats is not None else []
    metrics["learner.publishes"] = (
        sum(int(t["weights"]["publishes"]) for t in learners),
        "count",
    )
    metrics["learner.staleness_versions"] = (
        statistics.fmean(float(t["weights"]["mean_versions_behind"]) for t in learners)
        if learners
        else 0.0,
        "versions",
    )
    return metrics


def _end_to_end_figures(workload, reference: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """The untraced reference call's seed-dependent end-to-end figures.

    Rates and latencies are at the reference machine speed, like the
    untraced run's ``selections_per_s``.
    """
    outcome = reference["outcome"]
    speed = slowness(reference["samples"])
    rate = outcome.work / reference["wall"] * speed
    quality = outcome.quality
    samples = reference.get("latency", {}).get("samples", [])

    def latency_ms(q: float) -> float:
        return percentile(samples, q) * 1e3 / speed if samples else 0.0

    rates = {"train.steps_per_s": 0.0, "campaign_cycles_per_s": 0.0, workload.rate_metric: rate}
    return {
        "train.steps_per_s": (rates["train.steps_per_s"], "1/s"),
        "train.episode_reward": (quality.get("train.episode_reward", 0.0), "reward"),
        "campaign_cycles_per_s": (rates["campaign_cycles_per_s"], "1/s"),
        "cells_per_cycle": (quality.get("cells_per_cycle", 0.0), "cells"),
        "satisfied_fraction": (quality.get("satisfied_fraction", 0.0), "ratio"),
        "drcell.cell_reduction": (quality.get("drcell.cell_reduction", 0.0), "ratio"),
        "request_p50_ms": (latency_ms(50), "ms"),
        "request_p99_ms": (latency_ms(99), "ms"),
        "request_samples": (len(samples), "count"),
    }


def run_traced(args, workload) -> Dict[str, Any]:
    from repro.obs import Profiler, validate_chrome_trace

    recorder = SpanRecorder(layer_targets())
    recorder.stage = "setup"
    with recorder:
        base = workload.setup(args.seed)

    # A warm-up call first, so neither measured call pays one-time costs.
    # Spans and the profiler read the plain clock, so their times include
    # the speed sampler's ticks (about 2%); the overhead ratio does not.
    sampler = SpeedSampler()
    probe = request_probe(workload.name, sampler)
    profiler = Profiler()
    with sampler:
        warmup = timed_run(workload, base, probe, sampler)
        with AlsTally() as reference_als:
            reference = timed_run(workload, base, probe, sampler)
        recorder.stage = "run"
        with AlsTally() as traced_als, QueueWait() as waits, recorder, profiler.activate():
            traced = timed_run(workload, base, None, sampler)
    outcome = traced["outcome"]
    start, end = traced["start"], traced["end"]
    overhead = (traced["wall"] / slowness(traced["samples"])) / (
        reference["wall"] / slowness(reference["samples"])
    )

    untraced = [warmup, reference]
    problems: List[str] = [p for run in untraced for p in run["outcome"].problems]
    problems += outcome.problems
    if warmup["outcome"].fingerprint != reference["outcome"].fingerprint:
        problems.append("repeated runs at one seed gave different results")
    if outcome.fingerprint != reference["outcome"].fingerprint:
        problems.append("traced results differ from untraced results")
    if traced_als.counts != reference_als.counts:
        problems.append(f"ALS counts differ: {traced_als.counts} vs {reference_als.counts}")
    lost = sum(run["latency"]["failed"] for run in untraced if "latency" in run)
    if lost:
        problems.append(f"{lost} requests failed or never resolved")

    spans = recorder.spans
    trace = to_chrome(spans)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    trace_path.write_text(json.dumps(trace), encoding="utf-8")
    try:
        validate_chrome_trace(json.loads(trace_path.read_text(encoding="utf-8")))
    except ValueError as error:
        problems.append(f"span trace is not valid Chrome trace JSON: {error}")

    rows = summarize(spans, ("run",))
    training_rows = summarize(spans, ("setup", "run"))

    def span(name: str, field: str, *, table=rows) -> float:
        return table.get(name, {}).get(field, 0)

    # Cross-check against the program's own phase timers: each profiled
    # phase runs inside one outside span, so it can count no more time and
    # must count exactly as many calls.
    phases = profiler.as_dict()
    als_phase_s = sum(profiler.seconds(name) for name in ALS_PHASES)
    als_phase_calls = sum(profiler.count(name) for name in ALS_PHASES)
    inference_busy = _inference_busy(spans)
    assess_busy = span("quality.assess_many", "busy_s")
    if als_phase_calls != traced_als.counts["solves"]:
        problems.append(f"{als_phase_calls} ALS phases for {traced_als.counts['solves']} solves")
    if profiler.count(LOO_PHASE) != span("quality.assess_many", "calls"):
        problems.append(
            f"{profiler.count(LOO_PHASE)} {LOO_PHASE} phases for "
            f"{span('quality.assess_many', 'calls')} assess_many calls"
        )
    if als_phase_s > inference_busy * (1 + 1e-6) + 1e-6:
        problems.append(f"ALS phases {als_phase_s:.6f}s exceed inference spans {inference_busy:.6f}s")
    if profiler.seconds(LOO_PHASE) > assess_busy * (1 + 1e-6) + 1e-6:
        problems.append("loo.assess phases exceed quality.assess_many spans")

    metrics: Dict[str, Tuple[float, str]] = {
        "core.train.calls": (span("core.train", "calls", table=training_rows), "count"),
        "core.train.busy_s": (span("core.train", "busy_s", table=training_rows), "s"),
        "mcs.env_step.self_s": (span("mcs.env_step", "self_s"), "s"),
        "mcs.campaign.self_s": (span("mcs.campaign", "self_s"), "s"),
        "mcs.qbc.select.calls": (span("mcs.qbc.select", "calls"), "count"),
        "mcs.qbc.select.self_s": (span("mcs.qbc.select", "self_s"), "s"),
        "inference.complete.calls": (span("inference.complete", "calls"), "count"),
        "inference.complete.busy_s": (span("inference.complete", "busy_s"), "s"),
        "inference.complete_batch.calls": (span("inference.complete_batch", "calls"), "count"),
        "inference.complete_batch.matrices": (span("inference.complete_batch", "items"), "count"),
        "inference.complete_batch.busy_s": (span("inference.complete_batch", "busy_s"), "s"),
        **{f"inference.als.{name}": (value, "count") for name, value in traced_als.counts.items()},
        "quality.assess_many.calls": (span("quality.assess_many", "calls"), "count"),
        "quality.assess_many.slots": (span("quality.assess_many", "items"), "count"),
        "quality.assess_many.self_s": (span("quality.assess_many", "self_s"), "s"),
        "rl.select_actions.busy_s": (span("rl.select_actions", "busy_s"), "s"),
        "rl.learn.calls": (span("rl.learn", "calls"), "count"),
        "rl.learn.busy_s": (span("rl.learn", "busy_s"), "s"),
        "nn.train_on_batch.busy_s": (span("nn.train_on_batch", "busy_s"), "s"),
        "rl.replay.sample.busy_s": (span("rl.replay.sample", "busy_s"), "s"),
        "serve.pump.self_s": (span("serve.pump", "self_s"), "s"),
        "serve.journal.busy_s": (span("serve.journal", "busy_s"), "s"),
        "learner.ingest.busy_s": (span("learner.ingest", "busy_s"), "s"),
        **_serve_metrics(outcome, waits.seconds),
        "trace.coverage": (coverage(spans, start, end), "ratio"),
        "trace.overhead": (overhead, "ratio"),
        "trace.als_phase_share": (als_phase_s / inference_busy if inference_busy else 0.0, "ratio"),
        "trace.loo_phase_share": (
            profiler.seconds(LOO_PHASE) / assess_busy if assess_busy else 0.0,
            "ratio",
        ),
        **_end_to_end_figures(workload, reference),
    }
    attempted = outcome.attempted + sum(run["outcome"].attempted for run in untraced)
    failed = outcome.failed + sum(run["outcome"].failed for run in untraced) + lost
    metrics["failed_share"] = (failed / attempted, "ratio")
    return {
        "session": base,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "trace_file": str(trace_path.relative_to(OUT.parent.parent)),
            "spans": len(spans),
            "profiler_phases": phases,
            "reference_wall_s": reference["wall"],
            "traced_wall_s": traced["wall"],
        },
    }
