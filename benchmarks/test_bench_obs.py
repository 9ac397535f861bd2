"""Benchmark: observability overhead on a served campaign fleet.

The ``repro.obs`` contract is that observation is cheap enough to leave on:
request tracing mints one span per submitted request and one per flushed
batch, phase profiling wraps the ALS/LOO hot paths, and the periodic
cycle-barrier snapshot re-ingests server stats — all of it observational,
none of it on the algorithmic path.  This benchmark measures that claim.

One fleet of concurrent campaigns is driven through a
:class:`~repro.serve.server.DecisionServer` twice — bare, and with a full
:class:`~repro.obs.Observability` bundle (tracer + profiler + every-barrier
snapshots) attached — in paired rounds.  Within a round the two fleets take
turns cycle by cycle, so both see the same machine conditions; which one
goes first alternates between rounds.  Results go to
``benchmarks/out/obs.json`` with per-mode best timings, span/metric counts,
each round's ratio and order, and the measured overhead (the median
per-round ratio); full mode asserts the overhead stays under 5%.  Smoke
mode for CI: ``OBS_BENCH_SMOKE=1`` shrinks the fleet and skips the
assertion (tiny runs are dominated by noise).
"""

import gc
import os
import threading
from contextlib import ExitStack, nullcontext

import numpy as np

from repro.datasets.sensorscope import generate_sensorscope
from repro.inference.compressive import CompressiveSensingInference
from repro.mcs import CampaignConfig, RandomSelectionPolicy, SensingTask
from repro.mcs.served import ServedCampaignRunner
from repro.obs import Observability
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.serve import DecisionServer, ServeConfig, drive
from repro.utils.timing import monotonic

from benchmarks.conftest import write_result

N_CELLS = 20
HISTORY = 12
MAX_LOO_CELLS = 12


def _smoke_mode() -> bool:
    return os.environ.get("OBS_BENCH_SMOKE", "") not in ("", "0")


def _campaign(index: int):
    dataset = generate_sensorscope(
        "temperature",
        n_cells=N_CELLS,
        duration_days=1.5,
        cycle_length_hours=1.0,
        seed=0,
    )
    task = SensingTask(
        dataset=dataset,
        requirement=QualityRequirement(epsilon=0.5, p=0.9, metric="mae"),
        inference=CompressiveSensingInference(rank=3, iterations=8, seed=0),
        assessor=LeaveOneOutBayesianAssessor(
            min_observations=3,
            max_loo_cells=MAX_LOO_CELLS,
            history_window=HISTORY,
            rng=np.random.default_rng(0),
        ),
    )
    return task, RandomSelectionPolicy(seed=index)


def _build_fleet(n_campaigns: int, n_cycles: int, obs):
    """One fleet ready to drive: ``(server, runners, drivers)``."""
    campaigns = [_campaign(k) for k in range(n_campaigns)]
    config = CampaignConfig(
        min_cells_per_cycle=3, assess_every=1, history_window=HISTORY
    )
    server = DecisionServer(ServeConfig(max_batch=64, max_wait_ticks=1))
    if obs is not None and obs.tracer is not None:
        server.attach_tracer(obs.tracer)
    runners = [
        ServedCampaignRunner([task], config, server=server) for task, _ in campaigns
    ]
    drivers = [
        runner.launch([policy], n_cycles=n_cycles)
        for runner, (_, policy) in zip(runners, campaigns)
    ]
    return server, runners, drivers


def _total_selected(runners) -> int:
    return sum(runner.results[0].total_selected for runner in runners)


def _run_fleet(n_campaigns: int, n_cycles: int, obs):
    """Drive one fleet; returns (elapsed_seconds, server, total_selected)."""
    server, runners, drivers = _build_fleet(n_campaigns, n_cycles, obs)
    start = monotonic()
    if obs is not None:
        with obs.profiling():
            drive(server, drivers, on_barrier=lambda: obs.on_cycle_barrier(server))
        server.stats.write_to(obs.registry)
        obs.finalize()
    else:
        drive(server, drivers)
    elapsed = monotonic() - start
    return elapsed, server, _total_selected(runners)


class _Baton:
    """Lets one of two sides run at a time; a side's clock runs while it holds it."""

    def __init__(self, first: bool) -> None:
        self._turn = first
        self._finished = set()
        self._changed = threading.Condition()
        self._start = 0.0
        self.seconds = {False: 0.0, True: 0.0}

    def take(self, side: bool) -> None:
        """Wait for this side's turn (or for the other side to finish)."""
        with self._changed:
            self._changed.wait_for(
                lambda: self._turn == side or (not side) in self._finished
            )
        self._start = monotonic()

    def give(self, side: bool, *, finished: bool = False) -> None:
        """Stop this side's clock and hand the turn to the other side."""
        self.seconds[side] += monotonic() - self._start
        with self._changed:
            if finished:
                self._finished.add(side)
            self._turn = not side
            self._changed.notify_all()


def _lockstep_round(n_campaigns: int, n_cycles: int, observed_first: bool):
    """Drive a bare and an observed fleet in turns, one cycle at a time.

    Each fleet runs in its own thread, but only the holder of a
    :class:`_Baton` runs, and the fleets hand it over at every cycle
    barrier.  The two modes are therefore timed through the same stretch of
    machine conditions, a fraction of a second apart, instead of one after
    the other.  ``observed_first`` picks the fleet that takes the first turn
    of every cycle.  Returns ``{observed: (seconds, obs, server, total)}``.
    """
    fleets = {}
    for observed in (False, True):
        obs = (
            Observability(trace=True, profile=True, snapshot_every=1)
            if observed
            else None
        )
        fleets[observed] = (obs, *_build_fleet(n_campaigns, n_cycles, obs))
    baton = _Baton(first=observed_first)
    errors = []

    def run(observed: bool) -> None:
        obs, server, _, drivers = fleets[observed]
        profiling = obs.profiling if obs is not None else nullcontext
        # The profiler is process-wide: it is active during this fleet's
        # turns only, or it would time the other fleet as well.
        active = ExitStack()

        def on_barrier() -> None:
            if obs is not None:
                obs.on_cycle_barrier(server)
            active.close()
            baton.give(observed)
            baton.take(observed)
            active.enter_context(profiling())

        baton.take(observed)
        try:
            with active:
                active.enter_context(profiling())
                drive(server, drivers, on_barrier=on_barrier)
            if obs is not None:
                server.stats.write_to(obs.registry)
                obs.finalize()
        except BaseException as error:  # re-raised in the calling thread
            errors.append(error)
        finally:
            baton.give(observed, finished=True)

    threads = [
        threading.Thread(target=run, args=(observed,), daemon=True)
        for observed in (False, True)
    ]
    # Collect the previous round's garbage now, not inside either timed turn.
    gc.collect()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert not any(thread.is_alive() for thread in threads), "lock-step round hung"
    if errors:
        raise errors[0]
    return {
        observed: (baton.seconds[observed], obs, server, _total_selected(runners))
        for observed, (obs, server, runners, _) in fleets.items()
    }


def _paired_rounds(rounds: int, n_campaigns: int, n_cycles: int):
    """Run ``rounds`` lock-step (bare, observed) pairs, alternating order.

    Pairing keeps both modes exposed to the same machine conditions — a
    background hiccup lands on one *round*, not on one *mode* — and the
    caller takes the median per-round ratio, which a single disturbed round
    cannot move.  Within a round the fleets take turns cycle by cycle (see
    :func:`_lockstep_round`).  Even rounds let the bare fleet go first in
    every cycle, odd rounds the observed one, so neither mode always pays
    for (or profits from) going first.  Returns ``(ratios, orders,
    bare_seconds, bare_artifacts, obs_seconds, obs_artifacts)`` with each
    round's order, per-mode best times and the artifacts of the fastest run
    of each mode.
    """
    ratios = []
    orders = []
    best = {False: (float("inf"), None), True: (float("inf"), None)}
    for index in range(rounds):
        observed_first = index % 2 == 1
        orders.append("observed-first" if observed_first else "bare-first")
        pair = _lockstep_round(n_campaigns, n_cycles, observed_first)
        ratios.append(pair[True][0] / pair[False][0])
        for observed, (seconds, *artifacts) in pair.items():
            if seconds < best[observed][0]:
                best[observed] = (seconds, tuple(artifacts))
    return ratios, orders, *best[False], *best[True]


def test_bench_obs_overhead(benchmark):
    """Record observed-vs-bare fleet timings; assert obs costs < 5% (full mode)."""
    smoke = _smoke_mode()
    n_campaigns = 2 if smoke else 6
    n_cycles = 2 if smoke else 10
    rounds = 1 if smoke else 9

    ratios, orders, bare_seconds, (_, bare_server, bare_total), obs_seconds, (
        obs,
        obs_server,
        obs_total,
    ) = _paired_rounds(rounds, n_campaigns, n_cycles)

    # The runs compute the same thing: obs perturbs nothing.
    assert obs_total == bare_total
    assert (
        obs_server.stats.deterministic_dict() == bare_server.stats.deterministic_dict()
    )

    overhead = sorted(ratios)[len(ratios) // 2] - 1.0
    requests = sum(
        endpoint.requests for endpoint in obs_server.stats.endpoints.values()
    )
    rows = [
        {
            "mode": "bare",
            "campaigns": n_campaigns,
            "cycles": n_cycles,
            "rounds": rounds,
            "seconds": round(bare_seconds, 4),
            "smoke": smoke,
        },
        {
            "mode": "observed",
            "campaigns": n_campaigns,
            "cycles": n_cycles,
            "rounds": rounds,
            "seconds": round(obs_seconds, 4),
            "overhead_fraction": round(overhead, 4),
            "round_ratios": [round(r, 4) for r in ratios],
            "round_orders": orders,
            "requests": requests,
            "spans": len(obs.tracer.spans),
            "metrics": len(obs.registry),
            "profiled_phases": len(obs.profiler.as_dict()),
            "smoke": smoke,
        },
    ]

    benchmark.pedantic(
        _run_fleet,
        args=(n_campaigns, n_cycles, None),
        rounds=1,
        iterations=1,
    )
    write_result("obs", rows)

    assert obs.tracer.spans, "observed run traced no spans"
    assert obs.profiler.as_dict(), "observed run profiled no phases"
    if not smoke:
        # The acceptance bar: the full bundle (trace + profile + per-barrier
        # snapshots) costs < 5% wall clock on a fleet whose work is dominated
        # by real assessments and completions (measured ~1-2% locally).
        assert overhead < 0.05, f"obs overhead {overhead:.1%} exceeds 5%"
