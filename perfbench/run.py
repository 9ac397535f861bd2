"""The repository's benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload evaluate --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload untraced for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` runs it after a warm-up once untraced and
once with layer spans recorded, and prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with provenance, goes to ``perfbench/out/`` (git-ignored);
the traced run also writes its spans there as Chrome trace JSON.

See ``perfbench/README.md`` for why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: One BLAS/OpenMP thread: the workloads are single-process and closed-loop,
#: and on a small shared box multi-threaded BLAS on these small matrices
#: adds far more run-to-run spread than speed.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-ups per run, at least, and their least total seconds; ``setup_s`` is
#: the median of their calibrated times.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
#: Measured calls per run, at least, however short ``--seconds`` is.
MIN_RUNS = 3


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train-seq", "evaluate", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- provenance ---------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args: argparse.Namespace, workload: Any, spec: Dict[str, Any]) -> Dict[str, Any]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "host": platform.node(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": {"name": workload.name, "description": workload.description, "scenario": spec},
    }


# -- the two modes ------------------------------------------------------------------------


def run_untraced(args, workload) -> Dict[str, Any]:
    from measure import SpeedSampler, clock, peak_rss_mb, percentile, request_probe, slowness, timed_run

    sampler = SpeedSampler()
    setups: List[Dict[str, Any]] = []
    runs: List[Dict[str, Any]] = []
    with sampler:
        phase_start = clock()
        while len(setups) < SETUP_REPEATS or clock() - phase_start < SETUP_MIN_S:
            base = None
            gc.collect()  # the previous set-up's session, so peak RSS counts one
            # A set-up can be shorter than the timer interval, so each one
            # is calibrated by a kernel sample taken just before it, plus
            # any the timer takes during it.
            lead = sampler.sample()
            setups.append(sampler.timed(workload.setup, args.seed))
            setups[-1]["slowness"] = slowness([lead, *setups[-1]["samples"]])
            base = setups[-1].pop("result")
        probe = request_probe(workload.name, sampler)
        deadline = clock() + args.seconds
        while len(runs) < MIN_RUNS or clock() < deadline:
            runs.append(timed_run(workload, base, probe, sampler))
            runs[-1]["outcome"].extras.clear()  # hold one call's memory at a time
    run_slowness = slowness([x for run in runs for x in run["samples"]])
    setup_s = statistics.median(setup["wall"] / setup["slowness"] for setup in setups)

    first = runs[0]["outcome"]
    problems = [p for run in runs for p in run["outcome"].problems]
    for run in runs[1:]:
        if run["outcome"].fingerprint != first.fingerprint:
            problems.append("repeated runs at one seed gave different results")
            break
    attempted = sum(run["outcome"].attempted for run in runs)
    failed = sum(run["outcome"].failed for run in runs)
    if probe is not None:
        # Requests are already among the attempted operations; the probe
        # adds those that errored or never resolved.
        failed += sum(run["latency"]["failed"] for run in runs)

    wall = sum(run["wall"] for run in runs)
    selections_per_s = sum(run["outcome"].selections for run in runs) / wall
    metrics = {
        "setup_s": (setup_s, "s"),
        "selections_per_s": (selections_per_s * run_slowness, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "raw_setup_s": statistics.median(setup["wall"] for setup in setups),
        "raw_selections_per_s": selections_per_s,
        workload.rate_metric: sum(run["outcome"].work for run in runs) / wall,
        "setup_slowness": [setup["slowness"] for setup in setups],
        "run_slowness": run_slowness,
        "kernel_samples": len(sampler.samples),
        "kernel_share": sampler.spent / (clock() - phase_start),
        "setups": len(setups),
        "runs": len(runs),
        "setup_s_all": [setup["wall"] for setup in setups],
        "run_s_all": [run["wall"] for run in runs],
        "failed_share": failed / attempted,
        **first.quality,
        **first.counts,
    }
    if probe is not None:
        samples = [s for run in runs for s in run["latency"]["samples"]]
        details.update(
            request_p50_ms=percentile(samples, 50) * 1e3,
            request_p99_ms=percentile(samples, 99) * 1e3,
            request_samples=len(samples),
        )
    return {
        "session": base,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    # Keep the workload and the calibration kernel on one core, so the
    # kernel measures the speed of the core the workload ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        from traced import run_traced

        result = run_traced(args, workload)
    else:
        result = run_untraced(args, workload)

    spec = result.pop("session").spec.to_dict()
    record = {
        "provenance": provenance(args, workload, spec),
        **result,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    from measure import OUT

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
