"""Shared helpers for the benchmark suite.

Every paper table/figure has a benchmark that regenerates it at the SMALL
experiment scale (see ``repro.experiments.config``).  The regenerated rows
are written to the git-ignored ``benchmarks/out/`` so a test run leaves the
checkout clean.  The committed baselines in ``benchmarks/results/`` (the
numbers quoted in the README's Performance section) change only on purpose:
``cp benchmarks/out/<name>.json benchmarks/results/`` refreshes one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
OUT_DIR = Path(__file__).parent / "out"


def write_result(name: str, rows) -> Path:
    """Persist experiment rows (list of dicts) as JSON under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(rows, indent=2, default=str), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
