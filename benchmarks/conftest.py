"""Shared helpers for the benchmark suite.

Every paper table/figure has a benchmark that regenerates it at the SMALL
experiment scale (see ``repro.experiments.config``); the regenerated rows
are also written to ``benchmarks/results/`` so the numbers quoted in the
README's Performance section can be re-inspected after a run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, rows) -> Path:
    """Persist experiment rows (list of dicts) as JSON under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(rows, indent=2, default=str), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
