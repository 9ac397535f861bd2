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
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, List, Tuple

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
OUT_DIR = Path(__file__).parent / "out"


def write_result(name: str, rows) -> Path:
    """Persist experiment rows (list of dicts) as JSON under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(rows, indent=2, default=str), encoding="utf-8")
    return path


@dataclass
class PairedRounds:
    """What :func:`paired_rounds` measured, one entry per round."""

    first: List[Any] = field(default_factory=list)
    second: List[Any] = field(default_factory=list)
    first_seconds: List[float] = field(default_factory=list)
    second_seconds: List[float] = field(default_factory=list)
    #: Which callable ran first in each round: ``"first"`` or ``"second"``.
    orders: List[str] = field(default_factory=list)

    @property
    def ratios(self) -> List[float]:
        """Per-round ``first seconds / second seconds`` (a speedup of ``second``)."""
        return [a / b for a, b in zip(self.first_seconds, self.second_seconds)]

    @property
    def median_ratio(self) -> float:
        return median(self.ratios)


def paired_rounds(
    first: Callable[[], Tuple[Any, float]],
    second: Callable[[], Tuple[Any, float]],
    rounds: int,
) -> PairedRounds:
    """Time two callables in ``rounds`` paired rounds, alternating the order.

    Each callable returns ``(output, seconds)``.  Round ``i`` runs ``first``
    then ``second`` for even ``i`` and the reverse for odd ``i``, so neither
    side always pays for a cold cache or rides on a warm one.  A ratio gate
    then takes :attr:`PairedRounds.median_ratio` instead of one sample.
    """
    measured = PairedRounds()
    for index in range(rounds):
        order = ("first", "second") if index % 2 == 0 else ("second", "first")
        for side in order:
            output, seconds = (first if side == "first" else second)()
            getattr(measured, side).append(output)
            getattr(measured, f"{side}_seconds").append(seconds)
        measured.orders.append(order[0])
    return measured


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
