"""Table 1: statistics of the two evaluation datasets.

The paper's Table 1 lists, for Sensor-Scope and U-Air: city, data type, cell
size, number of cells, cycle length, duration, error metric, and the mean ±
standard deviation of the readings.  This experiment regenerates the same
rows from the synthetic datasets so their calibration (see
:mod:`repro.datasets`) can be checked at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.config import ExperimentScale, FULL_SCALE


@dataclass(frozen=True)
class Table1Row:
    """One dataset's row of Table 1."""

    dataset: str
    city: str
    data: str
    cell_size: str
    n_cells: int
    cycle_length_h: float
    duration_d: float
    error_metric: str
    mean: float
    std: float

    def as_dict(self) -> Dict[str, object]:
        """Dictionary form used by the reporting helpers."""
        return {
            "dataset": self.dataset,
            "city": self.city,
            "data": self.data,
            "cell_size": self.cell_size,
            "n_cells": self.n_cells,
            "cycle_length_h": self.cycle_length_h,
            "duration_d": round(self.duration_d, 2),
            "error_metric": self.error_metric,
            "mean": round(self.mean, 2),
            "std": round(self.std, 2),
        }


def run_table1(scale: Optional[ExperimentScale] = None, *, seed: int = 0) -> List[Table1Row]:
    """Regenerate Table 1 from the synthetic datasets at ``scale`` (FULL by default)."""
    scale = scale or FULL_SCALE
    temperature = scale.sensorscope_dataset("temperature", seed=seed)
    humidity = scale.sensorscope_dataset("humidity", seed=seed)
    pm25 = scale.uair_dataset(seed=seed)

    rows = [
        Table1Row(
            dataset="Sensor-Scope (synthetic)",
            city=temperature.city,
            data="temperature",
            cell_size=temperature.cell_size,
            n_cells=temperature.n_cells,
            cycle_length_h=temperature.cycle_length_hours,
            duration_d=temperature.duration_days,
            error_metric="mean absolute error",
            mean=temperature.mean(),
            std=temperature.std(),
        ),
        Table1Row(
            dataset="Sensor-Scope (synthetic)",
            city=humidity.city,
            data="humidity",
            cell_size=humidity.cell_size,
            n_cells=humidity.n_cells,
            cycle_length_h=humidity.cycle_length_hours,
            duration_d=humidity.duration_days,
            error_metric="mean absolute error",
            mean=humidity.mean(),
            std=humidity.std(),
        ),
        Table1Row(
            dataset="U-Air (synthetic)",
            city=pm25.city,
            data="PM2.5",
            cell_size=pm25.cell_size,
            n_cells=pm25.n_cells,
            cycle_length_h=pm25.cycle_length_hours,
            duration_d=pm25.duration_days,
            error_metric="classification error",
            mean=pm25.mean(),
            std=pm25.std(),
        ),
    ]
    return rows
