"""Sensing-dataset substrate.

The paper evaluates on two real datasets, Sensor-Scope (EPFL campus
temperature & humidity) and U-Air (Beijing PM2.5).  Neither is available
offline, so this subpackage provides synthetic substitutes that preserve the
properties the cell-selection problem depends on — spatial smoothness,
temporal (diurnal + autoregressive) correlation, low effective rank, and
matched scale (number of cells, cycle length, duration, mean and standard
deviation from Table 1 of the paper).  Each generator's module docstring
(:mod:`~repro.datasets.sensorscope`, :mod:`~repro.datasets.uair`) gives its
calibration targets and substitution rationale.

* :class:`~repro.datasets.base.SensingDataset` — the in-memory dataset
  container (data matrix, cell coordinates, metadata, train/test split).
* :mod:`~repro.datasets.spatial` / :mod:`~repro.datasets.temporal` — the
  correlated-field building blocks.
* :func:`~repro.datasets.sensorscope.generate_sensorscope` — temperature and
  humidity at Sensor-Scope scale.
* :func:`~repro.datasets.uair.generate_uair` — PM2.5 at U-Air scale.
* :mod:`~repro.datasets.aqi` — the six-category AQI classification used by
  the PM2.5 task.
"""

from repro.datasets.base import SensingDataset
from repro.datasets.sensorscope import generate_sensorscope
from repro.datasets.uair import generate_uair
from repro.datasets.aqi import AQI_BREAKPOINTS, aqi_category, aqi_category_name
from repro.datasets.spatial import grid_coordinates, sample_spatial_field, squared_exponential_kernel
from repro.datasets.temporal import ar1_series, diurnal_profile

__all__ = [
    "SensingDataset",
    "generate_sensorscope",
    "generate_uair",
    "AQI_BREAKPOINTS",
    "aqi_category",
    "aqi_category_name",
    "grid_coordinates",
    "sample_spatial_field",
    "squared_exponential_kernel",
    "ar1_series",
    "diurnal_profile",
]
