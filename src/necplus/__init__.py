"""Extreme-adaptive multi-step time series forecasting.

Three specialized LSTM forecasters (a normal-value regressor, an
extreme-value regressor, and a per-step classifier that gates between
them), fed by a standardized-difference transform and a Gaussian-mixture
density indicator.
"""

from .engine import ForecastBundle, NecConfig, ModelSpec, predict, train_nec
from .series import (
    RawSeries,
    StandardizedSeries,
    difference_standardize,
    fill_gaps,
    invert_transform,
    label_extremes,
)

__version__ = "0.1.0"

__all__ = [
    "ForecastBundle", "NecConfig", "ModelSpec", "predict", "train_nec",
    "RawSeries", "StandardizedSeries",
    "difference_standardize", "fill_gaps", "invert_transform",
    "label_extremes", "__version__",
]
