"""Synthetic hourly series with injected extreme events.

The base signal is a yearly seasonal level plus a dominant daily sinusoid,
a slow depletion trend, and AR(1) noise. Extremes are spikes at
Poisson-timed events whose magnitudes are GEV-distributed; each spike ramps
up over a few hours and decays exponentially, mimicking storm inflow.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .distributions import GevParams, sample_gev
from .errors import InvalidInputError
from .series import HOUR, RawSeries

BASE_LEVEL = 1000.0
YEARLY_AMPLITUDE = 50.0
DAILY_AMPLITUDE = 5.0
DEPLETION_PER_HOUR = 0.002
NOISE_STD = 0.02
NOISE_PHI = 0.9
SPIKE_RISE_HOURS = 3
SPIKE_DECAY_HOURS = 48.0
SPIKE_LOCATION = 30.0
SPIKE_SCALE = 10.0
HOURS_PER_YEAR = 8766.0
EPOCH_START = 1262304000  # 2010-01-01T00:00:00Z


def generate(seed: int, length: int, spike_rate: float = 0.0,
             spike_shape: float = 0.2) -> tuple[RawSeries, np.ndarray]:
    """Return (series, spike_onset_indices), deterministic per seed."""
    if seed < 0:
        raise InvalidInputError("seed must be non-negative")
    if length < 2:
        raise InvalidInputError("length must be >= 2")
    # each test is written to fail on NaN
    if not 0 <= spike_rate < 1:
        raise InvalidInputError("spike_rate must lie in [0, 1)")
    if not math.isfinite(spike_shape):
        raise InvalidInputError("spike_shape must be finite")
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    base = (BASE_LEVEL
            + YEARLY_AMPLITUDE * np.sin(2 * np.pi * t / HOURS_PER_YEAR)
            + DAILY_AMPLITUDE * np.sin(2 * np.pi * t / 24.0)
            - DEPLETION_PER_HOUR * t)
    innovations = rng.normal(0.0, NOISE_STD, size=length)
    # AR(1) from 0: the same double products and sums as a numpy-scalar loop
    noise = itertools.accumulate(innovations[1:].tolist(),
                                 lambda prev, e: NOISE_PHI * prev + e, initial=0.0)
    values = base + np.fromiter(noise, np.float64, length)
    if spike_rate > 0:
        onsets = np.flatnonzero(rng.uniform(size=length) < spike_rate)
    else:
        onsets = np.array([], dtype=np.int64)
    gev = GevParams(SPIKE_LOCATION, SPIKE_SCALE, spike_shape)
    # a spike's shape by hours since its onset; one at index i adds the
    # first length - i hours of it
    span = np.arange(length)
    response = np.where(
        span < SPIKE_RISE_HOURS,
        (span + 1) / SPIKE_RISE_HOURS,
        np.exp(-(span - SPIKE_RISE_HOURS + 1) / SPIKE_DECAY_HOURS))
    for onset in onsets:
        magnitude = float(sample_gev(gev, 1, rng)[0])
        values[onset:] += magnitude * response[:length - onset]
    timestamps = EPOCH_START + HOUR * np.arange(length, dtype=np.int64)
    return RawSeries("synth", timestamps, values), onsets
