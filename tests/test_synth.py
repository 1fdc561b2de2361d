import numpy as np
import pytest

from necplus import synth
from necplus.distributions import GevParams, sample_gev
from necplus.errors import InvalidInputError
from necplus.series import HOUR, difference_standardize, label_extremes
from necplus.synth import EPOCH_START, generate


class TestGenerate:
    def test_deterministic_per_seed(self):
        a, onsets_a = generate(7, 3000, spike_rate=0.005)
        b, onsets_b = generate(7, 3000, spike_rate=0.005)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(onsets_a, onsets_b)

    def test_hourly_timestamps_from_epoch(self):
        raw, _ = generate(0, 100)
        assert raw.timestamps[0] == EPOCH_START
        assert np.all(np.diff(raw.timestamps) == HOUR)
        assert len(raw) == 100

    def test_no_spikes_no_onsets(self):
        raw, onsets = generate(1, 5000, spike_rate=0.0)
        assert len(onsets) == 0
        assert not raw.missing.any()

    def test_quiet_series_has_few_extremes(self):
        # without injected spikes the standardized differences should almost
        # never cross the default threshold
        raw, _ = generate(2, 20000, spike_rate=0.0)
        std = difference_standardize(raw)
        labels = label_extremes(std, 1.5)
        assert labels.mean() < 0.001

    def test_spikes_create_extremes(self):
        raw, onsets = generate(3, 20000, spike_rate=0.002)
        assert len(onsets) > 10
        std = difference_standardize(raw)
        labels = label_extremes(std, 1.5)
        assert labels.mean() > 0.001
        # every onset's rise shows up as an extreme jump nearby
        hits = sum(bool(labels[o:o + 3].any())
                   for o in onsets if o + 3 < len(labels))
        assert hits >= 0.9 * len(onsets)

    def test_spike_raises_level_locally(self):
        quiet, _ = generate(4, 2000, spike_rate=0.0)
        spiky, onsets = generate(4, 2000, spike_rate=0.01)
        assert len(onsets) > 0
        o = int(onsets[0])
        assert spiky.values[o + 2] > quiet.values[o + 2] + 5.0

    def test_invalid_arguments(self):
        with pytest.raises(InvalidInputError):
            generate(0, 1)
        with pytest.raises(InvalidInputError):
            generate(0, 100, spike_rate=1.0)
        with pytest.raises(InvalidInputError):
            generate(0, 100, spike_rate=-0.1)
        with pytest.raises(InvalidInputError, match="spike_rate"):
            generate(1, 3000, spike_rate=np.nan)
        for shape in (np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="spike_shape"):
                generate(1, 3000, spike_rate=0.01, spike_shape=shape)
        with pytest.raises(InvalidInputError, match="seed"):
            generate(-1, 100)


def generate_by_onset(seed, length, spike_rate=0.0, spike_shape=0.2):
    """`generate` as it was before it built the spike response once: the
    AR(1) noise a numpy scalar at a time, and each onset's response formed
    over the rest of the series. Frozen here as the reference that
    `generate` must equal bit for bit."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    base = (synth.BASE_LEVEL
            + synth.YEARLY_AMPLITUDE * np.sin(2 * np.pi * t / synth.HOURS_PER_YEAR)
            + synth.DAILY_AMPLITUDE * np.sin(2 * np.pi * t / 24.0)
            - synth.DEPLETION_PER_HOUR * t)
    noise = np.empty(length)
    noise[0] = 0.0
    innovations = rng.normal(0.0, synth.NOISE_STD, size=length)
    for i in range(1, length):
        noise[i] = synth.NOISE_PHI * noise[i - 1] + innovations[i]
    values = base + noise
    if spike_rate > 0:
        onsets = np.flatnonzero(rng.uniform(size=length) < spike_rate)
    else:
        onsets = np.array([], dtype=np.int64)
    gev = GevParams(synth.SPIKE_LOCATION, synth.SPIKE_SCALE, spike_shape)
    for onset in onsets:
        magnitude = float(sample_gev(gev, 1, rng)[0])
        span = np.arange(onset, length) - onset
        response = np.where(
            span < synth.SPIKE_RISE_HOURS,
            (span + 1) / synth.SPIKE_RISE_HOURS,
            np.exp(-(span - synth.SPIKE_RISE_HOURS + 1) / synth.SPIKE_DECAY_HOURS))
        values[onset:] += magnitude * response
    return values, onsets


@pytest.mark.parametrize("seed", [1, 2, 5, 29])
@pytest.mark.parametrize("spike_rate, spike_shape", [
    (0.0, 0.2), (0.01, 0.2), (0.01, -0.3), (0.05, 0.0)])
def test_generate_is_the_per_onset_loop_bit_for_bit(seed, spike_rate, spike_shape):
    raw, onsets = generate(seed, 20000, spike_rate, spike_shape)
    values, want_onsets = generate_by_onset(seed, 20000, spike_rate, spike_shape)
    assert raw.values.tobytes() == values.tobytes()
    np.testing.assert_array_equal(onsets, want_onsets)


def test_an_onset_in_the_last_hours_is_the_per_onset_loop_bit_for_bit():
    # at rate 0.5 onsets fall in each of the last 3 hours, where a spike is
    # still rising when the series ends
    length = 500
    raw, onsets = generate(6, length, spike_rate=0.5)
    assert {length - 3, length - 2, length - 1} <= set(onsets.tolist())
    values, _ = generate_by_onset(6, length, spike_rate=0.5)
    assert raw.values.tobytes() == values.tobytes()
