import numpy as np
import pytest

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
