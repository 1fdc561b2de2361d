import numpy as np
import pytest

from necplus.errors import (
    InvalidInputError,
    SplitInfeasibleError,
    StratificationInfeasibleError,
)
from necplus.sampling import (
    Split,
    SplitSpec,
    draw_samples,
    dump_split_csv,
    make_split,
)


def synthetic_inputs(n=2000, seed=0, extreme_every=97):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    labels = np.zeros(n, dtype=bool)
    labels[::extreme_every] = True
    indicator = np.exp(-values**2)
    return np.column_stack([values, indicator]), labels


class TestMakeSplit:
    def test_no_holdout_all_eligible(self):
        spec = SplitSpec(h=24, f=6, holdout_sections=0)
        split = make_split(500, spec)
        assert split.train_mask.all()
        assert len(split.train_mask) == 500 - 30 + 1

    def test_full_scale_holdout_point_count(self):
        spec = SplitSpec(h=360, f=72, holdout_sections=24,
                         val_ranges=((1000, 6000),),
                         test_ranges=((7000, 12000),), seed=3)
        split = make_split(14000, spec)
        assert sum(b - a for a, b in split.val_sections) == 24 * 72 == 1728
        assert sum(b - a for a, b in split.test_sections) == 1728

    def test_sections_inside_ranges_and_disjoint(self):
        spec = SplitSpec(h=48, f=12, holdout_sections=10,
                         val_ranges=((100, 400), (600, 900)),
                         test_ranges=((1200, 1800),), seed=7)
        split = make_split(2000, spec)
        for sections, ranges in ((split.val_sections, spec.val_ranges),
                                 (split.test_sections, spec.test_ranges)):
            assert len(sections) == 10
            for start, stop in sections:
                assert any(a <= start and stop <= b for a, b in ranges)
            ordered = sorted(sections)
            assert all(s1[1] <= s2[0] for s1, s2 in zip(ordered, ordered[1:]))

    def test_deterministic(self):
        spec = SplitSpec(h=24, f=6, holdout_sections=5,
                         val_ranges=((50, 300),), test_ranges=((400, 800),),
                         seed=11)
        a = make_split(1000, spec)
        b = make_split(1000, spec)
        assert a.val_sections == b.val_sections
        assert a.test_sections == b.test_sections
        np.testing.assert_array_equal(a.train_mask, b.train_mask)

    def test_infeasible_ranges(self):
        spec = SplitSpec(h=24, f=72, holdout_sections=24,
                         val_ranges=((0, 100),), test_ranges=((100, 200),))
        with pytest.raises(SplitInfeasibleError):
            make_split(5000, spec)

    @pytest.mark.parametrize("val_ranges, test_ranges", [
        (((100, 160),), ((100, 160),)),
        (((0, 50), (100, 160)), ((300, 400), (150, 200))),
        (((100, 400),), ((200, 250),)),
    ])
    def test_overlapping_val_and_test_ranges_rejected(self, val_ranges, test_ranges):
        # a test section inside the val range would steer early stopping
        spec = SplitSpec(h=24, f=6, holdout_sections=5, val_ranges=val_ranges,
                         test_ranges=test_ranges)
        (v_lo, v_hi), (t_lo, t_hi) = val_ranges[-1], test_ranges[-1]
        with pytest.raises(SplitInfeasibleError,
                           match=f"val range {v_lo}-{v_hi} overlaps test range "
                                 f"{t_lo}-{t_hi}"):
            make_split(1000, spec)

    def test_touching_val_and_test_ranges_allowed(self):
        # half-open ranges: (0, 100) and (100, 200) share no point
        for val_ranges, test_ranges in ((((0, 100),), ((100, 200),)),
                                        (((100, 200),), ((0, 100),))):
            spec = SplitSpec(h=24, f=6, holdout_sections=5,
                             val_ranges=val_ranges, test_ranges=test_ranges)
            split = make_split(1000, spec)
            val = {i for a, b in split.val_sections for i in range(a, b)}
            test = {i for a, b in split.test_sections for i in range(a, b)}
            assert len(val) == len(test) == 30 and not val & test

    def test_train_windows_never_overlap_holdout(self):
        # exhaustive overlap oracle on a small series
        spec = SplitSpec(h=20, f=5, holdout_sections=4,
                         val_ranges=((100, 300),), test_ranges=((500, 900),),
                         seed=13)
        split = make_split(1000, spec)
        holdout = set()
        for start, stop in (*split.val_sections, *split.test_sections):
            holdout.update(range(start, stop))
        for origin in np.flatnonzero(split.train_mask):
            window = set(range(origin, origin + 25))
            assert not (window & holdout)


class TestDrawSamples:
    def test_os_one_every_target_has_extreme(self):
        features, labels = synthetic_inputs()
        samples = draw_samples(features, labels, h=24, f=6,
                               volume=200, os_ratio=1.0, seed=1)
        assert len(samples) == 200
        assert all(w.target_mask.any() for w in samples)

    def test_os_zero_equals_uniform(self):
        features, labels = synthetic_inputs()
        stratified = draw_samples(features, labels, h=24, f=6,
                                  volume=100, os_ratio=0.0, seed=5)
        rng = np.random.default_rng(5)
        origins = np.arange(len(features) - 30 + 1)
        expected = rng.choice(origins, size=100, replace=True)
        assert stratified.origins.tolist() == expected.tolist()

    def test_fractional_quota_counted_exactly(self):
        features, labels = synthetic_inputs(n=5000)
        samples = draw_samples(features, labels, h=24, f=6,
                               volume=10_000, os_ratio=0.04, seed=9)
        n_extreme = sum(bool(w.target_mask.any()) for w in samples)
        assert n_extreme >= 400

    def test_deterministic(self):
        features, labels = synthetic_inputs()
        a = draw_samples(features, labels, 24, 6, 50, 0.5, seed=2)
        b = draw_samples(features, labels, 24, 6, 50, 0.5, seed=2)
        assert a.origins.tolist() == b.origins.tolist()

    def test_window_contents_match_series(self):
        features, labels = synthetic_inputs()
        values, indicator = features.T
        exog = [np.cos(values)]
        (w,) = draw_samples(np.column_stack([values, indicator, *exog]), labels,
                            24, 6, 1, 0.0, seed=3)
        o = w.origins
        np.testing.assert_array_equal(w.input[:, 0], values[o:o + 24])
        np.testing.assert_array_equal(w.input[:, 1], indicator[o:o + 24])
        np.testing.assert_array_equal(w.input[:, 2], exog[0][o:o + 24])
        np.testing.assert_array_equal(w.target, values[o + 24:o + 30])
        np.testing.assert_array_equal(w.target_mask, labels[o + 24:o + 30])

    def test_respects_train_mask(self):
        features, labels = synthetic_inputs(n=500)
        mask = np.zeros(500 - 30 + 1, dtype=bool)
        mask[100:120] = True
        samples = draw_samples(features, labels, 24, 6, 50, 0.0,
                               seed=4, train_mask=mask)
        assert all(100 <= o < 120 for o in samples.origins)

    def test_stratification_infeasible_without_extremes(self):
        features, _ = synthetic_inputs()
        labels = np.zeros(len(features), dtype=bool)
        with pytest.raises(StratificationInfeasibleError):
            draw_samples(features, labels, 24, 6, 10, 0.5, seed=0)

    def test_bad_volume(self):
        features, labels = synthetic_inputs()
        with pytest.raises(InvalidInputError):
            draw_samples(features, labels, 24, 6, 0, 0.0, seed=0)


def test_dump_split_csv(tmp_path):
    split = Split(train_mask=np.ones(5, dtype=bool),
                  val_sections=((10, 16),), test_sections=((30, 36), (40, 46)))
    path = tmp_path / "split.csv"
    dump_split_csv(path, split)
    lines = path.read_text().splitlines()
    assert lines == ["set,start_index", "val,10", "test,30", "test,40"]
