from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necplus import series
from necplus.errors import (
    BoundaryGapError,
    ConfigError,
    DegenerateSeriesError,
    DimensionError,
    InvalidInputError,
    NecError,
    UnfillableGapError,
    reading,
)
from necplus.series import (
    HOUR,
    _format_timestamps,
    _hourly_rows_text,
    _parse_timestamp,
    RawSeries,
    difference_standardize,
    fill_gaps,
    invert_transform,
    label_extremes,
    read_preprocessed,
    read_series_csv,
    read_window,
    reconstruct_raw,
    standardize,
    write_preprocessed,
    write_series_csv,
)


def make_series(values, sensor_id="s"):
    values = np.asarray(values, dtype=np.float64)
    ts = np.arange(len(values), dtype=np.int64) * HOUR
    return RawSeries(sensor_id, ts, values)


class TestRawSeries:
    def test_rejects_non_hourly_timestamps(self):
        with pytest.raises(InvalidInputError):
            RawSeries("s", np.array([0, HOUR, 3 * HOUR]), np.zeros(3))

    def test_rejects_infinite_values(self):
        with pytest.raises(InvalidInputError):
            make_series([1.0, np.inf, 2.0])

    def test_nan_marks_missing(self):
        s = make_series([1.0, np.nan, 2.0])
        assert s.missing.tolist() == [False, True, False]


class TestFillGaps:
    def test_complete_series_unchanged(self):
        s = make_series([1.0, 2.0, 3.0])
        assert fill_gaps(s) is s

    def test_linear_gap_filled_exactly(self):
        # y = 2t + 2 with a size-2 gap; degree-1 fit reproduces the line
        s = make_series([2.0, 4.0, np.nan, np.nan, 10.0, 12.0])
        filled = fill_gaps(s)
        np.testing.assert_allclose(filled.values, [2, 4, 6, 8, 10, 12], atol=1e-9)

    def test_one_polynomial_of_the_top_degree(self):
        # four anchors fit a cubic, even when they lie on a line: a search
        # over degrees by residual on the anchors would pick the line
        t = np.arange(20, dtype=np.float64)
        vals = 3 * t + 2
        vals[8:12] = np.nan
        filled = fill_gaps(make_series(vals))
        ta = np.array([6.0, 7.0, 12.0, 13.0]) - 9.5
        want = np.polyval(np.polyfit(ta, 3 * (ta + 9.5) + 2, 3), t[8:12] - 9.5)
        np.testing.assert_array_equal(filled.values[8:12], want)

    def test_quadratic_gap(self):
        t = np.arange(20, dtype=np.float64)
        vals = t**2
        vals[8:12] = np.nan
        filled = fill_gaps(make_series(vals))
        np.testing.assert_allclose(filled.values[8:12], t[8:12] ** 2, atol=1e-6)

    def test_cubic_gap(self):
        t = np.arange(20, dtype=np.float64)
        cubic = t**3 - 12 * t**2
        vals = cubic.copy()
        vals[8:12] = np.nan
        filled = fill_gaps(make_series(vals))
        np.testing.assert_allclose(filled.values[8:12], cubic[8:12], atol=1e-6)

    def test_observed_points_never_modified(self):
        vals = np.sin(np.arange(30) / 3.0)
        vals[10:14] = np.nan
        s = make_series(vals)
        filled = fill_gaps(s)
        keep = ~s.missing
        np.testing.assert_array_equal(filled.values[keep], s.values[keep])

    def test_idempotent(self):
        vals = np.arange(10, dtype=np.float64)
        vals[4:6] = np.nan
        once = fill_gaps(make_series(vals))
        twice = fill_gaps(once)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_boundary_gap_raises(self):
        with pytest.raises(BoundaryGapError):
            fill_gaps(make_series([np.nan, np.nan, 1.0, 2.0, 3.0, 4.0]))

    def test_too_long_gap_raises(self):
        vals = np.ones(800)
        vals[100:500] = np.nan
        with pytest.raises(UnfillableGapError):
            fill_gaps(make_series(vals))

    def test_errors_name_the_first_stamp_of_the_gap(self):
        values = np.arange(400.0)
        values[[0, 1]] = np.nan
        with pytest.raises(BoundaryGapError,
                           match="gap from 1970-01-01T00:00:00Z lacks 1 anchor"):
            fill_gaps(make_series(values))
        values = np.arange(400.0)
        values[10:10 + series.MAX_GAP + 1] = np.nan
        with pytest.raises(UnfillableGapError,
                           match="gap of 337 points from 1970-01-01T10:00:00Z"):
            fill_gaps(make_series(values))


class TestDifferenceStandardize:
    def test_hand_computed(self):
        # diffs (2, -3): mean -0.5, population std 2.5
        std = difference_standardize(make_series([5.0, 7.0, 4.0]))
        assert std.location == -0.5
        assert std.scale == 2.5
        np.testing.assert_allclose(std.values, [1.0, -1.0])
        assert std.anchor == 4.0

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            difference_standardize(make_series([3.0] * 10))

    def test_standardized_moments(self):
        rng = np.random.default_rng(0)
        std = difference_standardize(make_series(rng.normal(size=500)))
        assert abs(np.mean(std.values)) < 1e-9
        assert abs(np.std(std.values) - 1.0) < 1e-9


    @pytest.mark.parametrize("values, what", [
        ([1e308, -1e308, 1e308, 1.0], "first differences"),
        ([-1.7e308, 0.0, 1.7e308, 1.7e308], "location"),  # the differences sum past float64
        ([0.0, 1.7e308, 0.0, 1.7e308], "scale"),  # their squares do
    ])
    def test_overflow_is_named_without_a_warning(self, values, what):
        """Differences, location or scale that overflow float64 end as a
        NecError, and numpy's RuntimeWarning, which the tests turn into an
        error, does not escape."""
        with pytest.raises(InvalidInputError, match=f"^{what} not finite"):
            difference_standardize(make_series(values))

    def test_nan_scale_is_rejected(self):
        with pytest.raises(DegenerateSeriesError, match="scale must be positive"):
            series.StandardizedSeries(values=np.zeros(3), location=0.0,
                                      scale=float("nan"), anchor=0.0)


class TestInvertTransform:
    def test_hand_computed(self):
        ref = difference_standardize(make_series([5.0, 7.0, 4.0]))
        out = invert_transform([1.0, -1.0], ref, anchor_override=4.0)
        np.testing.assert_allclose(out, [6.0, 3.0])

    def test_zero_preds_constant(self):
        ref = difference_standardize(make_series([0.0, 1.0, -1.0, 2.0]))
        ref = type(ref)(values=ref.values, location=0.0, scale=ref.scale,
                        anchor=7.0, source_id="s")
        np.testing.assert_allclose(invert_transform(np.zeros(5), ref),
                                   np.full(5, 7.0))

    def test_rejects_non_finite(self):
        ref = difference_standardize(make_series([1.0, 2.0, 4.0]))
        with pytest.raises(InvalidInputError):
            invert_transform([np.nan], ref)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=60))
    def test_round_trip(self, values):
        s = make_series(values)
        try:
            std = difference_standardize(s)
        except DegenerateSeriesError:
            return
        recovered = invert_transform(std.values, std, anchor_override=values[0])
        np.testing.assert_allclose(recovered, np.asarray(values)[1:],
                                   rtol=1e-9, atol=1e-6)

    def test_stack_of_forecasts_equals_row_by_row(self):
        rng = np.random.default_rng(3)
        ref = difference_standardize(make_series(rng.normal(size=50)))
        preds = rng.normal(size=(7, 9))
        anchors = rng.normal(100.0, 10.0, size=7)
        stacked = invert_transform(preds, ref, anchor_override=anchors)
        rows = [invert_transform(p, ref, anchor_override=a)
                for p, a in zip(preds, anchors)]
        np.testing.assert_array_equal(stacked, np.stack(rows))

    def test_stack_needs_one_anchor_per_row(self):
        ref = difference_standardize(make_series([1.0, 2.0, 4.0]))
        with pytest.raises(InvalidInputError, match="anchors"):
            invert_transform(np.zeros((3, 4)), ref, anchor_override=np.zeros(2))


class TestStandardize:
    def test_frozen_parameters_reproduce_the_fit(self):
        s = make_series(np.random.default_rng(4).normal(size=40).cumsum())
        fitted = difference_standardize(s)
        again = standardize(s, fitted.location, fitted.scale)
        np.testing.assert_array_equal(again.values, fitted.values)
        assert (again.location, again.scale, again.anchor, again.source_id) == (
            fitted.location, fitted.scale, fitted.anchor, fitted.source_id)

    def test_reconstruct_raw_inverts_the_transform(self):
        values = np.random.default_rng(5).normal(50.0, 3.0, size=300)
        std = difference_standardize(make_series(values))
        raw = reconstruct_raw(std)
        assert raw[-1] == values[-1]
        np.testing.assert_allclose(raw, values, rtol=1e-12)
        # same arithmetic as rebuilding raw[0] from the anchor, then summing on
        increments = std.values * std.scale + std.location
        start = std.anchor - float(np.sum(increments))
        np.testing.assert_array_equal(raw, np.concatenate([[start],
                                                           start + np.cumsum(increments)]))


class TestLabelExtremes:
    def test_boundary_is_normal(self):
        std = difference_standardize(make_series([0.0, 1.0, 3.0]))
        # values are exactly (-1, 1); epsilon 1.0 puts them on the boundary
        labels = label_extremes(std, 1.0)
        assert not labels.any()

    @staticmethod
    def _std(values):
        from necplus.series import StandardizedSeries
        return StandardizedSeries(values=np.asarray(values), location=0.0,
                                  scale=1.0, anchor=0.0, source_id="s")

    def test_zero_always_normal(self):
        std = self._std([0.0])
        for eps in (0.01, 1.0, 10.0):
            assert not label_extremes(std, eps).any()

    def test_hand_counted_fraction(self):
        labels = label_extremes(self._std([0.2, -0.2, 2.0, -2.0, 0.0]), 1.5)
        assert labels.mean() == pytest.approx(2 / 5)

    def test_fraction_monotone_in_epsilon(self):
        rng = np.random.default_rng(1)
        std = difference_standardize(make_series(np.cumsum(rng.normal(size=400))))
        fracs = [label_extremes(std, e).mean()
                 for e in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_invalid_epsilon(self):
        std = difference_standardize(make_series([1.0, 2.0, 4.0]))
        with pytest.raises(InvalidInputError):
            label_extremes(std, 0.0)

    @pytest.mark.parametrize("epsilon", [float("inf"), float("nan"), -1.0])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        std = difference_standardize(make_series([1.0, 2.0, 4.0]))
        with pytest.raises(InvalidInputError, match="epsilon must be finite and positive"):
            label_extremes(std, epsilon)


class TestCsv:
    def test_round_trip_with_gaps(self, tmp_path):
        vals = np.array([1.5, np.nan, 2.5])
        s = make_series(vals, "abc")
        path = tmp_path / "abc.csv"
        write_series_csv(path, s)
        back = read_series_csv(path)
        assert back.sensor_id == "abc"
        np.testing.assert_array_equal(back.timestamps, s.timestamps)
        np.testing.assert_array_equal(np.isnan(back.values), np.isnan(vals))
        np.testing.assert_array_equal(back.values[[0, 2]], vals[[0, 2]])

    def test_round_trip_before_year_1000(self, tmp_path):
        start = int(np.datetime64("0005-04-19T09:46:40", "s").astype(np.int64))
        s = RawSeries("old", start + HOUR * np.arange(3), np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "old.csv"
        write_series_csv(path, s)
        assert path.read_text().splitlines()[1] == "0005-04-19T09:46:40Z,1.0"
        np.testing.assert_array_equal(read_series_csv(path).timestamps, s.timestamps)

    def test_missing_file_names_it(self, tmp_path):
        with pytest.raises(InvalidInputError, match="nope.csv"):
            read_series_csv(tmp_path / "nope.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,val\n2020-01-01T00:00:00Z,1\n")
        with pytest.raises(InvalidInputError):
            read_series_csv(path)


class TestPreprocessedCsv:
    def test_round_trip(self, tmp_path):
        raw = make_series(np.random.default_rng(6).normal(size=30).cumsum(), "r1")
        std = difference_standardize(raw)
        labels = label_extremes(std, 1.0)
        write_preprocessed(tmp_path, raw, std, labels, 1.0)
        back, back_labels, epsilon, stamps = read_preprocessed(tmp_path)
        np.testing.assert_array_equal(back.values, std.values)
        assert (back.location, back.scale, back.anchor, back.source_id) == (
            std.location, std.scale, std.anchor, "r1")
        np.testing.assert_array_equal(back_labels, labels)
        assert epsilon == 1.0
        assert len(stamps) == len(std) and stamps[0] == HOUR

    def test_transform_meta_without_scale_names_file_and_key(self, tmp_path):
        raw = make_series([1.0, 2.0, 4.0, 3.0])
        std = difference_standardize(raw)
        write_preprocessed(tmp_path, raw, std, label_extremes(std, 1.5), 1.5)
        meta = tmp_path / "transform.meta"
        meta.write_text("".join(line for line in meta.read_text().splitlines(True)
                                if not line.startswith("scale ")))
        with pytest.raises(InvalidInputError, match="transform.meta: missing key 'scale'"):
            read_preprocessed(tmp_path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["location", "scale", "anchor", "epsilon"])
    def test_non_finite_transform_meta_names_file_and_key(self, tmp_path, key, value):
        raw = make_series([1.0, 2.0, 4.0, 3.0])
        std = difference_standardize(raw)
        write_preprocessed(tmp_path, raw, std, label_extremes(std, 1.5), 1.5)
        meta = tmp_path / "transform.meta"
        meta.write_text("".join(f"{key} {value}\n" if line.startswith(f"{key} ") else line
                                for line in meta.read_text().splitlines(True)))
        with pytest.raises(InvalidInputError,
                           match=f"transform.meta: bad value '{value}' for key '{key}'"):
            read_preprocessed(tmp_path)

    @pytest.mark.parametrize("value", ["0.0", "-1.0"])
    @pytest.mark.parametrize("key", ["scale", "epsilon"])
    def test_non_positive_transform_meta_names_file_and_key(self, tmp_path, key, value):
        raw = make_series([1.0, 2.0, 4.0, 3.0])
        std = difference_standardize(raw)
        write_preprocessed(tmp_path, raw, std, label_extremes(std, 1.5), 1.5)
        meta = tmp_path / "transform.meta"
        meta.write_text("".join(f"{key} {value}\n" if line.startswith(f"{key} ") else line
                                for line in meta.read_text().splitlines(True)))
        with pytest.raises(InvalidInputError,
                           match=f"transform.meta: bad value '{value}' for key '{key}'"):
            read_preprocessed(tmp_path)

    def test_missing_header_names_file(self, tmp_path):
        raw = make_series([1.0, 2.0, 4.0, 3.0])
        std = difference_standardize(raw)
        write_preprocessed(tmp_path, raw, std, label_extremes(std, 1.5), 1.5)
        path = tmp_path / "preprocessed.csv"
        path.write_text("".join(path.read_text().splitlines(True)[1:]))
        with pytest.raises(InvalidInputError,
                           match="preprocessed.csv: expected header 'timestamp,std_value,is_extreme'"):
            read_preprocessed(tmp_path)

    @pytest.mark.parametrize("cells", ["x,0", "nan,0", "inf,0", "-inf,1",
                                       "0.5,7", "0.5,", "0.5,true"])
    def test_malformed_row_names_file_and_line(self, tmp_path, cells):
        raw = make_series([1.0, 2.0, 4.0, 3.0])
        std = difference_standardize(raw)
        write_preprocessed(tmp_path, raw, std, label_extremes(std, 1.5), 1.5)
        path = tmp_path / "preprocessed.csv"
        lines = path.read_text().splitlines()
        lines[2] = f"1970-01-01T02:00:00Z,{cells}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match="preprocessed.csv:3"):
            read_preprocessed(tmp_path)


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def preprocessed_dirs(draw):
    """What `write_preprocessed` is given: the series it takes the stamps
    from, the standardized series, the labels and epsilon."""
    n = draw(st.integers(1, 40))
    start = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9998, 1, 1)))
    values = draw(st.lists(st.one_of(st.sampled_from(EDGE_VALUES), FINITE),
                           min_size=n, max_size=n))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    raw = RawSeries("r", epoch(start) + HOUR * np.arange(n + 1), np.zeros(n + 1))
    std = series.StandardizedSeries(
        values=np.array(values), location=draw(FINITE),
        scale=draw(st.floats(min_value=5e-324, allow_infinity=False)),
        anchor=draw(FINITE), source_id="r")
    return raw, std, np.array(labels), draw(st.floats(1e-3, 1e3))


def rewrite_lines(path, end="\n", blank_after=()):
    """Rewrite the file at `path` with `end` line ends and a blank line
    after each data row index in `blank_after`."""
    lines = path.read_text().splitlines()
    for i in sorted(blank_after, reverse=True):
        lines.insert(i + 2, " " if i % 2 else "")
    path.write_bytes((end.join(lines) + end).encode())


class TestPreprocessedRows:
    """`preprocessed.csv` rows are read by the raw series' row parser: blank
    lines are skipped, and each stamp must be an hour after the one before."""

    @settings(max_examples=200, deadline=None)
    @given(preprocessed_dirs(), st.sampled_from(["\n", "\r\n"]),
           st.lists(st.integers(0, 40), max_size=4))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, written, end, blank_after):
        raw, std, labels, written_epsilon = written
        out = tmp_path_factory.mktemp("pre")
        write_preprocessed(out, raw, std, labels, written_epsilon)
        rewrite_lines(out / "preprocessed.csv", end, [i for i in blank_after if i < len(std)])
        back, back_labels, epsilon, stamps = read_preprocessed(out)
        assert back.values.tobytes() == std.values.tobytes()
        assert (back.location, back.scale, back.anchor, back.source_id) == (
            std.location, std.scale, std.anchor, "r")
        assert back_labels.tolist() == labels.tolist()
        assert epsilon == written_epsilon
        assert stamps.dtype == np.int64 and stamps.tolist() == raw.timestamps[1:].tolist()

    @staticmethod
    def _late(rows, i):
        stamp, _, cells = rows[i].partition(",")
        late = _format_timestamps(_parse_timestamp(stamp) + HOUR)
        return rows[:i] + [f"{late},{cells}"] + rows[i + 1:]

    # Each takes the data rows and a row index, and returns the rows and the
    # index of the first row that is bad among them.
    MUTATIONS = {
        "deleted": lambda rows, i: (rows[:i] + rows[i + 1:], i),
        "duplicated": lambda rows, i: (rows[:i + 1] + rows[i:], i + 1),
        "swapped": lambda rows, i: (rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2:], i),
        "yesterday": lambda rows, i: (rows[:i] + ["yesterday" + rows[i][20:]] + rows[i + 1:], i),
        "hour_late": lambda rows, i: (TestPreprocessedRows._late(rows, i), i),
    }

    # Each reads the file at `path`; read_window at the forecast origin `origin`.
    READERS = {
        "read_preprocessed": lambda path, origin: read_preprocessed(path.parent),
        "read_series_csv": lambda path, origin: read_series_csv(path),
        "read_window": lambda path, origin: read_window(path, origin, 8),
    }

    def assert_names_the_line(self, tmp_path, reader, mutation, row, end):
        """`reader` names the first bad row of a file with `mutation` at
        data row `row`, `end` line ends and a blank line after data row 3."""
        raw = make_series(np.random.default_rng(4).normal(size=30).cumsum())
        if reader == "read_preprocessed":
            std = difference_standardize(raw)
            write_preprocessed(tmp_path, raw, std, label_extremes(std, 1.0), 1.0)
            path = tmp_path / "preprocessed.csv"
        else:
            path = tmp_path / "s.csv"
            write_series_csv(path, raw)
        header, *rows = path.read_text().splitlines()
        rows, bad = self.MUTATIONS[mutation](rows, row)
        path.write_text("\n".join([header] + rows) + "\n")
        rewrite_lines(path, end, blank_after=[3])
        lineno = 2 + bad + (bad > 3)  # the header, then a blank line after data row 3
        origin = rows[min(bad + 2, len(rows) - 1)][:20]  # its window's span holds the bad row
        with pytest.raises(InvalidInputError, match=f"{path.name}:{lineno}: "):
            self.READERS[reader](path, origin)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("row", [1, 5, 27])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_a_moved_or_bad_stamp_names_its_line(self, tmp_path, mutation, row, end):
        self.assert_names_the_line(tmp_path, "read_preprocessed", mutation, row, end)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("row", [1, 5, 27])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("reader", ["read_series_csv", "read_window"])
    def test_a_moved_or_bad_raw_stamp_names_its_line(self, tmp_path, reader, mutation,
                                                      row, end):
        self.assert_names_the_line(tmp_path, reader, mutation, row, end)

    def test_step_error_names_both_stamps(self, tmp_path):
        raw = make_series([1.0, 2.0, 4.0, 3.0, 5.0])
        std = difference_standardize(raw)
        write_preprocessed(tmp_path, raw, std, label_extremes(std, 1.5), 1.5)
        path = tmp_path / "preprocessed.csv"
        lines = path.read_text().splitlines()
        del lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match="preprocessed.csv:3: 1970-01-01T03:00:00Z "
                                                    "is not one hour after 1970-01-01T01:00:00Z"):
            read_preprocessed(tmp_path)


UTF8_CHARS = st.characters(exclude_categories=("Cs",))  # those UTF-8 can encode
FUZZED_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                          st.sampled_from(["", "oops", "1e999", "nan", "1,2"]))


def fuzzed_rows(*cells):
    """Up to 8 data lines of a CSV, each any text or a stamp, which may be
    out of range, off the hour or oddly zoned, followed by one of each of
    `cells`."""
    return st.lists(st.one_of(
        st.text(UTF8_CHARS, max_size=30),
        st.builds(("{}T{:02d}:00:00{}" + ",{}" * len(cells)).format,
                  st.sampled_from(["2020-01-01", "0001-01-01", "9999-12-31", "2020-02-30"]),
                  st.integers(0, 25), st.sampled_from(["Z", "", "+01:00", "-05:00", "ZZ"]),
                  *cells)),
        max_size=8)


class TestMalformedSeriesCsv:
    @pytest.mark.parametrize("row", ["2020-01-01T01:00:00Z,oops",
                                     "yesterday,1.0", "2020-13-01T00:00:00Z,1"])
    def test_bad_cell_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"timestamp,value\n2020-01-01T00:00:00Z,1.0\n{row}\n")
        with pytest.raises(InvalidInputError, match="s.csv:3"):
            read_series_csv(path)

    def test_line_number_counts_skipped_blank_lines(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n2020-01-01T00:00:00Z,1.0\n\n  \n"
                        "2020-01-01T01:00:00Z,2.0\n2020-01-01T02:00:00Z,oops\n")
        with pytest.raises(InvalidInputError, match="s.csv:6: .*oops"):
            read_series_csv(path)

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_rows(FUZZED_VALUES))
    def test_fuzzed_rows_raise_only_domain_errors(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("fuzz") / "s.csv"
        path.write_text("timestamp,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        try:
            series = read_series_csv(path)
        except NecError:
            return
        assert len(series.timestamps) == len(series.values)

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_rows(FUZZED_VALUES, st.one_of(st.sampled_from(["0", "1"]),
                                                st.text(UTF8_CHARS, max_size=3))))
    def test_fuzzed_preprocessed_rows_raise_only_domain_errors(self, tmp_path_factory, rows):
        out = tmp_path_factory.mktemp("fuzz")
        raw = make_series([1.0, 2.0, 4.0])
        std = difference_standardize(raw)
        write_preprocessed(out, raw, std, label_extremes(std, 1.5), 1.5)
        (out / "preprocessed.csv").write_text(
            "timestamp,std_value,is_extreme\n" + "\n".join(rows) + "\n", encoding="utf-8")
        try:
            back, labels, _, stamps = read_preprocessed(out)
        except NecError:
            return
        assert len(back.values) == len(labels) == len(stamps)


def reference_read_series_csv(path: str | Path, sensor_id: str | None = None) -> RawSeries:
    """The reader before bulk reading: one `_parse_timestamp` per row, and
    each stamp checked against the row before. Kept as the reference that
    `read_series_csv` must agree with."""
    path = Path(path)
    timestamps: list[int] = []
    values: list[float] = []
    with reading(path), path.open() as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["timestamp", "value"]:
            raise InvalidInputError(f"{path}: expected header 'timestamp,value'")
        blank = 0  # for error messages; cheaper than numbering every line
        for line in fh:
            line = line.strip()
            if not line:
                blank += 1
                continue
            lineno = 2 + blank + len(values)  # header, blanks, parsed rows
            ts_text, _, val_text = line.partition(",")
            try:
                timestamps.append(_parse_timestamp(ts_text))
                values.append(float(val_text) if val_text else np.nan)
            except (ValueError, OverflowError) as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
            if len(timestamps) > 1 and timestamps[-1] != timestamps[-2] + HOUR:
                after, before = _format_timestamps(timestamps[-1:-3:-1])
                raise InvalidInputError(
                    f"{path}:{lineno}: {after} is not one hour after {before}")
    return RawSeries(sensor_id or path.stem, np.array(timestamps, dtype=np.int64),
                     np.array(values))


def read_outcome(reader, path):
    """What a reader made of a file, down to the bits of every number, or
    the type and message of the error it raised."""
    try:
        raw = reader(path)
    except NecError as exc:
        return type(exc).__name__, str(exc)
    return (raw.sensor_id, raw.timestamps.dtype, raw.timestamps.tobytes(),
            raw.values.dtype, raw.values.tobytes())


def epoch(dt: datetime) -> int:
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


# Runs that start at the first and the last instants a stamp can name, and
# runs that cross a leap day, a non-leap February and the epoch.
EDGE_STARTS = [datetime(1, 1, 1), datetime(9999, 12, 30, 20), datetime(2020, 2, 28, 20),
               datetime(2000, 2, 28, 22), datetime(1900, 2, 28, 23),
               datetime(1969, 12, 31, 22), datetime(2024, 12, 31, 23)]


def _offset(stamp, text):
    return stamp[:-1] + text


# Each rewrites a canonical row or the lines around it; the reader must
# read or reject each exactly as the per-row reader does.
MUTATIONS = {
    "utc_offset": lambda stamp, cell: [f"{_offset(stamp, '+00:00')},{cell}"],
    "minus_five": lambda stamp, cell: [f"{_offset(stamp, '-05:00')},{cell}"],
    "plus_five": lambda stamp, cell: [f"{_offset(stamp, '+05:00')},{cell}"],
    "naive": lambda stamp, cell: [f"{stamp[:-1]},{cell}"],
    "half_second": lambda stamp, cell: [f"{_offset(stamp, '.5Z')},{cell}"],
    "double_z": lambda stamp, cell: [f"{stamp}Z,{cell}"],
    "no_such_date": lambda stamp, cell: [f"2021-02-30{stamp[10:]},{cell}"],
    "lower_t": lambda stamp, cell: [f"{stamp.replace('T', 't')},{cell}"],
    "padded": lambda stamp, cell: [f"  {stamp},{cell}\t"],
    "space_before_comma": lambda stamp, cell: [f"{stamp} ,{cell}"],
    "no_comma": lambda stamp, cell: [stamp],
    "extra_comma": lambda stamp, cell: [f"{stamp},{cell},"],
    "blank_before": lambda stamp, cell: ["", f"{stamp},{cell}"],
    "spaces_before": lambda stamp, cell: [" \t ", f"{stamp},{cell}"],
    "gap": lambda stamp, cell: [],
    "duplicate": lambda stamp, cell: [f"{stamp},{cell}"] * 2,
    "only_comma": lambda stamp, cell: [","],
}

GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["", "nan", "-nan", "NaN", "1_0", " 2.5", "7"]))
BAD_CELLS = st.sampled_from(["inf", "-inf", "1e999", "oops", "1,2", "0x10", "--1"])


@st.composite
def series_texts(draw):
    """The text of a series CSV: a canonical hourly run from any minute and
    second, then rewritten in places."""
    start = draw(st.one_of(
        st.sampled_from(EDGE_STARTS),
        st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31))))
    start = start.replace(minute=draw(st.integers(0, 59)),
                          second=draw(st.integers(0, 59)))
    n = draw(st.integers(0, 60))
    stamps = _format_timestamps(epoch(start) + HOUR * np.arange(n))
    cells = draw(st.lists(GOOD_CELLS, min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2)) if n else ():
        cells[i] = draw(BAD_CELLS)
    changes = draw(st.dictionaries(st.integers(0, max(n - 1, 0)),
                                   st.sampled_from(sorted(MUTATIONS)), max_size=3))
    lines = [draw(st.sampled_from(["timestamp,value"] * 5 + [
        "timestamp,value,note", " timestamp,value ", "time,value"]))]
    for i, (stamp, cell) in enumerate(zip(stamps, cells)):
        lines += MUTATIONS[changes[i]](stamp, cell) if i in changes else [f"{stamp},{cell}"]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from([end, "", end + end, end + "  "]))
    return end.join(lines) + tail


class TestBulkReader:
    """`read_series_csv` reads in bulk and parses a datetime only for a row
    off the canonical hourly run; it must agree with the per-row reader."""

    @settings(max_examples=400, deadline=None)
    @given(series_texts())
    def test_agrees_with_the_per_row_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("diff") / "s.csv"
        path.write_bytes(text.encode())
        assert (read_outcome(read_series_csv, path)
                == read_outcome(reference_read_series_csv, path))

    @pytest.mark.parametrize("start", EDGE_STARTS + [datetime(2010, 1, 1, 0, 17, 59)])
    def test_row_starts_are_the_written_stamps(self, start):
        first = epoch(start.replace(minute=7, second=42))
        n = 100
        written = [s + "," for s in _format_timestamps(first + HOUR * np.arange(n))
                   if len(s) == 20]  # those of years up to 9999
        assert _hourly_rows_text(first, n).splitlines() == written

    def test_instants_outside_years_1_to_9999_have_no_row_starts(self):
        before_year_1 = epoch(datetime(1, 1, 1)) - HOUR
        after_year_9999 = epoch(datetime(9999, 12, 31, 23)) + HOUR
        assert _hourly_rows_text(before_year_1, 5).splitlines() == []
        assert _hourly_rows_text(after_year_9999, 5).splitlines() == []

    def test_a_canonical_file_parses_one_datetime(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        values = np.random.default_rng(8).normal(size=1000)
        values[[3, 500]] = np.nan
        write_series_csv(path, RawSeries("s", 1262304000 + HOUR * np.arange(1000),
                                         values))
        calls = []

        def counted(text):
            calls.append(text)
            return _parse_timestamp(text)

        monkeypatch.setattr(series, "_parse_timestamp", counted)
        raw = read_series_csv(path)
        assert calls == ["2010-01-01T00:00:00Z"]
        assert read_outcome(lambda p: raw, path) == read_outcome(
            reference_read_series_csv, path)

    @pytest.mark.parametrize("row", ["10000-01-01T00:00:00Z", "10000-01-01T00:00:00Z,"])
    def test_a_row_past_year_9999_is_parsed(self, tmp_path, row):
        """Its stamp is one character wider than any before it, so its cell
        may look empty: it must still be parsed, and rejected."""
        path = tmp_path / "s.csv"
        path.write_text(f"timestamp,value\n9999-12-31T23:00:00Z,1\n{row}\n")
        with pytest.raises(InvalidInputError, match="s.csv:3: Invalid isoformat"):
            read_series_csv(path)
        assert (read_outcome(read_series_csv, path)
                == read_outcome(reference_read_series_csv, path))

    def test_first_bad_row_in_file_order(self, tmp_path):
        """A bad value is found before a later bad stamp, although the bulk
        pass parses off-run stamps before it converts any value."""
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n2020-01-01T00:00:00Z,1\n"
                        "2020-01-01T01:00:00Z,oops\n\n2020-01-01T02:00:00ZZ,3\n")
        with pytest.raises(InvalidInputError, match="s.csv:3: .*oops"):
            read_series_csv(path)


class TestRunCheck:
    """`_parse_rows` compares the rows' starts with the hourly run's all at
    once; a row start split across two short rows must not pass for one."""

    def test_short_rows_are_not_one_row_start(self, tmp_path):
        """The run from 9999-12-31T23 has one row start before year 10000,
        which these two rows' starts spell when joined."""
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n9999-12-31T23\n:00:00Z,\n")
        with pytest.raises(InvalidInputError, match="s.csv:3: Invalid isoformat"):
            read_series_csv(path)
        assert (read_outcome(read_series_csv, path)
                == read_outcome(reference_read_series_csv, path))


def write_with_line_ends(path, series_, end, blank_after=()):
    """Write `series_` as `write_series_csv` does, with `end` line ends and
    a blank line after each data row index in `blank_after`."""
    write_series_csv(path, series_)
    lines = path.read_text().splitlines()
    for i in sorted(blank_after, reverse=True):
        lines.insert(i + 2, "")
    path.write_bytes((end.join(lines) + end).encode())


class TestReadWindow:
    """`read_window` reads the rows around a forecast window; what it
    returns is the window of the gap-filled whole series."""

    H = 24

    def series_with_gaps(self, n=600):
        values = 50.0 + np.random.default_rng(3).normal(size=n).cumsum()
        for start, length in ((40, 3), (300, 30), (331, 2), (n - 30, 5)):
            values[start:start + length] = np.nan
        return RawSeries("s", 1262304000 + HOUR * np.arange(n), values)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_window_of_the_filled_series(self, tmp_path, end):
        path = tmp_path / "s.csv"
        raw = self.series_with_gaps()
        write_with_line_ends(path, raw, end, blank_after=(10, 320))
        filled = fill_gaps(read_series_csv(path))
        stamps = _format_timestamps(raw.timestamps)
        for origin in (self.H, 41, 300, 335, 350, len(raw) - 2, None):
            got = read_window(path, None if origin is None else stamps[origin], self.H)
            last = len(raw) - 1 if origin is None else origin
            window = slice(last - self.H, last + 1)
            assert got.timestamps.tobytes() == filled.timestamps[window].tobytes()
            assert got.values.tobytes() == filled.values[window].tobytes()

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_bad_row_is_named_by_its_line_in_the_file(self, tmp_path, end):
        path = tmp_path / "s.csv"
        raw = self.series_with_gaps()
        write_with_line_ends(path, raw, end, blank_after=(5, 500))
        text = path.read_bytes().decode()
        stamp = _format_timestamps(raw.timestamps[585])
        path.write_bytes(text.replace(f"{stamp},", f"{stamp},oops", 1).encode())
        with pytest.raises(InvalidInputError) as whole:
            read_series_csv(path)
        assert "s.csv:589: " in str(whole.value)
        for origin in (None, _format_timestamps(raw.timestamps[590])):
            with pytest.raises(InvalidInputError) as span:
                read_window(path, origin, self.H)
            assert str(span.value) == str(whole.value)

    def test_fills_only_the_gaps_that_touch_the_window(self, tmp_path):
        """A gap in the span but off the window is not filled: here it has
        no anchor before it, and filling it would fail."""
        path = tmp_path / "s.csv"
        raw = self.series_with_gaps()
        values = raw.values.copy()
        values[:2] = np.nan
        write_series_csv(path, RawSeries("s", raw.timestamps, values))
        with pytest.raises(BoundaryGapError):
            fill_gaps(read_series_csv(path))
        got = read_window(path, _format_timestamps(raw.timestamps[self.H + 5]), self.H)
        np.testing.assert_array_equal(got.values, values[5:self.H + 6])

    @pytest.mark.parametrize("origin", ["2009-12-31T23:00:00Z", "2010-01-05T10:30:00Z",
                                        "2030-01-01T00:00:00Z"])
    def test_absent_origin_is_a_config_error(self, tmp_path, origin):
        path = tmp_path / "s.csv"
        write_series_csv(path, self.series_with_gaps())
        with pytest.raises(ConfigError, match=f"timestamp {origin} not present"):
            read_window(path, origin, self.H)

    def test_origin_without_h_points_before_it(self, tmp_path):
        path = tmp_path / "s.csv"
        raw = self.series_with_gaps()
        write_series_csv(path, raw)
        with pytest.raises(DimensionError, match="need 24 history steps"):
            read_window(path, _format_timestamps(raw.timestamps[self.H - 1]), self.H)
        write_series_csv(path, RawSeries("s", raw.timestamps[:self.H], raw.values[:self.H]))
        with pytest.raises(DimensionError, match="need 24 history steps"):
            read_window(path, None, self.H)

    @pytest.mark.parametrize("origin", [None, "2010-01-01T00:00:00Z"])
    def test_empty_or_header_only_file(self, tmp_path, origin):
        # an empty file cannot be mapped; it fails as a missing header does
        path = tmp_path / "s.csv"
        path.write_bytes(b"")
        with pytest.raises(InvalidInputError, match="s.csv: expected header"):
            read_window(path, origin, self.H)
        path.write_text("timestamp,value\n")
        with pytest.raises(ConfigError if origin else DimensionError):
            read_window(path, origin, self.H)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,value\n2020-01-01T00:00:00Z,1\n")
        with pytest.raises(InvalidInputError, match="expected header"):
            read_window(path, None, 0)
