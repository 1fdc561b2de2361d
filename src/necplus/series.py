"""Raw-series ingestion, gap filling, the difference-standardize transform
and its inverse, extreme labeling, and the preprocessed CSV both ways.

All operations are pure: they return new immutable value objects and never
mutate their inputs.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
import mmap
import os
import re
from collections.abc import Callable
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import compress, count, repeat
from operator import getitem, ne, not_
from pathlib import Path

import numpy as np

from . import kvtext
from .errors import (
    BoundaryGapError,
    ConfigError,
    DegenerateSeriesError,
    DimensionError,
    InvalidInputError,
    UnfillableGapError,
    reading,
    writing,
)

HOUR = 3600
MAX_GAP = 14 * 24  # 14 days of hourly points
MAX_DEGREE = 3  # highest degree of a gap-filling polynomial
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_ROW_START_WIDTH = len("0001-01-01T00:00:00Z,")  # the same for every year
_SERIES_HEADER = "timestamp,value"
_PREPROCESSED_HEADER = "timestamp,std_value,is_extreme"


@dataclass(frozen=True)
class RawSeries:
    """Hourly sensor series; missing values are NaN.

    Timestamps are epoch seconds, strictly increasing with a constant
    one-hour step.
    """

    sensor_id: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if ts.shape != vals.shape or ts.ndim != 1:
            raise InvalidInputError("timestamps and values must be equal-length 1-D arrays")
        if len(ts) >= 2 and not np.all(np.diff(ts) == HOUR):
            raise InvalidInputError("timestamps must advance in constant 1-hour steps")
        if np.any(np.isinf(vals)):
            raise InvalidInputError("observed values must be finite")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    @property
    def missing(self) -> np.ndarray:
        return np.isnan(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class StandardizedSeries:
    """Standardized first differences plus the parameters to invert them.

    ``anchor`` is the last raw ground-truth value, used to undo the
    differencing when reconstructing raw-scale forecasts.
    """

    values: np.ndarray
    location: float
    scale: float
    anchor: float
    source_id: str = ""

    def __post_init__(self):
        if not self.scale > 0:  # also a NaN scale
            raise DegenerateSeriesError("scale must be positive")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.values)


def _gap_runs(missing: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of missing values as half-open [start, stop) spans."""
    edges = np.diff(missing.astype(np.int8), prepend=0, append=0)
    return list(zip(np.flatnonzero(edges == 1).tolist(),
                    np.flatnonzero(edges == -1).tolist()))


def fill_gaps(series: RawSeries) -> RawSeries:
    """Fill missing runs by polynomial interpolation.

    For a gap of length L, the k = ceil(L/2) nearest observed points on each
    side anchor one least-squares polynomial of degree
    min(MAX_DEGREE, 2k - 1): a cubic, or the line through the two anchors
    of a gap of one or two points. Observed points are never modified. A
    gap longer than MAX_GAP points is an error.
    """
    missing = series.missing
    if not missing.any():
        return series
    return RawSeries(series.sensor_id, series.timestamps,
                     _filled(series, _gap_runs(missing)))


def _filled(series: RawSeries, runs) -> np.ndarray:
    """The values of `series` with each gap run [start, stop) of `runs`
    filled by `_fill_run`."""
    values = series.values.copy()
    observed = np.flatnonzero(~series.missing)
    for start, stop in runs:
        _fill_run(values, observed, start, stop, series.timestamps)
    return values


def _fill_run(values: np.ndarray, observed: np.ndarray, start: int, stop: int,
              timestamps: np.ndarray) -> None:
    """Fill the gap values[start:stop] in place, as `fill_gaps` describes,
    from the `observed` indices of `values`; errors name the gap's first
    stamp. The fit takes indices relative to the gap's centre, so a slice
    of the series that holds the gap and its anchors fills it bit for bit
    as the whole series does."""
    length = stop - start
    if length > MAX_GAP:
        raise UnfillableGapError(f"gap of {length} points from "
                                 f"{_format_timestamps(timestamps[start])} "
                                 f"exceeds maximum {MAX_GAP}")
    k = (length + 1) // 2
    left = observed[observed < start][-k:]
    right = observed[observed >= stop][:k]
    if len(left) < k or len(right) < k:
        raise BoundaryGapError(f"gap from {_format_timestamps(timestamps[start])} "
                               f"lacks {k} anchor points on each side")
    anchors = np.concatenate([left, right])
    t0 = 0.5 * (start + stop - 1)  # center for conditioning
    ta = anchors - t0
    coeffs = np.polyfit(ta, values[anchors], min(MAX_DEGREE, len(anchors) - 1))
    values[start:stop] = np.polyval(coeffs, np.arange(start, stop) - t0)


def difference_standardize(series: RawSeries) -> StandardizedSeries:
    """First-order difference then standardize. The scale is the population
    standard deviation so the transform inverts exactly.
    """
    if series.missing.any():
        raise InvalidInputError("series must be gap-filled before standardizing")
    if len(series) < 2:
        raise InvalidInputError("need at least 2 points to difference")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        diffs = np.diff(series.values)
        location, scale = float(np.mean(diffs)), float(np.std(diffs))
    for name, value in (("first differences", diffs), ("location", location),
                        ("scale", scale)):
        if not np.isfinite(value).all():
            raise InvalidInputError(f"{name} not finite: the series' values are too "
                                    "large to difference and standardize in float64")
    if scale == 0.0:
        raise DegenerateSeriesError("all first differences identical; cannot standardize")
    return standardize(series, location, scale)


def standardize(series: RawSeries, location: float,
                scale: float) -> StandardizedSeries:
    """First differences of a gap-filled series under a frozen location and scale."""
    return StandardizedSeries(
        values=(np.diff(series.values) - location) / scale,
        location=location,
        scale=scale,
        anchor=float(series.values[-1]),
        source_id=series.sensor_id,
    )


def invert_transform(preds, ref: StandardizedSeries,
                     anchor_override=None) -> np.ndarray:
    """Map standardized-difference predictions back to the raw scale.

    y_j = anchor + sum_{i<=j} (preds[i] * scale + location); the anchor is
    the last ground-truth raw value before the forecast window. A stack of
    forecasts (S, f) takes one anchor per row, (S,).
    """
    preds = np.asarray(preds, dtype=np.float64)
    if not np.all(np.isfinite(preds)):
        raise InvalidInputError("predictions must be finite")
    anchor = np.asarray(ref.anchor if anchor_override is None else anchor_override,
                        dtype=np.float64)
    if anchor.ndim and anchor.shape != preds.shape[:-1]:
        raise InvalidInputError(f"{anchor.shape} anchors for {preds.shape} predictions")
    return anchor[..., None] + np.cumsum(preds * ref.scale + ref.location, axis=-1)


def reconstruct_raw(std: StandardizedSeries) -> np.ndarray:
    """The raw series a standardized one came from. raw[0] is not stored, so
    it is rebuilt backwards from the anchor, the last raw value."""
    start = std.anchor - float(np.sum(std.values * std.scale + std.location))
    return np.concatenate([[start], invert_transform(std.values, std,
                                                     anchor_override=start)])


def label_extremes(series: StandardizedSeries, epsilon: float) -> np.ndarray:
    """A bool per point: whether it lies outside the closed interval
    [-epsilon, epsilon], that is, is extreme."""
    if not 0 < epsilon < np.inf:
        raise InvalidInputError("epsilon must be finite and positive")
    return np.abs(series.values) > epsilon


# ---------------------------------------------------------------------------
# CSV / metadata interfaces


def _parse_timestamp(text: str) -> int:
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _format_timestamps(epochs) -> list[str]:
    """ISO-8601 UTC text of epoch seconds, years zero-padded to four digits
    so that `_parse_timestamp` reads them back."""
    return np.datetime_as_string(np.asarray(epochs, dtype="datetime64[s]"),
                                 unit="s", timezone="UTC").tolist()


def _hourly_rows_text(first: int, n: int) -> str:
    """How the n rows of an hourly run from epoch second `first` start when
    written by `_format_timestamps`, one a line: each stamp and its comma,
    up to the end of year 9999. Built as the date text of each day joined to
    24 hour suffixes."""
    day, second = divmod(first, 86400)
    hour, rest = divmod(second, HOUR)
    first_day = _EPOCH_ORDINAL + day
    if not 1 <= first_day <= date.max.toordinal():
        return ""  # a UTC instant outside years 0001-9999 has no such text
    suffixes = ["", *("T%02d:%02d:%02dZ,\n" % (h, *divmod(rest, 60)) for h in range(24))]
    last_day = min(first_day + (hour + n - 1) // 24, date.max.toordinal())
    dates = [date.fromordinal(d).isoformat() for d in range(first_day, last_day + 1)]
    # date.join(["", s0, .., s23]) is date + s0 + date + s1 .. + date + s23
    text = "".join(map(str.join, dates, repeat(suffixes)))
    line = _ROW_START_WIDTH + 1
    return text[hour * line:(hour + n) * line - 1]


def _parse_rows(rows: list[str], convert: Callable):
    """Timestamps of stripped, non-blank `timestamp,cells` rows, which must
    advance in one-hour steps from the first, and `convert(rows, start)`:
    what the converter makes of the cells `row[start:]` of each row.

    Only the first stamp is parsed as a datetime. Row i is `first` plus i
    hours if its text starts with line i of `_hourly_rows_text(first, n)`:
    all rows are compared at once, a line each, and one by one only if that
    differs. Any other row's stamp is parsed on its own and must be that
    instant, and its cells are moved to where the other rows' start. A bad
    row raises ValueError or OverflowError, not necessarily the first bad
    row's.
    """
    if not rows:
        return np.empty(0, dtype=np.int64), convert([], 0)
    first = _parse_timestamp(rows[0].partition(",")[0])
    heads = list(map(getitem, rows, repeat(slice(_ROW_START_WIDTH))))
    run = _hourly_rows_text(first, len(rows))
    off_run = []
    if "\n".join(heads) != run:
        starts = run.splitlines()
        off_run = list(compress(count(), map(ne, heads, starts)))
        off_run += range(len(starts), len(rows))  # rows past year 9999
    del heads, run  # before the converter cuts the cells, to keep the peak memory low
    timestamps = first + HOUR * np.arange(len(rows), dtype=np.int64)
    for i in off_run:
        ts_text, _, cells = rows[i].partition(",")
        if _parse_timestamp(ts_text) != timestamps[i]:
            raise ValueError("a row is off the hourly run")
        rows[i] = "," * _ROW_START_WIDTH + cells
    return timestamps, convert(rows, _ROW_START_WIDTH)


def _gap_or_float(rows: list[str], start: int) -> np.ndarray:
    """The raw-series value in each row's cells `row[start:]`: a float, or
    NaN (a gap) for an empty cell."""
    cells = list(map(getitem, rows, repeat(slice(start, None))))
    for i in compress(count(), map(not_, cells)):
        cells[i] = "nan"
    return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))


def _value_and_label(rows: list[str], start: int) -> tuple[np.ndarray, np.ndarray]:
    """The finite std_value and the is_extreme flag, 0 or 1, as a bool, in
    each row's `preprocessed.csv` cells `row[start:]`. A row is checked for
    its flag at its end: a cell shorter than that leaves an empty value."""
    if not all(map(str.endswith, rows, repeat((",0", ",1")))):
        raise ValueError("is_extreme must be 0 or 1")
    values = np.fromiter(map(float, map(getitem, rows, repeat(slice(start, -2)))),
                         dtype=np.float64, count=len(rows))
    if not np.isfinite(values).all():
        raise ValueError("std_value must be finite")
    flags = "".join(map(getitem, rows, repeat(-1))).encode()  # each now "0" or "1"
    return values, np.frombuffer(flags, dtype=np.uint8) == ord("1")


# A line ends at \n, \r\n or a lone \r, as text mode reads it.
_NEWLINE = re.compile(rb"\r\n|\r|\n")
# A line end, then the line that follows it.
_LINE_AFTER = re.compile(rb"(?:\r\n|\r|\n)([^\r\n]*)")


@contextlib.contextmanager
def _mapped(path: Path):
    """The bytes of the file `path`, mapped read-only, so that a search
    reads only the pages it probes. An empty file, which cannot be mapped,
    gives b""."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            yield b""
        else:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
                yield data


def _rows_start(path: Path, data, header: str, prefix: bool) -> int:
    """Offset in the file `data` of the line after its first, which must
    read `header` or, if `prefix`, begin with its cells, after a UTF-8
    byte-order mark if the file starts with one."""
    match = _NEWLINE.search(data)
    cells = (data[:match.start() if match else len(data)].decode("utf-8-sig")
             .strip().split(","))
    want = header.split(",")
    if cells[:len(want) if prefix else None] != want:
        raise InvalidInputError(f"{path}: expected header {header!r}")
    return match.end() if match else len(data)


def _parse_lines(path: Path, data, lo: int, hi: int, convert: Callable):
    """`_parse_numbered` of the whole text lines in the bytes data[lo:hi] of
    the file `path`: those that start at or after `lo`, which is past the
    header, and end before `hi` or at the end of `data`."""
    match = _NEWLINE.search(data, lo - 1, hi)  # at lo - 1 if lo starts a line
    start = match.end() if match else hi
    end = hi
    if hi < len(data):
        end = max(data.rfind(b"\n", start, hi), data.rfind(b"\r", start, hi)) + 1
    return _parse_numbered(path, _lines(data[start:end].decode()),
                           lambda: 1 + len(_NEWLINE.findall(data, 0, start)), convert)


def _lines(text: str) -> list[str]:
    if "\r" in text:  # newlines are universal
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _parse_numbered(path: Path, lines: list[str], first_line: Callable[[], int],
                    convert: Callable):
    """`_parse_rows` of the non-blank `lines` of the file `path`, the first
    of them on line `first_line()`. If the rows do not parse, they are
    checked one by one, and the first bad one is reported by its line
    number: a row whose stamp or cells do not parse, or whose stamp is not
    one hour after the stamp of the row before it."""
    try:
        return _parse_rows(list(filter(None, map(str.strip, lines))), convert)
    except (ValueError, OverflowError):
        last = None
        for lineno, line in enumerate(map(str.strip, lines), first_line()):
            if not line:
                continue
            ts_text, _, cells = line.partition(",")
            try:
                stamp = _parse_timestamp(ts_text)
                convert([cells], 0)
                if last is not None and stamp != last + HOUR:
                    raise ValueError("%s is not one hour after %s"
                                     % tuple(_format_timestamps([stamp, last])))
            except (ValueError, OverflowError) as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
            last = stamp
        raise


def _read_csv(path: Path, header: str, prefix: bool, convert: Callable):
    """(timestamps, converted cells) of every row of the CSV file `path`
    whose header `_rows_start` checks, parsed once the file is unmapped:
    its rows start on line 2."""
    with reading(path):
        with _mapped(path) as data:
            lines = _lines(data[_rows_start(path, data, header, prefix):].decode())
        return _parse_numbered(path, lines, lambda: 2, convert)


def read_series_csv(path: str | Path) -> RawSeries:
    """Read a `timestamp,value` CSV; empty value fields are gaps. The file's
    stem is the sensor id.

    Timestamps must be continuous hourly ISO-8601 instants: a missing row is
    an error, a missing value is a gap. Every row is checked, in bulk (see
    `_parse_rows`); only a failure is traced back to its line.
    """
    path = Path(path)
    return RawSeries(path.stem, *_read_csv(path, _SERIES_HEADER, True, _gap_or_float))


def _stamp_after(data, pos: int) -> float:
    """Epoch seconds of the first row of the file `data` that starts after
    byte `pos` and whose stamp parses; infinity if there is no such row."""
    for match in _LINE_AFTER.finditer(data, pos):
        line = match[1].decode()
        try:
            return _parse_timestamp(line.strip().partition(",")[0])
        except (ValueError, OverflowError):
            continue  # a blank or malformed row: try the next
    return math.inf


def read_window(path: str | Path, timestamp: str | None, h: int) -> RawSeries:
    """The h + 1 gap-filled raw points of a `timestamp,value` CSV that end
    at the forecast origin `timestamp` (default: the last row): what a
    forecast reads.

    The file is mapped (`_mapped`), and only a span of rows around the
    window is decoded and checked by `_parse_lines`, as `read_series_csv`
    checks the whole file. The span ends the file for the default origin;
    a given origin centres it by one binary search on byte offsets, keyed
    on the stamp of the row after each (`_stamp_after`), which holds for a
    file of sorted rows. The origin's index is then looked up among the
    span's parsed stamps. The span grows until it holds the origin and
    every gap that touches the window with its anchors; only those gaps are
    filled, with the values `fill_gaps` gives the whole series.
    """
    path = Path(path)
    target = None if timestamp is None else _origin_epoch(timestamp)
    with reading(path), _mapped(path) as data:
        data_start = _rows_start(path, data, _SERIES_HEADER, True)
        width = 1 + max(map(len, data[data_start:data_start + 4096].splitlines()),
                        default=0)  # per row
        centre = len(data) if target is None else bisect.bisect_left(
            range(len(data)), target, lo=data_start, key=functools.partial(_stamp_after, data))
        before, after = width * (h + 8), width * 8
        while True:
            lo, hi = max(data_start, centre - before), min(len(data), centre + after)
            raw = RawSeries(path.stem, *_parse_lines(path, data, lo, hi, _gap_or_float))
            stamps = raw.timestamps
            if target is None:
                origin, found = len(stamps) - 1, True
            else:
                origin = int(np.searchsorted(stamps, target))
                found = origin < len(stamps) and stamps[origin] == target
            if found:
                grow_left, grow_right = _short_sides(raw.missing, origin - h, origin)
            else:  # the origin lies past an end of the span, or is absent
                grow_left, grow_right = origin == 0, origin == len(stamps)
            grow_left &= lo > data_start
            grow_right &= hi < len(data)
            if not (grow_left or grow_right):
                break
            if grow_left:
                before *= 2
            if grow_right:
                after *= 2
    if not found:
        raise ConfigError(f"timestamp {timestamp} not present in input series")
    if origin - h < 0:
        raise DimensionError(f"need {h} history steps before the forecast origin")
    window = slice(origin - h, origin + 1)
    values = _filled(raw, _touching_runs(raw.missing, origin - h, origin))
    return RawSeries(raw.sensor_id, stamps[window], values[window])


def _touching_runs(missing: np.ndarray, first: int, last: int) -> list[tuple[int, int]]:
    """The gap runs of `missing` that hold a point of [first, last]."""
    return [(start, stop) for start, stop in _gap_runs(missing)
            if stop > first and start <= last]


def _short_sides(missing: np.ndarray, first: int, last: int) -> tuple[bool, bool]:
    """Whether a span with this `missing` mask lacks, on its left and on its
    right, points that filling the window [first, last] needs: history
    before the window, or a gap that touches the window with its k anchor
    points on that side."""
    observed = np.flatnonzero(~missing)
    left, right = first < 0, False
    for start, stop in _touching_runs(missing, first, last):
        k = (stop - start + 1) // 2
        left |= int(np.searchsorted(observed, start)) < k
        right |= len(observed) - int(np.searchsorted(observed, stop)) < k
    return left, right


def _origin_epoch(timestamp: str) -> int:
    try:
        return _parse_timestamp(timestamp)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"--origin-timestamp {timestamp!r}: {exc}") from None


def write_series_csv(path: str | Path, series: RawSeries) -> None:
    rows = (f"{ts},{'' if val != val else repr(val)}\n"  # val != val: NaN, a gap
            for ts, val in zip(_format_timestamps(series.timestamps),
                               series.values.tolist()))
    with writing(path):
        Path(path).write_text(_SERIES_HEADER + "\n" + "".join(rows), encoding="utf-8")


def write_preprocessed(out_dir: str | Path, series: RawSeries, std: StandardizedSeries,
                       labels: np.ndarray, epsilon: float) -> None:
    """Emit `preprocessed.csv`, with the bool extreme `labels` of `std` at
    `epsilon`, plus a `transform.meta` sidecar."""
    out_dir = Path(out_dir)
    path = out_dir / "preprocessed.csv"
    rows = (f"{ts},{val!r},{ext}\n" for ts, val, ext in zip(
        _format_timestamps(series.timestamps[1:]), std.values.tolist(),
        labels.astype(np.int8).tolist()))
    with writing(path):
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(_PREPROCESSED_HEADER + "\n" + "".join(rows), encoding="utf-8")
    kvtext.write(out_dir / "transform.meta", transform_meta(std, epsilon))


def read_preprocessed(in_dir: str | Path):
    """Read what `write_preprocessed` wrote: (standardized series, extreme
    labels as a bool array, epsilon, the epoch seconds of each point). Rows
    are read as `read_series_csv` reads them, and must be hourly."""
    path = Path(in_dir) / "preprocessed.csv"
    stamps, (values, labels) = _read_csv(path, _PREPROCESSED_HEADER, False,
                                         _value_and_label)
    std, epsilon = read_transform_meta(Path(in_dir) / "transform.meta", values)
    return std, labels, epsilon, stamps


def transform_meta(std: StandardizedSeries, epsilon: float) -> dict:
    return {
        "source_id": std.source_id,
        "location": std.location,
        "scale": std.scale,
        "epsilon": float(epsilon),
        "anchor": std.anchor,
    }


def read_transform_meta(path: str | Path,
                        values=()) -> tuple[StandardizedSeries, float]:
    """Return (the stored transform as a StandardizedSeries of `values`,
    epsilon)."""
    pairs = kvtext.read(path)
    location, scale, anchor, epsilon = (
        kvtext.get(pairs, key, path, conv) for key, conv in (
            ("location", kvtext.finite_float), ("scale", kvtext.positive_float),
            ("anchor", kvtext.finite_float), ("epsilon", kvtext.positive_float)))
    std = StandardizedSeries(values=np.array(values, dtype=np.float64),
                             location=location, scale=scale, anchor=anchor,
                             source_id=pairs.get("source_id", ""))
    return std, epsilon
