"""Raw-series ingestion, gap filling, the difference-standardize transform
and its inverse, extreme labeling, and the preprocessed CSV both ways.

All operations are pure: they return new immutable value objects and never
mutate their inputs.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from itertools import compress, count, islice, product, repeat
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
        if self.scale <= 0:
            raise DegenerateSeriesError("scale must be positive")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ExtremeLabels:
    epsilon: float
    labels: np.ndarray = field(repr=False)

    @property
    def extreme_fraction(self) -> float:
        return float(np.mean(self.labels)) if len(self.labels) else 0.0


def _gap_runs(missing: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of missing values as half-open [start, stop) spans."""
    edges = np.diff(missing.astype(np.int8), prepend=0, append=0)
    return list(zip(np.flatnonzero(edges == 1).tolist(),
                    np.flatnonzero(edges == -1).tolist()))


def fill_gaps(series: RawSeries) -> RawSeries:
    """Fill missing runs by adaptive polynomial interpolation.

    For a gap of length L, the k = ceil(L/2) nearest observed points on each
    side anchor a least-squares polynomial whose degree (1..MAX_DEGREE) is
    chosen to minimize the residual on those anchors, ties going to the
    lower degree. Observed points are never modified. A gap longer than
    MAX_GAP points is an error.
    """
    missing = series.missing
    if not missing.any():
        return series
    values = series.values.copy()
    observed = np.flatnonzero(~missing)
    for start, stop in _gap_runs(missing):
        _fill_run(values, observed, start, stop, series.timestamps)
    return RawSeries(series.sensor_id, series.timestamps, values)


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
    ya = values[anchors]
    best = None
    for degree in range(1, MAX_DEGREE + 1):
        if degree >= len(anchors):
            break  # underdetermined; lower degrees already interpolate
        coeffs = np.polyfit(ta, ya, degree)
        resid = float(np.sum((np.polyval(coeffs, ta) - ya) ** 2))
        if best is None or resid < best[0]:
            best = (resid, coeffs)
    tg = np.arange(start, stop) - t0
    values[start:stop] = np.polyval(best[1], tg)


def difference_standardize(series: RawSeries) -> StandardizedSeries:
    """First-order difference then standardize. The scale is the population
    standard deviation so the transform inverts exactly.
    """
    if series.missing.any():
        raise InvalidInputError("series must be gap-filled before standardizing")
    if len(series) < 2:
        raise InvalidInputError("need at least 2 points to difference")
    diffs = np.diff(series.values)
    scale = float(np.std(diffs))
    if scale == 0.0:
        raise DegenerateSeriesError("all first differences identical; cannot standardize")
    return standardize(series, float(np.mean(diffs)), scale)


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


def label_extremes(series: StandardizedSeries, epsilon: float) -> ExtremeLabels:
    """Label points outside the closed interval [-epsilon, epsilon] extreme."""
    if not (epsilon > 0):
        raise InvalidInputError("epsilon must be positive")
    return ExtremeLabels(epsilon=float(epsilon),
                         labels=np.abs(series.values) > epsilon)


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


def _hourly_row_starts(first: int, n: int) -> list[str]:
    """How the n rows of an hourly run from epoch second `first` start when
    written by `_format_timestamps`: each stamp and its comma, up to the end
    of year 9999. Built as the date text of each day joined to 24 hour
    suffixes."""
    day, second = divmod(first, 86400)
    hour, rest = divmod(second, HOUR)
    first_day = _EPOCH_ORDINAL + day
    if not 1 <= first_day <= date.max.toordinal():
        return []  # a UTC instant outside years 0001-9999 has no such text
    suffixes = ["T%02d:%02d:%02dZ," % (h, *divmod(rest, 60)) for h in range(24)]
    last_day = min(first_day + (hour + n - 1) // 24, date.max.toordinal())
    dates = [date.fromordinal(d).isoformat() for d in range(first_day, last_day + 1)]
    return list(islice(map("".join, product(dates, suffixes)), hour, hour + n))


def _parse_rows(rows: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and values of stripped, non-blank `timestamp,value` rows.

    Only the first stamp is parsed as a datetime. Row i is `first` plus i
    hours if its text starts with `_hourly_row_starts(first, n)[i]`; any
    other row's stamp is parsed on its own. A bad row raises ValueError or
    OverflowError, not necessarily the first bad row's.
    """
    if not rows:
        return np.empty(0, dtype=np.int64), np.empty(0)
    first = _parse_timestamp(rows[0].partition(",")[0])
    starts = _hourly_row_starts(first, len(rows))
    heads = map(getitem, rows, repeat(slice(_ROW_START_WIDTH)))
    off_run = list(compress(count(), map(ne, heads, starts)))
    off_run += range(len(starts), len(rows))  # rows past year 9999
    del starts  # before the cells are cut, to keep the peak memory low
    cells = list(map(getitem, rows, repeat(slice(_ROW_START_WIDTH, None))))
    timestamps = first + HOUR * np.arange(len(rows), dtype=np.int64)
    for i in off_run:
        ts_text, _, cells[i] = rows[i].partition(",")
        timestamps[i] = _parse_timestamp(ts_text)
    for i in compress(count(), map(not_, cells)):
        cells[i] = "nan"  # an empty cell is a gap
    return timestamps, np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))


def _raise_first_bad_row(path: Path, lines: list[str], first_lineno: int) -> None:
    """Raise the InvalidInputError of the first of the file's data `lines`,
    numbered from `first_lineno`, whose stamp or value does not parse."""
    for lineno, line in enumerate(lines, first_lineno):
        line = line.strip()
        if not line:
            continue
        ts_text, _, val_text = line.partition(",")
        try:
            _parse_timestamp(ts_text)
            if val_text:
                float(val_text)
        except (ValueError, OverflowError) as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from None


def _check_header(path: Path, line: str) -> None:
    if line.strip().split(",")[:2] != ["timestamp", "value"]:
        raise InvalidInputError(f"{path}: expected header 'timestamp,value'")


def _parse_lines(path: Path, lines: list[str],
                 first_lineno: Callable[[], int]) -> RawSeries:
    """The series of a file's data `lines`, skipping blank ones. A bad row
    is reported by its line number, counting the first of `lines` as line
    `first_lineno()`, which is called only then."""
    rows = list(filter(None, map(str.strip, lines)))
    try:
        timestamps, values = _parse_rows(rows)
    except (ValueError, OverflowError):
        _raise_first_bad_row(path, lines, first_lineno())
        raise
    return RawSeries(path.stem, timestamps, values)


def read_series_csv(path: str | Path) -> RawSeries:
    """Read a `timestamp,value` CSV; empty value fields are gaps. The file's
    stem is the sensor id.

    Timestamps must be continuous hourly ISO-8601 instants: a missing row is
    an error, a missing value is a gap. Every row is checked, in bulk (see
    `_parse_rows`); only a failure is traced back to its line.
    """
    path = Path(path)
    with reading(path):
        lines = path.read_text().split("\n")  # newlines are universal
    _check_header(path, lines[0])
    return _parse_lines(path, lines[1:], lambda: 2)


# A line ends at \n, \r\n or a lone \r, as text mode reads it.
_NEWLINE = re.compile(rb"\r\n|\r|\n")


def _whole_lines(block: bytes, first: bool, last: bool) -> tuple[int, list[str]]:
    """(offset, lines) of the whole text lines in `block`, a slice of a
    file: unless `first`, the block starts inside or at the start of a line
    that is dropped; unless `last`, the line the block ends in is dropped.
    `offset` is where the kept lines start in the block."""
    start = 0
    if not first:
        match = _NEWLINE.search(block)
        start = match.end() if match else len(block)
    end = len(block)
    if not last:
        end = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
    if end <= start:
        return start, []
    text = block[start:end].decode().replace("\r\n", "\n").replace("\r", "\n")
    return start, text.split("\n")


def _stamp_after(fh, pos: int, size: int) -> int | None:
    """Epoch seconds of the first row that starts after byte `pos` of the
    file `fh` and whose stamp parses; None if there is no such row."""
    n = 256
    while True:
        fh.seek(pos)
        block = fh.read(n)
        last = pos + len(block) >= size
        for line in _whole_lines(block, False, last)[1]:
            try:
                return _parse_timestamp(line.strip().partition(",")[0])
            except (ValueError, OverflowError):
                continue  # a blank or malformed row: try the next
        if last:
            return None
        n *= 4


def _seek_row(fh, lo: int, size: int, target: int, near: int) -> tuple[int, int]:
    """Byte offsets (lo, hi) of the file `fh`, at most `near` apart, such
    that the row stamped `target` of a sorted file starts after `lo` and no
    later than the first row after `hi`: a binary search, from `lo` to the
    end of the file, on the stamp of the first row after each probe."""
    hi = size
    while hi - lo > near:
        mid = (lo + hi) // 2
        stamp = _stamp_after(fh, mid, size)
        if stamp is None or stamp >= target:
            hi = mid
        else:
            lo = mid
    return lo, hi


def read_window(path: str | Path, timestamp: str | None, h: int) -> RawSeries:
    """The h + 1 gap-filled raw points of a `timestamp,value` CSV that end
    at the forecast origin `timestamp` (default: the last row): what a
    forecast reads.

    Only a span of rows around the window is read and checked, as
    `read_series_csv` checks the whole file. The origin is found by a
    binary search on byte offsets, which holds for a file of sorted
    rows, or in a tail of the file. The span grows until every gap that
    touches the window lies in it with its anchors; only those gaps are
    filled, with the values `fill_gaps` gives the whole series.
    """
    path = Path(path)
    target = None if timestamp is None else _origin_epoch(timestamp)
    with reading(path), path.open("rb") as fh:
        head = fh.readline()  # all of a file with \r line ends only
        match = _NEWLINE.search(head)
        _check_header(path, head[:match.start() if match else None].decode())
        data_start = match.end() if match else len(head)
        size = fh.seek(0, 2)
        fh.seek(data_start)
        width = 1 + max(map(len, fh.read(4096).splitlines()), default=0)  # per row
        centre = size
        before, after = width * (h + 8), width * 8
        if target is not None:
            lo, centre = _seek_row(fh, data_start, size, target, 8 * width)
            before += centre - lo
        while True:
            lo, hi = max(data_start, centre - before), min(size, centre + after)
            at_start, at_end = lo == data_start, hi == size
            fh.seek(lo)
            offset, lines = _whole_lines(fh.read(hi - lo), at_start, at_end)
            raw = _parse_lines(path, lines, lambda: _line_count(fh, lo + offset) + 1)
            stamps = raw.timestamps
            left_of = target is not None and (not len(stamps) or target < stamps[0])
            right_of = target is not None and (not len(stamps) or target > stamps[-1])
            if (left_of and not at_start) or (right_of and not at_end):
                grow_left, grow_right = left_of, right_of
            else:
                origin = origin_index(raw, timestamp)  # ConfigError if absent
                grow_left, grow_right = _short_sides(raw.missing, origin - h, origin)
            grow_left &= not at_start
            grow_right &= not at_end
            if not (grow_left or grow_right):
                break
            if grow_left:
                before *= 2
            if grow_right:
                after *= 2
    if origin - h < 0:
        raise DimensionError(f"need {h} history steps before the forecast origin")
    values = raw.values.copy()
    observed = np.flatnonzero(~raw.missing)
    for start, stop in _touching_runs(raw.missing, origin - h, origin):
        _fill_run(values, observed, start, stop, stamps)
    window = slice(origin - h, origin + 1)
    return RawSeries(raw.sensor_id, stamps[window], values[window])


def _line_count(fh, end: int) -> int:
    """How many lines end in the first `end` bytes of the file `fh`."""
    fh.seek(0)
    prefix = fh.read(end)
    return prefix.count(b"\n") + prefix.count(b"\r") - prefix.count(b"\r\n")


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


def origin_index(raw: RawSeries, timestamp: str | None) -> int:
    """Index of the last known raw value before the forecast; default: the end."""
    if timestamp is None:
        return len(raw) - 1
    target = _origin_epoch(timestamp)
    idx = np.searchsorted(raw.timestamps, target)
    if idx >= len(raw) or raw.timestamps[idx] != target:
        raise ConfigError(f"timestamp {timestamp} not present in input series")
    return int(idx)


def write_series_csv(path: str | Path, series: RawSeries) -> None:
    rows = (f"{ts},{'' if val != val else repr(val)}\n"  # val != val: NaN, a gap
            for ts, val in zip(_format_timestamps(series.timestamps),
                               series.values.tolist()))
    with writing(path):
        Path(path).write_text("timestamp,value\n" + "".join(rows))


def write_preprocessed(out_dir: str | Path, series: RawSeries,
                       std: StandardizedSeries, labels: ExtremeLabels) -> None:
    """Emit `preprocessed.csv` plus a `transform.meta` sidecar."""
    out_dir = Path(out_dir)
    path = out_dir / "preprocessed.csv"
    rows = (f"{ts},{val!r},{ext}\n" for ts, val, ext in zip(
        _format_timestamps(series.timestamps[1:]), std.values.tolist(),
        labels.labels.astype(np.int8).tolist()))
    with writing(path):
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(_PREPROCESSED_HEADER + "\n" + "".join(rows))
    kvtext.write(out_dir / "transform.meta", transform_meta(std, labels.epsilon))


def read_preprocessed(in_dir: str | Path):
    """Read what `write_preprocessed` wrote: (standardized series, extreme
    labels as a bool array, epsilon, the timestamp text of each point).
    Every value must be finite and every label 0 or 1."""
    path = Path(in_dir) / "preprocessed.csv"
    stamps, values, flags = [], [], []
    with reading(path), path.open() as fh:
        if fh.readline().strip() != _PREPROCESSED_HEADER:
            raise InvalidInputError(f"{path}: expected header {_PREPROCESSED_HEADER!r}")
        for line in fh:
            try:
                ts, val, ext = line.strip().split(",")
                values.append(float(val))
            except ValueError as exc:  # the header and each parsed row are one line
                lineno = len(values) + 2
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
            stamps.append(ts)
            flags.append(ext)
    std, epsilon = read_transform_meta(Path(in_dir) / "transform.meta", values)
    if not (np.isfinite(std.values).all() and {"0", "1"}.issuperset(flags)):
        for lineno, (val, flag) in enumerate(zip(values, flags), 2):
            if not np.isfinite(val):
                raise InvalidInputError(f"{path}:{lineno}: std_value {val!r} is not finite")
            if flag not in ("0", "1"):
                raise InvalidInputError(f"{path}:{lineno}: is_extreme {flag!r} is not 0 or 1")
    # every flag is now one ASCII character
    labels = np.frombuffer("".join(flags).encode(), dtype=np.uint8) == ord("1")
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
