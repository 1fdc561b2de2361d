"""Holdout split construction, the two-stage stratified training sampler
with oversampling ratio OS, and the gather that turns window origins into
batches.

A window origin ``o`` denotes a sample consuming inputs at indices
``[o, o+h)`` and targets at ``[o+h, o+h+f)``. Splits and sampling are
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInputError,
    SplitInfeasibleError,
    StratificationInfeasibleError,
    writing,
)


@dataclass(frozen=True)
class SplitSpec:
    """Holdout layout: per-set section count and the index ranges (half-open)
    in which sections may be placed."""

    h: int
    f: int
    holdout_sections: int = 24
    val_ranges: tuple[tuple[int, int], ...] = ()
    test_ranges: tuple[tuple[int, int], ...] = ()
    seed: int = 0


@dataclass(frozen=True)
class Split:
    train_mask: np.ndarray = field(repr=False)  # eligibility of window origins
    val_sections: tuple[tuple[int, int], ...]
    test_sections: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Windows:
    """A batch of B windows gathered from one feature matrix: h input rows
    of (value, indicator), f target values with their extreme
    labels, and each window's origin. An index array or a slice gives a
    sub-batch, an int one window."""

    input: np.ndarray        # (B, h, channels)
    target: np.ndarray       # (B, f)
    target_mask: np.ndarray  # (B, f) extreme labels of the target steps
    origins: np.ndarray      # (B,)

    def __len__(self) -> int:
        return len(self.origins)

    def __getitem__(self, index) -> Windows:
        return Windows(self.input[index], self.target[index],
                       self.target_mask[index], self.origins[index])


def gather_windows(features: np.ndarray, labels, origins, h: int,
                   f: int) -> Windows:
    """The windows at `origins` of an (n, channels) feature matrix, whose
    column 0 is the target series, in one gather. Origins must lie in
    [0, n - h - f]."""
    origins = np.asarray(origins, dtype=np.int64)
    rows = origins[:, None] + np.arange(h + f)
    return Windows(input=features[rows[:, :h]], target=features[rows[:, h:], 0],
                   target_mask=np.asarray(labels, dtype=bool)[rows[:, h:]],
                   origins=origins)


def _place_sections(ranges, count: int, f: int,
                    rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    """Randomly place `count` non-overlapping f-length sections inside the
    given ranges, dealt round-robin, largest capacity first, up to each
    range's capacity: capacities 100 and 10 with 20 sections get 10 and 10."""
    if count == 0:
        return ()
    if not ranges:
        raise SplitInfeasibleError("no ranges declared for holdout sections")
    capacities = [max((stop - start) // f, 0) for start, stop in ranges]
    if sum(capacities) < count:
        raise SplitInfeasibleError(
            f"ranges can host at most {sum(capacities)} non-overlapping "
            f"sections of length {f}, need {count}")
    # distribute: largest capacities first, round-robin remainder
    alloc = [0] * len(ranges)
    order = sorted(range(len(ranges)), key=lambda i: -capacities[i])
    remaining = count
    while remaining:
        for i in order:
            if remaining and alloc[i] < capacities[i]:
                alloc[i] += 1
                remaining -= 1
    sections = []
    for (start, stop), k in zip(ranges, alloc):
        if k == 0:
            continue
        # choose k non-overlapping starts by spacing k sections in the slack
        slots = (stop - start) - k * f
        offsets = np.sort(rng.choice(slots + 1, size=k, replace=True))
        starts = start + offsets + np.arange(k) * f
        sections.extend((int(s), int(s) + f) for s in starts)
    return tuple(sorted(sections))


def make_split(series_len: int, spec: SplitSpec) -> Split:
    """Build holdout sections and the leakage-free training origin mask.

    Every origin whose h+f window would touch any holdout section is
    excluded from training. A val range and a test range may touch but not
    overlap: a test section inside the val range would steer early stopping.
    """
    for v_lo, v_hi in spec.val_ranges:
        for t_lo, t_hi in spec.test_ranges:
            if max(v_lo, t_lo) < min(v_hi, t_hi):
                raise SplitInfeasibleError(
                    f"val range {v_lo}-{v_hi} overlaps test range {t_lo}-{t_hi}")
    rng = np.random.default_rng(spec.seed)
    val = _place_sections(spec.val_ranges, spec.holdout_sections, spec.f, rng)
    test = _place_sections(spec.test_ranges, spec.holdout_sections, spec.f, rng)
    window = spec.h + spec.f
    n_origins = series_len - window + 1
    if n_origins < 1:
        raise SplitInfeasibleError(
            f"series of length {series_len} cannot host an h+f={window} window")
    mask = np.ones(n_origins, dtype=bool)
    for start, stop in (*val, *test):
        lo = max(start - window + 1, 0)
        hi = min(stop, n_origins)
        mask[lo:hi] = False
    return Split(train_mask=mask, val_sections=val, test_sections=test)


def draw_samples(features: np.ndarray, labels, h: int, f: int, volume: int,
                 os_ratio: float, seed: int,
                 train_mask: np.ndarray | None = None) -> Windows:
    """Two-stage stratified sampler over the windows of an (n, channels)
    feature matrix.

    At least ceil(os_ratio * volume) samples have >=1 extreme label inside
    their f-length target section; the remainder is drawn uniformly from all
    eligible windows. OS=0 is exactly plain uniform sampling.
    """
    if volume < 1:
        raise InvalidInputError("volume must be >= 1")
    if not (0.0 <= os_ratio <= 1.0):
        raise InvalidInputError("os_ratio must lie in [0, 1]")
    labels = np.asarray(labels, dtype=bool)
    n_origins = len(features) - (h + f) + 1
    if n_origins < 1:
        raise InvalidInputError("series too short for a single h+f window")
    eligible = np.ones(n_origins, dtype=bool)
    if train_mask is not None:
        eligible &= np.asarray(train_mask[:n_origins], dtype=bool)
    origins = np.flatnonzero(eligible)
    if len(origins) == 0:
        raise InvalidInputError("no eligible training windows")
    # windows whose target section [o+h, o+h+f) holds at least one extreme
    extreme_count = np.convolve(labels.astype(np.int64), np.ones(f, dtype=np.int64),
                                mode="valid")  # index i -> extremes in [i, i+f)
    has_extreme = extreme_count[h:h + n_origins] > 0
    extreme_origins = origins[has_extreme[origins]]
    quota = math.ceil(os_ratio * volume)
    if quota > 0 and len(extreme_origins) == 0:
        raise StratificationInfeasibleError(
            "oversampling requested but no extreme-containing window exists")
    rng = np.random.default_rng(seed)
    # a draw of size 0 takes nothing from the generator
    chosen = np.concatenate([rng.choice(extreme_origins, size=quota, replace=True),
                             rng.choice(origins, size=volume - quota, replace=True)])
    return gather_windows(features, labels, chosen, h, f)


def dump_split_csv(path, split: Split) -> None:
    """Audit dump: `set,start_index` rows for holdout sections."""
    with writing(path), open(path, "w", encoding="utf-8") as fh:
        fh.write("set,start_index\n")
        for start, _ in split.val_sections:
            fh.write(f"val,{start}\n")
        for start, _ in split.test_sections:
            fh.write(f"test,{start}\n")
