"""Arithmetic the benchmark's figures rest on: medians, nearest-rank
percentiles, the tail-percentile rule, and windows trained from train.log.

Kept free of numpy and of necplus so the tests of the benchmark itself need
neither a trained run nor a BLAS.
"""

from __future__ import annotations

import math
import statistics

# Percentiles the benchmark may report as a tail, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(len(ordered), p) - 1])


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it, or None
    when even the median has fewer."""
    supported = [p for p in TAIL_LADDER if samples_beyond(n, p) >= MIN_BEYOND]
    return supported[-1] if supported else None


def _rank(n: int, p: float) -> int:
    return max(math.ceil(round(p / 100.0 * n, 9)), 1)


def trained_windows(log_text: str, volumes: dict) -> dict:
    """Windows each member trained: the epochs it ran, counted from the
    `model <m> epoch <i> ...` lines of train.log, times its sample volume."""
    epochs = {member: 0 for member in volumes}
    for line in log_text.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "model" and parts[2] == "epoch":
            epochs[parts[1]] += 1
    return {member: epochs[member] * volumes[member] for member in volumes}


def best_val_losses(log_text: str) -> dict:
    """Validation loss at each member's best epoch, as train.log records it."""
    best: dict = {}
    val: dict = {}
    for line in log_text.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "model" and parts[2] == "best_epoch":
            best[parts[1]] = int(parts[3])
        elif len(parts) >= 8 and parts[0] == "model" and parts[2] == "epoch":
            val[(parts[1], int(parts[3]))] = float(parts[7])
    return {member: val[(member, epoch)] for member, epoch in best.items()}
