"""Forecast metrics, per-class error decomposition, the exact
small-sample Wilcoxon signed-rank test, and a persistence baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedTestError, ZeroDenominatorError

EXACT_WILCOXON_MAX_N = 25


@dataclass(frozen=True)
class MetricReport:
    rmse_total: float
    rmse_normal: float | None
    rmse_extreme: float | None
    mape: float
    n_total: int
    n_normal: int
    n_extreme: int

    def csv_row(self, run_id: str, sensor: str) -> str:
        def fmt(value):
            return "" if value is None else repr(float(value))
        return (f"{run_id},{sensor},{fmt(self.rmse_total)},{fmt(self.rmse_normal)},"
                f"{fmt(self.rmse_extreme)},{fmt(self.mape)},"
                f"{self.n_total},{self.n_extreme}")


CSV_HEADER = "run_id,sensor,rmse_total,rmse_normal,rmse_extreme,mape,n_total,n_extreme"


def rmse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.size < 1:
        raise InvalidInputError("pred and truth must be equal-length, non-empty")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def row_rmse(pred, truth) -> np.ndarray:
    """RMSE of each row of (S, f) forecasts: one score per section."""
    return np.array([rmse(p, t) for p, t in zip(pred, truth)])


def mape(pred, truth) -> float:
    """Mean absolute percentage error, in percent."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.size < 1:
        raise InvalidInputError("pred and truth must be equal-length, non-empty")
    zeros = np.flatnonzero(truth == 0)
    if len(zeros):
        raise ZeroDenominatorError(
            f"truth is zero at indices {zeros.tolist()[:10]}")
    return float(np.mean(np.abs(pred - truth) / np.abs(truth)) * 100.0)


def per_class_report(pred, truth, labels) -> MetricReport:
    """Total/normal/extreme RMSE decomposition plus MAPE."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if not (pred.shape == truth.shape == labels.shape):
        raise InvalidInputError("pred, truth, and labels must share a shape")
    normal = ~labels
    return MetricReport(
        rmse_total=rmse(pred, truth),
        rmse_normal=rmse(pred[normal], truth[normal]) if normal.any() else None,
        rmse_extreme=rmse(pred[labels], truth[labels]) if labels.any() else None,
        mape=mape(pred, truth),
        n_total=int(pred.size),
        n_normal=int(normal.sum()),
        n_extreme=int(labels.sum()),
    )


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    n: int


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, each group of ties sharing its mean
    rank: `scipy.stats.rankdata(x)` for finite x. The ranks are integers
    or halves, so they are exact."""
    order = np.argsort(x)
    ordered = x[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]  # first of its tie group
    bounds = np.r_[np.flatnonzero(first), len(x)]
    ranks = np.empty(len(x))
    ranks[order] = (0.5 * (bounds[:-1] + 1 + bounds[1:]))[np.cumsum(first) - 1]
    return ranks


def wilcoxon_signed_rank(pairs) -> WilcoxonResult:
    """Exact two-sided Wilcoxon signed-rank test for n <= 25 pairs.

    T = min(W+, W-) over the signed ranks of |a - b| (average ranks on
    ties, zero differences dropped); the p-value comes from the exact
    distribution over all 2^n sign assignments.
    """
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidInputError("pairs must be an (n, 2) array")
    if not np.all(np.isfinite(pairs)):
        raise InvalidInputError("pairs must be finite")
    diffs = pairs[:, 0] - pairs[:, 1]
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        raise UndefinedTestError("all differences are zero")
    if n > EXACT_WILCOXON_MAX_N:
        raise InvalidInputError(
            f"exact enumeration supports at most {EXACT_WILCOXON_MAX_N} pairs")
    ranks = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    statistic = min(w_plus, w_minus)
    # Exact null distribution of W+ by convolution over doubled ranks
    # (doubling keeps tie-averaged half-ranks integral).
    doubled = np.rint(2 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:total + 1 - r]
        counts += shifted
    threshold = int(np.rint(2 * statistic))
    cdf = counts[:threshold + 1].sum() / 2.0 ** n
    return WilcoxonResult(statistic=statistic, p_value=float(min(1.0, 2.0 * cdf)), n=n)


def persistence_forecast(history, f: int) -> np.ndarray:
    """Repeat the last observed raw value f times; sanity-floor baseline.
    A stack of histories (S, n) gives (S, f)."""
    history = np.asarray(history, dtype=np.float64)
    if history.size < 1 or f < 1:
        raise InvalidInputError("need non-empty history and f >= 1")
    return np.repeat(history[..., -1:], f, axis=-1)
