import itertools

import numpy as np
import pytest
from scipy.stats import rankdata

from necplus import evaluation
from necplus.errors import (
    InvalidInputError,
    UndefinedTestError,
    ZeroDenominatorError,
)
from necplus.evaluation import (
    CSV_HEADER,
    mape,
    per_class_report,
    persistence_forecast,
    rmse,
    row_rmse,
    wilcoxon_signed_rank,
)


def exact_wilcoxon_oracle(pairs):
    """Brute-force p-value over all 2^n sign assignments."""
    diffs = pairs[:, 0] - pairs[:, 1]
    diffs = diffs[diffs != 0]
    n = len(diffs)
    ranks = rankdata(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    w_minus = ranks[diffs < 0].sum()
    t = min(w_plus, w_minus)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= t + 1e-9:
            count += 1
    return min(1.0, 2.0 * count / 2**n)


class TestRmseMape:
    def test_rmse_hand_case(self):
        assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(np.sqrt(12.5))

    def test_rmse_zero_on_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mape_doubling_is_hundred_percent(self):
        truth = np.array([2.0, 5.0, -3.0])
        assert mape(2 * truth, truth) == pytest.approx(100.0)

    def test_mape_zero_truth_rejected_with_indices(self):
        with pytest.raises(ZeroDenominatorError, match=r"\[1\]"):
            mape([1.0, 1.0], [2.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            rmse([1.0], [1.0, 2.0])


class TestPerClassReport:
    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(loc=10, size=200)
        truth = rng.normal(loc=10, size=200)
        labels = rng.uniform(size=200) < 0.2
        rep = per_class_report(pred, truth, labels)
        total_sq = rep.rmse_total**2 * rep.n_total
        parts_sq = (rep.rmse_normal**2 * rep.n_normal
                    + rep.rmse_extreme**2 * rep.n_extreme)
        assert total_sq == pytest.approx(parts_sq, rel=1e-12)
        assert rep.n_normal + rep.n_extreme == rep.n_total

    def test_empty_class_is_none(self):
        rep = per_class_report([1.0, 2.0], [1.5, 2.5],
                               [False, False])
        assert rep.rmse_extreme is None
        assert rep.rmse_normal == rep.rmse_total

    def test_csv_row_format(self):
        rep = per_class_report([1.0, 2.0], [2.0, 4.0], [False, True])
        row = rep.csv_row("run7", "sensorA")
        fields = row.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "run7" and fields[1] == "sensorA"
        assert fields[-2:] == ["2", "1"]

    def test_csv_row_blank_for_missing_class(self):
        rep = per_class_report([1.0], [2.0], [False])
        assert ",," in rep.csv_row("r", "s")


class TestWilcoxon:
    def test_single_smallest_win_of_nine(self):
        # nine paired losses, the method loses once by the smallest margin
        method = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.25])
        other = np.array([2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 9.0])
        result = wilcoxon_signed_rank(np.column_stack([method, other]))
        assert result.statistic == 1.0
        assert result.p_value == pytest.approx(0.0078125, abs=1e-12)
        assert result.n == 9

    def test_clean_sweep_of_nine(self):
        method = np.arange(1.0, 10.0)
        other = method + np.arange(1.0, 10.0)
        result = wilcoxon_signed_rank(np.column_stack([method, other]))
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(0.00390625, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(3, 12)
            pairs = rng.normal(size=(n, 2))
            if rng.uniform() < 0.5:  # force some ties in |diff|
                pairs[0, 0] = pairs[0, 1] + 0.5
                pairs[1, 0] = pairs[1, 1] - 0.5
            got = wilcoxon_signed_rank(pairs)
            assert got.p_value == pytest.approx(exact_wilcoxon_oracle(pairs),
                                                abs=1e-12)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        pairs = rng.normal(size=(10, 2))
        base = wilcoxon_signed_rank(pairs)
        moved = wilcoxon_signed_rank(pairs + 7.5)
        scaled = wilcoxon_signed_rank(pairs * 0.003)
        assert base.p_value == moved.p_value == scaled.p_value
        assert base.statistic == moved.statistic == scaled.statistic

    def test_zero_differences_dropped(self):
        pairs = np.array([[1.0, 1.0], [2.0, 3.0], [5.0, 4.0], [6.0, 6.0]])
        assert wilcoxon_signed_rank(pairs).n == 2

    def test_all_zero_differences_undefined(self):
        with pytest.raises(UndefinedTestError):
            wilcoxon_signed_rank(np.ones((4, 2)))

    def test_too_many_pairs_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InvalidInputError):
            wilcoxon_signed_rank(rng.normal(size=(26, 2)))

    def test_p_value_capped_at_one(self):
        # balanced case: T is near the distribution center
        pairs = np.array([[1.0, 2.0], [2.0, 1.0]])
        result = wilcoxon_signed_rank(pairs)
        assert result.p_value <= 1.0

    @pytest.mark.parametrize("pairs", [[[1.0, 2.0], [2.0, 1.0]],
                                       [[1.0, 2.0], [3.0, 5.0], [4.0, 4.5]]])
    def test_result_fields_are_python_numbers(self, pairs):
        # printed with repr by `necplus evaluate --wilcoxon`: p=0.5, not
        # p=np.float64(0.5)
        result = wilcoxon_signed_rank(np.array(pairs))
        assert type(result.p_value) is float and type(result.statistic) is float
        assert repr(result.p_value) == str(result.p_value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pairs_rejected(self, bad):
        pairs = np.array([[1.0, 2.0], [3.0, 5.0], [bad, 4.5]])
        with pytest.raises(InvalidInputError, match="finite"):
            wilcoxon_signed_rank(pairs)


@pytest.mark.parametrize("n", range(1, 26))
def test_average_ranks_equal_rankdata(n):
    rng = np.random.default_rng(n)
    samples = [rng.normal(size=n), np.abs(rng.normal(size=n)),
               rng.integers(0, max(2, n // 3), size=n).astype(float),
               np.round(rng.normal(size=n), 1), np.full(n, 0.25)]
    for x in samples:
        ranks = evaluation._average_ranks(x)
        assert ranks.dtype == np.float64
        assert np.array_equal(ranks, rankdata(x))


class TestPersistence:
    def test_repeats_last_value(self):
        np.testing.assert_array_equal(persistence_forecast([3.0, 7.0], 4),
                                      np.full(4, 7.0))

    def test_rmse_on_linear_ramp_closed_form(self):
        # truth continues a slope-s ramp; persistence stays flat, so the
        # error at step i is s*(i+1)
        s = 0.75
        history = np.arange(0.0, 10.0) * s
        f = 6
        truth = history[-1] + s * np.arange(1, f + 1)
        base = persistence_forecast(history, f)
        expected = s * np.sqrt(np.mean(np.arange(1, f + 1) ** 2.0))
        assert rmse(base, truth) == pytest.approx(expected, rel=1e-12)

    def test_empty_history_rejected(self):
        with pytest.raises(InvalidInputError):
            persistence_forecast([], 3)

    def test_stack_of_histories(self):
        histories = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        stacked = persistence_forecast(histories, 4)
        assert stacked.shape == (2, 4)
        for row, history in zip(stacked, histories):
            np.testing.assert_array_equal(row, persistence_forecast(history, 4))


def test_row_rmse_scores_each_row():
    rng = np.random.default_rng(9)
    pred, truth = rng.normal(size=(5, 7)), rng.normal(size=(5, 7))
    scores = row_rmse(pred, truth)
    assert scores.shape == (5,)
    assert scores.tolist() == [rmse(p, t) for p, t in zip(pred, truth)]
