import warnings

import numpy as np
import pytest
import scipy
from scipy.integrate import quad
from scipy.special import logsumexp

from necplus import distributions
from necplus.distributions import (
    GevParams,
    GmmModel,
    fit_gaussian,
    fit_gev,
    fit_gmm,
    fit_quality,
    freedman_diaconis_bins,
    gaussian_pdf,
    gev_cdf,
    gev_pdf,
    gmm_indicator,
    load_gmm,
    sample_gev,
    save_gmm,
)
from necplus.errors import FitFailureError, InvalidInputError


class TestGevCdf:
    def test_at_location(self):
        for shape in (0.5, -0.3, 1e-3):
            assert gev_cdf(0.0, GevParams(0.0, 1.0, shape)) == pytest.approx(
                np.exp(-1.0))

    def test_gumbel_branch_at_location(self):
        assert gev_cdf(2.0, GevParams(2.0, 3.0, 0.0)) == pytest.approx(np.exp(-1.0))

    def test_support_boundary_and_monotone(self):
        p = GevParams(0.0, 1.0, 0.5)
        assert gev_cdf(-2.0, p) == 0.0
        grid = np.linspace(-5, 20, 1000)
        vals = gev_cdf(grid, p)
        assert np.all(np.diff(vals) >= 0)

    def test_negative_shape_upper_tail(self):
        p = GevParams(0.0, 1.0, -0.5)
        assert gev_cdf(3.0, p) == 1.0  # above the upper endpoint at 2

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            gev_cdf(np.nan, GevParams(0.0, 1.0, 0.1))

    def test_gumbel_branch_continuity(self):
        grid = np.linspace(-3, 10, 200)
        tol = 1e-8  # the branching threshold
        for shape in (tol, -tol):
            near = gev_cdf(grid, GevParams(0.0, 1.0, shape * 1.0001))
            gumbel = gev_cdf(grid, GevParams(0.0, 1.0, 0.0))
            assert np.max(np.abs(near - gumbel)) <= 1e-6


class TestGevPdf:
    def test_gumbel_mode(self):
        assert gev_pdf(0.0, GevParams(0.0, 1.0, 0.0)) == pytest.approx(
            np.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("shape", [0.0, 0.3, -0.3])
    def test_integrates_to_one(self, shape):
        p = GevParams(0.0, 1.0, shape)
        if shape > 0:
            lo, hi = -1.0 / shape + 1e-12, 200.0
        elif shape < 0:
            lo, hi = -60.0, -1.0 / shape - 1e-12
        else:
            lo, hi = -20.0, 200.0
        total, _ = quad(lambda x: gev_pdf(x, p), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("shape", [0.0, 0.2, -0.2])
    def test_matches_cdf_finite_difference(self, shape):
        p = GevParams(0.5, 2.0, shape)
        rng = np.random.default_rng(3)
        xs = sample_gev(p, 100, rng)
        h = 1e-5
        numeric = (gev_cdf(xs + h, p) - gev_cdf(xs - h, p)) / (2 * h)
        np.testing.assert_allclose(gev_pdf(xs, p), numeric, atol=1e-6)

    def test_nonnegative_everywhere(self):
        p = GevParams(0.0, 1.0, 0.4)
        grid = np.linspace(-10, 50, 500)
        assert np.all(gev_pdf(grid, p) >= 0)


class TestFitGev:
    def test_gumbel_samples_recover_zero_shape(self):
        rng = np.random.default_rng(11)
        xs = sample_gev(GevParams(0.0, 1.0, 0.0), 10_000, rng)
        fitted = fit_gev(xs)
        assert abs(fitted.shape) < 0.05

    def test_positive_shape_recovered(self):
        rng = np.random.default_rng(12)
        xs = sample_gev(GevParams(0.0, 1.0, 0.3), 10_000, rng)
        fitted = fit_gev(xs)
        assert 0.2 < fitted.shape < 0.4

    # bounded upper tails; at shape -0.4, n 1000, seed 3 the moment
    # estimate alone ends the support inside the sample
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("shape", [-0.4, -0.2])
    def test_bounded_tail_covers_every_sample(self, shape, n, seed):
        xs = sample_gev(GevParams(0.0, 1.0, shape), n, np.random.default_rng(seed))
        fitted = fit_gev(xs)
        assert np.all(1.0 + fitted.shape * (xs - fitted.location) / fitted.scale > 0)
        assert shape - 0.15 < fitted.shape < 0

    def test_constant_sample_fails(self):
        with pytest.raises(FitFailureError):
            fit_gev(np.ones(100))

    def test_too_few_samples(self):
        with pytest.raises(FitFailureError):
            fit_gev(np.arange(10.0))


class TestFitGaussian:
    def test_zero_scale_rejected(self):
        with pytest.raises(FitFailureError):
            fit_gaussian([0.0, 0.0, 0.0, 0.0])

    def test_hand_computed(self):
        assert fit_gaussian([1.0, 3.0]) == (2.0, 1.0)

    def test_symmetric_location(self):
        loc, _ = fit_gaussian([-4.0, -1.0, 1.0, 4.0])
        assert loc == 0.0


class TestFitGmm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(3.0, 2.0, size=200)
        model = fit_gmm(xs, 1)
        assert model.weights.tolist() == [1.0]
        assert model.means[0] == np.mean(xs)
        assert model.variances[0] == np.mean((xs - np.mean(xs)) ** 2)

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(6)
        xs = np.concatenate([rng.normal(-5, 1, 500), rng.normal(5, 1, 500)])
        model = fit_gmm(xs, 2, seed=0)
        means = np.sort(model.means)
        assert abs(means[0] + 5) < 0.1 and abs(means[1] - 5) < 0.1
        np.testing.assert_allclose(np.sort(model.weights), [0.5, 0.5], atol=0.05)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.normal(0, 1, 300), rng.normal(2, 0.5, 200)])
        model = fit_gmm(xs, 3, seed=1)
        trace = model.log_likelihood_trace
        assert np.all(np.diff(trace) >= -1e-9)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(8)
        xs = rng.standard_t(df=3, size=400)
        a = fit_gmm(xs, 3, seed=9)
        b = fit_gmm(xs, 3, seed=9)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=500)
        model = fit_gmm(xs, 4, seed=2)
        assert abs(model.weights.sum() - 1.0) <= 1e-12
        assert np.all(model.weights > 0)
        assert np.all(model.variances >= 1e-6)

    def test_more_components_than_distinct_values(self):
        with pytest.raises(FitFailureError):
            fit_gmm(np.array([1.0, 2.0] * 20), 3)

    def test_too_few_samples(self):
        with pytest.raises(FitFailureError):
            fit_gmm(np.arange(15.0), 2)

    @pytest.mark.parametrize("components", [1, 2])
    def test_negative_seed_rejected(self, components):
        with pytest.raises(InvalidInputError, match="seed"):
            fit_gmm(np.arange(40.0), components, seed=-1)


# scipy 1.15 moved logsumexp to the separated-maximum log1p form that
# distributions._logsumexp0 reproduces; older versions round differently.
needs_log1p_logsumexp = pytest.mark.skipif(
    tuple(int(p) for p in scipy.__version__.split(".")[:2]) < (1, 15),
    reason="scipy < 1.15 computes logsumexp with another formula")


def quiet_logsumexp0(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return distributions._logsumexp0(a)


@needs_log1p_logsumexp
class TestLogSumExp:
    """The numpy log-sum-exp must give scipy's bits. Both run in the same
    process, never against stored floats, since np.exp differs between
    CPU backends."""

    def test_random_shapes_and_scales(self):
        rng = np.random.default_rng(0)
        for m in range(1, 6):
            for n in range(1, 501):
                a = (rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3)
                     + rng.uniform(-1e3, 1e3))
                assert np.array_equal(quiet_logsumexp0(a), logsumexp(a, axis=0))

    @pytest.mark.parametrize("column", [
        [1.0, 1.0], [2.0, 2.0, 2.0], [0.5, 2.0, 2.0, -1.0],
        [-np.inf, 0.0], [-np.inf, -np.inf, 3.0], [-np.inf], [-np.inf] * 4,
        [np.inf, 1.0], [np.inf, np.inf], [np.inf, -np.inf], [-np.inf, np.inf, 2.0],
        [np.nan, 1.0], [np.nan, np.inf], [np.nan, -np.inf], [np.nan] * 3,
        [1e308, 1e308], [-1e308, 0.0], [800.0, 799.0, 800.0],
    ])
    def test_ties_and_non_finite_columns(self, column):
        rng = np.random.default_rng(len(column))
        column = np.array(column)
        a = np.column_stack([column, rng.standard_normal(len(column)), column[::-1]])
        got = quiet_logsumexp0(a)
        assert np.array_equal(got, logsumexp(a, axis=0), equal_nan=True)
        assert np.array_equal(quiet_logsumexp0(column[:, None]),
                              logsumexp(column[:, None], axis=0), equal_nan=True)

    @pytest.mark.parametrize("components", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_gmm_equals_the_scipy_fit(self, monkeypatch, components, seed):
        rng = np.random.default_rng(100 + seed)
        xs = rng.standard_t(df=3, size=1500) + np.where(
            rng.random(1500) < 0.02, rng.normal(0, 30, 1500), 0.0)
        ours = fit_gmm(xs, components, seed=seed)
        monkeypatch.setattr(distributions, "_logsumexp0",
                            lambda a: logsumexp(a, axis=0))
        reference = fit_gmm(xs, components, seed=seed)
        for name in ("weights", "means", "variances", "log_likelihood_trace"):
            assert np.array_equal(getattr(ours, name), getattr(reference, name)), name


class TestGmmModel:
    @pytest.mark.parametrize("weights,means,variances,message", [
        ([0.5, 0.5], [0.0], [1.0, 1.0], "equal length"),
        ([[0.5, 0.5]], [[0.0, 1.0]], [[1.0, 1.0]], "1-D"),
        ([1.5, -0.5], [0.0, 1.0], [1.0, 1.0], "weights must be finite"),
        ([np.nan, 1.0], [0.0, 1.0], [1.0, 1.0], "weights must be finite"),
        ([0.5, 0.4], [0.0, 1.0], [1.0, 1.0], "sum to 1"),
        ([0.5, 0.5], [0.0, np.inf], [1.0, 1.0], "means must be finite"),
        ([0.5, 0.5], [0.0, 1.0], [-0.5, 1.0], "variances must be finite"),
        ([0.5, 0.5], [0.0, 1.0], [0.0, 1.0], "variances must be finite"),
        ([0.5, 0.5], [0.0, 1.0], [np.nan, 1.0], "variances must be finite"),
    ])
    def test_invalid_arrays_rejected(self, weights, means, variances, message):
        with pytest.raises(InvalidInputError, match=message):
            GmmModel(np.array(weights), np.array(means), np.array(variances))


class TestGmmIndicator:
    def test_standard_normal_density_at_zero(self):
        model = GmmModel(np.array([1.0]), np.array([0.0]), np.array([1.0]))
        assert gmm_indicator(model, 0.0) == pytest.approx(1 / np.sqrt(2 * np.pi))

    def test_symmetric_model_symmetric_indicator(self):
        model = GmmModel(np.array([0.5, 0.5]), np.array([-2.0, 2.0]),
                         np.array([1.5, 1.5]))
        xs = np.linspace(0, 6, 50)
        np.testing.assert_allclose(gmm_indicator(model, xs),
                                   gmm_indicator(model, -xs), rtol=1e-12)

    def test_density_integrates_to_one(self):
        model = GmmModel(np.array([0.3, 0.7]), np.array([-1.0, 3.0]),
                         np.array([0.5, 2.0]))
        total, _ = quad(lambda x: gmm_indicator(model, x), -40, 40, limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestFitQuality:
    def test_own_step_density_scores_zero(self):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=1000)
        hist, edges = np.histogram(xs, bins=30, density=True)

        def step_pdf(x):
            idx = np.clip(np.searchsorted(edges, x) - 1, 0, len(hist) - 1)
            return hist[idx]

        assert fit_quality(xs, step_pdf, bins=30) == 0.0

    def test_single_bin(self):
        xs = np.array([0.0, 1.0, 2.0])
        score = fit_quality(xs, lambda x: np.full_like(x, 0.5), bins=1)
        assert score == pytest.approx(abs(1 / 2.0 - 0.5))

    def test_gaussian_fit_worse_than_gev_on_gev_data(self):
        rng = np.random.default_rng(42)
        xs = sample_gev(GevParams(0.0, 1.0, 0.3), 100_000, rng)
        gev_hat = fit_gev(xs)
        loc, scale = fit_gaussian(xs)
        bins = freedman_diaconis_bins(xs)
        gauss_score = fit_quality(xs, lambda x: gaussian_pdf(x, loc, scale), bins)
        gev_score = fit_quality(xs, lambda x: gev_pdf(x, gev_hat), bins)
        assert gauss_score > gev_score


class TestSerialization:
    def test_gmm_round_trip(self, tmp_path):
        model = GmmModel(np.array([0.25, 0.75]), np.array([-1.1, 2.2]),
                         np.array([0.3, 1.7]))
        path = tmp_path / "gmm.model"
        save_gmm(path, model)
        back = load_gmm(path)
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.means, model.means)
        np.testing.assert_array_equal(back.variances, model.variances)

    @pytest.mark.parametrize("key", ["components", "mean_1"])
    def test_gmm_missing_key_names_file_and_key(self, tmp_path, key):
        path = tmp_path / "gmm.model"
        save_gmm(path, GmmModel(np.array([0.5, 0.5]), np.array([0.0, 1.0]),
                                np.array([1.0, 2.0])))
        path.write_text("".join(line for line in path.read_text().splitlines(True)
                                if not line.startswith(key + " ")))
        with pytest.raises(InvalidInputError, match=f"gmm.model: missing key '{key}'"):
            load_gmm(path)

    def test_gmm_bad_variance_names_file(self, tmp_path):
        path = tmp_path / "gmm.model"
        save_gmm(path, GmmModel(np.array([0.5, 0.5]), np.array([0.0, 1.0]),
                                np.array([1.0, 2.0])))
        path.write_text(path.read_text().replace("variance_0 1.0", "variance_0 nan"))
        with pytest.raises(InvalidInputError,
                           match="gmm.model: mixture variances must be finite"):
            load_gmm(path)
