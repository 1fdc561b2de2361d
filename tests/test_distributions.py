import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import norm

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_rejected(self, bad):
        xs = sample_gev(GevParams(0.0, 1.0, 0.1), 200, np.random.default_rng(5))
        xs[17] = bad
        with pytest.raises(InvalidInputError, match="sample must be finite"):
            fit_gev(xs)


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

    def test_fit_stopped_at_the_cap_returns_its_best_point(self):
        # the tight cluster's variance keeps falling below the floor, and
        # each re-seed drops the trace, until the cap: the last point taken
        # lies thousands of nats below the best
        rng = np.random.default_rng(1)
        xs = np.concatenate([rng.normal(0.0, 1e-3, 466), rng.normal(5.0, 10.0, 466)])
        model = fit_gmm(xs, 2, seed=3)
        trace = model.log_likelihood_trace
        assert trace[-1] < trace.max() - 1000.0
        joint = np.log(model.weights)[:, None] + norm.logpdf(
            xs[None, :], model.means[:, None], np.sqrt(model.variances)[:, None])
        assert logsumexp(joint, axis=0).sum() == pytest.approx(trace.max(),
                                                               rel=1e-12)

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

    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_rejected(self, bad, components):
        xs = np.arange(40.0)
        xs[7] = bad
        with pytest.raises(InvalidInputError, match="^sample must be finite$"):
            fit_gmm(xs, components)

    @pytest.mark.parametrize("components", [1, 2])
    def test_value_whose_square_overflows_is_rejected(self, components):
        xs = np.arange(40.0)
        xs[7] = -1e200
        with pytest.raises(InvalidInputError, match=r"magnitude 1e\+200 is too large"):
            fit_gmm(xs, components)

    @pytest.mark.parametrize("components", [1, 2, 3])
    def test_values_just_inside_the_limit_fit_without_overflow(self, components):
        # the suite turns an overflow's RuntimeWarning into an error
        xs = np.random.default_rng(3).normal(size=2000)
        limit = 0.5 * np.sqrt(np.finfo(float).max * distributions.VARIANCE_FLOOR / 2000)
        xs[5], xs[7] = 0.999 * limit, -0.999 * limit
        assert np.all(np.isfinite(fit_gmm(xs, components).log_likelihood_trace))


def heavy_tailed_sample(seed):
    """Student-t with df = 3 plus 2% wide spikes: tails past 100 sigma of the
    bulk, where a mixture's densities underflow."""
    rng = np.random.default_rng(100 + seed)
    return rng.standard_t(df=3, size=1500) + np.where(
        rng.random(1500) < 0.02, rng.normal(0, 30, 1500), 0.0)


def reference_em_step(xs, params, rng, start_variance):
    """fit_gmm's EM step, written independently: scipy's log-density and
    log-sum-exp in the E step, the same M step and re-seeding. Returns the
    log-likelihood at params, the M step's params and whether it re-seeded."""
    weights, means, variances = params
    joint = (norm.logpdf(xs, means[:, None], np.sqrt(variances)[:, None])
             + np.log(weights)[:, None])
    log_density = logsumexp(joint, axis=0)
    resp = np.exp(joint - log_density)
    nk = resp.sum(axis=1)
    means = resp @ xs / nk
    variances = resp @ xs ** 2 / nk - means ** 2
    collapsed = np.flatnonzero(variances < distributions.VARIANCE_FLOOR)
    for i in collapsed:
        means[i] = xs[rng.integers(len(xs))]
        variances[i] = start_variance
    return (float(np.sum(log_density)),
            (nk / len(xs), means, np.maximum(variances, distributions.VARIANCE_FLOOR)),
            len(collapsed) > 0)


def reference_start(xs, m):
    """fit_gmm's initial point and the variance a re-seed restores."""
    start_variance = max(float(np.var(xs)), distributions.VARIANCE_FLOOR)
    return ((np.full(m, 1.0 / m), np.quantile(xs, (np.arange(m) + 0.5) / m),
             np.full(m, start_variance)), start_variance)


def reference_fit_gmm(xs, m, seed):
    """Plain EM from fit_gmm's start, with its stopping rule: stop once a
    step gains less than EM_TOL, unless a re-seed came between."""
    rng = np.random.default_rng(seed)
    params, start_variance = reference_start(xs, m)
    trace = []
    prev_ll = -np.inf
    for _ in range(distributions.EM_MAX_ITER):
        ll, mapped, reseeded = reference_em_step(xs, params, rng, start_variance)
        trace.append(ll)
        if ll - prev_ll < distributions.EM_TOL:
            break
        prev_ll = -np.inf if reseeded else ll
        params = mapped
    weights, means, variances = params
    return GmmModel(weights / weights.sum(), means, variances, np.array(trace))


def reference_indicator(model, x):
    return (model.weights[:, None] * norm.pdf(
        x, model.means[:, None], np.sqrt(model.variances)[:, None])).sum(axis=0)


class TestAgainstScipy:
    """fit_gmm and gmm_indicator against references built on scipy, on heavy
    tails. The two EM steps round differently, so they are held to a
    tolerance measured on these 12 cases. fit_gmm's SQUAREM takes other
    steps than the reference's plain EM, so the fits are compared at the
    fixed point that both approach."""

    @pytest.mark.parametrize("components", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("start", ["quantiles", "fitted"])
    def test_em_map_matches_the_reference_step(self, components, seed, start):
        # every field lies within 5e-14 of its largest entry, and the
        # log-likelihood within 5e-14 of itself: the worst measured were
        # 3.3e-15 (variances) and 2.0e-16; means near 0 make a per-entry
        # relative bound meaningless
        xs = heavy_tailed_sample(seed)
        params, start_variance = reference_start(xs, components)
        if start == "fitted":
            model = reference_fit_gmm(xs, components, seed)
            params = (model.weights, model.means, model.variances)
        ll, mapped, reseeded = distributions._em_map(
            xs, xs ** 2, params, np.random.default_rng(seed), start_variance)
        want_ll, want, want_reseeded = reference_em_step(
            xs, params, np.random.default_rng(seed), start_variance)
        assert reseeded == want_reseeded
        assert abs(ll - want_ll) <= 5e-14 * abs(want_ll)
        for got, expected in zip(mapped, want):  # weights, means, variances
            assert np.max(np.abs(got - expected)) <= 5e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("components", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_gmm_reaches_the_reference_fixed_point(self, components, seed):
        # the cases where the reference converges within EM_MAX_ITER. Both
        # stop within EM_TOL per step of the fixed point, not on it: every
        # field lies within 1e-3 of its largest entry, where the worst
        # measured was 3.7e-4 (weights, M = 3, seed 1)
        xs = heavy_tailed_sample(seed)
        ours = fit_gmm(xs, components, seed=seed)
        reference = reference_fit_gmm(xs, components, seed)
        assert len(reference.log_likelihood_trace) < distributions.EM_MAX_ITER
        assert ours.log_likelihood_trace[-1] >= reference.log_likelihood_trace[-1] - 1e-6
        for name in ("weights", "means", "variances"):
            got, want = getattr(ours, name), getattr(reference, name)
            assert np.max(np.abs(got - want)) <= 1e-3 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_gmm_takes_a_third_of_the_reference_e_steps(self, seed, monkeypatch):
        # measured: 47, 40 and 45 E steps against 237, 359 and 217
        xs = heavy_tailed_sample(seed)
        reference = reference_fit_gmm(xs, 3, seed)
        calls = []  # one per E step
        log_joint = distributions._gmm_log_joint
        monkeypatch.setattr(distributions, "_gmm_log_joint",
                            lambda *args: calls.append(None) or log_joint(*args))
        fit_gmm(xs, 3, seed=seed)
        assert 3 * len(calls) <= len(reference.log_likelihood_trace)

    @pytest.mark.parametrize("components", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_gmm_trace_is_monotone(self, components, seed):
        # measured: every point taken gained, the least by 2e-11; M = 5,
        # seed 2 re-seeds, and its trace rises too
        model = fit_gmm(heavy_tailed_sample(seed), components, seed=seed)
        assert np.all(np.diff(model.log_likelihood_trace) >= -1e-9)

    @pytest.mark.parametrize("components", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_indicator_matches_the_scipy_density(self, components, seed):
        # exp carries its argument's absolute error into relative error, so
        # the bound grows with |log p|: 4 eps (1 + |log p|), where the worst
        # measured was 1.45 eps (1 + |log p|). Points 1e3 to 1e5 out are 0
        # in both or in neither; a wide spike component keeps 1e3 above 0.
        xs = heavy_tailed_sample(seed)
        model = fit_gmm(xs, components, seed=seed)
        points = np.concatenate([np.linspace(-60.0, 60.0, 2001), xs,
                                 [1e3, -1e3, 1e4, -1e4, 1e5, -1e5]])
        got, want = gmm_indicator(model, points), reference_indicator(model, points)
        assert np.array_equal(got == 0, want == 0)
        assert np.all(got[-2:] == 0)
        tail = want > 0
        bound = 4 * np.finfo(float).eps * (1 + np.abs(np.log(want[tail])))
        assert np.all(np.abs(got[tail] - want[tail]) <= bound * want[tail])

    def test_indicator_at_non_finite_points(self):
        model = fit_gmm(heavy_tailed_sample(0), 3)
        got = gmm_indicator(model, np.array([np.inf, -np.inf, np.nan]))
        assert got[0] == 0 and got[1] == 0 and np.isnan(got[2])
        assert gmm_indicator(model, np.inf) == 0.0


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

    @pytest.mark.parametrize("key", ["components", "weight_0", "mean_1", "variance_1"])
    def test_gmm_missing_key_names_file_and_key(self, tmp_path, key):
        path = tmp_path / "gmm.model"
        save_gmm(path, GmmModel(np.array([0.5, 0.5]), np.array([0.0, 1.0]),
                                np.array([1.0, 2.0])))
        path.write_text("".join(line for line in path.read_text().splitlines(True)
                                if not line.startswith(key + " ")))
        with pytest.raises(InvalidInputError) as err:
            load_gmm(path)
        assert str(err.value) == f"{path}: missing key '{key}'"

    @pytest.mark.parametrize("key", ["components", "weight_1", "mean_0", "variance_0"])
    def test_gmm_bad_value_names_file_and_key(self, tmp_path, key):
        path = tmp_path / "gmm.model"
        save_gmm(path, GmmModel(np.array([0.5, 0.5]), np.array([0.0, 1.0]),
                                np.array([1.0, 2.0])))
        path.write_text("".join(f"{key} x\n" if line.startswith(key + " ") else line
                                for line in path.read_text().splitlines(True)))
        with pytest.raises(InvalidInputError) as err:
            load_gmm(path)
        assert str(err.value) == f"{path}: bad value 'x' for key '{key}'"

    def test_gmm_bad_variance_names_file(self, tmp_path):
        path = tmp_path / "gmm.model"
        save_gmm(path, GmmModel(np.array([0.5, 0.5]), np.array([0.0, 1.0]),
                                np.array([1.0, 2.0])))
        path.write_text(path.read_text().replace("variance_0 1.0", "variance_0 nan"))
        with pytest.raises(InvalidInputError,
                           match="gmm.model: mixture variances must be finite"):
            load_gmm(path)
