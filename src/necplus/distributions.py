"""Gaussian, GEV, and Gaussian-mixture fitting, the mixture-density
indicator feature, and a histogram-based fit-quality diagnostic. The GEV
is fitted by probability-weighted moments (Hosking, Wallis & Wood 1985,
Technometrics 27(3)), which assume shape < 1; a bounded support that ends
inside the sample is widened to one mean spacing past it.

Mixtures are univariate: the indicator is computed on the standardized
scalar series. EM normalizes each point's densities after shifting their
logs by the largest, the stable log-sum-exp (Blanchard, Higham & Higham
2021, IMA J. Numer. Anal. 41(4)). SQUAREM (Varadhan & Roland 2008, Scand.
J. Statist. 35(2)) extrapolates from each two EM steps, and a point it
proposes is taken only if its log-likelihood is no lower than the first
step's, so the fit's trace rises monotonically between re-seeds.
EM_MAX_ITER counts E steps. Fitting is deterministic for a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kvtext
from .errors import FitFailureError, InvalidInputError

XI_TOL = 1e-8
VARIANCE_FLOOR = 1e-6
EM_TOL = 1e-7  # stop once an EM step gains less log-likelihood than this
EM_MAX_ITER = 500  # E steps, those of rejected SQUAREM points included
_EULER = 0.57721566490153286


@dataclass(frozen=True)
class GevParams:
    location: float
    scale: float
    shape: float

    def __post_init__(self):
        if not (self.scale > 0):
            raise InvalidInputError("GEV scale must be positive")


@dataclass(frozen=True)
class GmmModel:
    """Univariate M-component Gaussian mixture."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood_trace: np.ndarray = field(repr=False, default_factory=lambda: np.array([]))

    def __post_init__(self):
        w, mu, var = (np.asarray(a, dtype=np.float64)
                      for a in (self.weights, self.means, self.variances))
        if not (w.ndim == mu.ndim == var.ndim == 1 and len(w) == len(mu) == len(var)):
            raise InvalidInputError(
                "mixture weights, means and variances must be 1-D and of equal length")
        # each test is written to fail on NaN
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise InvalidInputError("mixture weights must be finite and non-negative")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise InvalidInputError("mixture weights must sum to 1")
        if not np.all(np.isfinite(mu)):
            raise InvalidInputError("mixture means must be finite")
        if not np.all(np.isfinite(var) & (var > 0)):
            raise InvalidInputError("mixture variances must be finite and positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def n_components(self) -> int:
        return len(self.weights)


# ---------------------------------------------------------------------------
# GEV


def _gev_z(x, p: GevParams):
    return 1.0 + p.shape * (np.asarray(x, dtype=np.float64) - p.location) / p.scale


def gev_cdf(x, p: GevParams):
    """GEV CDF with a Gumbel branch for |shape| < XI_TOL.

    Outside the support the CDF is 0 on the lower tail (shape > 0) and 1 on
    the upper tail (shape < 0).
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x must be finite")
    if abs(p.shape) < XI_TOL:
        out = np.exp(-np.exp(-(x - p.location) / p.scale))
    else:
        z = np.atleast_1d(_gev_z(x, p))
        out = np.full(z.shape, 1.0 if p.shape < 0 else 0.0)
        inside = z > 0
        with np.errstate(over="ignore"):  # overflow -> inf -> exp(-inf) = 0
            out[inside] = np.exp(-z[inside] ** (-1.0 / p.shape))
        out = out.reshape(np.shape(x))
    return out if out.ndim else float(out)


def gev_pdf(x, p: GevParams):
    """Analytic derivative of :func:`gev_cdf`; zero outside the support."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x must be finite")
    if abs(p.shape) < XI_TOL:
        t = np.exp(-(x - p.location) / p.scale)
        out = t * np.exp(-t) / p.scale
    else:
        z = np.atleast_1d(_gev_z(x, p))
        out = np.zeros(z.shape)
        inside = z > 0
        # log domain: z**(-1/xi) can overflow near the support edge, where
        # the density limit is 0
        with np.errstate(over="ignore"):
            t = z[inside] ** (-1.0 / p.shape)
            out[inside] = np.exp(
                (-1.0 / p.shape - 1.0) * np.log(z[inside]) - t) / p.scale
        out = out.reshape(np.shape(x))
    return out if out.ndim else float(out)


def fit_gev(xs) -> GevParams:
    """Probability-weighted-moment GEV fit (Hosking, Wallis & Wood 1985):
    closed form, valid for shape < 1 (a heavier tail reads below 1). A
    support endpoint that does not lie strictly outside the sample moves to
    one mean spacing past it, keeping location and scale."""
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    if not np.all(np.isfinite(xs)):
        raise InvalidInputError("sample must be finite")
    n = len(xs)
    if n < 50:
        raise FitFailureError("need at least 50 samples to fit a GEV")
    if float(np.std(xs)) == 0.0:
        raise FitFailureError("degenerate sample: zero variance")
    j = np.arange(n, dtype=np.float64)
    b0 = float(np.mean(xs))
    b1 = float(j @ xs) / (n * (n - 1))
    b2 = float((j * (j - 1)) @ xs) / (n * (n - 1) * (n - 2))
    l2 = 2.0 * b1 - b0  # the second L-moment: positive
    c = l2 / (3.0 * b2 - b0) - math.log(2.0) / math.log(3.0)
    k = 7.8590 * c + 2.9554 * c * c  # in Hosking's sign: shape = -k
    if abs(k) < XI_TOL:
        scale = l2 / math.log(2.0)
        return GevParams(b0 - _EULER * scale, scale, 0.0)
    g = math.gamma(1.0 + k)
    scale = l2 * k / (g * (1.0 - 2.0 ** -k))
    location = b0 + scale * (g - 1.0) / k
    end = location + scale / k  # the support's finite endpoint
    edge = xs[-1] if k > 0 else xs[0]  # the extreme sample on the bounded side
    if (end - edge) * k <= 0:
        end = edge + math.copysign((xs[-1] - xs[0]) / (n - 1), k)
    params = GevParams(location, scale, float(scale / (location - end)))
    if np.any(_gev_z(xs, params) <= 0):
        raise FitFailureError(
            f"fitted parameters {params} do not cover all samples")
    return params


def sample_gev(p: GevParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling; used for synthetic data and diagnostics."""
    u = rng.uniform(size=size)
    if abs(p.shape) < XI_TOL:
        return p.location - p.scale * np.log(-np.log(u))
    return p.location + p.scale * ((-np.log(u)) ** (-p.shape) - 1.0) / p.shape


# ---------------------------------------------------------------------------
# Gaussian


def fit_gaussian(xs) -> tuple[float, float]:
    """Sample mean and population standard deviation."""
    xs = np.asarray(xs, dtype=np.float64)
    scale = float(np.std(xs))
    if scale == 0.0:
        raise FitFailureError("degenerate sample: zero scale")
    return float(np.mean(xs)), scale


def gaussian_pdf(x, location: float, scale: float):
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-0.5 * ((x - location) / scale) ** 2) / (scale * np.sqrt(2 * np.pi))


# ---------------------------------------------------------------------------
# GMM


def _gmm_log_joint(weights, means, variances, x: np.ndarray) -> np.ndarray:
    """log(weight * normal density), one row per component, in the log
    domain because tails sit ~100 sigma out. A component of weight 0 has
    the row -inf, so it adds exactly 0 to the density."""
    joint = np.subtract(x[None, :], means[:, None])
    np.square(joint, out=joint)
    joint *= -0.5
    joint /= variances[:, None]
    joint -= 0.5 * np.log(2 * np.pi * variances[:, None])
    with np.errstate(divide="ignore"):
        joint += np.log(weights)[:, None]
    return joint


def _em_map(xs, xs_squared, params, rng, start_variance):
    """One EM step from params = (weights, means, variances): the
    log-likelihood at params, the M step's params, and whether the M step
    re-seeded a collapsed component."""
    joint = _gmm_log_joint(*params, xs)  # E step
    shift = joint.max(axis=0)
    joint -= shift
    resp = np.exp(joint, out=joint)
    total = resp.sum(axis=0)
    resp /= total
    ll = float(np.sum(np.log(total) + shift))
    nk = resp.sum(axis=1)  # M step
    means = resp @ xs / nk
    variances = (resp @ xs_squared / nk) - means ** 2
    collapsed = np.flatnonzero(variances < VARIANCE_FLOOR)
    for i in collapsed:
        means[i] = xs[rng.integers(len(xs))]
        variances[i] = start_variance
    mapped = (nk / len(xs), means, np.maximum(variances, VARIANCE_FLOOR))
    return ll, mapped, len(collapsed) > 0


def _extrapolate(p0, p1, p2, lo: float, hi: float):
    """SQUAREM's point from the EM iterates p0 -> p1 -> p2, taken over
    (weights, means, log variances) with the step length -max(1, |r|/|v|).
    None unless its weights are positive (they are then renormalized), it
    is finite, its variances are at or above the floor, and its means lie
    in the data's range [lo, hi], as every M step's do."""
    t0, t1, t2 = (np.concatenate([w, mu, np.log(var)]) for w, mu, var in (p0, p1, p2))
    r = t1 - t0
    v = t2 - 2 * t1 + t0
    v_norm = np.linalg.norm(v)
    if not v_norm > 0:
        return None
    alpha = -max(1.0, np.linalg.norm(r) / v_norm)
    with np.errstate(over="ignore", invalid="ignore"):
        weights, means, log_variances = np.split(t0 - 2 * alpha * r + alpha ** 2 * v, 3)
        variances = np.exp(log_variances)
    if not (np.all((weights > 0) & np.isfinite(weights))
            and np.all((means >= lo) & (means <= hi))
            and np.all(np.isfinite(variances) & (variances >= VARIANCE_FLOOR))):
        return None
    return weights / weights.sum(), means, variances


def fit_gmm(xs, n_components: int, seed: int = 0) -> GmmModel:
    """EM fit of a univariate mixture, accelerated by SQUAREM (Varadhan &
    Roland 2008, Scand. J. Statist. 35(2)).

    Means start at the (i-0.5)/M quantiles with uniform weights and the
    sample variance for every component; this is deterministic and survives
    the heavy tails that defeat random initialization. The E step shifts a
    point's log joint densities by their maximum, so their exponentials sum
    to at least 1: the sum normalizes the responsibilities, and its log plus
    the shift is the point's log-likelihood. A component whose variance
    collapses below the floor is re-seeded at a random data point.

    Each cycle takes two EM steps, p0 -> p1 -> p2, and extrapolates from
    them (`_extrapolate`). The fit takes the extrapolated point only if its
    own E step gives at least p1's log-likelihood without a re-seed, and
    then goes on from that point's M step; otherwise it goes on from p2. A
    cycle whose EM steps re-seed does not extrapolate. The log-likelihood
    trace records the points taken, so it rises monotonically between
    re-seeds. The fit returns the first point that gains less than EM_TOL
    on the one taken before it, unless a re-seed came between them.
    EM_MAX_ITER caps the E steps, a rejected point's included; at the cap
    the fit returns the point of the highest log-likelihood taken, as
    re-seeds can leave the last one far below it.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all(np.isfinite(xs)):
        raise InvalidInputError("sample must be finite")
    m = int(n_components)
    if m < 1:
        raise InvalidInputError("need at least one component")
    if seed < 0:
        raise InvalidInputError("seed must be non-negative")
    if len(xs) < 10 * m:
        raise FitFailureError(f"need at least {10 * m} samples for M={m}")
    # so that every squared deviation within the data's range, over the
    # variance floor, and their sum over the sample stay finite
    limit = 0.5 * math.sqrt(np.finfo(np.float64).max * VARIANCE_FLOOR / len(xs))
    lo, hi = float(np.min(xs)), float(np.max(xs))
    largest = max(-lo, hi)
    if largest > limit:
        raise InvalidInputError(f"sample value of magnitude {largest:.6g} is too large: "
                                f"squared deviations overflow above {limit:.6g}")
    if len(np.unique(xs)) < m:
        raise FitFailureError("more components than distinct values")
    if m == 1:
        # EM fixed point in closed form: the sample moments
        mean = float(np.mean(xs))
        var = max(float(np.mean((xs - mean) ** 2)), VARIANCE_FLOOR)
        weights, means, variances = np.array([1.0]), np.array([mean]), np.array([var])
        ll = float(np.sum(_gmm_log_joint(weights, means, variances, xs)))
        return GmmModel(weights, means, variances, np.array([ll]))
    rng = np.random.default_rng(seed)
    xs_squared = xs ** 2
    start_variance = max(float(np.var(xs)), VARIANCE_FLOOR)
    point = (np.full(m, 1.0 / m), np.quantile(xs, (np.arange(m) + 0.5) / m),
             np.full(m, start_variance))
    trace = []
    e_steps = 0
    last_ll = -np.inf  # -inf after a re-seed: the next point is not compared
    best = (-np.inf, point)
    fitted = point  # what the fit returns if it stops now

    def em(params):
        nonlocal e_steps
        e_steps += 1
        return _em_map(xs, xs_squared, params, rng, start_variance)

    def take(ll, params, reseeded) -> bool:
        """Record a point taken; True once the fit stops."""
        nonlocal last_ll, best, fitted
        trace.append(ll)
        converged = ll - last_ll < EM_TOL
        last_ll = -np.inf if reseeded else ll
        if ll > best[0]:
            best = (ll, params)
        fitted = params if converged else best[1]
        return converged or e_steps >= EM_MAX_ITER

    while True:
        ll0, p1, reseeded1 = em(point)
        if take(ll0, point, reseeded1):
            break
        ll1, p2, reseeded2 = em(p1)
        if take(ll1, p1, reseeded2):
            break
        candidate = (None if reseeded1 or reseeded2
                     else _extrapolate(point, p1, p2, lo, hi))
        point = p2
        if candidate is None:
            continue
        ll, mapped, reseeded = em(candidate)
        if not reseeded and ll >= ll1:
            if take(ll, candidate, False):
                break
            point = mapped
        elif e_steps >= EM_MAX_ITER:
            break
    weights, means, variances = fitted
    return GmmModel(weights / weights.sum(), means, variances, np.asarray(trace))


def gmm_indicator(model: GmmModel, x):
    """Mixture density at x: the indicator feature fed to the forecasters."""
    x = np.asarray(x, dtype=np.float64)
    joint = _gmm_log_joint(model.weights, model.means, model.variances,
                           np.atleast_1d(x))
    out = np.exp(joint, out=joint).sum(axis=0)
    return out if x.ndim else float(out[0])


# ---------------------------------------------------------------------------
# Fit-quality diagnostic


def freedman_diaconis_bins(xs, minimum: int = 20) -> int:
    xs = np.asarray(xs, dtype=np.float64)
    q75, q25 = np.percentile(xs, [75, 25])
    iqr = q75 - q25
    if iqr <= 0:
        return minimum
    width = 2.0 * iqr / len(xs) ** (1.0 / 3.0)
    bins = int(np.ceil((xs.max() - xs.min()) / width))
    return max(bins, minimum)


def fit_quality(xs, pdf, bins: int | None = None) -> float:
    """RMSE between the normalized histogram of xs and pdf at bin centers.

    Lower is better; comparing the score of a Gaussian fit against a GEV fit
    on the same data diagnoses the presence of extreme-value tails.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if bins is None:
        bins = freedman_diaconis_bins(xs)
    if bins < 1:
        raise InvalidInputError("bins must be >= 1")
    hist, edges = np.histogram(xs, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sqrt(np.mean((hist - np.asarray(pdf(centers))) ** 2)))


# ---------------------------------------------------------------------------
# Serialization


def save_gmm(path: str | Path, model: GmmModel) -> None:
    pairs: dict = {"type": "gmm", "components": model.n_components}
    for i in range(model.n_components):
        pairs[f"weight_{i}"] = float(model.weights[i])
        pairs[f"mean_{i}"] = float(model.means[i])
        pairs[f"variance_{i}"] = float(model.variances[i])
    kvtext.write(path, pairs)


def load_gmm(path: str | Path) -> GmmModel:
    pairs = kvtext.read(path)
    if pairs.get("type") != "gmm":
        raise InvalidInputError(f"{path}: not a GMM model file")
    m = kvtext.get(pairs, "components", path, int)

    def column(name):
        return np.array([kvtext.get(pairs, f"{name}_{i}", path, float)
                         for i in range(m)])

    try:
        return GmmModel(weights=column("weight"), means=column("mean"),
                        variances=column("variance"))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
