"""Parameter estimation from historical log returns.

Regimes are segmented by date windows or by an absolute-return threshold,
holding rates are estimated by run counting, and each regime's
(mu, sigma, alpha, beta) is fitted on its own subsample as a
non-switching time-changed process: method of moments, minimum distance
on the empirical characteristic function, or simulated maximum
likelihood with a Gaussian kernel density. The simulated likelihood
draws its increments from the same frozen common-random-numbers sampler
as the calibration (mc.FrozenTerminalSampler, with no regime switch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .charfn import increment_cumulants, regime_char_exponent
from .mc import FrozenTerminalSampler
from .regime import TRADING_DT, Family, RegimeParams, mean_sojourn_to_intensity

DENSITY_FLOOR = 1e-300


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ReturnSeries:
    """Daily log returns z_k = log(p_k / p_{k-1}); dates[k] is the date of
    the later price in the ratio."""

    dates: tuple[date, ...]
    log_returns: np.ndarray
    dt: float = TRADING_DT
    n_clipped: int = 0

    def __post_init__(self) -> None:
        z = np.asarray(self.log_returns, dtype=float)
        if len(self.dates) != len(z):
            raise ValueError("dates and log_returns must align")
        if not np.all(np.isfinite(z)):
            raise ValueError("log returns must be finite")
        object.__setattr__(self, "log_returns", z)

    def __len__(self) -> int:
        return len(self.log_returns)


@dataclass(frozen=True)
class AbsThreshold:
    """Regime 2 whenever |z_k| exceeds the cutoff."""

    cutoff: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cutoff) and self.cutoff >= 0):
            raise ValueError(f"cutoff must be finite and nonnegative, got {self.cutoff}")


@dataclass(frozen=True)
class DateWindows:
    """Regime 1 inside any [start, end] window (inclusive), regime 2 outside."""

    windows: tuple[tuple[date, date], ...]

    def __post_init__(self) -> None:
        for start, end in self.windows:
            if end < start:
                raise ValueError(f"window [{start}, {end}] is reversed")


@dataclass(frozen=True)
class ParamBounds:
    """Box constraints for the per-regime parameter search."""

    mu: tuple[float, float] = (-1.0, 1.0)
    sigma: tuple[float, float] = (1e-6, 5.0)
    alpha: tuple[float, float] = (1e-6, 100.0)
    beta: tuple[float, float] = (1e-6, 100.0)

    def lower(self) -> np.ndarray:
        return np.array([self.mu[0], self.sigma[0], self.alpha[0], self.beta[0]])

    def upper(self) -> np.ndarray:
        return np.array([self.mu[1], self.sigma[1], self.alpha[1], self.beta[1]])

    def contains(self, params: RegimeParams) -> bool:
        """Whether params lie in the box, up to 1e-12 past either face."""
        x = params.as_array()
        return bool(np.all(x >= self.lower() - 1e-12) and np.all(x <= self.upper() + 1e-12))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower(), self.upper())


@dataclass(frozen=True)
class FitResult:
    params: RegimeParams
    objective: float
    converged: bool
    detail: str


@dataclass(frozen=True)
class HoldingRates:
    """Mean sojourn durations (years) and the reciprocal intensities."""

    sojourn1_years: float
    sojourn2_years: float
    lambda12: float
    lambda21: float


@dataclass(frozen=True)
class Stats:
    mean: float
    variance: float
    skewness: float
    kurtosis: float  # normal = 3 convention


def descriptive_stats(series: ReturnSeries) -> Stats:
    z = series.log_returns
    if len(z) < 4:
        raise EstimationError(f"need at least 4 observations, got {len(z)}")
    # biased central moments, formed as scipy.stats.skew and kurtosis form them
    mean = np.mean(z)
    dev = z - mean
    dev2 = dev**2
    m2 = np.mean(dev2)
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        raise EstimationError("constant series: skewness and kurtosis undefined")
    return Stats(
        mean=float(mean),
        variance=float(np.var(z, ddof=1)),
        skewness=float(np.mean(dev2 * dev) / m2**1.5),
        kurtosis=float(np.mean(dev2**2) / m2**2.0),
    )


def segment_regimes(series: ReturnSeries, rule) -> np.ndarray:
    """Label each return 1 or 2 according to the segmentation rule."""
    if isinstance(rule, AbsThreshold):
        return np.where(np.abs(series.log_returns) > rule.cutoff, 2, 1).astype(np.int64)
    if isinstance(rule, DateWindows):
        d0, d1 = series.dates[0], series.dates[-1]
        for start, end in rule.windows:
            if end < d0 or start > d1:
                raise ValueError(f"window [{start}, {end}] lies outside the series range")
        days = np.fromiter((d.toordinal() for d in series.dates), np.int64, len(series))
        starts = np.sort([start.toordinal() for start, _ in rule.windows])
        ends = np.sort([end.toordinal() for _, end in rule.windows])
        # windows holding a day: those starting on or before it, less those
        # ending before it (each of which also starts before it)
        inside = np.searchsorted(starts, days, side="right") - np.searchsorted(ends, days, side="left")
        return np.where(inside > 0, 1, 2).astype(np.int64)
    raise TypeError(f"unknown segmentation rule {rule!r}")


def holding_rates(labels, dt: float = TRADING_DT, require_both: bool = True) -> HoldingRates:
    """Mean sojourn per regime: labeled days per maximal run, in years.

    The switching intensities are the reciprocals of the mean sojourns.
    """
    arr = np.asarray(labels, dtype=np.int64)
    if arr.size == 0 or np.any((arr != 1) & (arr != 2)):
        raise EstimationError("labels must be a nonempty sequence over {1, 2}")
    starts = np.concatenate(([True], arr[1:] != arr[:-1]))
    sojourn = {}
    for j in (1, 2):
        days = int((arr == j).sum())
        runs = int((starts & (arr == j)).sum())
        if runs == 0:
            if require_both:
                raise EstimationError(f"regime {j} never occurs in the labels")
            sojourn[j] = math.nan
        else:
            sojourn[j] = days * dt / runs
    rates = (mean_sojourn_to_intensity(sojourn[j]) for j in (1, 2))
    return HoldingRates(sojourn[1], sojourn[2], *rates)


def split_by_regime(series: ReturnSeries, labels) -> dict[int, ReturnSeries]:
    arr = np.asarray(labels, dtype=np.int64)
    out = {}
    for j in (1, 2):
        mask = arr == j
        out[j] = ReturnSeries(
            tuple(d for d, m in zip(series.dates, mask) if m),
            series.log_returns[mask],
            series.dt,
        )
    return out


def empirical_cf(returns, u):
    """Sample characteristic function (1/n) sum exp(i u z_k); u scalar or array."""
    z = np.asarray(returns, dtype=float)
    if z.size == 0:
        raise EstimationError("empty sample")
    out = _kernel_mean(lambda blk: np.exp(1j * (blk * z)), u, z.size, complex)
    return complex(out[0]) if np.ndim(u) == 0 else out


# (point, sample) pairs per block of `_kernel_mean`
_KERNEL_BLOCK_PAIRS = int(2e7)


def _kernel_mean(kernel, x, n_samples: int, dtype) -> np.ndarray:
    """kernel(blk).mean(axis=1) for the points x (scalar or 1-D), taken in
    blocks of about _KERNEL_BLOCK_PAIRS point-sample pairs: blk is a column
    of points, and kernel maps it to a (points, n_samples) array."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(x_arr.shape, dtype=dtype)
    chunk = max(1, _KERNEL_BLOCK_PAIRS // n_samples)
    for i in range(0, x_arr.size, chunk):
        blk = x_arr[i : i + chunk, None]
        out[i : i + blk.shape[0]] = kernel(blk).mean(axis=1)
    return out


def _silverman_bandwidth(z: np.ndarray) -> float:
    """Silverman's rule of thumb 1.06 * std * n^(-1/5) for a Gaussian kernel."""
    return 1.06 * float(np.std(z, ddof=1)) * z.size ** (-0.2)


def theoretical_moments(params: RegimeParams, family: Family, dt: float) -> np.ndarray:
    """Raw moments E[z], E[z^2], E[z^3], E[z^4] of an increment over dt."""
    k1, k2, k3, k4 = increment_cumulants(params, family, dt)
    m1 = k1
    m2 = k2 + k1**2
    m3 = k3 + 3.0 * k2 * k1 + k1**3
    m4 = k4 + 4.0 * k3 * k1 + 3.0 * k2**2 + 6.0 * k2 * k1**2 + k1**4
    return np.array([m1, m2, m3, m4])


def _default_init(z: np.ndarray, dt: float, bounds: ParamBounds) -> RegimeParams:
    # crude start at alpha = beta = 1 where the clock has unit rate
    mu0 = float(np.mean(z)) / dt
    var0 = max(float(np.var(z, ddof=1)) / dt - mu0**2, 1e-8)
    x = bounds.clip(np.array([mu0, math.sqrt(var0), 1.0, 1.0]))
    return RegimeParams.from_array(x)


def fit_moments(
    mhat: np.ndarray,
    family: Family,
    bounds: ParamBounds = ParamBounds(),
    init: RegimeParams | None = None,
    dt: float = TRADING_DT,
) -> FitResult:
    """Solve the four-equation moment system for given raw moments."""
    from scipy.optimize import least_squares

    mhat = np.asarray(mhat, dtype=float)
    if mhat.shape != (4,) or not np.all(np.isfinite(mhat)):
        raise EstimationError(f"need four finite raw moments, got {mhat}")
    scale = np.maximum(np.abs(mhat), 1e-12)
    if init is None:
        init = RegimeParams(0.0, 0.2, 1.0, 1.0)

    def residuals(x: np.ndarray) -> np.ndarray:
        return (theoretical_moments(RegimeParams.from_array(x), family, dt) - mhat) / scale

    res = least_squares(
        residuals,
        bounds.clip(init.as_array()),
        bounds=(bounds.lower(), bounds.upper()),
        method="trf",
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=2000,
    )
    resid = float(np.linalg.norm(res.fun))
    if res.status <= 0:
        raise EstimationError(f"moment solver did not converge; best residual {resid}")
    return FitResult(RegimeParams.from_array(res.x), resid, True, res.message)


def mom_fit(
    returns,
    family: Family,
    bounds: ParamBounds = ParamBounds(),
    init: RegimeParams | None = None,
    dt: float = TRADING_DT,
) -> FitResult:
    """Match raw sample moments up to order four, trust-region solve."""
    z = np.asarray(returns, dtype=float)
    mhat = np.array([np.mean(z**k) for k in (1, 2, 3, 4)])
    if not np.all(np.isfinite(mhat)):
        raise EstimationError(f"sample moments not finite: {mhat}")
    if init is None:
        init = _default_init(z, dt, bounds)
    return fit_moments(mhat, family, bounds, init, dt)


_GH_NODES, _GH_WEIGHTS = hermgauss(64)


def cf_distance(params: RegimeParams, family: Family, dt: float, ecf_at_nodes: np.ndarray) -> float:
    """Gaussian-weighted L2 distance between the model CF over dt and an
    empirical CF sampled at the Gauss-Hermite nodes sqrt(2) * x_i."""
    u = math.sqrt(2.0) * _GH_NODES
    model_cf = np.exp(dt * regime_char_exponent(params, family, u))
    diff2 = np.abs(model_cf - ecf_at_nodes) ** 2
    return math.sqrt(float(_GH_WEIGHTS @ diff2) / math.sqrt(math.pi))


def mde_fit(
    returns,
    family: Family,
    bounds: ParamBounds = ParamBounds(),
    init: RegimeParams | None = None,
    dt: float = TRADING_DT,
) -> FitResult:
    """Minimum-distance fit on the empirical characteristic function."""
    from scipy.optimize import minimize

    z = np.asarray(returns, dtype=float)
    if z.size < 30:
        raise EstimationError(f"need at least 30 returns, got {z.size}")
    if init is None:
        init = _default_init(z, dt, bounds)
    ecf = empirical_cf(z, math.sqrt(2.0) * _GH_NODES)

    def objective(x: np.ndarray) -> float:
        return cf_distance(RegimeParams.from_array(x), family, dt, ecf)

    res = minimize(
        objective,
        bounds.clip(init.as_array()),
        method="L-BFGS-B",
        bounds=list(zip(bounds.lower(), bounds.upper())),
    )
    if not res.success and "ABNORMAL" in str(res.message).upper():
        raise EstimationError(f"minimum-distance optimizer failed: {res.message}")
    return FitResult(RegimeParams.from_array(res.x), float(res.fun), bool(res.success), str(res.message))


def kde(samples, x):
    """Gaussian kernel density with the Silverman bandwidth
    1.06 * std * n^(-1/5); x scalar or array."""
    z = np.asarray(samples, dtype=float)
    if z.size < 2:
        raise EstimationError("need at least 2 samples for a density estimate")
    h = _silverman_bandwidth(z)
    if h == 0.0:
        raise EstimationError("degenerate sample: zero standard deviation")
    out = _kernel_mean(lambda blk: np.exp(-0.5 * ((blk - z) / h) ** 2), x, z.size, float)
    out /= h * math.sqrt(2.0 * math.pi)
    return float(out[0]) if np.ndim(x) == 0 else out


def _binned_kde_at(sim: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """KDE of sim evaluated at pts via linear binning and convolution.

    Grid spacing is at most a quarter bandwidth, and the cost stays linear
    in the sample sizes. Against the direct `kde` of 10k simulated daily
    increments, at 2000 data points, the binning errs by up to 1.5% of the
    peak density, the same order as the KDE's own sampling error.
    """
    n = sim.size
    h = max(_silverman_bandwidth(sim), 1e-12)
    lo = min(sim.min(), pts.min()) - 8.0 * h
    hi = max(sim.max(), pts.max()) + 8.0 * h
    n_grid = int(np.clip(math.ceil((hi - lo) / (h / 4.0)) + 1, 512, 1 << 17))
    grid = np.linspace(lo, hi, n_grid)
    dx = grid[1] - grid[0]

    pos = (sim - lo) / dx
    i0 = np.floor(pos).astype(int)
    w1 = pos - i0
    counts = np.bincount(i0, weights=1.0 - w1, minlength=n_grid + 1)
    counts += np.bincount(i0 + 1, weights=w1, minlength=n_grid + 1)
    counts = counts[:n_grid]

    khalf = int(math.ceil(8.0 * h / dx))
    tail = np.arange(-khalf, khalf + 1) * dx / h
    kern = np.exp(-0.5 * tail**2) / math.sqrt(2.0 * math.pi)
    dens = np.convolve(counts, kern, mode="same") / (n * h)
    return np.interp(pts, grid, dens)


def _kde_loglik(sim: np.ndarray, z: np.ndarray) -> tuple[float, bool]:
    """Log likelihood of z under the KDE of sim, with the density floored at
    DENSITY_FLOOR, and whether every density was floored."""
    dens = _binned_kde_at(sim, z)
    return float(np.log(np.maximum(dens, DENSITY_FLOOR)).sum()), bool(np.all(dens <= DENSITY_FLOOR))


_FLOORED = "all densities floored: data far outside simulated support"


def simulated_loglik(
    params: RegimeParams,
    returns,
    family: Family,
    n_sim: int = 10_000,
    seed: int = 0,
    dt: float = TRADING_DT,
) -> float:
    """Kernel-density log likelihood of the data under simulated increments."""
    z = np.asarray(returns, dtype=float)
    sim = FrozenTerminalSampler(family, 0.0, 0.0, dt, n_sim, seed).evaluate(params, params)
    ll, floored = _kde_loglik(sim, z)
    if floored:
        raise EstimationError(_FLOORED)
    return ll


def mle_fit(
    returns,
    family: Family,
    bounds: ParamBounds = ParamBounds(),
    init: RegimeParams | None = None,
    n_sim: int = 10_000,
    seed: int = 0,
    dt: float = TRADING_DT,
) -> FitResult:
    """Simulated maximum likelihood with a kernel density.

    For each candidate theta, n_sim single-regime increments over dt are
    produced by one FrozenTerminalSampler from draws frozen at the given
    seed (common random numbers, so the objective is deterministic and
    varies smoothly with theta; the sampler reuses its subordinator
    increments across the optimizer's mu and sigma probes, and its beta
    probes for Gamma), a Gaussian KDE is built from them, and the log
    likelihood of the data is evaluated with the density floored at 1e-300.
    Only the start point must have an unfloored density: a trial point of
    the search whose densities are all floored scores the floored value.
    The fit is the point with the lowest -ll the search evaluated, start
    and finite-difference probes included, not L-BFGS-B's last iterate.
    The search hinges on the last bit of the increments; for Gamma their
    inverse CDF, most of the fit's time, runs split across the usable
    CPUs with the serial bits, so the fit does not depend on the CPU count.
    """
    from scipy.optimize import minimize

    z = np.asarray(returns, dtype=float)
    if n_sim < 10_000:
        raise EstimationError("n_sim must be >= 10000")
    if init is None:
        init = _default_init(z, dt, bounds)
    # lambda12 = 0: no sojourn is drawn, one leg of increments over dt
    sim = FrozenTerminalSampler(family, 0.0, 0.0, dt, n_sim, seed)

    def kde_loglik(x: np.ndarray) -> tuple[float, bool]:
        prm = RegimeParams.from_array(x)
        return _kde_loglik(sim.evaluate(prm, prm), z)

    x0 = bounds.clip(init.as_array())
    ll0, floored = kde_loglik(x0)
    if floored:
        raise EstimationError(_FLOORED)
    best = [-ll0, x0]  # the lowest -ll evaluated so far, and its point

    def objective(x: np.ndarray) -> float:
        value = -kde_loglik(x)[0]
        if value < best[0]:
            best[:] = value, x.copy()
        return value

    # finite-difference steps well above the residual kernel-binning noise
    eps = 1e-4 * np.maximum(np.abs(x0), 0.05)
    res = minimize(
        objective,
        x0,
        method="L-BFGS-B",
        bounds=list(zip(bounds.lower(), bounds.upper())),
        options={"eps": eps, "maxiter": 300},
    )
    return FitResult(RegimeParams.from_array(best[1]), float(best[0]), bool(res.success), str(res.message))
