import math
from datetime import date

import numpy as np
import pytest
from scipy.integrate import quad

import switchlevy as sl
from switchlevy.estimation import (
    EstimationError,
    ReturnSeries,
    cf_distance,
    fit_moments,
    increment_cumulants,
    simulated_loglik,
)

from conftest import REGIME1_WINDOWS, rn_regime, single_regime_increments, synthetic_price_history

GAMMA = sl.Family.GAMMA
IG = sl.Family.INVERSE_GAUSSIAN
DT = 1 / 250


def _series(z, start=date(2020, 1, 1)):
    dates = tuple(date.fromordinal(start.toordinal() + k) for k in range(len(z)))
    return ReturnSeries(dates, np.asarray(z, dtype=float))


class TestDescriptiveStats:
    def test_constant_series_rejected(self):
        with pytest.raises(EstimationError, match="constant"):
            sl.descriptive_stats(_series([0.01, 0.01, 0.01, 0.01]))

    def test_near_constant_series_rejected(self):
        # nonzero variance, but a spread below the rounding of the mean
        with pytest.raises(EstimationError, match="constant"):
            sl.descriptive_stats(_series([0.01, 0.01, 0.01, np.nextafter(0.01, 1.0)]))

    @pytest.mark.parametrize("sample", ["normal", "gamma", "four"])
    def test_matches_scipy_stats(self, sample):
        from scipy import stats

        rng = np.random.default_rng(31)
        z = {
            "normal": 0.01 * rng.standard_normal(5000) + 3e-4,
            "gamma": 0.02 * rng.gamma(0.4, 1.0, 2000) - 0.005,
            "four": np.array([0.013, -0.004, 0.027, -0.019]),
        }[sample]
        s = sl.descriptive_stats(_series(z))
        assert s.skewness == pytest.approx(float(stats.skew(z)), rel=1e-12)
        assert s.kurtosis == pytest.approx(float(stats.kurtosis(z, fisher=False)), rel=1e-12)

    def test_minimum_length(self):
        with pytest.raises(EstimationError):
            sl.descriptive_stats(_series([0.01, 0.02, 0.03]))

    def test_standard_normal_benchmark(self):
        rng = np.random.default_rng(30)
        s = sl.descriptive_stats(_series(rng.standard_normal(1_000_000)))
        assert s.kurtosis == pytest.approx(3.0, abs=0.02)
        assert s.skewness == pytest.approx(0.0, abs=0.01)
        assert s.variance == pytest.approx(1.0, rel=0.01)

    def test_synthetic_history_regression_lock(self):
        """Frozen values for the bundled synthetic two-regime series."""
        dates, prices = synthetic_price_history()
        z = np.diff(np.log(prices))
        s = sl.descriptive_stats(ReturnSeries(tuple(dates[1:]), z))
        assert s.mean == pytest.approx(-0.00022060340678165755, rel=1e-9)
        assert s.variance == pytest.approx(0.00017939758619014618, rel=1e-9)
        assert s.skewness == pytest.approx(-0.11779571622099266, rel=1e-9)
        assert s.kurtosis == pytest.approx(5.836277169790186, rel=1e-9)


class TestSegmentation:
    def test_threshold_all_calm(self):
        labels = sl.segment_regimes(_series([0.1, -0.2, 0.05]), sl.AbsThreshold(3.0))
        np.testing.assert_array_equal(labels, [1, 1, 1])

    def test_threshold_splits_spikes(self):
        labels = sl.segment_regimes(_series([1.0, 4.0, -5.0, 0.0]), sl.AbsThreshold(3.0))
        np.testing.assert_array_equal(labels, [1, 2, 2, 1])

    def test_date_windows_on_synthetic_history(self):
        dates, prices = synthetic_price_history()
        series = ReturnSeries(tuple(dates[1:]), np.diff(np.log(prices)))
        labels = sl.segment_regimes(series, sl.DateWindows(REGIME1_WINDOWS))
        for d, lab in zip(series.dates, labels):
            inside = any(lo <= d <= hi for lo, hi in REGIME1_WINDOWS)
            assert lab == (1 if inside else 2)

    def test_window_outside_range_rejected(self):
        series = _series([0.1, 0.2], start=date(2020, 1, 1))
        rule = sl.DateWindows(((date(1999, 1, 1), date(1999, 6, 1)),))
        with pytest.raises(ValueError, match="outside"):
            sl.segment_regimes(series, rule)

    def test_reversed_window_rejected(self):
        series = _series([0.1, 0.2])
        with pytest.raises(ValueError, match="reversed"):
            sl.segment_regimes(series, sl.DateWindows(((date(2021, 1, 1), date(2020, 1, 1)),)))

    def test_reversed_window_rejected_when_built(self):
        with pytest.raises(ValueError, match=r"window \[2020-03-01, 2020-02-01\] is reversed"):
            sl.DateWindows(((date(2020, 1, 1), date(2020, 1, 5)), (date(2020, 3, 1), date(2020, 2, 1))))

    @pytest.mark.parametrize("cutoff", [-0.01, float("nan"), float("inf"), float("-inf")])
    def test_threshold_cutoff_must_be_finite_and_nonnegative(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be finite and nonnegative"):
            sl.AbsThreshold(cutoff)

    @pytest.mark.parametrize("seed", range(5))
    def test_date_windows_match_per_date_loop(self, seed):
        """Labels equal the per-date any() loop they replace, on random
        windows that overlap, nest, last one day, and start or end on a
        series date or outside the series."""
        rng = np.random.default_rng(seed)
        series = _series(np.zeros(400), start=date(2020, 1, 1))
        first = series.dates[0].toordinal()
        windows = []
        for _ in range(rng.integers(1, 12)):
            lo = first + int(rng.integers(-20, 420))
            hi = lo + int(rng.integers(0, 60))
            windows.append((date.fromordinal(lo), date.fromordinal(hi)))
        windows.append((series.dates[0], series.dates[0]))  # one day, on the first date
        windows.append((series.dates[-1], date.fromordinal(first + 500)))  # past the end
        windows = [w for w in windows if w[1] >= series.dates[0] and w[0] <= series.dates[-1]]
        labels = sl.segment_regimes(series, sl.DateWindows(tuple(windows)))
        expected = [1 if any(lo <= d <= hi for lo, hi in windows) else 2 for d in series.dates]
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, expected)

    def test_nested_and_shared_boundary_windows(self):
        series = _series(np.zeros(10), start=date(2020, 1, 1))
        d = series.dates
        rule = sl.DateWindows(((d[1], d[6]), (d[2], d[3]), (d[6], d[6]), (d[8], d[9])))
        np.testing.assert_array_equal(sl.segment_regimes(series, rule), [2, 1, 1, 1, 1, 1, 1, 2, 1, 1])


class TestHoldingRates:
    def test_single_regime_requires_flag(self):
        with pytest.raises(EstimationError, match="regime 2"):
            sl.holding_rates([1, 1, 1, 1])
        rates = sl.holding_rates([1, 1, 1, 1], require_both=False)
        assert rates.sojourn1_years == pytest.approx(4 / 250)
        assert math.isnan(rates.sojourn2_years)

    def test_run_counting(self):
        rates = sl.holding_rates([1, 1, 2, 1, 2, 2])
        assert rates.sojourn1_years == pytest.approx(1.5 / 250)
        assert rates.sojourn2_years == pytest.approx(1.5 / 250)
        assert rates.lambda12 == pytest.approx(250 / 1.5)
        assert rates.lambda21 == pytest.approx(250 / 1.5)

    def test_recovers_ctmc_sojourns(self):
        """Daily labels from a simulated chain recover the mean sojourns."""
        prm = sl.RegimeParams(0.0, 1.0, 1.0, 1.0)
        model = sl.SwitchingModel((prm, prm), 5.0, 2.0, sl.Family.IDENTITY, 20.0, 0.0)
        rng = np.random.default_rng(31)
        horizon = 400.0
        path = sl.simulate_regime_path(model, horizon, rng)
        days = np.arange(int(horizon * 250)) * DT
        labels = path.states[np.searchsorted(path.switch_times, days, side="right")]
        rates = sl.holding_rates(labels)
        runs1 = int(np.sum((labels[1:] != labels[:-1]) & (labels[1:] == 1)) + (labels[0] == 1))
        runs2 = int(np.sum((labels[1:] != labels[:-1]) & (labels[1:] == 2)) + (labels[0] == 2))
        assert min(runs1, runs2) > 400
        # exponential sojourns: SE of the mean is mean/sqrt(runs)
        assert abs(rates.sojourn1_years - 0.2) < 3 * 0.2 / math.sqrt(runs1) + DT
        assert abs(rates.sojourn2_years - 0.5) < 3 * 0.5 / math.sqrt(runs2) + DT


class TestEmpiricalCf:
    def test_at_zero(self):
        assert sl.empirical_cf([0.1, 0.2], 0.0) == 1.0

    def test_single_observation(self):
        z = 0.37
        got = sl.empirical_cf([z], 2.0)
        assert got == pytest.approx(complex(math.cos(2 * z), math.sin(2 * z)))

    def test_gaussian_benchmark(self):
        rng = np.random.default_rng(32)
        z = rng.standard_normal(1_000_000)
        got = sl.empirical_cf(z, 1.0)
        se = 3.0 / math.sqrt(z.size)  # bound on both parts
        assert abs(got - math.exp(-0.5)) < 3 * se

    def test_modulus_and_symmetry(self):
        rng = np.random.default_rng(33)
        z = rng.standard_normal(5000) * 0.3
        u = np.linspace(-40, 40, 81)
        phi = sl.empirical_cf(z, u)
        assert np.all(np.abs(phi) <= 1 + 1e-12)
        np.testing.assert_allclose(phi, np.conj(phi[::-1]), atol=1e-12)


class TestMomentSystem:
    def test_ig_system_matches_printed_polynomials(self):
        """The cumulant route reproduces the quoted IG raw-moment system."""
        for mu, sg, al, be, dt in [
            (0.05, 0.3, 2.0, 5.0, 1 / 250),
            (-0.2, 0.7, 0.4, 1.3, 0.1),
            (0.8, 0.1, 9.0, 0.6, 1.0),
        ]:
            m = sl.theoretical_moments(sl.RegimeParams(mu, sg, al, be), IG, dt)
            p1 = al * mu * dt / be
            p2 = al * dt * (mu**2 + be**2 * sg**2 + al * be * mu**2 * dt) / be**3
            p3 = (
                al * mu * dt
                * (3 * mu**2 + 3 * be**2 * sg**2 + 3 * al * be * mu**2 * dt
                   + al**2 * be**2 * mu**2 * dt**2 + 3 * al * be**3 * sg**2 * dt)
                / be**5
            )
            p4 = (
                al * dt
                * (15 * mu**4 + 3 * be**4 * sg**4 + 18 * be**2 * mu**2 * sg**2
                   + 15 * al * be * mu**4 * dt + 6 * al**2 * be**2 * mu**4 * dt**2
                   + al**3 * be**3 * mu**4 * dt**3 + 3 * al * be**5 * sg**4 * dt
                   + 6 * al**2 * be**4 * mu**2 * sg**2 * dt**2
                   + 18 * al * be**3 * mu**2 * sg**2 * dt)
                / be**7
            )
            np.testing.assert_allclose(m, [p1, p2, p3, p4], rtol=1e-12)

    def test_gamma_moments_match_simulation(self):
        """Derived Gamma system validated against simulated raw moments."""
        prm = sl.RegimeParams(0.15, 0.45, 1.2, 2.2)
        dt = 0.1
        rng = np.random.default_rng(34)
        z = single_regime_increments(prm, GAMMA, dt, 1_000_000, rng)
        theo = sl.theoretical_moments(prm, GAMMA, dt)
        for k in range(1, 5):
            zk = z**k
            se = zk.std(ddof=1) / math.sqrt(zk.size)
            assert abs(zk.mean() - theo[k - 1]) < 3 * se

    def test_identity_cumulants(self):
        prm = sl.RegimeParams(0.1, 0.4, 1.0, 1.0)
        k1, k2, k3, k4 = increment_cumulants(prm, sl.Family.IDENTITY, 0.5)
        assert (k1, k2) == (pytest.approx(0.05), pytest.approx(0.08))
        assert k3 == 0 and k4 == 0


class TestMomFit:
    def test_moment_space_round_trip(self):
        """Fitted parameters reproduce the target moments to 1e-6 even
        though the parameters themselves are identified only up to the
        clock-rescaling symmetry."""
        theta = sl.RegimeParams(0.1624, 0.7213, 0.3238, 1.6971)
        m = sl.theoretical_moments(theta, IG, DT)
        init = sl.RegimeParams(0.17, 0.69, 0.34, 1.65)
        fit = fit_moments(m, IG, init=init, dt=DT)
        m_back = sl.theoretical_moments(fit.params, IG, DT)
        np.testing.assert_allclose(m_back, m, rtol=1e-6)
        assert fit.objective < 1e-6

    def test_zero_first_moment_forces_zero_drift(self):
        m = sl.theoretical_moments(sl.RegimeParams(0.0, 0.4, 1.5, 2.0), IG, DT)
        assert m[0] == 0.0
        fit = fit_moments(m, IG, init=sl.RegimeParams(0.05, 0.5, 1.0, 1.0), dt=DT)
        assert abs(fit.params.mu) < 1e-7

    def test_synthetic_recovery_within_20_percent(self):
        theta = sl.RegimeParams(0.05, 0.3, 2.0, 5.0)
        rng = np.random.default_rng(2024)
        z = single_regime_increments(theta, IG, DT, 100_000, rng)
        fit = sl.mom_fit(z, IG, init=sl.RegimeParams(0.0525, 0.285, 2.1, 5.25), dt=DT)
        rel = np.abs(fit.params.as_array() - theta.as_array()) / np.abs(theta.as_array())
        assert np.all(rel < 0.20)

    def test_result_within_bounds(self):
        rng = np.random.default_rng(35)
        z = rng.standard_normal(5000) * 0.01
        fit = sl.mom_fit(z, GAMMA, dt=DT)
        assert sl.ParamBounds().contains(fit.params)


class TestMdeFit:
    def _data(self, n=30_000):
        theta = sl.RegimeParams(0.1, 0.4, 1.5, 2.0)
        rng = np.random.default_rng(36)
        return theta, single_regime_increments(theta, GAMMA, DT, n, rng)

    def test_distance_zero_for_identical_cf(self):
        theta = sl.RegimeParams(0.1, 0.4, 1.5, 2.0)
        u = math.sqrt(2.0) * np.polynomial.hermite.hermgauss(64)[0]
        model_cf = np.exp(DT * sl.regime_char_exponent(theta, GAMMA, u))
        assert cf_distance(theta, GAMMA, DT, model_cf) < 1e-12

    def test_truth_beats_inflated_parameters(self):
        theta, z = self._data()
        u = math.sqrt(2.0) * np.polynomial.hermite.hermgauss(64)[0]
        ecf = sl.empirical_cf(z, u)
        inflated = sl.RegimeParams(0.15, 0.6, 2.25, 3.0)
        assert cf_distance(theta, GAMMA, DT, ecf) < cf_distance(inflated, GAMMA, DT, ecf)

    def test_distance_shrinks_with_sample_size(self):
        theta = sl.RegimeParams(0.1, 0.4, 1.5, 2.0)
        rng = np.random.default_rng(37)
        u = math.sqrt(2.0) * np.polynomial.hermite.hermgauss(64)[0]
        d = {}
        for n in (1_000, 100_000):
            z = single_regime_increments(theta, GAMMA, DT, n, rng)
            d[n] = cf_distance(theta, GAMMA, DT, sl.empirical_cf(z, u))
        # O(n^{-1/2}) decay, allow generous slack on one realization
        assert d[100_000] < 0.35 * d[1_000]

    def test_fit_recovers_cf(self):
        theta, z = self._data()
        start = sl.mom_fit(z, GAMMA, dt=DT).params
        fit = sl.mde_fit(z, GAMMA, init=start, dt=DT)
        u = np.linspace(-20, 20, 101)
        cf_true = np.exp(DT * sl.regime_char_exponent(theta, GAMMA, u))
        cf_fit = np.exp(DT * sl.regime_char_exponent(fit.params, GAMMA, u))
        assert np.abs(cf_fit - cf_true).max() < 1e-2
        assert sl.ParamBounds().contains(fit.params)

    def test_needs_thirty_observations(self):
        with pytest.raises(EstimationError, match="30"):
            sl.mde_fit(np.zeros(10), GAMMA)

    def test_quadrature_matches_adaptive_integration(self):
        """Gauss-Hermite value vs adaptive quadrature of the same weighted
        integrand, spot check at an analytic integrand."""
        theta = sl.RegimeParams(0.1, 0.4, 1.5, 2.0)
        other = sl.RegimeParams(0.05, 0.5, 1.0, 1.5)

        def integrand(u):
            a = np.exp(DT * sl.regime_char_exponent(theta, GAMMA, u))
            b = np.exp(DT * sl.regime_char_exponent(other, GAMMA, u))
            w = math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
            return abs(a - b) ** 2 * w

        ref, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12)
        u_nodes = math.sqrt(2.0) * np.polynomial.hermite.hermgauss(64)[0]
        model_cf = np.exp(DT * sl.regime_char_exponent(other, GAMMA, u_nodes))
        gh = cf_distance(theta, GAMMA, DT, model_cf) ** 2
        assert abs(gh - ref) < 1e-8


class TestKde:
    def test_gaussian_sup_norm(self):
        rng = np.random.default_rng(38)
        z = rng.standard_normal(100_000)
        x = np.linspace(-3, 3, 121)
        f = sl.kde(z, x)
        true = np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
        assert np.abs(f - true).max() < 0.01

    def test_integrates_to_one(self):
        rng = np.random.default_rng(39)
        z = rng.standard_normal(20_000) * 2.5
        sd = z.std(ddof=1)
        x = np.linspace(-10 * sd, 10 * sd, 4001)
        mass = np.trapezoid(sl.kde(z, x), x)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(EstimationError):
            sl.kde([1.0], 0.0)
        with pytest.raises(EstimationError, match="degenerate"):
            sl.kde([1.0, 1.0, 1.0], 0.0)

    def test_scalar_evaluation(self):
        rng = np.random.default_rng(40)
        z = rng.standard_normal(5000)
        val = sl.kde(z, 0.0)
        assert isinstance(val, float)
        assert val == pytest.approx(1 / math.sqrt(2 * math.pi), abs=0.05)

    @pytest.mark.parametrize(
        "family, params",
        [
            (GAMMA, (0.05, 0.3, 10.0, 10.0)),
            (GAMMA, (-0.1, 0.7, 5.0, 5.0)),
            (GAMMA, (0.3, 0.3, 10.0, 10.0)),
            (GAMMA, (0.3, 0.3, 1.0, 1.0)),
            (IG, (0.05, 0.3, 2.0, 5.0)),
            (IG, (-0.176, 0.444, 3.49, 3.47)),
        ],
    )
    def test_binned_kde_error(self, family, params):
        """The binned KDE of the simulated likelihood, of 10k simulated
        daily increments at 2000 data points, is within 3% of the peak of
        the direct KDE, seeds 0-4 (measured up to 1.5%)."""
        prm = sl.RegimeParams(*params)
        for seed in range(5):
            sim = sl.FrozenTerminalSampler(family, 0.0, 0.0, DT, 10_000, seed).evaluate(prm, prm)
            data = single_regime_increments(prm, family, DT, 2000, np.random.default_rng(seed + 100))
            direct = sl.kde(sim, data)
            assert np.abs(sl.estimation._binned_kde_at(sim, data) - direct).max() <= 0.03 * direct.max()


class TestMleFit:
    def test_loglik_prefers_truth_over_doubled_sigma(self):
        theta = sl.RegimeParams(0.1, 0.4, 1.5, 2.0)
        rng = np.random.default_rng(41)
        z = single_regime_increments(theta, GAMMA, DT, 50_000, rng)
        bad = sl.RegimeParams(0.1, 0.8, 1.5, 2.0)
        assert simulated_loglik(theta, z, GAMMA, seed=3) > simulated_loglik(bad, z, GAMMA, seed=3)

    def test_loglik_bitwise_reproducible(self):
        theta = sl.RegimeParams(0.1, 0.4, 1.5, 2.0)
        rng = np.random.default_rng(42)
        z = single_regime_increments(theta, GAMMA, DT, 2_000, rng)
        assert simulated_loglik(theta, z, GAMMA, seed=9) == simulated_loglik(theta, z, GAMMA, seed=9)

    def test_identity_matches_exact_gaussian_likelihood(self):
        rng = np.random.default_rng(43)
        z = 0.08 * DT + 0.35 * math.sqrt(DT) * rng.standard_normal(20_000)
        fit = sl.mle_fit(z, sl.Family.IDENTITY, init=sl.RegimeParams(0.0, 0.3, 1.0, 1.0), seed=11, dt=DT)
        s2 = z.var()
        ll_exact = -0.5 * z.size * (math.log(2 * math.pi * s2) + 1.0)
        assert abs(-fit.objective - ll_exact) < 0.01 * abs(ll_exact)

    def test_returns_best_evaluated_point(self, monkeypatch):
        """The fit is the lowest -ll the search evaluated, and it is the
        simulated likelihood at the returned parameters."""
        rng = np.random.default_rng(43)
        z = 0.08 * DT + 0.35 * math.sqrt(DT) * rng.standard_normal(20_000)
        kde_loglik = sl.estimation._kde_loglik
        evaluated = []

        def recording(sim, data):
            ll, floored = kde_loglik(sim, data)
            evaluated.append(-ll)
            return ll, floored

        monkeypatch.setattr(sl.estimation, "_kde_loglik", recording)
        fit = sl.mle_fit(z, sl.Family.IDENTITY, init=sl.RegimeParams(0.0, 0.3, 1.0, 1.0), seed=11, dt=DT)
        assert len(evaluated) > 1
        assert fit.objective == min(evaluated)
        assert fit.objective == -simulated_loglik(fit.params, z, sl.Family.IDENTITY, seed=11, dt=DT)

    def test_fit_recovers_cf(self):
        theta = sl.RegimeParams(0.1, 0.4, 1.5, 2.0)
        rng = np.random.default_rng(44)
        z = single_regime_increments(theta, GAMMA, DT, 50_000, rng)
        start = sl.mom_fit(z, GAMMA, dt=DT).params
        fit = sl.mle_fit(z, GAMMA, init=start, seed=5, dt=DT)
        u = np.linspace(-20, 20, 101)
        cf_true = np.exp(DT * sl.regime_char_exponent(theta, GAMMA, u))
        cf_fit = np.exp(DT * sl.regime_char_exponent(fit.params, GAMMA, u))
        assert np.abs(cf_fit - cf_true).max() < 1e-2
        assert sl.ParamBounds().contains(fit.params)

    def test_gamma_fit_transforms_each_alpha_once(self, monkeypatch):
        """The Gamma increments depend on alpha alone, and the sampler keeps
        enough of them that an alpha the search comes back to is not
        transformed again (with 3 kept, this fit made 124 transforms)."""
        theta = sl.RegimeParams(0.1, 0.4, 1.5, 2.0)
        z = single_regime_increments(theta, GAMMA, DT, 5000, np.random.default_rng(45))
        alphas = []
        transform = sl.mc.increment_from_draws

        def counting(spec, *args):
            alphas.append(spec.alpha)
            return transform(spec, *args)

        monkeypatch.setattr(sl.mc, "increment_from_draws", counting)
        sl.mle_fit(z, GAMMA, init=sl.mom_fit(z, GAMMA, dt=DT).params, seed=5, dt=DT)
        assert len(alphas) == len(set(alphas)) == 122

    def test_search_survives_floored_trial_points(self):
        """The IG fit on the regime-2 returns of the acceptance-9 model: the
        first L-BFGS-B trial point is the box corner (mu=-1, sigma=1e-6,
        alpha=1e-6), where every simulated density is floored. The search
        goes on past it instead of aborting."""
        fam, r = sl.Family.INVERSE_GAUSSIAN, 0.04
        truth = (rn_regime(0.25, 2.5, 2.0, fam, r), rn_regime(0.45, 4.0, 3.0, fam, r))
        model = sl.SwitchingModel(truth, 2.5, 1.0, fam, 20.0, r)
        rng = np.random.default_rng(0)
        n = 5000
        path = sl.simulate_regime_path(model, n * DT, rng)
        labels = path.states[np.searchsorted(path.switch_times, (np.arange(n) + 0.5) * DT, side="right")]
        z = np.empty(n)
        for j, prm in enumerate(truth, start=1):
            mask = labels == j
            z[mask] = single_regime_increments(prm, fam, DT, int(mask.sum()), rng)
        z2 = z[labels == 2]
        assert z2.size == 3286
        start = sl.mom_fit(z2, fam, dt=DT).params
        fit = sl.mle_fit(z2, fam, init=start, dt=DT)
        np.testing.assert_allclose(fit.params.as_array(), [-0.176, 0.444, 3.49, 3.47], atol=0.01)
        u = np.linspace(-20, 20, 101)
        cf_true = np.exp(DT * sl.regime_char_exponent(truth[1], fam, u))
        cf_fit = np.exp(DT * sl.regime_char_exponent(fit.params, fam, u))
        assert np.abs(cf_fit - cf_true).max() < 0.05

    def test_floored_start_point_raises(self):
        """Only a start point with every density floored aborts the fit."""
        z = np.full(200, 5.0) + np.linspace(0.0, 1e-3, 200)
        with pytest.raises(EstimationError, match="floored"):
            sl.mle_fit(z, GAMMA, init=sl.RegimeParams(0.0, 0.01, 1.0, 1.0), dt=DT)

    def test_minimum_simulation_size(self):
        with pytest.raises(EstimationError, match="n_sim"):
            sl.mle_fit(np.zeros(100), GAMMA, n_sim=100)


def test_cross_estimator_sigma_agreement():
    """Moment, distance and likelihood fits agree on sigma within 25%."""
    theta = sl.RegimeParams(0.1, 0.4, 1.5, 2.0)
    rng = np.random.default_rng(45)
    z = single_regime_increments(theta, GAMMA, DT, 30_000, rng)
    f_mom = sl.mom_fit(z, GAMMA, dt=DT)
    f_mde = sl.mde_fit(z, GAMMA, init=f_mom.params, dt=DT)
    f_mle = sl.mle_fit(z, GAMMA, init=f_mom.params, seed=5, dt=DT)
    sigmas = np.array([f.params.sigma for f in (f_mom, f_mde, f_mle)])
    assert sigmas.max() / sigmas.min() < 1.25


def test_split_by_regime_partitions():
    dates, prices = synthetic_price_history()
    series = ReturnSeries(tuple(dates[1:]), np.diff(np.log(prices)))
    labels = sl.segment_regimes(series, sl.DateWindows(REGIME1_WINDOWS))
    parts = sl.split_by_regime(series, labels)
    assert len(parts[1]) + len(parts[2]) == len(series)
    assert len(parts[1]) > 100 and len(parts[2]) > 100
