import math

import numpy as np
import pytest
from scipy.special import gammainc

import switchlevy as sl


class TestGeneratorMatrix:
    def test_trajectory_figure_intensities(self):
        model = sl.SwitchingModel(
            (sl.RegimeParams(0.0, 1.0, 1.0, 1.0),) * 2, 5.0, 2.0, sl.Family.GAMMA, 20.0, 0.0
        )
        np.testing.assert_array_equal(sl.generator_matrix(model), [[-5.0, 5.0], [2.0, -2.0]])

    def test_no_switching_gives_zero_matrix(self):
        model = sl.SwitchingModel(
            (sl.RegimeParams(0.0, 1.0, 1.0, 1.0),) * 2, 0.0, 0.0, sl.Family.GAMMA, 20.0, 0.0
        )
        np.testing.assert_array_equal(sl.generator_matrix(model), np.zeros((2, 2)))

    def test_symmetric_intensities(self):
        model = sl.SwitchingModel(
            (sl.RegimeParams(0.0, 1.0, 1.0, 1.0),) * 2, 4.0, 4.0, sl.Family.GAMMA, 20.0, 0.0
        )
        np.testing.assert_array_equal(sl.generator_matrix(model), [[-4.0, 4.0], [4.0, -4.0]])

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            l12, l21 = rng.uniform(0, 20, size=2)
            model = sl.SwitchingModel(
                (sl.RegimeParams(0.0, 1.0, 1.0, 1.0),) * 2, l12, l21, sl.Family.GAMMA, 20.0, 0.0
            )
            np.testing.assert_array_equal(sl.generator_matrix(model).sum(axis=1), [0.0, 0.0])


def _chain_model(l12: float, l21: float) -> sl.SwitchingModel:
    prm = sl.RegimeParams(0.0, 1.0, 1.0, 1.0)
    return sl.SwitchingModel((prm, prm), l12, l21, sl.Family.IDENTITY, 20.0, 0.0)


class TestRegimePathSimulation:
    def test_absorbing_first_regime(self):
        rng = np.random.default_rng(1)
        path = sl.simulate_regime_path(_chain_model(0.0, 2.0), 5.0, rng)
        assert len(path.switch_times) == 0
        np.testing.assert_array_equal(path.states, [1])

    def test_states_alternate_and_start_at_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            path = sl.simulate_regime_path(_chain_model(5.0, 2.0), 2.0, rng)
            assert path.states[0] == 1
            assert np.all(path.states[1:] != path.states[:-1])
            if len(path.switch_times):
                assert np.all(np.diff(path.switch_times) > 0)
                assert path.switch_times[-1] <= 2.0

    def test_switch_count_matches_discretized_chain_oracle(self):
        """Mean number of 1->2 moves on [0,1] against a deterministic
        discrete-time chain with step 1e-4."""
        l12, l21, h = 5.0, 2.0, 1e-4
        pi1, expected = 1.0, 0.0
        for _ in range(int(1.0 / h)):
            expected += pi1 * l12 * h
            pi1 = pi1 * (1 - l12 * h) + (1 - pi1) * l21 * h

        rng = np.random.default_rng(77)
        counts = np.empty(10_000)
        for i in range(counts.size):
            path = sl.simulate_regime_path(_chain_model(l12, l21), 1.0, rng)
            counts[i] = int(np.sum(path.states[1:] == 2))
        se = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - expected) < 3 * se

    def test_symmetric_chain_occupation_near_half(self):
        rng = np.random.default_rng(3)
        fracs = [
            sl.occupation_fraction(sl.simulate_regime_path(_chain_model(4.0, 4.0), 10.0, rng), 10.0)
            for _ in range(400)
        ]
        fracs = np.asarray(fracs)
        se = fracs.std(ddof=1) / np.sqrt(fracs.size)
        assert abs(fracs.mean() - 0.5) < 3 * se

    def test_mean_holding_times(self):
        """Completed sojourn durations average 1/lambda within 3 SE."""
        rng = np.random.default_rng(4)
        sojourns = {1: [], 2: []}
        for _ in range(450):
            path = sl.simulate_regime_path(_chain_model(5.0, 2.0), 20.0, rng)
            bounds = np.concatenate(([0.0], path.switch_times))
            durations = np.diff(bounds)  # completed sojourns only
            for state, dur in zip(path.states[:-1], durations):
                sojourns[state].append(dur)
        for state, lam in ((1, 5.0), (2, 2.0)):
            s = np.asarray(sojourns[state])
            assert s.size > 10_000
            se = s.std(ddof=1) / np.sqrt(s.size)
            assert abs(s.mean() - 1.0 / lam) < 3 * se


class TestOccupationFraction:
    def test_no_switches(self):
        path = sl.RegimePath(np.array([]), np.array([1]))
        assert sl.occupation_fraction(path, 2.0) == 1.0

    def test_single_switch_at_midpoint(self):
        path = sl.RegimePath(np.array([1.0]), np.array([1, 2]))
        assert sl.occupation_fraction(path, 2.0) == pytest.approx(0.5)

    def test_two_switches(self):
        path = sl.RegimePath(np.array([0.25, 0.75]), np.array([1, 2, 1]))
        assert sl.occupation_fraction(path, 1.0) == pytest.approx(0.5)


class TestValidation:
    def test_states_must_alternate(self):
        with pytest.raises(ValueError, match="alternate"):
            sl.RegimePath(np.array([0.5, 1.0]), np.array([1, 1, 2]))

    def test_must_start_in_regime_one(self):
        with pytest.raises(ValueError, match="start"):
            sl.RegimePath(np.array([0.5]), np.array([2, 1]))

    def test_switch_times_increasing(self):
        with pytest.raises(ValueError):
            sl.RegimePath(np.array([0.5, 0.4]), np.array([1, 2, 1]))

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            sl.SwitchingModel(
                (sl.RegimeParams(0.0, 1.0, 1.0, 1.0),) * 2, -1.0, 0.0, sl.Family.GAMMA, 20.0, 0.0
            )

    def test_positivity_of_regime_params(self):
        for bad in (dict(sigma=0.0), dict(alpha=-1.0), dict(beta=0.0)):
            kwargs = dict(mu=0.0, sigma=1.0, alpha=1.0, beta=1.0)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                sl.RegimeParams(**kwargs)

    def test_sojourn_intensity_conversions(self):
        assert sl.mean_sojourn_to_intensity(0.2) == pytest.approx(5.0)
        assert sl.intensity_to_mean_sojourn(4.0) == pytest.approx(0.25)
        assert sl.intensity_to_mean_sojourn(0.0) == np.inf


class TestFamilyAndFiniteness:
    @pytest.mark.parametrize("field", ["mu", "sigma", "alpha", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_regime_params_reject_nonfinite(self, field, value):
        kwargs = {**dict(mu=0.0, sigma=1.0, alpha=1.0, beta=1.0), field: value}
        with pytest.raises(ValueError):
            sl.RegimeParams(**kwargs)

    def test_model_takes_family_by_value(self):
        prm = (sl.RegimeParams(0.0, 1.0, 1.0, 1.0),) * 2
        assert sl.SwitchingModel(prm, 1.0, 1.0, "ig", 20.0, 0.0).family is sl.Family.INVERSE_GAUSSIAN
        for bad in ("cauchy", 3, None):
            with pytest.raises(ValueError):
                sl.SwitchingModel(prm, 1.0, 1.0, bad, 20.0, 0.0)


class TestOccupationCumulants:
    """Cumulants (zeta_1..zeta_4) of the time tau spent in regime 1 over
    [0, t]. They carry an absolute rounding error of order eps t^n, so the
    small higher cumulants of a fast chain are compared on that scale."""

    @pytest.mark.parametrize("l12, l21", [(0.01, 2.5), (2.5, 1.0), (20.0, 10.0), (100.0, 0.01), (3.0, 40.0)])
    @pytest.mark.parametrize("t", [1e-3, 0.25, 1.0, 5.0])
    def test_mean_closed_form(self, l12, l21, t):
        rate = l12 + l21
        mean = l21 * t / rate - l12 * math.expm1(-rate * t) / rate**2
        assert sl.occupation_cumulants(l12, l21, t)[0] == pytest.approx(mean, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("l21", [0.0, 2.5])
    def test_absorbing_first_regime_is_exact(self, l21):
        assert sl.occupation_cumulants(0.0, l21, 0.7) == (0.7, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("l12, t", [(0.5, 1.0), (3.0, 1.0), (2.0, 0.01), (20.0, 2.0), (100.0, 2.5)])
    def test_absorbing_second_regime_is_a_truncated_exponential(self, l12, t):
        """l21 = 0 gives tau = min(Exp(l12), t), with raw moments
        E[tau^n] = n!/l12^n P(n, l12 t), P the regularized incomplete gamma."""
        m1, m2, m3, m4 = (math.factorial(n) / l12**n * gammainc(n, l12 * t) for n in range(1, 5))
        reference = (
            m1,
            m2 - m1**2,
            m3 - 3.0 * m2 * m1 + 2.0 * m1**3,
            m4 - 4.0 * m3 * m1 - 3.0 * m2**2 + 12.0 * m2 * m1**2 - 6.0 * m1**4,
        )
        got = sl.occupation_cumulants(l12, 0.0, t)
        for n, (z, ref) in enumerate(zip(got, reference), start=1):
            assert abs(z - ref) <= 1e-12 * abs(ref) + 1e-14 * t**n, n

    @pytest.mark.parametrize("l12, l21", [(1.0, 3.0), (3.0, 1.0), (0.01, 5.0), (5.0, 0.01)])
    def test_series_and_closed_forms_meet(self, l12, l21):
        """Either side of the horizon where the sinhc derivatives switch from
        their series to their closed forms."""
        t = 2.0 * sl.regime._SERIES_ROOT / (l12 + l21)
        below = sl.occupation_cumulants(l12, l21, t * (1.0 - 1e-15))
        above = sl.occupation_cumulants(l12, l21, t * (1.0 + 1e-15))
        for n, (z_below, z_above) in enumerate(zip(below, above), start=1):
            assert abs(z_below - z_above) <= 1e-12 * abs(z_above) + 1e-14 * t**n, n

    @pytest.mark.parametrize("l12, l21, t", [(2.5, 1.0, 2.0), (30.0, 12.0, 1.0)])
    def test_against_simulated_paths(self, l12, l21, t):
        """Mean and variance of `occupation_fraction` over simulated paths
        within 4 standard errors; the variance's standard error uses zeta_4."""
        z1, z2, _, z4 = sl.occupation_cumulants(l12, l21, t)
        rng = np.random.default_rng(23)
        model = _chain_model(l12, l21)
        fracs = np.array([sl.occupation_fraction(sl.simulate_regime_path(model, t, rng), t) for _ in range(4000)])
        n = fracs.size
        assert abs(fracs.mean() - z1 / t) < 4.0 * math.sqrt(z2 / n) / t
        assert abs(fracs.var(ddof=1) - z2 / t**2) < 4.0 * math.sqrt((z4 + 2.0 * z2**2) / n) / t**2

    def test_non_finite_intensity_gives_nans(self):
        assert all(math.isnan(z) for z in sl.occupation_cumulants(math.inf, 1.0, 1.0))
        assert all(math.isnan(z) for z in sl.occupation_cumulants(1.0, math.inf, 1.0))
        assert all(math.isnan(z) for z in sl.occupation_cumulants(0.0, math.inf, 1.0))
