import numpy as np
import pytest

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
