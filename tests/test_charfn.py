import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import switchlevy as sl
from switchlevy.charfn import (
    expm_row_sum,
    expm_row_sum_grad,
    phi_matrix_batch,
    regime_char_exponent_grad,
)
from switchlevy.cos import log_return_cumulants

from conftest import bs_reduced_model, expm2_oracle, rn_regime, single_regime_increments

GAMMA = sl.Family.GAMMA
IG = sl.Family.INVERSE_GAUSSIAN
IDENTITY = sl.Family.IDENTITY


class TestRegimeCharExponent:
    @pytest.mark.parametrize("family", [GAMMA, IG, IDENTITY])
    def test_zero(self, family):
        prm = sl.RegimeParams(0.3, 0.5, 0.7, 0.9)
        assert sl.regime_char_exponent(prm, family, 0.0) == 0

    def test_identity_is_gaussian_exponent(self):
        prm = sl.RegimeParams(0.07, 0.4, 1.0, 1.0)
        u = np.linspace(-30, 30, 101)
        got = sl.regime_char_exponent(prm, IDENTITY, u)
        np.testing.assert_allclose(got, 1j * 0.07 * u - 0.5 * 0.16 * u**2, atol=1e-14)

    def test_gamma_exponent_against_simulated_cf(self):
        """exp(Psi(1)) vs the empirical CF of 1e6 exact increments."""
        prm = sl.RegimeParams(0.01, 1.0, 0.1, 0.1)
        rng = np.random.default_rng(0)
        y = single_regime_increments(prm, GAMMA, 1.0, 1_000_000, rng)
        vals = np.exp(1j * y)
        target = np.exp(sl.regime_char_exponent(prm, GAMMA, 1.0))
        for part in (np.real, np.imag):
            se = part(vals).std(ddof=1) / np.sqrt(vals.size)
            assert abs(part(vals).mean() - part(target)) < 3 * se


class TestPhiMatrix:
    def _model(self, l12=5.0, l21=2.0):
        p1 = sl.RegimeParams(0.01, 1.0, 0.1, 0.1)
        p2 = sl.RegimeParams(-0.1, 5.0, 0.1, 10.0)
        return sl.SwitchingModel((p1, p2), l12, l21, GAMMA, 20.0, 0.04)

    def test_reduces_to_generator_at_zero(self):
        model = self._model()
        np.testing.assert_allclose(
            sl.phi_matrix(model, 0.0), sl.generator_matrix(model), atol=1e-14
        )

    def test_diagonal_without_switching(self):
        model = self._model(0.0, 0.0)
        phi = sl.phi_matrix(model, 1.3)
        assert phi[0, 1] == 0 and phi[1, 0] == 0
        assert phi[0, 0] == sl.regime_char_exponent(model.regimes[0], GAMMA, 1.3)

    def test_off_diagonals_are_intensities(self):
        model = self._model()
        for u in (0.5, 2.0, 17.0):
            phi = sl.phi_matrix(model, u)
            assert phi[0, 1] == 5.0 and phi[1, 0] == 2.0


class TestMatrixExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(sl.matrix_exp(np.zeros((2, 2), dtype=complex)), np.eye(2))

    def test_diagonal(self):
        got = sl.matrix_exp(np.diag([1.0 + 0j, -1.0 + 0j]))
        np.testing.assert_allclose(got, np.diag([np.e, 1 / np.e]), atol=1e-12)

    def test_random_complex_against_eigen_oracle(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(800):
            a = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * rng.uniform(0.05, 25)
            got = sl.matrix_exp(a)
            ref = expm2_oracle(a)
            worst = max(worst, np.abs(got - ref).max() / np.abs(ref).max())
        assert worst < 1e-10

    def test_near_defective(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-13]], dtype=complex)
        np.testing.assert_allclose(sl.matrix_exp(a), expm2_oracle(a), rtol=1e-10)

    def test_stochastic_semigroup(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            l12, l21 = rng.uniform(0, 10, size=2)
            t = rng.uniform(0, 5)
            q = np.array([[-l12, l12], [l21, -l21]], dtype=complex)
            p = sl.matrix_exp(q * t).real
            assert np.all(p >= -1e-12)
            np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], atol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(14)
        p1 = sl.RegimeParams(0.01, 1.0, 0.1, 0.1)
        p2 = sl.RegimeParams(-0.1, 5.0, 0.1, 10.0)
        model = sl.SwitchingModel((p1, p2), 5.0, 2.0, GAMMA, 20.0, 0.04)
        for _ in range(20):
            u = rng.uniform(-20, 20)
            t, s = rng.uniform(0.1, 2, size=2)
            phi = sl.phi_matrix(model, u)
            lhs = sl.matrix_exp(t * phi) @ sl.matrix_exp(s * phi)
            rhs = sl.matrix_exp((t + s) * phi)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(15)
        stack = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
        batched = sl.matrix_exp(stack)
        for k in range(7):
            np.testing.assert_allclose(batched[k], sl.matrix_exp(stack[k]), atol=1e-13)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sl.matrix_exp(np.array([[np.inf, 0], [0, 0]], dtype=complex))


class TestSwitchingCf:
    def _random_model(self, rng):
        fam = (GAMMA, IG)[rng.integers(0, 2)]
        prms = tuple(
            sl.RegimeParams(rng.uniform(-0.3, 0.3), rng.uniform(0.1, 1.0),
                            rng.uniform(0.2, 5), rng.uniform(0.5, 5))
            for _ in range(2)
        )
        return sl.SwitchingModel(prms, rng.uniform(0, 6), rng.uniform(0, 6), fam, 20.0, 0.04)

    def test_unit_at_zero(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            cf = sl.CharFn(self._random_model(rng), rng.uniform(0.1, 3))
            assert abs(sl.switching_cf(cf, 0.0) - 1.0) < 1e-12

    def test_no_switching_reduces_to_single_regime(self):
        p1 = sl.RegimeParams(0.05, 0.6, 0.9, 1.4)
        p2 = sl.RegimeParams(-0.4, 2.0, 3.0, 0.8)
        model = sl.SwitchingModel((p1, p2), 0.0, 0.0, GAMMA, 20.0, 0.04)
        cf = sl.CharFn(model, 1.7)
        u = np.linspace(-10, 10, 41)
        expected = np.exp(1j * u * np.log(20.0) + 1.7 * sl.regime_char_exponent(p1, GAMMA, u))
        np.testing.assert_allclose(sl.switching_cf(cf, u), expected, atol=1e-12)

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(17)
        u = np.linspace(-100, 100, 201)
        for _ in range(10):
            cf = sl.CharFn(self._random_model(rng), rng.uniform(0.1, 3))
            assert np.all(np.abs(sl.switching_cf(cf, u)) <= 1 + 1e-12)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(18)
        u = np.linspace(0.1, 40, 50)
        for _ in range(10):
            cf = sl.CharFn(self._random_model(rng), rng.uniform(0.1, 3))
            np.testing.assert_allclose(
                sl.switching_cf(cf, -u), np.conj(sl.switching_cf(cf, u)), atol=1e-13
            )

    def test_matches_empirical_cf_on_trajectory_set(self, fig2a_model):
        rng = np.random.default_rng(19)
        z = sl.sample_terminal(fig2a_model, 1.0, 30_000, 1 / 250, rng)
        cf = sl.CharFn(fig2a_model, 1.0, y0=0.0)
        for u in (-5.0, -1.0, 0.5, 2.0, 7.0):
            phi = sl.switching_cf(cf, u)
            vals = np.exp(1j * u * z)
            for part in (np.real, np.imag):
                se = part(vals).std(ddof=1) / np.sqrt(vals.size)
                assert abs(part(vals).mean() - part(phi)) < 3 * se + 1e-12


class TestArrayHorizons:
    """A column of horizons sweeps every horizon in one `switching_cf` and
    one `log_return_cumulants` call, with the scalar calls' results."""

    T = np.array([0.25, 2.0, 0.75, 0.25, 1.5])

    @pytest.mark.parametrize("family", list(sl.Family))
    @pytest.mark.parametrize("y0", [0.0, 0.3])
    def test_cf_rows_equal_scalar_calls(self, family, y0):
        model = TestSwitchingCf()._random_model(np.random.default_rng(51))
        model = sl.SwitchingModel(model.regimes, model.lambda12, model.lambda21, family, 20.0, 0.04)
        u = np.arange(64)[None, :] / (1.0 + self.T[:, None])  # one u row per horizon
        rows = sl.switching_cf(sl.CharFn(model, self.T[:, None], y0=y0), u)
        assert rows.shape == u.shape
        for row, t, u_row in zip(rows, self.T, u):
            scalar = sl.switching_cf(sl.CharFn(model, t, y0=y0), u_row)
            np.testing.assert_allclose(row, scalar, rtol=0, atol=1e-15)
        shared = sl.switching_cf(sl.CharFn(model, self.T[:, None], y0=y0), u[0])  # one row for all
        for row, t in zip(shared, self.T):
            scalar = sl.switching_cf(sl.CharFn(model, t, y0=y0), u[0])
            np.testing.assert_allclose(row, scalar, rtol=0, atol=1e-15)

    def test_tuple_column_keeps_the_cf_hashable(self):
        model = bs_reduced_model(0.04, 0.3)
        column = tuple((t,) for t in self.T)
        cf = sl.CharFn(model, column, y0=0.0)
        assert cf.t == column and hash(cf) == hash(sl.CharFn(model, column, y0=0.0))
        u = np.arange(8.0)
        np.testing.assert_array_equal(
            sl.switching_cf(cf, u), sl.switching_cf(sl.CharFn(model, self.T[:, None], y0=0.0), u)
        )

    def test_scalar_shapes_unchanged(self):
        cf = sl.CharFn(bs_reduced_model(0.04, 0.3), 1.0)
        assert isinstance(sl.switching_cf(cf, 0.5), complex)
        assert sl.switching_cf(cf, np.zeros((2, 3))).shape == (2, 3)
        assert sl.switching_cf(sl.CharFn(cf.model, self.T), 0.5).shape == self.T.shape

    @pytest.mark.parametrize("family", list(sl.Family))
    def test_cumulants_equal_scalar_calls(self, family):
        model = TestSwitchingCf()._random_model(np.random.default_rng(52))
        model = sl.SwitchingModel(model.regimes, model.lambda12, model.lambda21, family, 20.0, 0.04)
        batched = log_return_cumulants(sl.CharFn(model, self.T[:, None], y0=0.2))
        for c in batched:
            assert c.shape == (len(self.T), 1)
        for i, t in enumerate(self.T):
            scalar = log_return_cumulants(sl.CharFn(model, t, y0=0.2))
            assert all(isinstance(c, float) for c in scalar)
            np.testing.assert_allclose([c[i, 0] for c in batched], scalar, rtol=1e-15, atol=0)

    def test_rejects_nonfinite_entries(self):
        model = bs_reduced_model(0.04, 0.3)
        with pytest.raises(ValueError, match="finite"):
            sl.switching_cf(sl.CharFn(model, self.T[:, None]), np.array([0.0, np.nan]))
        jumpy = sl.SwitchingModel(model.regimes, np.inf, 1.0, model.family, model.s0, model.r)
        with pytest.raises(ValueError, match="finite"):
            sl.switching_cf(sl.CharFn(jumpy, 1.0), np.arange(3.0))

    @pytest.mark.parametrize(
        "t", [0.0, -1.0, np.nan, np.inf, [1.0, 0.0], [[0.5], [-2.0]], [1.0, np.nan], [np.inf, 1.0], []]
    )
    def test_rejects_nonpositive_or_nonfinite_horizons(self, t):
        with pytest.raises(ValueError, match="horizon"):
            sl.CharFn(bs_reduced_model(0.04, 0.3), t)


def _pade_row_sum(a: np.ndarray) -> np.ndarray:
    return sl.matrix_exp(a)[:, 0, :].sum(axis=-1)


class TestClosedFormRowSum:
    """The closed-form e_1^T exp(A) 1 against the Pade reference."""

    @pytest.mark.parametrize("family", [GAMMA, IG])
    def test_random_models_against_pade(self, family):
        rng = np.random.default_rng(31)
        u = np.linspace(-200.0, 200.0, 801)
        for _ in range(25):
            prms = tuple(
                sl.RegimeParams(rng.uniform(-0.3, 0.3), rng.uniform(0.1, 1.0),
                                rng.uniform(0.2, 5), rng.uniform(0.5, 5))
                for _ in range(2)
            )
            model = sl.SwitchingModel(prms, rng.uniform(0, 6), rng.uniform(0, 6), family, 20.0, 0.04)
            a = rng.uniform(0.05, 3) * phi_matrix_batch(model, u)
            np.testing.assert_allclose(expm_row_sum(a), _pade_row_sum(a), rtol=0, atol=1e-12)

    def test_defective(self):
        # h = (a11 - a22)/2 = i and a12 a21 = 1, so d^2 = h^2 + a12 a21 = 0
        # exactly: a single eigenvalue m with a 2x2 Jordan block
        m = -0.3 + 0.2j
        a = np.array([[[m + 1j, 2.0], [0.5, m - 1j]]])
        assert (a[0, 0, 0] - a[0, 1, 1]) ** 2 / 4 + a[0, 0, 1] * a[0, 1, 0] == 0
        np.testing.assert_allclose(expm_row_sum(a), _pade_row_sum(a), rtol=1e-12)

    @pytest.mark.parametrize("h", [1e-8, 1e-8j, (1 + 1j) * 0.7e-8])
    def test_near_defective(self, h):
        # triangular, so d = +/-h: |d| ~ 1e-8
        m = -0.8 + 3.0j
        a = np.array([[[m + h, 1.5], [0.0, m - h]]])
        np.testing.assert_allclose(expm_row_sum(a), _pade_row_sum(a), rtol=1e-12)

    @pytest.mark.parametrize(
        "family,regimes",
        [
            (GAMMA, ((-0.2316, 0.03, 0.1, 1.0), (0.0541, 0.7, 0.1, 1.2))),
            (IG, ((0.01, 1.0, 0.1, 0.1), (-0.1, 5.0, 0.1, 10.0))),
        ],
    )
    def test_large_u_finite_and_bounded(self, family, regimes):
        # Gamma with alpha*T = 0.1: the CF decays only like |u|^(-0.2).
        # IG (trajectory-figure set): at |u| = 1e4 the diagonal of Phi differs
        # by ~4e3, so cosh d and sinh d alone would overflow
        p1, p2 = (sl.RegimeParams(*prm) for prm in regimes)
        model = sl.SwitchingModel((p1, p2), 2.5, 1.0, family, 20.0, 0.04)
        u = np.concatenate([-np.geomspace(1e4, 1e-3, 200), np.geomspace(1e-3, 1e4, 200)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid-value warnings
            phi = sl.switching_cf(sl.CharFn(model, 1.0, y0=0.0), u)
        assert np.all(np.isfinite(phi))
        assert np.all(np.abs(phi) <= 1 + 1e-12)

    def test_rejects_nonfinite(self):
        a = np.zeros((3, 2, 2), dtype=complex)
        a[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            expm_row_sum(a)


def _block_row_sum_grad(a: np.ndarray) -> np.ndarray:
    """d(e_1^T exp(A) 1)/d(a11, a22) of one 2x2 matrix from the Frechet
    derivative exp([[A, E], [0, A]])[:2, 2:] with E = e_11 and e_22 (Van
    Loan 1978), through scipy's general expm."""
    out = []
    for e in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        big = np.zeros((4, 4), dtype=complex)
        big[:2, :2] = big[2:, 2:] = a
        big[:2, 2:] = e
        out.append(expm(big)[0, 2:].sum())
    return np.array(out)


class TestRowSumGrad:
    """expm_row_sum_grad against the block-exponential Frechet derivative."""

    @staticmethod
    def _check(a: np.ndarray) -> None:
        f, d11, d22 = expm_row_sum_grad(a)
        np.testing.assert_array_equal(f, expm_row_sum(a))
        ref = np.array([_block_row_sum_grad(ak) for ak in a])
        np.testing.assert_allclose(np.stack([d11, d22], axis=1), ref, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("family", [GAMMA, IG])
    def test_random_models(self, family):
        rng = np.random.default_rng(47)
        u = np.linspace(-30.0, 30.0, 61)
        for _ in range(8):
            prms = tuple(
                sl.RegimeParams(rng.uniform(-0.3, 0.3), rng.uniform(0.1, 0.6),
                                rng.uniform(0.5, 5), rng.uniform(0.5, 5))
                for _ in range(2)
            )
            model = sl.SwitchingModel(prms, rng.uniform(0.1, 5), rng.uniform(0.1, 5), family, 20.0, 0.04)
            self._check(rng.uniform(0.05, 2.0) * phi_matrix_batch(model, u))

    def test_defective(self):
        m = -0.3 + 0.2j
        a = np.array([[[m + 1j, 2.0], [0.5, m - 1j]]])
        assert (a[0, 0, 0] - a[0, 1, 1]) ** 2 / 4 + a[0, 0, 1] * a[0, 1, 0] == 0
        self._check(a)

    @pytest.mark.parametrize("h", [1e-8, 1e-8j, (1 + 1j) * 0.7e-8])
    def test_near_defective(self, h):
        m = -0.8 + 3.0j
        self._check(np.array([[[m + h, 1.5], [0.0, m - h]], [[m + h, 1.5], [h * h, m - h]]]))

    def test_unreachable_second_regime(self):
        # a12 = 0: the chain never leaves regime 1, so f = e^{a11}
        a = np.array([[[-0.4 + 2.0j, 0.0], [1.3, -2.0 - 1.0j]]])
        f, d11, d22 = expm_row_sum_grad(a)
        np.testing.assert_allclose(d11, f, rtol=1e-15)
        assert d22[0] == 0.0


class TestCharExponentGrad:
    @pytest.mark.parametrize("family", [GAMMA, IG, IDENTITY])
    def test_against_central_differences(self, family):
        prm = sl.RegimeParams(-0.15, 0.4, 2.5, 1.7)
        u = np.linspace(-25.0, 25.0, 51)
        grad = regime_char_exponent_grad(prm, family, u)
        assert grad.shape == (4, u.size)
        x = prm.as_array()
        for j in range(4):
            h = 1e-6 * x[j]
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            fd = (
                sl.regime_char_exponent(sl.RegimeParams(*up), family, u)
                - sl.regime_char_exponent(sl.RegimeParams(*down), family, u)
            ) / (2.0 * h)
            np.testing.assert_allclose(grad[j], fd, rtol=1e-7, atol=1e-7)


class TestClockScale:
    """Rescaling a regime's clock by c and its mu, sigma to match leaves the
    law of Y unchanged: Gamma (mu/c, sigma/sqrt(c), alpha, beta/c), IG
    (mu/c, sigma/sqrt(c), alpha sqrt(c), beta/sqrt(c)). So alpha and beta
    are identified only up to this scale, by prices and by history alike."""

    @staticmethod
    def _scaled(prm, family, c):
        root = np.sqrt(c)
        if family is GAMMA:
            return sl.RegimeParams(prm.mu / c, prm.sigma / root, prm.alpha, prm.beta / c)
        return sl.RegimeParams(prm.mu / c, prm.sigma / root, prm.alpha * root, prm.beta / root)

    @pytest.mark.parametrize("family", [GAMMA, IG])
    @pytest.mark.parametrize("c", [0.37, 2.5])
    def test_exponent_and_prices_unchanged(self, family, c):
        prms = (sl.RegimeParams(0.05, 0.3, 1.5, 2.0), sl.RegimeParams(-0.1, 0.5, 4.0, 3.0))
        scaled = tuple(self._scaled(p, family, c) for p in prms)
        u = np.linspace(-40.0, 40.0, 161)
        for p, q in zip(prms, scaled):
            np.testing.assert_allclose(
                sl.regime_char_exponent(q, family, u), sl.regime_char_exponent(p, family, u), rtol=1e-12
            )
        contracts = [
            sl.ContractSpec(k, t, kind) for t in (0.5, 1.0) for k in (16.0, 20.0, 24.0) for kind in sl.OptionKind
        ]
        prices = [
            sl.price_table(sl.SwitchingModel(ps, 2.5, 1.0, family, 20.0, 0.04), contracts)
            for ps in (prms, scaled)
        ]
        np.testing.assert_allclose(prices[1], prices[0], rtol=1e-12)


class TestRiskNeutralDrift:
    def test_identity_closed_form(self):
        prm = sl.RegimeParams(0.0, 0.5, 1.0, 1.0)
        assert sl.risk_neutral_drift(prm, IDENTITY, 0.04) == pytest.approx(0.04 - 0.125, abs=1e-15)

    def test_gamma_analytic_cross_check(self):
        a, b, s, r = 0.1, 1.0, 0.03, 0.04
        mu = sl.risk_neutral_drift(sl.RegimeParams(0.0, s, a, b), GAMMA, r)
        assert mu == pytest.approx(b * (1 - np.exp(-r / a)) - s**2 / 2, abs=1e-10)
        psi = sl.regime_char_exponent(sl.RegimeParams(mu, s, a, b), GAMMA, -1j)
        assert abs(psi - r) < 1e-10

    def test_ig_analytic_cross_check(self):
        a, b, s, r = 0.5, 2.0, 0.4, 0.06
        mu = sl.risk_neutral_drift(sl.RegimeParams(0.0, s, a, b), IG, r)
        assert mu == pytest.approx(0.5 * (b**2 - (b - r / a) ** 2) - s**2 / 2, abs=1e-10)

    def test_zero_rate_zero_noise_gives_zero_drift(self):
        prm = sl.RegimeParams(0.0, 1e-8, 0.1, 1.0)
        assert abs(sl.risk_neutral_drift(prm, GAMMA, 0.0)) < 1e-12

    def test_negative_rate_bracketing(self):
        prm = sl.RegimeParams(0.0, 0.2, 0.5, 1.0)
        mu = sl.risk_neutral_drift(prm, GAMMA, -0.02)
        psi = sl.regime_char_exponent(sl.RegimeParams(mu, 0.2, 0.5, 1.0), GAMMA, -1j)
        assert abs(psi - (-0.02)) < 1e-10

    def test_ig_edge_beta_equals_r_over_alpha(self):
        """At beta = r/alpha the root is the closed end beta^2/2 of the
        exponent's domain: the drift is (r/alpha)(beta - r/(2 alpha)) - sigma^2/2."""
        s, a, b, r = 0.2, 0.5, 0.08, 0.04
        mu = sl.risk_neutral_drift(sl.RegimeParams(0.0, s, a, b), IG, r)
        assert mu == pytest.approx((r / a) * (b - r / (2 * a)) - s**2 / 2, abs=1e-15)
        assert mu == pytest.approx(-0.0168, abs=1e-15)

    def test_ig_just_above_edge(self):
        """beta = (r/alpha)(1 + 1e-12): the drift is the closed form to
        1e-15. The martingale residual ell(mu + sigma^2/2) - r, in closed
        form, is at most 1e-10 and at most 1e-9 in size: its slope
        alpha / sqrt(beta^2 - 2s), ~1e9 here, scales the rounding of
        mu + sigma^2/2."""
        s, a, r = 0.2, 0.5, 0.04
        b = (r / a) * (1 + 1e-12)
        mu = sl.risk_neutral_drift(sl.RegimeParams(0.0, s, a, b), IG, r)
        assert mu == pytest.approx((r / a) * (b - r / (2 * a)) - s**2 / 2, abs=1e-15)
        x = mu + 0.5 * s**2
        resid = a * (b - math.sqrt(max(b * b - 2.0 * x, 0.0))) - r
        assert resid <= 1e-10 and abs(resid) <= 1e-9

    def test_ig_edge_sweep_matches_closed_form(self):
        """beta = (r/alpha)(1 + eps) for eps = 0 and 400 log-spaced eps in
        [1e-15, 1e-3]: near the edge the bracket reaches the closed end
        beta^2/2, where ell = alpha beta, and ell's slope is huge, yet every
        drift is the closed form (r/alpha)(beta - r/(2 alpha)) - sigma^2/2."""
        s, a, r = 0.1, 5.0, 0.01
        for eps in (0.0, *np.logspace(-15, -3, 400)):
            b = (r / a) * (1 + eps)
            mu = sl.risk_neutral_drift(sl.RegimeParams(0.0, s, a, b), IG, r)
            assert abs(mu - ((r / a) * (b - r / (2 * a)) - s**2 / 2)) <= 1e-14, eps

    def test_ig_without_exponential_moment(self):
        prm = sl.RegimeParams(0.0, 0.1, 0.1, 0.2)  # beta < r/alpha = 0.4
        with pytest.raises(ValueError, match="beta >= r/alpha"):
            sl.risk_neutral_drift(prm, IG, 0.04)

    def test_discounted_forward_through_cf(self):
        """Single regime, risk-neutral: cf(-i) = s0 * exp(r t)."""
        r, t = 0.05, 2.0
        for family in (GAMMA, IG, IDENTITY):
            prm = rn_regime(0.25, 1.5, 2.0, family, r)
            model = sl.SwitchingModel((prm, prm), 0.0, 0.0, family, 20.0, r)
            val = sl.switching_cf(sl.CharFn(model, t), -1j)
            assert abs(val.real - 20.0 * np.exp(r * t)) < 1e-6
            assert abs(val.imag) < 1e-9


class TestEsscherTilt:
    def test_zero_theta_is_identity(self):
        prm = sl.RegimeParams(0.1, 0.5, 0.8, 1.2)
        tilt = sl.esscher_tilt(prm, GAMMA, 0.0)
        u = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(tilt(u), sl.regime_char_exponent(prm, GAMMA, u), atol=1e-14)

    @pytest.mark.parametrize("theta", [-0.5, 0.3, 1.0])
    def test_normalization(self, theta):
        prm = sl.RegimeParams(0.05, 0.2, 0.8, 2.0)
        tilt = sl.esscher_tilt(prm, GAMMA, theta)
        assert abs(tilt(0.0)) < 1e-14

    def test_gaussian_tilt_shifts_drift(self):
        prm = sl.RegimeParams(0.0, 1.0, 1.0, 1.0)
        tilt = sl.esscher_tilt(prm, IDENTITY, 1.0)
        u = np.linspace(-4, 4, 17)
        np.testing.assert_allclose(tilt(u), 1j * u - 0.5 * u**2, atol=1e-12)

    def test_missing_exponential_moment(self):
        prm = sl.RegimeParams(0.0, 1.0, 0.5, 1.0)  # theta^2/2 beyond gamma domain
        with pytest.raises(ValueError, match="moment"):
            sl.esscher_tilt(prm, GAMMA, 3.0)


def test_phi_matrix_batch_shape(fig2a_model):
    u = np.linspace(-3, 3, 11)
    batch = phi_matrix_batch(fig2a_model, u)
    assert batch.shape == (11, 2, 2)
    np.testing.assert_allclose(batch[5], sl.generator_matrix(fig2a_model), atol=1e-14)


def test_bs_reduction_cf_is_gaussian():
    model = bs_reduced_model(0.04, 0.5)
    cf = sl.CharFn(model, 1.0, y0=0.0)
    u = np.linspace(-10, 10, 41)
    mu = 0.04 - 0.125
    np.testing.assert_allclose(
        sl.switching_cf(cf, u), np.exp(1j * mu * u - 0.125 * u**2), atol=1e-12
    )


class TestFamilyByValue:
    """A family given by its string value is the family itself."""

    @pytest.mark.parametrize("family", list(sl.Family))
    def test_exponent_grad(self, family):
        prm, u = sl.RegimeParams(0.1, 0.4, 1.5, 2.0), np.linspace(-20.0, 20.0, 81)
        expected = regime_char_exponent_grad(prm, family, u)
        np.testing.assert_array_equal(regime_char_exponent_grad(prm, family.value, u), expected)

    def test_identity_drift(self):
        prm = sl.RegimeParams(0.0, 0.5, 1.0, 1.0)
        assert sl.risk_neutral_drift(prm, "identity", 0.04) == 0.04 - 0.5**2 / 2

    @pytest.mark.parametrize("family", [GAMMA, IG])
    def test_drift(self, family):
        prm = sl.RegimeParams(0.0, 0.3, 2.0, 3.0)
        assert sl.risk_neutral_drift(prm, family.value, 0.04) == sl.risk_neutral_drift(prm, family, 0.04)
