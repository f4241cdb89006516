import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import switchlevy as sl
from switchlevy.charfn import increment_cumulants
from switchlevy.cos import _guard_put_sums, _payoff_sums, _powers, log_return_cumulants

from conftest import bs_reduced_model, rn_regime

CALL = sl.OptionKind.CALL
PUT = sl.OptionKind.PUT


def fig4_gamma_model() -> sl.SwitchingModel:
    """Payoff-surface figure parameters under the Gamma subordinator."""
    p1 = sl.RegimeParams(-0.2316, 0.03, 0.1, 1.0)
    p2 = sl.RegimeParams(0.0541, 0.7, 0.1, 1.2)
    return sl.SwitchingModel((p1, p2), 2.5, 1.0, sl.Family.GAMMA, 20.0, 0.04)


class TestTruncationInterval:
    def test_standard_gaussian_cumulant_rule(self):
        model = bs_reduced_model(0.125, 0.5)  # mu = r - sigma^2/2 = 0
        prm = sl.RegimeParams(0.0, 1.0, 1.0, 1.0)
        model = sl.SwitchingModel((prm, prm), 0.0, 0.0, sl.Family.IDENTITY, 1.0, 0.0)
        cf = sl.CharFn(model, 1.0)  # y0 = log(s0/K) = 0 at K = s0 = 1
        a, b = sl.truncation_interval(cf, sl.CosConfig())
        # the cumulants are exact (c4 ~ 1e-17 here), so the width rule
        # gives +/-10 to ~1e-8, far inside the tolerance
        assert a == pytest.approx(-10.0, abs=5e-3)
        assert b == pytest.approx(10.0, abs=5e-3)

    def test_user_interval_passthrough(self):
        cf = sl.CharFn(bs_reduced_model(0.04, 0.5), 1.0)
        assert sl.truncation_interval(cf, sl.CosConfig(interval=(-8.0, 8.0))) == (cf.y0 - 8.0, cf.y0 + 8.0)

    def test_user_interval_on_horizon_column(self):
        """A user interval of the log return, shifted by y0, as two arrays
        of the horizons' (M, 1) shape."""
        cf = sl.CharFn(fig4_gamma_model(), np.array([[0.25], [1.0], [2.0]]), y0=0.3)
        a, b = sl.truncation_interval(cf, sl.CosConfig(interval=(-2.0, 3.0)))
        assert a.shape == b.shape == (3, 1)
        np.testing.assert_array_equal(a, 0.3 + -2.0)
        np.testing.assert_array_equal(b, 0.3 + 3.0)

    def test_interval_covers_simulated_mass(self):
        """Automatic interval holds all of 1e5 sampled log returns."""
        model = fig4_gamma_model()
        cf = sl.CharFn(model, 1.0, y0=0.0)  # K = s0
        a, b = sl.truncation_interval(cf, sl.CosConfig())
        z = sl.sample_terminal(model, 1.0, 100_000, 1 / 250, np.random.default_rng(9))
        assert np.all((z >= a) & (z <= b))

    def test_cumulants_of_bs_reduction(self):
        model = bs_reduced_model(0.04, 0.5)
        cf = sl.CharFn(model, 1.0, y0=0.0)
        c1, c2, c4 = log_return_cumulants(cf)
        assert c1 == pytest.approx(0.04 - 0.125, abs=1e-9)
        assert c2 == pytest.approx(0.25, rel=1e-5)
        assert abs(c4) < 1e-6


@pytest.mark.parametrize("intensities", [(math.inf, 1.0), (2.5, math.inf), (math.inf, math.inf)])
def test_infinite_intensity_raises_non_finite_cumulants(intensities):
    """SwitchingModel accepts an infinite intensity; pricing on it stops at
    the cumulants with a ValueError, neither an OverflowError nor a finite
    interval."""
    model = sl.SwitchingModel(fig4_gamma_model().regimes, *intensities, sl.Family.GAMMA, 20.0, 0.04)
    for t in (1.0, np.array([[0.5], [1.0]])):
        with pytest.raises(ValueError, match="non-finite cumulants"):
            sl.truncation_interval(sl.CharFn(model, t, y0=0.0), sl.CosConfig())
    with pytest.raises(ValueError, match="non-finite cumulants"):
        sl.price_table(model, [sl.ContractSpec(20.0, 1.0, CALL), sl.ContractSpec(18.0, 0.5, PUT)])


def acceptance9_ig_regimes() -> tuple[sl.RegimeParams, sl.RegimeParams]:
    fam = sl.Family.INVERSE_GAUSSIAN
    return rn_regime(0.25, 2.5, 2.0, fam, 0.04), rn_regime(0.45, 4.0, 3.0, fam, 0.04)


def van_loan_cumulants(model: sl.SwitchingModel, t: float) -> tuple[float, float, float]:
    """Reference c1, c2, c4 of Z_t (y0 = 0) from the block exponential.

    The moment generating function is E[e^{theta Z_t}] = e_1^T exp(t K) 1
    with K(theta) = Q + sum_n D_n theta^n / n!, where D_n holds the regimes'
    unit-time increment cumulants kappa_{j,n} on its diagonal. The
    exponential of the 10x10 block upper-triangular Toeplitz matrix with
    first block row t [Q, D_1, D_2/2!, D_3/3!, D_4/4!] has the Taylor
    coefficients of exp(t K(theta)) as its first block row (Van Loan 1978),
    so block n of row 0, summed and times n!, is the raw moment m_n.
    """
    factorials = np.array([1.0, 2.0, 6.0, 24.0])
    kappa = np.array([increment_cumulants(p, model.family, 1.0) for p in model.regimes])
    first = np.zeros((2, 10))
    first[:, :2] = sl.generator_matrix(model)
    first[0, 2::2], first[1, 3::2] = kappa / factorials
    big = np.zeros((10, 10))
    for r in range(5):
        big[2 * r : 2 * r + 2, 2 * r :] = first[:, : 10 - 2 * r]
    top = expm(t * big)[0]
    m1, m2, m3, m4 = (top[2::2] + top[3::2]) * factorials
    return m1, m2 - m1**2, m4 - 4.0 * m3 * m1 - 3.0 * m2**2 + 12.0 * m2 * m1**2 - 6.0 * m1**4


class TestExactCumulants:
    @pytest.mark.parametrize("family", list(sl.Family))
    @pytest.mark.parametrize("case", ["acceptance9-ig", "fig2a"])
    def test_against_van_loan_block_exponential(self, family, case):
        """The occupation-time composition against the 10x10 block
        exponential it replaced, every intensity pair of
        {0, 0.01, 2.5, 20, 100} in both orders and six horizons."""
        if case == "fig2a":
            regimes = (sl.RegimeParams(0.01, 1.0, 0.1, 0.1), sl.RegimeParams(-0.1, 5.0, 0.1, 10.0))
        else:
            regimes = acceptance9_ig_regimes()
        intensities = [0.0, 0.01, 2.5, 20.0, 100.0]
        for lambda12 in intensities:
            for lambda21 in intensities:
                model = sl.SwitchingModel(regimes, lambda12, lambda21, family, 20.0, 0.04)
                for t in (1e-3, 0.01, 0.25, 1.0, 2.0, 5.0):
                    c1, c2, c4 = log_return_cumulants(sl.CharFn(model, t, y0=0.0))
                    r1, r2, r4 = van_loan_cumulants(model, t)
                    where = f"l12={lambda12}, l21={lambda21}, t={t}"
                    assert c1 == pytest.approx(r1, rel=1e-12, abs=0.0), where
                    assert c2 == pytest.approx(r2, rel=1e-12, abs=0.0), where
                    assert abs(c4 - r4) <= 1e-11 * (r2 * r2 + abs(r4)), where

    @pytest.mark.parametrize("family", list(sl.Family))
    @pytest.mark.parametrize("t", [0.01, 1.0])
    def test_single_regime_closed_form(self, family, t):
        """Without switching the cumulants are the regime's own, t kappa_n."""
        prm = sl.RegimeParams(-0.15, 0.4, 2.5, 1.5)
        model = sl.SwitchingModel((prm, prm), 0.0, 0.0, family, 20.0, 0.04)
        c1, c2, c4 = log_return_cumulants(sl.CharFn(model, t, y0=0.0))
        k1, k2, _, k4 = increment_cumulants(prm, family, t)
        assert c1 == pytest.approx(k1, rel=1e-12)
        assert c2 == pytest.approx(k2, rel=1e-12)
        if family is sl.Family.IDENTITY:
            assert abs(c4) < 1e-12
        else:
            assert c4 == pytest.approx(k4, rel=1e-12)

    def test_y0_shifts_only_the_mean(self):
        model = fig4_gamma_model()
        c1, c2, c4 = log_return_cumulants(sl.CharFn(model, 0.5, y0=0.0))
        assert log_return_cumulants(sl.CharFn(model, 0.5, y0=0.7)) == (c1 + 0.7, c2, c4)

    @pytest.mark.parametrize("intensities", [(2.5, 1.0), (20.0, 10.0)])
    @pytest.mark.parametrize("t", [0.01, 0.25, 1.0, 2.0])
    @pytest.mark.parametrize("case", ["fig4-gamma", "acceptance9-ig"])
    def test_switching_against_contour_taylor_coefficients(self, case, intensities, t):
        """Reference: Taylor coefficients of log E[e^{theta Z_t}] from a
        64-point FFT of the CF at u = -i theta on the circle |theta| = 1."""
        if case == "fig4-gamma":
            regimes, family = fig4_gamma_model().regimes, sl.Family.GAMMA
        else:
            regimes, family = acceptance9_ig_regimes(), sl.Family.INVERSE_GAUSSIAN
        model = sl.SwitchingModel(regimes, *intensities, family, 20.0, 0.04)
        cf = sl.CharFn(model, t, y0=0.0)
        theta = np.exp(2j * np.pi * np.arange(64) / 64)
        taylor = np.fft.fft(np.log(sl.switching_cf(cf, -1j * theta))) / 64
        reference = (taylor[1].real, 2.0 * taylor[2].real, 24.0 * taylor[4].real)
        np.testing.assert_allclose(log_return_cumulants(cf), reference, rtol=1e-9, atol=0.0)


class TestPutCoefficients:
    def test_k0_closed_form(self):
        strike, a, b = 2.5, -4.0, 3.0
        v = sl.put_coefficients(strike, a, b, 8)
        expected = (2 * strike / (b - a)) * (-a - (1 - math.exp(a)))
        assert v[0] == pytest.approx(expected, rel=1e-14)

    def test_vanishing_domain(self):
        v = sl.put_coefficients(1.0, -1e-12, 5.0, 64)
        assert np.all(np.abs(v) < 1e-10)

    def test_interval_right_of_zero_gives_zeros(self):
        np.testing.assert_array_equal(sl.put_coefficients(1.0, 0.5, 2.0, 32), np.zeros(32))

    @pytest.mark.parametrize("k", [0, 1, 3, 7, 20])
    def test_against_quadrature(self, k):
        strike, a, b = 1.0, -5.0, 5.0
        v = sl.put_coefficients(strike, a, b, 32)

        def integrand(y):
            return (1 - math.exp(y)) * math.cos(k * math.pi * (y - a) / (b - a))

        ref, _ = quad(integrand, a, 0.0, limit=200, epsabs=1e-13, epsrel=1e-13)
        assert abs(v[k] - 2 * strike / (b - a) * ref) < 1e-10

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            sl.put_coefficients(1.0, 2.0, 2.0, 16)


class TestPayoffSums:
    """`_payoff_sums` against the reference product of the term rows with
    the `put_coefficients` matrix."""

    @pytest.mark.parametrize("n_terms", [16, 17, 100, 512, 1000])
    @pytest.mark.parametrize("n_strikes", [1, 7, 200])
    @pytest.mark.parametrize("n_rows", [1, 8])
    @pytest.mark.parametrize("shared_interval", [False, True])
    def test_matches_coefficient_matrix(self, n_terms, n_strikes, n_rows, shared_interval):
        rng = np.random.default_rng([n_terms, n_strikes, n_rows, shared_interval])
        width = rng.uniform(0.5, 12.0)
        strikes = 20.0 * np.exp(rng.uniform(-1.0, 1.0, n_strikes))
        # a = offset * width places the interval across zero, left of zero
        # (b < 0) or right of it (put span 0)
        for offset in (-0.5, -1.25, 0.25):
            if shared_interval:  # one [a, b] for every strike, each with its own rows
                a = width * (offset + rng.uniform(-0.2, 0.2))
                terms = rng.standard_normal((n_strikes, n_rows, n_terms))
                rows = terms
            else:  # the automatic interval: every strike its own [a, b]
                a = width * (offset + rng.uniform(-0.2, 0.2, n_strikes))
                terms = rng.standard_normal((n_rows, n_terms))
                rows = np.broadcast_to(terms, (n_strikes, n_rows, n_terms))
            b = a + width
            products = rows * sl.put_coefficients(strikes, a, b, n_terms)[:, None, :]
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                sums = _payoff_sums(terms, strikes, a, b, width)
            assert sums.shape == (n_strikes, n_rows)
            assert np.all(np.abs(sums - products.sum(-1)) <= 1e-12 * np.abs(products).sum(-1))

    @pytest.mark.parametrize("n_terms", [17, 512])
    @pytest.mark.parametrize("shared_interval", [False, True])
    def test_short_put_span(self, n_terms, shared_interval):
        """For a put span s = -a of 1e-10 to 1e-1 of the width, V_k is
        O(s^2) but the split sums are O(1) in the terms, so the error is
        bounded by the terms, not by the products: 1e-14 K sum|terms| / width
        (about 4e-16 is reached)."""
        rng = np.random.default_rng([n_terms, shared_interval])
        width, n_strikes = 3.0, 50
        strikes = 20.0 * np.exp(rng.uniform(-1.0, 1.0, n_strikes))
        spans = width * 10.0 ** rng.uniform(-10.0, -1.0, n_strikes)
        if shared_interval:
            a, terms = -spans[0], rng.standard_normal((n_strikes, 8, n_terms))
            rows = terms
        else:
            a, terms = -spans, rng.standard_normal((8, n_terms))
            rows = np.broadcast_to(terms, (n_strikes, 8, n_terms))
        reference = (rows * sl.put_coefficients(strikes, a, a + width, n_terms)[:, None, :]).sum(-1)
        sums = _payoff_sums(terms, strikes, a, a + width, width)
        bound = 1e-14 * strikes[:, None] * np.abs(rows).sum(-1) / width
        assert np.all(np.abs(sums - reference) <= bound)

    @pytest.mark.parametrize("n_terms", [16, 17, 512])
    def test_powers(self, n_terms):
        theta = np.array([0.0, 0.3, -2.0, np.pi])
        k = np.arange(n_terms)
        np.testing.assert_allclose(_powers(theta, n_terms), np.exp(1j * theta[:, None] * k), rtol=0, atol=1e-12)
        np.testing.assert_allclose(_powers(0.3, n_terms), np.exp(0.3j * k), rtol=0, atol=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16, reason="needs an extended long double")
    @pytest.mark.parametrize("n_terms", [16, 17, 100, 512, 4096])
    @pytest.mark.parametrize("span", [(0.0, math.pi), (-40.0, 40.0)])
    def test_powers_against_long_double(self, n_terms, span):
        """The running products of e^{i theta} against a long-double
        e^{ik theta}: no larger an error than the exponentials e^{ik theta}
        taken directly (their argument k theta is rounded) on the same
        angles, with a floor of 1e-14. |theta| <= 40 reaches well beyond
        the pricer's angles pi (d - a) / (b - a) and -pi a / (b - a), which
        lie in [0, pi] for a < 0 < b."""
        rng = np.random.default_rng([n_terms, int(span[1])])
        theta = np.concatenate([span, rng.uniform(*span, 200)])
        k = np.arange(n_terms)
        angle = theta.astype(np.longdouble)[:, None] * k
        exact = np.cos(angle) + 1j * np.sin(angle)
        direct = np.abs(np.exp(1j * theta[:, None] * k) - exact).max()
        assert np.abs(_powers(theta, n_terms) - exact).max() <= max(direct, 1e-14)

    def test_pricing_does_not_form_coefficients(self, monkeypatch):
        def fail(*args):
            raise AssertionError("put_coefficients called")

        monkeypatch.setattr(sl.cos, "put_coefficients", fail)
        model = bs_reduced_model(0.04, 0.3)
        contracts = [sl.ContractSpec(k, t, CALL) for k in (15.0, 20.0, 25.0) for t in (0.5, 1.0)]
        for config in (sl.CosConfig(), sl.CosConfig(interval=(-3.0, 3.0))):
            assert np.all(np.isfinite(sl.price_table(model, contracts, config)))
            assert np.all(np.isfinite(sl.cos.price_table_jacobian(model, contracts, config)))


class TestBlackScholesReduction:
    @pytest.mark.parametrize(
        "maturity,strike,r,sigma,table_value,tol",
        [(1.0, 1.0, 0.04, 0.5, 19.0392, 1e-3), (2.0, 30.0, 0.5, 0.001, 8.96361, 1e-4)],
    )
    def test_call_matches_reference_table(self, maturity, strike, r, sigma, table_value, tol):
        model = bs_reduced_model(r, sigma)
        price = sl.price_contract(model, sl.ContractSpec(strike, maturity, CALL))
        assert price == pytest.approx(table_value, abs=tol)

    @pytest.mark.parametrize(
        "maturity,strike,r,sigma",
        [(1.0, 18.0, 0.04, 0.25), (0.5, 25.0, 0.1, 0.4), (2.0, 60.0, 0.5, 0.3), (3.0, 1.0, 0.1, 1.0)],
    )
    def test_put_and_call_match_closed_form(self, maturity, strike, r, sigma):
        model = bs_reduced_model(r, sigma)
        for kind in (CALL, PUT):
            got = sl.price_contract(model, sl.ContractSpec(strike, maturity, kind))
            ref = sl.bs_closed_form(20.0, strike, r, sigma, maturity, kind)
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-9)

    def test_put_value_with_narrow_positive_interval(self):
        # forward far above strike: the whole interval sits right of zero
        model = bs_reduced_model(0.5, 0.001)
        put = sl.price_contract(model, sl.ContractSpec(30.0, 2.0, PUT))
        ref = sl.bs_closed_form(20.0, 30.0, 0.5, 0.001, 2.0, PUT)
        assert abs(put - ref) < 1e-12


class TestPriceBehavior:
    def test_deep_otm_put_vanishes(self):
        model = bs_reduced_model(0.04, 0.2)
        put = sl.price_contract(model, sl.ContractSpec(1.0, 1.0, PUT))
        assert 0.0 <= put < 1e-10

    def test_tiny_strike_call_approaches_spot(self):
        model = bs_reduced_model(0.04, 0.5)
        call = sl.price_contract(model, sl.ContractSpec(1e-6, 1.0, CALL))
        assert call == pytest.approx(20.0, abs=1e-3)

    def test_series_self_convergence_fast_decay(self):
        """Doubling N moves the price by < 1e-6 once the CF decays fast
        enough (alpha*T well above one; see the acceptance suite for the
        randomized version)."""
        r = 0.04
        prms = tuple(
            rn_regime(s, a, b, sl.Family.GAMMA, r) for s, a, b in ((0.3, 3.0, 1.5), (0.5, 4.0, 2.0))
        )
        model = sl.SwitchingModel(prms, 2.5, 1.0, sl.Family.GAMMA, 20.0, r)
        c = sl.ContractSpec(20.0, 1.0, CALL)
        p256 = sl.price_contract(model, c, sl.CosConfig(n_terms=256))
        p512 = sl.price_contract(model, c, sl.CosConfig(n_terms=512))
        assert abs(p512 - p256) < 1e-6

    def test_series_converges_on_slow_decay_set(self):
        """With alpha*T = 0.1 the CF decays only algebraically: successive
        doublings still shrink the change, and the refined put lands inside
        a tight Monte Carlo interval. The put is the direct expectation, so
        the check is insensitive to the set's non-martingale drift."""
        model = fig4_gamma_model()
        c = sl.ContractSpec(20.0, 1.0, PUT)
        prices = {}
        for n in (256, 512, 2048, 8192):
            prices[n] = sl.price_contract(model, c, sl.CosConfig(n_terms=n))
        assert abs(prices[8192] - prices[2048]) < abs(prices[512] - prices[256])
        res = sl.price_european_mc(model, c, 400_000, seed=21)
        assert res.ci95[0] - 5e-3 <= prices[8192] <= res.ci95[1] + 5e-3

    def test_monotone_in_strike_and_maturity(self):
        r = 0.04
        prms = tuple(rn_regime(s, a, b, sl.Family.GAMMA, r) for s, a, b in ((0.3, 3.0, 1.5), (0.5, 4.0, 2.0)))
        model = sl.SwitchingModel(prms, 2.5, 1.0, sl.Family.GAMMA, 20.0, r)
        strikes = [14.0, 17.0, 20.0, 23.0, 26.0]
        maturities = [0.5, 1.0, 1.5, 2.0]
        grid = np.array(
            [
                [sl.price_contract(model, sl.ContractSpec(k, t, CALL)) for k in strikes]
                for t in maturities
            ]
        )
        assert np.all(np.diff(grid, axis=1) <= 1e-10)  # nonincreasing in K
        assert np.all(np.diff(grid, axis=0) >= -1e-10)  # nondecreasing in T

    def test_no_arbitrage_bounds(self):
        r = 0.04
        prms = tuple(rn_regime(s, a, b, sl.Family.INVERSE_GAUSSIAN, r) for s, a, b in ((0.3, 3.0, 1.5), (0.5, 4.0, 2.0)))
        model = sl.SwitchingModel(prms, 2.5, 1.0, sl.Family.INVERSE_GAUSSIAN, 20.0, r)
        for strike in (12.0, 20.0, 28.0):
            for t in (0.5, 1.5):
                call = sl.price_contract(model, sl.ContractSpec(strike, t, CALL))
                put = sl.price_contract(model, sl.ContractSpec(strike, t, PUT))
                disc = math.exp(-r * t)
                assert max(20.0 - strike * disc, 0.0) - 1e-9 <= call <= 20.0 + 1e-9
                assert -1e-9 <= put <= strike * disc + 1e-9
                # parity is structural
                assert call - put == pytest.approx(20.0 - strike * disc, abs=1e-9)

    def test_price_table_matches_single_contract_path(self):
        model = fig4_gamma_model()
        contracts = [
            sl.ContractSpec(k, t, kind)
            for t in (0.5, 1.0)
            for k in (16.0, 20.0, 24.0)
            for kind in (CALL, PUT)
        ]
        table = sl.price_table(model, contracts)
        singles = [sl.price_contract(model, c) for c in contracts]
        np.testing.assert_allclose(table, singles, rtol=1e-6, atol=1e-8)

    def test_price_table_with_user_interval(self):
        model = fig4_gamma_model()
        cfg = sl.CosConfig(interval=(-6.0, 6.0))
        contracts = [sl.ContractSpec(k, 1.0, CALL) for k in (18.0, 20.0, 22.0)]
        table = sl.price_table(model, contracts, cfg)
        singles = [sl.price_contract(model, c, cfg) for c in contracts]
        np.testing.assert_allclose(table, singles, atol=1e-9)


class TestBsClosedForm:
    def test_reference_values(self):
        assert sl.bs_closed_form(20.0, 1.0, 0.04, 0.5, 1.0, CALL) == pytest.approx(19.0392, abs=1e-4)
        assert sl.bs_closed_form(20.0, 30.0, 0.5, 0.001, 2.0, CALL) == pytest.approx(8.96361, abs=1e-5)
        assert sl.bs_closed_form(20.0, 1.0, 0.1, 1.0, 3.0, CALL) == pytest.approx(19.3139, abs=1e-3)

    def test_matches_norm_cdf_reference(self):
        from scipy.stats import norm

        def reference(s0, strike, r, sigma, maturity, kind):
            disc = math.exp(-r * maturity)
            vol = sigma * math.sqrt(maturity)
            d1 = (math.log(s0 / strike) + (r + 0.5 * sigma**2) * maturity) / vol
            call = s0 * norm.cdf(d1) - strike * disc * norm.cdf(d1 - vol)
            return call if kind is CALL else call - s0 + strike * disc

        # criterion 1's rows (s0, strike, r, sigma, maturity), then random ones
        rows = [(20.0, 1.0, 0.04, 0.5, 1.0), (20.0, 1.0, 0.1, 1.0, 3.0), (20.0, 30.0, 0.5, 0.001, 2.0)]
        rng = np.random.default_rng(7)
        lows, highs = (1.0, 1.0, -0.05, 0.01, 0.01), (100.0, 100.0, 0.5, 1.5, 5.0)
        rows += [tuple(row) for row in rng.uniform(lows, highs, size=(100, 5))]
        for row in rows:
            for kind in (CALL, PUT):
                assert sl.bs_closed_form(*row, kind) == reference(*row, kind)

    def test_vanishing_vol_above_forward_strike(self):
        assert sl.bs_closed_form(20.0, 25.0, 0.04, 1e-14, 1.0, CALL) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sl.bs_closed_form(-1.0, 1.0, 0.0, 0.2, 1.0, CALL)


class TestKindByValue:
    """An option kind may be given by its string value, as a family may;
    any other value is rejected instead of priced as a put."""

    def test_string_call_prices_as_the_call(self):
        regimes = (sl.RegimeParams(0.01, 0.3, 2.0, 2.0), sl.RegimeParams(-0.1, 0.6, 1.0, 4.0))
        model = sl.SwitchingModel(regimes, 2.5, 1.0, sl.Family.INVERSE_GAUSSIAN, 20.0, 0.04)
        by_value = [sl.ContractSpec(22.0, 1.0, kind) for kind in ("call", "put")]
        assert [c.kind for c in by_value] == [CALL, PUT]
        prices = sl.price_table(model, by_value)
        np.testing.assert_array_equal(prices, sl.price_table(model, [sl.ContractSpec(22.0, 1.0, k) for k in (CALL, PUT)]))
        assert prices == pytest.approx([1.9071, 3.0445], abs=1e-4)

    def test_bs_closed_form_takes_the_string(self):
        for kind in (CALL, PUT):
            assert sl.bs_closed_form(20.0, 22.0, 0.04, 0.3, 1.0, kind.value) == sl.bs_closed_form(
                20.0, 22.0, 0.04, 0.3, 1.0, kind
            )

    @pytest.mark.parametrize(
        "make",
        [
            lambda kind: sl.ContractSpec(22.0, 1.0, kind),
            lambda kind: sl.QuoteRow(1.0, 22.0, kind, 1.0),
            lambda kind: sl.bs_closed_form(20.0, 22.0, 0.04, 0.3, 1.0, kind),
        ],
        ids=["ContractSpec", "QuoteRow", "bs_closed_form"],
    )
    def test_unknown_kind_rejected(self, make):
        with pytest.raises(ValueError, match="straddle"):
            make("straddle")


class TestGuards:
    def test_truncation_noise_clipped_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _guard_put_sums(np.array([-5e-9]), np.array([1.0]))[0] == 0.0
        assert any("clipping" in str(w.message) for w in caught)

    def test_large_negative_sum_raises(self):
        with pytest.raises(sl.PricingError):
            _guard_put_sums(np.array([-1e-3]), np.array([1.0]))

    @staticmethod
    def _lower_cf_at_zero(monkeypatch, shift):
        """Lower phi(0) by shift in the pricer's CF sweep (the exact
        cumulants do not evaluate the CF, so the interval is unchanged), so
        each contract's put sum drops by shift/2 times its discounted
        zeroth payoff coefficient."""
        cf_at = sl.cos.switching_cf
        monkeypatch.setattr(
            sl.cos, "switching_cf", lambda cf, u: cf_at(cf, u) - shift * (np.asarray(u) == 0)
        )

    def test_batched_grid_warns_once_per_clipped_contract(self, monkeypatch):
        # puts at K = 4.5, 5 (T = 1) and K = 5 (T = 0.5) have true values
        # below 1e-12 and a nonzero zeroth coefficient; K = 1 (T = 1) has no
        # put mass on its interval and K = 20 is near the money
        self._lower_cf_at_zero(monkeypatch, 1e-7)
        model = bs_reduced_model(0.04, 0.2)
        grid = [(4.5, 1.0), (5.0, 1.0), (20.0, 1.0), (1.0, 1.0), (5.0, 0.5), (20.0, 0.5)]
        contracts = [sl.ContractSpec(k, t, PUT) for k, t in grid]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prices = sl.price_table(model, contracts)
        clips = [w for w in caught if "clipping" in str(w.message)]
        assert len(clips) == 3
        np.testing.assert_array_equal(prices[[0, 1, 3, 4]], 0.0)
        assert prices[2] > 0.5 and prices[5] > 0.5

    def test_batched_grid_raises_beyond_noise(self, monkeypatch):
        self._lower_cf_at_zero(monkeypatch, 1e-3)
        model = bs_reduced_model(0.04, 0.2)
        contracts = [sl.ContractSpec(k, 1.0, PUT) for k in (4.5, 20.0)]
        with pytest.raises(sl.PricingError, match="beyond truncation noise"):
            sl.price_table(model, contracts)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sl.CosConfig(n_terms=8)
        with pytest.raises(ValueError):
            sl.CosConfig(interval=(0.5, 2.0))
        with pytest.raises(ValueError):
            sl.ContractSpec(-1.0, 1.0, CALL)

    @pytest.mark.parametrize(
        "strike,maturity,message",
        [(math.inf, 1.0, "strike must be finite"), (20.0, math.inf, "maturity must be finite")],
    )
    def test_contract_rejects_non_finite_strike_or_maturity(self, strike, maturity, message):
        """An infinite strike or maturity passes > 0 but prices to -inf,
        0, NaN or an OverflowError."""
        with pytest.raises(ValueError, match=message):
            sl.ContractSpec(strike, maturity, CALL)

    @pytest.mark.parametrize(
        "kwargs",
        [{"interval": (-3.0, math.inf)}, {"interval": (-math.inf, 3.0)}, {"interval": (math.nan, 3.0)},
         {"n_terms": 20.5}, {"n_terms": 64.0}],
    )
    def test_config_rejects_what_it_cannot_price(self, kwargs):
        """An infinite endpoint passes a < 0 < b but gives a wrong price
        (or NaN), and a fractional n_terms fails only inside the pricer."""
        with pytest.raises(ValueError):
            sl.CosConfig(**kwargs)

    def test_integer_types_accepted(self):
        assert sl.CosConfig(n_terms=np.int64(64)).n_terms == 64


def _dense_reference(model, contracts, config, jacobian=False):
    """Per-contract COS prices (or the eight regime-parameter derivatives)
    from one scalar-horizon CF sweep per contract, the `put_coefficients`
    matrix and a plain sum: the loop that `price_table` and
    `price_table_jacobian` batch over maturities."""
    n = config.n_terms
    out = []
    for c in contracts:
        cf0 = sl.CharFn(model, c.maturity, y0=0.0)
        a0, b0 = sl.truncation_interval(cf0, config)
        u = np.arange(n) * np.pi / (b0 - a0)
        x0 = math.log(model.s0 / c.strike)
        a, b = x0 + a0, x0 + b0
        if jacobian:
            f = sl.charfn.expm_row_sum_grad(c.maturity * sl.charfn.phi_matrix_batch(model, u))
            rows = c.maturity * np.concatenate([
                f[1 + j] * sl.charfn.regime_char_exponent_grad(p, model.family, u)
                for j, p in enumerate(model.regimes)
            ])
        else:
            rows = sl.switching_cf(cf0, u)[None]
        terms = np.real(rows * np.exp(1j * u * (x0 - a)))
        terms[:, 0] *= 0.5
        disc = math.exp(-model.r * c.maturity)
        value = disc * (terms @ sl.put_coefficients(c.strike, a, b, n))
        if not jacobian and c.kind is CALL:
            value = value + model.s0 - c.strike * disc
        out.append(value if jacobian else value[0])
    return np.array(out)


class TestGridSweep:
    """`price_table` and `price_table_jacobian` price every maturity of a
    grid in one sweep; they must agree with a per-contract reference and
    return their rows in input order.

    The sweeps run under np.errstate(all="raise"), which also traps
    underflow, so each model's CF stays above the smallest normal double
    over its u grid: Gamma and IG regimes with alpha T below 1 (a slowly
    decaying CF) and the Gaussian (identity) model at 64 terms."""

    @staticmethod
    def _model(family):
        if family is sl.Family.IDENTITY:
            return bs_reduced_model(0.04, 0.3)
        r = 0.03
        regimes = tuple(
            rn_regime(s, a, b, family, r) for s, a, b in ((0.25, 0.4, 1.5), (0.5, 0.3, 2.5))
        )
        return sl.SwitchingModel(regimes, 2.5, 1.0, family, 20.0, r)

    # unsorted, interleaved and repeated maturities, calls and puts mixed
    GRID = [
        (20.0, 1.0, CALL), (17.0, 0.25, PUT), (24.0, 2.0, PUT), (20.0, 0.25, CALL),
        (15.0, 1.0, PUT), (23.0, 1.0, CALL), (20.0, 2.0, CALL), (17.0, 0.25, CALL),
        (26.0, 0.5, PUT), (20.0, 1.0, PUT),
    ]

    @pytest.mark.parametrize("family", list(sl.Family))
    @pytest.mark.parametrize("interval", [None, (-3.0, 3.0)])
    def test_matches_dense_reference(self, family, interval):
        model = self._model(family)
        n_terms = 64 if family is sl.Family.IDENTITY else 256
        config = sl.CosConfig(n_terms=n_terms, interval=interval)
        contracts = [sl.ContractSpec(k, t, kind) for k, t, kind in self.GRID]
        with np.errstate(all="raise"):
            prices = sl.price_table(model, contracts, config)
            jac = sl.cos.price_table_jacobian(model, contracts, config)
        ref = _dense_reference(model, contracts, config)
        ref_jac = _dense_reference(model, contracts, config, jacobian=True)
        assert prices.shape == (len(contracts),) and jac.shape == (len(contracts), 8)
        assert np.all(np.abs(prices - ref) <= 1e-12 * np.abs(ref) + 1e-12)
        assert np.all(np.abs(jac - ref_jac) <= 1e-12 * np.abs(ref_jac) + 1e-12)

    # 200 strikes from S0 e^-1.5 to S0 e^1.5 at T = 1, calls and puts alternating
    STRIP = [
        sl.ContractSpec(float(k), 1.0, (CALL, PUT)[i % 2])
        for i, k in enumerate(20.0 * np.exp(np.linspace(-1.5, 1.5, 200)))
    ]

    @pytest.mark.parametrize("family", list(sl.Family))
    @pytest.mark.parametrize("interval", [None, (-3.0, 3.0)])
    def test_strip_matches_dense_reference(self, family, interval):
        model = self._model(family)
        n_terms = 64 if family is sl.Family.IDENTITY else 256
        config = sl.CosConfig(n_terms=n_terms, interval=interval)
        with np.errstate(all="raise"):
            prices = sl.price_table(model, self.STRIP, config)
            jac = sl.cos.price_table_jacobian(model, self.STRIP, config)
        ref = _dense_reference(model, self.STRIP, config)
        ref_jac = _dense_reference(model, self.STRIP, config, jacobian=True)
        assert np.all(np.abs(prices - ref) <= 1e-12 * np.abs(ref) + 1e-12)
        assert np.all(np.abs(jac - ref_jac) <= 1e-12 * np.abs(ref_jac) + 1e-12)

    @pytest.mark.parametrize("family", list(sl.Family))
    @pytest.mark.parametrize("interval", [None, (-3.0, 3.0)])
    def test_strip_forms_no_per_contract_table(self, family, interval):
        """The traced peak of a strip's prices (J = 1 row per maturity) and
        of its Jacobian (J = 8) stays below one float64 (K, J, n_terms)
        array, a table with a row per contract."""
        model, config = self._model(family), sl.CosConfig(interval=interval)
        n_terms = config.n_terms
        for pricer, n_rows in ((sl.price_table, 1), (sl.cos.price_table_jacobian, 8)):
            pricer(model, self.STRIP, config)  # warm up
            tracemalloc.start()
            try:
                pricer(model, self.STRIP, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * len(self.STRIP) * n_rows * n_terms

    @pytest.mark.parametrize("interval", [None, (-3.0, 3.0)])
    def test_one_cf_sweep_per_grid(self, monkeypatch, interval):
        calls = {"cf": 0, "cumulants": 0}
        cf_at, cumulants_of = sl.cos.switching_cf, sl.cos.log_return_cumulants

        def counted_cf(cf, u):
            calls["cf"] += 1
            return cf_at(cf, u)

        def counted_cumulants(cf):
            calls["cumulants"] += 1
            return cumulants_of(cf)

        monkeypatch.setattr(sl.cos, "switching_cf", counted_cf)
        monkeypatch.setattr(sl.cos, "log_return_cumulants", counted_cumulants)
        contracts = [sl.ContractSpec(k, t, kind) for k, t, kind in self.GRID]
        sl.price_table(self._model(sl.Family.GAMMA), contracts, sl.CosConfig(interval=interval))
        assert calls == {"cf": 1, "cumulants": 1 if interval is None else 0}

    @pytest.mark.parametrize("family", list(sl.Family))
    @pytest.mark.parametrize("interval", [None, (-3.0, 3.0)])
    def test_kept_sweep_is_bit_identical(self, family, interval):
        """A sweep that `price_table` keeps gives the same prices, and
        `price_table_jacobian` the same derivatives from it, to the bit."""
        model = self._model(family)
        config = sl.CosConfig(n_terms=64 if family is sl.Family.IDENTITY else 256, interval=interval)
        contracts = [sl.ContractSpec(k, t, kind) for k, t, kind in self.GRID]
        kept = []
        prices = sl.price_table(model, contracts, config, _sweep=kept)
        assert len(kept) == 1
        np.testing.assert_array_equal(prices, sl.price_table(model, contracts, config))
        np.testing.assert_array_equal(
            sl.cos.price_table_jacobian(model, contracts, config, _sweep=kept),
            sl.cos.price_table_jacobian(model, contracts, config),
        )

    @pytest.mark.parametrize("family", list(sl.Family))
    def test_user_interval_equal_to_automatic_is_bit_identical(self, family):
        """A user interval set to the maturity's automatic interval of the
        log return takes the automatic mode's arithmetic, so prices and
        Jacobians agree to the bit."""
        model = self._model(family)
        n_terms = 64 if family is sl.Family.IDENTITY else 256
        auto = sl.CosConfig(n_terms=n_terms)
        interval = sl.truncation_interval(sl.CharFn(model, 1.0, y0=0.0), auto)
        user = sl.CosConfig(n_terms=n_terms, interval=interval)
        for pricer in (sl.price_table, sl.cos.price_table_jacobian):
            np.testing.assert_array_equal(pricer(model, self.STRIP, user), pricer(model, self.STRIP, auto))

    @pytest.mark.parametrize("family", [sl.Family.GAMMA, sl.Family.INVERSE_GAUSSIAN])
    def test_fixed_interval_prices_far_strikes(self, family):
        """The interval (-2, 2) of the log return, shifted by each strike's
        log-moneyness, prices strikes S0 e^{+/-1} at 512 terms within 2e-3
        of a 4,096-term automatic price (about 5e-4 is reached), with no
        clipped sum on either side."""
        r = 0.03
        regimes = tuple(rn_regime(s, a, b, family, r) for s, a, b in ((0.25, 2.5, 2.0), (0.45, 4.0, 3.0)))
        model = sl.SwitchingModel(regimes, 2.5, 1.0, family, 20.0, r)
        contracts = [
            sl.ContractSpec(float(k), 1.0, kind)
            for k in 20.0 * np.exp(np.linspace(-1.0, 1.0, 41))
            for kind in (CALL, PUT)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fixed = sl.price_table(model, contracts, sl.CosConfig(interval=(-2.0, 2.0)))
            reference = sl.price_table(model, contracts, sl.CosConfig(n_terms=4096))
        assert np.abs(fixed - reference).max() <= 2e-3

    def test_empty_grid(self):
        model = self._model(sl.Family.GAMMA)
        for config in (sl.CosConfig(), sl.CosConfig(interval=(-3.0, 3.0))):
            assert sl.price_table(model, [], config).shape == (0,)
            assert sl.cos.price_table_jacobian(model, [], config).shape == (0, 8)
