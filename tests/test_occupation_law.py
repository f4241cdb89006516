"""The exact law of the occupation time as an independent reference.

For a two-state chain started in regime 1, the time tau spent in regime 1
over [0, T] has an atom e^(-l12 T) at tau = T (no switch) and on (0, T),
with y = T - x and z = 2 sqrt(l12 l21 x y), the density (Pedler 1971,
"Occupation times for two state Markov chains", J. Appl. Prob. 8; it
follows by counting sojourns)

    f(x) = e^(-l12 x - l21 y) [l12 I0(z) + sqrt(l12 l21 x / y) I1(z)].

It is taken through the exponentially scaled Bessel functions, so nothing
overflows, and integrated by Gauss-Legendre on panels graded toward both
ends of [0, T], where the mass sits when one intensity is large. No 2x2
exponential, cumulant formula or COS sum enters.
"""

import math

import numpy as np
import pytest
from scipy.special import i0e, i1e

import switchlevy as sl

# panel ends at T 10^-k from either end of [0, T]; 64 nodes per panel
_GRADES = 10.0 ** -np.arange(1, 13)
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


def _density(l12, l21, t, x):
    y = t - x
    z = 2.0 * np.sqrt(l12 * l21 * x * y)
    bessel = l12 * i0e(z) + np.sqrt(l12 * l21 * x / y) * i1e(z)
    return np.exp(z - l12 * x - l21 * y) * bessel


def _quadrature(t):
    """Nodes and weights on (0, t)."""
    ends = np.unique(np.concatenate([[0.0, 0.5 * t, t], t * _GRADES, t - t * _GRADES]))
    lo, hi = ends[:-1, None], ends[1:, None]
    nodes = 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)
    return nodes.ravel(), (0.5 * (hi - lo) * _WEIGHTS).ravel()


def _law(l12, l21, t):
    """(atom at t, nodes, density-weighted quadrature weights)."""
    x, w = _quadrature(t)
    return math.exp(-l12 * t), x, w * _density(l12, l21, t, x)


CASES = [(2.5, 1.0, 1.0), (20.0, 10.0, 2.0), (100.0, 0.5, 0.25), (0.01, 100.0, 5.0)]


@pytest.mark.parametrize("l12, l21, t", CASES)
def test_atom_and_density_integrate_to_one(l12, l21, t):
    atom, _, fw = _law(l12, l21, t)
    assert atom + fw.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "l12, l21, t, rel",
    [(2.5, 1.0, 1.0, 1e-13), (20.0, 10.0, 2.0, 1e-11), (100.0, 0.5, 0.25, 1e-10),
     # zeta_n carries an absolute error of order eps t^n, so at a large
     # t (l12 + l21) and a small variance the relative one grows (3.4e-6
     # on zeta_4 here)
     (0.01, 100.0, 5.0, 1e-5)],
)
def test_cumulants_match_quadrature_moments(l12, l21, t, rel):
    """zeta_1..zeta_4 of `occupation_cumulants` against the law's mean and
    its central moments (zeta_4 = mu_4 - 3 mu_2^2): each within 1e-15 T^n,
    and within rel of the quadrature value."""
    atom, x, fw = _law(l12, l21, t)
    mean = atom * t + fw @ x
    dev, dev_atom = x - mean, t - mean
    mu2, mu3, mu4 = (atom * dev_atom**k + fw @ dev**k for k in (2, 3, 4))
    exact = np.array([mean, mu2, mu3, mu4 - 3.0 * mu2 * mu2])
    zeta = np.array(sl.occupation_cumulants(l12, l21, t))
    gaps = np.abs(zeta - exact)
    assert np.all(gaps < 1e-15 * t ** np.arange(1, 5))
    assert np.all(gaps <= rel * np.abs(exact))


def _bs_given_tau(model, strike, t, kind, tau):
    """Black-Scholes price given the time tau in regime 1: the log return is
    Gaussian with mean mu1 tau + mu2 (T - tau) and variance
    sigma1^2 tau + sigma2^2 (T - tau); with martingale drifts that is
    Black-Scholes at the mean variance."""
    s1, s2 = (p.sigma for p in model.regimes)
    vol = math.sqrt((s1 * s1 * tau + s2 * s2 * (t - tau)) / t)
    return sl.bs_closed_form(model.s0, strike, model.r, vol, t, kind)


@pytest.mark.parametrize("l12, l21", [(2.5, 1.0), (20.0, 10.0), (0.5, 5.0)])
def test_identity_clock_prices_match_the_exact_law(l12, l21):
    """Regime-switching Black-Scholes: `price_table` calls and puts against
    the atom's Black-Scholes price plus the integral of f times the
    Black-Scholes price given tau."""
    r = 0.03
    regimes = tuple(sl.RegimeParams(r - 0.5 * s * s, s, 1.0, 1.0) for s in (0.2, 0.6))
    model = sl.SwitchingModel(regimes, l12, l21, sl.Family.IDENTITY, 20.0, r)
    contracts = [
        sl.ContractSpec(k, t, kind)
        for t in (0.25, 1.0, 2.0)
        for k in (14.0, 17.0, 20.0, 23.0, 26.0)
        for kind in (sl.OptionKind.CALL, sl.OptionKind.PUT)
    ]
    prices = sl.price_table(model, contracts)
    for contract, price in zip(contracts, prices):
        k, t, kind = contract.strike, contract.maturity, contract.kind
        atom, x, fw = _law(l12, l21, t)
        exact = atom * _bs_given_tau(model, k, t, kind, t) + sum(
            w * _bs_given_tau(model, k, t, kind, tau) for tau, w in zip(x, fw)
        )
        assert price == pytest.approx(exact, abs=1e-10)


def _exact_identity_price(model, contract):
    """The atom's Black-Scholes price plus the integral of f times the
    Black-Scholes price given tau, under the law of the model's intensities."""
    k, t, kind = contract.strike, contract.maturity, contract.kind
    atom, x, fw = _law(model.lambda12, model.lambda21, t)
    return atom * _bs_given_tau(model, k, t, kind, t) + sum(
        w * _bs_given_tau(model, k, t, kind, tau) for tau, w in zip(x, fw)
    )


@pytest.mark.parametrize("l21", [1.0, 10.0])
@pytest.mark.parametrize("start", [1, 2])
def test_identity_clock_prices_with_an_absorbing_regime_one(start, l21):
    """l12 = 0: regime 1 absorbs. Started there, the path never leaves it
    (tau = T, an atom of mass one), so every price is Black-Scholes at
    sigma1. A start in regime 2 is the model relabelled, regimes swapped and
    intensities swapped: l12 = l21 > 0 and l21 = 0, whose law has the atom
    e^(-l12 T) and the density l12 e^(-l12 x)."""
    r = 0.03
    regimes = tuple(sl.RegimeParams(r - 0.5 * s * s, s, 1.0, 1.0) for s in (0.2, 0.6))
    if start == 1:
        model = sl.SwitchingModel(regimes, 0.0, l21, sl.Family.IDENTITY, 20.0, r)
    else:
        model = sl.SwitchingModel(regimes[::-1], l21, 0.0, sl.Family.IDENTITY, 20.0, r)
    contracts = [
        sl.ContractSpec(k, t, kind)
        for t in (0.25, 1.0, 2.0)
        for k in (14.0, 17.0, 20.0, 23.0, 26.0)
        for kind in (sl.OptionKind.CALL, sl.OptionKind.PUT)
    ]
    prices = sl.price_table(model, contracts)
    for contract, price in zip(contracts, prices):
        assert price == pytest.approx(_exact_identity_price(model, contract), abs=1e-10)


def _occupation_model(l12, l21):
    """Identity clock, mu = (1, 0) and sigma = 1e-12: the terminal value
    Z_T = tau + sigma1 W(tau) + sigma2 W'(T - tau) is tau to ~1e-12."""
    regimes = (sl.RegimeParams(1.0, 1e-12, 1.0, 1.0), sl.RegimeParams(0.0, 1e-12, 1.0, 1.0))
    return sl.SwitchingModel(regimes, l12, l21, sl.Family.IDENTITY, 20.0, 0.0)


def _frozen_occupation(l12, l21, t, n_paths):
    sampler = sl.FrozenTerminalSampler(sl.Family.IDENTITY, l12, l21, t, n_paths, seed=16)
    return sampler.evaluate(*_occupation_model(l12, l21).regimes)


def _marched_occupation(l12, l21, t, n_paths):
    model = _occupation_model(l12, l21)
    return sl.sample_terminal(model, t, n_paths, sl.TRADING_DT, np.random.default_rng(17))


@pytest.mark.parametrize("sample", [_frozen_occupation, _marched_occupation], ids=["frozen", "sample_terminal"])
def test_sampled_occupation_time_follows_the_exact_law(sample):
    """Each sampler's tau against the law: the largest gap between the
    empirical and the exact CDF at 199 points of (0, T) stays below
    1.95/sqrt(n), the 0.1% level of the Kolmogorov statistic, and the share
    of paths that never switch (tau = T) is within 4 binomial standard
    errors of the atom e^(-l12 T)."""
    l12, l21, t, n = 2.5, 1.0, 1.0, 100_000
    tau = np.sort(sample(l12, l21, t, n))
    points = t * np.arange(1, 200) / 200
    exact = np.empty_like(points)
    for i, x in enumerate(points):
        nodes, weights = _quadrature(x)
        exact[i] = weights @ _density(l12, l21, t, nodes)
    empirical = np.searchsorted(tau, points, side="right") / n
    assert np.abs(empirical - exact).max() < 1.95 / math.sqrt(n)
    atom = math.exp(-l12 * t)
    never_switched = np.mean(tau > t - 1e-9)
    assert abs(never_switched - atom) <= 4.0 * math.sqrt(atom * (1.0 - atom) / n)
