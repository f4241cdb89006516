"""Reference option prices, independent of switchlevy's pricing code.

The characteristic function of the switching log price is the row sum
e_1^T exp(A) [1, 1]^T of a 2x2 matrix exponential, A = T Phi(u). Here it is
evaluated in closed form through the eigenvalues m +/- d of A, written as
(e^{m+d} +/- e^{m-d}) / 2 so that Re(m +/- d) <= 0 cannot overflow, with the
series of sinh(d)/d for near-defective A. Prices come from a plain
Fourier-cosine sum (Fang & Oosterlee 2008) over a wide interval with many
terms, so series truncation is far below the package's own.
"""

from __future__ import annotations

import math

import numpy as np

N_TERMS = 1 << 14
HALF_WIDTH_SD = 20.0


def laplace_exponent(family: str, alpha: float, beta: float, s: np.ndarray) -> np.ndarray:
    """Laplace exponent ell(s) with E[exp(s L_t)] = exp(t ell(s))."""
    if family == "gamma":
        return -alpha * np.log(1.0 - s / beta)
    if family == "ig":
        return -alpha * (np.sqrt(beta * beta - 2.0 * s) - beta)
    if family == "identity":
        return s
    raise ValueError(f"unknown family {family}")


def regime_cf(params, family: str, t: float, u: np.ndarray) -> np.ndarray:
    """E[exp(i u Y_t)] of one regime without switching."""
    arg = 1j * params.mu * u - 0.5 * params.sigma**2 * u * u
    return np.exp(t * laplace_exponent(family, params.alpha, params.beta, arg))


def _clock_moments(family: str, alpha: float, beta: float) -> tuple[float, float]:
    """Mean and variance of the clock L_1."""
    if family == "gamma":
        return alpha / beta, alpha / beta**2
    if family == "ig":
        return alpha / beta, alpha / beta**3
    return 1.0, 0.0


def log_return_cf(model, t: float, u: np.ndarray) -> np.ndarray:
    """E[exp(i u Z_t)] for a chain started in regime 1."""
    family = model.family.value
    psi = [
        laplace_exponent(family, p.alpha, p.beta, 1j * p.mu * u - 0.5 * p.sigma**2 * u * u)
        for p in model.regimes
    ]
    a11 = t * (psi[0] - model.lambda12)
    a22 = t * (psi[1] - model.lambda21)
    a12 = t * model.lambda12
    a21 = t * model.lambda21
    m = 0.5 * (a11 + a22)
    d2 = (0.5 * (a11 - a22)) ** 2 + a12 * a21
    d = np.sqrt(d2 + 0j)
    e_plus, e_minus = np.exp(m + d), np.exp(m - d)
    cosh_part = 0.5 * (e_plus + e_minus)
    small = np.abs(d) < 1e-6
    safe_d = np.where(small, 1.0, d)
    sinhc_part = np.where(
        small, np.exp(m) * (1.0 + d2 / 6.0 + d2 * d2 / 120.0), (e_plus - e_minus) / (2.0 * safe_d)
    )
    return cosh_part + sinhc_part * ((a11 - m) + a12)


def _interval(model, t: float, log_moneyness: np.ndarray) -> tuple[float, float]:
    """[a, b] for Z_t: the drift range over both regimes widened by
    HALF_WIDTH_SD standard deviations of the wider regime, and always
    covering every log(K/S0), so each put payoff kink lies inside."""
    family = model.family.value
    means, variances = [], []
    for p in model.regimes:
        mean_l, var_l = _clock_moments(family, p.alpha, p.beta)
        means.append(p.mu * mean_l * t)
        variances.append((p.sigma**2 * mean_l + p.mu**2 * var_l) * t)
    half = HALF_WIDTH_SD * math.sqrt(max(variances))
    lo = min(min(means), float(log_moneyness.min())) - half
    hi = max(max(means), float(log_moneyness.max())) + half
    return lo, hi


def _put_coefficients(strike: float, s0: float, a: float, b: float) -> np.ndarray:
    """V_k = 2/(b-a) int_a^d (K - S0 e^z) cos(k pi (z-a)/(b-a)) dz with
    d = log(K/S0), the put payoff in the log return z."""
    d = math.log(strike / s0)
    w = np.arange(N_TERMS) * math.pi / (b - a)
    arg = w * (d - a)
    chi = (np.cos(arg) * math.exp(d) + w * np.sin(arg) * math.exp(d) - math.exp(a)) / (1.0 + w * w)
    psi = np.empty(N_TERMS)
    psi[0] = d - a
    psi[1:] = np.sin(arg[1:]) / w[1:]
    return 2.0 / (b - a) * (strike * psi - s0 * chi)


def prices(model, maturity: float, strikes, kind: str) -> np.ndarray:
    """European put or call prices at one maturity; calls through put-call
    parity. One CF sweep serves every strike."""
    strikes = np.asarray(strikes, dtype=float)
    a, b = _interval(model, maturity, np.log(strikes / model.s0))
    u = np.arange(N_TERMS) * math.pi / (b - a)
    terms = np.real(log_return_cf(model, maturity, u) * np.exp(-1j * u * a))
    terms[0] *= 0.5
    disc = math.exp(-model.r * maturity)
    puts = np.array([disc * float(terms @ _put_coefficients(k, model.s0, a, b)) for k in strikes])
    if kind == "put":
        return puts
    return puts + model.s0 - strikes * disc
