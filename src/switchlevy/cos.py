"""Fourier-cosine pricing of European options from the switching CF.

Puts are priced by the cosine expansion of the log-moneyness density on a
truncated interval [a, b]; calls always go through put-call parity
(call = put + S0 - K exp(-rT)) because the direct call coefficients
diverge for large b while the put coefficients stay bounded. The parity
correction is applied once, after the summation. `price_table` is the one
pricing kernel; `price_put`, `price_call` and `price_contract` wrap it, and
`price_table_jacobian` differentiates it in the regime parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.linalg import expm
from scipy.special import ndtr

from .charfn import (
    CharFn,
    expm_row_sum_grad,
    increment_cumulants,
    phi_matrix_batch,
    regime_char_exponent_grad,
    switching_cf,
)
from .regime import SwitchingModel, generator_matrix


class PricingError(RuntimeError):
    """Raised when the cosine sum is too negative to be truncation noise."""


class OptionKind(str, Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class ContractSpec:
    strike: float
    maturity: float
    kind: OptionKind

    def __post_init__(self) -> None:
        if not self.strike > 0:
            raise ValueError(f"strike must be > 0, got {self.strike}")
        if not self.maturity > 0:
            raise ValueError(f"maturity must be > 0, got {self.maturity}")


@dataclass(frozen=True)
class CosConfig:
    """Series length, optional fixed interval, and cumulant scale L."""

    n_terms: int = 512
    interval: tuple[float, float] | None = None
    cumulant_scale: float = 10.0

    def __post_init__(self) -> None:
        if self.n_terms < 16:
            raise ValueError("n_terms must be >= 16")
        if self.interval is not None:
            a, b = self.interval
            if not (a < 0.0 < b):
                raise ValueError(f"interval must satisfy a < 0 < b, got [{a}, {b}]")
        if not self.cumulant_scale > 0:
            raise ValueError("cumulant_scale must be > 0")


def log_return_cumulants(cf: CharFn) -> tuple[float, float, float]:
    """Exact cumulants c1, c2, c4 of y0 + Z_t, the variable whose CF is cf.

    The moment generating function is E[e^{theta Z_t}] = e_1^T exp(t K) 1
    with K(theta) = Q + sum_n D_n theta^n / n!, where D_n holds the regimes'
    unit-time increment cumulants kappa_{j,n} on its diagonal. The
    exponential of the block upper-triangular Toeplitz matrix with first
    block row t [Q, D_1, D_2/2!, D_3/3!, D_4/4!] has the Taylor coefficients
    of exp(t K(theta)) as its first block row (Van Loan 1978), so block n of
    row 0, summed and times n!, is the raw moment m_n.
    """
    model = cf.model
    factorials = np.array([1.0, 2.0, 6.0, 24.0])
    kappa = np.array([increment_cumulants(p, model.family, 1.0) for p in model.regimes])
    blocks = [generator_matrix(model)] + [np.diag(k) for k in (kappa / factorials).T]
    big = np.zeros((5, 2, 5, 2))  # (block row, row, block column, column)
    i = np.arange(5)
    for n, block in enumerate(blocks):  # block n on the n-th block superdiagonal
        big[i[: 5 - n], :, i[n:], :] = block
    row = expm(cf.t * big.reshape(10, 10))[0].reshape(5, 2).sum(axis=1)
    m1, m2, m3, m4 = row[1:] * factorials
    c1 = m1 + cf.y0
    c2 = m2 - m1**2
    c4 = m4 - 4.0 * m3 * m1 - 3.0 * m2**2 + 12.0 * m2 * m1**2 - 6.0 * m1**4
    if not all(map(math.isfinite, (c1, c2, c4))):
        raise ValueError(f"non-finite cumulants c1={c1}, c2={c2}, c4={c4}")
    return float(c1), float(c2), float(c4)


def truncation_interval(cf: CharFn, config: CosConfig) -> tuple[float, float]:
    """Expansion interval [a, b]: user-specified, or the cumulant rule
    c1 -/+ L sqrt(c2 + sqrt|c4|)."""
    if config.interval is not None:
        return config.interval
    c1, c2, c4 = log_return_cumulants(cf)
    half = config.cumulant_scale * math.sqrt(max(c2, 0.0) + math.sqrt(abs(c4)))
    if not (math.isfinite(half) and half > 0):
        raise ValueError(f"degenerate truncation width {half}")
    return float(c1 - half), float(c1 + half)


def put_coefficients(strike, a, b, n_terms: int) -> np.ndarray:
    """Cosine payoff coefficients V_k of the put on [a, b]: the tested
    reference for `_payoff_sums`, which prices without forming them.

    V_k = 2K/(b-a) * int_a^0 (1 - e^y) cos(k pi (y-a)/(b-a)) dy, in closed
    form through the elementary exponential-cosine and cosine integrals.
    The upper limit is capped at min(0, b); an interval entirely right of
    zero carries no put payoff mass and yields all-zero coefficients.
    strike, a and b may be arrays of one broadcast shape S; the result
    then has shape S + (n_terms,), one coefficient row per contract.
    """
    strike, a, b = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (strike, a, b)))
    if not np.all(b > a):
        raise ValueError(f"degenerate interval [{a}, {b}]")
    d = np.minimum(0.0, b)
    width = (b - a)[..., None]
    span = np.maximum(d - a, 0.0)[..., None]  # length of [a, min(0, b)]
    om = np.arange(n_terms) * np.pi / width
    sin = np.sin(om * span)
    ed = np.exp(d)[..., None]
    chi = (np.cos(om * span) * ed + om * sin * ed - np.exp(a)[..., None]) / (1.0 + om * om)
    psi = np.empty_like(om)
    psi[..., 0] = span[..., 0]
    psi[..., 1:] = sin[..., 1:] / om[..., 1:]
    coeffs = (2.0 * strike[..., None] / width) * (psi - chi)
    return np.where(span > 0.0, coeffs, 0.0)


def _guard_put_sums(raw: np.ndarray, strikes: np.ndarray) -> np.ndarray:
    """Per-contract guards on discounted cosine put sums: a sum below
    -1e-8 max(1, K) raises PricingError; a smaller negative sum is
    truncation noise, clipped to 0 with one UserWarning per contract."""
    too_negative = raw < -1e-8 * np.maximum(1.0, strikes)
    if np.any(too_negative):
        raise PricingError(
            f"cosine sum {raw[too_negative][0]} is negative beyond truncation noise; "
            "widen the interval or increase n_terms"
        )
    for value in raw[raw < 0.0]:
        warnings.warn(f"clipping negative cosine price {value} to 0", stacklevel=3)
    return np.where(raw < 0.0, 0.0, raw)


def price_put(cf: CharFn, contract: ContractSpec, config: CosConfig = CosConfig()) -> float:
    """COS price of a European put through `price_table`.

    cf must be built with horizon = maturity and y0 = log(S0/K), the
    log-moneyness centering the pricer uses for every strike.
    """
    model = cf.model
    expected_y0 = math.log(model.s0 / contract.strike)
    if abs(cf.t - contract.maturity) > 1e-12 * max(1.0, contract.maturity):
        raise ValueError(f"cf horizon {cf.t} != contract maturity {contract.maturity}")
    if abs(cf.y0 - expected_y0) > 1e-9:
        raise ValueError(
            f"cf.y0={cf.y0} is not log(s0/K)={expected_y0}; "
            "build the CF at log-moneyness for pricing"
        )
    put = ContractSpec(contract.strike, contract.maturity, OptionKind.PUT)
    return float(price_table(model, [put], config)[0])


def price_call(cf: CharFn, contract: ContractSpec, config: CosConfig = CosConfig()) -> float:
    """COS price of a European call via put-call parity (single correction
    after the summation, never a direct call-coefficient series)."""
    put = price_put(cf, contract, config)
    model = cf.model
    return put + model.s0 - contract.strike * math.exp(-model.r * contract.maturity)


def price_contract(
    model: SwitchingModel, contract: ContractSpec, config: CosConfig = CosConfig()
) -> float:
    """COS price of one contract through `price_table`."""
    return float(price_table(model, [contract], config)[0])


def _by_maturity(contracts: Sequence[ContractSpec]) -> dict[float, list[int]]:
    by_t: dict[float, list[int]] = {}
    for i, c in enumerate(contracts):
        by_t.setdefault(c.maturity, []).append(i)
    return by_t


def _split_powers(theta, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """The powers e^{ik theta}, k < n_terms, as two short factor tables.

    With R = ceil(sqrt(n_terms)) and k = R m + r (0 <= r < R),
    e^{ik theta} = e^{iRm theta} e^{ir theta}, so an angle costs about
    2 sqrt(n_terms) complex exponentials instead of n_terms. For theta of
    shape S the factors have shapes S + (M,) and S + (R,), M = ceil(n_terms/R).
    """
    r_len = math.isqrt(n_terms - 1) + 1
    theta = np.asarray(theta, dtype=float)[..., None]
    high = np.exp(1j * r_len * np.arange(-(-n_terms // r_len)) * theta)
    return high, np.exp(1j * np.arange(r_len) * theta)


def _powers(theta, n_terms: int) -> np.ndarray:
    """e^{ik theta} for k < n_terms, shape S + (n_terms,), as products of
    the `_split_powers` factors."""
    high, low = _split_powers(theta, n_terms)
    return (high[..., :, None] * low[..., None, :]).reshape(*high.shape[:-1], -1)[..., :n_terms]


def _payoff_sums(terms: np.ndarray, strikes: np.ndarray, a, b, width: float) -> np.ndarray:
    """Sum_k terms_k V_k of every strike, with V = put_coefficients(strikes,
    a, b, n) and b - a = width, without forming V.

    With omega_k = k pi / width, d = min(0, b), span s = d - a and
    z_k = e^{i omega_k s}, the closed form of `put_coefficients` gives
    width/(2K) Sum_k terms_k V_k =
        terms_0 s + Im Sum_k z_k terms_k / (omega_k (1 + omega_k^2))
        - (e^d - 1) Im Sum_k z_k terms_k omega_k / (1 + omega_k^2)
        - e^d Re Sum_k z_k terms_k / (1 + omega_k^2) + e^a Sum_k terms_k / (1 + omega_k^2),
    three real weight rows per term row. The sine weight 1/omega - e^d
    omega/(1 + omega^2) of the closed form is split as above so that its two
    O(1/omega) parts do not cancel when b > 0 (d = 0). The z_k come from
    `_split_powers` at theta = pi s / width, so the sums take one
    (K, R) @ (R, 3 J M) product and 2 sqrt(n) exponentials per angle.

    Either each strike has its own interval (a, b of shape (K,)) and all
    share the term rows, shape (J, n), or all share the interval and each
    strike has its own term rows, shape (K, J, n). Both flatten to a set of
    angles times a set of weight rows, (K, 3J) or (1, 3KJ), read back as
    (K, 3, J). Returns shape (K, J).
    """
    n = terms.shape[-1]
    d = np.minimum(0.0, b)
    span = np.maximum(d - a, 0.0)
    high, low = _split_powers(np.reshape(np.pi * span / width, -1), n)
    m_len, r_len = high.shape[-1], low.shape[-1]
    om = np.arange(n) * (np.pi / width)
    lorentz = 1.0 / (1.0 + om * om)
    scales = np.stack([np.divide(lorentz, om, out=np.zeros(n), where=om > 0.0), om * lorentz, lorentz])
    weights = np.zeros(terms.shape[:-2] + (3,) + terms.shape[-2:-1] + (m_len * r_len,))
    np.multiply(terms[..., None, :, :], scales[:, None, :], out=weights[..., :n])
    table = weights.reshape(-1, m_len, r_len).transpose(2, 0, 1).reshape(r_len, -1)
    inner = (low @ table).reshape(len(low), -1, m_len)
    sums = (inner @ high[:, :, None]).reshape(len(strikes), 3, -1)
    d, span, a = (np.reshape(x, (-1, 1)) for x in (d, span, a))
    total = (
        terms[..., 0] * span
        + sums[:, 0].imag
        - np.expm1(d) * sums[:, 1].imag
        - np.exp(d) * sums[:, 2].real
        + np.exp(a) * (terms @ lorentz)
    )
    return np.where(span > 0.0, (2.0 * strikes[:, None] / width) * total, 0.0)


def _maturity_setup(model: SwitchingModel, maturity: float, strikes: np.ndarray, config: CosConfig):
    """The pieces of one maturity's cosine sums shared by `price_table` and
    `price_table_jacobian`: the y0 = 0 CF, the u grid, the phase factor
    exp(i u phase), and the put interval (a, b, width) for `_payoff_sums`.

    The strike enters only through the log-moneyness x0 = log(s0/K). With
    the automatic interval, [a, b] is the cumulant interval of the y0 = 0
    CF shifted by x0: a and b have shape (K,), and the phase u (x0 - a) is
    shared by every strike, so the factor has shape (n_terms,). With a user
    interval every strike shares [a, b] and gets its own phase row, shape
    (K, n_terms), from `_powers`. Either way all strikes share the width,
    and with it the u grid.
    """
    x0 = np.log(model.s0 / strikes)
    base = CharFn(model, maturity, y0=0.0)
    a0, b0 = truncation_interval(base, config)
    width = b0 - a0
    u = np.arange(config.n_terms) * np.pi / width
    if config.interval is None:
        a, b, phase = x0 + a0, x0 + b0, -a0
    else:
        a, b, phase = a0, b0, x0 - a0
    return base, u, _powers(np.pi * phase / width, config.n_terms), (a, b, width)


def price_table(
    model: SwitchingModel,
    contracts: Sequence[ContractSpec],
    config: CosConfig = CosConfig(),
) -> np.ndarray:
    """COS prices of a grid of contracts, with one CF sweep per maturity.

    The CF is evaluated once per maturity at y0 = 0 (see `_maturity_setup`
    for how strikes and the interval enter). All strikes of a maturity are
    summed at once by `_payoff_sums`, which folds the closed-form payoff
    coefficients into the terms without forming a (K, n_terms) matrix.
    """
    prices = np.empty(len(contracts))
    for maturity, idx in _by_maturity(contracts).items():
        strikes = np.array([contracts[i].strike for i in idx])
        base, u, rotation, interval = _maturity_setup(model, maturity, strikes, config)
        terms = np.real(switching_cf(base, u) * rotation)
        terms[..., 0] *= 0.5
        disc = math.exp(-model.r * maturity)
        raw = disc * _payoff_sums(terms[..., None, :], strikes, *interval)[:, 0]
        puts = _guard_put_sums(raw, strikes)
        is_call = np.array([contracts[i].kind is OptionKind.CALL for i in idx])
        prices[idx] = np.where(is_call, puts + model.s0 - strikes * disc, puts)
    return prices


def price_table_jacobian(
    model: SwitchingModel,
    contracts: Sequence[ContractSpec],
    config: CosConfig = CosConfig(),
) -> np.ndarray:
    """Derivatives of the `price_table` prices in (mu, sigma, alpha, beta)
    of regime 1 then regime 2, shape (len(contracts), 8).

    A parameter of regime j enters Phi(u) only through its diagonal entry
    Psi_j, so d phi/d theta = t (df/da_jj) dPsi_j/dtheta with f the row sum
    of exp(t Phi(u)); the eight derivative rows go through the same phase
    and `_payoff_sums` as the prices, with the truncation interval held at
    its value at the model. Calls and puts share their sensitivities
    (put-call parity).
    """
    jac = np.empty((len(contracts), 8))
    family = model.family
    for maturity, idx in _by_maturity(contracts).items():
        strikes = np.array([contracts[i].strike for i in idx])
        _, u, rotation, interval = _maturity_setup(model, maturity, strikes, config)
        _, df_da11, df_da22 = expm_row_sum_grad(maturity * phi_matrix_batch(model, u))
        dphi = maturity * np.concatenate([
            df_da11 * regime_char_exponent_grad(model.regimes[0], family, u),
            df_da22 * regime_char_exponent_grad(model.regimes[1], family, u),
        ])
        terms = np.real(dphi * rotation[..., None, :])  # (8, n) or (K, 8, n)
        terms[..., 0] *= 0.5
        jac[idx] = math.exp(-model.r * maturity) * _payoff_sums(terms, strikes, *interval)
    return jac


def bs_closed_form(
    s0: float, strike: float, r: float, sigma: float, maturity: float, kind: OptionKind
) -> float:
    """Black-Scholes reference price (oracle for the identity reduction)."""
    if min(s0, strike, maturity) <= 0 or sigma < 0:
        raise ValueError("inputs must be positive (sigma >= 0)")
    disc = math.exp(-r * maturity)
    vol = sigma * math.sqrt(maturity)
    if vol < 1e-12:
        call = max(s0 - strike * disc, 0.0)
    else:
        d1 = (math.log(s0 / strike) + (r + 0.5 * sigma**2) * maturity) / vol
        d2 = d1 - vol
        call = s0 * ndtr(d1) - strike * disc * ndtr(d2)
    if kind is OptionKind.CALL:
        return call
    return call - s0 + strike * disc
