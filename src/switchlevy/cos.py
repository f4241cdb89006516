"""Fourier-cosine pricing of European options from the switching CF.

Puts are priced by the cosine expansion of the log-moneyness density on a
truncated interval [a, b]; calls always go through put-call parity
(call = put + S0 - K exp(-rT)) because the direct call coefficients
diverge for large b while the put coefficients stay bounded. The parity
correction is applied once, after the summation. `price_table` is the one
pricing kernel; `price_contract` is its single-contract wrapper, and
`price_table_jacobian` differentiates it in the regime parameters.

The automatic interval comes from the exact cumulants c1, c2, c4 of the log
return (`log_return_cumulants`), composed from the regimes' unit-time
cumulants and the cumulants of the time spent in regime 1
(`regime.occupation_cumulants`), with no matrix exponential. The tests keep
the Van Loan (1978) block exponential they replaced as their reference.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .charfn import (
    CharFn,
    _phi_entries,
    _row_sum,
    _row_sum_grad,
    _row_sum_parts,
    increment_cumulants,
    regime_char_exponent_grad,
    switching_cf,
)
from .regime import SwitchingModel, occupation_cumulants


class PricingError(RuntimeError):
    """Raised when the cosine sum is too negative to be truncation noise."""


class OptionKind(str, Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class ContractSpec:
    """One European option; kind may be given by its string value."""

    strike: float
    maturity: float
    kind: OptionKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", OptionKind(self.kind))
        if not 0 < self.strike < math.inf:
            raise ValueError(f"strike must be finite and > 0, got {self.strike}")
        if not 0 < self.maturity < math.inf:
            raise ValueError(f"maturity must be finite and > 0, got {self.maturity}")


# L of the automatic truncation interval c1 -/+ L sqrt(c2 + sqrt|c4|)
CUMULANT_SCALE = 10.0


@dataclass(frozen=True)
class CosConfig:
    """Series length and optional fixed interval.

    A user interval [a, b] bounds the log return log(S_T/S0) at every
    maturity and has finite endpoints with a < 0 < b. Like the automatic
    interval, it is shifted by each strike's log-moneyness log(S0/K).
    """

    n_terms: int = 512
    interval: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.n_terms, numbers.Integral) and self.n_terms >= 16):
            raise ValueError(f"n_terms must be an integer >= 16, got {self.n_terms!r}")
        if self.interval is not None:
            a, b = self.interval
            if not (-math.inf < a < 0.0 < b < math.inf):
                raise ValueError(f"interval must be finite with a < 0 < b, got [{a}, {b}]")


def log_return_cumulants(cf: CharFn):
    """Exact cumulants c1, c2, c4 of y0 + Z_t, the variable whose CF is cf.

    Given the time tau spent in regime 1, Z_t is the sum of two independent
    Levy legs run for tau and t - tau, so by the law of total cumulance its
    cumulant generating function is t k_2(theta) + K_tau(k_1(theta) - k_2(theta)),
    with k_j(theta) = sum_n kappa_{j,n} theta^n / n! the regimes' unit-time
    cumulant generating functions and K_tau that of tau. With
    beta_n = kappa_{1,n} - kappa_{2,n} and tau's cumulants zeta_k
    (`regime.occupation_cumulants`),
        c1 = y0 + kappa_{2,1} t + zeta_1 beta_1,
        c2 = kappa_{2,2} t + zeta_1 beta_2 + zeta_2 beta_1^2,
        c4 = kappa_{2,4} t + zeta_1 beta_4 + zeta_2 (4 beta_1 beta_3 + 3 beta_2^2)
             + 6 zeta_3 beta_1^2 beta_2 + zeta_4 beta_1^4.

    Each horizon takes one scalar pass, so an array of horizons cf.t gives
    three arrays of t's shape, equal to the scalar calls', and a scalar
    horizon gives three floats.
    """
    model = cf.model
    k1, k2 = (increment_cumulants(p, model.family, 1.0) for p in model.regimes)
    b1, b2, b3, b4 = (x - y for x, y in zip(k1, k2))
    b11 = b1 * b1
    t = np.asarray(cf.t, dtype=float)
    cumulants = []
    for horizon in t.ravel().tolist():
        z1, z2, z3, z4 = occupation_cumulants(model.lambda12, model.lambda21, horizon)
        cumulants.append((
            k2[0] * horizon + z1 * b1 + cf.y0,
            k2[1] * horizon + z1 * b2 + z2 * b11,
            k2[3] * horizon + z1 * b4 + z2 * (4.0 * b1 * b3 + 3.0 * b2 * b2)
            + 6.0 * z3 * b11 * b2 + z4 * b11 * b11,
        ))
    if not all(map(math.isfinite, (c for row in cumulants for c in row))):
        raise ValueError(f"non-finite cumulants (c1, c2, c4): {cumulants}")
    if t.ndim:
        return tuple(np.array(cumulants).T.reshape((3,) + t.shape))
    return cumulants[0]


def truncation_interval(cf: CharFn, config: CosConfig):
    """Expansion interval [a, b] of y0 + Z_t, the variable whose CF is cf:
    y0 + [a, b] for a user interval [a, b] of the log return Z_t, else the
    cumulant rule c1 -/+ L sqrt(c2 + sqrt|c4|) with L = CUMULANT_SCALE.
    Floats for a scalar horizon, arrays of cf.t's shape for an array of
    horizons."""
    if config.interval is None:
        c1, c2, c4 = log_return_cumulants(cf)
        half = CUMULANT_SCALE * np.sqrt(np.maximum(c2, 0.0) + np.sqrt(np.abs(c4)))
        if not (np.isfinite(half) & (half > 0)).all():
            raise ValueError(f"degenerate truncation width {half}")
        lo, hi = c1 - half, c1 + half
    else:
        lo, hi = (np.full(np.shape(cf.t), cf.y0 + x) for x in config.interval)
    if np.ndim(lo):
        return lo, hi
    return float(lo), float(hi)


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
    if raw.min() >= 0.0:  # nothing to clip
        return raw
    too_negative = raw < -1e-8 * np.maximum(1.0, strikes)
    if np.any(too_negative):
        raise PricingError(
            f"cosine sum {raw[too_negative][0]} is negative beyond truncation noise; "
            "widen the interval or increase n_terms"
        )
    for value in raw[raw < 0.0]:
        warnings.warn(f"clipping negative cosine price {value} to 0", stacklevel=3)
    return np.where(raw < 0.0, 0.0, raw)


def price_contract(
    model: SwitchingModel, contract: ContractSpec, config: CosConfig = CosConfig()
) -> float:
    """COS price of one contract through `price_table`, the put or the call
    that contract.kind names."""
    return float(price_table(model, [contract], config)[0])


def _split_powers(theta, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """The powers e^{ik theta}, k < n_terms, as two short factor tables.

    With R = ceil(sqrt(n_terms)) and k = R m + r (0 <= r < R),
    e^{ik theta} = e^{iRm theta} e^{ir theta}. An angle costs one complex
    exponential, e^{i theta}: the low factors e^{ir theta} are its running
    products, and the high factors e^{iRm theta} the running products of
    e^{iR theta} = e^{i(R-1) theta} e^{i theta}. A power then carries a
    rounding error of O(k eps) whatever the size of theta, where
    e^{ik theta} taken directly carries the O(k |theta| eps) error of the
    rounded argument. For theta of shape S the factors have shapes S + (M,)
    and S + (R,), M = ceil(n_terms/R).
    """
    r_len = math.isqrt(n_terms - 1) + 1
    step = np.exp(1j * np.asarray(theta, dtype=float))
    low = _running_powers(step, r_len)
    return _running_powers(low[..., -1] * step, -(-n_terms // r_len)), low


def _running_powers(step: np.ndarray, length: int) -> np.ndarray:
    """step^j for j < length by running products, shape step.shape + (length,)."""
    out = np.empty(step.shape + (length,), dtype=complex)
    out[..., 0] = 1.0
    out[..., 1:] = step[..., None]
    return np.multiply.accumulate(out, axis=-1, out=out)


def _powers(theta, n_terms: int) -> np.ndarray:
    """e^{ik theta} for k < n_terms, shape S + (n_terms,), as products of
    the `_split_powers` factors (running products of e^{i theta})."""
    high, low = _split_powers(theta, n_terms)
    return (high[..., :, None] * low[..., None, :]).reshape(*high.shape[:-1], -1)[..., :n_terms]


def _power_sums(theta, rows: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Sum_k rows[g, ..., k] e^{ik theta_i} for each angle theta_i of group g,
    the angles taken in groups of consecutive entries, counts[g] in group g.

    rows has shape (G, ..., n); with the `_split_powers` factors the sums
    take one (angles, R) @ (R, rows M) product per group and one contraction
    with the high factor. Returns shape (len(theta), rows per group), complex.
    """
    groups, n = len(rows), rows.shape[-1]
    high, low = _split_powers(theta, n)
    m_len, r_len = high.shape[-1], low.shape[-1]
    padded = np.zeros(rows.shape[:-1] + (m_len * r_len,), dtype=rows.dtype)
    padded[..., :n] = rows
    table = padded.reshape(groups, -1, m_len, r_len).transpose(0, 3, 1, 2).reshape(groups, r_len, -1)
    inner = np.empty((len(low), table.shape[-1]), dtype=complex)
    stop = 0
    for group, count in zip(table, counts):
        np.matmul(low[stop : stop + count], group, out=inner[stop : stop + count])
        stop += count
    return (inner.reshape(len(low), -1, m_len) @ high[:, :, None])[..., 0]


def _payoff_sums(terms: np.ndarray, strikes: np.ndarray, a, b, width, counts=None) -> np.ndarray:
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
    O(1/omega) parts do not cancel when b > 0 (d = 0). The z_k sums go
    through `_power_sums` at theta = pi s / width.

    The K strikes come in G groups of consecutive strikes, counts[g] in
    group g (K/G each by default). Group g has its own term rows terms[g]
    and width width[g]: terms of shape (G, J, n), or (J, n) for G = 1, and
    width of shape (G,) or (G, 1), or a scalar. Every strike has its own
    interval: a and b of shape (K,), or scalars. Returns shape (K, J).
    """
    n = terms.shape[-1]
    if terms.ndim == 2:
        terms = terms[None]
    groups = len(terms)
    if counts is None:
        counts = [len(strikes) // groups] * groups
    width = np.asarray(width, dtype=float).reshape(-1, 1)
    widths = width.repeat(counts if len(width) > 1 else len(strikes), axis=0)  # a row per strike
    d = np.minimum(0.0, b)
    span = np.maximum(d - a, 0.0)
    om = np.arange(n) * (np.pi / width)
    lorentz = 1.0 / (1.0 + om * om)
    scales = np.zeros((len(width), 3, n))  # the three weight rows per term row
    np.divide(lorentz, om, out=scales[:, 0], where=om > 0.0)
    np.multiply(om, lorentz, out=scales[:, 1])
    scales[:, 2] = lorentz
    sums = _power_sums(np.pi * span / widths[:, 0], terms[:, None] * scales[:, :, None], counts)
    sums = sums.reshape(len(strikes), 3, -1)
    first = terms[..., 0].repeat(counts, axis=0)
    lorentz_sums = (terms @ lorentz[:, :, None])[..., 0].repeat(counts, axis=0)
    d, span, a = (np.asarray(x).reshape(-1, 1) for x in (d, span, a))
    total = (
        first * span
        + sums[:, 0].imag
        - np.expm1(d) * sums[:, 1].imag
        - np.exp(d) * sums[:, 2].real
        + np.exp(a) * lorentz_sums
    )
    return np.where(span > 0.0, (2.0 * strikes[:, None] / widths) * total, 0.0)


class _Sweep:
    """The CF sweep of a grid of contracts over its maturities at y0 = 0,
    which `price_table` and `price_table_jacobian` sum alike (`sums`).

    The contracts are grouped by maturity, in order of first appearance:
    `order` holds their input positions and `counts` the group sizes, and
    strikes, the call flags `is_call`, x0 = log(s0/K) and disc (the
    discount factors) follow it. The M maturities form an (M, 1) array of
    horizons of the CF `base`. Maturity m has the interval [a0, b0] of the
    log return (`truncation_interval` of base, automatic or user), its
    width W and its u row k pi / W, so u has shape (M, n); a strike's
    interval is [x0 + a0, x0 + b0].

    The phases e^{-i u a0} are formed at construction. `keep` forms and
    holds the entries of t Phi(u) and their `_row_sum_parts`, which
    `price_table_jacobian` at the same model, contracts and config then
    reuses; a sweep not kept holds neither.
    """

    def __init__(self, model: SwitchingModel, contracts: Sequence[ContractSpec], config: CosConfig):
        by_t: dict[float, list[int]] = {}
        for i, c in enumerate(contracts):
            by_t.setdefault(c.maturity, []).append(i)
        self.order = [i for idx in by_t.values() for i in idx]
        self.counts = [len(idx) for idx in by_t.values()]
        call = OptionKind.CALL
        self.strikes = np.array([contracts[i].strike for i in self.order])
        self.is_call = np.array([contracts[i].kind is call for i in self.order])
        self.x0 = np.log(model.s0 / self.strikes)
        self.disc = np.array([math.exp(-model.r * t) for t in by_t]).repeat(self.counts)
        self.base = CharFn(model, np.array(list(by_t))[:, None], y0=0.0)
        self.a0, self.b0 = truncation_interval(self.base, config)
        self.width = self.b0 - self.a0
        self.u = np.arange(config.n_terms) * np.pi / self.width
        self.phases = _powers(np.pi * -self.a0 / self.width, config.n_terms)  # e^{-i u a0}
        self.entries = self.parts = None

    def keep(self) -> None:
        self.entries = _phi_entries(self.base.model, self.base.t, self.u)
        self.parts = _row_sum_parts(*self.entries)

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """Discounted cosine sums, shape (K, J), in `order`, of J rows (the
        CF or its derivatives) per maturity, shape (M, J, n).

        A contract's sum is Sum_k Re(rows_k e^{i u_k (x0 - a)}) V_k with
        a = x0 + a0, the first term halved. The phase u (x0 - a) = -u a0 is
        the maturity's, so the term rows are too, and `_payoff_sums` takes
        each strike's own [a, b]: no table with a row per contract is
        formed.
        """
        terms = np.real(rows * self.phases)
        terms[..., 0] *= 0.5
        a, b = (self.x0 + x.repeat(self.counts) for x in (self.a0, self.b0))
        return self.disc[:, None] * _payoff_sums(terms, self.strikes, a, b, self.width, self.counts)


def price_table(
    model: SwitchingModel,
    contracts: Sequence[ContractSpec],
    config: CosConfig = CosConfig(),
    *,
    _sweep: list | None = None,
) -> np.ndarray:
    """COS prices of a grid of contracts, in the order of `contracts`, from
    one CF sweep over all maturities (`_Sweep`).

    _sweep: a list to which the call appends its sweep, kept, for
    `price_table_jacobian` at the same arguments; the prices are the same
    to the bit.
    """
    prices = np.empty(len(contracts))
    if not len(contracts):
        return prices
    sweep = _Sweep(model, contracts, config)
    if _sweep is None:
        cf = switching_cf(sweep.base, sweep.u)
    else:
        sweep.keep()
        _sweep.append(sweep)
        cf = _row_sum(*sweep.entries, parts=sweep.parts)
    puts = _guard_put_sums(sweep.sums(cf[:, None, :])[:, 0], sweep.strikes)
    prices[sweep.order] = np.where(sweep.is_call, puts + model.s0 - sweep.strikes * sweep.disc, puts)
    return prices


def price_table_jacobian(
    model: SwitchingModel,
    contracts: Sequence[ContractSpec],
    config: CosConfig = CosConfig(),
    *,
    _sweep: list | None = None,
) -> np.ndarray:
    """Derivatives of the `price_table` prices in (mu, sigma, alpha, beta)
    of regime 1 then regime 2, shape (len(contracts), 8).

    A parameter of regime j enters Phi(u) only through its diagonal entry
    Psi_j, so d phi/d theta = t (df/da_jj) dPsi_j/dtheta with f the row sum
    of exp(t Phi(u)); the eight derivative rows of every maturity are
    summed by the same `_Sweep` as the prices, with the truncation interval
    held at its value at the model. Calls and puts share their
    sensitivities (put-call parity).

    _sweep: a list holding the sweep that `price_table` kept at the same
    arguments, whose interval, u grid, phases, Phi(u) entries and
    `_row_sum_parts` are then reused; the derivatives are the same to the
    bit.
    """
    jac = np.empty((len(contracts), 8))
    if not len(contracts):
        return jac
    sweep = _sweep[0] if _sweep else _Sweep(model, contracts, config)
    entries = sweep.entries or _phi_entries(model, sweep.base.t, sweep.u)
    _, df_da11, df_da22 = _row_sum_grad(*entries, parts=sweep.parts)
    grad1, grad2 = (np.moveaxis(regime_char_exponent_grad(p, model.family, sweep.u), 0, -2) for p in model.regimes)
    rows = np.concatenate([df_da11[:, None] * grad1, df_da22[:, None] * grad2], axis=1)
    jac[sweep.order] = sweep.sums(sweep.base.t[..., None] * rows)
    return jac


def bs_closed_form(
    s0: float, strike: float, r: float, sigma: float, maturity: float, kind: OptionKind
) -> float:
    """Black-Scholes reference price (oracle for the identity reduction);
    kind may be given by its string value. Imports scipy.special's ndtr
    when called, so that COS pricing loads no scipy."""
    from scipy.special import ndtr

    kind = OptionKind(kind)
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
