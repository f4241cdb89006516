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
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.special import ndtr

from .charfn import (
    CharFn,
    _phi_entries,
    _row_sum_grad,
    increment_cumulants,
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


def log_return_cumulants(cf: CharFn):
    """Exact cumulants c1, c2, c4 of y0 + Z_t, the variable whose CF is cf.

    The moment generating function is E[e^{theta Z_t}] = e_1^T exp(t K) 1
    with K(theta) = Q + sum_n D_n theta^n / n!, where D_n holds the regimes'
    unit-time increment cumulants kappa_{j,n} on its diagonal. The
    exponential of the block upper-triangular Toeplitz matrix with first
    block row t [Q, D_1, D_2/2!, D_3/3!, D_4/4!] has the Taylor coefficients
    of exp(t K(theta)) as its first block row (Van Loan 1978), so block n of
    row 0, summed and times n!, is the raw moment m_n.

    The matrix is built once; an array of horizons cf.t takes one batched
    `expm` over the stack t * matrix and gives three arrays of t's shape.
    A scalar horizon gives three floats.
    """
    model = cf.model
    factorials = np.array([1.0, 2.0, 6.0, 24.0])
    kappa = np.array([increment_cumulants(p, model.family, 1.0) for p in model.regimes])
    first = np.zeros((2, 10))  # first block row
    first[:, :2] = generator_matrix(model)
    first[0, 2::2], first[1, 3::2] = kappa / factorials  # diagonals of D_n / n!
    big = np.zeros((10, 10))
    for r in range(5):  # block n on the n-th block superdiagonal: row r is the first row shifted
        big[2 * r : 2 * r + 2, 2 * r :] = first[:, : 10 - 2 * r]
    t = np.asarray(cf.t, dtype=float)
    top = expm(t[..., None, None] * big)[..., 0, :]
    moments = ((top[..., 2::2] + top[..., 3::2]) * factorials).reshape(-1, 4).tolist()
    cumulants = np.array([
        (m1 + cf.y0, m2 - m1**2, m4 - 4.0 * m3 * m1 - 3.0 * m2**2 + 12.0 * m2 * m1**2 - 6.0 * m1**4)
        for m1, m2, m3, m4 in moments
    ])
    if not np.isfinite(cumulants).all():
        raise ValueError(f"non-finite cumulants (c1, c2, c4): {cumulants.tolist()}")
    if t.ndim:
        return tuple(cumulants.T.reshape((3,) + t.shape))
    return tuple(cumulants[0].tolist())


def truncation_interval(cf: CharFn, config: CosConfig):
    """Expansion interval [a, b]: user-specified, or the cumulant rule
    c1 -/+ L sqrt(c2 + sqrt|c4|), as floats for a scalar horizon and as
    arrays of cf.t's shape for an array of horizons."""
    if config.interval is not None:
        return config.interval
    c1, c2, c4 = log_return_cumulants(cf)
    half = config.cumulant_scale * np.sqrt(np.maximum(c2, 0.0) + np.sqrt(np.abs(c4)))
    if not (np.isfinite(half) & (half > 0)).all():
        raise ValueError(f"degenerate truncation width {half}")
    if half.ndim:
        return c1 - half, c1 + half
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
    O(1/omega) parts do not cancel when b > 0 (d = 0). The z_k come from
    `_split_powers` at theta = pi s / width, so the sums take one
    (angles, R) @ (R, rows) product per group of angles that shares its
    weight rows, and 2 sqrt(n) exponentials per angle.

    Three layouts, each of K strikes:
    - each strike has its own interval (a, b of shape (K,)) and all share
      the term rows, shape (J, n), and the width;
    - as above for G groups of consecutive strikes, `counts` of them each:
      group g has its own term rows terms[g] and width width[g] (terms of
      shape (G, J, n), width of shape (G,) or (G, 1));
    - all share the interval (scalar a, b and width) and each strike has
      its own term rows, shape (K, J, n): one angle against K J rows.
    Returns shape (K, J).
    """
    n = terms.shape[-1]
    if terms.ndim == 2:
        terms = terms[None]
    width = np.asarray(width, dtype=float).reshape(-1, 1)
    if np.asarray(a).ndim == 0:
        counts = [1]  # one angle for all rows
    elif counts is None:
        counts = [len(strikes)]

    def per_strike(x):  # a row per group, or per strike, to a row per strike
        return x if len(counts) == 1 else x.repeat(counts, axis=0)

    d = np.minimum(0.0, b)
    span = np.maximum(d - a, 0.0)
    widths = per_strike(width)
    high, low = _split_powers(np.pi * span / widths[:, 0], n)
    m_len, r_len = high.shape[-1], low.shape[-1]
    om = np.arange(n) * (np.pi / width)
    lorentz = 1.0 / (1.0 + om * om)
    scales = np.zeros((len(width), 3, n))  # the three weight rows per term row
    np.divide(lorentz, om, out=scales[:, 0], where=om > 0.0)
    np.multiply(om, lorentz, out=scales[:, 1])
    scales[:, 2] = lorentz
    weights = np.zeros(terms.shape[:1] + (3,) + terms.shape[1:-1] + (m_len * r_len,))
    np.multiply(terms[:, None], scales[:, :, None], out=weights[..., :n])
    groups = len(width)
    table = weights.reshape(groups, -1, m_len, r_len).transpose(0, 3, 1, 2).reshape(groups, r_len, -1)
    inner = np.empty((len(low), table.shape[-1]), dtype=complex)
    stop = 0
    for group, count in zip(table, counts):
        np.matmul(low[stop : stop + count], group, out=inner[stop : stop + count])
        stop += count
    sums = (inner.reshape(len(low), -1, m_len) @ high[:, :, None]).reshape(len(strikes), 3, -1)
    first = per_strike(terms[..., 0])
    lorentz_sums = per_strike((terms @ lorentz[:, :, None])[..., 0])
    d, span, a = (np.asarray(x).reshape(-1, 1) for x in (d, span, a))
    total = (
        first * span
        + sums[:, 0].imag
        - np.expm1(d) * sums[:, 1].imag
        - np.exp(d) * sums[:, 2].real
        + np.exp(a) * lorentz_sums
    )
    return np.where(span > 0.0, (2.0 * strikes[:, None] / widths) * total, 0.0)


class _Grid(NamedTuple):
    """The pieces of a grid's cosine sums shared by `price_table` and
    `price_table_jacobian`; see `_grid_setup`."""

    order: list[int]
    counts: list[int]
    strikes: np.ndarray
    disc: np.ndarray
    base: CharFn
    u: np.ndarray
    rotation: np.ndarray
    sweep_rows: slice | np.ndarray
    interval: tuple


def _grid_setup(model: SwitchingModel, contracts: Sequence[ContractSpec], config: CosConfig) -> _Grid:
    """Set up the cosine sums of every maturity of a grid at once.

    The contracts are taken in maturity groups, in `_by_maturity` order:
    `order` holds their input positions, `counts` the group sizes, and
    `strikes`, the discount factors `disc` and the interval follow the
    grouped order. `base` is the y0 = 0 CF with the M maturities as an
    (M, 1) column of horizons (nested tuples, so the CF stays hashable),
    and one `switching_cf` call on the u grid sweeps all of them.

    The strike enters only through the log-moneyness x0 = log(s0/K). With
    the automatic interval, maturity m has the cumulant interval
    [a0_m, b0_m] of the y0 = 0 CF, shifted by x0 per strike: a and b have
    one entry per contract, the width W_m and the u row u[m, k] = k pi / W_m
    one per maturity (shape (M, 1) and (M, n_terms)), and the phase
    u (x0 - a) = -u a0_m is shared by a maturity's strikes, so the factor
    exp(i u phase) has one row per maturity. With a user interval every
    contract shares [a, b], the width and one u row, and each contract gets
    its own phase row from `_powers`. Either way `sweep_rows` picks, for
    each phase row, the maturity row of the CF sweep that it multiplies.
    """
    by_t = _by_maturity(contracts)
    order = [i for idx in by_t.values() for i in idx]
    counts = [len(idx) for idx in by_t.values()]
    strikes = np.array([contracts[i].strike for i in order])
    x0 = np.log(model.s0 / strikes)
    disc = np.array([math.exp(-model.r * t) for t in by_t]).repeat(counts)
    base = CharFn(model, tuple((t,) for t in by_t), y0=0.0)
    a0, b0 = truncation_interval(base, config)
    width = b0 - a0
    u = np.arange(config.n_terms) * np.pi / width
    if config.interval is None:
        a, b = x0 + a0.repeat(counts), x0 + b0.repeat(counts)
        theta, sweep_rows = np.pi * -a0[:, 0] / width[:, 0], slice(None)
    else:
        a, b, theta = a0, b0, np.pi * (x0 - a0) / width
        sweep_rows = np.arange(len(counts)).repeat(counts)
    rotation = _powers(theta, config.n_terms)
    return _Grid(order, counts, strikes, disc, base, u, rotation, sweep_rows, (a, b, width))


def price_table(
    model: SwitchingModel,
    contracts: Sequence[ContractSpec],
    config: CosConfig = CosConfig(),
) -> np.ndarray:
    """COS prices of a grid of contracts, with one CF sweep over all
    maturities.

    The CF is evaluated once at y0 = 0, on one u row per maturity (see
    `_grid_setup` for how strikes and the interval enter). All contracts
    are summed at once by `_payoff_sums`, which folds the closed-form
    payoff coefficients into the terms without forming a (K, n_terms)
    matrix. Prices come back in the order of `contracts`.
    """
    prices = np.empty(len(contracts))
    if not len(contracts):
        return prices
    grid = _grid_setup(model, contracts, config)
    terms = np.real(switching_cf(grid.base, grid.u)[grid.sweep_rows] * grid.rotation)
    terms[..., 0] *= 0.5
    strikes, disc = grid.strikes, grid.disc
    raw = disc * _payoff_sums(terms[:, None, :], strikes, *grid.interval, grid.counts)[:, 0]
    puts = _guard_put_sums(raw, strikes)
    is_call = np.array([contracts[i].kind is OptionKind.CALL for i in grid.order])
    prices[grid.order] = np.where(is_call, puts + model.s0 - strikes * disc, puts)
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
    of exp(t Phi(u)); the eight derivative rows of every maturity go
    through the same `_grid_setup` phase and `_payoff_sums` as the prices,
    with the truncation interval held at its value at the model. Calls and
    puts share their sensitivities (put-call parity).
    """
    jac = np.empty((len(contracts), 8))
    if not len(contracts):
        return jac
    grid = _grid_setup(model, contracts, config)
    t, u = np.array(grid.base.t), grid.u
    _, df_da11, df_da22 = _row_sum_grad(*_phi_entries(model, t, u))
    grad1, grad2 = (np.moveaxis(regime_char_exponent_grad(p, model.family, u), 0, -2) for p in model.regimes)
    dphi = t[..., None] * np.concatenate([df_da11[:, None] * grad1, df_da22[:, None] * grad2], axis=1)
    terms = np.real(dphi[grid.sweep_rows] * grid.rotation[:, None, :])  # (M or K, 8, n)
    terms[..., 0] *= 0.5
    jac[grid.order] = grid.disc[:, None] * _payoff_sums(terms, grid.strikes, *grid.interval, grid.counts)
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
