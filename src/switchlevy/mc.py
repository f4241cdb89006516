"""Monte Carlo engine for regime-switching time-changed paths.

Regime switch times are inserted into the time grid exactly, so every
increment is drawn under a single regime: within a regime-j span of
length d the log price moves by mu_j * dL + sigma_j * sqrt(dL) * N(0,1)
with dL a subordinator increment over d. Gamma and IG increments compose
exactly under subdivision, so terminal draws carry no discretization
bias.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .cos import ContractSpec, OptionKind
from .regime import (
    TRADING_DT,
    Family,
    RegimeParams,
    SwitchingModel,
    simulate_regime_path,
)
from .subordinators import SubordinatorSpec, increment_from_draws, sample_increment, spec_for

Z95 = 1.959964  # two-sided 95% normal quantile
_BLOCK = 1 << 16
# subordinator increments kept per frozen leg: a base point and its alpha
# and beta probes, so the base is still kept when the optimizer returns to it
_KEPT_INCREMENTS = 3
_GAMMA_ALPHA_REL_STEP = 1e-6


@dataclass(frozen=True)
class PricePath:
    """One simulated trajectory: log price Z (Z_0 = 0) on a time grid that
    contains every switch time; regimes[i] is active on [times[i], times[i+1])."""

    times: np.ndarray
    log_prices: np.ndarray
    regimes: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.log_prices) == len(self.regimes)):
            raise ValueError("times, log_prices and regimes must align")


@dataclass(frozen=True)
class McResult:
    price: float
    std_error: float
    ci95: tuple[float, float]
    n_paths: int
    seed: int | None = None


def simulate_path(
    model: SwitchingModel, horizon: float, dt: float, rng: np.random.Generator
) -> PricePath:
    """Simulate one path on the dt grid refined by the exact switch times."""
    if not 0 < dt <= horizon:
        raise ValueError("need 0 < dt <= horizon")
    rp = simulate_regime_path(model, horizon, rng)
    n_steps = int(math.ceil(horizon / dt - 1e-12))
    base = np.linspace(0.0, horizon, n_steps + 1)
    times = np.unique(np.concatenate([base, rp.switch_times]))
    # regime active at each grid time: count switches at or before t
    regime_idx = np.searchsorted(rp.switch_times, times, side="right")
    regimes = rp.states[regime_idx]

    specs = (spec_for(model.regimes[0], model.family), spec_for(model.regimes[1], model.family))
    z = np.zeros(len(times))
    for i in range(len(times) - 1):
        j = regimes[i] - 1
        dur = times[i + 1] - times[i]
        dl = float(sample_increment(specs[j], dur, rng))
        prm = model.regimes[j]
        z[i + 1] = z[i] + prm.mu * dl + prm.sigma * math.sqrt(dl) * rng.standard_normal()
    return PricePath(times, z, regimes)


def _draw_sojourns(rate: float, size: int, rng: np.random.Generator) -> np.ndarray:
    if rate == 0.0:
        return np.full(size, np.inf)
    return rng.exponential(1.0 / rate, size)


def sample_terminal(
    model: SwitchingModel,
    horizon: float,
    n_paths: int,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized terminal log returns Z_T for n_paths paths.

    Marches the dt grid; paths with a switch inside the current step are
    advanced segment by segment so each draw sees a single regime.
    """
    if not 0 < dt <= horizon:
        raise ValueError("need 0 < dt <= horizon")
    params = model.regimes
    specs = (spec_for(params[0], model.family), spec_for(params[1], model.family))
    z = np.zeros(n_paths)
    state = np.ones(n_paths, dtype=np.int8)
    next_switch = _draw_sojourns(model.lambda12, n_paths, rng)

    n_steps = int(math.ceil(horizon / dt - 1e-12))
    t = 0.0
    for step in range(n_steps):
        t_end = min(horizon, (step + 1) * dt)
        t_cur = np.full(n_paths, t)
        active = np.ones(n_paths, dtype=bool)
        for _pass in range(100000):
            ev = np.minimum(next_switch, t_end)
            dur = ev - t_cur
            move = np.nonzero(active & (dur > 0))[0]
            for j in (1, 2):
                grp = move[state[move] == j]
                if grp.size:
                    dl = sample_increment(specs[j - 1], dur[grp], rng)
                    z[grp] += params[j - 1].mu * dl + params[j - 1].sigma * np.sqrt(
                        dl
                    ) * rng.standard_normal(grp.size)
            t_cur[move] = ev[move]
            switching = active & (next_switch <= t_end)
            if not switching.any():
                break
            sw = np.nonzero(switching)[0]
            state[sw] = 3 - state[sw]
            rates = np.where(state[sw] == 1, model.lambda12, model.lambda21)
            fresh = np.where(
                rates > 0, rng.exponential(1.0, sw.size) / np.maximum(rates, 1e-300), np.inf
            )
            next_switch[sw] = ev[sw] + fresh
            active = switching
        else:  # pragma: no cover
            raise RuntimeError("switch handling did not terminate")
        t = t_end
    return z


def option_payoff(s_t: np.ndarray, strike: float, kind: OptionKind) -> tuple[np.ndarray, np.ndarray]:
    """Payoff max(w (S_T - K), 0) on each terminal price, w = +1 for a call
    and -1 for a put, and its pathwise weight, the derivative in log S_T:
    w S_T where the payoff is positive, 0 elsewhere. The payoff is formed as
    w S_T - w K, which is S_T - K or K - S_T to the bit, +0 at S_T = K
    included."""
    w = 1.0 if kind is OptionKind.CALL else -1.0
    w_s = w * s_t
    payoff = np.maximum(w_s - w * strike, 0.0)
    return payoff, np.multiply(payoff > 0, w_s)


def price_european_mc(
    model: SwitchingModel,
    contract: ContractSpec,
    n_paths: int,
    dt: float = TRADING_DT,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> McResult:
    """Discounted mean payoff with a 95% confidence interval.

    Paths are generated in fixed-size blocks, which bound the memory of
    one call; each block draws from its own stream spawned from rng, which
    fixes the result of a seed.
    """
    if n_paths < 100:
        raise ValueError("n_paths must be >= 100")
    if rng is None:
        rng = np.random.default_rng(seed)
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    streams = rng.spawn(n_blocks)
    chunks = []
    left = n_paths
    for child in streams:
        m = min(_BLOCK, left)
        chunks.append(sample_terminal(model, contract.maturity, m, dt, child))
        left -= m
    z = np.concatenate(chunks)

    payoff, _ = option_payoff(model.s0 * np.exp(z), contract.strike, contract.kind)
    disc = math.exp(-model.r * contract.maturity)
    price = disc * float(payoff.mean())
    se = disc * float(payoff.std(ddof=1)) / math.sqrt(n_paths)
    return McResult(price, se, (price - Z95 * se, price + Z95 * se), n_paths, seed)


class FrozenTerminalSampler:
    """Terminal sampler with frozen randomness for common-random-numbers.

    Given the time tau a path spends in regime 1, Z_T has the law of
    Y1(tau) + Y2(T - tau), Y1 and Y2 independent, as Gamma and IG clocks
    and the Brownian part compose exactly. The sojourns depend only on the
    fixed intensities and are drawn at construction just to sum tau per
    path; the driving draws are frozen for one leg per regime, over tau
    and over T - tau. A zero-length leg (T - tau on a path that never
    leaves regime 1) is skipped, since the IG transform is 0/0 there.
    evaluate() maps regime parameters to terminal log returns through
    smooth inverse-CDF transforms of the draws, at most one per leg, and
    weighted_gradient() gives their pathwise derivatives. The calibration
    uses both; the simulated likelihood differences evaluate() with
    lambda12 = 0, which leaves one leg of single-regime increments.

    Each leg keeps its last few subordinator increments (least recently
    used out), so the Jacobian at the point just evaluated and probes in
    mu or sigma, or in beta for Gamma, reuse that point's increment. A
    Gamma leg's transform depends on alpha alone: its increment is kept
    for beta = 1 and divided by beta, as the transform does. A reused
    evaluation is bit-for-bit the one a fresh sampler gives.
    """

    def __init__(
        self,
        family: Family,
        lambda12: float,
        lambda21: float,
        horizon: float,
        n_paths: int,
        seed: int,
    ):
        if not horizon > 0 or n_paths < 1:
            raise ValueError("need horizon > 0 and n_paths >= 1")
        self.family = family
        self.n_paths = n_paths
        rng = np.random.default_rng(seed)
        tau, left = np.zeros(n_paths), np.full(n_paths, float(horizon))  # time in regime 1, to go
        alive, k = np.arange(n_paths), 0
        while alive.size:  # sojourns alternate regime 1, 2, 1, ...
            dur = np.minimum(_draw_sojourns((lambda12, lambda21)[k % 2], alive.size, rng), left[alive])
            if k % 2 == 0:
                tau[alive] += dur
            left[alive] -= dur
            alive, k = alive[left[alive] > 0], k + 1
        self._rounds: list[tuple] = []  # the legs
        for state, span in ((1, tau), (2, horizon - tau)):
            idx = np.flatnonzero(span > 0)
            if idx.size:
                draws = tuple(f(idx.size) for f in (rng.random, rng.standard_normal) * 2)  # u, nu, z, N
                self._rounds.append((idx, span[idx], state, draws, OrderedDict()))

    def evaluate(self, theta1: RegimeParams, theta2: RegimeParams) -> np.ndarray:
        z = np.zeros(self.n_paths)
        for idx, dur, state, (u, nu, zz, nrm), kept in self._rounds:
            prm = theta1 if state == 1 else theta2
            dl = self._increment(prm, dur, u, nu, zz, kept)
            z[idx] += prm.mu * dl + prm.sigma * np.sqrt(dl) * nrm
        return z

    def weighted_gradient(self, theta1: RegimeParams, theta2: RegimeParams, weights: np.ndarray) -> np.ndarray:
        """sum_paths w_r(path) dZ_T/dtheta for each row r of weights (R,
        n_paths), theta = (mu, sigma, alpha, beta) of regime 1 then regime
        2; shape (R, 8).

        Pathwise derivatives through the frozen draws, leg by leg: a leg
        adds mu L + sigma sqrt(L) N, L the clock increment over tau or
        T - tau, so dZ/dmu = L, dZ/dsigma = sqrt(L) N and dZ/d{alpha, beta}
        = (mu + sigma N / (2 sqrt(L))) dL/d{alpha, beta}. The IG transform
        is differentiated in closed form (`_ig_increment_grad`); a Gamma
        increment is gammaincinv(alpha T, u) / beta, so dL/dbeta = -L/beta,
        and its alpha derivative, which scipy does not provide, is a forward
        difference of the leg's contribution with step
        _GAMMA_ALPHA_REL_STEP * alpha.
        The increments come from the kept ones, so right after `evaluate`
        at the same point only that Gamma alpha probe transforms the draws
        again. Zero-length legs are never built: L = 0 there, and the
        slope's 1 / sqrt(L) would be infinite.
        """
        jac = np.zeros((8, weights.shape[0]))
        for idx, dur, state, (u, nu, zz, nrm), kept in self._rounds:
            prm = theta1 if state == 1 else theta2
            dl = self._increment(prm, dur, u, nu, zz, kept)
            root = np.sqrt(dl)
            if self.family is Family.GAMMA:
                alpha_h = prm.alpha * (1.0 + _GAMMA_ALPHA_REL_STEP)
                dl_h = self._increment(replace(prm, alpha=alpha_h), dur, u, nu, zz, kept)
                d_alpha = (prm.mu * (dl_h - dl) + prm.sigma * (np.sqrt(dl_h) - root) * nrm) / (
                    alpha_h - prm.alpha
                )
                d_beta = -(prm.mu * dl + 0.5 * prm.sigma * root * nrm) / prm.beta
            elif self.family is Family.INVERSE_GAUSSIAN:
                dl_alpha, dl_beta = _ig_increment_grad(prm.alpha, prm.beta, dur, nu, zz, dl)
                slope = prm.mu + 0.5 * prm.sigma * nrm / root
                d_alpha, d_beta = slope * dl_alpha, slope * dl_beta
            else:
                d_alpha = d_beta = np.zeros_like(dl)
            rows = slice(0, 4) if state == 1 else slice(4, 8)
            jac[rows] += np.stack([dl, root * nrm, d_alpha, d_beta]) @ np.take(weights, idx, axis=1).T
        return jac.T

    def _increment(self, prm: RegimeParams, dur, u, nu, zz, kept: OrderedDict) -> np.ndarray:
        beta_free = self.family is Family.GAMMA
        key = prm.alpha if beta_free else (prm.alpha, prm.beta)
        dl = kept.get(key)
        if dl is None:
            spec = SubordinatorSpec(self.family, prm.alpha, 1.0 if beta_free else prm.beta)
            dl = kept[key] = increment_from_draws(spec, dur, u, nu, zz)
            if len(kept) > _KEPT_INCREMENTS:
                kept.popitem(last=False)
        else:
            kept.move_to_end(key)
        return dl / prm.beta if beta_free else dl


def _ig_increment_grad(alpha: float, beta: float, dur, nu, zz, dl):
    """dL/dalpha and dL/dbeta of the Michael-Schucany-Haas IG increment L.

    With mean m = alpha T / beta and shape (alpha T)^2 the transform is
    L = m G(phi), phi = alpha beta T, where G is g or 1/g by the
    transform's selection z <= 1/(1 + g), g = 1 - 2y/(y + r), y = nu^2 and
    r = sqrt(4 phi y + y^2); g' = 4y^2 / (r (y + r)^2). As m phi =
    (alpha T)^2, dL/dalpha = (L + D)/alpha and dL/dbeta = (D - L)/beta with
    D = (alpha T)^2 G'(phi). With q = y + r, g = 4 phi y / q^2 and
    1 + g = 2r/q, so the selection is 2 r z <= q and D is
    (2 alpha T y / q)^2 / r on the g branch and -(q / (2 beta))^2 / r on
    the 1/g branch: no difference cancels.
    """
    y = nu * nu
    r = np.sqrt(y * ((4.0 * alpha * beta) * dur + y))
    q = y + r
    d = np.where(2.0 * r * zz <= q, ((2.0 * alpha) * dur * y / q) ** 2, -(q / (2.0 * beta)) ** 2) / r
    return (dl + d) / alpha, (d - dl) / beta
