"""Monte Carlo engine for regime-switching time-changed paths.

Regime switch times are inserted into the time grid exactly, so every
increment is drawn under a single regime: within a regime-j span of
length d the log price moves by mu_j * dL + sigma_j * sqrt(dL) * N(0,1)
with dL a subordinator increment over d. Gamma and IG increments compose
exactly under subdivision, so terminal draws carry no discretization
bias.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cos import ContractSpec, OptionKind
from .regime import (
    TRADING_DT,
    Family,
    RegimeParams,
    SwitchingModel,
    check_finite_intensities,
    simulate_regime_path,
)
from .subordinators import (
    SubordinatorSpec,
    _even_ranges,
    _run_ranges,
    _split_ranges,
    increment_from_draws,
    sample_increment,
    spec_for,
)

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


def simulate_path(
    model: SwitchingModel, horizon: float, dt: float, rng: np.random.Generator
) -> PricePath:
    """Simulate one path on the dt grid refined by the exact switch times."""
    n_steps = _steps(horizon, dt)
    rp = simulate_regime_path(model, horizon, rng)
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


def _steps(horizon: float, dt: float) -> int:
    """Steps of the dt grid on [0, horizon], the last one shorter when dt
    does not divide the horizon; needs 0 < dt <= horizon < inf."""
    if not 0 < dt <= horizon < math.inf:
        raise ValueError(f"need 0 < dt <= horizon < inf, got dt = {dt} and horizon = {horizon}")
    return int(math.ceil(horizon / dt - 1e-12))


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

    Marches the dt grid. Each step's first pass moves every path from the
    step start to its next switch or the step end; then only the paths
    that switched, as an index array, are advanced segment by segment, so
    each draw sees a single regime. Every pass draws regime 1's increments
    and normals, then regime 2's, then one exponential per switch. An
    infinite intensity raises ValueError before the first draw.
    """
    check_finite_intensities(model.lambda12, model.lambda21)
    n_steps = _steps(horizon, dt)
    params = model.regimes
    specs = (spec_for(params[0], model.family), spec_for(params[1], model.family))
    z = np.zeros(n_paths)
    state = np.ones(n_paths, dtype=np.int8)
    next_switch = _draw_sojourns(model.lambda12, n_paths, rng)
    t = 0.0
    for step in range(n_steps):
        t_end = min(horizon, (step + 1) * dt)
        rows, t_cur = None, t  # the first pass: every path, from the step start
        while True:
            ends = next_switch if rows is None else next_switch[rows]
            dur = np.minimum(ends, t_end)
            dur -= t_cur
            _advance(z, rows, dur, (state if rows is None else state[rows]) == 1, params, specs, rng)
            switching = np.flatnonzero(ends <= t_end)
            if not switching.size:
                break
            # a path moved to its switch, or stayed where dur <= 0
            t_cur = np.maximum(ends[switching], t_cur if rows is None else t_cur[switching])
            rows = switching if rows is None else rows[switching]
            state[rows] = 3 - state[rows]
            rates = np.where(state[rows] == 1, model.lambda12, model.lambda21)
            fresh = np.where(
                rates > 0, rng.exponential(1.0, rows.size) / np.maximum(rates, 1e-300), np.inf
            )
            next_switch[rows] += fresh
        t = t_end
    return z


def _advance(z, rows, dur, regime1, params, specs, rng) -> None:
    """Add mu*dL + sigma*sqrt(dL)*N (`_leg`) to the paths z[rows] (all
    paths for rows None) over their durations dur, regime 1's paths first;
    a path with dur <= 0 stays. Each regime's paths are taken by an index
    array, which gathers and scatters several times faster than a boolean
    mask with the regimes interleaved."""
    groups = (regime1, ~regime1)
    if not dur.min(initial=np.inf) > 0:
        moving = dur > 0
        groups = tuple(g & moving for g in groups)
    for prm, spec, grp in zip(params, specs, groups):
        sel = np.flatnonzero(grp)
        if sel.size:
            dl = sample_increment(spec, dur[sel], rng)
            z[sel if rows is None else rows[sel]] += _leg(prm, dl, rng.standard_normal(dl.size))


def _leg(prm: RegimeParams, dl: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """mu*dL + sigma*sqrt(dL)*N on clock increments dl and normals N, with
    the bits of that formula; dl is only read, never written."""
    out = np.sqrt(dl)
    out *= prm.sigma
    out *= normals
    out += prm.mu * dl
    return out


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
    seed: int | np.random.Generator | None = None,
) -> McResult:
    """Discounted mean payoff with a 95% confidence interval.

    seed is an int, a Generator or None, and the draws come from
    np.random.default_rng(seed), which returns a Generator unchanged: a
    caller pricing several contracts from one stream passes its Generator.
    The result holds price, std_error, ci95 and n_paths.

    The paths are cut into B = ceil(n_paths / 65,536) blocks of equal
    size: block k holds paths [n_paths*k // B, n_paths*(k+1) // B) and
    draws from the k-th stream spawned from that Generator, so the result
    depends only on the seed and n_paths, whatever the CPU count. At most
    65,536 paths, or a multiple of 65,536, is the layout of fixed
    65,536-path blocks that earlier versions used, with the same draws;
    other counts draw the same law from other draws. The blocks run
    concurrently on min(B, usable CPUs) threads, the calling thread among
    them, each writing its slice of one terminal array, so on two CPUs
    100k paths are two 50,000-path blocks, one per CPU. One call's working
    memory is that many blocks. One block runs on the calling thread alone.
    """
    if n_paths < 100:
        raise ValueError("n_paths must be >= 100")
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    streams = np.random.default_rng(seed).spawn(n_blocks)
    blocks = _even_ranges(n_paths, n_blocks)
    s_t = np.empty(n_paths)

    def run_blocks(first: int, stop: int) -> None:
        for k in range(first, stop):
            block = s_t[slice(*blocks[k])]
            block[:] = sample_terminal(model, contract.maturity, block.size, dt, streams[k])
            np.exp(block, out=block)

    _run_ranges(run_blocks, _split_ranges(n_blocks, 1))
    s_t *= model.s0
    payoff, _ = option_payoff(s_t, contract.strike, contract.kind)
    disc = math.exp(-model.r * contract.maturity)
    price = disc * float(payoff.mean())
    se = disc * float(payoff.std(ddof=1)) / math.sqrt(n_paths)
    return McResult(price, se, (price - Z95 * se, price + Z95 * se), n_paths)


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
    evaluation is bit-for-bit the one a fresh sampler gives. family may
    be given by its string value. An infinite intensity or horizon raises
    ValueError before the first draw.
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
        if not 0 < horizon < math.inf or n_paths < 1:
            raise ValueError("need a finite horizon > 0 and n_paths >= 1")
        check_finite_intensities(lambda12, lambda21)
        self.family = family = Family(family)
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
                dur = span[idx]
                draws = tuple(f(idx.size) for f in (rng.random, rng.standard_normal) * 2)  # u, nu, z, N
                self._rounds.append((idx, dur, state, draws, _kept_increments(family, dur, *draws[:3])))

    def evaluate(self, theta1: RegimeParams, theta2: RegimeParams) -> np.ndarray:
        z = np.zeros(self.n_paths)
        for idx, dur, state, (u, nu, zz, nrm), increment in self._rounds:
            prm = theta1 if state == 1 else theta2
            z[idx] += _leg(prm, self._increment(prm, increment), nrm)
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
        for idx, dur, state, (u, nu, zz, nrm), increment in self._rounds:
            prm = theta1 if state == 1 else theta2
            dl = self._increment(prm, increment)
            root = np.sqrt(dl)
            if self.family is Family.GAMMA:
                alpha_h = prm.alpha * (1.0 + _GAMMA_ALPHA_REL_STEP)
                dl_h = increment(alpha_h, 1.0) / prm.beta
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

    def _increment(self, prm: RegimeParams, increment) -> np.ndarray:
        if self.family is Family.GAMMA:
            return increment(prm.alpha, 1.0) / prm.beta
        return increment(prm.alpha, prm.beta)


def _kept_increments(family: Family, dur, u, nu, zz):
    """A leg's subordinator increment as a function of (alpha, beta), the
    last _KEPT_INCREMENTS of them kept (least recently used out). A kept
    array is read-only, so no caller can corrupt a later evaluation."""

    @functools.lru_cache(maxsize=_KEPT_INCREMENTS)
    def increment(alpha: float, beta: float) -> np.ndarray:
        dl = increment_from_draws(SubordinatorSpec(family, alpha, beta), dur, u, nu, zz)
        dl.flags.writeable = False
        return dl

    return increment


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
