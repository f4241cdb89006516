"""Two-state continuous-time Markov chain and core model types.

The market alternates between a calm and a frenzied regime according to a
CTMC with generator Q = [[-l12, l12], [l21, -l21]], always starting in
regime 1. Each regime carries its own drift/diffusion/subordinator
parameters.

The time tau the chain spends in regime 1 over [0, t] has the moment
generating function E[e^{s tau}] = e_1^T exp(t (Q + s diag(1, 0))) [1, 1]^T
(Pedler 1971), the 2x2 row sum that `charfn.switching_cf` takes in closed
form; `occupation_cumulants` expands it to give tau's first four cumulants,
from which `cos.log_return_cumulants` composes the log return's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

DAYS_PER_YEAR = 250
TRADING_DT = 1.0 / DAYS_PER_YEAR


class Family(str, Enum):
    """Subordinator family of the random clock L_t."""

    GAMMA = "gamma"
    INVERSE_GAUSSIAN = "ig"
    IDENTITY = "identity"  # L_t = t: reduces to Black-Scholes dynamics


@dataclass(frozen=True)
class RegimeParams:
    """Per-regime parameter vector (mu, sigma, alpha, beta).

    mu is the drift per unit of subordinated time, sigma the diffusion
    coefficient, and (alpha, beta) the shape/rate of the subordinator.
    Every entry must be finite, and sigma, alpha and beta > 0.
    """

    mu: float
    sigma: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.mu, self.sigma, self.alpha, self.beta)):
            raise ValueError(f"parameters must be finite, got {self}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    def as_array(self) -> NDArray[np.float64]:
        return np.array([self.mu, self.sigma, self.alpha, self.beta])

    @staticmethod
    def from_array(x) -> "RegimeParams":
        return RegimeParams(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


@dataclass(frozen=True)
class SwitchingModel:
    """Two-regime switching time-changed model plus market data.

    lambda12/lambda21 are switching intensities per year (rate of leaving
    regime 1 resp. 2); the mean sojourn in regime 1 is 1/lambda12 years.
    A zero intensity makes the regime absorbing. The chain starts in
    regime 1 with probability one. family may be given by its string
    value ("gamma", "ig", "identity"); anything else raises ValueError.
    """

    regimes: tuple[RegimeParams, RegimeParams]
    lambda12: float
    lambda21: float
    family: Family
    s0: float
    r: float

    def __post_init__(self) -> None:
        if len(self.regimes) != 2:
            raise ValueError("exactly two regimes required")
        object.__setattr__(self, "family", Family(self.family))
        check_market(self.lambda12, self.lambda21, self.s0, self.r)

    def intensity_leaving(self, state: int) -> float:
        return self.lambda12 if state == 1 else self.lambda21


def check_market(lambda12: float, lambda21: float, s0: float, r: float) -> None:
    """The market data a model and a calibration share: intensities >= 0
    (an infinite one passes; the samplers refuse it), a finite spot s0 > 0
    and a finite rate r; raises ValueError otherwise, NaN included."""
    if not (lambda12 >= 0 and lambda21 >= 0):
        raise ValueError("switching intensities must be >= 0")
    if not 0 < s0 < math.inf:
        raise ValueError(f"s0 must be > 0 and finite, got {s0}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")


def check_finite_intensities(lambda12: float, lambda21: float) -> None:
    """The rule of every sampler of the regime chain: an infinite intensity
    gives sojourns of length 0, so a path would switch without end. COS
    refuses such a model too (non-finite cumulants)."""
    if not (math.isfinite(lambda12) and math.isfinite(lambda21)):
        raise ValueError(f"sampling needs finite switching intensities, got {lambda12} and {lambda21}")


def mean_sojourn_to_intensity(mean_sojourn_years: float) -> float:
    """Convert a mean holding time (years) to a switching intensity."""
    if mean_sojourn_years <= 0:
        raise ValueError("mean sojourn must be > 0")
    return 1.0 / mean_sojourn_years


def intensity_to_mean_sojourn(intensity: float) -> float:
    """Convert a switching intensity to the mean holding time (years)."""
    if intensity <= 0:
        return math.inf
    return 1.0 / intensity


@dataclass(frozen=True)
class RegimePath:
    """Realized regime trajectory on [0, horizon].

    states[k] is active on [switch_times[k-1], switch_times[k]) with
    switch_times[-1] capped by the horizon; states alternate and start
    at 1.
    """

    switch_times: NDArray[np.float64]
    states: NDArray[np.int64]

    def __post_init__(self) -> None:
        t = np.asarray(self.switch_times, dtype=float)
        s = np.asarray(self.states, dtype=np.int64)
        if len(s) != len(t) + 1:
            raise ValueError("states must have one more entry than switch_times")
        if s[0] != 1:
            raise ValueError("path must start in regime 1")
        if np.any((s != 1) & (s != 2)):
            raise ValueError("states must be in {1, 2}")
        if np.any(s[1:] == s[:-1]):
            raise ValueError("states must alternate")
        if len(t) > 0 and (np.any(np.diff(t) <= 0) or t[0] <= 0):
            raise ValueError("switch times must be strictly increasing and > 0")


def generator_matrix(model: SwitchingModel) -> NDArray[np.float64]:
    """Infinitesimal generator Q of the regime chain; rows sum to zero."""
    l12, l21 = model.lambda12, model.lambda21
    return np.array([[-l12, l12], [l21, -l21]])


# sqrt(delta) below which `_scaled_sinhc_derivatives` sums power series
_SERIES_ROOT = 8.0


def _scaled_sinhc_derivatives(y: float) -> tuple[list[float], float]:
    """e^{-y} S^(k)(y^2) for k = 0..4, with S(delta) = sinh(sqrt delta) /
    sqrt(delta) differentiated in delta, and e^{-y} cosh y; y >= 0.

    S^(k)(delta) = i_k(y) / (2y)^k at y = sqrt(delta), with i_k the modified
    spherical Bessel functions. For y >= _SERIES_ROOT these are taken in
    closed form in w = 1/y, whose sinh and cosh terms cancel by at most a
    factor of about 6 there. Below it S^(4) and S^(5) are summed as their
    positive series sum_j (j+k)! delta^j / (j! (2j+2k+1)!), and the lower
    derivatives follow from 4 delta S^(k+2) + (4k+6) S^(k+1) = S^(k) (S
    solves 4 delta S'' + 6 S' = S), a recurrence of positive terms.
    """
    q = math.exp(-2.0 * y)
    cosh = 0.5 * (1.0 + q)
    if y >= _SERIES_ROOT:
        sinh, w = 0.5 * (1.0 - q), 1.0 / y
        w2 = w * w
        return [
            sinh * w,
            (cosh - sinh * w) * w2 / 2.0,
            ((1.0 + 3.0 * w2) * sinh - 3.0 * w * cosh) * w2 * w / 4.0,
            ((1.0 + 15.0 * w2) * cosh - (6.0 + 15.0 * w2) * w * sinh) * w2 * w2 / 8.0,
            ((1.0 + 45.0 * w2 + 105.0 * w2 * w2) * sinh - (10.0 + 105.0 * w2) * w * cosh) * w2 * w2 * w / 16.0,
        ], cosh
    delta = y * y
    ders = [0.0] * 4
    for k in (4, 5):
        term = math.factorial(k) / math.factorial(2 * k + 1)
        total, j = term, 0
        while term > 1e-17 * total:
            term *= delta / (2.0 * (j + 1) * (2 * j + 2 * k + 3))
            total += term
            j += 1
        ders.append(total)
    for k in (3, 2, 1, 0):
        ders[k] = 4.0 * delta * ders[k + 2] + (4 * k + 6) * ders[k + 1]
    scale = math.exp(-y)
    return [scale * d for d in ders[:5]], cosh


def occupation_cumulants(lambda12: float, lambda21: float, t: float) -> tuple[float, float, float, float]:
    """First four cumulants (zeta_1..zeta_4) of the time tau that the chain,
    started in regime 1, spends in regime 1 over [0, t].

    With x = t s, R = t (l12 + l21) and H = t (l21 - l12), the 2x2 row sum
    gives E[e^{s tau}] = e^{x/2} g(x) with
        g(x) = e^{-R/2} [C(delta) + S(delta) (x + R)/2],
        delta = (x^2 + 2 H x + R^2) / 4,
    C = cosh(sqrt delta) and S = sinh(sqrt delta) / sqrt(delta). Since
    C' = S/2, the Taylor coefficients of g at x = 0 follow from S's first
    four delta-derivatives at R^2/4 (`_scaled_sinhc_derivatives`, scaled by
    e^{-R/2} so that nothing overflows), and log g's coefficients l_n give
    zeta_n = n! t^n l_n, plus t/2 for the mean. A non-finite intensity
    gives NaNs, and l12 = 0 gives tau = t exactly.
    """
    if not (math.isfinite(lambda12) and math.isfinite(lambda21)):
        return (math.nan,) * 4
    if lambda12 == 0.0:
        return float(t), 0.0, 0.0, 0.0
    y = 0.5 * t * (lambda12 + lambda21)  # R/2
    h = 0.5 * t * (lambda21 - lambda12)  # H/2: delta = y^2 + h x + x^2/4
    s, cosh = _scaled_sinhc_derivatives(y)
    hh = h * h

    def taylor(d0, d1, d2, d3, d4):
        """Coefficients of x^0..x^4 in sum_k d_k eps^k / k!, eps = h x + x^2/4."""
        return (
            d0,
            d1 * h,
            d1 / 4.0 + d2 * hh / 2.0,
            d2 * h / 4.0 + d3 * hh * h / 6.0,
            d2 / 32.0 + d3 * hh / 8.0 + d4 * hh * hh / 24.0,
        )

    sinhc = taylor(*s)  # e^{-y} S(delta(x))
    cosh_rise = taylor(0.0, *s[:4])  # 2 e^{-y} (C(delta(x)) - cosh y), as C' = S/2
    g0 = cosh + y * sinhc[0]  # 1 up to rounding
    a1, a2, a3, a4 = ((cosh_rise[n] / 2.0 + y * sinhc[n] + sinhc[n - 1] / 2.0) / g0 for n in (1, 2, 3, 4))
    a11 = a1 * a1  # products, not powers: a float ** raises OverflowError where * gives inf
    l2 = a2 - a11 / 2.0
    l3 = a3 - a1 * a2 + a11 * a1 / 3.0
    l4 = a4 - a1 * a3 - a2 * a2 / 2.0 + a11 * a2 - a11 * a11 / 4.0
    tt = t * t
    return t * (a1 + 0.5), 2.0 * tt * l2, 6.0 * tt * t * l3, 24.0 * tt * tt * l4


def simulate_regime_path(
    model: SwitchingModel, horizon: float, rng: np.random.Generator
) -> RegimePath:
    """Draw a regime trajectory by sampling exponential holding times.

    The holding time leaving regime j is Exponential with the rate
    intensity lambda_jk; a zero intensity means the chain never leaves.
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    check_finite_intensities(model.lambda12, model.lambda21)
    times: list[float] = []
    states = [1]
    t = 0.0
    state = 1
    while True:
        rate = model.intensity_leaving(state)
        if rate == 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        times.append(t)
        state = 2 if state == 1 else 1
        states.append(state)
    return RegimePath(np.array(times), np.array(states, dtype=np.int64))


def occupation_fraction(path: RegimePath, horizon: float) -> float:
    """Fraction of [0, horizon] spent in regime 1."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    bounds = np.concatenate(([0.0], path.switch_times, [horizon]))
    durations = np.diff(bounds)
    in_one = path.states == 1
    return float(durations[in_one].sum() / horizon)
