"""Two-state continuous-time Markov chain and core model types.

The market alternates between a calm and a frenzied regime according to a
CTMC with generator Q = [[-l12, l12], [l21, -l21]], always starting in
regime 1. Each regime carries its own drift/diffusion/subordinator
parameters.
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
        check_market(self.lambda12, self.lambda21, self.s0)

    def intensity_leaving(self, state: int) -> float:
        return self.lambda12 if state == 1 else self.lambda21


def check_market(lambda12: float, lambda21: float, s0: float) -> None:
    """The market data a model and a calibration share: intensities >= 0
    and a spot s0 > 0; raises ValueError otherwise, NaN included."""
    if not (lambda12 >= 0 and lambda21 >= 0):
        raise ValueError("switching intensities must be >= 0")
    if not s0 > 0:
        raise ValueError(f"s0 must be > 0, got {s0}")


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


def simulate_regime_path(
    model: SwitchingModel, horizon: float, rng: np.random.Generator
) -> RegimePath:
    """Draw a regime trajectory by sampling exponential holding times.

    The holding time leaving regime j is Exponential with the rate
    intensity lambda_jk; a zero intensity means the chain never leaves.
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
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
