"""Calibration of regime parameters to market option quotes.

Minimizes the root-mean-squared pricing error over a quote table by
projected gradient descent with numerical gradients. Quotes that are out
of the money per the moneyness rule are priced by Monte Carlo with
common random numbers (the cosine expansion loses accuracy there); all
other rows go through the cosine pricer. The switching intensities are
held fixed; both regimes' parameters are fitted jointly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cos import ContractSpec, CosConfig, OptionKind, price_table
from .estimation import ParamBounds
from .mc import FrozenTerminalSampler
from .regime import Family, RegimeParams, SwitchingModel


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuoteRow:
    maturity: float
    strike: float
    kind: OptionKind
    mid: float


@dataclass(frozen=True)
class QuoteTable:
    rows: tuple[QuoteRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("quote table must be nonempty")
        seen = set()
        for row in self.rows:
            if row.maturity <= 0 or row.strike <= 0:
                raise ValueError(f"nonpositive maturity/strike in {row}")
            if row.mid < 0:
                raise ValueError(f"negative quote in {row}")
            key = (row.maturity, row.strike, row.kind)
            if key in seen:
                raise ValueError(f"duplicate quote for {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@dataclass(frozen=True)
class CalibConfig:
    step_tolerance: float = 1e-10
    max_iters: int = 1000
    otm_call_moneyness: float = 1.05
    otm_put_moneyness: float = 0.95
    mc_paths: int = 20_000
    mc_seed: int = 0
    fd_rel_step: float = 1e-6
    cos: CosConfig = field(default_factory=CosConfig)

    def __post_init__(self) -> None:
        if self.step_tolerance <= 0 or self.max_iters <= 0 or self.mc_paths <= 0:
            raise ValueError("tolerances, iteration and path counts must be positive")


@dataclass(frozen=True)
class CalibContext:
    """Fixed market data for the calibration: the intensities come from
    the historical segmentation, not from the quotes."""

    family: Family
    lambda12: float
    lambda21: float
    s0: float
    r: float


@dataclass(frozen=True)
class CalibrationResult:
    params: tuple[RegimeParams, RegimeParams]
    objective: float
    n_iters: int
    stop_reason: str
    objective_history: tuple[float, ...]


def is_otm(row: QuoteRow, s0: float, config: CalibConfig) -> bool:
    m = row.strike / s0
    if row.kind is OptionKind.CALL:
        return m > config.otm_call_moneyness
    return m < config.otm_put_moneyness


class _ObjectiveState:
    """Caches the frozen MC samplers (one per OTM maturity) so the same
    random numbers drive every objective evaluation; each sampler runs
    once per evaluation and serves every OTM row of its maturity."""

    def __init__(self, quotes: QuoteTable, ctx: CalibContext, config: CalibConfig):
        self.ctx = ctx
        self.config = config
        self.cos_rows = [r for r in quotes if not is_otm(r, ctx.s0, config)]
        self.mc_rows = [r for r in quotes if is_otm(r, ctx.s0, config)]
        self.samplers: dict[float, FrozenTerminalSampler] = {}
        for i, t in enumerate(sorted({r.maturity for r in self.mc_rows})):
            self.samplers[t] = FrozenTerminalSampler(
                ctx.family, ctx.lambda12, ctx.lambda21, t, config.mc_paths, config.mc_seed + i
            )

    def evaluate(self, theta1: RegimeParams, theta2: RegimeParams) -> float:
        ctx = self.ctx
        model = SwitchingModel((theta1, theta2), ctx.lambda12, ctx.lambda21, ctx.family, ctx.s0, ctx.r)
        sq_err = 0.0
        if self.cos_rows:
            contracts = [ContractSpec(r.strike, r.maturity, r.kind) for r in self.cos_rows]
            try:
                prices = price_table(model, contracts, self.config.cos)
            except Exception as exc:
                raise CalibrationError(f"cosine pricing failed on rows {contracts}: {exc}") from exc
            sq_err += float(np.sum((prices - np.array([r.mid for r in self.cos_rows])) ** 2))
        terminal: dict[float, np.ndarray] = {}
        for maturity, sampler in self.samplers.items():
            try:
                terminal[maturity] = ctx.s0 * np.exp(sampler.evaluate(theta1, theta2))
            except Exception as exc:
                raise CalibrationError(
                    f"Monte Carlo pricing failed at maturity T={maturity}: {exc}"
                ) from exc
        for row in self.mc_rows:
            s_t = terminal[row.maturity]
            if row.kind is OptionKind.CALL:
                payoff = np.maximum(s_t - row.strike, 0.0)
            else:
                payoff = np.maximum(row.strike - s_t, 0.0)
            price = math.exp(-ctx.r * row.maturity) * float(payoff.mean())
            sq_err += (price - row.mid) ** 2
        return math.sqrt(sq_err / (len(self.cos_rows) + len(self.mc_rows)))


def calib_objective(
    theta1: RegimeParams,
    theta2: RegimeParams,
    quotes: QuoteTable,
    ctx: CalibContext,
    config: CalibConfig = CalibConfig(),
) -> float:
    """Root-mean-squared error between model prices and quotes."""
    return _ObjectiveState(quotes, ctx, config).evaluate(theta1, theta2)


def calibrate(
    quotes: QuoteTable,
    ctx: CalibContext,
    init: tuple[RegimeParams, RegimeParams],
    bounds: ParamBounds = ParamBounds(),
    config: CalibConfig = CalibConfig(),
) -> CalibrationResult:
    """Projected gradient descent on both regimes' parameters.

    Forward-difference gradients (relative step config.fd_rel_step),
    backtracking line search, stop on step norm below step_tolerance or
    on max_iters. Coordinates are preconditioned by their initial
    magnitudes so the descent is not dominated by scale differences.
    """
    state = _ObjectiveState(quotes, ctx, config)
    lower = np.concatenate([bounds.lower()] * 2)
    upper = np.concatenate([bounds.upper()] * 2)
    x = np.concatenate([init[0].as_array(), init[1].as_array()])
    if np.any(x < lower) or np.any(x > upper):
        raise CalibrationError("initial parameters are outside the bounds")
    scale = np.maximum(np.abs(x), 1e-2)

    def unpack(v: np.ndarray) -> tuple[RegimeParams, RegimeParams]:
        return RegimeParams.from_array(v[:4]), RegimeParams.from_array(v[4:])

    def f(v: np.ndarray) -> float:
        return state.evaluate(*unpack(v))

    fx = f(x)
    history = [fx]
    stop_reason = "max iterations"
    step0 = 1.0
    it = 0
    for it in range(1, config.max_iters + 1):
        # forward differences, flipped where the step would leave the box
        grad = np.zeros_like(x)
        for i in range(x.size):
            h = config.fd_rel_step * max(abs(x[i]), scale[i])
            xp = x.copy()
            if x[i] + h <= upper[i]:
                xp[i] = x[i] + h
                grad[i] = (f(xp) - fx) / h
            else:
                xp[i] = x[i] - h
                grad[i] = (fx - f(xp)) / h
        direction = grad * scale**2  # preconditioned steepest descent
        if not np.any(direction):
            stop_reason = "zero gradient"
            break

        t = step0
        accepted = False
        for _ in range(40):
            x_new = np.clip(x - t * direction, lower, upper)
            move = x - x_new
            if not np.any(move):
                t *= 0.5
                continue
            f_new = f(x_new)
            if f_new <= fx - 1e-4 * float(grad @ move):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            stop_reason = "line search failed (stationary point)"
            break
        step_norm = float(np.linalg.norm(x_new - x))
        x, fx = x_new, f_new
        history.append(fx)
        step0 = min(t * 2.0, 1e6)
        if step_norm < config.step_tolerance:
            stop_reason = "step tolerance"
            break

    return CalibrationResult(unpack(x), fx, it, stop_reason, tuple(history))
