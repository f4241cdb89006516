"""Calibration of regime parameters to market option quotes.

Minimizes the root-mean-squared pricing error over a quote table by
bounded trust-region least squares on the vector of pricing errors.
Quotes that are out of the money per the paper's moneyness rule are priced
by Monte Carlo with common random numbers; all other rows go through the
cosine pricer. The routing is the paper's rule, not an accuracy limit:
on OTM calls at moneyness 1.1 to 1.3 the 512-term cosine price is within
1.5e-10 (IG) and 1.1e-5 (Gamma) of an 8192-term one. The
switching intensities are held fixed; both regimes' parameters are
fitted jointly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .cos import ContractSpec, CosConfig, OptionKind, price_table, price_table_jacobian
from .estimation import ParamBounds
from .mc import FrozenTerminalSampler, option_payoff
from .regime import Family, RegimeParams, SwitchingModel, check_market


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuoteRow:
    """One option quote; kind may be given by its string value."""

    maturity: float
    strike: float
    kind: OptionKind
    mid: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", OptionKind(self.kind))


def check_quote(row: QuoteRow) -> QuoteRow:
    """The rule of one quote, which `QuoteTable` and `data_io.load_quotes`
    apply alike: a finite maturity, strike and mid, maturity and strike
    > 0 and mid >= 0. Returns row; raises ValueError otherwise."""
    if not all(math.isfinite(v) for v in (row.maturity, row.strike, row.mid)):
        raise ValueError(f"non-finite maturity/strike/quote in {row}")
    if row.maturity <= 0 or row.strike <= 0:
        raise ValueError(f"nonpositive maturity/strike in {row}")
    if row.mid < 0:
        raise ValueError(f"negative quote in {row}")
    return row


@dataclass(frozen=True)
class QuoteTable:
    rows: tuple[QuoteRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("quote table must be nonempty")
        seen = set()
        for row in map(check_quote, self.rows):
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
    """Solver settings."""

    step_tolerance: float = 1e-10
    max_iters: int = 1000
    otm_call_moneyness: float = 1.05
    otm_put_moneyness: float = 0.95
    mc_paths: int = 20_000
    mc_seed: int = 0
    cos: CosConfig = field(default_factory=CosConfig)

    def __post_init__(self) -> None:
        if self.step_tolerance <= 0 or self.max_iters <= 0 or self.mc_paths <= 0:
            raise ValueError("tolerances, iteration and path counts must be positive")


@dataclass(frozen=True)
class CalibContext:
    """Fixed market data for the calibration: the intensities come from
    the historical segmentation, not from the quotes. family may be given
    by its string value."""

    family: Family
    lambda12: float
    lambda21: float
    s0: float
    r: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        check_market(self.lambda12, self.lambda21, self.s0, self.r)


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
    once per evaluation and serves every OTM row of its maturity. The
    Jacobian, which the solver asks for at the point it evaluated last,
    reuses what the residuals formed there: the cosine sweep of
    `price_table` and each Monte Carlo row's pathwise weight."""

    def __init__(self, quotes: QuoteTable, ctx: CalibContext, config: CalibConfig):
        self.ctx = ctx
        self.config = config
        self.cos_rows = [r for r in quotes if not is_otm(r, ctx.s0, config)]
        self.mc_rows = [r for r in quotes if is_otm(r, ctx.s0, config)]
        self.cos_contracts = [ContractSpec(r.strike, r.maturity, r.kind) for r in self.cos_rows]
        self.mids = np.array([r.mid for r in self.cos_rows + self.mc_rows])
        self.samplers: dict[float, FrozenTerminalSampler] = {}
        for i, t in enumerate(sorted({r.maturity for r in self.mc_rows})):
            self.samplers[t] = FrozenTerminalSampler(
                ctx.family, ctx.lambda12, ctx.lambda21, t, config.mc_paths, config.mc_seed + i
            )
        self._kept: tuple = (None, [], [])  # point, cosine sweep, Monte Carlo weights

    def _model(self, theta1: RegimeParams, theta2: RegimeParams) -> SwitchingModel:
        ctx = self.ctx
        return SwitchingModel((theta1, theta2), ctx.lambda12, ctx.lambda21, ctx.family, ctx.s0, ctx.r)

    def residuals(self, theta1: RegimeParams, theta2: RegimeParams) -> np.ndarray:
        """Model price minus mid, cosine rows then Monte Carlo rows, over
        sqrt(n): its Euclidean norm is the root-mean-squared error."""
        prices, sweep, weights = [], [], []
        if self.cos_rows:
            try:
                model = self._model(theta1, theta2)
                prices.extend(price_table(model, self.cos_contracts, self.config.cos, _sweep=sweep))
            except Exception as exc:
                raise CalibrationError(
                    f"cosine pricing failed on rows {self.cos_contracts}: {exc}"
                ) from exc
        terminal = {}  # S_T on the frozen paths of each OTM maturity
        for maturity, sampler in self.samplers.items():
            try:
                terminal[maturity] = self.ctx.s0 * np.exp(sampler.evaluate(theta1, theta2))
            except Exception as exc:
                raise CalibrationError(
                    f"Monte Carlo pricing failed at maturity T={maturity}: {exc}"
                ) from exc
        for row in self.mc_rows:
            payoff, weight = option_payoff(terminal[row.maturity], row.strike, row.kind)
            prices.append(math.exp(-self.ctx.r * row.maturity) * float(payoff.mean()))
            weights.append(weight)
        self._kept = ((theta1, theta2), sweep, weights)
        return (np.array(prices) - self.mids) / math.sqrt(self.mids.size)

    def jacobian(self, theta1: RegimeParams, theta2: RegimeParams) -> np.ndarray:
        """d residuals / d(theta1, theta2), shape (n, 8): the cosine rows
        from `price_table_jacobian`, the Monte Carlo rows pathwise, where a
        path adds disc times its payoff weight (`option_payoff`) times
        dZ_T/dtheta to the row's mean. Both reuse what `residuals` formed
        at the point, evaluating it first if it was not the last one."""
        if self._kept[0] != (theta1, theta2):
            self.residuals(theta1, theta2)
        _, sweep, weights = self._kept
        jac = np.empty((self.mids.size, 8))
        n_cos = len(self.cos_rows)
        if self.cos_rows:
            model = self._model(theta1, theta2)
            jac[:n_cos] = price_table_jacobian(model, self.cos_contracts, self.config.cos, _sweep=sweep)
        for maturity, sampler in self.samplers.items():
            rows = [i for i, row in enumerate(self.mc_rows) if row.maturity == maturity]
            stacked = np.stack([weights[i] for i in rows])
            stacked *= math.exp(-self.ctx.r * maturity) / stacked.shape[1]
            jac[n_cos + np.array(rows)] = sampler.weighted_gradient(theta1, theta2, stacked)
        return jac / math.sqrt(self.mids.size)

    def evaluate(self, theta1: RegimeParams, theta2: RegimeParams) -> float:
        return float(np.linalg.norm(self.residuals(theta1, theta2)))


def calib_objective(
    theta1: RegimeParams,
    theta2: RegimeParams,
    quotes: QuoteTable,
    ctx: CalibContext,
    config: CalibConfig = CalibConfig(),
) -> float:
    """Root-mean-squared error between model prices and quotes."""
    return _ObjectiveState(quotes, ctx, config).evaluate(theta1, theta2)


# least_squares status -> stop reason; -2 is the callback's stop at max_iters
_STOP_REASONS = {-2: "max iterations", 0: "max evaluations", 1: "zero gradient",
                 2: "objective tolerance", 3: "step tolerance", 4: "step tolerance"}


def calibrate(
    quotes: QuoteTable,
    ctx: CalibContext,
    init: tuple[RegimeParams, RegimeParams],
    bounds: ParamBounds = ParamBounds(),
    config: CalibConfig = CalibConfig(),
) -> CalibrationResult:
    """Trust-region least squares on both regimes' parameters.

    One scipy least_squares call (method 'trf', Branch, Coleman & Li 1999)
    on the residual vector inside the bounds box: exact Jacobians (closed-
    form cosine sensitivities with the truncation interval held fixed, and
    pathwise derivatives through the frozen Monte Carlo draws, whose Gamma
    alpha column alone is a forward difference with relative step 1e-6),
    coordinates scaled by their initial magnitudes, xtol = step_tolerance,
    and at most max_iters accepted iterations.
    objective_history holds the objective at the solver's start point and
    at each accepted iterate, so it decreases. The start point is init,
    except that 'trf' first moves a coordinate lying on a face of the
    bounds box inward by 1e-10 of max(1, |bound|); objective_history[0]
    then differs from the objective at init by about that much.
    """
    from scipy.optimize import least_squares

    state = _ObjectiveState(quotes, ctx, config)
    lower = np.concatenate([bounds.lower()] * 2)
    upper = np.concatenate([bounds.upper()] * 2)
    x0 = np.concatenate([init[0].as_array(), init[1].as_array()])
    outside = np.flatnonzero((x0 < lower) | (x0 > upper))
    if outside.size:
        k = outside[0]
        raise CalibrationError(
            f"initial regime {k // 4 + 1} {fields(RegimeParams)[k % 4].name} = {x0[k]} is outside "
            f"the bounds [{lower[k]}, {upper[k]}]"
        )

    def unpack(v: np.ndarray) -> tuple[RegimeParams, RegimeParams]:
        return RegimeParams.from_array(v[:4]), RegimeParams.from_array(v[4:])

    history: list[float] = []
    cost = math.inf  # the solver's cost, half the squared residual norm, at its last iterate

    def residuals(v: np.ndarray) -> np.ndarray:
        nonlocal cost
        res = state.residuals(*unpack(v))
        if not history:  # the solver's first evaluation is at the start point
            cost = 0.5 * np.dot(res, res)
            history.append(float(np.linalg.norm(res)))
        return res

    def on_iteration(intermediate_result) -> None:
        # also called after an iteration that rejected every trial step;
        # the solver accepts a step only if the cost falls
        nonlocal cost
        if intermediate_result.cost < cost:
            cost = intermediate_result.cost
            history.append(float(np.linalg.norm(intermediate_result.fun)))
            if len(history) > config.max_iters:
                raise StopIteration

    fit = least_squares(
        residuals, x0, jac=lambda v: state.jacobian(*unpack(v)), method="trf",
        bounds=(lower, upper), x_scale=np.maximum(np.abs(x0), 1e-2), xtol=config.step_tolerance,
        callback=on_iteration,
    )
    objective = float(np.linalg.norm(fit.fun))
    return CalibrationResult(
        unpack(fit.x), objective, len(history) - 1, _STOP_REASONS[fit.status], tuple(history)
    )
