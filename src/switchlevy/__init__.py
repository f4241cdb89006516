"""Regime-switching time-changed Levy pricing for energy options.

The functions that run a solver import scipy.optimize when they are called,
so importing the package and pricing with set drifts do not load it, and no
module imports scipy.stats: each would add 17-23 MB and 0.2-0.6 s to every
run. Pricing, COS or Monte Carlo, loads no scipy.linalg either: the COS
cumulants are closed forms in the regime occupation time
(tests/test_footprint.py).
"""

from .calibration import (
    CalibConfig,
    CalibContext,
    CalibrationError,
    CalibrationResult,
    QuoteRow,
    QuoteTable,
    calib_objective,
    calibrate,
)
from .charfn import (
    CharFn,
    esscher_tilt,
    matrix_exp,
    phi_matrix,
    regime_char_exponent,
    risk_neutral_drift,
    switching_cf,
)
from .cos import (
    ContractSpec,
    CosConfig,
    OptionKind,
    PricingError,
    bs_closed_form,
    price_contract,
    price_table,
    put_coefficients,
    truncation_interval,
)
from .estimation import (
    AbsThreshold,
    DateWindows,
    EstimationError,
    FitResult,
    HoldingRates,
    ParamBounds,
    ReturnSeries,
    descriptive_stats,
    empirical_cf,
    fit_moments,
    holding_rates,
    kde,
    mde_fit,
    mle_fit,
    mom_fit,
    segment_regimes,
    simulated_loglik,
    split_by_regime,
    theoretical_moments,
)
from .mc import (
    FrozenTerminalSampler,
    McResult,
    PricePath,
    price_european_mc,
    sample_terminal,
    simulate_path,
)
from .regime import (
    DAYS_PER_YEAR,
    TRADING_DT,
    Family,
    RegimeParams,
    RegimePath,
    SwitchingModel,
    generator_matrix,
    intensity_to_mean_sojourn,
    mean_sojourn_to_intensity,
    occupation_cumulants,
    occupation_fraction,
    simulate_regime_path,
)
from .subordinators import (
    BranchCutError,
    SubordinatorSpec,
    laplace_exponent,
    sample_increment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
