"""Batch command line: pricing, simulation, CF dumps, estimation, calibration."""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from .calibration import CalibConfig, CalibrationError, calibrate
from .charfn import CharFn, switching_cf
from .cos import ContractSpec, CosConfig, OptionKind, PricingError, bs_closed_form, price_table
from .data_io import (
    DataError,
    load_grid,
    load_init,
    load_market,
    load_model,
    load_prices,
    load_quotes,
    load_windows,
    regime_to_dict,
    write_csv,
    write_json,
)
from .estimation import (
    AbsThreshold,
    EstimationError,
    holding_rates,
    mde_fit,
    mle_fit,
    mom_fit,
    segment_regimes,
    split_by_regime,
)
from .mc import price_european_mc, simulate_path
from .regime import TRADING_DT, Family, RegimeParams, SwitchingModel

# rows of the Black-Scholes reduction check: (maturity, strike, r, sigma)
BS_CHECK_ROWS = ((1.0, 1.0, 0.04, 0.5), (3.0, 1.0, 0.1, 1.0), (2.0, 30.0, 0.5, 0.001))
BS_CHECK_S0 = 20.0
MC_PATHS = 100_000  # Monte Carlo paths of `price --method mc` and `bs-check`
# start point of `calibrate` without --init
CALIBRATION_START = (RegimeParams(0.0, 0.3, 1.0, 1.0),) * 2


def cmd_price(args) -> int:
    model = load_model(args.model)
    contracts = load_grid(args.grid)
    if args.method == "cos":
        prices = price_table(model, contracts, CosConfig(n_terms=args.n_terms))
        header = ["maturity", "strike", "kind", "price", "method"]
        rows = [[c.maturity, c.strike, c.kind.value, p, "cos"] for c, p in zip(contracts, prices.tolist())]
    else:
        rng = np.random.default_rng(args.seed)
        header = ["maturity", "strike", "kind", "price", "method", "std_error", "ci_lo", "ci_hi", "n_paths"]
        rows = []
        for c in contracts:
            res = price_european_mc(model, c, args.paths, dt=args.dt, seed=rng)
            rows.append(
                [c.maturity, c.strike, c.kind.value, res.price, "mc", res.std_error, *res.ci95, res.n_paths]
            )
    write_csv(args.out, header, rows)
    print(f"wrote {len(contracts)} prices to {args.out}")
    return 0


# grid points per block of `cmd_simulate`'s rows: Python lists of 2^16
# points take about 5 MB, where whole-path lists grow with the horizon
SIMULATE_BLOCK_ROWS = 1 << 16


def cmd_simulate(args) -> int:
    """Simulate one path and write it, turning SIMULATE_BLOCK_ROWS grid
    points at a time into Python rows as the writer asks for them; the
    path is complete before the file is opened."""
    model = load_model(args.model)
    rng = np.random.default_rng(args.seed)
    path = simulate_path(model, args.horizon, args.dt, rng)
    columns = (path.times, path.log_prices, path.regimes)
    rows = itertools.chain.from_iterable(
        zip(*(col[lo : lo + SIMULATE_BLOCK_ROWS].tolist() for col in columns))
        for lo in range(0, len(path.times), SIMULATE_BLOCK_ROWS)
    )
    write_csv(args.out, ["time", "log_price", "regime"], rows)
    print(f"wrote {len(path.times)} grid points to {args.out}")
    return 0


def cmd_plot_cf(args) -> int:
    model = load_model(args.model)
    cf = CharFn(model, args.t)
    u = np.linspace(args.umin, args.umax, args.n)
    phi = switching_cf(cf, u)
    write_csv(args.out, ["u", "re", "im"], zip(u.tolist(), phi.real.tolist(), phi.imag.tolist()))
    print(f"wrote characteristic function on [{args.umin}, {args.umax}] to {args.out}")
    return 0


def _parse_rule(text: str):
    kind, _, value = text.partition(":")
    if kind == "threshold":
        try:
            return AbsThreshold(float(value))
        except ValueError as exc:
            raise DataError(f"regime rule '{text}': {exc}") from exc
    if kind == "windows":
        return load_windows(value)
    raise DataError(f"unknown regime rule '{text}' (use threshold:<c> or windows:<file>)")


def cmd_estimate(args) -> int:
    series = load_prices(args.prices)
    rule = _parse_rule(args.regime_rule)
    labels = segment_regimes(series, rule)
    rates = holding_rates(labels, series.dt)
    family = Family(args.family)
    per_regime = split_by_regime(series, labels)

    fitted = {}
    for j in (1, 2):
        z = per_regime[j].log_returns
        start = mom_fit(z, family, dt=series.dt)
        if args.method == "mom":
            fit = start
        elif args.method == "mde":
            fit = mde_fit(z, family, init=start.params, dt=series.dt)
        else:
            fit = mle_fit(z, family, init=start.params, seed=args.seed, dt=series.dt)
        fitted[j] = fit

    doc = {
        "family": family.value,
        "method": args.method,
        "regimes": [{**regime_to_dict(fitted[j].params), "objective": fitted[j].objective} for j in (1, 2)],
        "sojourn_years": {"regime1": rates.sojourn1_years, "regime2": rates.sojourn2_years},
        "intensities": {"lambda12": rates.lambda12, "lambda21": rates.lambda21},
        "n_returns": {"regime1": int((labels == 1).sum()), "regime2": int((labels == 2).sum())},
        "n_clipped_prices": series.n_clipped,
    }
    write_json(args.out, doc)
    print(f"estimated {args.method}/{family.value} parameters -> {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    quotes = load_quotes(args.quotes)
    ctx = load_market(args.market, args.family)
    init = load_init(args.init) if args.init else CALIBRATION_START
    config = CalibConfig(max_iters=args.max_iters, mc_paths=args.mc_paths, mc_seed=args.seed)
    result = calibrate(quotes, ctx, init, config=config)
    doc = {
        "family": ctx.family.value,
        "regimes": [regime_to_dict(p) for p in result.params],
        "lambda12": ctx.lambda12,
        "lambda21": ctx.lambda21,
        "objective_rmse": result.objective,
        "iterations": result.n_iters,
        "stop_reason": result.stop_reason,
    }
    write_json(args.out, doc)
    print(
        f"calibrated {len(quotes)} quotes: rmse={result.objective:.6g} "
        f"after {result.n_iters} iterations ({result.stop_reason}) -> {args.out}"
    )
    return 0


def _bs_reduced_model(r: float, sigma: float) -> SwitchingModel:
    prm = RegimeParams(mu=r - 0.5 * sigma**2, sigma=sigma, alpha=1.0, beta=1.0)
    return SwitchingModel((prm, prm), 1.0, 1.0, Family.IDENTITY, BS_CHECK_S0, r)


def cmd_bs_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    print(f"{'(T,K,r,sigma)':>22} | {'COS':>10} | {'BS':>10} | {'MC':>10} | 95% CI")
    for maturity, strike, r, sigma in BS_CHECK_ROWS:
        model = _bs_reduced_model(r, sigma)
        contract = ContractSpec(strike, maturity, OptionKind.CALL)
        cos_price = price_table(model, [contract])[0]
        bs_price = bs_closed_form(BS_CHECK_S0, strike, r, sigma, maturity, OptionKind.CALL)
        res = price_european_mc(model, contract, args.paths, seed=rng)
        print(
            f"({maturity:g},{strike:g},{r:g},{sigma:g})".rjust(22)
            + f" | {cos_price:10.4f} | {bs_price:10.4f} | {res.price:10.4f}"
            + f" | [{res.ci95[0]:.4f}, {res.ci95[1]:.4f}]"
        )
    return 0


def cmd_payoff_surface(args) -> int:
    model = load_model(args.model)
    maturities = np.linspace(args.tmin, args.tmax, args.nt)
    strikes = np.linspace(args.kmin, args.kmax, args.nk)
    kind = OptionKind(args.kind)
    contracts = [ContractSpec(float(k), float(t), kind) for t in maturities for k in strikes]
    prices = price_table(model, contracts, CosConfig(n_terms=args.n_terms))
    rows = [[c.maturity, c.strike, p] for c, p in zip(contracts, prices.tolist())]
    write_csv(args.out, ["maturity", "strike", "price"], rows)
    print(f"wrote {len(contracts)} surface points to {args.out}")
    return 0


# the options that several subcommands take, each declared once, so a
# shared option means the same in every subcommand that takes it
SHARED_OPTIONS = {
    "--model": dict(required=True),
    "--out": dict(required=True),
    "--seed": dict(type=int, default=0),
    "--dt": dict(type=float, default=TRADING_DT),
    "--paths": dict(type=int, default=MC_PATHS),
    "--n-terms": dict(type=int, default=CosConfig.n_terms),
    "--family": dict(choices=["gamma", "ig"], default="gamma"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchlevy",
        description="Regime-switching time-changed Levy pricing and estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *shared):
        """A subcommand that runs func, with the shared options named."""
        p = sub.add_parser(name, help=summary)
        for flag in shared:
            p.add_argument(flag, **SHARED_OPTIONS[flag])
        p.set_defaults(func=func)
        return p

    p = command("price", cmd_price, "price a contract grid from a model file",
                "--model", "--out", "--n-terms", "--paths", "--dt", "--seed")
    p.add_argument("--grid", required=True, help="CSV with maturity,strike,kind")
    p.add_argument("--method", choices=["cos", "mc"], default="cos")

    p = command("simulate", cmd_simulate, "emit one simulated path as CSV", "--model", "--out", "--dt", "--seed")
    p.add_argument("--horizon", type=float, default=1.0)

    p = command("plot-cf", cmd_plot_cf, "emit Re/Im of the characteristic function", "--model", "--out")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--umin", type=float, default=-20.0)
    p.add_argument("--umax", type=float, default=20.0)
    p.add_argument("--n", type=int, default=401)

    p = command("estimate", cmd_estimate, "fit per-regime parameters from a price CSV",
                "--out", "--family", "--seed")
    p.add_argument("--prices", required=True)
    p.add_argument("--method", choices=["mom", "mde", "mle"], default="mom")
    p.add_argument("--regime-rule", default="threshold:3.0",
                   help="threshold:<c> or windows:<json file>")

    p = command("calibrate", cmd_calibrate, "fit parameters to option quotes", "--out", "--family", "--seed")
    p.add_argument("--quotes", required=True)
    p.add_argument("--market", required=True, help="JSON with s0, r, lambda12, lambda21")
    p.add_argument("--init", help="JSON with a 'regimes' list of parameter blocks")
    p.add_argument("--max-iters", type=int, default=CalibConfig.max_iters)
    p.add_argument("--mc-paths", type=int, default=CalibConfig.mc_paths)

    command("bs-check", cmd_bs_check, "Black-Scholes reduction table (COS vs BS vs MC)", "--seed", "--paths")

    p = command("payoff-surface", cmd_payoff_surface, "price a (T, K) grid for surface plots",
                "--model", "--out", "--n-terms")
    p.add_argument("--tmin", type=float, default=0.25)
    p.add_argument("--tmax", type=float, default=2.0)
    p.add_argument("--nt", type=int, default=8)
    p.add_argument("--kmin", type=float, required=True)
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--nk", type=int, default=15)
    p.add_argument("--kind", choices=["call", "put"], default="call")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, EstimationError, CalibrationError, PricingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
