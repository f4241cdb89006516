"""Batch command line: pricing, simulation, CF dumps, estimation, calibration."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .calibration import CalibConfig, CalibContext, CalibrationError, calibrate
from .charfn import CharFn, switching_cf
from .cos import ContractSpec, CosConfig, OptionKind, PricingError, bs_closed_form, price_table
from .data_io import (
    DataError,
    load_grid,
    load_model,
    load_prices,
    load_quotes,
    load_windows,
    regime_to_dict,
    regimes_from_dict,
)
from .estimation import (
    AbsThreshold,
    EstimationError,
    ParamBounds,
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


def cmd_price(args) -> int:
    model = load_model(args.model)
    contracts = load_grid(args.grid)
    # every price is computed before --out is opened, so a failure leaves no file
    if args.method == "cos":
        prices = price_table(model, contracts, CosConfig(n_terms=args.n_terms))
        header = ["maturity", "strike", "kind", "price", "method"]
        rows = [
            [c.maturity, c.strike, c.kind.value, repr(float(p)), "cos"] for c, p in zip(contracts, prices)
        ]
    else:
        rng = np.random.default_rng(args.seed)
        header = ["maturity", "strike", "kind", "price", "method", "std_error", "ci_lo", "ci_hi", "n_paths"]
        rows = []
        for c in contracts:
            res = price_european_mc(model, c, args.paths, dt=args.dt, rng=rng, seed=args.seed)
            rows.append(
                [c.maturity, c.strike, c.kind.value, repr(res.price), "mc",
                 repr(res.std_error), repr(res.ci95[0]), repr(res.ci95[1]), res.n_paths]
            )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(contracts)} prices to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    rng = np.random.default_rng(args.seed)
    path = simulate_path(model, args.horizon, args.dt, rng)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "log_price", "regime"])
        for t, z, s in zip(path.times, path.log_prices, path.regimes):
            writer.writerow([repr(float(t)), repr(float(z)), int(s)])
    print(f"wrote {len(path.times)} grid points to {args.out}")
    return 0


def cmd_plot_cf(args) -> int:
    model = load_model(args.model)
    cf = CharFn(model, args.t)
    u = np.linspace(args.umin, args.umax, args.n)
    phi = switching_cf(cf, u)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "re", "im"])
        for ui, pi in zip(u, phi):
            writer.writerow([repr(float(ui)), repr(float(pi.real)), repr(float(pi.imag))])
    print(f"wrote characteristic function on [{args.umin}, {args.umax}] to {args.out}")
    return 0


def _parse_rule(text: str):
    kind, _, value = text.partition(":")
    if kind == "threshold":
        return AbsThreshold(float(value))
    if kind == "windows":
        return load_windows(value)
    raise DataError(f"unknown regime rule '{text}' (use threshold:<c> or windows:<file>)")


def cmd_estimate(args) -> int:
    series = load_prices(args.prices)
    rule = _parse_rule(args.regime_rule)
    labels = segment_regimes(series, rule)
    rates = holding_rates(labels, series.dt)
    family = Family(args.family)
    bounds = ParamBounds()
    per_regime = split_by_regime(series, labels)

    fitted = {}
    for j in (1, 2):
        z = per_regime[j].log_returns
        start = mom_fit(z, family, bounds, dt=series.dt)
        if args.method == "mom":
            fit = start
        elif args.method == "mde":
            fit = mde_fit(z, family, bounds, init=start.params, dt=series.dt)
        else:
            fit = mle_fit(z, family, bounds, init=start.params, seed=args.seed, dt=series.dt)
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
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"estimated {args.method}/{family.value} parameters -> {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    quotes = load_quotes(args.quotes)
    market = json.loads(Path(args.market).read_text())
    try:
        ctx = CalibContext(
            family=Family(args.family),
            lambda12=float(market["lambda12"]),
            lambda21=float(market["lambda21"]),
            s0=float(market["s0"]),
            r=float(market["r"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{args.market}: needs s0, r, lambda12, lambda21: {exc}") from exc
    if args.init:
        doc = json.loads(Path(args.init).read_text())
        try:
            init = regimes_from_dict(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{args.init}: needs regimes with mu, sigma, alpha, beta: {exc}") from exc
        if len(init) != 2:
            raise DataError(f"{args.init}: needs exactly 2 regimes, got {len(init)}")
    else:
        init = (RegimeParams(0.0, 0.3, 1.0, 1.0), RegimeParams(0.0, 0.3, 1.0, 1.0))
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
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
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
        res = price_european_mc(model, contract, args.paths, rng=rng, seed=args.seed)
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
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["maturity", "strike", "price"])
        for c, p in zip(contracts, prices):
            writer.writerow([c.maturity, c.strike, repr(float(p))])
    print(f"wrote {len(contracts)} surface points to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchlevy",
        description="Regime-switching time-changed Levy pricing and estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price a contract grid from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True, help="CSV with maturity,strike,kind")
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["cos", "mc"], default="cos")
    p.add_argument("--n-terms", type=int, default=512)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--dt", type=float, default=TRADING_DT)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("simulate", help="emit one simulated path as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=TRADING_DT)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plot-cf", help="emit Re/Im of the characteristic function")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--umin", type=float, default=-20.0)
    p.add_argument("--umax", type=float, default=20.0)
    p.add_argument("--n", type=int, default=401)
    p.set_defaults(func=cmd_plot_cf)

    p = sub.add_parser("estimate", help="fit per-regime parameters from a price CSV")
    p.add_argument("--prices", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["mom", "mde", "mle"], default="mom")
    p.add_argument("--family", choices=["gamma", "ig"], default="gamma")
    p.add_argument("--regime-rule", default="threshold:3.0",
                   help="threshold:<c> or windows:<json file>")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("calibrate", help="fit parameters to option quotes")
    p.add_argument("--quotes", required=True)
    p.add_argument("--market", required=True, help="JSON with s0, r, lambda12, lambda21")
    p.add_argument("--out", required=True)
    p.add_argument("--family", choices=["gamma", "ig"], default="gamma")
    p.add_argument("--init", help="JSON with a 'regimes' list of parameter blocks")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--mc-paths", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bs-check", help="Black-Scholes reduction table (COS vs BS vs MC)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=100_000)
    p.set_defaults(func=cmd_bs_check)

    p = sub.add_parser("payoff-surface", help="price a (T, K) grid for surface plots")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tmin", type=float, default=0.25)
    p.add_argument("--tmax", type=float, default=2.0)
    p.add_argument("--nt", type=int, default=8)
    p.add_argument("--kmin", type=float, required=True)
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--nk", type=int, default=15)
    p.add_argument("--kind", choices=["call", "put"], default="call")
    p.add_argument("--n-terms", type=int, default=512)
    p.set_defaults(func=cmd_payoff_surface)

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
