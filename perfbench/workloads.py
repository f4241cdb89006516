"""The four benchmark workloads: inputs, one round of operations, and checks.

A workload builds its inputs in __init__, warms up in warm_up(), computes its
references in prepare_checks() (outside the set-up time), and runs one round
of operations per run_round() call. Every round of a workload repeats the same
operations on the same inputs, so per-round counts must repeat exactly.

cos-grid and mc-price draw their models from the seed: their cost per
operation does not depend on the draw. calibrate and estimate use one fixed
problem each, whatever the seed. Their optimizers' work is chaotic in the
data: at these shapes the calibration took 31 to 817 iterations over three
frozen-draw seeds, and the Gamma likelihood fit took 276 to 1596 objective
evaluations over data seeds. A seed-drawn problem would make their times
measure the seed rather than the code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

import oracle

S0 = 20.0


@dataclass(frozen=True)
class Op:
    """One timed operation: wall seconds, units of work done, and how many
    checked results it produced and how many of those failed."""

    kind: str
    seconds: float
    work: int
    attempted: int
    failed: int


def _rn_model(sl, rng, family, intensities=None):
    """Risk-neutral two-regime model drawn as acceptance criterion 3 draws them."""
    r = rng.uniform(0.0, 0.08)
    sig = rng.uniform(0.15, 0.6, size=2)
    alpha = rng.uniform(2.0, 10.0, size=2)
    beta = rng.uniform(0.8, 4.0, size=2)
    lam = rng.uniform(0.3, 4.0, size=2) if intensities is None else intensities
    regimes = tuple(
        sl.RegimeParams(
            sl.risk_neutral_drift(sl.RegimeParams(0.0, sig[j], alpha[j], beta[j]), family, r),
            sig[j], alpha[j], beta[j],
        )
        for j in range(2)
    )
    return sl.SwitchingModel(regimes, float(lam[0]), float(lam[1]), family, S0, r)


class Workload:
    name = ""
    otm_maturities = 0  # OTM maturities priced by frozen MC per objective evaluation
    n_iters = 0  # optimizer iterations in the last round

    def __init__(self, sl, seed: int, out_dir) -> None:
        self.sl = sl
        self.failures: list[str] = []

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute the references the checks compare against."""

    def run_round(self, begin_op) -> list[Op]:
        """One round of operations; begin_op() is called before each one."""
        raise NotImplementedError

    def metrics(self, rounds: list[list[Op]]) -> tuple[dict, dict]:
        """(raw latency_p50_s and throughput_per_s, the named metrics
        as name -> (value, unit)) from the ops of each round."""
        raise NotImplementedError

    def _fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)


def _median_rate(rounds: list[list[Op]], kinds) -> float:
    """Median over rounds of work per second in the ops of the given kinds."""
    rates = []
    for ops in rounds:
        picked = [op for op in ops if op.kind in kinds]
        rates.append(sum(op.work for op in picked) / sum(op.seconds for op in picked))
    return statistics.median(rates)


def _times(rounds: list[list[Op]], kinds) -> list[float]:
    return [op.seconds for ops in rounds for op in ops if op.kind in kinds]


class CosGrid(Workload):
    """COS pricing of each model in three shapes: an 8x15 surface (the
    payoff-surface default maturities), a 200-strike strip and one contract."""

    name = "cos-grid"
    N_MODELS = 8
    SURFACE_T = np.linspace(0.25, 2.0, 8)
    SURFACE_K = np.linspace(0.7, 1.3, 15) * S0
    STRIP_T = 1.0
    STRIP_K = np.linspace(0.7, 1.3, 200) * S0
    # largest |COS - oracle| accepted; the COS series truncation reaches
    # 3.2e-4 for Gamma models at T=0.25 near the money with 512 terms
    TOL = 2e-3
    SHAPES = ("surface", "strip", "single")

    def __init__(self, sl, seed, out_dir):
        super().__init__(sl, seed, out_dir)
        rng = np.random.default_rng(seed)
        call = sl.OptionKind.CALL
        families = (sl.Family.GAMMA, sl.Family.INVERSE_GAUSSIAN)
        self.cases = []
        for i in range(self.N_MODELS):
            model = _rn_model(sl, rng, families[i % 2])
            single = sl.ContractSpec(S0 * rng.uniform(0.85, 1.15), rng.uniform(0.75, 2.0), call)
            shapes = {
                "surface": [sl.ContractSpec(float(k), float(t), call)
                            for t in self.SURFACE_T for k in self.SURFACE_K],
                "strip": [sl.ContractSpec(float(k), self.STRIP_T, call) for k in self.STRIP_K],
                "single": [single],
            }
            self.cases.append((model, shapes))
        self.refs: list[dict] = []
        self.err_max = 0.0

    def warm_up(self):
        model, shapes = self.cases[0]
        for shape in self.SHAPES:
            self.sl.price_table(model, shapes[shape])

    def prepare_checks(self):
        for model, shapes in self.cases:
            refs = {}
            for shape, contracts in shapes.items():
                ref = np.empty(len(contracts))
                by_t: dict[float, list[int]] = {}
                for i, c in enumerate(contracts):
                    by_t.setdefault(c.maturity, []).append(i)
                for t, idx in by_t.items():
                    ref[idx] = oracle.prices(model, t, [contracts[i].strike for i in idx], "call")
                refs[shape] = ref
            self.refs.append(refs)

    def run_round(self, begin_op):
        ops = []
        for (model, shapes), refs in zip(self.cases, self.refs):
            for shape in self.SHAPES:
                contracts = shapes[shape]
                begin_op()
                t0 = time.perf_counter()
                try:
                    prices = self.sl.price_table(model, contracts)
                except Exception as exc:  # a failed call is counted, the run goes on
                    prices, error = None, exc
                seconds = time.perf_counter() - t0
                if prices is None:
                    self._fail(f"{shape} {model}: {error!r}")
                    failed = len(contracts)
                else:
                    err = np.abs(np.asarray(prices) - refs[shape])
                    bad = ~(err <= self.TOL)
                    failed = int(bad.sum())
                    if failed:
                        self._fail(f"{shape} {model}: max |COS - oracle| {np.nanmax(err):.3g}")
                    self.err_max = max(self.err_max, float(np.nanmax(err)))
                ops.append(Op(shape, seconds, len(contracts), len(contracts), failed))
        return ops

    def metrics(self, rounds):
        single = _times(rounds, {"single"})
        e2e = {
            "latency_p50_s": statistics.median(single),
            "throughput_per_s": _median_rate(rounds, {"surface", "strip"}),
        }
        named = {
            "cos_surface_contracts_per_s": (_median_rate(rounds, {"surface"}), "contracts/s"),
            "cos_strip_contracts_per_s": (_median_rate(rounds, {"strip"}), "contracts/s"),
            "cos_single_ms_p50": (1e3 * statistics.median(single), "ms"),
            "cos_single_ms_p90": (1e3 * float(np.percentile(single, 90)), "ms"),
            "cos_single_samples": (len(single), "count"),
            "cos_err_max": (self.err_max, "abs price"),
        }
        return e2e, named


class McPrice(Workload):
    """100k-path Monte Carlo prices of an at-the-money call at T=0.25 on
    {Gamma, IG} x {low switching (2.5, 1), high switching (20, 10)}."""

    name = "mc-price"
    N_PATHS = 100_000
    MATURITY = 0.25
    INTENSITIES = ((2.5, 1.0), (20.0, 10.0))
    Z_MAX = 4.0  # largest |MC - COS| in MC standard errors accepted

    def __init__(self, sl, seed, out_dir):
        super().__init__(sl, seed, out_dir)
        rng = np.random.default_rng(seed)
        self.contract = sl.ContractSpec(S0, self.MATURITY, sl.OptionKind.CALL)
        self.cases = []
        for family in (sl.Family.GAMMA, sl.Family.INVERSE_GAUSSIAN):
            for lam in self.INTENSITIES:
                model = _rn_model(sl, rng, family, lam)
                self.cases.append((model, int(rng.integers(2**31))))
        self.refs: list[float] = []
        self.z_max = 0.0

    def warm_up(self):
        model, mc_seed = self.cases[0]
        self.sl.price_european_mc(model, self.contract, 1000, seed=mc_seed)

    def prepare_checks(self):
        self.refs = [
            float(oracle.prices(model, self.MATURITY, [S0], "call")[0]) for model, _ in self.cases
        ]

    def run_round(self, begin_op):
        ops = []
        for (model, mc_seed), ref in zip(self.cases, self.refs):
            begin_op()
            t0 = time.perf_counter()
            try:
                res = self.sl.price_european_mc(model, self.contract, self.N_PATHS, seed=mc_seed)
            except Exception as exc:  # a failed call is counted, the run goes on
                res, error = None, exc
            seconds = time.perf_counter() - t0
            if res is None:
                self._fail(f"{model}: {error!r}")
                failed = 1
            else:
                z = (res.price - ref) / res.std_error
                failed = int(not abs(z) <= self.Z_MAX)
                if failed:
                    self._fail(f"{model}: MC {res.price} vs COS {ref}, z={z:.2f}")
                else:
                    self.z_max = max(self.z_max, abs(z))
            ops.append(Op("price", seconds, self.N_PATHS, 1, failed))
        return ops

    def metrics(self, rounds):
        times = _times(rounds, {"price"})
        paths_per_s = _median_rate(rounds, {"price"})
        e2e = {"latency_p50_s": statistics.median(times), "throughput_per_s": paths_per_s}
        named = {
            "mc_paths_per_s": (paths_per_s, "paths/s"),
            "mc_price_s_p50": (statistics.median(times), "s"),
            "mc_prices": (len(times), "count"),
            "mc_z_max": (self.z_max, "std errors"),
        }
        return e2e, named


class Calibrate(Workload):
    """The acceptance-9 round trip, shrunk: IG quotes on 2 maturities x 6
    strikes (4 OTM calls priced by frozen MC), a start 10% off the truth,
    default CalibConfig but 5000 MC paths, run to the optimizer's own stop."""

    name = "calibrate"
    MATURITIES = (0.5, 1.0)
    MONEYNESS = (0.9, 0.95, 1.0, 1.05, 1.1, 1.15)
    MC_PATHS = 5000
    RMSE_REL_MAX = 0.01

    def __init__(self, sl, seed, out_dir):
        super().__init__(sl, seed, out_dir)
        family = sl.Family.INVERSE_GAUSSIAN
        self.ctx = sl.CalibContext(family, 2.5, 1.0, S0, 0.04)
        truth = tuple(
            sl.RegimeParams(
                sl.risk_neutral_drift(sl.RegimeParams(0.0, s, a, b), family, self.ctx.r), s, a, b
            )
            for s, a, b in ((0.25, 2.5, 2.0), (0.45, 4.0, 3.0))
        )
        model = sl.SwitchingModel(truth, 2.5, 1.0, family, S0, self.ctx.r)
        call = sl.OptionKind.CALL
        rows = []
        for t in self.MATURITIES:
            for m in self.MONEYNESS:
                contract = sl.ContractSpec(S0 * m, t, call)
                rows.append(sl.QuoteRow(t, S0 * m, call, sl.price_table(model, [contract])[0]))
        self.quotes = sl.QuoteTable(tuple(rows))
        self.mean_quote = float(np.mean([r.mid for r in rows]))
        self.init = tuple(sl.RegimeParams(*(p.as_array() * 1.10)) for p in truth)
        self.config = sl.CalibConfig(mc_paths=self.MC_PATHS)
        self.otm_maturities = len(
            {r.maturity for r in rows if sl.calibration.is_otm(r, S0, self.config)}
        )
        self.rmse_rel = math.nan

    def warm_up(self):
        self.sl.calib_objective(*self.init, self.quotes, self.ctx, self.config)

    def run_round(self, begin_op):
        begin_op()
        t0 = time.perf_counter()
        try:
            res = self.sl.calibrate(self.quotes, self.ctx, self.init, config=self.config)
        except Exception as exc:  # a failed call is counted, the run goes on
            res, error = None, exc
        seconds = time.perf_counter() - t0
        if res is None:
            self._fail(f"calibrate: {error!r}")
            failed = 1
        else:
            self.n_iters = res.n_iters
            self.rmse_rel = res.objective / self.mean_quote
            failed = int(not self.rmse_rel < self.RMSE_REL_MAX)
            if failed:
                self._fail(f"calibrate: RMSE {self.rmse_rel:.4g} of the mean quote ({res.stop_reason})")
        return [Op("calibrate", seconds, len(self.quotes), 1, failed)]

    def metrics(self, rounds):
        times = _times(rounds, {"calibrate"})
        e2e = {
            "latency_p50_s": statistics.median(times),
            "throughput_per_s": _median_rate(rounds, {"calibrate"}),
        }
        named = {
            "calib_s": (statistics.median(times), "s"),
            "calib_rmse_rel": (self.rmse_rel, "rmse/mean quote"),
            "calib_iters": (self.n_iters, "count"),
            "calib_runs": (len(times), "count"),
        }
        return e2e, named


class Estimate(Workload):
    """In-process CLI estimate, {mom, mde, mle} x {gamma, ig}, on a fixed
    two-regime Gamma price history of 5000 daily returns with its regime
    windows file."""

    name = "estimate"
    N_RETURNS = 5000
    DATA_SEED = 0
    LAMBDAS = (2.5, 1.0)
    METHODS = ("mom", "mde", "mle")
    FAMILIES = ("gamma", "ig")
    # sup over u in [-20, 20] of |fitted daily CF - generating daily CF|;
    # sampling error alone is ~1/sqrt(n) with n ~ 1700 returns per regime
    CF_TOL = 0.1

    def __init__(self, sl, seed, out_dir):
        super().__init__(sl, seed, out_dir)
        self.truth = (sl.RegimeParams(0.05, 0.3, 10.0, 10.0), sl.RegimeParams(-0.1, 0.7, 5.0, 5.0))
        self.prices_path = out_dir / "estimate-prices.csv"
        self.windows_path = out_dir / "estimate-windows.json"
        self.fitted_path = out_dir / "estimate-fitted.json"
        self._write_history(sl)
        self.cf_err_max = 0.0

    def _write_history(self, sl):
        family = sl.Family.GAMMA
        rng = np.random.default_rng(self.DATA_SEED)
        model = sl.SwitchingModel(self.truth, *self.LAMBDAS, family, S0, 0.0)
        n = self.N_RETURNS
        path = sl.simulate_regime_path(model, n * sl.TRADING_DT, rng)
        mid_days = (np.arange(n) + 0.5) * sl.TRADING_DT
        labels = path.states[np.searchsorted(path.switch_times, mid_days, side="right")]
        z = np.empty(n)
        for j, prm in enumerate(self.truth, start=1):
            mask = labels == j
            spec = sl.SubordinatorSpec(family, prm.alpha, prm.beta)
            dl = sl.sample_increment(spec, sl.TRADING_DT, rng, size=int(mask.sum()))
            z[mask] = prm.mu * dl + prm.sigma * np.sqrt(dl) * rng.standard_normal(dl.size)
        days, d = [], date(2000, 1, 3)
        while len(days) < n + 1:
            if d.weekday() < 5:
                days.append(d)
            d += timedelta(days=1)
        prices = S0 * np.exp(np.concatenate(([0.0], np.cumsum(z))))
        self.prices_path.write_text(
            "date,price\n" + "".join(f"{d.isoformat()},{float(p)!r}\n" for d, p in zip(days, prices))
        )
        # return k is dated days[k + 1]; a regime-1 run of returns [a, b) is one window
        edges = np.diff(np.concatenate(([0], (labels == 1).astype(int), [0])))
        windows = [
            (days[a + 1].isoformat(), days[b].isoformat())
            for a, b in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))
        ]
        self.windows_path.write_text(json.dumps(windows))

    def _cli(self, method: str, family: str) -> tuple[int, str]:
        argv = [
            "estimate", "--prices", str(self.prices_path), "--method", method,
            "--family", family, "--regime-rule", f"windows:{self.windows_path}",
            "--seed", "0", "--out", str(self.fitted_path),
        ]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = self.sl.cli.main(argv)
        return rc, err.getvalue()

    def warm_up(self):
        self._cli("mom", "gamma")

    def _check(self, method: str, family: str) -> str | None:
        doc = json.loads(self.fitted_path.read_text())
        u = np.linspace(-20.0, 20.0, 201)
        bounds = self.sl.ParamBounds()
        for prm, fitted in zip(self.truth, doc["regimes"]):
            x = [fitted[k] for k in ("mu", "sigma", "alpha", "beta")]
            if not all(math.isfinite(v) for v in x):
                return f"non-finite parameters {x}"
            fit = self.sl.RegimeParams(*x)
            if not bounds.contains(fit):
                return f"parameters {x} outside the bounds"
            gap = np.abs(
                oracle.regime_cf(fit, family, self.sl.TRADING_DT, u)
                - oracle.regime_cf(prm, "gamma", self.sl.TRADING_DT, u)
            ).max()
            self.cf_err_max = max(self.cf_err_max, float(gap))
            if not gap <= self.CF_TOL:
                return f"fitted CF off the generating CF by {gap:.3g}"
        return None

    def run_round(self, begin_op):
        seconds, failed = 0.0, 0
        for family in self.FAMILIES:
            for method in self.METHODS:
                begin_op()
                self.fitted_path.unlink(missing_ok=True)
                t0 = time.perf_counter()
                rc, err = self._cli(method, family)
                seconds += time.perf_counter() - t0
                problem = f"exit code {rc}: {err.strip()}" if rc != 0 else self._check(method, family)
                if problem:
                    failed += 1
                    self._fail(f"estimate {method}/{family}: {problem}")
        calls = len(self.FAMILIES) * len(self.METHODS)
        return [Op("pass", seconds, calls * self.N_RETURNS, calls, failed)]

    def metrics(self, rounds):
        times = _times(rounds, {"pass"})
        e2e = {
            "latency_p50_s": statistics.median(times),
            "throughput_per_s": _median_rate(rounds, {"pass"}),
        }
        named = {
            "estimate_s": (statistics.median(times), "s"),
            "estimate_passes": (len(times), "count"),
            "estimate_cf_err_max": (self.cf_err_max, "sup |CF gap|"),
        }
        return e2e, named


WORKLOADS = {w.name: w for w in (CosGrid, McPrice, Calibrate, Estimate)}
