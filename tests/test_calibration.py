import math
from dataclasses import replace

import numpy as np
import pytest

import switchlevy as sl

from conftest import rn_regime

CALL = sl.OptionKind.CALL
PUT = sl.OptionKind.PUT
IG = sl.Family.INVERSE_GAUSSIAN
GAMMA = sl.Family.GAMMA


def _context(family=IG, l12=2.5, l21=1.0, s0=20.0, r=0.04):
    return sl.CalibContext(family, l12, l21, s0, r)


def _true_params(ctx):
    return (
        rn_regime(0.25, 2.5, 2.0, ctx.family, ctx.r),
        rn_regime(0.45, 4.0, 3.0, ctx.family, ctx.r),
    )


def _model(ctx, params):
    return sl.SwitchingModel(params, ctx.lambda12, ctx.lambda21, ctx.family, ctx.s0, ctx.r)


def _synthetic_quotes(ctx, params, maturities, moneyness, noise=0.0, seed=0):
    rows = []
    rng = np.random.default_rng(seed)
    model = _model(ctx, params)
    for t in maturities:
        for m in moneyness:
            k = ctx.s0 * m
            price = sl.price_table(model, [sl.ContractSpec(k, t, CALL)])[0]
            rows.append(sl.QuoteRow(t, k, CALL, price * (1.0 + noise * rng.standard_normal())))
    return sl.QuoteTable(tuple(rows))


class TestQuoteTable:
    def test_duplicate_rejected(self):
        row = sl.QuoteRow(1.0, 20.0, CALL, 2.0)
        with pytest.raises(ValueError, match="duplicate"):
            sl.QuoteTable((row, row))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sl.QuoteTable(())

    def test_negative_quote_rejected(self):
        with pytest.raises(ValueError):
            sl.QuoteTable((sl.QuoteRow(1.0, 20.0, CALL, -0.5),))

    @pytest.mark.parametrize(
        "row",
        [
            sl.QuoteRow(float("nan"), 20.0, CALL, 2.0),
            sl.QuoteRow(1.0, float("nan"), CALL, 2.0),
            sl.QuoteRow(1.0, 20.0, CALL, float("nan")),
            sl.QuoteRow(1.0, float("inf"), CALL, 2.0),
        ],
    )
    def test_nonfinite_rejected(self, row):
        with pytest.raises(ValueError, match="non-finite"):
            sl.QuoteTable((row,))


class TestCalibContext:
    @pytest.mark.parametrize(
        "l12, l21, s0",
        [(2.5, 1.0, -20.0), (2.5, 1.0, 0.0), (2.5, 1.0, np.nan), (-1.0, 1.0, 20.0), (2.5, -0.5, 20.0),
         (np.nan, 1.0, 20.0)],
    )
    def test_rejects_what_a_model_rejects(self, l12, l21, s0):
        regimes = (sl.RegimeParams(0.0, 0.3, 1.0, 1.0),) * 2
        with pytest.raises(ValueError) as model_error:
            sl.SwitchingModel(regimes, l12, l21, IG, s0, 0.04)
        with pytest.raises(ValueError) as context_error:
            _context(l12=l12, l21=l21, s0=s0)
        assert str(context_error.value) == str(model_error.value)

    @pytest.mark.parametrize(
        "s0, r, message",
        [(np.inf, 0.04, "s0 must be > 0"), (20.0, np.nan, "r must be finite"), (20.0, np.inf, "r must be finite"),
         (20.0, -np.inf, "r must be finite")],
    )
    def test_rejects_non_finite_spot_or_rate(self, s0, r, message):
        """An infinite spot or a non-finite rate priced to NaN or infinite
        prices, or stopped inside the solver without naming the input."""
        regimes = (sl.RegimeParams(0.0, 0.3, 1.0, 1.0),) * 2
        with pytest.raises(ValueError, match=message) as model_error:
            sl.SwitchingModel(regimes, 2.5, 1.0, IG, s0, r)
        with pytest.raises(ValueError, match=message) as context_error:
            _context(s0=s0, r=r)
        assert str(context_error.value) == str(model_error.value)

    def test_accepts_an_infinite_intensity(self):
        """COS and the samplers refuse an infinite intensity; the market
        data may hold one."""
        assert _context(l12=np.inf).lambda12 == np.inf


class TestObjective:
    def test_two_dollar_gap_gives_j_two(self):
        ctx = _context()
        params = _true_params(ctx)
        model = _model(ctx, params)
        price = sl.price_table(model, [sl.ContractSpec(20.0, 1.0, CALL)])[0]
        quotes = sl.QuoteTable((sl.QuoteRow(1.0, 20.0, CALL, price - 2.0),))
        j = sl.calib_objective(*params, quotes, ctx)
        assert j == pytest.approx(2.0, abs=1e-9)

    def test_permutation_invariant(self):
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (0.5, 1.0), (0.9, 1.0, 1.1))
        shuffled = sl.QuoteTable(tuple(reversed(quotes.rows)))
        j1 = sl.calib_objective(*params, quotes, ctx)
        j2 = sl.calib_objective(*params, shuffled, ctx)
        assert j1 == pytest.approx(j2, rel=1e-12)

    def test_self_quotes_near_zero(self):
        """Quotes generated by the model: cosine rows match exactly, the
        out-of-the-money rows only up to Monte Carlo noise."""
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (0.75, 1.25), (0.9, 1.0, 1.1, 1.2))
        j = sl.calib_objective(*params, quotes, ctx)
        mean_quote = np.mean([r.mid for r in quotes])
        assert j < 0.01 * mean_quote

    def test_self_quotes_exact_without_otm_rows(self):
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (0.75, 1.25), (0.9, 1.0, 1.05))
        assert sl.calib_objective(*params, quotes, ctx) < 1e-10

    def test_frozen_sampler_runs_once_per_maturity(self, monkeypatch):
        ctx = _context()
        params = _true_params(ctx)
        # two OTM calls (K/s0 = 1.1, 1.2) at each of two maturities
        quotes = _synthetic_quotes(ctx, params, (0.5, 1.0), (0.9, 1.1, 1.2))
        calls = []
        evaluate = sl.FrozenTerminalSampler.evaluate

        def counting(self, theta1, theta2):
            calls.append(self)
            return evaluate(self, theta1, theta2)

        monkeypatch.setattr(sl.FrozenTerminalSampler, "evaluate", counting)
        sl.calib_objective(*params, quotes, ctx, sl.CalibConfig(mc_paths=1000))
        assert len(calls) == 2 and calls[0] is not calls[1]

    def test_objective_deterministic(self):
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (1.0,), (0.9, 1.1, 1.2))
        assert sl.calib_objective(*params, quotes, ctx) == sl.calib_objective(
            *params, quotes, ctx
        )


class TestCalibrate:
    def test_fixed_point_converges_immediately(self):
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (0.75, 1.25), (0.9, 1.0, 1.05))
        config = sl.CalibConfig(max_iters=50)
        result = sl.calibrate(quotes, ctx, params, config=config)
        assert result.objective < 1e-8
        assert result.n_iters <= 3

    def test_round_trip_from_perturbed_start(self):
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (0.75, 1.5), (0.9, 1.0, 1.1))
        init = tuple(
            sl.RegimeParams(*(p.as_array() * 1.1)) for p in params
        )
        config = sl.CalibConfig(max_iters=200)
        result = sl.calibrate(quotes, ctx, init, config=config)
        mean_quote = np.mean([r.mid for r in quotes])
        assert result.objective < 0.01 * mean_quote
        assert result.n_iters <= 200

    def test_objective_history_monotone(self):
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (1.0,), (0.9, 1.0, 1.1))
        init = tuple(sl.RegimeParams(*(p.as_array() * 1.15)) for p in params)
        result = sl.calibrate(quotes, ctx, init, config=sl.CalibConfig(max_iters=40))
        hist = np.array(result.objective_history)
        assert np.all(np.diff(hist) <= 1e-14)

    def test_deterministic(self):
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (1.0,), (0.95, 1.0, 1.08))
        init = tuple(sl.RegimeParams(*(p.as_array() * 0.9)) for p in params)
        cfg = sl.CalibConfig(max_iters=15)
        r1 = sl.calibrate(quotes, ctx, init, config=cfg)
        r2 = sl.calibrate(quotes, ctx, init, config=cfg)
        assert r1.objective == r2.objective
        assert r1.params == r2.params

    def test_different_starts_reach_similar_fit(self):
        """On noisy quotes (more rows than parameters, so the error floor
        is pinned by the noise) two starting points land at comparable
        final error."""
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(
            ctx, params, (0.6, 1.0, 1.5), (0.88, 0.95, 1.0, 1.05), noise=0.002, seed=7
        )
        cfg = sl.CalibConfig(max_iters=300)
        inits = (
            tuple(sl.RegimeParams(*(p.as_array() * 1.12)) for p in params),
            tuple(sl.RegimeParams(*(p.as_array() * 0.9)) for p in params),
        )
        finals = [sl.calibrate(quotes, ctx, init, config=cfg).objective for init in inits]
        mean_quote = np.mean([r.mid for r in quotes])
        # similar: within 10% of each other, or both at fits so tight the
        # residual is below a tenth of a percent of the quote scale
        assert abs(finals[0] - finals[1]) <= max(0.10 * max(finals), 1e-3 * mean_quote)
        assert max(finals) < 5e-3 * mean_quote

    def test_final_parameters_within_bounds(self):
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (1.0,), (0.95, 1.05))
        init = tuple(sl.RegimeParams(*(p.as_array() * 1.1)) for p in params)
        result = sl.calibrate(quotes, ctx, init, config=sl.CalibConfig(max_iters=25))
        bounds = sl.ParamBounds()
        assert bounds.contains(result.params[0]) and bounds.contains(result.params[1])

    def test_init_outside_bounds_rejected(self):
        ctx = _context()
        quotes = _synthetic_quotes(ctx, _true_params(ctx), (1.0,), (1.0,))
        bad = (sl.RegimeParams(2.0, 0.3, 1.0, 1.0), sl.RegimeParams(0.0, 0.3, 1.0, 1.0))
        with pytest.raises(sl.CalibrationError, match="bounds"):
            sl.calibrate(quotes, ctx, bad)

    def test_result_objective_and_history_start(self):
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (1.0,), (0.9, 1.0, 1.1))
        init = tuple(sl.RegimeParams(*(p.as_array() * 1.15)) for p in params)
        config = sl.CalibConfig(max_iters=40)
        result = sl.calibrate(quotes, ctx, init, config=config)
        assert result.objective == pytest.approx(
            sl.calib_objective(*result.params, quotes, ctx, config), rel=1e-12
        )
        assert result.objective_history[0] == pytest.approx(
            sl.calib_objective(*init, quotes, ctx, config), rel=1e-12
        )
        assert result.objective_history[-1] == result.objective
        assert len(result.objective_history) == result.n_iters + 1

    def test_init_on_bounds_face(self):
        """An init with mu on both faces of its box: the solver starts from a
        point moved inward by 1e-10, so the first recorded objective is the
        objective at init to 1e-9, and the history still decreases."""
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (1.0,), (0.9, 1.0, 1.1))
        init = (replace(params[0], mu=1.0), replace(params[1], mu=-1.0))
        config = sl.CalibConfig(max_iters=5)
        result = sl.calibrate(quotes, ctx, init, config=config)
        hist = np.array(result.objective_history)
        assert hist.size >= 2
        assert np.all(np.diff(hist) <= 1e-14)
        assert hist[0] == pytest.approx(sl.calib_objective(*init, quotes, ctx, config), rel=1e-9)

    def test_max_iters_bounds_accepted_iterations(self):
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (1.0,), (0.9, 1.0, 1.1))
        init = tuple(sl.RegimeParams(*(p.as_array() * 1.15)) for p in params)
        result = sl.calibrate(quotes, ctx, init, config=sl.CalibConfig(max_iters=2))
        assert result.n_iters == 2
        assert result.stop_reason == "max iterations"

    def test_evaluation_count_on_two_maturity_grid(self, monkeypatch):
        """2x6 call grid with four OTM rows on 5000 frozen paths: a frozen-draw
        seed on which a projected gradient descent took 8198 evaluations."""
        ctx = _context()
        params = _true_params(ctx)
        quotes = _synthetic_quotes(ctx, params, (0.5, 1.0), (0.9, 0.95, 1.0, 1.05, 1.1, 1.15))
        init = tuple(sl.RegimeParams(*(p.as_array() * 1.10)) for p in params)
        calls = []
        price_table = sl.calibration.price_table

        def counting(*args, **kwargs):
            calls.append(1)
            return price_table(*args, **kwargs)

        monkeypatch.setattr(sl.calibration, "price_table", counting)
        config = sl.CalibConfig(mc_paths=5000, mc_seed=1)
        result = sl.calibrate(quotes, ctx, init, config=config)
        mean_quote = np.mean([r.mid for r in quotes])
        assert len(calls) <= 400
        assert result.objective < 0.01 * mean_quote

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sl.CalibConfig(step_tolerance=0.0)


class TestJacobian:
    """The exact Jacobian of the calibration residuals against central
    differences of the residuals themselves."""

    @staticmethod
    def _state(family, cos=sl.CosConfig()):
        ctx = _context(family)
        params = _true_params(ctx)
        model = _model(ctx, params)
        rows = []
        for t in (0.5, 1.0):
            # OTM calls at 1.1 and 1.15 and an OTM put at 0.9 go to Monte Carlo
            for m, kind in ((0.9, CALL), (1.0, CALL), (1.1, CALL), (1.15, CALL), (0.9, PUT), (1.0, PUT)):
                price = sl.price_table(model, [sl.ContractSpec(ctx.s0 * m, t, kind)])[0]
                rows.append(sl.QuoteRow(t, ctx.s0 * m, kind, 0.95 * price))
        config = sl.CalibConfig(mc_paths=2000, mc_seed=3, cos=cos)
        state = sl.calibration._ObjectiveState(sl.QuoteTable(tuple(rows)), ctx, config)
        assert len(state.mc_rows) == 6 and len(state.cos_rows) == 6
        return state, tuple(sl.RegimeParams(*(p.as_array() * 1.05)) for p in params)

    @pytest.mark.parametrize("family", [IG, GAMMA])
    @pytest.mark.parametrize("interval", [None, (-2.5, 2.0)])
    def test_against_central_differences(self, family, interval, monkeypatch):
        state, theta = self._state(family, sl.CosConfig(interval=interval))
        jac = state.jacobian(*theta)
        x = np.concatenate([p.as_array() for p in theta])
        # the Jacobian holds the automatic interval at its value at theta,
        # so the differences do too
        held = {}
        interval_at = sl.cos.truncation_interval
        monkeypatch.setattr(
            sl.cos, "truncation_interval",
            lambda cf, config: held.setdefault(tuple(np.ravel(cf.t)), interval_at(cf, config)),
        )
        state.residuals(*theta)
        fd = np.empty_like(jac)
        for j in range(8):
            h = 1e-6 * max(abs(x[j]), 1.0)
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            fd[:, j] = (
                state.residuals(sl.RegimeParams(*up[:4]), sl.RegimeParams(*up[4:]))
                - state.residuals(sl.RegimeParams(*down[:4]), sl.RegimeParams(*down[4:]))
            ) / (2.0 * h)
        n_cos = len(state.cos_rows)
        for rows in (slice(0, n_cos), slice(n_cos, None)):
            gap = np.abs(jac[rows] - fd[rows]).max(axis=0) / np.abs(fd[rows]).max(axis=0)
            if family is GAMMA and rows.start == n_cos:
                # the alpha columns of the Monte Carlo rows are forward
                # differences of the Gamma inverse CDF with step 1e-6 alpha
                assert gap[[2, 6]].max() < 1e-5
                gap = gap[[0, 1, 3, 4, 5, 7]]
            assert gap.max() < 1e-7

    @pytest.mark.parametrize("family", [IG, GAMMA])
    def test_no_new_transform_at_the_evaluated_point(self, family, monkeypatch):
        state, theta = self._state(family)
        state.residuals(*theta)
        calls = []
        transform = sl.mc.increment_from_draws

        def counting(*args):
            calls.append(1)
            return transform(*args)

        monkeypatch.setattr(sl.mc, "increment_from_draws", counting)
        state.jacobian(*theta)
        # only the Gamma alpha probe transforms the draws again, once per round
        rounds = sum(len(s._rounds) for s in state.samplers.values())
        assert len(calls) == (rounds if family is GAMMA else 0)

    def test_one_sweep_per_point(self, monkeypatch):
        """The residuals form the Phi(u) entries and their eigenvalue parts
        once; the Jacobian at that point forms neither again."""
        state, theta = self._state(IG)
        calls = {"_phi_entries": 0, "_row_sum_parts": 0}
        for name in calls:
            formed = getattr(sl.charfn, name)

            def counting(*args, _formed=formed, _name=name):
                calls[_name] += 1
                return _formed(*args)

            for module in (sl.charfn, sl.cos):
                monkeypatch.setattr(module, name, counting, raising=False)
        state.residuals(*theta)
        assert calls == {"_phi_entries": 1, "_row_sum_parts": 1}
        state.jacobian(*theta)
        assert calls == {"_phi_entries": 1, "_row_sum_parts": 1}

    @pytest.mark.parametrize("family", [IG, GAMMA])
    def test_kept_sweep_is_bit_identical(self, family):
        """The Jacobian at the evaluated point equals, to the bit, the one
        formed afresh: the cosine rows from a plain `price_table_jacobian`
        call, the Monte Carlo rows from payoff weights on new terminal
        prices."""
        state, theta = self._state(family)
        state.residuals(*theta)
        ctx, n_cos = state.ctx, len(state.cos_rows)
        model = sl.SwitchingModel(theta, ctx.lambda12, ctx.lambda21, family, ctx.s0, ctx.r)
        expected = np.empty((state.mids.size, 8))
        expected[:n_cos] = sl.cos.price_table_jacobian(model, state.cos_contracts, state.config.cos)
        for maturity, sampler in state.samplers.items():
            s_t = ctx.s0 * np.exp(sampler.evaluate(*theta))
            rows = [i for i, row in enumerate(state.mc_rows) if row.maturity == maturity]
            weights = np.stack([sl.mc.option_payoff(s_t, state.mc_rows[i].strike, state.mc_rows[i].kind)[1] for i in rows])
            weights *= math.exp(-ctx.r * maturity) / s_t.size
            expected[n_cos + np.array(rows)] = sampler.weighted_gradient(*theta, weights)
        np.testing.assert_array_equal(state.jacobian(*theta), expected / np.sqrt(state.mids.size))

    def test_calls_and_puts_share_cosine_sensitivities(self):
        model = _model(_context(), _true_params(_context()))
        contracts = [sl.ContractSpec(19.0, 0.75, kind) for kind in (CALL, PUT)]
        jac = sl.cos.price_table_jacobian(model, contracts)
        np.testing.assert_array_equal(jac[0], jac[1])


def test_gamma_round_trip():
    """The CLI's default family: a 2x3 Gamma grid with one OTM call, so the
    Monte Carlo rows carry the forward-difference alpha column."""
    ctx = _context(GAMMA)
    params = _true_params(ctx)
    model = _model(ctx, params)
    rows = []
    for t, moneyness in ((0.5, (0.9, 1.0, 1.03)), (1.0, (0.9, 1.0, 1.1))):
        for m in moneyness:
            price = sl.price_table(model, [sl.ContractSpec(ctx.s0 * m, t, CALL)])[0]
            rows.append(sl.QuoteRow(t, ctx.s0 * m, CALL, price))
    quotes = sl.QuoteTable(tuple(rows))
    config = sl.CalibConfig(mc_paths=2000)
    assert sum(sl.calibration.is_otm(r, ctx.s0, config) for r in quotes) == 1
    init = tuple(sl.RegimeParams(*(p.as_array() * 1.10)) for p in params)
    result = sl.calibrate(quotes, ctx, init, config=config)
    assert result.objective < 0.01 * np.mean([r.mid for r in quotes])


def test_is_otm_rule():
    from switchlevy.calibration import is_otm

    cfg = sl.CalibConfig()
    assert is_otm(sl.QuoteRow(1.0, 21.5, CALL, 1.0), 20.0, cfg)
    assert not is_otm(sl.QuoteRow(1.0, 21.0, CALL, 1.0), 20.0, cfg)
    assert is_otm(sl.QuoteRow(1.0, 18.0, PUT, 1.0), 20.0, cfg)
    assert not is_otm(sl.QuoteRow(1.0, 19.5, PUT, 1.0), 20.0, cfg)


def test_is_otm_takes_the_kind_by_value():
    from switchlevy.calibration import is_otm

    row = sl.QuoteRow(1.0, 22.0, "call", 1.0)
    assert row.kind is CALL
    assert is_otm(row, 20.0, sl.CalibConfig())


def test_init_outside_bounds_names_the_value():
    ctx = _context()
    quotes = _synthetic_quotes(ctx, _true_params(ctx), (1.0,), (1.0,))
    bad = (sl.RegimeParams(0.0, 0.3, 1.0, 1.0), sl.RegimeParams(0.0, 0.3, 200.0, 1.0))
    with pytest.raises(sl.CalibrationError) as err:
        sl.calibrate(quotes, ctx, bad)
    assert str(err.value) == "initial regime 2 alpha = 200.0 is outside the bounds [1e-06, 100.0]"


def test_context_takes_family_by_value():
    assert sl.CalibContext("gamma", 2.5, 1.0, 20.0, 0.04).family is GAMMA
    with pytest.raises(ValueError):
        sl.CalibContext("cauchy", 2.5, 1.0, 20.0, 0.04)
