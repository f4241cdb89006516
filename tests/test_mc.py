import math
import sys
import threading

import numpy as np
import pytest

import switchlevy as sl

from conftest import bs_reduced_model, rn_regime

CALL = sl.OptionKind.CALL
PUT = sl.OptionKind.PUT
DT = 1 / 250


def _absorbing_model(mu, sigma, family=sl.Family.IDENTITY, alpha=1.0, beta=1.0, r=0.0):
    prm = sl.RegimeParams(mu, sigma, alpha, beta)
    return sl.SwitchingModel((prm, prm), 0.0, 0.0, family, 20.0, r)


class TestSimulatePath:
    def test_pure_drift(self):
        model = _absorbing_model(0.13, 1e-12)
        path = sl.simulate_path(model, 1.0, DT, np.random.default_rng(0))
        assert path.log_prices[-1] == pytest.approx(0.13, abs=1e-9)
        assert path.times[0] == 0.0 and path.times[-1] == 1.0
        np.testing.assert_array_equal(path.regimes, np.ones(len(path.times)))

    @pytest.mark.parametrize("horizon", [1.0, 0.25])
    def test_increments_follow_their_segments(self, horizon):
        """Near-zero sigma on the identity clock: each increment is mu_j
        times its own segment's duration, so Z_T is sum_j mu_j * (time in
        regime j). Horizon 0.25 is 62.5 steps of DT, so the last is short."""
        mu = np.array([0.13, -0.4])
        prms = tuple(sl.RegimeParams(m, 1e-12, 1.0, 1.0) for m in mu)
        model = sl.SwitchingModel(prms, 5.0, 3.0, sl.Family.IDENTITY, 20.0, 0.0)
        path = sl.simulate_path(model, horizon, DT, np.random.default_rng(2))
        seg_mu = mu[path.regimes[:-1] - 1]
        assert set(path.regimes[:-1]) == {1, 2}
        np.testing.assert_allclose(np.diff(path.log_prices), seg_mu * np.diff(path.times), rtol=0, atol=1e-9)
        time_in = [np.diff(path.times)[path.regimes[:-1] == j].sum() for j in (1, 2)]
        assert path.log_prices[-1] == pytest.approx(mu @ time_in, abs=1e-9)

    def test_one_increment_call_per_regime(self, fig2a_model, monkeypatch):
        """All of a regime's segments draw their clock increments in one call."""
        calls = []
        draw = sl.mc.sample_increment
        monkeypatch.setattr(sl.mc, "sample_increment", lambda *a, **k: calls.append(1) or draw(*a, **k))
        path = sl.simulate_path(fig2a_model, 1.0, DT, np.random.default_rng(2))
        assert len(path.times) > 250
        assert len(calls) <= 2

    def test_terminal_mean_matches_clock_mean(self):
        """Absorbing Gamma regime: E[Z_T] = mu alpha T / beta."""
        model = _absorbing_model(0.3, 0.5, sl.Family.GAMMA, alpha=0.8, beta=2.0)
        rng = np.random.default_rng(1)
        z = sl.sample_terminal(model, 1.0, 200_000, DT, rng)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - 0.3 * 0.8 / 2.0) < 3 * se

    def test_grid_contains_switch_times(self, fig2a_model):
        """simulate_path draws its regime path first: the regime changes on
        the grid exactly at that path's switch times, to its states."""
        path = sl.simulate_path(fig2a_model, 1.0, DT, np.random.default_rng(2))
        regime_path = sl.simulate_regime_path(fig2a_model, 1.0, np.random.default_rng(2))
        assert regime_path.switch_times.size > 0
        changes = np.flatnonzero(path.regimes[1:] != path.regimes[:-1]) + 1
        np.testing.assert_array_equal(path.times[changes], regime_path.switch_times)
        np.testing.assert_array_equal(path.regimes[changes], regime_path.states[1:])
        assert np.all((path.regimes == 1) | (path.regimes == 2))

    def test_per_regime_increment_variances(self, fig2a_model):
        """Normalized step variances split by regime match the per-regime
        diffusion rates sigma^2 alpha/beta + mu^2 alpha/beta^3 within 3 SE."""
        rng = np.random.default_rng(3)
        pooled = {1: [], 2: []}
        for _ in range(400):
            path = sl.simulate_path(fig2a_model, 1.0, DT, rng)
            dz = np.diff(path.log_prices)
            dtv = np.diff(path.times)
            keep = dtv > 1e-12
            for j in (1, 2):
                mask = keep & (path.regimes[:-1] == j)
                pooled[j].append(dz[mask] / np.sqrt(dtv[mask]))
        for j, prm in ((1, fig2a_model.regimes[0]), (2, fig2a_model.regimes[1])):
            x = np.concatenate(pooled[j])
            rate = prm.sigma**2 * prm.alpha / prm.beta + prm.mu**2 * prm.alpha / prm.beta**3
            var = x.var(ddof=1)
            c = x - x.mean()
            se = math.sqrt((np.mean(c**4) - var**2) / x.size)
            assert abs(var - rate) < 3 * se

    def test_path_and_terminal_samplers_agree(self, fig2a_model):
        """The per-path gridded engine and the vectorized terminal engine
        draw from the same law."""
        rng = np.random.default_rng(4)
        z_path = np.array(
            [sl.simulate_path(fig2a_model, 0.5, 1 / 50, rng).log_prices[-1] for _ in range(4000)]
        )
        z_term = sl.sample_terminal(fig2a_model, 0.5, 40_000, 1 / 50, rng)
        se = math.sqrt(z_path.var() / z_path.size + z_term.var() / z_term.size)
        assert abs(z_path.mean() - z_term.mean()) < 3 * se


def _reference_sample_terminal(model, horizon, n_paths, dt, rng):
    """The grid march as first written: every pass builds a time array and
    masks over all paths. sample_terminal must reproduce it bit for bit."""
    params = model.regimes
    specs = tuple(sl.subordinators.spec_for(p, model.family) for p in params)
    z = np.zeros(n_paths)
    state = np.ones(n_paths, dtype=np.int8)
    next_switch = sl.mc._draw_sojourns(model.lambda12, n_paths, rng)
    n_steps = int(math.ceil(horizon / dt - 1e-12))
    t = 0.0
    for step in range(n_steps):
        t_end = min(horizon, (step + 1) * dt)
        t_cur = np.full(n_paths, t)
        active = np.ones(n_paths, dtype=bool)
        while True:
            ev = np.minimum(next_switch, t_end)
            dur = ev - t_cur
            move = np.nonzero(active & (dur > 0))[0]
            for j in (1, 2):
                grp = move[state[move] == j]
                if grp.size:
                    dl = sl.sample_increment(specs[j - 1], dur[grp], rng)
                    z[grp] += params[j - 1].mu * dl + params[j - 1].sigma * np.sqrt(
                        dl
                    ) * rng.standard_normal(grp.size)
            t_cur[move] = ev[move]
            switching = active & (next_switch <= t_end)
            if not switching.any():
                break
            sw = np.nonzero(switching)[0]
            state[sw] = 3 - state[sw]
            rates = np.where(state[sw] == 1, model.lambda12, model.lambda21)
            fresh = np.where(
                rates > 0, rng.exponential(1.0, sw.size) / np.maximum(rates, 1e-300), np.inf
            )
            next_switch[sw] = ev[sw] + fresh
            active = switching
        t = t_end
    return z


def _reference_price(model, contract, n_paths, seed):
    """price_european_mc with its B equal blocks one after another: block k
    holds paths [n_paths*k // B, n_paths*(k+1) // B) and draws from stream k."""
    streams = np.random.default_rng(seed).spawn(-(-n_paths // sl.mc._BLOCK))
    sizes = [n_paths * (k + 1) // len(streams) - n_paths * k // len(streams) for k in range(len(streams))]
    z = np.concatenate(
        [_reference_sample_terminal(model, contract.maturity, m, DT, g) for m, g in zip(sizes, streams)]
    )
    payoff, _ = sl.mc.option_payoff(model.s0 * np.exp(z), contract.strike, contract.kind)
    disc = math.exp(-model.r * contract.maturity)
    price = disc * float(payoff.mean())
    se = disc * float(payoff.std(ddof=1)) / math.sqrt(n_paths)
    return price, se, (price - sl.mc.Z95 * se, price + sl.mc.Z95 * se)


def _two_regime_model(family, lambda12, lambda21):
    p1 = sl.RegimeParams(0.01, 0.3, 2.0, 2.0)
    p2 = sl.RegimeParams(-0.1, 0.6, 1.0, 4.0)
    return sl.SwitchingModel((p1, p2), lambda12, lambda21, family, 20.0, 0.04)


FAMILIES = [sl.Family.GAMMA, sl.Family.INVERSE_GAUSSIAN, sl.Family.IDENTITY]


class TestGridMarchBits:
    """sample_terminal draws in the order of the reference march, so every
    terminal value is the reference's to the bit."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("intensities", [(2.5, 1.0), (0.0, 3.0), (3.0, 0.0), (20.0, 10.0)])
    def test_equals_reference(self, family, intensities):
        model = _two_regime_model(family, *intensities)
        # 0.25 is 62.5 steps of 1/250: the last step is a half step
        for horizon in (0.25, 0.2):
            got = sl.sample_terminal(model, horizon, 3000, DT, np.random.default_rng(5))
            expected = _reference_sample_terminal(model, horizon, 3000, DT, np.random.default_rng(5))
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n_paths", [1, 100, 65_537])
    def test_equals_reference_at_any_path_count(self, family, n_paths):
        model = _two_regime_model(family, 20.0, 10.0)
        got = sl.sample_terminal(model, 0.05, n_paths, DT, np.random.default_rng(n_paths))
        expected = _reference_sample_terminal(model, 0.05, n_paths, DT, np.random.default_rng(n_paths))
        assert got.shape == (n_paths,) and np.array_equal(got, expected)

    def test_zero_length_last_step(self):
        """At 24,577 steps of 0.1 the rounded grid's last step is empty, so
        the first pass of that step keeps its dur > 0 mask and moves no path."""
        horizon, dt = 2457.6000000000004, 0.1
        assert min(horizon, (math.ceil(horizon / dt - 1e-12) - 1) * dt) == horizon
        model = _two_regime_model(sl.Family.IDENTITY, 0.2, 0.3)
        got = sl.sample_terminal(model, horizon, 2, dt, np.random.default_rng(6))
        expected = _reference_sample_terminal(model, horizon, 2, dt, np.random.default_rng(6))
        assert np.array_equal(got, expected)


class TestOptionPayoff:
    def test_matches_call_and_put_payoffs_bit_for_bit(self):
        """max(w (S_T - K), 0) is max(S_T - K, 0) or max(K - S_T, 0) to the
        bit, +0 at S_T = K included; the weight is w S_T on s > K for a
        call and on s < K for a put, 0 elsewhere."""
        k = 20.0
        s = np.random.default_rng(0).uniform(15.0, 25.0, 10_001)
        s[::10] = k
        for kind, w, expected, mask in (
            (CALL, 1.0, np.maximum(s - k, 0.0), s > k),
            (PUT, -1.0, np.maximum(k - s, 0.0), s < k),
        ):
            payoff, weight = sl.mc.option_payoff(s, k, kind)
            assert payoff.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(weight != 0, mask)
            assert weight.tobytes() == np.multiply(mask, w * s).tobytes()


class TestPriceEuropeanMc:
    def test_degenerate_price_exact(self):
        model = _absorbing_model(0.08, 1e-12, r=0.03)
        res = sl.price_european_mc(model, sl.ContractSpec(15.0, 1.0, CALL), 1000, seed=0)
        expected = math.exp(-0.03) * (20.0 * math.exp(0.08) - 15.0)
        assert res.price == pytest.approx(expected, abs=1e-6)
        assert res.std_error == pytest.approx(0.0, abs=1e-9)

    def test_reference_value_in_ci(self):
        model = bs_reduced_model(0.04, 0.5)
        res = sl.price_european_mc(model, sl.ContractSpec(1.0, 1.0, CALL), 200_000, seed=7)
        assert res.ci95[0] <= 19.0392 <= res.ci95[1]
        assert res.ci95[0] <= res.price <= res.ci95[1]
        assert res.n_paths == 200_000

    def test_ci_width_scales_with_paths(self):
        model = bs_reduced_model(0.04, 0.5)
        c = sl.ContractSpec(18.0, 1.0, CALL)
        w1 = np.mean(
            [np.diff(sl.price_european_mc(model, c, 10_000, seed=s).ci95)[0] for s in range(4)]
        )
        w4 = np.mean(
            [np.diff(sl.price_european_mc(model, c, 40_000, seed=s).ci95)[0] for s in range(4)]
        )
        assert w4 / w1 == pytest.approx(0.5, rel=0.15)

    def test_martingale_forward(self):
        r = 0.05
        prms = tuple(
            rn_regime(s, a, b, sl.Family.GAMMA, r) for s, a, b in ((0.3, 2.0, 1.5), (0.5, 4.0, 2.5))
        )
        model = sl.SwitchingModel(prms, 3.0, 1.0, sl.Family.GAMMA, 20.0, r)
        z = sl.sample_terminal(model, 1.0, 100_000, DT, np.random.default_rng(8))
        s_t = 20.0 * np.exp(z)
        fwd = math.exp(-r) * s_t.mean()
        se = math.exp(-r) * s_t.std(ddof=1) / math.sqrt(s_t.size)
        assert abs(fwd - 20.0) < 3 * se

    def test_put_pricing_is_direct_not_parity(self):
        """Puts are unbiased even when the drift is not risk neutral."""
        model = _absorbing_model(0.2, 0.3, r=0.04)  # drift far from martingale
        res = sl.price_european_mc(model, sl.ContractSpec(22.0, 1.0, PUT), 200_000, seed=9)
        from scipy.stats import norm

        # lognormal with drift mu: E[S] = s0 exp((mu + sigma^2/2) T)
        d1 = (math.log(20.0 / 22.0) + (0.2 + 0.09) * 1.0) / 0.3
        d2 = d1 - 0.3
        expected = math.exp(-0.04) * (
            22.0 * norm.cdf(-d2) - 20.0 * math.exp(0.2 + 0.045) * norm.cdf(-d1)
        )
        assert res.ci95[0] <= expected <= res.ci95[1]

    def test_deterministic_for_fixed_seed(self, fig2a_model):
        c = sl.ContractSpec(20.0, 1.0, CALL)
        a = sl.price_european_mc(fig2a_model, c, 70_000, seed=10)
        b = sl.price_european_mc(fig2a_model, c, 70_000, seed=10)
        assert a.price == b.price and a.std_error == b.std_error

    @pytest.mark.parametrize("n_paths", [70_000, 200_000])
    def test_result_does_not_depend_on_cpu_count(self, monkeypatch, n_paths):
        """Each block draws from its own stream and fills its own slice, so
        the result is the serial reference's whatever the thread count."""
        model = _two_regime_model(sl.Family.GAMMA, 20.0, 10.0)
        contract = sl.ContractSpec(20.0, 0.1, CALL)
        expected = _reference_price(model, contract, n_paths, 13)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(sl.subordinators, "_usable_cpus", lambda: cpus)
            res = sl.price_european_mc(model, contract, n_paths, seed=13)
            assert (res.price, res.std_error, res.ci95) == expected

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        model = _two_regime_model(sl.Family.IDENTITY, 20.0, 10.0)
        contract = sl.ContractSpec(20.0, 0.02, PUT)
        expected = _reference_price(model, contract, 200_000, 14)
        monkeypatch.setattr(sl.subordinators, "_usable_cpus", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                res = sl.price_european_mc(model, contract, 200_000, seed=14)
                assert (res.price, res.std_error, res.ci95) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_blocks_share_the_cpus_with_the_caller(self, monkeypatch):
        """200k paths are 4 blocks; on 3 CPUs the caller runs the first and
        two threads made for the call run the others."""
        caller, ran = threading.current_thread(), []
        sample = sl.mc.sample_terminal

        def recording(model, horizon, n_paths, dt, rng):
            ran.append((threading.get_ident(), threading.current_thread() is caller))
            return sample(model, horizon, n_paths, dt, rng)

        monkeypatch.setattr(sl.subordinators, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(sl.mc, "sample_terminal", recording)
        model = _two_regime_model(sl.Family.IDENTITY, 2.5, 1.0)
        sl.price_european_mc(model, sl.ContractSpec(20.0, 0.02, CALL), 200_000, seed=0)
        assert len(ran) == 4 and sum(on_caller for _, on_caller in ran) == 1
        assert len({ident for ident, _ in ran}) == 3

    @pytest.mark.parametrize(
        "n_paths, sizes",
        [
            (100_000, [50_000, 50_000]),
            (65_537, [32_768, 32_769]),
            (65_536, [65_536]),
            (131_072, [65_536, 65_536]),
        ],
    )
    def test_blocks_are_equal_in_size(self, monkeypatch, n_paths, sizes):
        """ceil(n_paths / 65,536) blocks, their sizes differing by at most one
        path. At most 65,536 paths, or a multiple of it, is the layout of
        fixed 65,536-path blocks, so the result is that layout's to the bit."""
        ran, sample = [], sl.mc.sample_terminal

        def recording(model, horizon, n, dt, rng):
            ran.append(n)
            return sample(model, horizon, n, dt, rng)

        monkeypatch.setattr(sl.subordinators, "_usable_cpus", lambda: 1)  # blocks in order
        monkeypatch.setattr(sl.mc, "sample_terminal", recording)
        model = _two_regime_model(sl.Family.GAMMA, 2.5, 1.0)
        contract = sl.ContractSpec(20.0, 0.02, CALL)
        res = sl.price_european_mc(model, contract, n_paths, seed=15)
        assert ran == sizes
        if n_paths % sl.mc._BLOCK == 0:
            streams = np.random.default_rng(15).spawn(-(-n_paths // sl.mc._BLOCK))
            fixed = [min(sl.mc._BLOCK, n_paths - k * sl.mc._BLOCK) for k in range(len(streams))]
            z = np.concatenate([sample(model, 0.02, m, DT, g) for m, g in zip(fixed, streams)])
            payoff, _ = sl.mc.option_payoff(model.s0 * np.exp(z), contract.strike, contract.kind)
            disc = math.exp(-model.r * contract.maturity)
            price = disc * float(payoff.mean())
            se = disc * float(payoff.std(ddof=1)) / math.sqrt(n_paths)
            ci95 = (price - sl.mc.Z95 * se, price + sl.mc.Z95 * se)
            assert (res.price, res.std_error, res.ci95) == (price, se, ci95)

    def test_one_block_stays_on_the_calling_thread(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-block call made a thread pool")

        monkeypatch.setattr(sl.subordinators, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        model = _two_regime_model(sl.Family.GAMMA, 2.5, 1.0)
        res = sl.price_european_mc(model, sl.ContractSpec(20.0, 0.1, CALL), sl.mc._BLOCK, seed=1)
        assert res.n_paths == sl.mc._BLOCK

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_block_error_reaches_the_caller(self, monkeypatch, cpus):
        """A maturity below dt fails in every block, on every thread."""
        model = _two_regime_model(sl.Family.GAMMA, 2.5, 1.0)
        monkeypatch.setattr(sl.subordinators, "_usable_cpus", lambda: cpus)
        with pytest.raises(ValueError, match="dt <= horizon"):
            sl.price_european_mc(model, sl.ContractSpec(20.0, 0.5 * DT, CALL), 200_000, seed=2)

    def test_minimum_paths(self, fig2a_model):
        with pytest.raises(ValueError):
            sl.price_european_mc(fig2a_model, sl.ContractSpec(20.0, 1.0, CALL), 50, seed=0)

    def test_ig_interval_wider_than_gamma_below_unit_beta(self):
        """Clock variance alpha/beta^3 vs alpha/beta^2 drives the price CI
        width when beta < 1 and the drift term is material."""
        p = sl.RegimeParams(0.01, 0.18, 0.5, 0.4)
        q = sl.RegimeParams(0.01, 0.18, 0.5, 0.3)
        widths = {}
        for fam in (sl.Family.INVERSE_GAUSSIAN, sl.Family.GAMMA):
            model = sl.SwitchingModel((p, q), 5.0, 2.0, fam, 20.0, 0.04)
            res = sl.price_european_mc(model, sl.ContractSpec(20.0, 1.0, CALL), 10_000, seed=12)
            widths[fam] = res.ci95[1] - res.ci95[0]
        assert widths[sl.Family.INVERSE_GAUSSIAN] > widths[sl.Family.GAMMA]


class TestFrozenTerminalSampler:
    def test_matches_plain_sampler_distribution(self, fig2a_model):
        sampler = sl.FrozenTerminalSampler(
            fig2a_model.family, fig2a_model.lambda12, fig2a_model.lambda21, 1.0, 40_000, seed=13
        )
        z_frozen = sampler.evaluate(*fig2a_model.regimes)
        z_plain = sl.sample_terminal(fig2a_model, 1.0, 40_000, DT, np.random.default_rng(14))
        se = math.sqrt(z_frozen.var() / z_frozen.size + z_plain.var() / z_plain.size)
        assert abs(z_frozen.mean() - z_plain.mean()) < 3 * se

    def test_smooth_in_parameters(self, fig2a_model):
        sampler = sl.FrozenTerminalSampler(sl.Family.GAMMA, 2.0, 1.0, 1.0, 5_000, seed=15)
        p1, p2 = sl.RegimeParams(0.1, 0.4, 1.5, 2.0), sl.RegimeParams(-0.1, 0.6, 1.0, 1.0)
        base = sampler.evaluate(p1, p2)
        bumped = sampler.evaluate(sl.RegimeParams(0.1 + 1e-7, 0.4, 1.5, 2.0), p2)
        assert np.max(np.abs(bumped - base)) < 1e-5

    def test_reproducible(self):
        s1 = sl.FrozenTerminalSampler(sl.Family.GAMMA, 2.0, 1.0, 1.0, 1_000, seed=16)
        s2 = sl.FrozenTerminalSampler(sl.Family.GAMMA, 2.0, 1.0, 1.0, 1_000, seed=16)
        p1, p2 = sl.RegimeParams(0.1, 0.4, 1.5, 2.0), sl.RegimeParams(-0.1, 0.6, 1.0, 1.0)
        np.testing.assert_array_equal(s1.evaluate(p1, p2), s2.evaluate(p1, p2))

    @pytest.mark.parametrize("family", [sl.Family.GAMMA, sl.Family.INVERSE_GAUSSIAN])
    @pytest.mark.parametrize("lambda12", [0.0, 3.0])
    def test_reuse_is_exact_after_any_probe_sequence(self, family, lambda12):
        """Kept increments never change a result: every evaluation equals a
        fresh sampler's, also for keys evicted and then asked for again."""
        def fresh():
            return sl.FrozenTerminalSampler(family, lambda12, 2.0, 1.0, 2_000, seed=17)

        assert (len(fresh()._rounds) > 1) == (lambda12 > 0)
        x0 = np.array([0.1, 0.4, 1.5, 2.0, -0.1, 0.6, 1.0, 1.2])
        # the base point, then one probe per coordinate as forward differences take them
        xs = [x0] + [x0 * (1.0 + 1e-3 * np.eye(8)[i]) for i in range(8)]
        points = [(sl.RegimeParams.from_array(x[:4]), sl.RegimeParams.from_array(x[4:])) for x in xs]
        order = list(range(len(points))) + [0, 3, 1, 8, 2, 0, 7, 4, 0]
        sampler = fresh()
        for k in order:
            assert np.array_equal(sampler.evaluate(*points[k]), fresh().evaluate(*points[k]))

    @pytest.mark.parametrize("family", list(sl.Family))
    def test_single_regime_round_is_the_increment_formula(self, family):
        """With lambda12 = 0 the sampler is the simulated likelihood's
        increment generator: draws u, nu, z, N in that order, one step dt."""
        prm, dt, n, seed = sl.RegimeParams(0.1, 0.4, 1.5, 2.0), DT, 5_000, 19
        rng = np.random.default_rng(seed)
        u, nu, zz, nrm = rng.random(n), rng.standard_normal(n), rng.random(n), rng.standard_normal(n)
        dl = sl.subordinators.increment_from_draws(sl.SubordinatorSpec(family, 1.5, 2.0), dt, u, nu, zz)
        expected = prm.mu * dl + prm.sigma * np.sqrt(dl) * nrm
        sampler = sl.FrozenTerminalSampler(family, 0.0, 1.0, dt, n, seed)
        assert np.array_equal(sampler.evaluate(prm, prm), expected)

    @pytest.mark.parametrize(
        "family, transforms", [(sl.Family.GAMMA, 2), (sl.Family.INVERSE_GAUSSIAN, 3)]
    )
    def test_probes_reuse_the_transform(self, monkeypatch, family, transforms):
        """Gamma increments depend on alpha alone, IG ones on (alpha, beta);
        mu and sigma never need a new transform."""
        calls = []
        transform = sl.mc.increment_from_draws

        def counting(*args):
            calls.append(args[0])
            return transform(*args)

        monkeypatch.setattr(sl.mc, "increment_from_draws", counting)
        sampler = sl.FrozenTerminalSampler(family, 0.0, 1.0, DT, 1_000, seed=20)
        base = sl.RegimeParams(0.1, 0.4, 1.5, 2.0)
        probes = [base] + [
            sl.RegimeParams.from_array(base.as_array() + 1e-4 * np.eye(4)[i]) for i in range(4)
        ] + [base]
        for prm in probes:
            sampler.evaluate(prm, prm)
        assert len(calls) == transforms

    @pytest.mark.parametrize("family", [sl.Family.GAMMA, sl.Family.INVERSE_GAUSSIAN])
    @pytest.mark.parametrize("horizon, n_paths", [(0.0, 100), (-1.0, 100), (1.0, 0)])
    def test_rejects_empty_horizon_or_no_paths(self, family, horizon, n_paths):
        with pytest.raises(ValueError):
            sl.FrozenTerminalSampler(family, 2.0, 1.0, horizon, n_paths, seed=21)

    @pytest.mark.parametrize("family", [sl.Family.GAMMA, sl.Family.INVERSE_GAUSSIAN])
    def test_one_transform_per_leg_whatever_the_intensities(self, monkeypatch, family):
        """At intensities (20, 10) a path makes ~20 sojourns, but the
        sampler keeps two legs and transforms each once per evaluation."""
        calls = []
        transform = sl.mc.increment_from_draws

        def counting(*args):
            calls.append(1)
            return transform(*args)

        monkeypatch.setattr(sl.mc, "increment_from_draws", counting)
        sampler = sl.FrozenTerminalSampler(family, 20.0, 10.0, 1.0, 5_000, seed=22)
        sampler.evaluate(sl.RegimeParams(0.1, 0.4, 1.5, 2.0), sl.RegimeParams(-0.1, 0.6, 1.0, 1.2))
        assert len(sampler._rounds) == 2
        assert len(calls) <= 2

    def test_leg_two_holds_exactly_the_switching_paths(self):
        """At lambda12 = 0.5 most paths never leave regime 1: leg 1 covers
        every path over tau, leg 2 only the paths with T - tau > 0."""
        horizon, n = 1.0, 5_000
        sampler = sl.FrozenTerminalSampler(sl.Family.INVERSE_GAUSSIAN, 0.5, 1.0, horizon, n, seed=23)
        (idx1, tau, state1, *_), (idx2, dur2, state2, *_) = sampler._rounds
        assert (state1, state2) == (1, 2)
        np.testing.assert_array_equal(idx1, np.arange(n))
        switched = np.flatnonzero(horizon - tau > 0)
        np.testing.assert_array_equal(idx2, switched)
        np.testing.assert_array_equal(dur2, (horizon - tau)[switched])
        assert 0 < switched.size < n / 2
        p1, p2 = sl.RegimeParams(0.1, 0.4, 1.5, 2.0), sl.RegimeParams(-0.1, 0.6, 1.0, 1.2)
        assert np.all(np.isfinite(sampler.evaluate(p1, p2)))
        weights = np.random.default_rng(24).standard_normal((2, n))
        assert np.all(np.isfinite(sampler.weighted_gradient(p1, p2, weights)))

    @pytest.mark.parametrize("family", [sl.Family.GAMMA, sl.Family.INVERSE_GAUSSIAN])
    @pytest.mark.parametrize("lambda12, lambda21", [(2.5, 1.0), (20.0, 10.0)])
    def test_law_matches_exact_values(self, family, lambda12, lambda21):
        """E[exp(Z_T)], the mean and the variance of the occupation-time
        draws against the switching CF at -i and the exact cumulants,
        within 4 standard errors."""
        prms = tuple(rn_regime(s, a, b, family, 0.04) for s, a, b in ((0.3, 2.0, 1.5), (0.5, 4.0, 2.5)))
        model = sl.SwitchingModel(prms, lambda12, lambda21, family, 20.0, 0.04)
        horizon, n = 1.0, 40_000
        z = sl.FrozenTerminalSampler(family, lambda12, lambda21, horizon, n, seed=25).evaluate(*prms)
        cf = sl.CharFn(model, horizon, y0=0.0)
        c1, c2, _ = sl.cos.log_return_cumulants(cf)
        growth = np.exp(z)
        assert abs(growth.mean() - sl.switching_cf(cf, -1j).real) < 4 * growth.std(ddof=1) / math.sqrt(n)
        assert abs(z.mean() - c1) < 4 * z.std(ddof=1) / math.sqrt(n)
        var = z.var(ddof=1)
        assert abs(var - c2) < 4 * math.sqrt((np.mean((z - z.mean()) ** 4) - var**2) / n)


def test_price_path_validation():
    with pytest.raises(ValueError):
        sl.PricePath(np.array([0.0, 1.0]), np.array([0.0]), np.array([1, 1]))


class TestFamilyByValueAndKeptIncrements:
    P1, P2 = sl.RegimeParams(0.1, 0.4, 1.5, 2.0), sl.RegimeParams(-0.1, 0.6, 1.0, 1.2)

    @pytest.mark.parametrize("family", list(sl.Family))
    def test_frozen_sampler_takes_family_by_value(self, family):
        by_value = sl.FrozenTerminalSampler(family.value, 3.0, 2.0, 0.5, 2_000, seed=23)
        by_member = sl.FrozenTerminalSampler(family, 3.0, 2.0, 0.5, 2_000, seed=23)
        assert by_value.family is family
        assert np.array_equal(by_value.evaluate(self.P1, self.P2), by_member.evaluate(self.P1, self.P2))
        weights = np.random.default_rng(24).random((2, 2_000))
        assert np.array_equal(
            by_value.weighted_gradient(self.P1, self.P2, weights),
            by_member.weighted_gradient(self.P1, self.P2, weights),
        )

    def test_frozen_sampler_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            sl.FrozenTerminalSampler("cauchy", 3.0, 2.0, 0.5, 2_000, seed=23)

    @pytest.mark.parametrize("family", list(sl.Family))
    def test_kept_increments_are_read_only(self, family):
        """A write into a kept increment raises, so it cannot change any
        later evaluation."""
        sampler = sl.FrozenTerminalSampler(family, 3.0, 2.0, 0.5, 2_000, seed=25)
        sampler.evaluate(self.P1, self.P2)
        for idx, _, state, _, increment in sampler._rounds:
            prm = self.P1 if state == 1 else self.P2
            kept = increment(prm.alpha, 1.0 if family is sl.Family.GAMMA else prm.beta)
            with pytest.raises(ValueError):
                kept[0] = 1.0
            with pytest.raises(ValueError):
                kept *= 2.0
        fresh = sl.FrozenTerminalSampler(family, 3.0, 2.0, 0.5, 2_000, seed=25)
        assert np.array_equal(sampler.evaluate(self.P1, self.P2), fresh.evaluate(self.P1, self.P2))


def test_price_takes_a_generator_as_seed(fig2a_model):
    contract = sl.ContractSpec(20.0, 0.5, CALL)
    by_int = sl.price_european_mc(fig2a_model, contract, 5_000, seed=9)
    by_generator = sl.price_european_mc(fig2a_model, contract, 5_000, seed=np.random.default_rng(9))
    assert by_int == by_generator
    assert not hasattr(by_int, "seed")


class TestInfiniteInputs:
    """An infinite intensity makes every sojourn 0, so a sampled path would
    switch without end, and an infinite horizon never ends either. The
    samplers refuse both before their first draw, as COS refuses the
    infinite intensity (non-finite cumulants)."""

    P1, P2 = sl.RegimeParams(0.01, 0.3, 2.0, 2.0), sl.RegimeParams(-0.1, 0.6, 1.0, 4.0)
    INTENSITIES = [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)]

    def _model(self, lambda12, lambda21):
        return sl.SwitchingModel((self.P1, self.P2), lambda12, lambda21, sl.Family.GAMMA, 20.0, 0.04)

    @pytest.mark.parametrize("intensities", INTENSITIES)
    def test_terminal_sampler_and_price(self, intensities):
        model = self._model(*intensities)
        rng = np.random.default_rng(31)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite switching intensities"):
            sl.sample_terminal(model, 0.5, 1_000, DT, rng)
        assert rng.bit_generator.state == state  # refused before any draw
        for n_paths in (1_000, 200_000):  # one block, and blocks on several threads
            with pytest.raises(ValueError, match="finite switching intensities"):
                sl.price_european_mc(model, sl.ContractSpec(20.0, 0.5, CALL), n_paths, seed=31)

    # not (inf, inf): without the check that path grows without end
    @pytest.mark.parametrize("intensities", INTENSITIES[:2])
    def test_path_simulation(self, intensities):
        rng = np.random.default_rng(32)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite switching intensities"):
            sl.simulate_path(self._model(*intensities), 0.5, DT, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("family", list(sl.Family))
    @pytest.mark.parametrize("intensities", INTENSITIES)
    def test_frozen_sampler_intensity(self, family, intensities):
        with pytest.raises(ValueError, match="finite switching intensities"):
            sl.FrozenTerminalSampler(family, *intensities, 0.5, 1_000, seed=33)

    def test_path_and_terminal_horizon(self):
        """An infinite horizon overflowed the step count (OverflowError,
        which the CLI does not report as an input error)."""
        model = self._model(2.0, 1.0)
        with pytest.raises(ValueError, match="horizon < inf"):
            sl.simulate_path(model, math.inf, DT, np.random.default_rng(35))
        with pytest.raises(ValueError, match="horizon < inf"):
            sl.sample_terminal(model, math.inf, 100, DT, np.random.default_rng(35))

    @pytest.mark.parametrize("family", list(sl.Family))
    def test_frozen_sampler_horizon(self, family):
        with pytest.raises(ValueError, match="finite horizon"):
            sl.FrozenTerminalSampler(family, 2.0, 1.0, math.inf, 1_000, seed=34)
