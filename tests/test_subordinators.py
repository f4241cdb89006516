import re
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

import switchlevy as sl
from switchlevy.subordinators import (
    increment_from_draws,
    laplace_exponent_derivatives,
    spec_for,
)

GAMMA = sl.Family.GAMMA
IG = sl.Family.INVERSE_GAUSSIAN
IDENTITY = sl.Family.IDENTITY


def _spec(family, alpha=0.1, beta=0.1):
    return sl.SubordinatorSpec(family, alpha, beta)


class TestLaplaceExponent:
    @pytest.mark.parametrize("family", [GAMMA, IG, IDENTITY])
    def test_zero_normalization(self, family):
        assert sl.laplace_exponent(_spec(family), 0.0) == 0

    def test_gamma_mgf_against_monte_carlo(self):
        """exp(ell(s)) vs the sample mean of exp(s L_1), 1e6 Gamma draws."""
        spec = _spec(GAMMA, 0.1, 0.1)
        s = 0.03  # keep exp(2 s L) integrable so the SE is meaningful
        rng = np.random.default_rng(10)
        draws = np.exp(s * rng.gamma(0.1, 10.0, size=1_000_000))
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        target = np.exp(sl.laplace_exponent(spec, s)).real
        assert abs(draws.mean() - target) < 3 * se

    def test_ig_mean_via_finite_differences(self):
        spec = _spec(IG, 0.1, 10.0)
        h = 1e-6
        deriv = (sl.laplace_exponent(spec, h) - sl.laplace_exponent(spec, -h)).real / (2 * h)
        assert deriv == pytest.approx(0.01, abs=1e-6)  # alpha / beta

    def test_identity_is_linear(self):
        s = 0.3 - 0.7j
        assert sl.laplace_exponent(_spec(IDENTITY), s) == s

    def test_gamma_branch_violation(self):
        with pytest.raises(sl.BranchCutError, match="0.2"):
            sl.laplace_exponent(_spec(GAMMA, 0.1, 0.1), 0.2)

    def test_ig_branch_violation(self):
        spec = _spec(IG, 0.1, 0.1)
        with pytest.raises(sl.BranchCutError):
            sl.laplace_exponent(spec, 0.1)  # beta^2/2 = 0.005 < 0.1

    def test_cos_grid_arguments_stay_on_branch(self):
        """Real-u characteristic arguments never touch the cuts."""
        u = np.linspace(-500, 500, 2001)
        for family, params in ((GAMMA, (0.1, 0.1)), (IG, (0.1, 0.1))):
            spec = _spec(family, *params)
            arg = 1j * 0.5 * u - 0.5 * 4.0 * u**2
            vals = sl.laplace_exponent(spec, arg)
            assert np.all(np.isfinite(vals))

    @staticmethod
    def _cf_arguments(rng):
        """A random model's s = i mu u - sigma^2 u^2 / 2 at |u| from 1e-8 to
        1e4, where |1 - s/beta| -> 1 at the small end."""
        alpha, beta = rng.uniform(0.1, 20.0, 2)
        mu, sigma = rng.uniform(-1.0, 1.0), rng.uniform(0.05, 1.0)
        u = 10.0 ** rng.uniform(-8.0, 4.0, 2000) * rng.choice([-1.0, 1.0], 2000)
        return alpha, beta, 1j * mu * u - 0.5 * sigma**2 * u * u

    def test_gamma_real_arithmetic_matches_complex_log(self):
        """-alpha log(1 - s/beta) in real arithmetic against the complex log.

        The complex form rounds 1 - s/beta to a double before its log, which
        costs it up to alpha eps absolute, about 1e-7 relative at |u| = 1e-8;
        there the reference is the series of log(1 + w), w = -s/beta. Both
        agree to 1e-14 relative."""
        rng = np.random.default_rng(44)
        eps = np.finfo(float).eps
        for _ in range(50):
            alpha, beta, s = self._cf_arguments(rng)
            ell = sl.laplace_exponent(_spec(GAMMA, alpha, beta), s)
            complex_form = -alpha * np.log(1.0 - s / beta)
            assert np.all(np.abs(ell - complex_form) <= 1e-14 * np.abs(complex_form) + alpha * eps)
            w = -s / beta
            small = np.abs(w) < 0.1
            reference = complex_form.copy()
            reference[small] = -alpha * sum((-1.0) ** (j + 1) * w[small] ** j / j for j in range(24, 0, -1))
            assert np.all(np.abs(ell - reference) <= 1e-14 * np.abs(reference))

    def test_ig_real_arithmetic_matches_complex_root(self):
        """-alpha (sqrt(beta^2 - 2s) - beta) in real arithmetic against the
        complex root to 1e-14 relative, and bit for bit for a real s (the
        martingale drift and the IG fits)."""
        rng = np.random.default_rng(45)
        for _ in range(50):
            alpha, beta, s = self._cf_arguments(rng)
            ell = sl.laplace_exponent(_spec(IG, alpha, beta), s)
            complex_form = -alpha * (np.sqrt(beta * beta - 2.0 * s) - beta)
            assert np.all(np.abs(ell - complex_form) <= 1e-14 * np.abs(complex_form))
            real_s = rng.uniform(-50.0, 0.5 * beta * beta, 200)
            ell = sl.laplace_exponent(_spec(IG, alpha, beta), real_s)
            complex_form = -alpha * (np.sqrt(beta * beta - 2.0 * real_s.astype(complex)) - beta)
            assert ell.tobytes() == complex_form.tobytes()

    @pytest.mark.parametrize("family", [GAMMA, IG])
    def test_scalar_type_and_branch_points(self, family):
        """A 0-d s gives a Python complex, and BranchCutError names the first
        s whose complex argument (1 - s/beta or beta^2 - 2s) has real part <= 0."""
        spec = _spec(family, 0.7, 2.0)
        assert type(sl.laplace_exponent(spec, 0.3 - 0.2j)) is complex
        assert type(sl.laplace_exponent(spec, np.float64(0.3))) is complex
        edge = spec.beta if family is GAMMA else 0.5 * spec.beta**2
        s = edge * (1.0 + np.array([-4.0, -2.0, -1.0, 0.0, 1.0]) * np.finfo(float).eps) + 1j
        arg = 1.0 - s / spec.beta if family is GAMMA else spec.beta**2 - 2.0 * s
        for stop in range(1, len(s) + 1):
            bad = arg[:stop].real <= 0
            if not bad.any():
                assert np.all(np.isfinite(sl.laplace_exponent(spec, s[:stop])))
                continue
            with pytest.raises(sl.BranchCutError, match=re.escape(f"s={s[:stop][bad][0]} ")):
                sl.laplace_exponent(spec, s[:stop])


class TestSampling:
    def test_identity_increment_deterministic(self):
        rng = np.random.default_rng(0)
        assert sl.sample_increment(_spec(IDENTITY), 0.5, rng) == 0.5

    def test_gamma_mean(self):
        rng = np.random.default_rng(1)
        draws = sl.sample_increment(_spec(GAMMA, 0.1, 0.1), 1.0, rng, size=1_000_000)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_ig_variance_against_exponent_curvature(self):
        """Sample variance vs alpha/beta^3, cross-checked against the
        numerical second derivative of ell at 0."""
        spec = _spec(IG, 0.1, 0.1)
        rng = np.random.default_rng(2)
        draws = sl.sample_increment(spec, 1.0, rng, size=1_000_000)
        var = draws.var(ddof=1)
        # SE of the sample variance from the fourth central moment
        c = draws - draws.mean()
        se = np.sqrt((np.mean(c**4) - var**2) / draws.size)
        assert abs(var - 100.0) < 3 * se
        h = 1e-5  # ell'''' here is ~1e7, so the step must be small
        curv = (
            sl.laplace_exponent(spec, h) - 2 * sl.laplace_exponent(spec, 0.0)
            + sl.laplace_exponent(spec, -h)
        ).real / h**2
        assert curv == pytest.approx(100.0, rel=1e-4)

    @pytest.mark.parametrize(
        "seed,family,alpha,beta",
        [(40, GAMMA, 0.7, 2.0), (41, IG, 0.7, 2.0), (42, GAMMA, 0.1, 0.4), (43, IG, 2.0, 0.8)],
    )
    def test_first_two_cumulants_match_exponent(self, seed, family, alpha, beta):
        spec = _spec(family, alpha, beta)
        d1, d2, _, _ = laplace_exponent_derivatives(spec)
        rng = np.random.default_rng(seed)
        dt = 0.37
        draws = sl.sample_increment(spec, dt, rng, size=1_000_000)
        se_mean = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - d1 * dt) < 3 * se_mean
        c = draws - draws.mean()
        var = draws.var(ddof=1)
        se_var = np.sqrt(max(np.mean(c**4) - var**2, 0.0) / draws.size)
        assert abs(var - d2 * dt) < 3 * se_var

    def test_samples_nonnegative(self):
        rng = np.random.default_rng(3)
        g = sl.sample_increment(_spec(GAMMA, 0.05, 0.5), 1 / 250, rng, size=100_000)
        i = sl.sample_increment(_spec(IG, 0.05, 0.5), 1 / 250, rng, size=100_000)
        assert np.all(g >= 0)
        assert np.all(i > 0)

    def test_ig_variance_exceeds_gamma_iff_beta_below_one(self):
        """alpha/beta^3 > alpha/beta^2 exactly when beta < 1."""
        for beta, expect in ((0.5, True), (2.0, False)):
            dg = laplace_exponent_derivatives(_spec(GAMMA, 0.3, beta))[1]
            di = laplace_exponent_derivatives(_spec(IG, 0.3, beta))[1]
            assert (di > dg) is expect
        rng = np.random.default_rng(4)
        vg = sl.sample_increment(_spec(GAMMA, 0.3, 0.5), 1.0, rng, size=100_000).var()
        vi = sl.sample_increment(_spec(IG, 0.3, 0.5), 1.0, rng, size=100_000).var()
        assert vi > vg

    def test_dt_must_be_positive(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            sl.sample_increment(_spec(GAMMA), 0.0, rng)


class TestFrozenDrawTransforms:
    def test_gamma_inverse_cdf_matches_sampler_moments(self):
        rng = np.random.default_rng(6)
        n = 200_000
        spec = _spec(GAMMA, 0.8, 2.0)
        via_inv = increment_from_draws(spec, 0.5, rng.random(n), None, None)
        via_rng = sl.sample_increment(spec, 0.5, rng, size=n)
        se = np.sqrt(via_inv.var() / n + via_rng.var() / n)
        assert abs(via_inv.mean() - via_rng.mean()) < 3 * se

    def test_ig_transform_matches_sampler_moments(self):
        rng = np.random.default_rng(7)
        n = 200_000
        spec = _spec(IG, 0.8, 2.0)
        via_draws = increment_from_draws(spec, 0.5, None, rng.standard_normal(n), rng.random(n))
        via_rng = sl.sample_increment(spec, 0.5, rng, size=n)
        se = np.sqrt(via_draws.var() / n + via_rng.var() / n)
        assert abs(via_draws.mean() - via_rng.mean()) < 3 * se

    def test_transform_is_smooth_in_parameters(self):
        """Frozen draws: output moves O(eps) when parameters move eps."""
        rng = np.random.default_rng(8)
        n = 10_000
        u, nu, z = rng.random(n), rng.standard_normal(n), rng.random(n)
        for family in (GAMMA, IG):
            a = increment_from_draws(_spec(family, 1.0, 2.0), 0.1, u, nu, z)
            b = increment_from_draws(_spec(family, 1.0 + 1e-6, 2.0), 0.1, u, nu, z)
            assert np.max(np.abs(a - b)) < 1e-3

    def test_spec_for_carries_regime_parameters(self):
        prm = sl.RegimeParams(0.1, 0.2, 0.3, 0.4)
        spec = spec_for(prm, GAMMA)
        assert (spec.alpha, spec.beta, spec.family) == (0.3, 0.4, GAMMA)


class TestSplitGammaInverse:
    """The Gamma inverse CDF split across threads equals one serial
    gammaincinv call bit for bit, whatever the chunk count."""

    CHUNK = sl.subordinators._SPLIT_CHUNK

    @staticmethod
    def _recording(monkeypatch, cpus, fail_on=None):
        """Force the CPU count; count the gammaincinv calls, and raise in the
        chunk run by the caller's thread or by a worker when asked to."""
        calls = []
        caller = threading.current_thread()

        def gammaincinv(a, u, **kw):
            calls.append(np.size(u))
            on_caller = threading.current_thread() is caller
            if fail_on is not None and on_caller == (fail_on == "caller"):
                raise FloatingPointError(f"chunk on the {fail_on}")
            return special.gammaincinv(a, u, **kw)

        monkeypatch.setattr(sl.subordinators, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sl.subordinators, "special", SimpleNamespace(gammaincinv=gammaincinv))
        return calls

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 10_001])
    @pytest.mark.parametrize("per_path_dt", [False, True])
    def test_equals_serial_call(self, monkeypatch, cpus, n, per_path_dt):
        rng = np.random.default_rng(n + 17 * cpus)
        u = rng.random(n)
        u[: min(n, 2)] = (0.0, 1.0)[: min(n, 2)]  # both ends of the inverse CDF
        dt = rng.uniform(1e-3, 0.5, n) if per_path_dt else 0.5
        spec = _spec(GAMMA, 0.03, 2.5)
        expected = special.gammaincinv(spec.alpha * np.asarray(dt), u) / spec.beta
        calls = self._recording(monkeypatch, cpus)
        got = increment_from_draws(spec, dt, u, None, None)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        chunks = max(1, min(cpus, n // self.CHUNK))
        assert len(calls) == chunks and sum(calls) == n
        assert max(calls) - min(calls) <= 1  # contiguous chunks of equal size

    def test_scalar_draw_is_plain_call(self, monkeypatch):
        self._recording(monkeypatch, 4)
        got = increment_from_draws(_spec(GAMMA, 0.8, 2.0), 0.5, 0.3, None, None)
        assert got == special.gammaincinv(0.4, 0.3) / 2.0

    @pytest.mark.parametrize("paths, chunks", [(5000, 3), (500, 1)])
    def test_two_dimensional_draws(self, monkeypatch, paths, chunks):
        rng = np.random.default_rng(3)
        u, dt = rng.random((3, paths)), rng.uniform(0.1, 1.0, paths)
        calls = self._recording(monkeypatch, 3)
        got = increment_from_draws(_spec(GAMMA, 0.2, 1.0), dt, u, None, None)
        assert len(calls) == chunks
        assert np.array_equal(got, special.gammaincinv(0.2 * dt, u))

    @pytest.mark.parametrize("fail_on", ["caller", "worker"])
    def test_failing_chunk_reaches_caller(self, monkeypatch, fail_on):
        u = np.random.default_rng(4).random(4 * self.CHUNK)
        self._recording(monkeypatch, 4, fail_on=fail_on)
        with pytest.raises(FloatingPointError, match=fail_on):
            increment_from_draws(_spec(GAMMA, 0.8, 2.0), 0.5, u, None, None)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        rng = np.random.default_rng(5)
        u, dt = rng.random(40_000), rng.uniform(1e-3, 0.5, 40_000)
        expected = special.gammaincinv(0.03 * dt, u)
        monkeypatch.setattr(sl.subordinators, "_usable_cpus", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                assert np.array_equal(increment_from_draws(_spec(GAMMA, 0.03, 1.0), dt, u, None, None), expected)
        finally:
            sys.setswitchinterval(interval)

    def test_real_cpu_count_is_positive(self):
        assert sl.subordinators._usable_cpus() >= 1


class TestChunkedIgTransform:
    """The IG increments of more than _IG_CHUNK draws, transformed chunk by
    chunk, equal one call of the transform bit for bit."""

    CHUNK = sl.subordinators._IG_CHUNK

    @staticmethod
    def _one_shot(spec, dt, nu, z):
        dt = np.asarray(dt, dtype=float)
        mean = spec.alpha * dt / spec.beta
        return sl.subordinators._ig_transform(mean, (spec.alpha * dt) ** 2, nu, z)

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 65_536])
    @pytest.mark.parametrize("per_path_dt", [False, True])
    def test_equals_one_call(self, n, per_path_dt):
        rng = np.random.default_rng(n)
        nu, z = rng.standard_normal(n), rng.random(n)
        nu[: min(n, 2)] = (40.0, 1e-9)[: min(n, 2)]  # the clamped and the near-mean root
        dt = rng.uniform(1e-4, 0.5, n) if per_path_dt else 0.25
        spec = _spec(IG, 1.7, 2.3)
        expected = self._one_shot(spec, dt, nu, z)
        got = increment_from_draws(spec, dt, None, nu, z)
        assert got.shape == expected.shape == (n,)
        assert np.array_equal(got, expected)

    def test_scalar_draws(self):
        spec = _spec(IG, 1.7, 2.3)
        got = increment_from_draws(spec, 0.25, None, 0.7, 0.4)
        expected = self._one_shot(spec, 0.25, 0.7, 0.4)
        assert np.shape(got) == np.shape(expected) == ()
        assert np.array_equal(got, expected)

    def test_sample_increment_with_size(self):
        spec = _spec(IG, 0.8, 2.0)
        got = sl.sample_increment(spec, 0.5, np.random.default_rng(9), size=3 * self.CHUNK + 5)
        rng = np.random.default_rng(9)
        nu = rng.standard_normal(got.size)
        assert np.array_equal(got, self._one_shot(spec, 0.5, nu, rng.random(got.size)))

    def test_two_dimensional_draws(self):
        """More than one chunk of 2-D draws, with a per-column dt that is
        broadcast across the rows."""
        rng = np.random.default_rng(10)
        nu, z, dt = rng.standard_normal((3, 6000)), rng.random((3, 6000)), rng.uniform(0.1, 1.0, 6000)
        assert nu.size > self.CHUNK
        spec = _spec(IG, 0.6, 1.5)
        got = increment_from_draws(spec, dt, None, nu, z)
        assert got.shape == (3, 6000)
        assert np.array_equal(got, self._one_shot(spec, dt, nu, z))

    def test_memory_does_not_grow_with_the_paths(self):
        """65,536 per-path increments: beyond their inputs, one call of the
        transform peaks at seven arrays of that size (3.7 MB)."""
        rng = np.random.default_rng(11)
        n = 65_536
        nu, z, dt = rng.standard_normal(n), rng.random(n), rng.uniform(1e-3, 0.5, n)
        spec = _spec(IG, 1.7, 2.3)
        increment_from_draws(spec, dt[:100], None, nu[:100], z[:100])  # warm up
        tracemalloc.start()
        try:
            increment_from_draws(spec, dt, None, nu, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestFamilyByValue:
    @pytest.mark.parametrize("family", list(sl.Family))
    def test_string_value_is_the_family(self, family):
        assert sl.SubordinatorSpec(family.value, 1.0, 1.0).family is family

    @pytest.mark.parametrize("bad", ["cauchy", "GAMMA", 0, None])
    def test_unknown_family_raises_at_construction(self, bad):
        with pytest.raises(ValueError):
            sl.SubordinatorSpec(bad, 1.0, 1.0)
