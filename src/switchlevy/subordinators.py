"""Gamma and Inverse Gaussian subordinators: exponents and sampling.

The Laplace exponent ell is normalized so that E[exp(s * L_t)] =
exp(t * ell(s)):

    Gamma(alpha, beta):  ell(s) = -alpha * log(1 - s / beta)
    IG(alpha, beta):     ell(s) = -alpha * (sqrt(beta^2 - 2 s) - beta)
    Identity:            ell(s) = s          (L_t = t)

Both random clocks have mean alpha/beta per unit time; the IG variance
alpha/beta^3 exceeds the Gamma variance alpha/beta^2 exactly when
beta < 1. Complex arguments use principal branches; the preconditions
keep the argument off the cut and violations raise BranchCutError.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .regime import Family, RegimeParams


class BranchCutError(ValueError):
    """Raised when an exponent argument leaves the principal branch domain."""


@dataclass(frozen=True)
class SubordinatorSpec:
    """A clock family with its (alpha, beta); family may be given by its
    string value, and anything that names no Family raises ValueError."""

    family: Family
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


def spec_for(params: RegimeParams, family: Family) -> SubordinatorSpec:
    return SubordinatorSpec(family, params.alpha, params.beta)


def laplace_exponent(spec: SubordinatorSpec, s):
    """ell(s) with E[exp(s L_t)] = exp(t ell(s)); s scalar or array.

    Domain: Gamma requires Re(1 - s/beta) > 0, IG requires
    Re(beta^2 - 2 s) > 0. ell(0) = 0 for every family. The logarithm
    (`_gamma_log`) and the square root (`_ig_root`) are taken in real
    arithmetic, with no complex log or sqrt per point.
    """
    s = np.asarray(s, dtype=complex)
    if spec.family is Family.IDENTITY:
        out = s
    elif spec.family is Family.GAMMA:
        out = -spec.alpha * _gamma_log(spec, s)
    else:
        out = -spec.alpha * (_ig_root(spec, s) - spec.beta)
    return complex(out) if out.ndim == 0 else out


def _gamma_log(spec: SubordinatorSpec, s: np.ndarray) -> np.ndarray:
    """Principal log(1 - s/beta) of a complex array s, checked against the cut.

    With p + iq = -s/beta, log|1 + p + iq| = log1p(p(2 + p) + q^2)/2, which
    keeps its digits as |1 - s/beta| -> 1, and the angle is atan2(q, 1 + p).
    """
    ratio = s / spec.beta
    x = 1.0 - ratio.real  # = 1 + p
    _check_branch(x, spec, s)
    p, q = -ratio.real, -ratio.imag
    out = np.empty(s.shape, dtype=complex)
    out.real = 0.5 * np.log1p(p * (2.0 + p) + q * q)
    out.imag = np.arctan2(q, x)
    return out


def _ig_root(spec: SubordinatorSpec, s: np.ndarray) -> np.ndarray:
    """Principal sqrt(beta^2 - 2s) of a complex array s, checked against the cut.

    With z = x + iy = beta^2 - 2s and x > 0 (the branch check), the root is
    sqrt((|z| + x)/2) + i y / (2 sqrt((|z| + x)/2)), free of cancellation;
    a real s gives sqrt(x) exactly.
    """
    arg = spec.beta**2 - 2.0 * s
    _check_branch(arg, spec, s)
    x, y = arg.real, arg.imag
    out = np.empty(s.shape, dtype=complex)
    out.real = np.sqrt(0.5 * (np.hypot(x, y) + x))
    out.imag = y / (2.0 * out.real)
    return out


def _check_branch(arg, spec: SubordinatorSpec, s) -> None:
    bad = arg.real <= 0
    if bad.any():
        offender = np.asarray(s).reshape(-1)[np.asarray(bad).reshape(-1)][0]
        raise BranchCutError(
            f"{spec.family.value} exponent argument s={offender} is outside "
            f"the principal branch domain (alpha={spec.alpha}, beta={spec.beta})"
        )


def laplace_exponent_derivatives(spec: SubordinatorSpec) -> tuple[float, float, float, float]:
    """First four derivatives of ell at 0 (cumulants of L_1)."""
    a, b = spec.alpha, spec.beta
    if spec.family is Family.IDENTITY:
        return (1.0, 0.0, 0.0, 0.0)
    if spec.family is Family.GAMMA:
        return (a / b, a / b**2, 2.0 * a / b**3, 6.0 * a / b**4)
    return (a / b, a / b**3, 3.0 * a / b**5, 15.0 * a / b**7)


def real_domain_sup(spec: SubordinatorSpec) -> float:
    """Supremum of real s with ell(s) defined (open for Gamma, closed for IG)."""
    if spec.family is Family.GAMMA:
        return spec.beta
    if spec.family is Family.INVERSE_GAUSSIAN:
        return 0.5 * spec.beta**2
    return np.inf


def sample_increment(spec: SubordinatorSpec, dt, rng: np.random.Generator, size=None):
    """Draw L increments over steps dt (scalar or array, matching size).

    Gamma increments are Gamma(shape alpha*dt, rate beta). IG increments
    have mean alpha*dt/beta and IG shape (alpha*dt)^2, so mean and
    variance match ell'(0)*dt and ell''(0)*dt. Identity returns dt.
    """
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0):
        raise ValueError("dt must be > 0")
    if size is None and dt.ndim > 0:
        size = dt.shape
    if spec.family is Family.IDENTITY:
        return dt if size is None else np.broadcast_to(dt, size).copy()
    if spec.family is Family.GAMMA:
        return rng.gamma(shape=spec.alpha * dt, scale=1.0 / spec.beta, size=size)
    nu = rng.standard_normal(size)
    return increment_from_draws(spec, dt, None, nu, rng.random(size))


def _ig_transform(mean, shape, nu, z):
    """Michael-Schucany-Haas transform of a normal draw nu and uniform z."""
    y = nu * nu
    x = mean + mean * mean * y / (2.0 * shape) - (mean / (2.0 * shape)) * np.sqrt(
        4.0 * mean * shape * y + (mean * y) ** 2
    )
    # Numerical safety: x is a.s. positive; the sqrt cancellation can
    # produce tiny negatives for extreme draws. When x is clamped this
    # small, the selection probability mean/(mean+x) rounds to 1, so the
    # (possibly overflowing) mean^2/x branch is never the one selected.
    x = np.maximum(x, np.finfo(float).tiny)
    with np.errstate(over="ignore"):
        return np.where(z <= mean / (mean + x), x, mean * mean / x)


def increment_from_draws(spec: SubordinatorSpec, dt, u, nu, z):
    """Increment via inverse-CDF / smooth transforms of frozen draws.

    Used for common-random-numbers objectives: for fixed (u, nu, z) the
    output varies smoothly with (alpha, beta). u is uniform (Gamma
    inverse CDF), (nu, z) standard normal/uniform (IG transform). The
    Gamma inverse CDF of a large array runs split across the usable CPUs
    (`_gammaincinv`), with the same bits as one serial call. The IG
    transform runs _IG_CHUNK draws at a time into one output array
    (`_ig_increments`), so its temporaries stay the size of a chunk, again
    with the bits of one call.
    """
    dt = np.asarray(dt, dtype=float)
    if spec.family is Family.IDENTITY:
        return np.broadcast_to(dt, np.shape(u)).copy() if np.shape(u) else dt
    if spec.family is Family.GAMMA:
        return _gammaincinv(spec.alpha * dt, u) / spec.beta
    return _ig_increments(spec, dt, nu, z)


# draws per chunk of the IG transform: one chunk peaks at eight arrays of
# its size, 1 MiB, however many draws there are. Every chunk makes 28
# numpy calls, each of which releases and retakes the GIL, so with Monte
# Carlo's blocks on two threads 2^13 made a 100k-path IG price 5-7%
# slower than one call, while 2^14 kept its time
_IG_CHUNK = 1 << 14


def _ig_increments(spec: SubordinatorSpec, dt: np.ndarray, nu, z):
    """IG increments over dt from the draws (nu, z), `_ig_transform` with
    mean alpha*dt/beta and shape (alpha*dt)^2, _IG_CHUNK elements at a
    time into one output array. Every step is elementwise, so each element
    has the bits of one call over all of them: a scalar dt is used as it
    is, arrays are read one flat slice per chunk. An input that must be
    broadcast to the draws' shape is copied once at full size."""
    draws = np.broadcast(dt, nu, z)

    def flat(x):
        if np.ndim(x) == 0:
            return x
        if np.shape(x) != draws.shape:
            x = np.broadcast_to(x, draws.shape)  # the reshape copies it
        return np.reshape(x, -1)

    args = [flat(x) for x in (dt, nu, z)]
    out = np.empty(draws.size)
    for lo in range(0, draws.size, _IG_CHUNK):
        part = slice(lo, lo + _IG_CHUNK)
        dt_part, nu_part, z_part = (x if np.ndim(x) == 0 else x[part] for x in args)
        out[part] = _ig_transform(spec.alpha * dt_part / spec.beta, (spec.alpha * dt_part) ** 2, nu_part, z_part)
    return out.reshape(draws.shape)


# elements per chunk below which a thread costs more than it saves: a
# thread costs about 0.2 ms, gammaincinv about 1.4 us per element at a ~ 0.01
_SPLIT_CHUNK = 2048

special = None  # scipy.special, imported by the first `_gammaincinv`


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _even_ranges(size: int, parts: int) -> list[tuple[int, int]]:
    """parts contiguous (lo, hi) ranges covering range(size), range k being
    [size*k // parts, size*(k+1) // parts): their lengths differ by at most 1."""
    return [(size * k // parts, size * (k + 1) // parts) for k in range(parts)]


def _split_ranges(size: int, min_part: int) -> list[tuple[int, int]]:
    """Even ranges covering range(size), one per usable CPU but at least
    min_part items each, and at least one range."""
    return _even_ranges(size, max(1, min(size // min_part, _usable_cpus())))


def _run_ranges(run: Callable[[int, int], object], ranges: list[tuple[int, int]]) -> None:
    """Call run(lo, hi) for every range. The calling thread runs the first
    range and threads made for this call only run the others; every result
    is read, so an exception in any range reaches the caller. The thread
    pool module is imported only when there is more than one range."""
    if len(ranges) == 1:
        run(*ranges[0])
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(ranges) - 1) as pool:
        pending = [pool.submit(run, lo, hi) for lo, hi in ranges[1:]]
        run(*ranges[0])
        for job in pending:
            job.result()


def _gammaincinv(a, u):
    """scipy.special.gammaincinv(a, u), bit for bit, split across the CPUs.

    The broadcast, flattened arrays are cut into min(usable CPUs, size //
    _SPLIT_CHUNK) contiguous chunks, each inverted into its slice of one
    output array (`_run_ranges`). gammaincinv is elementwise and releases
    the GIL, so every element gets the bits of the serial call. One chunk
    runs on the calling thread. scipy.special is imported at the first
    call; Monte Carlo pricing draws its Gamma increments from numpy and
    never loads it.
    """
    global special
    if special is None:
        from scipy import special
    shape = np.broadcast_shapes(np.shape(a), np.shape(u))
    size = math.prod(shape)
    a, u = (np.broadcast_to(np.asarray(x, dtype=float), shape).reshape(-1) for x in (a, u))
    out = np.empty(size)

    def invert(lo: int, hi: int) -> None:
        special.gammaincinv(a[lo:hi], u[lo:hi], out=out[lo:hi])

    _run_ranges(invert, _split_ranges(size, _SPLIT_CHUNK))
    return out.reshape(shape)
