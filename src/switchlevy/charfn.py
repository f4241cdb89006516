"""Characteristic function of the switching time-changed log price.

Per-regime characteristic exponents are composed through the subordinator
Laplace exponent,

    Psi_j(u) = ell_j(i mu_j u - sigma_j^2 u^2 / 2),

so exp(t Psi_j(u)) = E[exp(i u Y_t^j)] for the non-switching regime-j
process. The switching characteristic function couples the regimes through
the 2x2 matrix

    Phi(u) = [[-l12 + Psi_1(u),  l12           ],
              [ l21,             -l21 + Psi_2(u)]]

and, for a chain started in regime 1,

    phi(u) = exp(i u y0) * (e_1^T exp(t Phi(u)) [1, 1]^T),

i.e. the first entry of exp(t Phi(u)) summed across terminal regimes. At
u = 0 this reduces to a transition-matrix row sum, hence phi(0) = 1 for
any intensities.

The row sum is taken in closed form from the eigenvalues m +/- d of the
2x2 matrix A = t Phi(u) (Moler & Van Loan 2003): with m = tr(A)/2 and
d^2 = ((a11 - a22)/2)^2 + a12 a21,

    e_1^T exp(A) [1, 1]^T = e^m [cosh d + (sinh d / d)((a11 - m) + a12)].

The eigenvalues of Phi(u) have nonpositive real parts, so the exponentials
are formed as e^{m+d} and e^{m-d}, which cannot overflow. The general
scaling-and-squaring [6/6] Pade exponential `matrix_exp` is kept as the
reference the closed form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regime import Family, RegimeParams, SwitchingModel
from .subordinators import (
    _gamma_log,
    _ig_root,
    laplace_exponent,
    laplace_exponent_derivatives,
    real_domain_sup,
    spec_for,
)

# [6/6] Pade coefficients of exp(x): c_j = (12-j)! 6! / (12! (6-j)! j!)
_PADE_M = 6
_PADE_C = np.array(
    [
        math.factorial(12 - j) * math.factorial(6)
        / (math.factorial(12) * math.factorial(6 - j) * math.factorial(j))
        for j in range(_PADE_M + 1)
    ]
)
_SCALE_THRESHOLD = 0.5


def regime_char_exponent(params: RegimeParams, family: Family, u):
    """Characteristic exponent Psi(u) of one regime; u scalar or array."""
    u = np.asarray(u, dtype=complex)
    arg = 1j * params.mu * u - 0.5 * params.sigma**2 * u * u
    return laplace_exponent(spec_for(params, family), arg)


def regime_char_exponent_grad(params: RegimeParams, family: Family, u) -> np.ndarray:
    """Derivatives of Psi(u) = ell(s), s = i mu u - sigma^2 u^2 / 2, in
    (mu, sigma, alpha, beta), stacked on a leading axis of length 4.

    d/dmu = ell'(s) i u and d/dsigma = -ell'(s) sigma u^2; ell is linear
    in alpha, so d/dalpha = ell/alpha; d/dbeta is -alpha s/(beta(beta - s))
    for Gamma and -alpha(beta/sqrt(beta^2 - 2s) - 1) for IG. The identity
    clock has no alpha or beta. The log (Gamma) or the root (IG) is taken
    once, by the real-arithmetic helpers of `laplace_exponent`, with its
    branch check.
    """
    u = np.asarray(u, dtype=complex)
    s = 1j * params.mu * u - 0.5 * params.sigma**2 * u * u
    spec, a, b = spec_for(params, family), params.alpha, params.beta
    if spec.family is Family.IDENTITY:
        slope, d_alpha, d_beta = np.ones_like(s), np.zeros_like(s), np.zeros_like(s)
    elif spec.family is Family.GAMMA:
        slope = a / (b - s)
        d_alpha, d_beta = -_gamma_log(spec, s), -s * slope / b
    else:
        root = _ig_root(spec, s)
        slope = a / root
        d_alpha, d_beta = b - root, -a * (b / root - 1.0)
    return np.stack([1j * u * slope, -params.sigma * u * u * slope, d_alpha, d_beta])


def increment_cumulants(
    params: RegimeParams, family: Family, dt: float
) -> tuple[float, float, float, float]:
    """First four cumulants of a single-regime increment over dt, the
    Taylor coefficients of dt Psi(-i theta) times n!."""
    d1, d2, d3, d4 = laplace_exponent_derivatives(spec_for(params, family))
    mu, v = params.mu, params.sigma**2
    k1 = dt * d1 * mu
    k2 = dt * (d2 * mu**2 + d1 * v)
    k3 = dt * (d3 * mu**3 + 3.0 * d2 * mu * v)
    k4 = dt * (d4 * mu**4 + 6.0 * d3 * mu**2 * v + 3.0 * d2 * v**2)
    return k1, k2, k3, k4


def phi_matrix(model: SwitchingModel, u: complex) -> np.ndarray:
    """Coupling matrix Phi(u); equals the generator Q at u = 0."""
    return phi_matrix_batch(model, np.asarray([u], dtype=complex))[0]


def phi_matrix_batch(model: SwitchingModel, u: np.ndarray) -> np.ndarray:
    """Phi(u) stacked over a vector of arguments, shape (n, 2, 2), from the
    entries the pricing path builds (`_phi_entries` at t = 1)."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    out = np.empty(u.shape + (2, 2), dtype=complex)
    out[:, 0, 0], out[:, 1, 1], out[:, 0, 1], out[:, 1, 0] = _phi_entries(model, 1.0, u)
    return out


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """exp(A) for a 2x2 complex matrix or a stack of them, shape (..., 2, 2).

    Scaling and squaring: the smallest s >= 0 with ||A / 2^s||_inf <= 0.5
    is chosen per matrix, the scaled matrix is fed through the [6/6] Pade
    approximant, and the result is squared s times.
    """
    a = np.asarray(a, dtype=complex)
    single = a.ndim == 2
    if single:
        a = a[None, ...]
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")

    norm = np.abs(a).sum(axis=-1).max(axis=-1)  # infinity norm per matrix
    s = np.zeros(norm.shape, dtype=int)
    big = norm > _SCALE_THRESHOLD
    s[big] = np.ceil(np.log2(norm[big] / _SCALE_THRESHOLD)).astype(int)
    x = a / (2.0 ** s)[..., None, None]

    eye = np.broadcast_to(np.eye(2, dtype=complex), x.shape).copy()
    powers = [eye, x]
    for _ in range(2, _PADE_M + 1):
        powers.append(powers[-1] @ x)
    p = sum(c * pw for c, pw in zip(_PADE_C, powers))
    q = sum(c * (-1) ** j * pw for j, (c, pw) in enumerate(zip(_PADE_C, powers)))
    r = np.linalg.solve(q, p)

    for k in range(int(s.max()) if s.size else 0):
        mask = s > k
        r[mask] = r[mask] @ r[mask]
    return r[0] if single else r


@dataclass(frozen=True)
class CharFn:
    """Characteristic function of y0 + Z_t for a switching model.

    y0 defaults to log(s0), the log price that `plot-cf` writes the CF of.
    The COS pricer builds it at y0 = 0, the log return, and shifts each
    strike's interval by its log-moneyness. t is one horizon, or an
    array-like of horizons that broadcasts against the u grid of
    `switching_cf`: an (M, 1) column against an (M, n) grid gives one row
    per horizon in one sweep. Every horizon must be finite and > 0.
    """

    model: SwitchingModel
    t: float | tuple | np.ndarray
    y0: float | None = None

    def __post_init__(self) -> None:
        horizons = np.asarray(self.t, dtype=float).ravel().tolist()
        if not (horizons and all(0 < t < math.inf for t in horizons)):
            raise ValueError(f"every horizon t must be finite and > 0, got {self.t}")
        if self.y0 is None:
            object.__setattr__(self, "y0", math.log(self.model.s0))


def _phi_entries(model: SwitchingModel, t, u):
    """Entries (a11, a22, a12, a21) of t Phi(u), broadcast over t and u,
    without forming the (..., 2, 2) stack; t must hold valid horizons."""
    psi1 = np.asarray(regime_char_exponent(model.regimes[0], model.family, u))
    psi2 = np.asarray(regime_char_exponent(model.regimes[1], model.family, u))
    finite = math.isfinite(model.lambda12) and math.isfinite(model.lambda21)
    if not (finite and np.isfinite(psi1).all() and np.isfinite(psi2).all()):
        raise ValueError("matrix entries must be finite")
    return (
        t * (-model.lambda12 + psi1),
        t * (-model.lambda21 + psi2),
        t * model.lambda12,
        t * model.lambda21,
    )


def _row_sum_parts(a11, a22, a12, a21):
    """Eigenvalue pieces of 2x2 matrices given by their entries, arrays
    that broadcast to one shape: h = (a11 - a22)/2, d, the cosh part
    e^m cosh d and the sinh part e^m sinh(d)/d.

    The cosh part is (e^{m+d} + e^{m-d}) / 2, which cannot overflow when
    Re(m +/- d) <= 0. The sinh part is (e^{m+d} - e^{m-d}) / (2d) for
    |d| >= 1 and e^m sinh(d)/d for |d| < 1, where the difference would
    cancel; the latter tends to e^m as d -> 0, so a defective A needs no
    special case. The entries must be finite (`_entries` and `_phi_entries`
    check them).
    """
    m = 0.5 * (a11 + a22)
    h = 0.5 * (a11 - a22)
    d = np.sqrt(h * h + a12 * a21)
    e_plus = np.exp(m + d)
    e_minus = np.exp(m - d)
    small = np.abs(d) < 1.0
    sinh_part = (e_plus - e_minus) / (2.0 * np.where(small, 1.0, d))
    ds = d[small]
    sinhc = np.empty_like(ds)
    sinhc.fill(1.0)
    np.divide(np.sinh(ds), ds, out=sinhc, where=ds != 0)
    sinh_part[small] = np.exp(m[small]) * sinhc
    return m, h, d, small, 0.5 * (e_plus + e_minus), sinh_part


def _entries(a: np.ndarray):
    """(a11, a22, a12, a21) of a stack of 2x2 matrices, shape (n, 2, 2)."""
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a[:, 0, 0], a[:, 1, 1], a[:, 0, 1], a[:, 1, 0]


def _row_sum(a11, a22, a12, a21):
    """e_1^T exp(A) [1, 1]^T from the entries of A, broadcast arrays."""
    _, h, _, _, cosh_part, sinh_part = _row_sum_parts(a11, a22, a12, a21)
    return cosh_part + sinh_part * (h + a12)


def expm_row_sum(a: np.ndarray) -> np.ndarray:
    """e_1^T exp(A) [1, 1]^T for a stack of 2x2 matrices, shape (n, 2, 2),
    in closed form through the eigenvalues m +/- d of A."""
    return _row_sum(*_entries(a))


# T(d^2) = (cosh d - sinh(d)/d) / (2 d^2) = sum_j (j + 1) d^{2j} / (2j + 3)!,
# summed to j = 10 for |d| < 1 (the next term is below 1e-21)
_T_SERIES = np.array([(j + 1) / math.factorial(2 * j + 3) for j in range(11)])


def expm_row_sum_grad(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f = e_1^T exp(A) [1, 1]^T and its derivatives in a11 and a22, for a
    stack of 2x2 matrices, shape (n, 2, 2); see `_row_sum_grad`."""
    return _row_sum_grad(*_entries(a))


def _row_sum_grad(a11, a22, a12, a21):
    """`expm_row_sum_grad` on the entries of A, broadcast arrays.

    With f = e^m [cosh d + S (h + a12)], S = sinh(d)/d, d^2 = h^2 + a12 a21
    and T = dS/d(d^2) = (cosh d - S) / (2 d^2),

        df/da11 = f/2 + e^m [S h/2 + T h (h + a12) + S/2],
        df/da22 = f/2 - e^m [S h/2 + T h (h + a12) + S/2].

    Since cosh d - S = 2 d^2 T, the second is e^m a12 [S/2 + T (a21 - h)],
    which is formed directly so that it carries no cancellation against
    f/2 (it vanishes with a12, when regime 2 is never reached); the first
    is then f minus the second, as shifting A by c I scales f by e^c. T is
    taken from its series for |d| < 1, which avoids the 0/0 limit at a
    defective A, and from the cosh and sinh parts otherwise.
    """
    m, h, d, small, cosh_part, sinh_part = _row_sum_parts(a11, a22, a12, a21)
    f = cosh_part + sinh_part * (h + a12)
    d2 = d * d
    t_part = (cosh_part - sinh_part) / (2.0 * np.where(small, 1.0, d2))
    t_part[small] = np.exp(m[small]) * np.polynomial.polynomial.polyval(d2[small], _T_SERIES)
    df_da22 = a12 * (0.5 * sinh_part + t_part * (a21 - h))
    return f, f - df_da22, df_da22


def switching_cf(cf: CharFn, u):
    """phi(u) = exp(i u y0) e_1^T exp(t Phi(u)) [1,1]^T; u scalar or array.

    The result has the broadcast shape of u and cf.t, so an array of
    horizons sweeps every one of them in one call; a scalar u with a
    scalar horizon gives a complex number.
    """
    u_arr = np.asarray(u, dtype=complex)
    t = np.asarray(cf.t, dtype=float)
    scalar = u_arr.ndim == 0 and t.ndim == 0
    if scalar:
        u_arr = u_arr.reshape(1)
    vals = _row_sum(*_phi_entries(cf.model, t, u_arr))
    if cf.y0:
        vals = np.exp(1j * u_arr * cf.y0) * vals
    return complex(vals[0]) if scalar else vals


def risk_neutral_drift(params: RegimeParams, family: Family, r: float) -> float:
    """Drift mu making the discounted single-regime price a martingale.

    Solves Psi(-i) = r, i.e. ell(mu + sigma^2/2) = r, by bracketed root
    finding in mu (Psi(-i) is strictly increasing in mu). For the IG
    family a solution requires beta >= r/alpha; otherwise the needed
    exponential moment does not exist. At beta = r/alpha the root is the
    closed end beta^2/2 of the exponent's domain, where ell = alpha beta;
    the search below stops short of it, so a root it cannot bracket is
    taken there.
    """
    from scipy.optimize import brentq

    spec = spec_for(params, family)
    half_var = 0.5 * params.sigma**2

    if spec.family is Family.IDENTITY:
        return r - half_var
    if spec.family is Family.INVERSE_GAUSSIAN and params.beta < r / params.alpha:
        raise ValueError(
            "no martingale drift: IG family requires beta >= r/alpha "
            f"(beta={params.beta}, r/alpha={r / params.alpha})"
        )

    def resid(mu: float) -> float:
        return float(np.real(laplace_exponent(spec, mu + half_var))) - r

    sup = real_domain_sup(spec)
    # Bracket the root: resid decreases to -inf as mu -> -inf and increases
    # toward +inf (Gamma) or alpha*beta - r >= 0 (IG) as mu + sigma^2/2
    # approaches the domain supremum.
    lo = -half_var  # ell(0) = 0 there
    if resid(lo) > 0.0:
        step = 1.0
        while resid(lo - step) > 0.0:
            step *= 2.0
            if step > 1e12:  # pragma: no cover
                raise RuntimeError("failed to bracket martingale drift")
        lo, hi = lo - step, lo
    else:
        gap = sup - half_var - lo
        hi = None
        for k in range(1, 46):
            cand = lo + gap * (1.0 - 0.5**k)
            if resid(cand) >= 0.0:
                hi = cand
                break
        if hi is None:
            if spec.family is Family.INVERSE_GAUSSIAN:
                return sup - half_var
            raise ValueError(
                "no martingale drift found within the exponent domain "
                f"(family={spec.family.value}, r={r})"
            )

    mu = brentq(resid, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    if abs(resid(mu)) > 1e-10:
        raise RuntimeError(f"martingale residual {resid(mu)} above tolerance")
    return float(mu)


def esscher_tilt(params: RegimeParams, family: Family, theta: float):
    """Exponentially tilted characteristic exponent of one regime.

    Returns the function u -> Psi(u - i theta) - Psi(-i theta), the
    exponent of the regime under the measure tilted by exp(theta X_t).
    Requires the exponential moment Psi(-i theta) to exist.
    """
    spec = spec_for(params, family)
    moment_arg = params.mu * theta + 0.5 * params.sigma**2 * theta**2
    if moment_arg >= real_domain_sup(spec):
        raise ValueError(
            f"exponential moment does not exist for theta={theta} "
            f"(requires mu*theta + sigma^2 theta^2/2 < {real_domain_sup(spec)})"
        )
    base = regime_char_exponent(params, family, -1j * theta)

    def tilted(u):
        return regime_char_exponent(params, family, np.asarray(u, dtype=complex) - 1j * theta) - base

    return tilted
