"""Special functions: Bessel J, normalized and scaled Bessel J and I, and
the one-axis factor of the eigenfunction kernel of the Bessel operator
(the transform plans take the product over axes).

Everything here is vectorized over numpy arrays and pure (no global state),
so evaluation is safe from any number of workers.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma, ive, j0, j1, jv


@dataclass(frozen=True)
class MultiIndex:
    """Parameter vector alpha = (alpha_1, ..., alpha_d), alpha_k > -1/2.

    Q = sum_k (2 alpha_k + 1) is the homogeneous dimension of the weighted
    half-space ((0,inf)^d, x^{2 alpha} dx): large balls have measure ~ r^Q.
    """

    alpha: tuple
    d: int = field(init=False)
    Q: float = field(init=False)

    def __post_init__(self):
        alpha = tuple(float(a) for a in np.atleast_1d(self.alpha))
        if len(alpha) == 0:
            raise ValueError("alpha must be non-empty")
        if any(not np.isfinite(a) or a <= -0.5 for a in alpha):
            raise ValueError(f"every alpha_k must be finite and > -1/2, "
                             f"got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "d", len(alpha))
        object.__setattr__(self, "Q", float(sum(2 * a + 1 for a in alpha)))


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x), nu >= -1/2, x >= 0.

    Dispatches to closed forms at half-integer orders and to the fast
    cephes routines at integer orders; generic orders go through jv.
    """
    nu = float(nu)
    if not np.isfinite(nu) or nu < -0.5:
        raise ValueError("order nu must be finite and >= -1/2")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    if nu == -0.5:
        # J_{-1/2}(x) = sqrt(2/(pi x)) cos x
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.sqrt(2.0 / (np.pi * x)) * np.cos(x)
        return np.where(x == 0.0, np.inf, out)[()]
    if nu == 0.5:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
        return np.where(x == 0.0, 0.0, out)[()]
    if nu == 0.0:
        return j0(x)[()]
    if nu == 1.0:
        return j1(x)[()]
    return jv(nu, x)[()]


# cephes ive breaks down (returns nan) near x ~ 1e9; switch to the uniform
# asymptotic expansion well before that, where its error is already < 1e-14
_IVE_ASYMPTOTIC_CUTOFF = 1e8


def _ive_asymptotic(mu, x):
    m = 4.0 * mu * mu
    s = 1.0 / (8.0 * x)
    series = 1.0 - (m - 1.0) * s + (m - 1.0) * (m - 9.0) * s * s / 2.0
    return series / np.sqrt(2.0 * np.pi * x)


def _ive_safe(mu, x):
    x = np.asarray(x, dtype=float)
    big = x > _IVE_ASYMPTOTIC_CUTOFF
    out = np.empty_like(x)
    if np.any(~big):
        out[~big] = ive(mu, x[~big])
    if np.any(big):
        out[big] = _ive_asymptotic(mu, x[big])
    return out


# Series sum_m q^m / (2^nu m! Gamma(m+nu+1)): u^{-nu} J_nu(u) at
# q = -(u/2)^2 and u^{-nu} I_nu(u) at q = (u/2)^2, used below the cutoff
# where the direct power*Bessel product loses digits.
_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 12


def _norm_series(nu, q):
    acc = np.zeros_like(q)
    term = np.full_like(q, 1.0 / (2.0**nu * gamma(nu + 1.0)))
    for m in range(_SERIES_TERMS):
        acc = acc + term
        term = term * q / ((m + 1.0) * (m + 1.0 + nu))
    return acc


def jnorm(nu, u):
    """Normalized Bessel u^{-nu} J_nu(u), extended continuously to u = 0.

    This is the single-axis factor of the eigenfunction kernel, written with
    nu = alpha_k - 1/2.  The u -> 0 limit 1 / (2^nu Gamma(nu+1)) is hardwired
    through the series branch (the generic product is 0 * inf there).
    """
    u = np.asarray(u, dtype=float)
    small = u <= _SERIES_CUTOFF
    out = np.empty_like(u)
    if np.any(small):
        out[small] = _norm_series(nu, -(u[small] / 2.0) ** 2)
    if np.any(~small):
        ub = u[~small]
        vals = bessel_j(nu, ub)
        # in place, and skipped at nu = 0, where the power is exactly 1:
        # kernel matrices are the largest arrays the sweeps hold
        if nu != 0.0:
            vals *= ub ** (-nu)
        out[~small] = vals
    return out[()]


def inorm_scaled(nu, u):
    """Scaled normalized modified Bessel e^{-u} u^{-nu} I_nu(u), u >= 0.

    Series branch near 0 avoids the cancellation that the power*ive product
    suffers for nu close to -1/2 (alpha near -1/2 in the heat kernel).
    """
    u = np.asarray(u, dtype=float)
    small = u <= _SERIES_CUTOFF
    out = np.empty_like(u)
    if np.any(small):
        us = u[small]
        out[small] = _norm_series(nu, (us / 2.0) ** 2) * np.exp(-us)
    if np.any(~small):
        ub = u[~small]
        out[~small] = ub ** (-nu) * _ive_safe(nu, ub)
    return out[()]


def e_kernel_axis(alpha_k, u):
    """One-axis eigenfunction factor (u)^{-alpha_k+1/2} J_{alpha_k-1/2}(u)."""
    return jnorm(alpha_k - 0.5, u)


def bessel_operator_fd(alpha_k, f_vals, nodes):
    """Second-order finite-difference application of the one-dimensional
    Bessel operator L = -d^2/du^2 - (2 alpha_k / u) d/du on interior nodes.

    Returns (L f)(nodes[1:-1]) using central differences on a possibly
    non-uniform grid; used as the independent oracle for the eigenfunction
    identity and the diagonalization identity.
    """
    u = np.asarray(nodes, dtype=float)
    f = np.asarray(f_vals)
    hm = u[1:-1] - u[:-2]
    hp = u[2:] - u[1:-1]
    f0, f1, f2 = f[:-2], f[1:-1], f[2:]
    d1 = (hm * hm * f2 + (hp * hp - hm * hm) * f1 - hp * hp * f0) / (
        hm * hp * (hm + hp)
    )
    d2 = 2.0 * (hm * f2 - (hm + hp) * f1 + hp * f0) / (hm * hp * (hm + hp))
    return -d2 - (2.0 * alpha_k / u[1:-1]) * d1
