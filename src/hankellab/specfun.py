"""Special functions: the normalized Bessel kernels u^{-nu} J_nu(u) and
e^{-u} u^{-nu} I_nu(u), and the one-axis factor of the eigenfunction kernel
of the Bessel operator (the transform plans take the product over axes).

Each kernel has one route per order, and both take every order nu > -1,
which is every alpha_k = nu + 1/2 > -1/2 that MultiIndex allows.  The J
kernel at nu = 0 is cephes j0 on every argument.  Every other J order, and
every I order, is evaluated from a fixed-order table: the power series up
to u = 1/2, Taylor polynomials on cells of width 1/8 from there to an
order-dependent end, and the large-argument expansion beyond it.  scipy jv
and ive are called only to seed a table, once per order; the tables are
built on first use and kept in a small lru_cache.

Everything here is vectorized over numpy arrays; the only state is that
cache of read-only tables, so evaluation is safe from any number of
workers.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gamma, ive, j0, jv


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
        # judged on the kernel order a - 1/2, which must be > -1 as
        # rounded: a - 1/2 is -1 at the float just above -1/2
        if any(not np.isfinite(a) or a - 0.5 <= -1.0 for a in alpha):
            raise ValueError(f"every alpha_k must be finite and > -1/2, "
                             f"got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "d", len(alpha))
        object.__setattr__(self, "Q", float(sum(2 * a + 1 for a in alpha)))


def _check_order(nu):
    """nu as a float, finite and > -1: the order alpha_k - 1/2 of every
    alpha_k that MultiIndex allows."""
    nu = float(nu)
    if not np.isfinite(nu) or nu <= -1.0:
        raise ValueError("order nu must be finite and > -1")
    return nu


# ---------------------------------------------------------------------------
# fixed-order tables
#
# A tabled order is evaluated up to _SERIES_CUTOFF by _SERIES_TERMS terms of
# its power series, where the direct power*Bessel product loses digits.
# Above the cutoff it comes from a table built once per order: on
# [_SERIES_CUTOFF, upper) a degree-_TAYLOR_DEGREE Taylor polynomial about
# the nearest of the cell centres _SERIES_CUTOFF + i h, and from upper on
# the first _EXPANSION_TERMS terms of the large-argument expansion (DLMF
# 10.17.3 for J, 10.40.1 for the scaled I).  upper is where the first
# omitted term falls below _EXPANSION_TOL of the envelope u^{-nu-1/2}; it
# grows like nu^2, and so does the table.

_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 12
_CELL = 0.125
_TAYLOR_DEGREE = 9
_EXPANSION_TERMS = 16
_EXPANSION_TOL = 1e-16
# below this the scaled I expansion would miss its e^{-2u} companion term
_MIN_UPPER = 20.0
# points per evaluation block, so that the temporaries stay in cache
_BLOCK = 1 << 14


@dataclass(frozen=True)
class _Table:
    kind: str           # "J": u^{-nu} J_nu(u); "I": e^{-u} u^{-nu} I_nu(u)
    nu: float
    coefs: np.ndarray   # (degree + 1, cells): Taylor coefficients per cell
    upper: float        # the expansion takes over from here
    expansion: np.ndarray  # signed a_k(nu), k < _EXPANSION_TERMS


def _expansion_coefs(nu, terms):
    """a_k(nu) of DLMF 10.17.1, k < terms."""
    a = np.empty(terms)
    a[0] = 1.0
    for k in range(1, terms):
        a[k] = a[k - 1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)
    return a


@lru_cache(maxsize=8)
def _table(kind, nu):
    """The fixed-order table of u^{-nu} J_nu (kind "J") or of
    e^{-u} u^{-nu} I_nu (kind "I").

    Each centre's value and slope come from jv or ive, the only calls to
    them that evaluation makes; the higher Taylor coefficients come from
    the function's ODE, u f'' + (2nu+1) f' + u f = 0 for J and
    u h'' + (2u+2nu+1) h' + (2nu+1) h = 0 for the scaled I.
    """
    a = _expansion_coefs(nu, _EXPANSION_TERMS + 2)
    upper = max([_MIN_UPPER] + [
        (abs(a[k]) / _EXPANSION_TOL) ** (1.0 / k)
        for k in (_EXPANSION_TERMS, _EXPANSION_TERMS + 1)])
    cells = int(np.ceil((upper - _SERIES_CUTOFF) / _CELL)) + 1
    c = _SERIES_CUTOFF + _CELL * np.arange(cells)
    scale = c ** (-nu)
    coefs = np.empty((_TAYLOR_DEGREE + 1, cells))
    if kind == "J":
        coefs[0] = scale * jv(nu, c)
        coefs[1] = -scale * jv(nu + 1.0, c)
    else:
        coefs[0] = scale * ive(nu, c)
        coefs[1] = scale * ive(nu + 1.0, c) - coefs[0]
    for m in range(_TAYLOR_DEGREE - 1):
        if kind == "J":
            num = ((m + 1) * (m + 2 * nu + 1) * coefs[m + 1]
                   + c * coefs[m] + (coefs[m - 1] if m else 0.0))
        else:
            num = ((m + 1) * (m + 2 * c + 2 * nu + 1) * coefs[m + 1]
                   + (2 * m + 2 * nu + 1) * coefs[m])
        coefs[m + 2] = -num / (c * (m + 1) * (m + 2))
    # the expansion's signs: (-1)^k for I, and for J (-1)^k on a_{2k} in P
    # and on a_{2k+1} in Q
    k = np.arange(_EXPANSION_TERMS)
    signed = a[:_EXPANSION_TERMS] * (-1.0) ** (k if kind == "I" else k // 2)
    for arr in (coefs, signed):
        arr.setflags(write=False)
    return _Table(kind, nu, coefs,
                  float(_SERIES_CUTOFF + _CELL * (cells - 1)), signed)


def _horner(coefs, x):
    """sum_k coefs[k] x^k."""
    acc = np.full_like(x, coefs[-1])
    for ck in coefs[-2::-1]:
        acc *= x
        acc += ck
    return acc


def _series(tb, u):
    """The series branch; u <= _SERIES_CUTOFF.

    sum_m q^m / (2^nu m! Gamma(m+nu+1)) is u^{-nu} J_nu(u) at
    q = -(u/2)^2 and u^{-nu} I_nu(u) at q = (u/2)^2."""
    q = (u / 2.0) ** 2
    if tb.kind == "J":
        q = -q
    acc = np.zeros_like(q)
    term = np.full_like(q, 1.0 / (2.0**tb.nu * gamma(tb.nu + 1.0)))
    for m in range(_SERIES_TERMS):
        acc = acc + term
        term = term * q / ((m + 1.0) * (m + 1.0 + tb.nu))
    return acc if tb.kind == "J" else acc * np.exp(-u)


def _taylor(tb, u):
    """Horner at the nearest cell centre; _SERIES_CUTOFF < u < tb.upper."""
    idx = np.rint((u - _SERIES_CUTOFF) * (1.0 / _CELL)).astype(np.intp)
    s = u - (idx * _CELL + _SERIES_CUTOFF)
    acc = tb.coefs[-1].take(idx)
    for row in tb.coefs[-2::-1]:
        acc *= s
        acc += row.take(idx)
    return acc


def _expansion(tb, u):
    """The large-argument expansion; u >= tb.upper."""
    w = 1.0 / u
    out = u ** (-tb.nu - 0.5)
    if tb.kind == "I":
        out *= _horner(tb.expansion, w)
        out *= 1.0 / np.sqrt(2.0 * np.pi)
        return out
    # J_nu(u) sqrt(pi u / 2) = P cos(u - phi) - Q sin(u - phi); cos(u - phi)
    # and sin(u - phi) are expanded so that only u itself is reduced
    w2 = w * w
    p = _horner(tb.expansion[0::2], w2)
    q = _horner(tb.expansion[1::2], w2)
    q *= w
    phi = (0.5 * tb.nu + 0.25) * np.pi
    cphi, sphi = np.cos(phi), np.sin(phi)
    out *= np.sqrt(2.0 / np.pi)
    return out * (np.cos(u) * (cphi * p + sphi * q)
                  + np.sin(u) * (sphi * p - cphi * q))


def _fixed_order(kind, nu, u):
    """The kind's function at the order nu on every point of u: the series,
    the table or the expansion, one cache-sized block at a time."""
    tb = _table(kind, nu)
    flat = u.reshape(-1)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _BLOCK):
        ub, ob = flat[lo:lo + _BLOCK], out[lo:lo + _BLOCK]
        small = ub <= _SERIES_CUTOFF
        big = ~(ub < tb.upper)  # a nan goes to the expansion and stays nan
        for sel, branch in ((small, _series), (~(small | big), _taylor),
                            (big, _expansion)):
            if sel.any():
                ob[sel] = branch(tb, ub[sel])
    return out.reshape(u.shape)[()]


def jnorm(nu, u):
    """Normalized Bessel u^{-nu} J_nu(u), nu > -1, extended continuously to
    u = 0, where it is 1 / (2^nu Gamma(nu+1)).

    This is the single-axis factor of the eigenfunction kernel, written with
    nu = alpha_k - 1/2.  At nu = 0 it is cephes j0 on every u; every other
    order goes through its fixed-order table (the series near 0, the Taylor
    cells, then the large-argument expansion).
    """
    nu = _check_order(nu)
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("argument must be finite")
    if nu == 0.0:
        return j0(u)[()]
    return _fixed_order("J", nu, u)


def inorm_scaled(nu, u):
    """Scaled normalized modified Bessel e^{-u} u^{-nu} I_nu(u), nu > -1,
    u >= 0.

    Every order goes through its fixed-order table: the series near 0
    avoids the cancellation that the power*ive product suffers for nu near
    -1 (alpha near -1/2 in the heat kernel), and from the table's upper end
    on the large-argument expansion holds at any argument (cephes ive
    returns nan near u ~ 1e9).
    """
    return _fixed_order("I", _check_order(nu), np.asarray(u, dtype=float))


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
